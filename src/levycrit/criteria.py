"""Transience/recurrence criteria for symmetric laws and their combination.

Four routes, each producing a :class:`ConvergenceVerdict`:

* the inverse-cubic criterion: convergence of ``sum 1/(n^3 p_n)`` (lattice)
  or ``int_1^inf dy/(y^3 f(y))`` (continuous) is sufficient for transience,
  requiring strictly positive masses/density;
* the Sato-Shepp criterion: divergence of
  ``int_1^inf (int_0^y z nu(max(1,z), inf) dz)^-1 dy`` implies recurrence,
  and its convergence implies transience when the measure is unimodal;
* the Chung-Fuchs criterion: ``int_{|xi|<a} d xi / psi(xi)`` converges iff
  the process is transient; by the Tauberian relation
  ``psi(xi) ~ xi^min(rho-1, 2)`` the declared tail decides it too;
* a total-variation comparison transferring transience between laws whose
  difference has a finite second moment.

Every Converges/Diverges decision on a declared tail comes from one rule,
:func:`tail_status`; the criteria differ only in their truncated partials
and the certified remainders they attach to a convergent verdict.

``classify`` runs every applicable route and folds the implications into a
:class:`TransienceVerdict`; conflicting analytic evidence is never silently
resolved, it surfaces as Unknown with a conflict flag.

The positivity hypotheses are enforced strictly (every lattice mass, the
density a.e. on [1, inf)). Requiring positivity only outside a compact set
would suffice and is a known extension point; it is intentionally not
implemented here.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .measures import (
    LATTICE_SERIES_CUTOFF,
    PANEL_LOG_STEP,
    DomainError,
    LevyTriplet,
    NumericError,
    SymmetricJumpLaw,
    char_exponent,
)
from .powerint import panel_integrals, strided_power_sum
from .tails import TailDescriptor, TailKind, components_from_descriptor
from .verdicts import (
    Basis,
    Classification,
    ConvergenceVerdict,
    CriterionEvidence,
    Status,
    TransienceVerdict,
    combine_evidence,
)

__all__ = [
    "HypothesisViolationError",
    "tail_status",
    "UnsupportedComparisonError",
    "inverse_cubic_lattice_criterion",
    "inverse_cubic_density_criterion",
    "sato_shepp_criterion",
    "chung_fuchs_criterion",
    "compare_measures",
    "classify",
    "ConvergenceVerdict",
    "TransienceVerdict",
    "Status",
    "Basis",
    "Classification",
]


class HypothesisViolationError(DomainError):
    """The law violates a positivity hypothesis required by a criterion."""


class UnsupportedComparisonError(DomainError):
    """The two measures cannot be compared on a common refinement."""


# ---------------------------------------------------------------------------
# the tail rule


def tail_status(tail: TailDescriptor) -> tuple[Status, str]:
    """The transience rule of a declared tail, with a note naming the clause.

    A power tail of exponent rho < 2 makes every criterion converge (the
    paper's ``int_1^inf dy/(y^3 f(y)) < inf``); rho >= 2, exponential and
    compact tails make them diverge; an unknown tail decides nothing.
    """
    if tail.kind is TailKind.UNKNOWN:
        return Status.INCONCLUSIVE, "unknown tail"
    if tail.kind is TailKind.POWER_LAW:
        rho = tail.exponent
        if rho < 2.0:
            return Status.CONVERGES, f"power tail rho={rho:.15g} < 2"
        if rho <= 3.0:
            return Status.DIVERGES, f"power tail rho={rho:.15g} >= 2"
        return Status.DIVERGES, f"power tail rho={rho:.15g} > 3: finite second moment"
    return Status.DIVERGES, f"{tail.kind.value.replace('_', ' ')} tail: finite second moment"


def _undecided(status: Status, note: str, partial: float, truncation: str) -> ConvergenceVerdict:
    """The verdict of a criterion whose tail rule does not converge."""
    return ConvergenceVerdict(
        status=status,
        partial_value=partial,
        tail_bound=math.inf,
        truncation=truncation,
        basis=Basis.NUMERIC_ONLY if status is Status.INCONCLUSIVE else Basis.ANALYTIC_TAIL,
        note=note,
    )


# ---------------------------------------------------------------------------
# inverse-cubic criterion (sufficient for transience)


def inverse_cubic_lattice_criterion(
    law: SymmetricJumpLaw, cutoff: int = LATTICE_SERIES_CUTOFF
) -> ConvergenceVerdict:
    """Classify ``sum_{n>=1} 1 / (n^3 m(n))`` for a lattice law.

    Requires m(n) > 0 for every lag. With per-class power tails
    ``m(n) ~ K n^-rho`` the summand behaves like ``n^(rho-3)/K`` on each
    class, so the series converges iff every class has rho < 2.
    """
    if not law.is_lattice:
        raise DomainError("lattice criterion needs a lattice law")
    sup = law.support
    if sup.max_lag is not None or not law.components:
        if sup.max_lag is not None:
            raise HypothesisViolationError(
                "masses vanish beyond the table; positivity hypothesis fails"
            )
        # infinite support, unknown tail: nothing analytic to say
        lags = np.arange(1, min(cutoff, 10 ** 5) + 1)
        masses = law.mass(lags)
        if np.any(masses <= 0):
            raise HypothesisViolationError("zero mass within truncation range")
        partial = float(np.sum(1.0 / (lags.astype(float) ** 3 * masses)))
        return ConvergenceVerdict(
            status=Status.INCONCLUSIVE,
            partial_value=partial,
            tail_bound=math.inf,
            truncation=f"series to n={lags[-1]}; unknown tail",
            basis=Basis.NUMERIC_ONLY,
        )

    lags = np.arange(1, cutoff + 1)
    masses = law.mass(lags)
    if np.any(masses <= 0):
        bad = int(lags[np.argmax(masses <= 0)])
        raise HypothesisViolationError(f"mass at lag {bad} is zero within truncation")
    partial = float(np.sum(1.0 / (lags.astype(float) ** 3 * masses)))

    diverging = [c for c in law.components if c.exponent >= 2.0]
    if diverging:
        worst = max(c.exponent for c in diverging)
        return ConvergenceVerdict(
            status=Status.DIVERGES,
            partial_value=partial,
            tail_bound=math.inf,
            truncation=f"series to n={cutoff}",
            basis=Basis.ANALYTIC_TAIL,
            note=f"summand ~ n^({worst - 3.0:g}) on a residue class",
        )
    tail_lo = tail_hi = 0.0
    for c in law.components:
        base = strided_power_sum(3.0 - c.exponent, c.stride, c.offset, max(cutoff, c.start - 1) + 1)
        tail_lo += base / (c.constant * c.upper_factor)
        tail_hi += base / (c.constant * c.lower_factor)
    return ConvergenceVerdict(
        status=Status.CONVERGES,
        partial_value=partial,
        tail_bound=tail_hi,
        truncation=f"series to n={cutoff}; analytic power tail beyond",
        basis=Basis.ANALYTIC_TAIL,
        estimate=partial + 0.5 * (tail_lo + tail_hi),
    )


def _density_floor_cutoff(law: SymmetricJumpLaw, y_max: float) -> float:
    """Largest y <= y_max with density above the overflow floor."""
    floor = 1e-280
    if float(law.density(y_max)) > floor:
        return y_max
    lo, hi = 1.0, y_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(law.density(mid)) > floor:
            lo = mid
        else:
            hi = mid
    return lo


def inverse_cubic_density_criterion(
    law: SymmetricJumpLaw, cutoff: float = 1e4
) -> ConvergenceVerdict:
    """Classify ``int_1^inf dy / (y^3 f(y))`` for a continuous law.

    With an exact power tail ``f ~ K y^-rho`` the integrand is
    ``y^(rho-3)/K``: convergent iff rho < 2. Super-polynomial (e.g.
    exponential-envelope) decay makes the integrand explode, so those
    laws diverge.
    """
    if law.is_lattice:
        raise DomainError("density criterion needs a continuous law")
    tail = law.tail
    if tail.kind is TailKind.COMPACT_SUPPORT or not law.strictly_positive:
        raise HypothesisViolationError("density must be strictly positive on [1, inf)")

    y_top = _density_floor_cutoff(law, cutoff)
    panels, _ = panel_integrals(lambda y: 1.0 / (y ** 3 * law.density(y)), [1.0, y_top])
    partial = float(np.sum(panels))
    trunc = f"integral over [1, {y_top:g}]"

    status, note = tail_status(tail)
    if status is not Status.CONVERGES:
        return _undecided(status, note, partial, trunc)
    rho = tail.exponent
    # f(y) >= lower_factor * K * y^-rho beyond the cutoff
    denom_lo = tail.constant * tail.lower_factor
    denom_hi = tail.constant * tail.upper_factor
    tail_hi = y_top ** (rho - 2.0) / (denom_lo * (2.0 - rho))
    tail_lo = y_top ** (rho - 2.0) / (denom_hi * (2.0 - rho))
    return ConvergenceVerdict(
        status=Status.CONVERGES,
        partial_value=partial,
        tail_bound=tail_hi,
        truncation=trunc + "; analytic power tail beyond",
        basis=Basis.ANALYTIC_TAIL,
        estimate=partial + 0.5 * (tail_lo + tail_hi),
        note=note,
    )


# ---------------------------------------------------------------------------
# Sato-Shepp criterion


#: points of the log-uniform Sato-Shepp grid on [1, cutoff]
SATO_SHEPP_POINTS = 1600


def _inner_integral_grid(law: SymmetricJumpLaw, ys: np.ndarray) -> np.ndarray:
    """``I(y) = int_0^y z nu(max(1,z), inf) dz`` at the grid points.

    By Fubini, ``I(y) = nu((1,inf))/2 + sum/integral over 1 < |pts| <= y of
    (pt^2 - 1)/2 masses + (y^2 - 1)/2 nu((y, inf))``; tail masses use the
    midpoint of the law's envelope. Lattice laws take prefix sums of the
    masses and piecewise-power densities closed-form piece integrals. A
    generic density takes one pass of Gauss-Kronrod panels
    (:func:`panel_integrals`) on the grid with 1 and the tail onset added as
    breakpoints: prefix sums of ``int z^2 f`` give the second moment, and
    suffix sums of ``int f`` up to the onset plus the tail model give
    ``nu((y, inf))``.
    """

    def nbar(x: float) -> float:
        lo, hi = law.one_sided_tail_mass(x)
        return 0.5 * (lo + hi)

    out = np.empty(len(ys))
    if law.is_lattice:
        delta = law.spacing
        n_top = int(math.floor(ys[-1] / delta))
        lags = np.arange(1, n_top + 1)
        masses = law.mass(lags) if n_top >= 1 else np.array([])
        pos = lags * delta
        contrib = np.where(pos > 1.0, masses * (pos ** 2 - 1.0) / 2.0, 0.0)
        prefix = np.concatenate([[0.0], np.cumsum(contrib)])
        nbar1 = nbar(1.0)
        for i, y in enumerate(ys):
            k = int(math.floor(y / delta))
            out[i] = nbar1 / 2.0 + prefix[k] + (y * y - 1.0) / 2.0 * nbar(y)
    elif law.support.pieces is not None:
        for i, y in enumerate(ys):
            m2 = sum(p.weighted_integral(1.0, y, 2.0) for p in law.support.pieces)
            out[i] = 0.5 * (y * y * nbar(y) + m2)
    else:
        onset = law.tail.onset
        edges = np.union1d([1.0, max(onset, 1.0)], ys)
        at = np.searchsorted(edges, ys)
        panels, _ = panel_integrals(lambda y: y ** 2 * law.density(y), edges)
        m2 = np.concatenate([[0.0], np.cumsum(panels)])[at]
        n_head = int(np.searchsorted(edges, onset))  # panels below the onset
        mass, _ = panel_integrals(law.density, edges[: n_head + 1])
        head = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])[np.minimum(at, n_head)]
        tail = np.array([nbar(max(y, onset)) for y in ys])  # tail model, no quadrature
        out = 0.5 * (ys * ys * (head + tail) + m2)
    return out


def sato_shepp_criterion(
    law: SymmetricJumpLaw, cutoff: float = 1e4
) -> ConvergenceVerdict:
    """Classify the outer integral ``int_1^inf dy / I(y)``.

    Divergence is recurrence evidence for any symmetric law; convergence is
    transience evidence only when the law carries the unimodal flag (which
    lattice laws never can). With a dominant power tail of exponent rho the
    outer integrand behaves like ``y^(rho-3)``, so the integral converges
    iff rho < 2; any law with finite second moment makes I(y) bounded and
    the integral divergent. The partial is the trapezoid rule in log y on
    ``SATO_SHEPP_POINTS`` points over [1, cutoff], with I(y) from one
    cumulative pass over that grid (:func:`_inner_integral_grid`).
    """
    t_lo, t_hi = law.one_sided_tail_mass(1.0)
    if not math.isfinite(t_hi):
        raise DomainError("tail mass nu((1, inf)) must be finite and computable")

    # integrate dy / I(y) in log space: smooth integrand y / I(y) on a
    # uniform grid in t = log y
    ts = np.linspace(0.0, math.log(cutoff), SATO_SHEPP_POINTS)
    ys = np.exp(ts)
    inner = _inner_integral_grid(law, ys)
    if np.any(inner <= 0):
        raise NumericError("inner integral vanished; law has no tail mass past 1")
    with np.errstate(over="ignore"):  # I(y) subnormal: the partial is an honest inf
        partial = float(np.trapezoid(ys / inner, ts))
    trunc = f"outer integral over [1, {cutoff:g}]"

    tail = law.tail
    status, note = tail_status(tail)
    if status is not Status.CONVERGES:
        return _undecided(status, note, partial, trunc)
    rho = tail.exponent
    # certified lower bound on nbar for the outer tail: on the dominant class,
    # nbar(y) >= K lf (y + stride)^(1-rho) / (stride (rho-1)) >= B_lo y^(1-rho)
    if law.is_lattice:
        comps = law.components or components_from_descriptor(tail)
        dom = min(comps, key=lambda c: c.exponent)
        b_lo = (
            dom.constant
            * dom.lower_factor
            * 2.0 ** (1.0 - rho)
            / (dom.stride * (rho - 1.0))
        )
    else:
        b_lo = tail.constant * tail.lower_factor / (rho - 1.0)
    # I(y) >= y^2 nbar(y) / 2 - (conservative constant absorbed in b_lo)
    tail_hi = 2.0 * cutoff ** (rho - 2.0) / (b_lo * (2.0 - rho))
    return ConvergenceVerdict(
        status=Status.CONVERGES,
        partial_value=partial,
        tail_bound=tail_hi,
        truncation=trunc + "; analytic power tail beyond",
        basis=Basis.ANALYTIC_TAIL,
        estimate=partial + 0.5 * tail_hi,
        note="unimodal hypothesis asserted" if law.unimodal else
        "convergence is transience evidence only under unimodality",
    )


# ---------------------------------------------------------------------------
# Chung-Fuchs criterion


#: (eps, top of the reported exponent fit, points) of the Chung-Fuchs xi grid
CF_GRID = (1e-6, 1e-2, 160)


def _cf_lower_constant(nu: SymmetricJumpLaw) -> float:
    """C with ``psi(xi) >= C xi^(rho-1)`` for 0 < xi <= ``CF_GRID[0]`` (rho < 2).

    Only the dominant tail class counts, on lags with ``xi y <= pi`` where
    ``1 - cos x >= 2 x^2 / pi^2``; as ``y^(2-rho)`` increases, a class sum
    is at least its integral divided by the stride.
    """
    tail = nu.tail
    rho, eps = tail.exponent, CF_GRID[0]
    if nu.is_lattice:
        comps = nu.components or components_from_descriptor(tail)
        dom = min(comps, key=lambda c: c.exponent)
        d, s = nu.spacing, dom.stride
        c_lo = (
            4.0 * dom.constant * dom.lower_factor * d ** (rho - 1.0)
            / (math.pi ** 2 * s * (3.0 - rho))
            * ((math.pi - s * eps * d) ** (3.0 - rho) - (dom.start * eps * d) ** (3.0 - rho))
        )
    else:
        c_lo = (
            4.0 * tail.constant * tail.lower_factor / (math.pi ** 2 * (3.0 - rho))
            * (math.pi ** (3.0 - rho) - (tail.onset * eps) ** (3.0 - rho))
        )
    if not c_lo > 0.0:
        raise NumericError("no certified lower constant for psi near 0")
    return c_lo


def chung_fuchs_criterion(triplet: LevyTriplet, a: float = 1.0) -> ConvergenceVerdict:
    """Classify ``int_{|xi|<a} d xi / psi(xi)`` from the declared tail.

    By the Tauberian relation ``psi(xi) ~ xi^min(rho-1, 2)`` the integral
    converges iff the jump tail is a power tail with rho < 2, which is the
    rule of :func:`tail_status`; a triplet without jumps counts as a compact
    tail. The partial is the integral over ``eps <= |xi| <= a`` on the
    ``CF_GRID`` points; a convergent verdict bounds the rest by
    ``psi >= C xi^(rho-1)`` (:func:`_cf_lower_constant`). The slope of
    log psi against log xi over ``xi <= CF_GRID[1]`` is reported in the
    note and decides nothing.
    """
    eps, fit_top, n_pts = CF_GRID
    if a <= eps:
        raise DomainError(f"a must exceed {eps:g}")
    xi = np.geomspace(eps, a, n_pts)
    psi = np.array([char_exponent(triplet, x) for x in xi])
    if np.any(psi < 1e-300):
        raise NumericError("psi underflow near 0")
    # 2 int_eps^a dxi / psi in log xi: Simpson's rule on the first n_pts - 2 (even)
    # intervals, and on the last the parabola through the last three points
    w = np.full(n_pts, 2.0)
    w[1::2] = 4.0
    w[[0, -2]] = 1.0
    w[-1] = 0.0
    w[-3:] += np.array([-1.0, 8.0, 5.0]) / 4.0
    h = (math.log(a) - math.log(eps)) / (n_pts - 1)
    partial = 2.0 * h / 3.0 * float(w @ (xi / psi))
    fit = xi <= fit_top
    slope = np.polyfit(np.log(xi[fit]), np.log(psi[fit]), 1)[0]
    trunc = f"integral over {eps:g} <= |xi| <= {a:g}"

    nu = triplet.nu
    tail = nu.tail if nu is not None else TailDescriptor(TailKind.COMPACT_SUPPORT)
    status, note = tail_status(tail)
    note = f"{note}; fitted small-xi exponent {slope:.6f}"
    if status is not Status.CONVERGES:
        return _undecided(status, note, partial, trunc)
    rho = tail.exponent
    tail_hi = 2.0 * eps ** (2.0 - rho) / (_cf_lower_constant(nu) * (2.0 - rho))
    return ConvergenceVerdict(
        status=Status.CONVERGES,
        partial_value=partial,
        tail_bound=tail_hi,
        truncation=trunc + "; analytic power tail below",
        basis=Basis.ANALYTIC_TAIL,
        estimate=partial + 0.5 * tail_hi,
        note=note,
    )


# ---------------------------------------------------------------------------
# total-variation comparison


def _compare_lattice(nu1, nu2, cutoff):
    if nu1.spacing != nu2.spacing:
        raise UnsupportedComparisonError("lattice laws must share a spacing")
    delta = nu1.spacing
    n = np.arange(1, int(cutoff) + 1)
    diff = np.abs(nu1.mass(n) - nu2.mass(n))
    partial = float(np.sum((n * delta) ** 2 * diff))

    def keyed(law):
        return {(c.stride, c.offset): c for c in law.components}

    k1, k2 = keyed(nu1), keyed(nu2)
    if set(k1) != set(k2) or not k1:
        return partial, None  # cannot match classes analytically
    tail_hi = 0.0
    worst_rho = math.inf
    identical = True
    for key in k1:
        c1, c2 = k1[key], k2[key]
        same = (
            c1.exponent == c2.exponent
            and c1.constant == c2.constant
            and c1.exact
            and c2.exact
        )
        if same:
            continue
        identical = False
        worst_rho = min(worst_rho, c1.exponent, c2.exponent)
        base = max(int(cutoff), c1.start - 1, c2.start - 1)
        _, h1 = c1.weighted_tail_sum(2.0, base)
        _, h2 = c2.weighted_tail_sum(2.0, base)
        tail_hi += (h1 + h2) * delta ** 2
    if identical:
        return partial, (0.0, True)
    converges = worst_rho > 3.0  # class difference ~ n^-rho, weighted by n^2
    return partial, (tail_hi if converges else math.inf, converges)


def _net_terms(terms1, terms2):
    """Signed net coefficients K1 - K2 grouped by exponent."""
    net: dict[float, float] = {}
    for k, rho in terms1:
        net[rho] = net.get(rho, 0.0) + k
    for k, rho in terms2:
        net[rho] = net.get(rho, 0.0) - k
    scale = max((abs(k) for k in net.values()), default=0.0)
    return {
        rho: k for rho, k in net.items() if abs(k) > 1e-14 * max(scale, 1.0)
    }


def _compare_continuous(nu1, nu2, cutoff):
    def integrand(y):
        return y * y * np.abs(nu1.density(y) - nu2.density(y))

    p1, p2 = nu1.support.pieces, nu2.support.pieces
    if p1 is None or p2 is None:
        # the moment grid, so a narrow density is seen by the nodes
        n_panels = max(1, math.ceil(math.log(cutoff) / PANEL_LOG_STEP))
        edges = np.union1d([0.0, cutoff], np.geomspace(1.0, cutoff, n_panels + 1))
        panels, _ = panel_integrals(integrand, edges[edges <= cutoff])
        return float(np.sum(panels)), None
    # beyond far_start each density is its final infinite-piece form (or zero)
    finite_edges = [p.hi for p in p1 + p2 if p.hi != math.inf]
    far_start = max([cutoff, p1[-1].lo, p2[-1].lo, *finite_edges])
    breaks = sorted(
        {p.lo for p in p1} | {p.lo for p in p2} | set(finite_edges) | {0.0, far_start}
    )
    panels, _ = panel_integrals(integrand, [b for b in breaks if b <= far_start])
    partial = float(np.sum(panels))
    last1 = p1[-1] if p1[-1].hi == math.inf else None
    last2 = p2[-1] if p2[-1].hi == math.inf else None
    net = _net_terms(
        last1.terms if last1 else (), last2.terms if last2 else ()
    )
    if not net:
        return partial, (0.0, True)  # exact cancellation (or both compact)
    rho_min = min(net)
    if rho_min <= 3.0:
        return partial, (math.inf, False)
    tail_hi = sum(
        abs(k) * far_start ** (3.0 - rho) / (rho - 3.0) for rho, k in net.items()
    )
    return partial, (tail_hi, True)


def compare_measures(
    nu1: SymmetricJumpLaw, nu2: SymmetricJumpLaw, cutoff: float = 1e4
) -> ConvergenceVerdict:
    """Classify ``int_0^inf y^2 |nu1 - nu2|(dy)`` (one-sided; laws symmetric).

    Convergence transfers transience: if the nu1-process is transient and
    this integral is finite, the nu2-process is transient as well. The
    comparison is symmetric in its arguments.
    """
    if nu1.is_lattice != nu2.is_lattice:
        raise UnsupportedComparisonError("cannot compare lattice with continuous support")
    if nu1.is_lattice:
        partial, tail_info = _compare_lattice(nu1, nu2, cutoff=min(cutoff, 1e6))
        trunc = f"lattice sum to n={int(min(cutoff, 1e6))}"
    else:
        partial, tail_info = _compare_continuous(nu1, nu2, cutoff)
        trunc = f"integral over [0, {cutoff:g}]"
    if tail_info is None:
        return ConvergenceVerdict(
            status=Status.INCONCLUSIVE,
            partial_value=partial,
            tail_bound=math.inf,
            truncation=trunc + "; tails not analytically comparable",
            basis=Basis.NUMERIC_ONLY,
        )
    tail_hi, converges = tail_info
    if converges:
        return ConvergenceVerdict(
            status=Status.CONVERGES,
            partial_value=partial,
            tail_bound=tail_hi,
            truncation=trunc + "; analytic tail difference beyond",
            basis=Basis.ANALYTIC_TAIL,
            estimate=partial + 0.5 * tail_hi,
            note="transience of the first process transfers to the second",
        )
    return ConvergenceVerdict(
        status=Status.DIVERGES,
        partial_value=partial,
        tail_bound=math.inf,
        truncation=trunc,
        basis=Basis.ANALYTIC_TAIL,
    )


# ---------------------------------------------------------------------------
# combination


def _safe(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), ""
    except (DomainError, NumericError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def classify(
    triplet: LevyTriplet,
    *,
    unimodal: Optional[bool] = None,
    a: float = 1.0,
) -> TransienceVerdict:
    """Combine all applicable criteria into a final transience verdict.

    Implications used: Chung-Fuchs decides both directions when analytic;
    inverse-cubic convergence implies transience; Sato-Shepp divergence
    implies recurrence, and its convergence implies transience only under
    the unimodality hypothesis (``unimodal`` overrides the law's own flag
    when given). Criterion failures are absorbed into Unknown.
    """
    evidence: list[CriterionEvidence] = []

    def push(name, verdict, implication, note=""):
        if verdict is None:
            verdict = ConvergenceVerdict(
                status=Status.INCONCLUSIVE,
                partial_value=0.0,
                tail_bound=math.inf,
                truncation="criterion not evaluated",
                basis=Basis.NUMERIC_ONLY,
                note=note,
            )
        evidence.append(CriterionEvidence(name, verdict, implication))

    cf, err = _safe(chung_fuchs_criterion, triplet, a)
    if cf is None:
        push("chung_fuchs", None, "none", err)
    elif cf.status is Status.CONVERGES:
        push("chung_fuchs", cf, "transient")
    elif cf.status is Status.DIVERGES:
        push("chung_fuchs", cf, "recurrent")
    else:
        push("chung_fuchs", cf, "none")

    nu = triplet.nu
    if nu is not None:
        if nu.is_lattice:
            ic, err = _safe(inverse_cubic_lattice_criterion, nu)
        else:
            ic, err = _safe(inverse_cubic_density_criterion, nu)
        if ic is None:
            push("inverse_cubic", None, "none", err)
        else:
            push("inverse_cubic", ic, "transient" if ic.status is Status.CONVERGES else "none")

        ss, err = _safe(sato_shepp_criterion, nu)
        is_unimodal = nu.unimodal if unimodal is None else unimodal
        if nu.is_lattice:
            is_unimodal = False  # discretely supported measures are never unimodal
        if ss is None:
            push("sato_shepp", None, "none", err)
        elif ss.status is Status.DIVERGES:
            push("sato_shepp", ss, "recurrent")
        elif ss.status is Status.CONVERGES and is_unimodal:
            push("sato_shepp", ss, "transient")
        else:
            push("sato_shepp", ss, "none")

    return combine_evidence(evidence)
