"""Transience/recurrence criteria for symmetric laws and their combination.

Three routes, each producing a :class:`ConvergenceVerdict`:

* the inverse-cubic criterion: convergence of ``sum 1/(n^3 p_n)`` (lattice)
  or ``int_1^inf dy/(y^3 f(y))`` (continuous) is sufficient for transience,
  requiring strictly positive masses/density;
* the Sato-Shepp criterion: divergence of
  ``int_1^inf (int_0^y z nu(max(1,z), inf) dz)^-1 dy`` implies recurrence,
  and its convergence implies transience when the measure is unimodal;
* the Chung-Fuchs criterion: ``int_{|xi|<a} d xi / psi(xi)`` converges iff
  the process is transient; by the Tauberian relation
  ``psi(xi) ~ xi^min(rho-1, 2)`` the declared tail decides it too.

Every Converges/Diverges decision on a declared tail comes from one rule,
:func:`levycrit.verdicts.tail_status`, and every verdict is built by
:func:`levycrit.verdicts.verdict`; the criteria differ only in their
truncated partials and the certified remainders they attach to a
convergent verdict. Every partial is an exact sum or one log-y
:func:`levycrit.powerint.log_panel_integrals` pass, whose error estimate
widens the enclosure.

``classify`` runs a table of routes, each a criterion with the implication
of its Converges and of its Diverges, and folds the implications into a
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
    DomainError,
    LevyTriplet,
    NumericError,
    SymmetricJumpLaw,
    char_exponent,
)
from .powerint import log_panel_integrals
from .powerint import strided_power_sum  # noqa: F401  (bench/tracer.py patches this name)
from .tails import TailDescriptor, TailKind, require_cutoff
from .verdicts import (
    Basis,
    Classification,
    ConvergenceVerdict,
    CriterionEvidence,
    Status,
    TransienceVerdict,
    combine_evidence,
    tail_status,
    verdict,
)

__all__ = [
    "HypothesisViolationError",
    "tail_status",
    "inverse_cubic_lattice_criterion",
    "inverse_cubic_density_criterion",
    "sato_shepp_criterion",
    "chung_fuchs_criterion",
    "classify",
    "ConvergenceVerdict",
    "TransienceVerdict",
    "Status",
    "Basis",
    "Classification",
]


class HypothesisViolationError(DomainError):
    """The law violates a positivity hypothesis required by a criterion."""


# ---------------------------------------------------------------------------
# inverse-cubic criterion (sufficient for transience)


def inverse_cubic_lattice_criterion(law: SymmetricJumpLaw) -> ConvergenceVerdict:
    """Classify ``sum_{n>=1} 1 / (n^3 m(n))`` for a lattice law.

    Requires m(n) > 0 for every lag; a mass that underflows to 0 on a lag
    its power component covers is still positive, and its summand is +inf.
    With per-class power tails ``m(n) ~ K n^-rho`` the summand behaves like
    ``n^(rho-3)/K`` on each class, so the series converges iff every class
    has rho < 2. The head sums to :attr:`SymmetricJumpLaw.series_head`, the
    rest is :meth:`SymmetricJumpLaw.lag_tail_sum`'s, exact for exact
    components. Positivity is checked on the summed lags and on one period
    of residue classes past ``top``: a lag no class covers has no mass.
    """
    if not law.is_lattice:
        raise DomainError("lattice criterion needs a lattice law")
    sup, comps = law.support, law.components
    if sup.max_lag is not None:
        raise HypothesisViolationError("masses vanish beyond the table; positivity hypothesis fails")

    n_head = law.series_head
    masses = law.masses(n_head)
    lags = np.arange(1, n_head + 1)
    # zero summed masses, and one period of the classes past the table; a zero
    # where a power component (K > 0) applies is K n^-rho underflowing
    period = math.lcm(*(c.stride for c in comps))
    empty = np.concatenate([lags[masses <= 0], np.arange(sup.top + 1, sup.top + period + 1)])
    for c in comps:
        empty = empty[(empty < c.start) | (empty % c.stride != c.offset)]
    if empty.size:
        raise HypothesisViolationError(f"mass at lag {int(empty.min())} is zero")
    with np.errstate(divide="ignore", over="ignore"):  # underflowed masses: honest inf
        partial = float(np.sum(1.0 / (lags.astype(float) ** 3 * masses)))

    tail = law.lag_tail_sum(-3.0, n_head, inverse=True)
    if math.isinf(tail[1]):
        worst = max(c.exponent for c in comps)
        return verdict(Status.DIVERGES, partial, f"series to n={n_head}", tail,
                       note=f"summand ~ n^({worst - 3.0:g}) on a residue class")
    return verdict(Status.CONVERGES, partial,
                   f"series to n={n_head}; analytic power tail beyond", tail)


def _density_floor_cutoff(law: SymmetricJumpLaw, y_max: float) -> float:
    """Largest y <= y_max with density above the overflow floor.

    Bisected in log y: 80 halvings of [1, CUTOFF_MAX] still end within an ulp.
    """
    floor = 1e-280
    if float(law.density(y_max)) > floor:
        return y_max
    lo, hi = 1.0, y_max
    for _ in range(80):
        mid = math.sqrt(lo * hi)
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
    laws diverge. The partial runs to the cutoff, or to where the density
    falls to 1e-280 if sooner, in one :func:`log_panel_integrals` pass; its
    ``|K15 - G7|`` widens the enclosure.
    """
    if law.is_lattice:
        raise DomainError("density criterion needs a continuous law")
    require_cutoff(cutoff)
    tail = law.tail
    if tail.kind is TailKind.COMPACT_SUPPORT or not law.strictly_positive:
        raise HypothesisViolationError("density must be strictly positive on [1, inf)")

    y_top = _density_floor_cutoff(law, cutoff)
    ranges, err = log_panel_integrals(lambda y: 1.0 / (y ** 3 * law.density(y)), [1.0, y_top])
    partial = float(ranges[0])
    trunc = f"integral over [1, {y_top:g}]"

    status, note = tail_status(tail)
    if status is not Status.CONVERGES:
        return verdict(status, partial, trunc, err=err, note=note)
    return verdict(status, partial, trunc + "; analytic power tail beyond",
                   tail.inverse_tail_integral(-3.0, y_top), err=err, note=note)


# ---------------------------------------------------------------------------
# Sato-Shepp criterion


def _inner_integral(law: SymmetricJumpLaw, ys: np.ndarray) -> np.ndarray:
    """``I(y) = int_0^y z nu(max(1,z), inf) dz`` of a continuous law at every y >= 1.

    By Fubini ``I(y) = (y^2 nu((y, inf)) + int_1^y z^2 f) / 2``, with the
    tail mass at the midpoint of the law's envelope. Piecewise-power
    densities integrate their pieces in closed form; a generic density takes
    one :func:`log_panel_integrals` pass with 1, the tail onset and every y
    as edges, and prefix sums of ``int z^2 f``.
    """
    lo, hi = law.one_sided_tail_mass(ys)
    nbar = 0.5 * (lo + hi)
    if law.support.pieces is not None:
        m2 = sum(p.weighted_integral(1.0, ys, 2.0) for p in law.support.pieces)
    else:
        edges = np.union1d([1.0, max(law.tail.onset, 1.0)], ys)
        ranges, _ = log_panel_integrals(lambda y: y ** 2 * law.density(y), edges)
        m2 = np.concatenate([[0.0], np.cumsum(ranges)])[np.searchsorted(edges, ys)]
    return 0.5 * (ys * ys * nbar + m2)


def _lattice_cell_sum(law: SymmetricJumpLaw, cutoff: float) -> tuple[float, float]:
    """``int_1^cutoff dy / I(y)`` of a lattice law, exact per cell: (partial, error).

    On a cell [n delta, (n + 1) delta), ``I(y) = c + T y^2 / 2``: T is the
    mass past lag n and 2c the second moment over (1, n delta]. Each cell
    integrates to an arctan (c > 0), ``2/T (1/a - 1/b)`` (c = 0, as on the
    first cell) or ``(b - a)/c`` (T = 0, past a finite table). T sums the
    masses to the head and adds :meth:`SymmetricJumpLaw.lag_tail_sum`'s
    envelope; its two ends give the two ends of the sum, returned as
    midpoint and half width (error 0 for exact components).
    """
    delta = law.spacing
    n = np.arange(math.floor(1.0 / delta), math.ceil(cutoff / delta))
    a = np.maximum(n * delta, 1.0)
    b = np.minimum((n + 1) * delta, cutoff)
    head = max(law.series_head, int(n[-1]))
    masses = law.masses(head)
    lags = np.arange(1, head + 1)
    pos = lags * delta
    moment2 = np.concatenate([[0.0], np.cumsum(np.where(pos > 1.0, pos * pos * masses, 0.0))])
    c = 0.5 * moment2[n]
    past = np.append(np.cumsum(masses[::-1])[::-1], 0.0)[n]
    tail_lo, tail_hi = law.lag_tail_sum(0.0, head)
    t = past + np.array([[tail_hi], [tail_lo]])  # the larger I gives the lower end
    # I = (t / 2)(r^2 + y^2); where r underflows, I is t y^2 / 2 to rounding,
    # and an I that underflows makes the sum an honest inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = np.sqrt(2.0 * c / t)
        cell = 2.0 / (t * r) * np.arctan(r * (b - a) / (r * r + a * b))
        cell = np.where(r == 0.0, 2.0 / t * (1.0 / a - 1.0 / b), cell)
        lo, hi = np.sum(np.where(t == 0.0, (b - a) / c, cell), axis=1).tolist()
    return 0.5 * lo + 0.5 * hi, (0.5 * (hi - lo) if hi > lo else 0.0)


def sato_shepp_criterion(
    law: SymmetricJumpLaw, cutoff: float = 1e4
) -> ConvergenceVerdict:
    """Classify the outer integral ``int_1^inf dy / I(y)``.

    Divergence is recurrence evidence for any symmetric law; convergence is
    transience evidence only when the law carries the unimodal flag (which
    lattice laws never can). With a dominant power tail of exponent rho the
    outer integrand behaves like ``y^(rho-3)``, so the integral converges
    iff rho < 2; any law with finite second moment makes I(y) bounded and
    the integral divergent. The partial over [1, cutoff] is exact per lattice
    cell (:func:`_lattice_cell_sum`; more lags than ``LATTICE_SERIES_CUTOFF``
    are refused first), or one :func:`log_panel_integrals` pass with a
    density's I(y) at the nodes (:func:`_inner_integral`); its error widens
    the enclosure.
    """
    require_cutoff(cutoff)
    n_lags = math.floor(cutoff / law.spacing) if law.is_lattice else 0
    if n_lags > LATTICE_SERIES_CUTOFF:
        raise DomainError(f"{n_lags} lags exceed the cap of {LATTICE_SERIES_CUTOFF}")
    _, nbar1 = law.one_sided_tail_mass(1.0)
    if not math.isfinite(nbar1):
        raise DomainError("tail mass nu((1, inf)) must be finite and computable")
    if nbar1 == 0.0:  # I(y) increases from I(1) = nbar1 / 2
        raise NumericError("inner integral vanished; law has no tail mass past 1")

    if law.is_lattice:
        partial, err = _lattice_cell_sum(law, cutoff)
    else:
        ranges, err = log_panel_integrals(lambda y: 1.0 / _inner_integral(law, y), [1.0, cutoff])
        partial = float(ranges[0])
    trunc = f"outer integral over [1, {cutoff:g}]"

    tail = law.tail
    status, note = tail_status(tail)
    if status is not Status.CONVERGES:
        return verdict(status, partial, trunc, err=err, note=note)
    rho = tail.exponent
    # certified lower bound on nbar for the outer tail: on the dominant class
    # of lags n = y/d, nbar(y) >= K lf (y/d + stride)^(1-rho) / (stride (rho-1))
    # >= B_lo y^(1-rho)
    if law.is_lattice:
        dom = min(law.components, key=lambda c: c.exponent)
        b_lo = (
            dom.constant
            * dom.lower_factor
            * 2.0 ** (1.0 - rho)
            / (dom.stride * (rho - 1.0))
            * law.spacing ** (rho - 1.0)
        )
    else:
        b_lo = tail.constant * tail.lower_factor / (rho - 1.0)
    # I(y) >= y^2 nbar(y) / 2 - (conservative constant absorbed in b_lo)
    tail_hi = 2.0 * cutoff ** (rho - 2.0) / (b_lo * (2.0 - rho))
    return verdict(
        status, partial, trunc + "; analytic power tail beyond", (0.0, tail_hi), err=err,
        note="unimodal hypothesis asserted" if law.unimodal else
        "convergence is transience evidence only under unimodality",
    )


# ---------------------------------------------------------------------------
# Chung-Fuchs criterion


#: lower end of the Chung-Fuchs partial; the declared tail bounds the rest
CF_EPS = 1e-6


def _cf_lower_constant(nu: SymmetricJumpLaw) -> float:
    """C with ``psi(xi) >= C xi^(rho-1)`` for 0 < xi <= ``CF_EPS`` (rho < 2).

    Only the dominant tail class counts, on lags with ``xi y <= pi`` where
    ``1 - cos x >= 2 x^2 / pi^2``; as ``y^(2-rho)`` increases, a class sum
    is at least its integral divided by the stride.
    """
    tail = nu.tail
    rho, eps = tail.exponent, CF_EPS
    if nu.is_lattice:
        dom = min(nu.components, key=lambda c: c.exponent)
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
    tail. The partial is ``2 int d xi / psi`` over [CF_EPS, a], one
    :func:`log_panel_integrals` pass in log xi, each round's psi values from
    one array call of :func:`char_exponent`; the enclosure is widened by
    twice the summed ``|K15 - G7|``. A convergent verdict bounds the rest by
    ``psi >= C xi^(rho-1)`` (:func:`_cf_lower_constant`).
    """
    if not (math.isfinite(a) and a > CF_EPS):
        raise DomainError(f"a must be finite and exceed {CF_EPS:g}, got {a}")

    def inverse_psi(xi):
        psi = char_exponent(triplet, xi)
        if np.any(psi < 1e-300):
            raise NumericError("psi underflow near 0")
        return 1.0 / psi

    ranges, err = log_panel_integrals(inverse_psi, [CF_EPS, a])
    partial, err = 2.0 * float(ranges[0]), 2.0 * err
    trunc = f"integral over {CF_EPS:g} <= |xi| <= {a:g}"

    nu = triplet.nu
    tail = nu.tail if nu is not None else TailDescriptor(TailKind.COMPACT_SUPPORT)
    status, note = tail_status(tail)
    if status is not Status.CONVERGES:
        return verdict(status, partial, trunc, err=err, note=note)
    rho = tail.exponent
    tail_hi = 2.0 * CF_EPS ** (2.0 - rho) / (_cf_lower_constant(nu) * (2.0 - rho))
    return verdict(status, partial, trunc + "; analytic power tail below", (0.0, tail_hi),
                   err=err, note=note)


# ---------------------------------------------------------------------------
# combination


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
    when given; a lattice law is never unimodal). A criterion that fails
    with a domain or numeric error is Inconclusive evidence.
    """
    # (name, criterion, arguments, implication of Converges, of Diverges)
    routes = [("chung_fuchs", chung_fuchs_criterion, (triplet, a), "transient", "recurrent")]
    nu = triplet.nu
    if nu is not None:
        is_unimodal = not nu.is_lattice and (nu.unimodal if unimodal is None else unimodal)
        routes += [
            ("inverse_cubic",
             inverse_cubic_lattice_criterion if nu.is_lattice else inverse_cubic_density_criterion,
             (nu,), "transient", "none"),
            ("sato_shepp", sato_shepp_criterion, (nu,),
             "transient" if is_unimodal else "none", "recurrent"),
        ]
    evidence = []
    for name, criterion, args, if_converges, if_diverges in routes:
        try:
            v = criterion(*args)
        except (DomainError, NumericError) as exc:
            v = verdict(Status.INCONCLUSIVE, 0.0, "criterion not evaluated",
                        note=f"{type(exc).__name__}: {exc}")
        implication = {Status.CONVERGES: if_converges, Status.DIVERGES: if_diverges}
        evidence.append(CriterionEvidence(name, v, implication.get(v.status, "none")))
    return combine_evidence(evidence)
