"""Lattice discretization of continuous jump laws and its diagnostics.

``bin_density`` turns a continuous probability density f into the random
walk on delta*Z whose jump masses are the centered-bin integrals
``P(J = delta n) = int_{delta(n-1/2)}^{delta(n+1/2)} f``. The walks for
all bin widths share one transience/recurrence type, which is also that
of the continuous walk; numerically this package tracks the reduction
through the per-unit-time characteristics (drift under a truncation
function h, the quadratic variation E[h^2(J)], and test integrals E[g(J)]
for bounded continuous g) and their convergence as delta -> 0.

``jensen_gap`` checks the bridging inequality between the unit-bin walk
and the continuous criterion integral,

    sum_{n>=1} 1/((n+1/2)^3 P(J^1 = n)) <= int_{1/2}^inf dy/(y^3 f(y)),

which holds term by term (Cauchy-Schwarz on each bin), so it is asserted
at matched truncation.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .measures import (
    LATTICE_SERIES_CUTOFF,
    DomainError,
    LatticeSupport,
    Normalization,
    PowerPiece,
    SymmetricJumpLaw,
)
from .powerint import log_panel_integrals, panel_integrals
from .powerint import strided_power_sum  # noqa: F401  (bench/tracer.py patches this name)
from .tails import (PowerTailComponent, TailDescriptor, TailKind, require_integer,
                    require_positive)
from .verdicts import ConvergenceVerdict, Status, tail_status, verdict

__all__ = [
    "default_test_functions",
    "bin_density",
    "CharTriple",
    "characteristics",
    "ConvergenceTable",
    "convergence_report",
    "JensenGap",
    "jensen_gap",
]

DRIFT_TOL = 1e-12
#: tail mass a test integral may leave beyond its reach (|g| <= 1)
REACH_MASS_BUDGET = 1e-11
#: largest test-integral reach, in position units, of a power-tailed law
POWER_TAIL_REACH_CAP = 256.0
#: most Gauss-Kronrod panels of one pass over a generic density: bins of
#: :func:`bin_density` (one panel per bin) or unit panels of a test integral
MAX_BIN_QUADS = 10 ** 5
#: most lags an expectation over a lattice law sums (one float64 array each)
MAX_EXPECTATION_LAGS = 10 ** 6


# ---------------------------------------------------------------------------
# test functions


def _bump(scale: float):
    # analytic Gaussian window centered at 2*scale, zero at the origin;
    # mollifier-style compact bumps have too much curvature for coarse bins
    def g(y):
        y = np.asarray(y, dtype=float)
        t = (np.abs(y) - 2.0 * scale) / scale
        return np.exp(-t * t) * (1.0 - np.exp(-y * y))

    return g


def default_test_functions() -> dict[str, Callable]:
    """Bounded continuous test functions for triplet-convergence checks.

    Smooth bumps at scales 1, 2, 4 (Gaussian windows around 2s that vanish
    at the origin) plus damped cosines and a plain cosine sanity function.
    Additional functions can be passed to the report directly.
    """
    return {
        "cos": lambda y: np.cos(np.asarray(y, dtype=float)),
        "damped_cos_1": lambda y: np.cos(np.asarray(y, float))
        * (1.0 - np.exp(-np.asarray(y, float) ** 2)),
        "damped_cos_2": lambda y: np.cos(2.0 * np.asarray(y, float))
        * (1.0 - np.exp(-np.asarray(y, float) ** 2)),
        "bump_1": _bump(1.0),
        "bump_2": _bump(2.0),
        "bump_4": _bump(4.0),
    }


# ---------------------------------------------------------------------------
# binning


def _last_bin(law: SymmetricJumpLaw, delta: float) -> Optional[int]:
    """Last bin of ``bin_density(law, delta)``; None for a power-tailed law.

    The law must be a continuous probability density. A light tail ends at
    the last bin with numerically relevant mass; a generic density needs one
    panel per bin, at most ``MAX_BIN_QUADS``, refused before any density
    evaluation.
    """
    if law.is_lattice:
        raise DomainError("bin_density expects a continuous law")
    if law.normalization is not Normalization.PROBABILITY:
        raise DomainError("bin_density expects a probability density")
    require_positive("delta", delta)
    pieces = law.support.pieces
    tail = law.tail
    if pieces is not None and tail.kind is TailKind.POWER_LAW:
        return None
    if tail.kind is TailKind.EXPONENTIAL:
        # the binned tail's constant, K delta e^(lambda delta / 2), must be a float
        if tail.exponent * delta / 2.0 >= math.log(np.finfo(float).max):
            raise DomainError(f"delta={delta:g} is too wide for the exponential tail model")
        reach = tail.onset + 45.0 / tail.exponent
    elif tail.kind is TailKind.COMPACT_SUPPORT:
        reach = tail.onset
    else:
        raise DomainError("callable densities need an exponential or compact tail model")
    max_bin = max(1, math.ceil(reach / delta + 0.5))
    if pieces is None and max_bin > MAX_BIN_QUADS:
        raise DomainError(
            f"delta={delta:g} needs {max_bin} bins of this density in one pass; "
            f"the cap is {MAX_BIN_QUADS}"
        )
    return max_bin


def _piece_bin_masses(pieces: tuple[PowerPiece, ...], delta: float, n) -> np.ndarray:
    """Centered-bin integrals of a piecewise-power density at lags n >= 1."""
    n = np.asarray(n, dtype=float)
    return sum(p.weighted_integral(delta * (n - 0.5), delta * (n + 0.5)) for p in pieces)


def bin_density(law: SymmetricJumpLaw, delta: float) -> SymmetricJumpLaw:
    """Discretize a continuous probability density onto delta*Z.

    Masses are centered-bin integrals: one vectorized closed form at every
    lag for piecewise-power densities, and otherwise one Gauss-Kronrod pass
    (:func:`levycrit.powerint.panel_integrals`) with one panel per bin, up
    to the last bin with numerically relevant mass (at most
    ``MAX_BIN_QUADS`` bins, checked before the density is evaluated). Only
    the positive side is computed, so symmetry is exact by construction.
    Mass conservation holds analytically (the bins tile the line), and
    numerically within the 1e-10 probability tolerance.
    """
    max_bin = _last_bin(law, delta)
    heavy = max_bin is None
    pieces = law.support.pieces
    if pieces is not None:
        origin = 2.0 * sum(p.weighted_integral(0.0, delta / 2.0, 0.0) for p in pieces)
        mass_fn = partial(_piece_bin_masses, pieces, delta)
    else:
        # panel 0 is the origin's half-bin, panel n the bin of lag n; f is
        # divided by its value at the panel's centre, so the tolerance holds
        # for every mass relatively, down to the least (jensen_gap's 1/m(n))
        edges = delta * np.concatenate([[0.0], np.arange(max_bin + 1) + 0.5])
        scale = law.density(delta * np.concatenate([[0.25], np.arange(1, max_bin + 1)]))
        scale = np.where(scale > 0.0, scale, 1.0)
        bins, _ = panel_integrals(
            lambda y: law.density(y) / scale[np.rint(y / delta).astype(int)], edges
        )
        bins *= scale
        origin = 2.0 * float(bins[0])
        # zero stands beyond the last bin; the law's support ends there
        table = np.concatenate([[0.0], bins[1:], [0.0]])

        def mass_fn(n, _table=table, _top=max_bin + 1):
            return _table[np.minimum(n, _top)]

    components: tuple[PowerTailComponent, ...] = ()
    if heavy:
        last = pieces[-1]
        k_dom, rho_dom = min(last.terms, key=lambda t: t[1])
        n0 = max(2, math.ceil(last.lo / delta + 0.5) + 1)
        k_eff = k_dom * delta ** (1.0 - rho_dom)
        lower = (1.0 + 0.5 / n0) ** -rho_dom
        upper = (1.0 - 0.5 / n0) ** -rho_dom * (
            sum(k * (n0 * delta) ** (rho_dom - rho) for k, rho in last.terms) / k_dom
        )
        components = (
            PowerTailComponent(
                constant=k_eff,
                exponent=rho_dom,
                start=n0,
                lower_factor=lower,
                upper_factor=max(upper, 1.0),
            ),
        )
        tail = TailDescriptor.of_components(components)
        strictly_positive = True
    else:
        src = law.tail
        if src.kind is TailKind.EXPONENTIAL:
            tail = TailDescriptor(
                TailKind.EXPONENTIAL,
                exponent=src.exponent * delta,
                constant=src.constant * delta * math.exp(src.exponent * delta / 2.0),
                onset=max(1.0, math.ceil(src.onset / delta + 0.5)),
            )
        else:
            tail = TailDescriptor(TailKind.COMPACT_SUPPORT, onset=float(max_bin))
        strictly_positive = False  # numerically truncated beyond the cutoff bin

    support = LatticeSupport(
        spacing=delta,
        mass_fn=mass_fn,
        origin_mass=origin,
        components=components,
        max_lag=max_bin,
    )
    return SymmetricJumpLaw(
        support=support,
        normalization=Normalization.PROBABILITY,
        tail=tail,
        total_mass=1.0,
        strictly_positive=strictly_positive,
        label=f"binned({law.label or 'density'}, delta={delta:g})",
    )


# ---------------------------------------------------------------------------
# characteristics


@dataclass(frozen=True)
class CharTriple:
    """Per-unit-time characteristics of the jump distribution.

    ``drift`` is E[h(J)] (zero for symmetric laws; computed as a check),
    ``quad_variation`` is E[h^2(J)], and ``test_integrals`` maps each test
    function id to E[g(J)]. The truncation function h is the continuous
    piecewise-linear taper equal to x on [-h_radius, h_radius] and zero
    beyond 2*h_radius.
    """

    drift: float
    quad_variation: float
    test_integrals: dict[str, float]
    h_radius: float

    def to_dict(self) -> dict:
        return {
            "drift": self.drift,
            "quad_variation": self.quad_variation,
            "test_integrals": dict(self.test_integrals),
            "h_radius": self.h_radius,
        }


def truncation_function(h_radius: float) -> Callable:
    """Continuous taper: x on [-h, h], linear to 0 at 2h, 0 beyond."""

    def h(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        return np.where(
            ax <= h_radius, x, np.sign(x) * np.maximum(2.0 * h_radius - ax, 0.0)
        )

    return h


def _lattice_expectation(law: SymmetricJumpLaw, g: Callable, reach: float) -> float:
    """E[g(J)] = m0 g(0) + sum m(n) (g(dn) + g(-dn)) over the support, or up to the reach.

    Up to the reach, the bins tile [0, reach] as the continuous integral
    does: the bin that holds the reach counts with the share of it inside.
    """
    delta = law.spacing
    bounded = law.support.max_lag is not None
    n_top = law.support.max_lag if bounded else max(1, math.ceil(reach / delta - 0.5))
    if n_top > MAX_EXPECTATION_LAGS:
        raise DomainError(
            f"{n_top} lags at spacing {delta:g} exceed the cap of {MAX_EXPECTATION_LAGS}"
        )
    lags = np.arange(1, n_top + 1)
    pos = lags * delta
    terms = law.masses(n_top) * (np.asarray(g(pos)) + np.asarray(g(-pos)))
    if not bounded:
        terms[-1] *= max(0.0, reach / delta - (n_top - 0.5))
    return law.support.origin_mass * float(np.asarray(g(0.0))) + float(np.sum(terms))


def _continuous_expectation(law: SymmetricJumpLaw, g: Callable, reach: float) -> float:
    # unit panels resolve an oscillating g in one pass (wider past MAX_BIN_QUADS)
    grid = np.linspace(0.0, reach, min(math.ceil(reach), MAX_BIN_QUADS) + 1)
    edges = np.union1d(grid, [p.lo for p in law.support.pieces or () if p.lo < reach])
    panels, _ = panel_integrals(
        lambda y: law.density(y) * (np.asarray(g(y)) + np.asarray(g(-y))), edges
    )
    return float(np.sum(panels))


def _expectation_reach(law: SymmetricJumpLaw) -> float:
    """Position beyond which the remaining mass is below ``REACH_MASS_BUDGET``.

    One rule for a density and its binned walks, so that both sides of a
    convergence row share one reach: a lattice tail model counts lags, and
    its reach in lags is scaled by the spacing. Power tails cap the reach
    at ``POWER_TAIL_REACH_CAP``; the truncated remainder is then at most the
    tail mass beyond the cap (|g| <= 1 assumed, and far smaller for the
    oscillatory and window-localized default test functions).
    """
    tail = law.tail
    scale = law.spacing if law.is_lattice else 1.0
    if tail.kind is TailKind.COMPACT_SUPPORT:
        return scale * tail.onset + 1.0
    if tail.kind is TailKind.EXPONENTIAL:
        return scale * tail.onset + 45.0 / tail.exponent * scale
    if tail.kind is TailKind.POWER_LAW:
        rho = tail.exponent
        k = tail.constant * tail.upper_factor
        if rho <= 1.0:
            raise DomainError("law has no finite mass; not a probability distribution")
        lags = (2.0 * k / (REACH_MASS_BUDGET * (rho - 1.0))) ** (1.0 / (rho - 1.0))
        return min(scale * lags, POWER_TAIL_REACH_CAP)
    raise DomainError("unknown tail: cannot budget the expectation truncation")


def characteristics(
    law: SymmetricJumpLaw,
    h_radius: float = 1.0,
    tests: Optional[dict[str, Callable]] = None,
) -> CharTriple:
    """Drift, quadratic variation and test integrals of a probability law.

    The drift E[h(J)] vanishes exactly for symmetric laws (odd integrand
    against a symmetric law); it is evaluated anyway and checked against a
    1e-12 budget. Test integrals run up to :func:`_expectation_reach`, one
    position for a density and for its binned walks alike, so a
    convergence row compares the two at matched truncation. A lattice law
    sums at most ``MAX_EXPECTATION_LAGS`` lags, and a density's h and h^2
    take at most ``MAX_BIN_QUADS`` unit panels, both checked before any
    array is built.
    """
    if law.normalization is not Normalization.PROBABILITY:
        raise DomainError("characteristics require a probability distribution")
    require_positive("h_radius", h_radius)
    if not law.is_lattice and 2.0 * h_radius + 1.0 > MAX_BIN_QUADS:  # h's unit panels
        raise DomainError(f"h_radius={h_radius:g} needs more than {MAX_BIN_QUADS} panels")
    tests = default_test_functions() if tests is None else tests
    h = truncation_function(h_radius)

    def h2(x):
        return np.asarray(h(x)) ** 2

    expect = _lattice_expectation if law.is_lattice else _continuous_expectation
    drift = expect(law, h, 2.0 * h_radius + 1.0)
    if abs(drift) > DRIFT_TOL:
        raise DomainError(f"symmetric law produced nonzero drift {drift}")
    quad_var = expect(law, h2, 2.0 * h_radius + 1.0)
    reach = _expectation_reach(law)
    integrals = {name: expect(law, g, reach) for name, g in tests.items()}
    return CharTriple(
        drift=drift, quad_variation=quad_var, test_integrals=integrals, h_radius=h_radius
    )


# ---------------------------------------------------------------------------
# convergence report


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-delta absolute errors of the discretized characteristics."""

    deltas: tuple[float, ...]
    rows: tuple[dict, ...]  # delta, test_id, discrete, limit, abs_error
    orders: dict[str, float]  # test_id -> fitted convergence order in delta

    def errors_for(self, test_id: str) -> list[float]:
        return [r["abs_error"] for r in self.rows if r["test_id"] == test_id]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("delta,test_id,discrete,limit,abs_error,order_estimate\n")
        for r in self.rows:
            order = self.orders.get(r["test_id"], math.nan)
            buf.write(
                f"{r['delta']:.10g},{r['test_id']},{r['discrete']:.12g},"
                f"{r['limit']:.12g},{r['abs_error']:.6e},{order:.4f}\n"
            )
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {"rows": list(self.rows), "orders": dict(self.orders)}


def convergence_report(
    law: SymmetricJumpLaw,
    deltas: Sequence[float],
    tests: Optional[dict[str, Callable]] = None,
    h_radius: float = 1.0,
) -> ConvergenceTable:
    """Tabulate |E[g(J^delta)] - E[g(J)]|, |C^delta - C| and |B^delta|.

    ``deltas`` must decrease strictly toward 0. The order estimate per test
    id is the least-squares slope of log error against log delta (midpoint
    binning of a smooth density gives order 2); it is NaN with fewer than
    two deltas, a zero error, or deltas too close to fit a slope.
    """
    deltas = tuple(float(d) for d in deltas)
    if any(b >= a for a, b in zip(deltas, deltas[1:])) or not deltas:
        raise DomainError("deltas must be strictly decreasing")
    for d in deltas:
        require_positive("delta", d)
    tests = default_test_functions() if tests is None else tests
    _last_bin(law, deltas[-1])  # the finest delta needs the most bins: refuse it first
    limit = characteristics(law, h_radius=h_radius, tests=tests)

    rows: list[dict] = []
    for d in deltas:
        binned = bin_density(law, d)
        ct = characteristics(binned, h_radius=h_radius, tests=tests)
        triples = [("drift", ct.drift, 0.0),
                   ("quad_variation", ct.quad_variation, limit.quad_variation),
                   *((name, ct.test_integrals[name], limit.test_integrals[name]) for name in tests)]
        rows += [{"delta": d, "test_id": test_id, "discrete": discrete, "limit": lim,
                  "abs_error": abs(discrete - lim)} for test_id, discrete, lim in triples]

    orders: dict[str, float] = {}
    for name in list(tests) + ["quad_variation"]:
        errs = np.array([r["abs_error"] for r in rows if r["test_id"] == name])
        orders[name] = math.nan
        if len(deltas) >= 2 and np.all(errs > 0):
            # full=True: deltas too close to fit lose a rank, silently
            (slope, _), _, rank, _, _ = np.polyfit(np.log(deltas), np.log(errs), 1, full=True)
            orders[name] = float(slope) if rank == 2 else math.nan
    return ConvergenceTable(deltas=deltas, rows=tuple(rows), orders=orders)


# ---------------------------------------------------------------------------
# the bridging inequality


@dataclass(frozen=True)
class JensenGap:
    """Both sides of the unit-bin bridging inequality, as verdicts."""

    lhs: ConvergenceVerdict  # sum over bins
    rhs: ConvergenceVerdict  # integral criterion
    inequality_holds: bool  # at matched truncation

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
            "inequality_holds": self.inequality_holds,
        }


def jensen_gap(law: SymmetricJumpLaw, n_terms: int = 2000) -> JensenGap:
    """Evaluate ``sum 1/((n+1/2)^3 m(n))`` against ``int_{1/2}^inf dy/(y^3 f)``.

    Requires f > 0 on [1/2, inf). The comparison is made at matched
    truncation (bins 1..N against the integral over [1/2, N+1/2]), where
    it holds term by term; for laws with power tails of exponent below 2
    both sides converge and the verdicts carry two-sided enclosures.
    ``n_terms`` is an integer in [1, ``LATTICE_SERIES_CUTOFF``], checked
    before any array is built.
    """
    if law.is_lattice:
        raise DomainError("jensen_gap expects a continuous law")
    n_terms = require_integer("n_terms", n_terms, 1, LATTICE_SERIES_CUTOFF)
    if not law.strictly_positive and law.tail.kind is TailKind.COMPACT_SUPPORT:
        raise DomainError("density must be positive on [1/2, inf)")
    binned = bin_density(law, 1.0)

    n_top = n_terms
    if binned.support.max_lag is not None:
        n_top = min(n_top, binned.support.max_lag)
    lags = np.arange(1, n_top + 1)
    masses = binned.masses(n_top)
    if np.any(masses <= 0):
        n_top = int(np.argmax(masses <= 0))
        lags = lags[:n_top]
        masses = masses[:n_top]
        if n_top == 0:
            raise DomainError("no positive bin masses past 1")
    lhs_partial = float(np.sum(1.0 / ((lags + 0.5) ** 3 * masses)))

    # rhs partial over [1/2, n_top + 1/2], split at the density's breakpoints
    y_hi = n_top + 0.5
    breaks = {p.lo for p in law.support.pieces or ()}
    edges = sorted({0.5, y_hi} | {b for b in breaks if 0.5 < b < y_hi})
    with np.errstate(all="ignore"):  # where f underflows, the panels raise a NumericError
        ranges, rhs_err = log_panel_integrals(lambda y: 1.0 / (y ** 3 * law.density(y)), edges)
    rhs_partial = float(np.sum(ranges))

    status, note = tail_status(law.tail)
    lhs_tail = rhs_tail = (0.0, math.inf)
    if status is Status.CONVERGES:
        # (n + 1/2)^-3 lies between n^-3 (1 + 1/(2 n_top + 2))^-3 and n^-3
        # for n > n_top: the plain inverse-cubic remainder encloses the bins'
        lo, hi = binned.lag_tail_sum(-3.0, n_top, inverse=True)
        lhs_tail = (lo * (1.0 + 1.0 / (2 * n_top + 2)) ** -3, hi)
        rhs_tail = law.tail.inverse_tail_integral(-3.0, y_hi)

    lhs = verdict(status, lhs_partial, f"bins 1..{n_top}", lhs_tail, note=note)
    rhs = verdict(status, rhs_partial, f"integral over [1/2, {y_hi:g}]", rhs_tail, err=rhs_err,
                  note=note)
    holds = lhs_partial <= rhs_partial + 1e-12 * max(1.0, rhs_partial)
    return JensenGap(lhs=lhs, rhs=rhs, inequality_holds=holds)
