"""Long-range electrical network on Z and the explicit dyadic unit flow.

The walk with symmetric jump masses m is the random walk on the network
whose edge (u, v) has conductance m(|v - u|). Transience is equivalent to
the existence of a unit flow from 0 to infinity with finite energy
``E = 1/2 sum theta^2(u,v) / c(u,v)``, and to the effective resistance of
exterior-shorted truncations staying bounded.

The explicit flow routes through dyadic blocks B_0 = {0},
B_i = {2^(i-1), ..., 2^i - 1} and mirrored negative blocks: each vertex
splits its inflow equally over the next block, giving theta = 2^(-2i)
between consecutive positive blocks (1/2 on (0, +-1)) and an exactly
dyadic, exactly conserved flow. Flow checks run in integer arithmetic
scaled by 4^I, i.e. exact dyadic rationals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy import linalg

from .measures import DomainError, SymmetricJumpLaw

__all__ = [
    "block_index",
    "dyadic_flow",
    "verify_flow",
    "FlowReport",
    "Interval",
    "flow_energy",
    "dyadic_energy_bound",
    "NetworkSlice",
    "build_slice",
    "effective_resistance",
    "effective_resistance_bounds",
    "resistance_profile",
    "ResistanceProfile",
]


def block_index(u: int) -> int:
    """Dyadic block of a vertex: 0 -> 0, u > 0 -> floor(log2 u) + 1, mirrored."""
    if u == 0:
        return 0
    a = abs(int(u))
    i = a.bit_length()  # floor(log2 a) + 1
    return i if u > 0 else -i


def dyadic_flow(u: int, v: int) -> Fraction:
    """Flow theta(u, v) of the explicit dyadic unit flow, exact rational.

    Nonzero only between consecutive blocks: 1/2 out of the origin into
    B_1 and B_-1, and 2^(-2|i|) from each vertex of B_i to each vertex of
    the next block outward. Antisymmetric by construction.
    """
    i, j = block_index(u), block_index(v)
    if i == j or abs(i - j) >= 2:
        return Fraction(0)
    if i == 0:
        return Fraction(1, 2)
    if j == 0:
        return Fraction(-1, 2)
    if 0 < i and j == i + 1:
        return Fraction(1, 4 ** i)
    if 0 < j and i == j + 1:
        return Fraction(-1, 4 ** j)
    if i < 0 and j == i - 1:
        return Fraction(1, 4 ** (-i))
    if j < 0 and i == j - 1:
        return Fraction(-1, 4 ** (-j))
    return Fraction(0)


def _block_index_array(u: np.ndarray) -> np.ndarray:
    a = np.abs(u)
    _, exp = np.frexp(a.astype(np.float64))  # bit length of exact small ints
    return np.where(u == 0, 0, np.sign(u) * exp).astype(np.int64)


def _flow_scaled(i: np.ndarray, j: np.ndarray, i_max: int) -> np.ndarray:
    """theta(u, v) * 4^i_max as int64, given the two block indices."""
    # outward between adjacent blocks, from B_k with k = min(|i|, |j|) < I:
    # 1/2 out of the origin, 4^-k beyond it; |j| - |i| = +-1 gives the sign
    a, b = np.abs(i), np.abs(j)
    k = np.minimum(a, b)
    mag = np.left_shift(1, (2 * (i_max - k) - (k == 0)).clip(0), dtype=np.int64)
    return np.where((np.abs(i - j) == 1) & (k < i_max), (b - a) * mag, 0)


@dataclass
class FlowReport:
    """Exact verification record for the dyadic flow at truncation level I."""

    i_max: int
    vertices_checked: int
    pairs_checked: int
    source_divergence: Fraction
    kirchhoff_violations: list = field(default_factory=list)
    antisymmetry_violations: int = 0
    support_violations: int = 0  # nonzero flow outside adjacent blocks
    vanishing_violations: int = 0  # theta(u, u+w) != 0 with u+w >= 4u > 0
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return (
            not self.kirchhoff_violations
            and self.antisymmetry_violations == 0
            and self.support_violations == 0
            and self.vanishing_violations == 0
            and self.source_divergence == 1
        )

    def to_dict(self) -> dict:
        return {
            "i_max": self.i_max,
            "vertices_checked": self.vertices_checked,
            "pairs_checked": self.pairs_checked,
            "source_divergence": str(self.source_divergence),
            "kirchhoff_violations": self.kirchhoff_violations[:10],
            "antisymmetry_violations": self.antisymmetry_violations,
            "support_violations": self.support_violations,
            "vanishing_violations": self.vanishing_violations,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
        }


#: side of the square vertex blocks checked at once by :func:`verify_flow`
FLOW_CHUNK = 512
#: largest truncation level of :func:`verify_flow` (2^17 vertices, 2^34 pairs)
VERIFY_FLOW_MAX_LEVEL = 16
#: largest truncation level of :func:`flow_energy` (lag arrays of 2^22 entries)
FLOW_ENERGY_MAX_LEVEL = 22


def verify_flow(i_max: int) -> FlowReport:
    """Check the dyadic flow exactly on all vertices |u| < 2^i_max.

    In scaled-integer (exact dyadic) arithmetic: antisymmetry on every
    ordered pair, zero flow outside adjacent blocks, the vanishing rule
    theta(u, u+w) = 0 for u + w >= 4u > 0, unit divergence at the source,
    and zero Kirchhoff residual at every vertex whose flow support lies
    inside the truncation (block index below i_max).
    """
    if not 2 <= i_max <= VERIFY_FLOW_MAX_LEVEL:
        raise DomainError(f"i_max must lie in [2, {VERIFY_FLOW_MAX_LEVEL}], got {i_max}")
    t0 = time.time()
    top = (1 << i_max) - 1
    verts = np.arange(-top, top + 1, dtype=np.int64)
    blocks = _block_index_array(verts)
    n = len(verts)
    residual = np.zeros(n, dtype=np.int64)
    report = FlowReport(
        i_max=i_max,
        vertices_checked=0,
        pairs_checked=n * n,
        source_divergence=Fraction(0),
    )

    starts = list(range(0, n, FLOW_CHUNK))
    for a_idx, a0 in enumerate(starts):
        a1 = min(a0 + FLOW_CHUNK, n)
        bi = blocks[a0:a1][:, None]
        ui = verts[a0:a1][:, None]
        for b0 in starts[a_idx:]:
            b1 = min(b0 + FLOW_CHUNK, n)
            bj = blocks[b0:b1][None, :]
            vj = verts[b0:b1][None, :]
            t_ab = _flow_scaled(bi, bj, i_max)
            t_ba = _flow_scaled(bj.T, bi.T, i_max)
            report.antisymmetry_violations += int(np.count_nonzero(t_ab + t_ba.T))
            # support rule: zero unless blocks are adjacent
            nonadj = np.abs(bi - bj) != 1
            report.support_violations += int(np.count_nonzero(t_ab[nonadj]))
            if b0 != a0:
                report.support_violations += int(np.count_nonzero(t_ba[nonadj.T]))
            # vanishing rule: v >= 4u > 0
            vanish = (ui > 0) & (vj >= 4 * ui)
            report.vanishing_violations += int(np.count_nonzero(t_ab[vanish]))
            if b0 != a0:
                vanish_ba = (vj.T > 0) & (ui.T >= 4 * vj.T)
                report.vanishing_violations += int(np.count_nonzero(t_ba[vanish_ba]))
            residual[a0:a1] += t_ab.sum(axis=1)
            if b0 != a0:
                residual[b0:b1] += t_ba.sum(axis=1)

    scale = 1 << (2 * i_max)
    i0 = int(np.where(verts == 0)[0][0])
    report.source_divergence = Fraction(int(residual[i0]), scale)
    interior = np.abs(blocks) <= i_max - 1
    interior &= verts != 0
    report.vertices_checked = int(np.count_nonzero(interior))
    bad = verts[interior & (residual != 0)]
    report.kirchhoff_violations = [int(u) for u in bad[:100]]
    report.elapsed_s = time.time() - t0
    return report


# ---------------------------------------------------------------------------
# flow energy


@dataclass(frozen=True)
class Interval:
    """Certified enclosure [lo, hi] of a nonnegative quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval bounds out of order")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.hi)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}


def _pair_lag_counts(i: int) -> tuple[np.ndarray, np.ndarray]:
    """Lags w and pair counts between B_i = [2^(i-1), 2^i - 1] and B_(i+1)."""
    a1, b1 = 1 << (i - 1), (1 << i) - 1
    a2, b2 = 1 << i, (1 << (i + 1)) - 1
    w = np.arange(a2 - b1, b2 - a1 + 1)
    counts = (
        np.minimum(b1, b2 - w) - np.maximum(a1, a2 - w) + 1
    ).clip(min=0)
    return w, counts


def _mass_lower_envelope(law: SymmetricJumpLaw):
    """(K_lo, rho_max, n_ok) with m(n) >= K_lo n^-rho_max for n >= n_ok."""
    comps = law.components
    if not comps:
        return None
    rho_max = max(c.exponent for c in comps)
    k_lo = min(c.constant * c.lower_factor for c in comps)
    n_ok = max(c.start for c in comps)
    return k_lo, rho_max, n_ok


def flow_energy(law: SymmetricJumpLaw, i_max: int) -> Interval:
    """Energy of the dyadic unit flow on the network of ``law``.

    The partial sum enumerates every flow-carrying edge whose endpoints lie
    in blocks |i| <= i_max, grouping block pairs by lag so the count is
    exact; the upper end adds a power-envelope bound for all farther
    blocks. A zero conductance on a flow-carrying edge makes the energy
    infinite (a valid outcome, reported, not raised).
    """
    if not law.is_lattice:
        raise DomainError("flow energy is defined for lattice laws")
    if not 2 <= i_max <= FLOW_ENERGY_MAX_LEVEL:
        raise DomainError(f"i_max must lie in [2, {FLOW_ENERGY_MAX_LEVEL}], got {i_max}")
    m1 = float(law.mass(1))
    infinite = m1 == 0.0
    partial = 0.0 if infinite else 1.0 / (2.0 * m1)  # edges (0, 1), (0, -1)
    for i in range(1, i_max):
        w, counts = _pair_lag_counts(i)
        masses = law.mass(w)
        used = counts > 0
        if np.any(masses[used] == 0.0):
            infinite = True
            masses = np.where(masses == 0.0, math.inf, masses)
        theta2 = 4.0 ** (-2 * i)
        partial += 2.0 * theta2 * float(np.sum(counts[used] / masses[used]))

    if infinite:
        return Interval(partial if math.isfinite(partial) else math.inf, math.inf)

    env = _mass_lower_envelope(law)
    if env is None:
        return Interval(partial, math.inf)
    k_lo, rho_max, n_ok = env
    if rho_max >= 2.0 or (1 << (i_max - 1)) < n_ok:
        return Interval(partial, math.inf)
    # blocks beyond i_max: 2 * sum_{I >= i_max} 4^(-2I) * pairs * max-lag^rho / K
    ratio = 2.0 ** (rho_max - 2.0)
    first = 4.0 ** (-i_max) * 2.0 ** ((i_max + 1) * rho_max) / k_lo
    tail = first / (1.0 - ratio)
    return Interval(partial, partial + tail)


def dyadic_energy_bound(law: SymmetricJumpLaw, w_max: int = 10 ** 6) -> Interval:
    """Closed-form upper bound for the dyadic flow's energy.

    ``3/(4 m1) + 1/(8 m2) + 32/(3 m2) + 32/(3 m3)
    + 288 sum_{w>=4} 1/((w-3)^3 m(w))``,
    with the series truncated at ``w_max`` plus an analytic tail. The
    series converges exactly when every tail class has exponent below 2;
    otherwise the bound is +inf (a valid, detectable outcome).
    """
    if not law.is_lattice:
        raise DomainError("energy bound is defined for lattice laws")
    m1, m2, m3 = (float(law.mass(k)) for k in (1, 2, 3))
    if m1 == 0.0 or m2 == 0.0 or m3 == 0.0:
        return Interval(math.inf, math.inf)
    head = 3.0 / (4.0 * m1) + 1.0 / (8.0 * m2) + 32.0 / (3.0 * m2) + 32.0 / (3.0 * m3)

    w = np.arange(4, w_max + 1)
    masses = law.mass(w)
    if np.any(masses == 0.0):
        return Interval(math.inf, math.inf)
    series = 288.0 * float(np.sum(1.0 / ((w - 3.0) ** 3 * masses)))
    partial = head + series

    comps = law.components
    if not comps:
        if law.support.max_lag is not None and law.support.max_lag <= w_max:
            return Interval(partial, partial)
        return Interval(partial, math.inf)
    if any(c.exponent >= 2.0 for c in comps):
        return Interval(partial, math.inf)
    # (w-3)^-3 <= w^-3 (1 - 3/(w_max+1))^-3 for w > w_max
    slack = (1.0 - 3.0 / (w_max + 1.0)) ** -3
    tail = 0.0
    from .powerint import strided_power_sum

    for c in comps:
        base = strided_power_sum(3.0 - c.exponent, c.stride, c.offset, w_max + 1)
        tail += 288.0 * slack * base / (c.constant * c.lower_factor)
    return Interval(partial, partial + tail)


# ---------------------------------------------------------------------------
# effective resistance on exterior-shorted truncations


@dataclass(frozen=True)
class NetworkSlice:
    """Truncated network: vertices |u| < N plus one grounded exterior node.

    The exterior super-node absorbs every vertex with |v| >= N (shorting
    them together), so the nearest-neighbour unit-conductance chain has
    R_eff(N) = N/2 exactly. ``boundary_lo/hi`` bracket the (infinitely
    many) lag sums c(u, ext) = sum_{|v| >= N} m(|v - u|).
    """

    radius: int
    interior: np.ndarray  # vertex labels -(N-1) .. N-1
    conductance: np.ndarray  # interior pair conductances, zero diagonal
    boundary_lo: np.ndarray
    boundary_hi: np.ndarray

    @property
    def size(self) -> int:
        return len(self.interior)


def build_slice(law: SymmetricJumpLaw, radius: int) -> NetworkSlice:
    """Assemble the dense Toeplitz conductance matrix of a slice.

    The origin mass would only add self-loops, which do not affect
    effective resistance; it is omitted. Boundary conductances are lag-sum
    tails ``T(N-1-u) + T(N-1+u)`` with T from the law's tail envelope.
    """
    if not law.is_lattice:
        raise DomainError("network slices are defined for lattice laws")
    n = radius
    if n < 1:
        raise DomainError("radius must be >= 1")
    if n > 4096:
        raise DomainError("radius capped at 4096 for the dense solver")
    idx = np.arange(-(n - 1), n)
    lag_values = np.zeros(2 * n - 1)
    if n >= 2:
        lags = np.arange(1, 2 * n - 1)
        lag_values[1:] = law.mass(lags)
    cond = lag_values[np.abs(idx[:, None] - idx[None, :])]
    np.fill_diagonal(cond, 0.0)

    delta = law.spacing
    # row k: envelope of the mass of lags > k
    tails = np.array([law.one_sided_tail_mass((k + 0.5) * delta) for k in range(2 * n)])
    b_lo, b_hi = (tails[n - 1 - idx] + tails[n - 1 + idx]).T
    if not np.all(np.isfinite(b_hi)):
        raise DomainError("boundary conductances require a usable tail model")
    return NetworkSlice(
        radius=n, interior=idx, conductance=cond, boundary_lo=b_lo, boundary_hi=b_hi
    )


def _solve_slice(slc: NetworkSlice, boundary: np.ndarray) -> float:
    """Dirichlet solve: potential 1 at vertex 0, 0 at the super-node."""
    idx = slc.interior
    cond = slc.conductance
    i0 = int(np.where(idx == 0)[0][0])
    diag = cond.sum(axis=1) + boundary
    lap = np.diag(diag) - cond
    keep = np.ones(len(idx), dtype=bool)
    keep[i0] = False
    a_mat = lap[np.ix_(keep, keep)]
    rhs = cond[keep, i0]
    try:
        pot = linalg.solve(a_mat, rhs, assume_a="pos")
    except linalg.LinAlgError as exc:  # pragma: no cover - structural
        raise DomainError(f"singular slice system (disconnected network): {exc}")
    volt = np.empty(len(idx))
    volt[keep] = pot
    volt[i0] = 1.0
    current = float(np.sum(cond[i0] * (1.0 - volt)) + boundary[i0])
    if current <= 0:
        raise DomainError("no current leaves the source; network disconnected")
    return 1.0 / current


def effective_resistance(law: SymmetricJumpLaw, radius: int) -> float:
    """Effective resistance from 0 to the shorted exterior |v| >= radius.

    Deterministic dense Cholesky solve of the grounded Dirichlet problem.
    Uses the midpoint of the boundary-conductance envelope (exact for the
    built-in families, whose lag tails are Hurwitz-zeta values).
    """
    slc = build_slice(law, radius)
    return _solve_slice(slc, 0.5 * (slc.boundary_lo + slc.boundary_hi))


def effective_resistance_bounds(law: SymmetricJumpLaw, radius: int) -> Interval:
    """Enclosure of R_eff from the boundary-conductance envelope.

    By Rayleigh monotonicity, overstating conductance to ground can only
    lower the resistance, so solving with the upper envelope gives the
    lower end and vice versa.
    """
    slc = build_slice(law, radius)
    lo = _solve_slice(slc, slc.boundary_hi)
    if np.array_equal(slc.boundary_lo, slc.boundary_hi):
        return Interval(lo, lo)  # exact envelope: one solve serves both ends
    hi = _solve_slice(slc, slc.boundary_lo)
    return Interval(min(lo, hi), max(lo, hi))


@dataclass(frozen=True)
class ResistanceProfile:
    """R_eff at increasing radii plus a non-binding transience hint."""

    radii: tuple[int, ...]
    resistances: tuple[float, ...]
    bounds: tuple[Interval, ...]
    hint: str  # "transient-leaning", "recurrent-leaning", "inconclusive"

    def rows(self):
        for r, val, b in zip(self.radii, self.resistances, self.bounds):
            yield {"radius": r, "r_eff": val, "lower": b.lo, "upper": b.hi}

    def to_dict(self) -> dict:
        return {"hint": self.hint, "profile": list(self.rows())}


#: relative gap below which a flattening sequence counts as Cauchy-flat
PROFILE_FLAT_TOL = 0.05
#: successive-gap ratio at or above which gaps count as growing
PROFILE_GROWTH_RATIO = 0.9


def resistance_profile(law: SymmetricJumpLaw, radii: Sequence[int]) -> ResistanceProfile:
    """Solve R_eff at each radius and hint at the monotone limit.

    The hint is diagnostic only and never overrides analytic verdicts:
    flattening gaps (Cauchy-flat) lean transient, non-shrinking gaps lean
    recurrent. Radii must be strictly increasing.
    """
    radii = tuple(int(r) for r in radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")
    values = []
    bounds = []
    for r in radii:
        bnd = effective_resistance_bounds(law, r)
        values.append(bnd.midpoint)
        bounds.append(bnd)
    hint = "inconclusive"
    if len(values) >= 3:
        gaps = np.diff(values)
        ratio = gaps[-1] / gaps[-2] if gaps[-2] > 0 else 0.0
        if ratio >= PROFILE_GROWTH_RATIO and gaps[-1] > 0:
            hint = "recurrent-leaning"
        elif gaps[-1] <= PROFILE_FLAT_TOL * values[-1]:
            hint = "transient-leaning"
    return ResistanceProfile(radii, tuple(values), tuple(bounds), hint)
