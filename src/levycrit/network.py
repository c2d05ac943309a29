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
dyadic, exactly conserved flow. Flow checks run once per block pair,
where theta is constant, in integer arithmetic scaled by 4^I (exact
dyadic rationals). Its energy is one inverse lag series with a closed-form
weight ``297/640 <= w^3 g(w) <= 1.2731...``, split into head and tail like
every lattice series. Resistances come from the even-folded Dirichlet system
in deficit form, without a matrix: CG on FFT products, preconditioned by a
Strang circulant, refined with long double residuals and widened by a
certificate that an M-matrix bound makes rigorous. Each radius, and each end
of an inexact boundary envelope, is one O(N)-memory solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .measures import DomainError, SymmetricJumpLaw
from .powerint import NumericError
from .tails import require_integer
from .verdicts import Interval, enclosure

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


def _flow_scaled(i: np.ndarray, j: np.ndarray, i_max: int) -> np.ndarray:
    """theta(u, v) * 4^i_max as int64, given the two block indices."""
    # outward between adjacent blocks, from B_k with k = min(|i|, |j|) < I:
    # 1/2 out of the origin, 4^-k beyond it; |j| - |i| = +-1 gives the sign
    a, b = np.abs(i), np.abs(j)
    k = np.minimum(a, b)
    mag = np.left_shift(1, (2 * (i_max - k) - (k == 0)).clip(0), dtype=np.int64)
    return np.where((np.abs(i - j) == 1) & (k < i_max), (b - a) * mag, 0)


def _quadruple_pairs(a: int, b: int, c: int, d: int) -> int:
    """Number of pairs (u, v) in [a, b] x [c, d] with v >= 4u, for a > 0."""
    # u <= c // 4 sees all of [c, d]; c // 4 < u <= d // 4 sees [4u, d]
    full = max(0, min(b, c // 4) - a + 1) * max(0, d - c + 1)
    lo, hi = max(a, c // 4 + 1), min(b, d // 4)
    k = max(0, hi - lo + 1)
    return full + k * (d + 1) - 2 * (lo + hi) * k


@dataclass
class FlowReport:
    """Exact verification record for the dyadic flow at truncation level I.

    Counts are of ordered vertex pairs (u, v), |u|, |v| < 2^I, as the
    (2I + 1)^2 checked block pairs represent them: ``pairs_checked`` is
    (2^(I+1) - 1)^2, and a failing block pair adds its |B_i| |B_j| pairs.
    """

    i_max: int
    vertices_checked: int
    pairs_checked: int
    source_divergence: Fraction
    kirchhoff_violations: list = field(default_factory=list)
    antisymmetry_violations: int = 0  # ordered pairs with theta(u,v) + theta(v,u) != 0
    support_violations: int = 0  # nonzero flow outside adjacent blocks
    vanishing_violations: int = 0  # theta(u, u+w) != 0 with u+w >= 4u > 0

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
        }


#: largest truncation level of :func:`verify_flow`: ``_flow_scaled`` shifts by
#: up to 2I - 1 bits and antisymmetry adds two such values, exact in int64
#: for 2I <= 62; the pair count (2^(I+1) - 1)^2 stays below 2^63 for I <= 30
VERIFY_FLOW_MAX_LEVEL = 30
#: largest truncation level of :func:`flow_energy` (lag arrays of 2^22 entries)
FLOW_ENERGY_MAX_LEVEL = 22


def verify_flow(i_max: int) -> FlowReport:
    """Check the dyadic flow exactly on all vertices |u| < 2^i_max.

    In scaled-integer (exact dyadic) arithmetic, over the block pairs:
    antisymmetry on every ordered pair, zero flow outside adjacent blocks,
    the vanishing rule theta(u, u+w) = 0 for u + w >= 4u > 0, unit
    divergence at the source, and zero Kirchhoff residual at every vertex
    whose flow support lies inside the truncation (block index below
    i_max). The residual of u is sum_J theta(block(u), J) |B_J|, the same
    for every vertex of a block.
    """
    i_max = require_integer("i_max", i_max, 2, VERIFY_FLOW_MAX_LEVEL)
    blocks = range(-i_max, i_max + 1)
    grid = np.array(blocks, dtype=np.int64)
    theta = _flow_scaled(grid[:, None], grid[None, :], i_max).tolist()  # exact ints
    positive = [(1 << (i - 1), (1 << i) - 1) for i in range(1, i_max + 1)]
    bounds = [(-hi, -lo) for lo, hi in positive[::-1]] + [(0, 0)] + positive
    sizes = [hi - lo + 1 for lo, hi in bounds]
    report = FlowReport(i_max, 0, sum(sizes) ** 2, Fraction(0))
    for a, i in enumerate(blocks):
        for b, j in enumerate(blocks):
            t = theta[a][b]
            if t + theta[b][a] != 0:
                report.antisymmetry_violations += sizes[a] * sizes[b]
            if t == 0:
                continue
            if abs(i - j) != 1:
                report.support_violations += sizes[a] * sizes[b]
            if i > 0:
                report.vanishing_violations += _quadruple_pairs(*bounds[a], *bounds[b])

    residual = [sum(t * size for t, size in zip(row, sizes)) for row in theta]
    report.source_divergence = Fraction(residual[i_max], 1 << (2 * i_max))
    for a, i in enumerate(blocks):
        if 0 < abs(i) < i_max:  # listed: the first 100 vertices of failing blocks
            report.vertices_checked += sizes[a]
            room = min(sizes[a], 100 - len(report.kirchhoff_violations))
            if residual[a] != 0:
                report.kirchhoff_violations += range(bounds[a][0], bounds[a][0] + room)
    return report


# ---------------------------------------------------------------------------
# flow energy


# The flow puts theta^2 = 16^-i on the N_i(w) = min(w, a, 3a - w)^+ pairs at
# lag w between B_i and B_(i+1), a = 2^(i-1), twice with the mirror, so
# E = 1/(2 m(1)) + sum_w g(w) / m(w), g(w) = 2 sum_i 16^-i N_i(w). For
# 2^(k-1) <= w < 2^k the levels past k have N = w and sum geometrically, level
# k has N = 2^(k-1) and level k - 1 (for k = 1 the origin's, counted apart)
# has (3 2^(k-2) - w)^+: with x = w / 2^(k-1), g(1) = 2/15 and, for w >= 2,
# w^3 g(w) = phi(x) = x^3 (2 (3/2 - x)^+ + 1/8 + x/120). On [1, 2) phi rises
# from 17/15 to its critical point x = 1125/956, falls to x = 3/2 and rises
# back to 17/15, so it lies between the two constants below.
_LAG_WEIGHT_LO = 297.0 / 640.0  # phi(3/2), attained at w = 3 2^j
_LAG_WEIGHT_HI = 1.2731334266269752  # phi(1125/956) = 35595703125/27959130112, rounded up


def _lag_weight(w: np.ndarray) -> np.ndarray:
    """Weight g(w) of lag w >= 1 in the dyadic flow's energy sum_w g(w)/m(w)."""
    x, e = np.frexp(w)  # w = x 2^e, x in [1/2, 1): 2x is the x above, 2^(e-1) the octave
    x = 2.0 * x
    g = np.ldexp(np.maximum(3.0 - 2.0 * x, 0.0) + 0.125 + x / 120.0, 3 - 3 * e)
    return np.where(w > 1, g, 2.0 / 15.0)


def flow_energy(law: SymmetricJumpLaw, i_max: int) -> Interval:
    """Energy of the dyadic unit flow on the network of ``law``.

    The inverse lag series ``1/(2 m(1)) + sum_w g(w)/m(w)``, summed exactly
    to ``max(series_head, 2^i_max - 1)``: ``i_max`` sets the head's length,
    as ``w^3 g(w)`` swings between the two weight constants in every octave.
    Past it, those constants times :meth:`SymmetricJumpLaw.lag_tail_sum` of
    ``w^-3 / m(w)``, so successive levels nest. A zero conductance on a
    flow-carrying edge, or a class where that sum diverges, makes the energy
    infinite (a valid outcome, reported, not raised).
    """
    if not law.is_lattice:
        raise DomainError("flow energy is defined for lattice laws")
    i_max = require_integer("i_max", i_max, 2, FLOW_ENERGY_MAX_LEVEL)
    head = max(law.series_head, (1 << i_max) - 1)
    masses = law.masses(head)
    w = np.arange(1, head + 1)
    with np.errstate(divide="ignore", over="ignore"):  # a zero mass: an honest inf
        # edges (0, +-1) carry theta = 1/2; a plain sum, as BLAS ddot wakes its threads
        partial = float(0.5 / masses[0] + np.sum(_lag_weight(w) / masses))
    tail_lo, tail_hi = law.lag_tail_sum(-3.0, head, inverse=True)
    return enclosure(partial, _LAG_WEIGHT_LO * tail_lo, _LAG_WEIGHT_HI * tail_hi)


#: least head of the energy series, and the terms of (w - 3)^-3 =
#: w^-3 sum_k C(k + 2, 2) (3/w)^k past it: 16 leave < 1e-19 for w > 64
_ENERGY_HEAD_MIN = 64
_ENERGY_TERMS = 16


def dyadic_energy_bound(law: SymmetricJumpLaw) -> Interval:
    """Closed-form upper bound for the dyadic flow's energy.

    ``3/(4 m1) + 1/(8 m2) + 32/(3 m2) + 32/(3 m3)
    + 288 sum_{w>=4} 1/((w-3)^3 m(w))``, summed to ``max(series_head + 2, 64)``:
    one period of the residue classes past the table, where a finite law or
    a class no component covers shows a zero mass, and the bound +inf. Past
    it, ``(w-3)^-3`` expanded in powers of ``3/w`` gives inverse lag sums of
    :meth:`SymmetricJumpLaw.lag_tail_sum`, exact for exact components; a
    class of exponent 2 or more makes the bound ``[partial, inf]``."""
    if not law.is_lattice:
        raise DomainError("energy bound is defined for lattice laws")
    w_max = max(law.series_head + 2, _ENERGY_HEAD_MIN)
    masses = law.masses(w_max)
    w = np.arange(1, w_max + 1)
    if np.any(masses == 0.0):
        return Interval(math.inf, math.inf)
    m1, m2, m3 = masses[:3].tolist()
    partial = 3.0 / (4.0 * m1) + 1.0 / (8.0 * m2) + 32.0 / (3.0 * m2) + 32.0 / (3.0 * m3)
    with np.errstate(over="ignore"):  # a subnormal mass: an honest inf
        partial += 288.0 * float(np.sum(1.0 / ((w[3:] - 3.0) ** 3 * masses[3:])))
    k = np.arange(_ENERGY_TERMS)
    tails = [law.lag_tail_sum(-3.0 - j, w_max, inverse=True) for j in k]
    tail_lo, tail_hi = (288.0 * ((k + 1) * (k + 2) / 2 * 3.0 ** k) @ np.array(tails)).tolist()
    if math.isinf(tail_hi):
        return Interval(partial, math.inf)
    return enclosure(partial, tail_lo, tail_hi)


# ---------------------------------------------------------------------------
# effective resistance on exterior-shorted truncations


#: largest slice radius, refused before any allocation. A solve holds only
#: arrays of O(N) entries, about 70 float64 words per unknown at its peak
#: (long double spectra of length 2N among them): 18 MB at this cap, where
#: the slowest law measured (power_lattice alpha = 1.9) takes about 1 s
RESISTANCE_MAX_RADIUS = 1 << 15


@dataclass(frozen=True)
class NetworkSlice:
    """Truncated network: vertices |u| < N plus one grounded exterior node.

    The exterior super-node absorbs every vertex with |v| >= N (shorting
    them together), so the nearest-neighbour unit-conductance chain has
    R_eff(N) = N/2 exactly. A conductance is fixed by its lag, so the lag
    masses m(0..2N-2) in ``conductance`` hold every interior one.
    ``boundary_lo/hi`` bracket the (infinitely many) lag sums
    c(u, ext) = sum_{|v| >= N} m(|v - u|), u = -(N-1)..N-1. All three must
    be finite, checked in O(N) before any solve.
    """

    radius: int
    conductance: np.ndarray  # m(0) = 0: self-loops carry no current
    boundary_lo: np.ndarray
    boundary_hi: np.ndarray

    def __post_init__(self):
        if not all(np.all(np.isfinite(a)) for a in (self.conductance, self.boundary_lo,
                                                     self.boundary_hi)):
            raise DomainError("slice conductances must be finite; "
                              "boundary conductances require a usable tail model")


def _radius(value) -> int:
    """A slice radius as an int: integral and in [1, ``RESISTANCE_MAX_RADIUS``]."""
    return require_integer("radius", value, 1, RESISTANCE_MAX_RADIUS)


def build_slice(law: SymmetricJumpLaw, radius: int) -> NetworkSlice:
    """Lag masses and boundary envelopes of a slice, all of length O(N).

    Boundary conductances are lag-sum tails ``T(N-1-u) + T(N-1+u)``, with
    T(k) the envelope of the mass of lags > k from one array call of the
    law's tail mass at the points k + 1/2, k = 0..2N-2.
    """
    if not law.is_lattice:
        raise DomainError("network slices are defined for lattice laws")
    n = _radius(radius)
    lag_mass = np.append(0.0, law.masses(2 * n - 2))

    t_lo, t_hi = law.one_sided_tail_mass((np.arange(2 * n - 1) + 0.5) * law.spacing)
    # u = -(N-1)..N-1 takes T(N-1-u) from the reversed row and T(N-1+u) from the row
    b_lo, b_hi = t_lo[::-1] + t_lo, t_hi[::-1] + t_hi
    return NetworkSlice(radius=n, conductance=lag_mass, boundary_lo=b_lo, boundary_hi=b_hi)


#: unit roundoff of the long double that residuals are formed in (2^-64 on
#: x86-64; where it is a plain double the same bounds hold, only looser)
_UNIT = float(np.finfo(np.longdouble).eps) / 2
#: relative residuals that CG stops at: the first float64 pass and each of
#: the long double refinement steps after it; the 2-norm of 1 - A z for the
#: rough z ~ A^-1 1 that certifies the result, which bounds every entry, so
#: that A z >= 0.9 and z >= 0.9 A^-1 1 > 0; and CG's iteration cap
_PCG_RTOL = 1e-8
_REFINE_RTOL = 1e-5
_REFINE_STEPS = 2
_CERTIFY_RESIDUAL = 0.1
_PCG_MAX_ITER = 500


class _FoldedOperator:
    """The even-folded Dirichlet matrix of one slice end, applied by FFT.

    Folding V(-w) = V(w) onto the unknowns u, w = 1..k, k = N - 1, gives
    A = D - T - H: T[u, w] = m|u-w| (Toeplitz), H[u, w] = m(u+w) (Hankel)
    and D[u] = S(k-u) + S(k+u) + b(u), with S the lag prefix sums, so that
    A 1 = m + b. A is a symmetric Z-matrix. With x at 0..k-1 of a row of
    length L >= 2k - 1, (T + H) x is ``irfft(T^ X + H^ conj X)`` at 0..k-1,
    T^ the spectrum of the mirrored lag row, H^ that of lags 2..2k; no index
    read wraps around. CG is preconditioned by the Strang circulant C of
    dI - T, d the mean diagonal of A, at the least power-of-two size M >= k:
    r is zero-padded to M and ``C^-1 r`` read at 0..k-1, an SPD operator.
    C's eigenvalues are floored at sqrt(eps) d, as the nearest-neighbour
    law's vanish at frequency 0.
    """

    def __init__(self, lag_mass: np.ndarray, boundary: np.ndarray):
        m = lag_mass
        k = len(boundary)
        self.k = k
        self.length = 1 << (2 * k - 2).bit_length()
        row = np.zeros(self.length, dtype=np.longdouble)
        row[:k] = m[:k]
        row[self.length - k + 1:] = m[k - 1:0:-1]  # m(|j|), j = -(k-1)..k-1
        self.t_hat = np.fft.rfft(row).real  # an even row has a real spectrum
        row[:] = 0.0
        row[:2 * k - 1] = m[2:2 * k + 1]
        self.h_hat = np.fft.rfft(row)
        prefix = np.cumsum(m, dtype=np.longdouble)
        u = np.arange(1, k + 1)
        self.diag = prefix[k - u] + prefix[k + u] + boundary
        self.spectra = self.t_hat.astype(float), self.h_hat.astype(complex)
        self.diag64 = self.diag.astype(float)
        # 1- and 2-norms of the two kernels, for the rounding bounds
        kernels = np.concatenate((m[1:k], m[1:k], m[2:2 * k + 1]))
        self.kernel_1 = float(np.sum(kernels))
        self.kernel_2 = 2.0 * math.sqrt(float(np.sum(kernels * kernels)))

        mean = float(np.mean(self.diag64 - m[2 * u]))
        self.size = 1 << (k - 1).bit_length()
        j = np.arange(1, min(self.size // 2, k - 1) + 1)
        column = np.zeros(self.size)
        column[j] = m[j]
        column[self.size - j] = m[j]
        self.eig = np.maximum(mean - np.fft.rfft(column).real, math.sqrt(_UNIT) * mean)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x in float64."""
        t_hat, h_hat = self.spectra
        xh = np.fft.rfft(x, self.length)
        conv = np.fft.irfft(t_hat * xh + h_hat * xh.conj(), self.length)[:self.k]
        return self.diag64 * x - conv

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(r, self.size) / self.eig, self.size)[:self.k]

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """``rhs - A x`` in long double, and the bounds of its rounding.

        The error is ``e + f`` with ``|e| <= beta`` entrywise and
        ``||f||_2 <= phi``. ``beta`` covers the prefix sums of D and the
        entrywise steps; ``phi`` the three FFTs, with Higham's radix-2 bound
        (Accuracy and Stability of Numerical Algorithms, Thm 24.2): a length-L
        transform errs by at most 8 u log2(L) of its 2-norm.
        """
        xh = np.fft.rfft(x.astype(np.longdouble), self.length)
        conv = np.fft.irfft(self.t_hat * xh + self.h_hat * xh.conj(), self.length)[:self.k]
        dx = self.diag * x
        ax = dx - conv
        r = rhs - ax
        beta = _UNIT * ((2 * self.k + 4) * np.abs(dx) + 2.0 * np.abs(conv)
                        + np.abs(rhs) + np.abs(ax)).astype(float)
        xa = np.abs(x).astype(float)
        fft = 8.0 * _UNIT * math.log2(self.length)
        phi = (fft * self.kernel_2 * float(np.sum(xa))
               + (2.0 * fft + 5.0 * _UNIT) * self.kernel_1 * math.sqrt(float(np.sum(xa * xa))))
        return r, beta, phi


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # not BLAS ddot: it wakes its threads past 10^4 entries, 14x slower here
    return float(np.einsum("i,i", a, b))


def _pcg(op: _FoldedOperator, rhs: np.ndarray, rtol: float) -> np.ndarray:
    """Preconditioned CG in float64 to a relative residual ``rtol``;
    NumericError if it stalls."""
    x = np.zeros(op.k)
    r = rhs.astype(float)
    target = rtol ** 2 * _dot(r, r)
    z = op.precondition(r)
    p, rz = z, _dot(r, z)
    for _ in range(_PCG_MAX_ITER):
        if _dot(r, r) <= target:
            return x
        q = op.apply(p)
        pq = _dot(p, q)
        if not pq > 0.0:
            break
        step = rz / pq
        x += step * p
        r -= step * q
        z = op.precondition(r)
        rz, rz_old = _dot(r, z), rz
        p = z + (rz / rz_old) * p
    raise NumericError(f"slice solve: CG did not reach a relative residual of {rtol:g} "
                       f"in {_PCG_MAX_ITER} iterations")


def _net_source_sum(slc: NetworkSlice, boundary: np.ndarray) -> tuple[float, float]:
    """``net = sum_u m(u) y_u`` of the deficit y = 1 - V, and its certificate.

    A y = b (as A 1 = m + b) has a nonnegative right-hand side, so every
    term of ``net`` is positive and nothing cancels. CG in float64, then
    ``_REFINE_STEPS`` corrections from long double residuals r = b - A y.
    With V* = A^-1 m the exact potential, ``net* - net = V* . r``. A rough
    z ~ A^-1 1 with z > 0 and A z >= c > 0 (rounding included) proves A a
    nonsingular M-matrix, so 0 <= V* <= 1 and ``sum V* <= m . z / c``;
    hence ``|V* . r| <= sqrt(m . z / c) ||r||_2``. Twice that bound, plus
    the rounding of ``net`` itself, is the certificate. NumericError when CG
    stalls or z certifies nothing.
    """
    k = slc.radius - 1
    if k == 0:
        return 0.0, 0.0
    b = boundary[slc.radius:]
    m = slc.conductance[1:slc.radius]
    op = _FoldedOperator(slc.conductance, b)
    y = _pcg(op, b, _PCG_RTOL).astype(np.longdouble)
    for _ in range(_REFINE_STEPS):
        y = y + _pcg(op, op.residual(y, b)[0], _REFINE_RTOL)
    r, beta, phi = op.residual(y, b)

    z = _pcg(op, np.ones(k), _CERTIFY_RESIDUAL / math.sqrt(k))
    minus_az, beta_z, phi_z = op.residual(z, np.zeros(k))
    c = float(np.min(-minus_az.astype(float) - beta_z)) - phi_z
    if not (np.min(z) > 0.0 and c > 0.0):
        raise NumericError("slice solve: no certificate (A z > 0 fails for z ~ A^-1 1)")
    weight = min(_dot(m, z) / c, k)  # bounds sum V*
    r_norm = math.sqrt(float(np.sum((np.abs(r).astype(float) + beta) ** 2))) + phi
    terms = m * y
    net = float(np.sum(terms))
    cert = 2.0 * (math.sqrt(weight) * r_norm + k * _UNIT * float(np.sum(np.abs(terms))))
    return net, cert


def _current(slc: NetworkSlice, boundary: np.ndarray) -> Interval:
    """Current out of the source at unit potential: b(0) + 2 net, enclosed."""
    net, cert = _net_source_sum(slc, boundary)
    return enclosure(float(boundary[slc.radius - 1]) + 2.0 * net, -2.0 * cert, 2.0 * cert)


def _resistance(current: Interval) -> tuple[float, float]:
    """R_eff = 1 / current, both ends."""
    if current.hi <= 0:
        raise DomainError("no current leaves the source; network disconnected")
    if current.lo <= 0:
        raise NumericError("slice solve: the certificate exceeds the current")
    return 1.0 / current.hi, 1.0 / current.lo


def _resistance_bounds(law: SymmetricJumpLaw, radii: Sequence[int]) -> list[Interval]:
    """Enclosures of R_eff at strictly increasing radii, one slice each.

    An exact envelope takes one solve per radius, an inexact one a solve
    at each of its ends: by Rayleigh monotonicity the upper boundary
    envelope gives the lower end of R_eff and vice versa.
    """
    radii = [_radius(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")
    bounds = []
    for n in radii:
        slc = build_slice(law, n)
        ends = [slc.boundary_hi]
        if not np.array_equal(slc.boundary_lo, slc.boundary_hi):
            ends.append(slc.boundary_lo)
        values = [v for end in ends for v in _resistance(_current(slc, end))]
        bounds.append(Interval(min(values), max(values)))
    return bounds


def effective_resistance(law: SymmetricJumpLaw, radius: int) -> float:
    """Effective resistance from 0 to the shorted exterior |v| >= radius.

    The midpoint of :func:`effective_resistance_bounds`. For the built-in
    families, whose lag tails are exact Hurwitz-zeta values, only the
    solve's certificate and the inputs' rounding lie between its ends.
    """
    return effective_resistance_bounds(law, radius).midpoint


def effective_resistance_bounds(law: SymmetricJumpLaw, radius: int) -> Interval:
    """Enclosure of R_eff from the boundary-conductance envelope.

    A one-radius :func:`resistance_profile`: one matrix-free solve of the
    even-folded Dirichlet system (N - 1 unknowns V(1..N-1)) per end of the
    envelope, one for an exact envelope, each widened by its certificate.
    By Rayleigh monotonicity, overstating conductance to ground can only
    lower the resistance, so the upper envelope gives the lower end. The
    radius is an integral value in [1, ``RESISTANCE_MAX_RADIUS``].
    """
    return _resistance_bounds(law, (radius,))[0]


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
    """R_eff enclosures at each radius and a hint at the monotone limit.

    The enclosures come from the same path as
    :func:`effective_resistance_bounds`, whose one radius is a one-radius
    profile. Radii must be strictly increasing integral values in [1,
    ``RESISTANCE_MAX_RADIUS``]. The hint is diagnostic only and never
    overrides analytic verdicts: flattening gaps (Cauchy-flat) lean
    transient, non-shrinking gaps lean recurrent.
    """
    radii = tuple(radii)
    bounds = _resistance_bounds(law, radii)
    values = [b.midpoint for b in bounds]
    hint = "inconclusive"
    if len(values) >= 3:
        gaps = np.diff(values)
        ratio = gaps[-1] / gaps[-2] if gaps[-2] > 0 else 0.0
        if ratio >= PROFILE_GROWTH_RATIO and gaps[-1] > 0:
            hint = "recurrent-leaning"
        elif gaps[-1] <= PROFILE_FLAT_TOL * values[-1]:
            hint = "transient-leaning"
    return ResistanceProfile(tuple(map(int, radii)), tuple(values), tuple(bounds), hint)
