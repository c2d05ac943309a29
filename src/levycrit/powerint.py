"""Closed forms, tail sums and the package's one quadrature rule.

Everything downstream (characteristic exponents, convergence criteria,
energy bounds, boundary conductances) reduces to three primitives:

* cosine-type integrals ``int (1 - cos u) u^-rho du`` with 1 < rho < 3,
* tail sums ``sum_{n > N} n^-rho`` over an arithmetic progression,
  which are Hurwitz zeta values and therefore exact to machine precision,
* :func:`panel_integrals`, a fixed 15-point Gauss-Kronrod rule applied to
  every panel of a grid in one array pass, for every integral that has no
  closed form.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import gamma, zeta


class NumericError(RuntimeError):
    """A numeric routine failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# Gauss-Kronrod panels

#: largest summed |K15 - G7| estimate of a panel pass, relative to the
#: pass's integral of |fn|
PANEL_REL_TOL = 1e-10
#: most panels bisection may add to one pass
PANEL_CAP = 1000

# QUADPACK's 15-point Kronrod rule and its embedded 7-point Gauss rule on
# [-1, 1] (Piessens et al. 1983): the positive nodes from the outer end
# inward, then the centre; the Gauss rule uses every second node and has
# zero weight on the others
_GK_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_GK_KRONROD = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GK_GAUSS = (
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
)


def _mirror(half, sign: float = 1.0) -> np.ndarray:
    return np.concatenate([sign * np.array(half[:-1]), half[::-1]])


GK15_NODES = _mirror(_GK_NODES, -1.0)
GK15_KRONROD = _mirror(_GK_KRONROD)
GK15_GAUSS = _mirror(_GK_GAUSS)


def panel_integrals(fn, edges) -> tuple[np.ndarray, float]:
    """``int fn`` over each panel ``[edges[i], edges[i+1]]``, and its error.

    ``fn`` maps an array of points to values. One array pass of the 15-point
    Gauss-Kronrod rule is accepted when its summed ``|K15 - G7|`` estimate
    is at most ``PANEL_REL_TOL`` times the integral of ``|fn|``; otherwise
    each round bisects the panels above an even share of the error budget
    left. Nodes never touch an endpoint, so a panel may start at an
    integrable singularity. Raises :class:`NumericError` when ``fn`` is not
    finite at a node, or before bisection would add more than ``PANEL_CAP``.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    n = len(lo)
    owner = np.arange(n)  # the given panel each current panel belongs to
    panels = np.zeros(n)
    err_done = size_done = 0.0
    added = 0
    while True:
        center = 0.5 * (hi + lo)[:, None]
        half = 0.5 * (hi - lo)
        values = fn(center + half[:, None] * GK15_NODES)
        kronrod = half * (values @ GK15_KRONROD)
        err = np.abs(kronrod - half * (values @ GK15_GAUSS))
        if not np.all(np.isfinite(err)):  # an inf or nan value reaches err
            raise NumericError("integrand is not finite on the panels")
        size = half * (np.abs(values) @ GK15_KRONROD)
        budget = PANEL_REL_TOL * (np.sum(size) + size_done) - err_done
        fail = err > budget / max(1, len(err))
        if np.sum(err) <= budget or not np.any(fail):  # the latter by rounding only
            break
        keep = ~fail
        panels += np.bincount(owner[keep], kronrod[keep], minlength=n)
        err_done += float(np.sum(err[keep]))
        size_done += float(np.sum(size[keep]))
        added += 2 * int(np.count_nonzero(fail))
        if added > PANEL_CAP:
            raise NumericError(f"panel quadrature needs more than {PANEL_CAP} added panels")
        mid = 0.5 * (lo[fail] + hi[fail])
        lo, hi = np.concatenate([lo[fail], mid]), np.concatenate([mid, hi[fail]])
        owner = np.tile(owner[fail], 2)
    panels += np.bincount(owner, kronrod, minlength=n)
    return panels, err_done + float(np.sum(err))


# ---------------------------------------------------------------------------
# cosine integrals


def one_minus_cos_integral(rho: float) -> float:
    """``int_0^inf (1 - cos u) u^-rho du`` for 1 < rho < 3.

    Classical value pi / (2 Gamma(rho) sin(pi (rho - 1) / 2)); diverges at
    both endpoints of the admissible range.
    """
    if not 1.0 < rho < 3.0:
        raise ValueError(f"rho must lie in (1, 3), got {rho}")
    return math.pi / (2.0 * gamma(rho) * math.sin(math.pi * (rho - 1.0) / 2.0))


def _one_minus_cos_series(rho: float, lo: float, hi: float, max_terms: int = 80) -> float:
    # int_lo^hi (1-cos u) u^-rho du = sum_j (-1)^{j+1} int_lo^hi u^(2j-rho) du / (2j)!,
    # integrated term by term (lo = 0 needs rho < 3)
    total = 0.0
    sign = 1.0
    fact = 1.0
    for j in range(1, max_terms + 1):
        fact *= (2 * j - 1) * (2 * j)
        term = sign * _power_range(rho - 2 * j, lo, hi) / fact
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
        sign = -sign
    return total


#: start of the asymptotic cosine tail; below it the cosine integrals run
#: on Gauss-Kronrod panels no wider than 1
COS_TAIL_SWITCH = 200.0


def _cos_tail_asymptotic(rho: float, s: float) -> float:
    # int_s^inf cos(u) u^-rho du = Re[i e^{is} s^-rho sum_m (-i)^m (rho)_m s^-m]
    # (integration by parts), summed until the terms drop below machine
    # precision or start to grow; for any rho its negative is an
    # antiderivative of cos(u) u^-rho, up to the last term dropped
    total = 0j
    term = 1.0 + 0j
    m = 0
    while True:
        total += term
        nxt = term * (-1j) * (rho + m) / s
        if abs(nxt) >= abs(term) or abs(nxt) <= 1e-17 * abs(total):
            break
        term = nxt
        m += 1
    return (1j * cmath.exp(1j * s) * total).real * s ** -rho


def _cos_range(rho: float, lo: float, hi: float) -> float:
    """``int_lo^hi cos(u) u^-rho du`` for 0 < lo <= hi; hi may be inf."""
    head_hi = min(hi, COS_TAIL_SWITCH)
    total = 0.0
    if lo < head_hi:
        edges = np.linspace(lo, head_hi, math.ceil(head_hi - lo) + 1)
        panels, _ = panel_integrals(lambda u: np.cos(u) * u ** -rho, edges)
        total = float(np.sum(panels))
    if hi > COS_TAIL_SWITCH:
        total += _cos_tail_asymptotic(rho, max(lo, COS_TAIL_SWITCH))
        if hi < math.inf:
            total -= _cos_tail_asymptotic(rho, hi)
    return total


def one_minus_cos_tail(rho: float, s: float) -> float:
    """``int_s^inf (1 - cos u) u^-rho du`` for rho > 1 (s > 0 when rho >= 3).

    From s = 6 on it is the plain power tail minus ``int_s^inf cos(u)
    u^-rho du``, which is smaller by a factor of order s and comes from
    Gauss-Kronrod panels up to 200 plus the integration-by-parts expansion
    beyond. Below s = 6 the cosine series is integrated term by term: from
    the origin when rho < 3, where the full integral converges, and on
    [s, 6] otherwise, so small s never subtracts two near-equal large
    numbers.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if rho <= 1.0:
        return math.inf
    if s >= 6.0:
        return s ** (1.0 - rho) / (rho - 1.0) - _cos_range(rho, s, math.inf)
    if rho >= 3.0:
        if s == 0.0:
            return math.inf  # divergent at the origin
        return _one_minus_cos_series(rho, s, 6.0) + one_minus_cos_tail(rho, 6.0)
    k = one_minus_cos_integral(rho)
    if s == 0.0:
        return k
    return max(0.0, k - _one_minus_cos_series(rho, 0.0, s))


def _power_range(rho: float, a: float, b: float) -> float:
    """``int_a^b u^-rho du`` for 0 <= a < b; a = 0 needs rho < 1."""
    q = 1.0 - rho
    if a == 0.0:
        return b ** q / q
    log_ratio = math.log(b / a)
    if abs(q * log_ratio) < 1.0:  # b^q - a^q would cancel; expm1 keeps the digits
        return log_ratio if q == 0.0 else a ** q * math.expm1(q * log_ratio) / q
    return (b ** q - a ** q) / q


def power_range(rho: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``int_a^b u^-rho du`` elementwise, for 0 < a <= b < inf.

    The array form of :func:`_power_range`, valid at every scale: it is
    ``a^q expm1(q log1p((b - a) / a)) / q`` with q = 1 - rho. ``b - a`` is
    exact for b <= 2a, so a narrow range [a, b] far out keeps every digit
    where ``b^q - a^q`` would lose about log10(a / (b - a)) of them.
    """
    a = np.asarray(a, dtype=float)
    log_ratio = np.log1p((np.asarray(b, dtype=float) - a) / a)
    q = 1.0 - rho
    if q == 0.0:
        return log_ratio
    return a ** q * np.expm1(q * log_ratio) / q


def one_minus_cos_partial(rho: float, s: float) -> float:
    """``int_0^s (1 - cos u) u^-rho du`` for any rho < 3, s >= 0 finite."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s <= 6.0:
        return _one_minus_cos_series(rho, 0.0, s) if s > 0 else 0.0
    head = _one_minus_cos_series(rho, 0.0, 6.0)
    return head + _power_range(rho, 6.0, s) - _cos_range(rho, 6.0, s)


def one_minus_cos_range(rho: float, lo: float, hi: float) -> float:
    """``int_lo^hi (1 - cos u) u^-rho du``; hi may be inf when rho > 1."""
    if hi == math.inf:
        return one_minus_cos_tail(rho, lo)
    if rho >= 3.0:  # partial from 0 diverges; difference of tails is finite
        return max(0.0, one_minus_cos_tail(rho, lo) - one_minus_cos_tail(rho, hi))
    return max(0.0, one_minus_cos_partial(rho, hi) - one_minus_cos_partial(rho, lo))


def power_integral_tail(constant: float, p: float, y_from: float) -> float:
    """``int_{y_from}^inf K y^-p dy``; +inf when p <= 1."""
    if p <= 1.0:
        return math.inf
    return constant * y_from ** (1.0 - p) / (p - 1.0)


def strided_power_sum(rho: float, stride: int, offset: int, n_from):
    """``sum n^-rho`` over integers n >= n_from with n = offset (mod stride).

    Exact via the Hurwitz zeta function: with n = stride*j + r the sum is
    stride^-rho * zeta(rho, j0 + r/stride). Requires rho > 1. Accepts float
    ``n_from`` (the sum runs over lattice points strictly above n_from - 1,
    i.e. n >= ceil(n_from)), and an array of them elementwise; a float for
    a scalar ``n_from``, and +inf when rho <= 1.
    """
    if rho <= 1.0:
        return math.inf
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    r = offset % stride
    n0 = np.ceil(np.asarray(n_from, dtype=float))
    # smallest j with stride*j + r >= max(n0, 1); for r = 0 the progression starts at j = 1
    if r == 0:
        j0 = np.maximum(1.0, np.ceil(n0 / stride))
    else:
        j0 = np.maximum(0.0, np.ceil((n0 - r) / stride))
    out = stride ** -rho * zeta(rho, j0 + r / stride)
    return float(out) if out.ndim == 0 else out
