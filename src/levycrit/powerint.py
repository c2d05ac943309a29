"""Closed forms and tail sums for power-law integrands.

Everything downstream (characteristic exponents, convergence criteria,
energy bounds, boundary conductances) reduces to two primitives:

* cosine-type integrals ``int (1 - cos u) u^-rho du`` with 1 < rho < 3,
* tail sums ``sum_{n > N} n^-rho`` over an arithmetic progression,
  which are Hurwitz zeta values and therefore exact to machine precision.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate
from scipy.special import gamma, zeta


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


#: start of the asymptotic cosine tail; below it a finite-range
#: cosine-weighted quadrature runs up to this point
COS_TAIL_SWITCH = 200.0
#: tolerance of that quadrature, relative to the plain power tail from s
COS_TAIL_REL_TOL = 1e-10


def _cos_tail_asymptotic(rho: float, s: float) -> float:
    # int_s^inf cos(u) u^-rho du = Re[i e^{is} s^-rho sum_m (-i)^m (rho)_m s^-m]
    # (integration by parts), summed until the terms drop below machine
    # precision or start to grow
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


def _cos_tail(rho: float, s: float, epsabs: float) -> float:
    """``int_s^inf cos(u) u^-rho du`` for s > 0."""
    if s >= COS_TAIL_SWITCH:
        return _cos_tail_asymptotic(rho, s)
    head, _ = integrate.quad(
        lambda u: u ** -rho, s, COS_TAIL_SWITCH, weight="cos", wvar=1.0,
        epsabs=epsabs, epsrel=COS_TAIL_REL_TOL, limit=400,
    )
    return head + _cos_tail_asymptotic(rho, COS_TAIL_SWITCH)


def one_minus_cos_tail(rho: float, s: float) -> float:
    """``int_s^inf (1 - cos u) u^-rho du`` for rho > 1 (s > 0 when rho >= 3).

    From s = 6 on it is the plain power tail minus ``int_s^inf cos(u)
    u^-rho du``, which is smaller by a factor of order s and comes from a
    finite-range cosine-weighted quadrature up to 200 plus the
    integration-by-parts expansion beyond. Below s = 6 the cosine series
    is integrated term by term: from the origin when rho < 3, where the
    full integral converges, and on [s, 6] otherwise, so small s never
    subtracts two near-equal large numbers.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if rho <= 1.0:
        return math.inf
    if s >= 6.0:
        plain = s ** (1.0 - rho) / (rho - 1.0)
        return plain - _cos_tail(rho, s, COS_TAIL_REL_TOL * plain)
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
    if 1.0 < rho and s > COS_TAIL_SWITCH:
        return max(0.0, one_minus_cos_integral(rho) - one_minus_cos_tail(rho, s))
    head = _one_minus_cos_series(rho, 0.0, 6.0)
    plain = _power_range(rho, 6.0, s)
    oscillatory, _ = integrate.quad(
        lambda u: u ** -rho, 6.0, s, weight="cos", wvar=1.0, limit=400
    )
    return head + plain - oscillatory


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


def strided_power_sum(rho: float, stride: int, offset: int, n_from: float):
    """``sum n^-rho`` over integers n >= n_from with n = offset (mod stride).

    Exact via the Hurwitz zeta function: with n = stride*j + r the sum is
    stride^-rho * zeta(rho, j0 + r/stride). Requires rho > 1. Accepts float
    ``n_from`` (the sum runs over lattice points strictly above n_from - 1,
    i.e. n >= ceil(n_from)).
    """
    if rho <= 1.0:
        return math.inf
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    r = offset % stride
    n0 = math.ceil(n_from)
    # smallest j with stride*j + r >= max(n0, 1); for r = 0 the progression starts at j = 1
    if r == 0:
        j0 = max(1, math.ceil(n0 / stride))
    else:
        j0 = max(0, math.ceil((n0 - r) / stride))
    a = j0 + r / stride
    return float(stride ** -rho * zeta(rho, a))
