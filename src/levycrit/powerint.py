"""Closed forms and tail sums for power-law integrands.

Everything downstream (characteristic exponents, convergence criteria,
energy bounds, boundary conductances) reduces to two primitives:

* cosine-type integrals ``int (1 - cos u) u^-rho du`` with 1 < rho < 3,
* tail sums ``sum_{n > N} n^-rho`` over an arithmetic progression,
  which are Hurwitz zeta values and therefore exact to machine precision.
"""

from __future__ import annotations

import math

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


def _one_minus_cos_series(rho: float, s: float, max_terms: int = 80) -> float:
    # int_0^s (1-cos u) u^-rho du = sum_j (-1)^{j+1} s^{2j+1-rho} / ((2j)! (2j+1-rho))
    total = 0.0
    sign = 1.0
    fact = 1.0
    for j in range(1, max_terms + 1):
        fact *= (2 * j - 1) * (2 * j)
        term = sign * s ** (2 * j + 1 - rho) / (fact * (2 * j + 1 - rho))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
        sign = -sign
    return total


def one_minus_cos_tail(rho: float, s: float) -> float:
    """``int_s^inf (1 - cos u) u^-rho du`` for rho > 1 (s > 0 when rho >= 3).

    Regimes: alternating series near the origin (rho < 3 only, where the
    full integral converges), cosine-weighted adaptive quadrature for
    moderate s, and an integration-by-parts expansion beyond s = 200
    (relative error below 1e-5 there).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if rho <= 1.0:
        return math.inf
    if s > 200.0:
        # int_s^inf cos(u) u^-rho = -sin(s) s^-rho + rho cos(s) s^-(rho+1) + O(rho^2 s^-(rho+2))
        return (
            s ** (1.0 - rho) / (rho - 1.0)
            + math.sin(s) * s ** -rho
            - rho * math.cos(s) * s ** (-rho - 1.0)
        )
    if rho >= 3.0:
        if s == 0.0:
            return math.inf  # divergent at the origin
        plain = s ** (1.0 - rho) / (rho - 1.0)
        oscillatory, _ = integrate.quad(
            lambda u: u ** -rho, s, math.inf, weight="cos", wvar=1.0
        )
        return max(0.0, plain - oscillatory)
    k = one_minus_cos_integral(rho)
    if s == 0.0:
        return k
    if s <= 6.0:
        return max(0.0, k - _one_minus_cos_series(rho, s))
    head = _one_minus_cos_series(rho, 6.0)
    plain = (6.0 ** (1.0 - rho) - s ** (1.0 - rho)) / (rho - 1.0)
    oscillatory, _ = integrate.quad(
        lambda u: u ** -rho, 6.0, s, weight="cos", wvar=1.0, limit=400
    )
    return max(0.0, k - (head + plain - oscillatory))


def _power_range(rho: float, a: float, b: float) -> float:
    if rho == 1.0:
        return math.log(b / a)
    return (b ** (1.0 - rho) - a ** (1.0 - rho)) / (1.0 - rho)


def one_minus_cos_partial(rho: float, s: float) -> float:
    """``int_0^s (1 - cos u) u^-rho du`` for any rho < 3, s >= 0 finite."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s <= 6.0:
        return _one_minus_cos_series(rho, s) if s > 0 else 0.0
    if 1.0 < rho and s > 200.0:
        return max(0.0, one_minus_cos_integral(rho) - one_minus_cos_tail(rho, s))
    head = _one_minus_cos_series(rho, 6.0)
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
