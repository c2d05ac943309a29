"""Analytic tail models for jump laws.

Convergence verdicts in this package are never pure numerics: every
Converges/Diverges decision is taken from a declared tail model, and
truncated sums carry enclosures derived from the same model. Every law
declares a :class:`TailDescriptor`, its dominant behaviour, which
classifies. A lattice law with a power tail also carries a tuple of
:class:`PowerTailComponent` entries (per-residue-class models, for masses
that interleave several decay rates), and the components decide every
lattice sum past its table: :meth:`SymmetricJumpLaw.lag_tail_sum` sums the
table exactly and adds each component's envelope past it, for every
cutoff. A finite lattice law has no components and sums its table.

A power model with ``lower_factor = upper_factor = 1`` is exact: the mass
or density equals ``K y^-rho`` beyond the onset. Inexact models (for
example bin-integrated densities) carry a certified envelope
``[lower_factor * K * y^-rho, upper_factor * K * y^-rho]``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .powerint import power_range, strided_power_sum


class DomainError(ValueError):
    """Invalid parameter or unusable law/normalization for an operation."""


def require_positive(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Raise DomainError unless ``value`` is finite and positive.

    With ``allow_zero`` the value may also be 0. NaN and infinities always
    fail, so a bad number stops at the constructor that receives it.
    """
    if not math.isfinite(value) or value < 0.0 or (value == 0.0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"{name} must be finite and {kind}, got {value}")


def require_integer(name: str, value, lo: int, hi: int) -> int:
    """Return ``value`` as an int; raise DomainError unless it is integral
    and lies in ``[lo, hi]``.

    Integral floats (``8.0``) and numpy integers pass; ``2.5``, NaN,
    infinities, strings and ``True``/``False`` fail, before any array sized
    by ``value`` is built.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, bool) or n != value or not lo <= n <= hi:
        raise DomainError(f"{name} must be at least {lo}, at most {hi} and integral, "
                          f"got {value!r}")
    return n


#: largest cutoff of a truncated sum or integral: cutoff**3 stays finite below it
CUTOFF_MAX = 1e100


def require_cutoff(cutoff: float, *, allow_one: bool = False) -> None:
    """Raise DomainError unless ``1 < cutoff <= CUTOFF_MAX`` (``1 <= cutoff`` with ``allow_one``).

    NaN and infinities always fail. Below the bound the weighted integrands
    of the criteria and moments (at most ``y^3`` times a mass) stay finite.
    """
    if not ((1.0 <= cutoff if allow_one else 1.0 < cutoff) and cutoff <= CUTOFF_MAX):
        span = f"{'[' if allow_one else '('}1, {CUTOFF_MAX:g}]"
        raise DomainError(f"cutoff must be finite and lie in {span}, got {cutoff}")


class TailKind(Enum):
    POWER_LAW = "power_law"
    EXPONENTIAL = "exponential"
    COMPACT_SUPPORT = "compact_support"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TailDescriptor:
    """Dominant tail behaviour of a symmetric jump law.

    For POWER_LAW, ``exponent`` is rho in ``mass(n) ~ K n^-rho`` (or
    ``f(y) ~ K |y|^-rho``); for EXPONENTIAL it is the decay rate lambda in
    ``K exp(-lambda y)``. The model applies for ``|y| >= onset``.
    COMPACT_SUPPORT means no mass beyond ``onset``.
    """

    kind: TailKind
    exponent: float = 0.0
    constant: float = 0.0
    onset: float = 1.0
    lower_factor: float = 1.0
    upper_factor: float = 1.0

    def __post_init__(self):
        require_positive("tail onset", self.onset)
        if self.kind in (TailKind.POWER_LAW, TailKind.EXPONENTIAL):
            require_positive("tail exponent/rate", self.exponent)
            require_positive("tail constant", self.constant)
            if not 0 < self.lower_factor <= 1 <= self.upper_factor < math.inf:
                raise DomainError("envelope factors must be finite and bracket 1")
            if self.kind is TailKind.POWER_LAW and self.exponent <= 1.0:
                raise DomainError("power tail needs rho > 1: infinite mass away from 0")

    @classmethod
    def of_components(cls, components) -> "TailDescriptor":
        """The power tail of a lattice law: its dominant (least-exponent)
        component's model, from that component's first lag."""
        dom = min(components, key=lambda c: c.exponent)
        return cls(TailKind.POWER_LAW, exponent=dom.exponent, constant=dom.constant,
                   onset=float(dom.start), lower_factor=dom.lower_factor,
                   upper_factor=dom.upper_factor)

    @property
    def exact(self) -> bool:
        return self.lower_factor == 1.0 == self.upper_factor

    def weighted_tail_converges(self, weight_power: float):
        """Does ``int_{onset}^inf y^weight_power * model(y) dy`` converge?

        Returns True/False, or None when the tail is UNKNOWN.
        """
        if self.kind is TailKind.POWER_LAW:
            return self.exponent - weight_power > 1.0
        if self.kind in (TailKind.EXPONENTIAL, TailKind.COMPACT_SUPPORT):
            return True
        return None

    def weighted_tail_upper(self, weight_power: float, y_from):
        """Upper bound for ``int_{y_from}^inf y^weight_power * model``, y_from >= onset.

        Elementwise for an array ``y_from``.
        """
        y_from = np.maximum(y_from, self.onset)
        if self.kind is TailKind.COMPACT_SUPPORT:
            return 0.0
        if self.kind is TailKind.POWER_LAW:
            k_hi = self.upper_factor * self.constant
            return k_hi * power_range(self.exponent - weight_power, y_from, math.inf)
        if self.kind is TailKind.EXPONENTIAL:
            lam = self.exponent
            # for integer 0 <= k <= 3, with y = y_from and u = 1/(lam y):
            # int_y^inf t^k e^(-lam t) dt = y^k e^(-lam y) / lam * sum_j k!/(k-j)! u^j
            #                            <= y^k e^(-lam y) / lam * (1 + k u)^3,
            # as k!/(k-j)! <= k^j <= binom(3, j) k^j term by term; for k < 0,
            # t^k <= y^k gives the k = 0 bound times y^k
            k = weight_power
            base = self.upper_factor * self.constant * np.exp(-lam * y_from) / lam
            poly = y_from ** k * (1.0 + max(k, 0.0) / (lam * y_from)) ** 3
            return base * poly
        return math.inf

    def inverse_tail_integral(self, weight_power: float, y_from):
        """Envelope (lo, hi) of ``int_{y_from}^inf y^weight_power / f(y) dy``, y_from >= onset.

        The density's counterpart of :meth:`PowerTailComponent.weighted_tail_sum`
        with ``inverse``: the power model brackets the integrand by
        ``y^(weight_power + rho) / (K * factor)``; inf where it diverges.
        """
        base = power_range(-(self.exponent + weight_power), y_from, math.inf)
        k_lo, k_hi = self.constant * self.lower_factor, self.constant * self.upper_factor
        return base / k_hi, base / k_lo


@dataclass(frozen=True)
class PowerTailComponent:
    """Exact-envelope power model for lattice masses on one residue class.

    Masses at lags n >= start with n = offset (mod stride) satisfy
    ``lower_factor * K n^-rho <= m(n) <= upper_factor * K n^-rho``.
    """

    constant: float
    exponent: float
    stride: int = 1
    offset: int = 0
    start: int = 1
    lower_factor: float = 1.0
    upper_factor: float = 1.0

    def __post_init__(self):
        require_positive("component constant", self.constant)
        if not 1.0 < self.exponent < math.inf:
            raise DomainError(f"component exponent must be finite and above 1, got {self.exponent}")
        if 2.0 ** -self.exponent < sys.float_info.min:
            raise DomainError(
                f"component exponent {self.exponent} makes every mass past lag 1 underflow"
            )
        # psi splits a stride-2 class into stride-1 cosine sums; wider ones need sines
        if self.stride not in (1, 2) or not 0 <= self.offset < self.stride:
            raise DomainError("stride must be 1 or 2, with 0 <= offset < stride")
        if not 0 < self.lower_factor <= 1 <= self.upper_factor < math.inf:
            raise DomainError("envelope factors must be finite and bracket 1")

    @property
    def exact(self) -> bool:
        return self.lower_factor == 1.0 == self.upper_factor

    def weighted_tail_sum(self, weight_power: float, n_from, inverse: bool = False):
        """Envelope of ``sum_{n > n_from} n^weight_power * m(n)^(+-1)`` on this class.

        ``inverse`` sums ``n^weight_power / m(n)``, which the model brackets
        by ``n^(weight_power + rho) / (K * factor)``. Returns (lo, hi),
        elementwise for an array ``n_from``, and inf where the sum diverges;
        requires n_from >= start - 1 so the model applies.
        """
        p = -self.exponent - weight_power if inverse else self.exponent - weight_power
        base = strided_power_sum(p, self.stride, self.offset, np.floor(n_from) + 1)
        k_lo, k_hi = self.constant * self.lower_factor, self.constant * self.upper_factor
        return (base / k_hi, base / k_lo) if inverse else (k_lo * base, k_hi * base)
