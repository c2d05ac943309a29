"""Symmetric jump laws, Levy triplets, and the characteristic exponent.

A symmetric jump law stores only its positive side: lattice masses m(n)
for lags n >= 1 (plus an origin mass), or a density f(y) for y > 0, with
the mass/density at -y structurally equal to that at +y. Laws carry an
analytic tail model (see :mod:`levycrit.tails`) so that series/integral
classification never rests on truncated numerics alone. A lattice law is
one of two shapes: finite (masses up to ``max_lag``, no power tail), or
power-modelled (a power tail descriptor, which classifies, and power
components past a short table, which decide every sum beyond it). Tail
masses ``nu((x, inf))`` are taken over arrays of points in one call.

Every lattice series sums its head to :attr:`SymmetricJumpLaw.series_head`
and takes the rest from the components. It reads the head's masses from
:meth:`SymmetricJumpLaw.masses`, so the law evaluates them once.

The characteristic exponent of a symmetric triplet (0, c, nu) is

    psi(xi) = c xi^2 / 2 + int (1 - cos(xi y)) nu(dy),

real, even and nonnegative. For lattice laws the jump part is a cosine
sum over the head, at least 64 lags, plus each power component's tail past
it by the Euler-Maclaurin formula, exact to rounding for an exact
component. The head runs over all points at once, with the lags laid out
as a sqrt(N) x sqrt(N) block matrix and cos(n u) split by angle addition,
so each point costs about 2 sqrt(N) sines instead of N. Piecewise-power
densities sum :func:`levycrit.powerint.power_range` over the array. Every
integral of a generic density runs on :func:`levycrit.powerint.panel_integrals`:
one fixed 15-point Gauss-Kronrod rule on every panel of a grid, with one
array call to the density per pass, plus the declared tail model beyond
the grid; moments and the Sato-Shepp inner integral take a grid in log y
(:func:`levycrit.powerint.log_panel_integrals`). The exponent's head takes
every point of a call in one grouped pass, a row of panels per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .powerint import (
    NumericError,
    hurwitz_zeta,
    log_panel_integrals,
    one_minus_cos_range,
    one_minus_cos_tail,
    panel_integrals,
    power_range,
)
from .tails import DomainError, PowerTailComponent, TailDescriptor, TailKind
from .tails import require_cutoff, require_positive
from .verdicts import ConvergenceVerdict, Status, verdict

PROBABILITY_TOL = 1e-10
#: least head of a lattice series on a law with an inexact component, the
#: largest lag a mass table may list and the longest head a law builds (a
#: longer one, as a finely binned heavy tail has, is refused before it is
#: allocated): each dense array of float64 masses then holds at most 8 MB,
#: as does the head that a law keeps for its lifetime once a series has read it
LATTICE_SERIES_CUTOFF = 10 ** 6


class Normalization(Enum):
    PROBABILITY = "probability"
    FINITE = "finite_measure"
    SIGMA_FINITE = "sigma_finite"


# ---------------------------------------------------------------------------
# supports


@dataclass(frozen=True)
class LatticeSupport:
    """Masses on a delta-lattice; only lags n >= 1 are stored."""

    spacing: float
    mass_fn: Callable[[np.ndarray], np.ndarray]
    origin_mass: float = 0.0
    components: tuple[PowerTailComponent, ...] = ()
    max_lag: Optional[int] = None  # largest lag with mass, if the support is finite

    def __post_init__(self):
        require_positive("lattice spacing", self.spacing)
        require_positive("origin mass", self.origin_mass, allow_zero=True)

    @property
    def top(self) -> int:
        """Last lag whose mass is summed from the table, not from a component."""
        return self.max_lag if self.max_lag is not None else max(c.start for c in self.components) - 1


@dataclass(frozen=True)
class PowerPiece:
    """Density ``sum_j K_j y^-rho_j`` on the interval [lo, hi)."""

    lo: float
    hi: float
    terms: tuple[tuple[float, float], ...]  # (K, rho)

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:
            raise DomainError("piece interval must satisfy 0 <= lo < hi")
        if not self.terms:
            raise DomainError("piece needs at least one term")
        for k, rho in self.terms:
            require_positive("piece coefficient", k)
            if not math.isfinite(rho):
                raise DomainError(f"piece exponent must be finite, got {rho}")

    def density(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for k, rho in self.terms:
            out = out + k * y ** -rho
        return out

    def weighted_integral(self, a, b, weight: float = 0.0):
        """``int_a^b y^weight * density(y) dy`` over [a,b] clipped to the piece.

        A sum of :func:`power_range` over the terms, elementwise for array
        bounds (a float for scalar ones): 0 where the clipped range is
        empty, inf where the integral diverges.
        """
        b = np.minimum(b, self.hi)
        a = np.minimum(np.maximum(a, self.lo), b)
        total = sum(k * power_range(rho - weight, a, b) for k, rho in self.terms)
        total = np.where(b > a, total, 0.0)  # power_range is nan on [0, 0] and [inf, inf]
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class ContinuousSupport:
    """Pointwise-evaluable density; optionally an exact piecewise-power form."""

    density_fn: Callable[[np.ndarray], np.ndarray]
    pieces: Optional[tuple[PowerPiece, ...]] = None


# ---------------------------------------------------------------------------
# the law


@dataclass(frozen=True)
class SymmetricJumpLaw:
    """A symmetric jump distribution or Levy measure on R (or a lattice)."""

    support: LatticeSupport | ContinuousSupport
    normalization: Normalization
    tail: TailDescriptor
    total_mass: Optional[float] = None  # None for sigma-finite measures
    unimodal: bool = False
    strictly_positive: bool = False
    label: str = ""

    def __post_init__(self):
        if self.unimodal and self.is_lattice:
            raise DomainError("discretely supported measures are never unimodal")
        if self.is_lattice:
            finite = self.support.max_lag is not None
            power = self.tail.kind is TailKind.POWER_LAW
            if finite == bool(self.support.components) or finite == power:
                raise DomainError(
                    "a lattice law is finite (max_lag, no components, no power tail) "
                    "or power-modelled (components and a power tail, no max_lag)"
                )
        if self.normalization is Normalization.PROBABILITY:
            if self.total_mass is None or abs(self.total_mass - 1.0) > PROBABILITY_TOL:
                raise DomainError(
                    f"probability law must have total mass 1 within {PROBABILITY_TOL}"
                )

    # -- structure ---------------------------------------------------------

    @property
    def is_lattice(self) -> bool:
        return isinstance(self.support, LatticeSupport)

    @property
    def spacing(self) -> float:
        if not self.is_lattice:
            raise DomainError("continuous law has no lattice spacing")
        return self.support.spacing

    @property
    def components(self) -> tuple[PowerTailComponent, ...]:
        if self.is_lattice:
            return self.support.components
        return ()

    @property
    def series_head(self) -> int:
        """Last lag a lattice series sums: ``top`` if every component is exact
        (a finite law included), else at least ``LATTICE_SERIES_CUTOFF``. The
        law evaluates the masses of these lags once (:meth:`masses`)."""
        top = self.support.top
        return top if all(c.exact for c in self.components) else max(top, LATTICE_SERIES_CUTOFF)

    @cached_property
    def _head(self) -> np.ndarray:
        head = self.mass(np.arange(1, self.series_head + 1))
        head.flags.writeable = False
        return head

    def masses(self, n_hi: int, n_lo: int = 1) -> np.ndarray:
        """Masses m(n_lo..n_hi), n_lo >= 1: the one read of a lag range.

        The head, m(1..series_head), is evaluated once per law, read-only,
        by the first read that reaches its end; later reads slice it. A read
        that stops short of it before then, or starts past it, evaluates only
        its own lags, so a law whose series never run keeps no head; a read
        past its end evaluates only the lags beyond it. A read that needs a
        head longer than ``LATTICE_SERIES_CUTOFF`` is refused before any
        allocation.
        """
        if not self.is_lattice:
            raise DomainError("masses() is only defined for lattice laws")
        if n_lo < 1:
            raise DomainError("lags must be >= 1; the origin mass is separate")
        head = self.series_head
        if n_lo > head or (n_hi < head and "_head" not in self.__dict__):
            return self.mass(np.arange(n_lo, n_hi + 1))
        if head > LATTICE_SERIES_CUTOFF:
            raise DomainError(
                f"a series head of {head} lags exceeds the cap {LATTICE_SERIES_CUTOFF}"
            )
        if n_hi <= head:
            return self._head[n_lo - 1 : n_hi]
        return np.concatenate((self._head[n_lo - 1 :], self.mass(np.arange(head + 1, n_hi + 1))))

    def mass(self, n):
        """Lattice mass at lag ``n >= 1`` (same value at ``-n``)."""
        if not self.is_lattice:
            raise DomainError("mass() is only defined for lattice laws")
        arr = np.asarray(n)
        if np.any(arr < 1):
            raise DomainError("lags must be >= 1; the origin mass is separate")
        out = np.asarray(self.support.mass_fn(arr), dtype=float)
        return float(out) if np.isscalar(n) or arr.shape == () else out

    def density(self, y):
        """Density at ``y`` (evaluated at |y|; symmetric)."""
        if self.is_lattice:
            raise DomainError("density() is only defined for continuous laws")
        arr = np.abs(np.asarray(y, dtype=float))
        if np.any(arr == 0.0):
            raise DomainError("density is stored for |y| > 0 only")
        out = np.asarray(self.support.density_fn(arr), dtype=float)
        return float(out) if np.isscalar(y) else out

    # -- tail mass ---------------------------------------------------------

    def one_sided_tail_mass(self, x):
        """Envelope (lo, hi) of ``nu((x, inf))`` for x >= 0 (one side only).

        Floats for a scalar ``x`` and arrays of ``x``'s shape for an array.
        A lattice law reads the lags n > x / delta from :meth:`lag_tail_sum`,
        so every point gets the value a scalar call gives. A piecewise-power
        density integrates its pieces in closed form. A generic density
        takes one Gauss-Kronrod pass on the points below the tail onset,
        summed from the onset down, plus the tail model beyond.
        """
        arr = np.asarray(x, dtype=float)
        if self.is_lattice:
            return self.lag_tail_sum(0.0, np.floor(arr / self.spacing).astype(np.int64))
        lo, hi = self._continuous_tail_mass(arr.reshape(-1))
        if arr.ndim == 0:
            return float(lo[0]), float(hi[0])
        return lo.reshape(arr.shape), hi.reshape(arr.shape)

    def lag_tail_sum(self, weight_power: float, n_from, inverse: bool = False):
        """Envelope (lo, hi) of ``sum_{n > n_from} n^weight_power m(n)^(+-1)``.

        The one head/tail split of every lattice series; ``inverse`` sums
        ``n^weight_power / m(n)``. Floats for a scalar lag ``n_from``, arrays
        of its shape for an array. Tabulated lags up to ``top`` are summed
        exactly by suffix sums, and each power component adds its
        Hurwitz-zeta envelope past max(n_from, top), so a cutoff below
        ``top`` loses no lag. Divergence is inf: a class the weight makes
        divergent, a zero mass in an inverse sum, a finite law's inverse sum.
        """
        if not self.is_lattice:
            raise DomainError("lag sums are only defined for lattice laws")
        sup = self.support
        arr = np.asarray(n_from, dtype=np.int64)
        top = sup.top
        first = int(arr.min(initial=top)) + 1
        masses = self.masses(top, first)
        lags = np.arange(first, top + 1)
        with np.errstate(divide="ignore"):
            terms = lags.astype(float) ** weight_power * (1.0 / masses if inverse else masses)
        suffix = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
        lo = hi = suffix[np.minimum(arr, top) + 1 - first]
        if inverse and sup.max_lag is not None:
            lo = hi = np.full(arr.shape, math.inf)
        for c in sup.components:
            c_lo, c_hi = c.weighted_tail_sum(weight_power, np.maximum(arr, top), inverse)
            lo, hi = lo + c_lo, hi + c_hi
        return (float(lo), float(hi)) if arr.ndim == 0 else (lo, hi)

    def _continuous_tail_mass(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sup = self.support
        if sup.pieces is not None:
            total = sum(piece.weighted_integral(x, math.inf, 0.0) for piece in sup.pieces)
            return total, total
        onset = self.tail.onset
        edges = np.append(np.unique(x[x < onset]), onset)
        mass, _ = panel_integrals(self.density, edges)
        suffix = np.append(np.cumsum(mass[::-1])[::-1], 0.0)
        head = suffix[np.searchsorted(edges, np.minimum(x, onset))]
        hi_tail = self.tail.weighted_tail_upper(0.0, np.maximum(x, onset))
        lo_tail = 0.0
        if self.tail.kind is TailKind.POWER_LAW:
            lo_tail = hi_tail * self.tail.lower_factor / self.tail.upper_factor
        return head + lo_tail, head + hi_tail


def as_finite_measure(law: SymmetricJumpLaw) -> SymmetricJumpLaw:
    """View a probability law as the finite Levy measure it also is."""
    if law.normalization is Normalization.SIGMA_FINITE:
        raise DomainError("sigma-finite law has no finite-measure view")
    return replace(law, normalization=Normalization.FINITE)


# ---------------------------------------------------------------------------
# the triplet


@dataclass(frozen=True)
class LevyTriplet:
    """Symmetric Levy triplet (b=0, c, nu); ``nu=None`` means no jump part."""

    c: float
    nu: Optional[SymmetricJumpLaw] = None
    label: str = ""

    def __post_init__(self):
        require_positive("Gaussian coefficient", self.c, allow_zero=True)
        if self.nu is not None and self.nu.normalization is Normalization.PROBABILITY:
            raise DomainError(
                "triplet jump measure must be a finite or sigma-finite measure; "
                "wrap probability laws with as_finite_measure()"
            )
        if self.nu is None and self.c == 0:
            raise DomainError("triplet must have a Gaussian or a jump part")

    @property
    def b(self) -> float:
        return 0.0


def make_walk_triplet(law: SymmetricJumpLaw, label: str = "") -> LevyTriplet:
    """Triplet of the compound-Poisson process with the walk's jump law."""
    nu = as_finite_measure(law) if law.normalization is Normalization.PROBABILITY else law
    return LevyTriplet(c=0.0, nu=nu, label=label or law.label)


# ---------------------------------------------------------------------------
# constructors


def make_power_law_lattice(alpha: float, normalize: bool = False) -> SymmetricJumpLaw:
    """Unit-spacing lattice law with masses ``C n^-(alpha+1)``.

    Raw form has C = 1 (a finite symmetric measure); the normalized form is
    the probability law with C = 1 / (2 zeta(alpha+1)).
    """
    require_positive("alpha", alpha)
    s = alpha + 1.0
    zeta_s = hurwitz_zeta(s, 1.0)
    c_coef = 1.0 / (2.0 * zeta_s) if normalize else 1.0
    total = 1.0 if normalize else 2.0 * zeta_s

    def mass_fn(n, _c=c_coef, _s=s):
        return _c * np.asarray(n, dtype=float) ** -_s

    support = LatticeSupport(
        spacing=1.0,
        mass_fn=mass_fn,
        origin_mass=0.0,
        components=(PowerTailComponent(constant=c_coef, exponent=s),),
    )
    return SymmetricJumpLaw(
        support=support,
        normalization=Normalization.PROBABILITY if normalize else Normalization.FINITE,
        tail=TailDescriptor.of_components(support.components),
        total_mass=total,
        strictly_positive=True,
        label=f"power_lattice(alpha={alpha:g}{', normalized' if normalize else ', raw'})",
    )


def multi_index_total(alpha: float, beta: float) -> float:
    """Total mass ``sum_{n in Z, n != 0} p_n`` of the raw two-index lattice law."""
    s, t = alpha + 1.0, beta + 1.0
    even = 2.0 ** -s * hurwitz_zeta(s, 1.0)
    odd = (1.0 - 2.0 ** -t) * hurwitz_zeta(t, 1.0)
    return 2.0 * (even + odd)


def make_multi_index_lattice(
    alpha: float, beta: float, normalize: bool = False
) -> SymmetricJumpLaw:
    """Lattice law with even lags ``n^-(alpha+1)`` and odd lags ``n^-(beta+1)``.

    Interleaves two stability indices; the dominant tail exponent is
    min(alpha, beta) + 1. Both the raw measure and the normalized
    probability form are available, and reports record which one was used.
    """
    require_positive("alpha", alpha)
    require_positive("beta", beta)
    s, t = alpha + 1.0, beta + 1.0
    raw_total = multi_index_total(alpha, beta)
    c_coef = 1.0 / raw_total if normalize else 1.0

    def mass_fn(n, _c=c_coef, _s=s, _t=t):
        arr = np.asarray(n, dtype=float)
        return _c * np.where(np.asarray(n) % 2 == 0, arr ** -_s, arr ** -_t)

    support = LatticeSupport(
        spacing=1.0,
        mass_fn=mass_fn,
        origin_mass=0.0,
        components=(
            PowerTailComponent(constant=c_coef, exponent=s, stride=2, offset=0, start=2),
            PowerTailComponent(constant=c_coef, exponent=t, stride=2, offset=1, start=1),
        ),
    )
    return SymmetricJumpLaw(
        support=support,
        normalization=Normalization.PROBABILITY if normalize else Normalization.FINITE,
        tail=TailDescriptor.of_components(support.components),
        total_mass=1.0 if normalize else raw_total,
        strictly_positive=True,
        label=f"multi_index(alpha={alpha:g}, beta={beta:g}"
        f"{', normalized' if normalize else ', raw'})",
    )


def make_lattice_table(
    masses: dict[int, float],
    spacing: float = 1.0,
    origin_mass: float = 0.0,
    tail: Optional[TailDescriptor] = None,
    normalization: Optional[Normalization] = None,
    label: str = "",
) -> SymmetricJumpLaw:
    """Law from an explicit table of one-sided lattice masses.

    Without a declared tail the support is compact (zero mass beyond the
    largest tabulated lag). A POWER_LAW tail extends the table with
    ``K n^-rho`` beyond it. A lag past ``LATTICE_SERIES_CUTOFF`` is refused
    before the table is allocated.
    """
    if not masses:
        raise DomainError("mass table must not be empty")
    if any(k < 1 for k in masses):
        raise DomainError("table lags must be >= 1")
    for k, v in masses.items():
        require_positive(f"mass at lag {k}", v, allow_zero=True)
    require_positive("lattice spacing", spacing)
    max_lag = max(masses)
    if max_lag > LATTICE_SERIES_CUTOFF:
        raise DomainError(f"table lag {max_lag} exceeds the cap {LATTICE_SERIES_CUTOFF}")
    table = np.zeros(max_lag + 1)
    for k, v in masses.items():
        table[k] = v

    if tail is None:
        tail = TailDescriptor(TailKind.COMPACT_SUPPORT, onset=max_lag * spacing)

    if tail.kind is TailKind.POWER_LAW:
        comp = (
            PowerTailComponent(
                constant=tail.constant,
                exponent=tail.exponent,
                start=max_lag + 1,
                lower_factor=tail.lower_factor,
                upper_factor=tail.upper_factor,
            ),
        )

        def mass_fn(n, _tbl=table, _K=tail.constant, _rho=tail.exponent, _m=max_lag):
            arr = np.asarray(n)
            small = arr <= _m
            out = np.where(small, _tbl[np.minimum(arr, _m)], _K * np.asarray(arr, float) ** -_rho)
            return out

        max_lag_field = None
    else:
        comp = ()

        def mass_fn(n, _tbl=table, _m=max_lag):
            arr = np.asarray(n)
            return np.where(arr <= _m, _tbl[np.minimum(arr, _m)], 0.0)

        max_lag_field = max_lag

    support = LatticeSupport(
        spacing=spacing,
        mass_fn=mass_fn,
        origin_mass=origin_mass,
        components=comp,
        max_lag=max_lag_field,
    )
    total_side = origin_mass + 2.0 * float(sum(masses.values()))
    if comp:
        t_lo, t_hi = comp[0].weighted_tail_sum(0.0, max_lag)
        total_side += t_lo + t_hi  # 2 * midpoint of one side
    if normalization is None:
        normalization = (
            Normalization.PROBABILITY
            if abs(total_side - 1.0) <= PROBABILITY_TOL
            else Normalization.FINITE
        )
    return SymmetricJumpLaw(
        support=support,
        normalization=normalization,
        tail=tail,
        total_mass=total_side,
        strictly_positive=all(v > 0 for v in masses.values()),
        label=label or f"table({len(masses)} lags, spacing={spacing:g})",
    )


def stable_levy_density_constant(alpha: float, gamma_scale: float) -> float:
    """Coefficient K in the stable Levy density ``K |y|^-alpha-1``.

    K = gamma * alpha * 2^(alpha-1) * Gamma((alpha+1)/2)
        / (sqrt(pi) * Gamma(1 - alpha/2)),
    which makes ``int (1-cos(xi y)) K |y|^-alpha-1 dy = gamma |xi|^alpha``.
    """
    if not 0 < alpha < 2:
        raise DomainError("density constant defined for 0 < alpha < 2")
    return (
        gamma_scale
        * alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma((alpha + 1.0) / 2.0)
        / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0))
    )


def make_piecewise_power(
    pieces: Sequence[PowerPiece],
    unimodal: bool = False,
    label: str = "",
) -> SymmetricJumpLaw:
    """Continuous law from an ordered, contiguous piecewise-power density.

    Pieces must tile (lo_0, hi_last) contiguously starting at 0. The
    normalization is inferred: probability when the two-sided mass is 1
    within tolerance, finite when integrable, sigma-finite otherwise
    (subject to the Levy integrability check near the origin).
    """
    pieces = tuple(pieces)
    if not pieces:
        raise DomainError("need at least one piece")
    if pieces[0].lo != 0.0:
        raise DomainError("first piece must start at 0")
    for left, right in zip(pieces, pieces[1:]):
        if left.hi != right.lo:
            raise DomainError("pieces must be contiguous")

    # Levy integrability: int_0^1 y^2 f < inf and finite mass beyond 1
    first = pieces[0]
    for _, rho in first.terms:
        if rho >= 3.0:
            raise DomainError("density fails int min(1, y^2) d nu < inf near 0")
    if pieces[-1].hi == math.inf:
        for _, rho in pieces[-1].terms:
            if rho <= 1.0:
                raise DomainError("density has infinite mass away from 0")

    one_side = sum(p.weighted_integral(0.0, math.inf, 0.0) for p in pieces)
    sigma_finite = math.isinf(one_side)
    total = None if sigma_finite else 2.0 * one_side
    if sigma_finite:
        normalization = Normalization.SIGMA_FINITE
    elif abs(total - 1.0) <= PROBABILITY_TOL:
        normalization = Normalization.PROBABILITY
    else:
        normalization = Normalization.FINITE

    last = pieces[-1]
    if last.hi == math.inf:
        k_dom, rho_dom = min(last.terms, key=lambda t: t[1])
        onset = max(last.lo, 1.0)
        # subdominant terms only shrink with y, so the ratio at the onset
        # bounds the envelope: K y^-rho <= f(y) <= upper * K y^-rho
        upper = float(last.density(onset)) * onset ** rho_dom / k_dom
        tail = TailDescriptor(
            TailKind.POWER_LAW,
            exponent=rho_dom,
            constant=k_dom,
            onset=onset,
            lower_factor=1.0,
            upper_factor=max(1.0, upper),
        )
    else:
        tail = TailDescriptor(TailKind.COMPACT_SUPPORT, onset=last.hi)

    def density_fn(y, _pieces=pieces):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for p in _pieces:
            sel = (y >= p.lo) & (y < p.hi)
            if np.any(sel):
                out[sel] = p.density(y[sel])
        return out

    return SymmetricJumpLaw(
        support=ContinuousSupport(density_fn=density_fn, pieces=pieces),
        normalization=normalization,
        tail=tail,
        total_mass=total,
        unimodal=unimodal,
        strictly_positive=last.hi == math.inf,
        label=label or f"piecewise_power({len(pieces)} pieces)",
    )


def make_stable_triplet(
    alpha: float, gamma_scale: float, unimodal: bool = True
) -> LevyTriplet:
    """Symmetric stable triplet with exponent ``psi(xi) = gamma |xi|^alpha``.

    For alpha < 2 the jump measure has the exact power density
    ``K |y|^-alpha-1``; alpha = 2 is the Brownian case (c = 2 gamma, no
    jumps). The density is decreasing on (0, inf), so the unimodal flag
    defaults to set; pass ``unimodal=False`` to withhold the assertion.
    """
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    require_positive("gamma", gamma_scale)
    label = f"stable(alpha={alpha:g}, gamma={gamma_scale:g})"
    if alpha == 2:
        return LevyTriplet(c=2.0 * gamma_scale, nu=None, label=label)
    k_const = stable_levy_density_constant(alpha, gamma_scale)
    nu = make_piecewise_power(
        (PowerPiece(0.0, math.inf, ((k_const, alpha + 1.0),)),),
        unimodal=unimodal,
        label=f"stable_levy_measure(alpha={alpha:g}, gamma={gamma_scale:g})",
    )
    return LevyTriplet(c=0.0, nu=nu, label=label)


def make_gaussian_density(sigma: float = 1.0) -> SymmetricJumpLaw:
    """Centered Gaussian probability density (continuous jump law)."""
    require_positive("sigma", sigma)
    if not 0.0 < sigma * sigma < math.inf:
        raise DomainError(f"sigma^2 must be a finite positive float, got sigma={sigma}")
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def density_fn(y, _n=norm, _s=sigma):
        y = np.asarray(y, dtype=float)
        return _n * np.exp(-(y * y) / (2.0 * _s * _s))

    onset = 8.0 * sigma
    return SymmetricJumpLaw(
        support=ContinuousSupport(density_fn=density_fn),
        normalization=Normalization.PROBABILITY,
        tail=TailDescriptor(
            TailKind.EXPONENTIAL, exponent=onset / (2.0 * sigma * sigma), constant=norm,
            onset=onset,
        ),
        total_mass=1.0,
        unimodal=True,
        strictly_positive=True,
        label=f"gaussian(sigma={sigma:g})",
    )


# ---------------------------------------------------------------------------
# characteristic exponent


#: first lag N and Bernoulli terms p of psi's Euler-Maclaurin tail. With |u| <= pi
#: the remainder 2 zeta(2p) (2 pi)^(-2p) int_N^inf |f^(2p)| (DLMF 2.10.1) is about
#: 2^(1-2p) K N^(1-rho) / (rho - 1), the tail times 2^-53 for p = 27; derivatives
#: of y^-rho add (rho)_2p (2 pi N)^(-2p), below 1e-60 at N = 64 for rho < 3.
_EM_START = 64
_EM_ORDER = 27
_EM_J = np.arange(2 * _EM_ORDER)  # derivative orders j of 1 - cos(u y)
_EM_M = 2 * np.arange(1, _EM_ORDER + 1)[:, None] - 1  # orders 2k - 1 of f
#: B_2k/(2k)! C(2k-1, j), with B_2k/(2k)! = (-1)^(k+1) 2 zeta(2k) / (2 pi)^(2k)
_EM_COEF = (-2.0 * hurwitz_zeta(_EM_M + 1.0, 1.0) / (-4.0 * math.pi ** 2) ** ((_EM_M + 1) // 2)
            * np.array([[math.comb(m, j) for j in _EM_J] for m in _EM_M[:, 0]], dtype=float))


def _lattice_cos_sum(law: SymmetricJumpLaw, u: np.ndarray, n_hi: int) -> np.ndarray:
    """``sum_{n<=n_hi} m(n) (1 - cos(n u))`` at every u, in one blocked pass.

    Lag n = a B + b, with B = isqrt(n_hi) + 1, sits at ``M[a, b]`` of a block
    matrix of masses (0 at the origin and past n_hi). With x = a B u and
    y = b u, ``1 - cos(x + y) = P + Q - P Q + S T`` (P = 2 sin^2(x/2),
    Q = 2 sin^2(y/2), S = sin x, T = sin y) turns the lag sum into
    ``sum_a P_a (r_a - (M Q)_a) + sum_a S_a (M T)_a + sum_b Q_b c_b``, with r
    and c the row and column sums of M: about 2 sqrt(n_hi) sines per point
    and two matrix products for the whole grid. At small u every term but
    the O((n u)^4) ``-P Q`` is nonnegative, so nothing cancels.
    """
    masses = law.masses(n_hi)
    width = math.isqrt(n_hi) + 1
    flat = np.zeros((n_hi // width + 1) * width)
    flat[1 : n_hi + 1] = masses
    blocks = flat.reshape(-1, width)
    x = np.outer(u, width * np.arange(len(blocks)))
    y = np.outer(u, np.arange(width))
    p, q = 2.0 * np.sin(x / 2.0) ** 2, 2.0 * np.sin(y / 2.0) ** 2
    partial = np.sum(
        p * (blocks.sum(axis=1) - q @ blocks.T) + np.sin(x) * (np.sin(y) @ blocks.T), axis=1
    )
    return partial + q @ blocks.sum(axis=0)


def _cos_tail_sum(rho: float, u: np.ndarray, n: int) -> np.ndarray:
    """``sum_{k>n} k^-rho (1 - cos(k u))`` at every u in [0, pi], by Euler-Maclaurin.

    For f(y) = y^-rho g(y), g = 1 - cos(u y): ``int_n^inf f``, minus f(n)/2,
    minus ``sum_k B_2k/(2k)! f^(2k-1)(n)``. By Leibniz's rule the Bernoulli
    terms are ``n^-rho sum_j w_j g^(j)(n)``, g^(j) = -Re(e^(iun) (iu)^j) for
    j >= 1, with w from ``_EM_COEF`` and the derivatives (-1)^i (rho)_i n^-i
    of (y/n)^-rho: one polynomial in iu.
    """
    x = n * u
    with np.errstate(over="ignore", invalid="ignore"):
        scale = u ** (rho - 1.0)
        integral = scale * one_minus_cos_tail(rho, x)
    if rho > 3.0:  # underflow guard: where u^(rho-1) underflows or the cosine tail
        # overflows, n u is so small that u^2 n^(3-rho) / (2 (rho-3)) is exact to rounding
        lost = (scale < np.finfo(float).tiny) | ~np.isfinite(integral)
        integral = np.where(lost, 0.5 * u * u * float(n) ** (3.0 - rho) / (rho - 3.0), integral)
    a = np.cumprod(np.append(1.0, -(rho + _EM_J[:-1]) / n))
    w = np.sum(_EM_COEF * a[np.maximum(_EM_M - _EM_J, 0)], axis=0)  # C(m, j) = 0 past j = m
    osc = np.exp(1j * x) * np.polynomial.polynomial.polyval(1j * u, np.append(0.0, w[1:]))
    return integral - float(n) ** -rho * ((1.0 + 2.0 * w[0]) * np.sin(x / 2.0) ** 2 - osc.real)


def _lattice_jump_exponent(law: SymmetricJumpLaw, axi: np.ndarray) -> np.ndarray:
    """One side of psi's jump part: the head, then each component's K n^-rho tail.

    K n^-rho is exact for an exact component, and to O(n^-2) for bins of a
    power density. Of a stride-2 class the even lags are 2^-rho times the
    stride-1 sum past n // 2 at 2u, the odd lags all minus those."""
    u = law.spacing * axi % (2.0 * math.pi)
    u = np.minimum(u, 2.0 * math.pi - u)  # in [0, pi], where every lattice cosine sum repeats
    n = max(law.series_head, _EM_START)
    total = _lattice_cos_sum(law, u, n)
    for c in law.components:
        if c.stride == 1 or c.offset == 1:
            total = total + c.constant * _cos_tail_sum(c.exponent, u, n)
        if c.stride == 2:  # add the even lags, or take them from all lags
            two_u = np.minimum(2.0 * u, 2.0 * math.pi - 2.0 * u)
            even = 2.0 ** -c.exponent * _cos_tail_sum(c.exponent, two_u, n // 2)
            total = total + (1 - 2 * c.offset) * c.constant * even
    return total


def _continuous_jump_exponent(law: SymmetricJumpLaw, axi: np.ndarray) -> np.ndarray:
    """One side of psi's jump part: pieces in closed form, a generic density in one
    grouped panel pass with a row per point."""
    sup, tail = law.support, law.tail
    if sup.pieces is not None:
        return sum(
            k * axi ** (rho - 1.0) * one_minus_cos_range(rho, axi * p.lo, axi * p.hi)
            for p in sup.pieces for k, rho in p.terms
        )
    if tail.kind is TailKind.UNKNOWN:
        raise NumericError("cannot integrate against an unknown tail")
    # panels to the onset (and through an exponential decay), then the tail model
    edges = [0.0, tail.onset]
    if tail.kind is TailKind.EXPONENTIAL:
        edges.append(tail.onset + 60.0 / tail.exponent)
    panels, _ = panel_integrals(  # one row of panels per point
        lambda y, row: 2.0 * np.sin(axi[row] * y / 2.0) ** 2 * law.density(y),
        np.tile(edges, (len(axi), 1)),
    )
    head = np.sum(panels, axis=1)
    if tail.kind is not TailKind.POWER_LAW:
        return head
    rho = tail.exponent
    k_mid = tail.constant * 0.5 * (tail.lower_factor + tail.upper_factor)
    return head + k_mid * axi ** (rho - 1.0) * one_minus_cos_tail(rho, axi * tail.onset)


def char_exponent(triplet: LevyTriplet, xi: float | np.ndarray) -> float | np.ndarray:
    """Characteristic exponent ``psi(xi) = c xi^2/2 + int (1-cos(xi y)) d nu``.

    A float for a scalar ``xi`` and an array of ``xi``'s shape for an array: a
    lattice law (:func:`_lattice_jump_exponent`) and a piecewise-power
    density take the whole array at once, a generic density one grouped
    panel pass with a row per point. Even and nonnegative by construction;
    psi(0) = 0 exactly. A NaN or infinite ``xi`` raises :class:`DomainError`.
    """
    axi = np.abs(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(axi)):
        raise DomainError("xi must be finite")
    flat = axi.reshape(-1)
    value = 0.5 * triplet.c * flat * flat
    nonzero = flat > 0.0
    nu = triplet.nu
    if nu is not None and np.any(nonzero):
        exponent = _lattice_jump_exponent if nu.is_lattice else _continuous_jump_exponent
        value[nonzero] += 2.0 * exponent(nu, flat[nonzero])
    # fmax, not maximum: a NaN becomes 0, which Chung-Fuchs refuses as underflow
    value = np.fmax(0.0, value).reshape(axi.shape)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# moments


def moment(law: SymmetricJumpLaw, k: int, cutoff: float = 1e6) -> ConvergenceVerdict:
    """Classify ``int_{|y|>1} |y|^k d nu`` from the tail model.

    Returns a :class:`levycrit.verdicts.ConvergenceVerdict`. The partial
    value is the two-sided truncated sum/integral over 1 < |y| <= cutoff,
    and the verdict's ``value`` adds the model's remainder. A lattice law's
    head stops at :attr:`SymmetricJumpLaw.series_head` (at least at lag
    ``floor(1/delta)``), before any lag is allocated, and
    :meth:`SymmetricJumpLaw.lag_tail_sum` gives the rest. A generic
    density's partial is one :func:`log_panel_integrals` pass, whose error
    widens the enclosure; the same pass integrates the stretch from a cutoff
    below the tail onset to the onset, which both ends of the remainder add.
    """
    if k not in (0, 1, 2, 3):
        raise DomainError("moment order k must be in {0, 1, 2, 3}")
    require_cutoff(cutoff, allow_one=True)

    converges = law.tail.weighted_tail_converges(float(k))
    err = 0.0  # a sum or closed form is exact; a panel pass sets its error
    if law.is_lattice:
        delta = law.spacing
        n_start = math.floor(1.0 / delta) + 1
        n_head = min(math.floor(cutoff / delta), law.series_head)
        n_stop = max(n_head, n_start - 1)
        masses = law.masses(n_head, n_start)
        lags = np.arange(n_start, n_head + 1)
        partial = 2.0 * float(np.sum((lags * delta) ** k * masses))
        tail_lo, tail_hi = (2.0 * delta ** k * t for t in law.lag_tail_sum(float(k), n_stop))
        truncation = f"lattice sum over 1 < n*delta <= {n_stop * delta:g}"
    else:
        if law.support.pieces is not None:
            partial = 2.0 * sum(
                p.weighted_integral(1.0, cutoff, float(k)) for p in law.support.pieces
            )
            tail_mid = 2.0 * sum(
                p.weighted_integral(cutoff, math.inf, float(k)) for p in law.support.pieces
            )
            tail_lo = tail_hi = tail_mid
        else:
            # the model holds from the onset: a cutoff below it integrates the gap
            edges = [1.0, cutoff, max(cutoff, law.tail.onset)]
            ranges, err = log_panel_integrals(lambda y: y ** k * law.density(y), edges)
            partial, tail_lo, err = 2.0 * float(ranges[0]), 2.0 * float(ranges[1]), 2.0 * err
            tail_hi = tail_lo + 2.0 * law.tail.weighted_tail_upper(float(k), edges[2])
        truncation = f"integral over 1 < |y| <= {cutoff:g}"

    if converges is None:
        return verdict(Status.INCONCLUSIVE, partial, truncation + "; unknown tail", err=err)
    status = Status.CONVERGES if converges else Status.DIVERGES
    return verdict(status, partial, truncation, (tail_lo, tail_hi), err=err)

