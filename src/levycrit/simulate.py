"""Monte Carlo corroboration: sojourn times and the even chain.

Everything here is diagnostic. Sojourn growth rates and resistance-style
hints never feed the analytic classification; they corroborate it.

Reproducibility contract: the stream for replica r of a run seeded with s
is ``numpy.random.default_rng(numpy.random.SeedSequence([s, r]))``, and
aggregation visits replicas in index order, so identical (law, horizon,
replicas, seed) inputs reproduce identical statistics bit for bit on one
platform. Within a replica the draw order is fixed and documented in each
sampler.

Heavy tails are sampled exactly: magnitudes up to a table cutoff by a
guide-table lookup over the cumulative masses (a binary search settles
the draws its bucket leaves open), and beyond it by inverse-CDF search on
Hurwitz-zeta tail sums per power component, started from the closed-form
asymptotic inverse and bisected only where that misses (the tail is never
truncated; only draws beyond the bisection cap are clamped). Every draw
count of one call is capped at ``MAX_SOJOURN_STEPS``, checked before any
allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .measures import (
    DomainError,
    Normalization,
    SymmetricJumpLaw,
    multi_index_total,
)
from .powerint import hurwitz_zeta, strided_power_sum
from .tails import require_integer, require_positive
from .verdicts import ConvergenceVerdict, Status, verdict

__all__ = [
    "LatticeSampler",
    "TrajectoryStats",
    "sojourn_estimate",
    "even_chain_batch",
    "even_chain_criterion",
    "SimulationCapError",
]

#: most lags the sampler tabulates by default, and the largest ``table_size``
#: it takes (refused before any allocation): its cumulative float64 table
#: then holds at most 8 MB
SAMPLER_TABLE_SIZE = 10 ** 6
# tail bisection cap on the class index j; draws beyond it are clamped to it.
# P(beyond) per draw is about 2 C 2^(-52 alpha) / alpha, i.e. 1e-8 at alpha=0.5
_J_CAP = float(1 << 52)
# buckets of the guide table over the cumulative masses
_GUIDE_BUCKETS = 1 << 14


class SimulationCapError(RuntimeError):
    """A hard step cap was hit before the stopping condition."""


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """The documented stream-derivation rule for replica substreams; the seed
    and the replica are nonnegative integers."""
    return np.random.default_rng(np.random.SeedSequence(
        [require_integer("seed", seed, 0, math.inf),
         require_integer("replica", replica, 0, math.inf)]))


class LatticeSampler:
    """Exact sampler for the magnitude/sign of lattice jumps.

    Magnitudes up to ``table_size``, or up to the law's last tabulated lag
    when that lies further out, are inverted on the cumulative one-sided
    masses through a guide table (Chen & Asau 1974; Devroye 1986,
    sec. III.2.4). It splits the table's mass into equal buckets and holds
    one sure magnitude per bucket index: the one magnitude of every draw
    between the edges one bucket either side of it, or -1 where they
    differ. Most draws take it; the rest fall back to a binary search over
    the whole table, so every magnitude is the one that search gives, as
    long as a draw's float bucket index misses its true bucket by at most
    one. The remaining tail is split across the law's power components and
    inverted on Hurwitz-zeta tail sums (see :func:`_invert_hurwitz_tail`),
    so no truncation bias enters below the cap: a tail draw whose class
    index j would exceed ``_J_CAP`` = 2^52 is clamped to it (about 1e-8 of
    the draws at alpha=0.5). Signs are independent Rademacher draws (the
    law is symmetric).
    """

    def __init__(self, law: SymmetricJumpLaw, table_size: int = SAMPLER_TABLE_SIZE):
        if not law.is_lattice:
            raise DomainError("sampler needs a lattice law")
        if law.normalization is not Normalization.PROBABILITY:
            raise DomainError("sampler needs a probability law")
        table_size = require_integer("table_size", table_size, 0, SAMPLER_TABLE_SIZE)
        sup = law.support
        if not all(c.exact for c in sup.components):
            raise DomainError("exact tail sampling needs exact power components")
        self.law = law
        n_top = max(table_size, sup.top) if sup.components else sup.top
        self.n_top = n_top
        self.origin_mass = sup.origin_mass
        self.cum = self.origin_mass + 2.0 * np.cumsum(law.masses(n_top))
        self.tail_comps = []
        self._tail_starts = []  # (j_start, a0, tail sum from j_start) per component
        tail_total = 0.0
        for c in sup.components:
            mass = 2.0 * c.weighted_tail_sum(0.0, n_top)[0]
            self.tail_comps.append((c, mass))
            tail_total += mass
            # class members are n = stride*j + off; the tail over j >= j_start
            # is stride^-rho zeta(rho, j + off/stride), strictly decreasing in j
            stride, off = c.stride, c.offset % c.stride
            if off == 0:
                j_start = math.floor(n_top / stride) + 1
            else:
                j_start = max(0, math.ceil((n_top + 1 - off) / stride))
            a0 = off / stride
            self._tail_starts.append((j_start, a0, hurwitz_zeta(c.exponent, j_start + a0)))
        self.tail_total = tail_total
        # which component a tail draw takes: the cumulative shares, as
        # rng.choice(p=shares) builds them, so the draws are the same
        if self.tail_comps:
            masses = np.array([m for _, m in self.tail_comps])
            self._tail_cdf = (masses / masses.sum()).cumsum()
            self._tail_cdf /= self._tail_cdf[-1]
        self.table_mass = self.cum[-1] if n_top >= 1 else self.origin_mass
        total = self.table_mass + tail_total
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"sampler masses sum to {total}, not 1")
        self.total = total
        # edge g sits at table_mass * g / G. The float index of a draw is
        # assumed to miss its true bucket by at most one, so a draw of index
        # b lies between edges b - 1 and b + 2, and its magnitude, monotone
        # in the draw, is sure when it is the same at both. -1 marks the
        # rest, the last bucket always (it also takes every draw past the
        # table), and every bucket of a table without mass
        top, g = self.table_mass, np.arange(_GUIDE_BUCKETS)
        self._bucket_scale = _GUIDE_BUCKETS / top if top > 0.0 else 0.0
        edges = np.arange(_GUIDE_BUCKETS + 1) * (top / _GUIDE_BUCKETS)
        mag = np.searchsorted(self.cum, edges, side="right") + 1.0
        mag[edges < self.origin_mass] = 0.0
        lo, hi = mag[np.maximum(g - 1, 0)], mag[np.minimum(g + 2, _GUIDE_BUCKETS)]
        self._sure = np.where((lo == hi) & (g < _GUIDE_BUCKETS - 1) & (top > 0.0), lo, -1.0)

    def _tail_magnitudes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty(count)
        pick = self._tail_cdf.searchsorted(rng.random(count), side="right")
        u = rng.random(count)
        for ci, ((comp, _), (j_start, a0, start_sum)) in enumerate(
                zip(self.tail_comps, self._tail_starts)):
            sel = pick == ci
            if not np.any(sel):
                continue
            j = _invert_hurwitz_tail(comp.exponent, a0, j_start, u[sel] * start_sum)
            out[sel] = comp.stride * j + comp.offset % comp.stride
        return out

    def sample_lags(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Signed jump lags (index units) as float64 integers.

        Draw order per call: one uniform batch for magnitudes (plus tail
        inversions where needed), then one uniform batch for signs.
        """
        u = rng.random(size) * self.total
        mag = self._sure[np.minimum(u * self._bucket_scale, _GUIDE_BUCKETS - 1).astype(np.intp)]
        # the rest: 0 under the origin mass, else 1 + the count of cumulative
        # masses at or below u (the tail overwrites the draws past the table)
        unsure = np.flatnonzero(mag < 0.0)
        v = u[unsure]
        # searched in sorted order, where the binary search stays in cache
        order = np.argsort(v)
        found = np.empty(v.size)
        found[order] = np.searchsorted(self.cum, v[order], side="right") + 1.0
        mag[unsure] = np.where(v < self.origin_mass, 0.0, found)
        in_tail = unsure[v >= self.table_mass]
        if in_tail.size:
            mag[in_tail] = self._tail_magnitudes(rng, in_tail.size)
        # the sign of r - 0.5 is negative exactly when r < 0.5
        return np.copysign(mag, rng.random(size) - 0.5, out=mag)


def _invert_hurwitz_tail(rho: float, a0: float, j_start: int, target: np.ndarray) -> np.ndarray:
    """Smallest j in [j_start, _J_CAP] with zeta(rho, j + 1 + a0) <= target,
    and _J_CAP where there is none, zeta being :func:`hurwitz_zeta`.

    Each draw starts at the inverse of zeta(rho, q) ~ (q - 1/2)^(1-rho) /
    (rho - 1), checked by the predicate at the guess and one below it; only
    the misses are bisected, over [j_start, guess - 1] or [guess + 1,
    _J_CAP]. The predicate is monotone in j because zeta(rho, .) does not
    increase on the float grid (its values tie above about 1e14). A draw
    depends on zeta's last bit wherever the target falls between two
    neighbouring values, so the draws are those of this one zeta: at
    rho = 1.05 about 0.6 % of them, all past lag 1e11, differ from the
    draws that scipy's zeta gives.
    """

    def fits(j, t):
        return hurwitz_zeta(rho, j + 1.0 + a0) <= t

    # the power overflows to inf (and a zero target divides by zero) far
    # past the cap, which the clip then takes
    with np.errstate(over="ignore", divide="ignore"):
        guess = np.ceil(((rho - 1.0) * target) ** (-1.0 / (rho - 1.0)) - 0.5 - a0)
    j = np.clip(guess, float(j_start), _J_CAP)
    # the guess and the lag below it in one zeta call
    hit, below = np.split(fits(np.concatenate([j, j - 1.0]), np.tile(target, 2)), 2)
    too_high = np.flatnonzero(hit & below & (j > j_start))
    lo = np.where(hit, j, np.minimum(j + 1.0, _J_CAP))
    hi = np.where(hit, j, _J_CAP)
    lo[too_high] = j_start
    hi[too_high] -= 1.0
    miss = np.flatnonzero(lo < hi)
    if miss.size:
        lo, mhi, t = lo[miss], hi[miss], target[miss]
        for _ in range(64):
            mid = np.floor((lo + mhi) / 2.0)
            gt = ~fits(mid, t)
            lo = np.where(gt, mid + 1.0, lo)
            mhi = np.where(gt, mhi, mid)
            if np.all(lo >= mhi):
                break
        hi[miss] = mhi
    return hi


# ---------------------------------------------------------------------------
# sojourn estimation


@dataclass(frozen=True)
class TrajectoryStats:
    """Replica-averaged sojourn statistics with a doubling-horizon diagnostic.

    ``growth_ratio`` compares the sojourn count at 2*horizon against that
    at horizon on the same replica paths (common random numbers);
    ``growth_se`` is its delta-method standard error. ``leaning`` is a
    diagnostic label only and never feeds the analytic classification.
    """

    sojourn_estimate: float
    window: float
    horizon: int
    replicas: int
    seed: int
    max_excursion: float
    returns_to_window: int
    doubled_estimate: float
    growth_ratio: float
    growth_se: float
    leaning: str
    replica_rows: tuple = ()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "replica_rows"}


SOJOURN_GROWTH_FLAT = 1.15
SOJOURN_GROWTH_STEEP = 1.3
#: largest sojourn horizon (each replica holds a few arrays of 2 * horizon)
MAX_SOJOURN_HORIZON = 10 ** 6
#: largest draw count of one call: horizon * replicas of a sojourn estimate
#: and the chains of :func:`even_chain_batch`
MAX_SOJOURN_STEPS = 10 ** 7


def sojourn_estimate(
    law: SymmetricJumpLaw,
    window: float,
    horizon: int,
    replicas: int,
    seed: int,
    *,
    keep_replicas: bool = False,
) -> TrajectoryStats:
    """Mean discrete sojourn time in (-window, window) across replicas.

    Each replica simulates 2*horizon steps once; the base-horizon count
    uses the first half, the doubling diagnostic the whole path. Bounded
    growth (ratio near 1) leans transient, growth like a power of the
    horizon leans recurrent.
    """
    require_positive("window", window)
    horizon = require_integer("horizon", horizon, 1, math.inf)
    replicas = require_integer("replicas", replicas, 1, math.inf)
    seed = require_integer("seed", seed, 0, math.inf)
    if horizon > MAX_SOJOURN_HORIZON or horizon * replicas > MAX_SOJOURN_STEPS:
        raise DomainError(
            f"horizon {horizon} x {replicas} replicas exceeds the caps: horizon <= "
            f"{MAX_SOJOURN_HORIZON}, horizon * replicas <= {MAX_SOJOURN_STEPS}"
        )
    smp = LatticeSampler(law)
    delta = law.spacing
    base = np.empty(replicas)
    doubled = np.empty(replicas)
    max_exc = 0.0
    returns_total = 0
    rows = []
    # inside[k] is |S_k| < window for the positions S_0 .. S_{2 horizon - 1}
    inside = np.empty(2 * horizon, dtype=bool)
    inside[0] = True
    for r in range(replicas):
        rng = replica_rng(seed, r)
        path = smp.sample_lags(rng, 2 * horizon)
        path *= delta
        np.cumsum(path, out=path)
        np.abs(path, out=path)  # |S_1| .. |S_{2 horizon}|
        np.less(path[:-1], window, out=inside[1:])
        base[r] = np.count_nonzero(inside[:horizon])
        doubled[r] = base[r] + np.count_nonzero(inside[horizon:])
        exc = float(np.max(path[:horizon]))
        max_exc = max(max_exc, exc)
        rets = int(np.count_nonzero(inside[1:horizon] > inside[: horizon - 1]))  # entries
        returns_total += rets
        if keep_replicas:
            rows.append(
                {"replica": r, "sojourn": int(base[r]), "max_excursion": exc, "returns": rets}
            )

    m1, m2 = float(base.mean()), float(doubled.mean())
    ratio = m2 / m1
    if replicas >= 2:
        cov = np.cov(base, doubled)
        var = (
            cov[0, 0] / m1 ** 2 + cov[1, 1] / m2 ** 2 - 2.0 * cov[0, 1] / (m1 * m2)
        )
        se = ratio * math.sqrt(max(var, 0.0) / replicas)
    else:
        se = math.inf
    if ratio < SOJOURN_GROWTH_FLAT:
        leaning = "transient-leaning"
    elif ratio > SOJOURN_GROWTH_STEEP:
        leaning = "recurrent-leaning"
    else:
        leaning = "inconclusive"
    return TrajectoryStats(
        sojourn_estimate=m1,
        window=window,
        horizon=horizon,
        replicas=replicas,
        seed=seed,
        max_excursion=max_exc,
        returns_to_window=returns_total,
        doubled_estimate=m2,
        growth_ratio=ratio,
        growth_se=se,
        leaning=leaning,
        replica_rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# the even chain


def even_chain_batch(
    law: SymmetricJumpLaw,
    n_samples: int,
    seed: int,
    step_cap: int = 10 ** 9,
) -> np.ndarray:
    """Sample X_1 = S_{T_1}, the walk at its first visit to the even lattice.

    Works in index units (positions are integers). The chains advance in
    vectorized rounds from one stream, each round drawing one lag for
    every chain still active, in index order; a chain stops as soon as its
    position is even. The stopping time is a.s. finite for any law giving
    its jumps a positive odd-parity probability (and is 1 when all jumps
    are even), but a hard step cap guards the worst case.
    """
    if not law.is_lattice:
        raise DomainError("even chain requires a lattice law")
    n_samples = require_integer("n_samples", n_samples, 0, math.inf)
    if n_samples > MAX_SOJOURN_STEPS:
        raise DomainError(f"n_samples = {n_samples} exceeds the draw cap {MAX_SOJOURN_STEPS}")
    seed = require_integer("seed", seed, 0, math.inf)
    step_cap = require_integer("step_cap", step_cap, 0, math.inf)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    smp = LatticeSampler(law)
    out = np.zeros(n_samples, dtype=np.int64)
    # the chains still active: their indices into out (int32 under the
    # draw cap), and their positions
    idx = np.arange(n_samples, dtype=np.int32)
    pos = np.zeros(n_samples, dtype=np.int64)
    rounds = 0
    while idx.size:
        if rounds >= step_cap:
            raise SimulationCapError(f"{idx.size} chains still active after {rounds} steps")
        pos += smp.sample_lags(rng, idx.size).astype(np.int64)
        even = pos % 2 == 0
        out[idx[even]] = pos[even]
        odd = ~even
        idx, pos = idx[odd], pos[odd]
        rounds += 1
    return out


def even_chain_criterion(alpha: float, beta: float) -> ConvergenceVerdict:
    """Transience bound for the two-index walk through its even chain.

    The chain observed on 2Z satisfies P(X_1 = 2n) >= c^-1 (2n)^-(alpha+1)
    with c the raw two-index total mass, so the even-lattice series is
    dominated by ``c sum (2n)^(alpha-2) = c 2^(alpha-2) zeta(2-alpha)``:
    summable iff alpha < 1, in which case the even chain (hence the
    original walk, which shares its return-to-zero behaviour) is
    transient. The bound is one-sided, so alpha >= 1 yields Inconclusive,
    on numerics alone, with value [0, inf]. A convergent verdict's value is
    the bound series' exact value, with no truncated head.
    """
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must be positive")
    truncation = "bound series c 2^(alpha-2) zeta(2-alpha)"
    if alpha >= 1.0:
        return verdict(Status.INCONCLUSIVE, 0.0, truncation,
                       note="lower bound on P(X_1) is one-sided; no conclusion for alpha >= 1")
    bound = multi_index_total(alpha, beta) * 2.0 ** (alpha - 2.0) * strided_power_sum(
        2.0 - alpha, 1, 0, 1
    )
    return verdict(Status.CONVERGES, 0.0, truncation, (bound, bound),
                   note="even-chain series converges; walk transient")
