"""Monte Carlo corroboration: walks, Poissonized paths, sojourn times.

Everything here is diagnostic. Sojourn growth rates and resistance-style
hints never feed the analytic classification; they corroborate it.

Reproducibility contract: the stream for replica r of a run seeded with s
is ``numpy.random.default_rng(numpy.random.SeedSequence([s, r]))``, and
aggregation visits replicas in index order, so identical (law, horizon,
replicas, seed) inputs reproduce identical statistics bit for bit on one
platform. Within a replica the draw order is fixed and documented in each
sampler.

Heavy tails are sampled exactly: magnitudes up to a table cutoff by
binary search over cumulative masses, and beyond it by inverse-CDF
bisection on Hurwitz-zeta tail sums per power component (the tail is
never truncated; only draws beyond the bisection cap are clamped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import zeta as _zeta

from .measures import (
    DomainError,
    Normalization,
    SymmetricJumpLaw,
    multi_index_total,
)
from .powerint import strided_power_sum
from .verdicts import Basis, ConvergenceVerdict, Status, enclosure

__all__ = [
    "LatticeSampler",
    "PathSummary",
    "sample_walk",
    "PoissonPathSummary",
    "poissonize",
    "TrajectoryStats",
    "sojourn_estimate",
    "even_chain_sample",
    "even_chain_batch",
    "even_chain_criterion",
    "SimulationCapError",
]

TABLE_SIZE = 10 ** 6
# tail bisection cap on the class index j; draws beyond it are clamped to it.
# P(beyond) per draw is about 2 C 2^(-52 alpha) / alpha, i.e. 1e-8 at alpha=0.5
_J_CAP = float(1 << 52)


class SimulationCapError(RuntimeError):
    """A hard step cap was hit before the stopping condition."""


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """The documented stream-derivation rule for replica substreams."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replica)]))


class LatticeSampler:
    """Exact sampler for the magnitude/sign of lattice jumps.

    Magnitudes up to ``table_size``, or up to the law's last tabulated lag
    when that lies further out, are drawn by binary search over the
    cumulative one-sided masses; the remaining tail is split across the
    law's power components and inverted by bisection on Hurwitz-zeta tail
    sums, so no truncation bias enters below the cap: a tail draw whose
    class index j would exceed ``_J_CAP`` = 2^52 is clamped to it (about
    1e-8 of the draws at alpha=0.5). Signs are independent Rademacher
    draws (the law is symmetric).
    """

    def __init__(self, law: SymmetricJumpLaw, table_size: int = TABLE_SIZE):
        if not law.is_lattice:
            raise DomainError("sampler needs a lattice law")
        if law.normalization is not Normalization.PROBABILITY:
            raise DomainError("sampler needs a probability law")
        self.law = law
        sup = law.support
        n_top = max(table_size, sup.top) if sup.components else sup.top
        self.n_top = n_top
        lags = np.arange(1, n_top + 1)
        one_sided = np.asarray(law.mass(lags), dtype=float)
        self.origin_mass = sup.origin_mass
        self.cum = self.origin_mass + 2.0 * np.cumsum(one_sided)
        self.tail_comps = []
        tail_total = 0.0
        for c in sup.components:
            if not c.exact:
                raise DomainError("exact tail sampling needs exact power components")
            mass = 2.0 * c.weighted_tail_sum(0.0, n_top)[0]
            self.tail_comps.append((c, mass))
            tail_total += mass
        self.tail_total = tail_total
        total = self.cum[-1] + tail_total if n_top >= 1 else self.origin_mass + tail_total
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"sampler masses sum to {total}, not 1")
        self.total = total

    def _tail_magnitudes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty(count)
        masses = np.array([m for _, m in self.tail_comps])
        pick = rng.choice(len(self.tail_comps), size=count, p=masses / masses.sum())
        u = rng.random(count)
        for ci, (comp, _) in enumerate(self.tail_comps):
            sel = pick == ci
            if not np.any(sel):
                continue
            rho, stride, off = comp.exponent, comp.stride, comp.offset % comp.stride
            # class members are n = stride*j + off; tail over j >= j0 is
            # stride^-rho zeta(rho, j + off/stride), strictly decreasing in j
            if off == 0:
                j_start = math.floor(self.n_top / stride) + 1
            else:
                j_start = max(0, math.ceil((self.n_top + 1 - off) / stride))
            a0 = off / stride
            t_start = _zeta(rho, j_start + a0)
            target = u[sel] * t_start  # want smallest j with zeta(rho, j+1+a0) <= target
            lo = np.full(target.shape, float(j_start))
            hi = np.full(target.shape, float(j_start))
            t_hi = _zeta(rho, hi + 1.0 + a0)
            grow = (t_hi > target) & (hi < _J_CAP)
            while np.any(grow):
                hi = np.where(grow, np.minimum(hi * 4.0 + 4.0, _J_CAP), hi)
                t_hi = _zeta(rho, hi + 1.0 + a0)
                grow = (t_hi > target) & (hi < _J_CAP)
            for _ in range(64):
                mid = np.floor((lo + hi) / 2.0)
                gt = _zeta(rho, mid + 1.0 + a0) > target
                lo = np.where(gt, mid + 1.0, lo)
                hi = np.where(gt, hi, mid)
                if np.all(lo >= hi):
                    break
            out[sel] = stride * hi + off
        return out

    def sample_lags(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Signed jump lags (index units) as float64 integers.

        Draw order per call: one uniform batch for magnitudes (plus tail
        bisections where needed), then one uniform batch for signs.
        """
        u = rng.random(size) * self.total
        mag = np.empty(size)
        in_origin = u < self.origin_mass
        in_table = (~in_origin) & (u < self.cum[-1] if self.n_top >= 1 else False)
        mag[in_origin] = 0.0
        if np.any(in_table):
            mag[in_table] = np.searchsorted(self.cum, u[in_table], side="right") + 1.0
        in_tail = ~(in_origin | in_table)
        n_tail = int(np.count_nonzero(in_tail))
        if n_tail:
            if not self.tail_comps:
                mag[in_tail] = float(self.n_top)  # cannot happen when sums check out
            else:
                mag[in_tail] = self._tail_magnitudes(rng, n_tail)
        signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return signs * mag


# ---------------------------------------------------------------------------
# path summaries


@dataclass(frozen=True)
class PathSummary:
    """Streaming statistics of one sampled walk (no path retention)."""

    steps: int
    seed: int
    replica: int
    window: float
    final_position: float
    max_excursion: float
    time_in_window: int
    returns_to_window: int


def _window_stats(positions_before: np.ndarray, window: float):
    """Counts over the positions S_0 .. S_{n-1} (before each step lands)."""
    inside = np.abs(positions_before) < window
    time_in = int(np.count_nonzero(inside))
    entered = inside[1:] & ~inside[:-1]
    return time_in, int(np.count_nonzero(entered))


def sample_walk(
    law: SymmetricJumpLaw,
    steps: int,
    seed: int,
    *,
    window: float = 1.0,
    replica: int = 0,
    sampler: Optional[LatticeSampler] = None,
) -> PathSummary:
    """Simulate S_n = J_1 + ... + J_n and return streaming statistics.

    ``time_in_window`` counts the positions S_0, ..., S_{steps-1} with
    |S_k| < window (so a horizon of n contributes at most n time units and
    S_0 = 0 always counts).
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    smp = sampler or LatticeSampler(law)
    rng = replica_rng(seed, replica)
    delta = law.spacing
    jumps = smp.sample_lags(rng, steps) * delta if steps else np.zeros(0)
    path = np.concatenate([[0.0], np.cumsum(jumps)])
    time_in, returns = _window_stats(path[:steps], window)  # S_0 .. S_{steps-1}
    return PathSummary(
        steps=steps,
        seed=seed,
        replica=replica,
        window=window,
        final_position=float(path[-1]),
        max_excursion=float(np.max(np.abs(path))),
        time_in_window=time_in,
        returns_to_window=returns,
    )


@dataclass(frozen=True)
class PoissonPathSummary:
    """Time-weighted statistics of a Poissonized (compound Poisson) path."""

    rate: float
    horizon: float
    seed: int
    replica: int
    window: float
    jump_count: int
    final_position: float
    max_excursion: float
    time_in_window: float


def poissonize(
    law: SymmetricJumpLaw,
    rate: float,
    horizon: float,
    seed: int,
    *,
    window: float = 1.0,
    replica: int = 0,
    sampler: Optional[LatticeSampler] = None,
) -> PoissonPathSummary:
    """Run the walk at an independent Poisson clock of the given rate.

    Jump epochs are order statistics of uniforms on [0, horizon] (one
    Poisson count draw, one uniform batch, then the walk sampler), and the
    sojourn statistic weights each holding interval by its duration.
    """
    if rate <= 0:
        raise DomainError("rate must be positive")
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    smp = sampler or LatticeSampler(law)
    rng = replica_rng(seed, replica)
    if horizon == 0:
        return PoissonPathSummary(
            rate=rate, horizon=0.0, seed=seed, replica=replica, window=window,
            jump_count=0, final_position=0.0, max_excursion=0.0, time_in_window=0.0,
        )
    count = int(rng.poisson(rate * horizon))
    epochs = np.sort(rng.random(count)) * horizon
    jumps = smp.sample_lags(rng, count) * law.spacing
    positions = np.concatenate([[0.0], np.cumsum(jumps)])
    durations = np.diff(np.concatenate([[0.0], epochs, [horizon]]))
    inside = np.abs(positions) < window
    return PoissonPathSummary(
        rate=rate,
        horizon=horizon,
        seed=seed,
        replica=replica,
        window=window,
        jump_count=count,
        final_position=float(positions[-1]),
        max_excursion=float(np.max(np.abs(positions))),
        time_in_window=float(np.sum(durations[inside])),
    )


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
        return {
            "sojourn_estimate": self.sojourn_estimate,
            "window": self.window,
            "horizon": self.horizon,
            "replicas": self.replicas,
            "seed": self.seed,
            "max_excursion": self.max_excursion,
            "returns_to_window": self.returns_to_window,
            "doubled_estimate": self.doubled_estimate,
            "growth_ratio": self.growth_ratio,
            "growth_se": self.growth_se,
            "leaning": self.leaning,
        }


GROWTH_FLAT = 1.15
GROWTH_STEEP = 1.3
#: largest sojourn horizon (each replica holds a few arrays of 2 * horizon)
MAX_SOJOURN_HORIZON = 10 ** 6
#: largest horizon * replicas of one sojourn estimate
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
    if window <= 0:
        raise DomainError("window must be positive")
    if horizon < 1 or replicas < 1:
        raise DomainError("horizon and replicas must be positive")
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
    for r in range(replicas):
        rng = replica_rng(seed, r)
        jumps = smp.sample_lags(rng, 2 * horizon) * delta
        path = np.concatenate([[0.0], np.cumsum(jumps)])
        before = path[:-1]
        inside = np.abs(before) < window
        base[r] = 1 + int(np.count_nonzero(inside[1:horizon]))
        doubled[r] = 1 + int(np.count_nonzero(inside[1:]))
        exc = float(np.max(np.abs(path[: horizon + 1])))
        max_exc = max(max_exc, exc)
        entered = inside[1:horizon] & ~inside[: horizon - 1]
        rets = int(np.count_nonzero(entered))
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
    if ratio < GROWTH_FLAT:
        leaning = "transient-leaning"
    elif ratio > GROWTH_STEEP:
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

    Works in index units (positions are integers). All chains advance in
    vectorized rounds from one stream; a chain stops as soon as its
    position is even. The stopping time is a.s. finite for any law giving
    its jumps a positive odd-parity probability (and is 1 when all jumps
    are even), but a hard step cap guards the worst case.
    """
    if not law.is_lattice:
        raise DomainError("even chain requires a lattice law")
    smp = LatticeSampler(law)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    pos = np.zeros(n_samples, dtype=np.int64)
    out = np.zeros(n_samples, dtype=np.int64)
    active = np.ones(n_samples, dtype=bool)
    rounds = 0
    while np.any(active):
        if rounds >= step_cap:
            raise SimulationCapError(
                f"{int(active.sum())} chains still active after {rounds} steps"
            )
        k = int(np.count_nonzero(active))
        lags = smp.sample_lags(rng, k)
        pos[active] += lags.astype(np.int64)
        newly_even = active.copy()
        newly_even[active] = pos[active] % 2 == 0
        out[newly_even] = pos[newly_even]
        active &= ~newly_even
        rounds += 1
    return out


def even_chain_sample(law: SymmetricJumpLaw, seed: int, step_cap: int = 10 ** 9) -> int:
    """One draw of the even chain's first state X_1 (an even integer)."""
    return int(even_chain_batch(law, 1, seed, step_cap=step_cap)[0])


def even_chain_criterion(alpha: float, beta: float) -> ConvergenceVerdict:
    """Transience bound for the two-index walk through its even chain.

    The chain observed on 2Z satisfies P(X_1 = 2n) >= c^-1 (2n)^-(alpha+1)
    with c the raw two-index total mass, so the even-lattice series is
    dominated by ``c sum (2n)^(alpha-2) = c 2^(alpha-2) zeta(2-alpha)``:
    summable iff alpha < 1, in which case the even chain (hence the
    original walk, which shares its return-to-zero behaviour) is
    transient. The bound is one-sided, so alpha >= 1 yields Inconclusive.
    The verdict's value is the bound series' exact value (inf for
    alpha >= 1), with no truncated head.
    """
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must be positive")
    bound = multi_index_total(alpha, beta) * 2.0 ** (alpha - 2.0) * strided_power_sum(
        2.0 - alpha, 1, 0, 1
    )
    converges = alpha < 1.0
    return ConvergenceVerdict(
        status=Status.CONVERGES if converges else Status.INCONCLUSIVE,
        partial_value=0.0,
        value=enclosure(0.0, bound, bound),
        truncation="bound series c 2^(alpha-2) zeta(2-alpha)",
        basis=Basis.ANALYTIC_TAIL,
        note="even-chain series converges; walk transient" if converges else
        "lower bound on P(X_1) is one-sided; no conclusion for alpha >= 1",
    )
