import math
import signal
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from scipy.special import zeta

from levycrit import (
    DomainError,
    LatticeSampler,
    Status,
    TailDescriptor,
    TailKind,
    even_chain_batch,
    even_chain_criterion,
    even_chain_sample,
    make_lattice_table,
    make_multi_index_lattice,
    make_power_law_lattice,
    poissonize,
    sample_walk,
    sojourn_estimate,
)
from levycrit.measures import multi_index_total
from levycrit.simulate import replica_rng

SEED = 20260809


@pytest.fixture(scope="module")
def unit_step_law():
    return make_lattice_table({1: 0.5})


@pytest.fixture(scope="module")
def half_law_prob():
    return make_power_law_lattice(0.5, normalize=True)


class TestSampler:
    def test_requires_probability(self, power_half_raw):
        with pytest.raises(DomainError):
            LatticeSampler(power_half_raw)

    def test_sign_symmetry_gate(self, half_law_prob):
        smp = LatticeSampler(half_law_prob, table_size=10 ** 5)
        rng = replica_rng(SEED, 0)
        lags = smp.sample_lags(rng, 200_000)
        # signs are independent Rademacher: 3-sigma binomial gate
        pos = np.count_nonzero(lags > 0)
        n = np.count_nonzero(lags != 0)
        assert abs(pos - n / 2) <= 3.0 * math.sqrt(n / 4)

    def test_magnitude_distribution_gate(self, half_law_prob):
        smp = LatticeSampler(half_law_prob, table_size=10 ** 5)
        rng = replica_rng(SEED, 1)
        lags = np.abs(smp.sample_lags(rng, 400_000))
        c = half_law_prob.mass(1)
        for n in (1, 2, 5):
            p_true = 2.0 * c * n ** -1.5
            p_hat = np.count_nonzero(lags == n) / len(lags)
            se = math.sqrt(p_true * (1 - p_true) / len(lags))
            assert abs(p_hat - p_true) <= 4.0 * se

    def test_tail_sampler_beyond_table(self, half_law_prob):
        smp = LatticeSampler(half_law_prob, table_size=10 ** 4)
        rng = replica_rng(SEED, 2)
        lags = np.abs(smp.sample_lags(rng, 500_000))
        n_top = 10 ** 4
        p_tail = 2.0 * half_law_prob.mass(1) * float(zeta(1.5, n_top + 1))
        hits = np.count_nonzero(lags > n_top)
        se = math.sqrt(p_tail * (1 - p_tail) / len(lags))
        assert abs(hits / len(lags) - p_tail) <= 4.0 * se
        # conditional tail magnitudes follow the Hurwitz law: median check
        tail_lags = lags[lags > n_top]
        med_target = None
        lo, hi = n_top, 10 ** 8
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if zeta(1.5, mid + 1) > 0.5 * zeta(1.5, n_top + 1):
                lo = mid
            else:
                hi = mid
        med_target = lo
        frac_below = np.count_nonzero(tail_lags <= med_target) / len(tail_lags)
        assert abs(frac_below - 0.5) <= 4.0 * math.sqrt(0.25 / len(tail_lags))

    def test_table_past_the_sampler_table(self):
        # the law tabulates lags 1..10 past a sampler table of 3: the table
        # grows to hold them, and only the power tail past lag 10 is bisected
        tail_k = 0.1 / float(zeta(2.5, 11))
        law = make_lattice_table(
            {k: 0.04 for k in range(1, 11)},
            tail=TailDescriptor(TailKind.POWER_LAW, exponent=2.5, constant=tail_k, onset=11.0),
        )
        smp = LatticeSampler(law, table_size=3)
        assert smp.n_top == 10
        assert smp.cum[-1] == pytest.approx(0.8, rel=1e-15)
        assert smp.tail_total == pytest.approx(0.2, rel=1e-14)

    def test_tail_draw_beyond_cap_is_clamped(self, half_law_prob):
        # this batch holds a draw beyond the 2^52 bisection cap next to draws
        # below it; the alarm turns a regression into a failure, not a hang
        smp = LatticeSampler(half_law_prob)
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(60)
        try:
            lags = smp.sample_lags(replica_rng(12345, 730), 20000)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert np.all(np.isfinite(lags))
        assert np.max(np.abs(lags)) == 2.0 ** 52


def _raise_timeout(signum, frame):
    raise TimeoutError("tail bisection did not terminate")


class TestSampleWalk:
    def test_parity_conservation(self, unit_step_law):
        for replica in range(5):
            s = sample_walk(unit_step_law, 11, SEED, replica=replica)
            assert s.final_position % 2 == 1  # odd steps -> odd parity
            s = sample_walk(unit_step_law, 10, SEED, replica=replica)
            assert s.final_position % 2 == 0

    def test_zero_steps(self, unit_step_law):
        s = sample_walk(unit_step_law, 0, SEED)
        assert s.final_position == 0.0
        assert s.max_excursion == 0.0

    def test_mean_symmetric_gate(self, half_law_prob):
        smp = LatticeSampler(half_law_prob, table_size=10 ** 5)
        finals = []
        for r in range(200):
            s = sample_walk(half_law_prob, 10 ** 5, SEED, replica=r, sampler=smp)
            finals.append(s.final_position)
        finals = np.asarray(finals)
        # symmetric law: sign-flip invariance; use a sign-test gate (robust
        # to the heavy tails, unlike a CLT band on the mean)
        nonzero = finals[finals != 0]
        pos = np.count_nonzero(nonzero > 0)
        assert abs(pos - len(nonzero) / 2) <= 3.0 * math.sqrt(len(nonzero) / 4)

    def test_sojourn_bounded_by_horizon(self, unit_step_law):
        s = sample_walk(unit_step_law, 50, SEED, window=100.0)
        assert s.time_in_window == 50


class TestPoissonize:
    def test_jump_count_gate(self, unit_step_law):
        smp = LatticeSampler(unit_step_law)
        n_rep = 10 ** 4
        counts = [
            poissonize(unit_step_law, 1.0, 10.0, SEED, replica=r, sampler=smp).jump_count
            for r in range(n_rep)
        ]
        mean = float(np.mean(counts))
        se = math.sqrt(10.0 / n_rep)
        assert abs(mean - 10.0) <= 3.0 * se

    def test_zero_horizon(self, unit_step_law):
        p = poissonize(unit_step_law, 1.0, 0.0, SEED)
        assert p.time_in_window == 0.0
        assert p.jump_count == 0

    def test_time_weighting_against_replayed_draws(self, unit_step_law):
        # replay the documented draw order and rebuild the sojourn time by
        # an explicit holding-interval loop
        smp = LatticeSampler(unit_step_law)
        got = poissonize(unit_step_law, 2.0, 7.0, SEED, window=1.5, replica=3, sampler=smp)
        rng = replica_rng(SEED, 3)
        count = int(rng.poisson(2.0 * 7.0))
        epochs = np.sort(rng.random(count)) * 7.0
        jumps = smp.sample_lags(rng, count) * unit_step_law.spacing
        pos = 0.0
        prev = 0.0
        sojourn = 0.0
        for epoch, jump in zip(epochs, jumps):
            if abs(pos) < 1.5:
                sojourn += epoch - prev
            pos += jump
            prev = epoch
        if abs(pos) < 1.5:
            sojourn += 7.0 - prev
        assert got.jump_count == count
        assert got.time_in_window == pytest.approx(sojourn, rel=1e-12)
        assert got.final_position == pos

    def test_heavy_tail_sojourn_stabilizes(self, half_law_prob):
        # compound-Poisson view of the raw alpha=0.5 measure: rate is the
        # total mass, jumps are the normalized law; a transient process has
        # bounded sojourn, so doubling the horizon barely changes it
        rate = 2.0 * zeta(1.5, 1)
        smp = LatticeSampler(half_law_prob, table_size=10 ** 5)
        short, long_ = [], []
        for r in range(300):
            short.append(
                poissonize(half_law_prob, rate, 2000.0, SEED, window=5.0,
                           replica=r, sampler=smp).time_in_window
            )
            long_.append(
                poissonize(half_law_prob, rate, 4000.0, SEED + 1, window=5.0,
                           replica=r, sampler=smp).time_in_window
            )
        m_short, m_long = float(np.mean(short)), float(np.mean(long_))
        se = math.sqrt(np.var(long_, ddof=1) / len(long_) + np.var(short, ddof=1) / len(short))
        assert m_long / m_short < 1.2 or m_long - m_short <= 3.0 * se

    def test_subordination_consistency(self, half_law_prob):
        # discrete sojourn at horizon n vs rate-1 Poissonized sojourn at
        # time n, 3-sigma gate over >= 1e3 replicas
        smp = LatticeSampler(half_law_prob, table_size=10 ** 5)
        horizon = 400
        disc = []
        cont = []
        for r in range(1200):
            s = sample_walk(half_law_prob, horizon, SEED, window=5.0, replica=r, sampler=smp)
            disc.append(s.time_in_window)
            p = poissonize(
                half_law_prob, 1.0, float(horizon), SEED + 1, window=5.0, replica=r,
                sampler=smp,
            )
            cont.append(p.time_in_window)
        disc = np.asarray(disc, dtype=float)
        cont = np.asarray(cont, dtype=float)
        diff = disc.mean() - cont.mean()
        se = math.sqrt(disc.var(ddof=1) / len(disc) + cont.var(ddof=1) / len(cont))
        assert abs(diff) <= 3.0 * se


class TestSojournEstimate:
    def test_bitwise_determinism(self, half_law_prob):
        a = sojourn_estimate(half_law_prob, 5.0, 2000, 50, SEED)
        b = sojourn_estimate(half_law_prob, 5.0, 2000, 50, SEED)
        assert a == b

    @pytest.mark.parametrize("horizon_extra, replicas", [(1, 1), (0, 11), (10 ** 9, 10 ** 6)])
    def test_caps_checked_before_allocating(self, unit_step_law, monkeypatch,
                                            horizon_extra, replicas):
        # the sampler table is the first allocation; the caps reject the run
        # before it, and the last case could not be allocated at all
        from levycrit import simulate

        def tripwire(*args, **kwargs):
            raise AssertionError("sampler built before the caps were checked")

        monkeypatch.setattr(simulate, "LatticeSampler", tripwire)
        horizon = simulate.MAX_SOJOURN_HORIZON + horizon_extra
        with pytest.raises(DomainError, match="caps"):
            sojourn_estimate(unit_step_law, 5.0, horizon, replicas, SEED)

    def test_estimate_bounded_by_horizon(self, unit_step_law):
        stats = sojourn_estimate(unit_step_law, 3.0, 500, 20, SEED)
        assert stats.sojourn_estimate <= 500

    def test_huge_window_absorbs_everything(self, half_law_prob):
        stats = sojourn_estimate(half_law_prob, 1e30, 300, 10, SEED)
        assert stats.sojourn_estimate == 300.0
        assert stats.growth_ratio == pytest.approx(2.0)

    def test_replica_rows_optional(self, half_law_prob):
        stats = sojourn_estimate(half_law_prob, 5.0, 200, 8, SEED, keep_replicas=True)
        assert len(stats.replica_rows) == 8
        assert all(r["sojourn"] <= 200 for r in stats.replica_rows)


class TestEvenChain:
    def test_even_support(self, half_law_prob):
        xs = even_chain_batch(half_law_prob, 5000, SEED)
        assert np.all(xs % 2 == 0)

    def test_all_even_jumps_one_step(self):
        law = make_lattice_table({2: 0.5})
        xs = even_chain_batch(law, 2000, SEED)
        assert set(np.unique(xs)) == {-2, 2}

    def test_unit_step_two_step_tree(self, unit_step_law):
        # brute-force oracle over the two-step outcome tree:
        # S_1 odd always, S_2 in {0, +-2} with P(0) = 1/2, P(+-2) = 1/4
        probs = {}
        for j1, j2 in product((-1, 1), repeat=2):
            probs[j1 + j2] = probs.get(j1 + j2, 0.0) + 0.25
        xs = even_chain_batch(unit_step_law, 400_000, SEED)
        for value, p_true in probs.items():
            p_hat = np.count_nonzero(xs == value) / len(xs)
            se = math.sqrt(p_true * (1 - p_true) / len(xs))
            assert abs(p_hat - p_true) <= 4.0 * se

    def test_single_sample_api(self, unit_step_law):
        x = even_chain_sample(unit_step_law, SEED)
        assert x % 2 == 0

    def test_step_cap_raises(self, unit_step_law):
        from levycrit import SimulationCapError

        with pytest.raises(SimulationCapError):
            even_chain_batch(unit_step_law, 100, SEED, step_cap=1)


class TestEvenChainCriterion:
    def test_transient_case(self):
        v = even_chain_criterion(0.5, 1.5)
        assert v.status is Status.CONVERGES

    def test_boundary_inconclusive(self):
        assert even_chain_criterion(1.0, 1.5).status is Status.INCONCLUSIVE

    def test_partial_matches_direct_summation(self):
        v = even_chain_criterion(0.25, 3.0)
        c = multi_index_total(0.25, 3.0)
        n = np.arange(1, 10 ** 6 + 1, dtype=float)
        oracle_partial = c * float(np.sum((2 * n) ** (0.25 - 2.0)))
        # the value is the whole bound series; bracket its tail by integrals
        tail_lo = c * 2 ** -1.75 * (10 ** 6 + 1) ** -0.75 / 0.75
        tail_hi = c * 2 ** -1.75 * (10 ** 6) ** -0.75 / 0.75
        assert oracle_partial + tail_lo <= v.value.lo <= v.value.hi <= oracle_partial + tail_hi

    @pytest.mark.parametrize("alpha, beta", [(0.25, 3.0), (0.5, 1.5), (0.9, 0.3)])
    def test_value_matches_mpmath(self, alpha, beta):
        # c sum (2n)^(alpha-2) = c 2^(alpha-2) zeta(2-alpha)
        v = even_chain_criterion(alpha, beta)
        with mp.workdps(30):
            ref = float(multi_index_total(alpha, beta) * mp.mpf(2) ** (alpha - 2) * mp.zeta(2 - alpha))
        assert v.value_interval == pytest.approx((ref, ref), rel=1e-14)


class TestMultiIndexEvenChainBound:
    def test_empirical_lower_bound_holds(self):
        # P(X_1 = 2i) >= c^-1 (2i)^-(alpha+1) within 3 sigma, i <= 10
        alpha, beta = 0.5, 1.5
        law = make_multi_index_lattice(alpha, beta, normalize=True)
        n_samples = 200_000
        xs = even_chain_batch(law, n_samples, SEED)
        c = multi_index_total(alpha, beta)
        for i in range(1, 11):
            bound = (2 * i) ** -(alpha + 1.0) / c
            p_hat = np.count_nonzero(xs == 2 * i) / n_samples
            se = math.sqrt(max(p_hat, 1e-12) * (1 - p_hat) / n_samples)
            assert p_hat >= bound - 3.0 * se
