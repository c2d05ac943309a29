import hashlib
import json
import math
import signal
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from scipy.special import zeta

from levycrit import (
    Basis,
    DomainError,
    LatticeSampler,
    Status,
    TailDescriptor,
    TailKind,
    even_chain_batch,
    even_chain_criterion,
    make_lattice_table,
    make_multi_index_lattice,
    make_power_law_lattice,
    sojourn_estimate,
)
from levycrit.measures import multi_index_total
from levycrit.powerint import hurwitz_zeta
from levycrit.simulate import (
    MAX_SOJOURN_STEPS,
    SAMPLER_TABLE_SIZE,
    _invert_hurwitz_tail,
    replica_rng,
)

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


# ---------------------------------------------------------------------------
# reference sampler and even chain: the plain binary search over the whole
# table, the tail bracket grown from the table's end and then bisected, and
# the masked even-chain loop; the fast paths must reproduce them bit for bit.
# Both search the package's own hurwitz_zeta: a second zeta, one ulp off on
# some points, would give different draws where zeta's values tie on the grid

_J_CAP = float(1 << 52)


def _reference_tail_index(rho, a0, j_start, target):
    """Smallest j in [j_start, 2^52] with zeta(rho, j + 1 + a0) <= target (2^52 if none)."""
    lo = np.full(target.shape, float(j_start))
    hi = np.full(target.shape, float(j_start))
    t_hi = hurwitz_zeta(rho, hi + 1.0 + a0)
    grow = (t_hi > target) & (hi < _J_CAP)
    while np.any(grow):
        hi = np.where(grow, np.minimum(hi * 4.0 + 4.0, _J_CAP), hi)
        t_hi = hurwitz_zeta(rho, hi + 1.0 + a0)
        grow = (t_hi > target) & (hi < _J_CAP)
    for _ in range(64):
        mid = np.floor((lo + hi) / 2.0)
        gt = hurwitz_zeta(rho, mid + 1.0 + a0) > target
        lo = np.where(gt, mid + 1.0, lo)
        hi = np.where(gt, hi, mid)
        if np.all(lo >= hi):
            break
    return hi


def _reference_sample_lags(smp, rng, size):
    """``smp.sample_lags`` with the same draws, by binary search and bisection."""
    u = rng.random(size) * smp.total
    mag = np.empty(size)
    in_origin = u < smp.origin_mass
    in_table = (~in_origin) & (u < smp.cum[-1] if smp.n_top >= 1 else False)
    mag[in_origin] = 0.0
    if np.any(in_table):
        mag[in_table] = np.searchsorted(smp.cum, u[in_table], side="right") + 1.0
    in_tail = ~(in_origin | in_table)
    n_tail = int(np.count_nonzero(in_tail))
    if n_tail:
        masses = np.array([m for _, m in smp.tail_comps])
        pick = rng.choice(len(masses), size=n_tail, p=masses / masses.sum())
        v = rng.random(n_tail)
        tail = np.empty(n_tail)
        for ci, (comp, _) in enumerate(smp.tail_comps):
            sel = pick == ci
            if not np.any(sel):
                continue
            rho, stride, off = comp.exponent, comp.stride, comp.offset % comp.stride
            if off == 0:
                j_start = math.floor(smp.n_top / stride) + 1
            else:
                j_start = max(0, math.ceil((smp.n_top + 1 - off) / stride))
            a0 = off / stride
            target = v[sel] * hurwitz_zeta(rho, j_start + a0)
            tail[sel] = stride * _reference_tail_index(rho, a0, j_start, target) + off
        mag[in_tail] = tail
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return signs * mag


def _reference_even_chain(law, n_samples, seed):
    smp = LatticeSampler(law)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    pos = np.zeros(n_samples, dtype=np.int64)
    out = np.zeros(n_samples, dtype=np.int64)
    active = np.ones(n_samples, dtype=bool)
    while np.any(active):
        lags = smp.sample_lags(rng, int(np.count_nonzero(active)))
        pos[active] += lags.astype(np.int64)
        newly_even = active.copy()
        newly_even[active] = pos[active] % 2 == 0
        out[newly_even] = pos[newly_even]
        active &= ~newly_even
    return out


def _bits(x):
    """float64 values as their bit patterns (so -0.0 differs from 0.0)."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _table_with_tail():
    return make_lattice_table(
        {k: 0.04 for k in range(1, 11)},
        tail=TailDescriptor(TailKind.POWER_LAW, exponent=2.5,
                            constant=0.1 / float(zeta(2.5, 11)), onset=11.0),
    )


ORACLE_LAWS = {
    "power 0.05": lambda: make_power_law_lattice(0.05, normalize=True),
    "power 0.5": lambda: make_power_law_lattice(0.5, normalize=True),
    "power 1.9": lambda: make_power_law_lattice(1.9, normalize=True),
    "multi 0.5/1.5": lambda: make_multi_index_lattice(0.5, 1.5, normalize=True),
    "multi 0.569/0.8": lambda: make_multi_index_lattice(0.569, 0.8, normalize=True),
    "table + tail": _table_with_tail,
}


class _PresetRng:
    """A generator whose first uniform batch (the magnitudes) is given."""

    def __init__(self, first):
        self._first = first
        self._rng = replica_rng(SEED, 5)

    def random(self, size):
        if self._first is None:
            return self._rng.random(size)
        first, self._first = self._first, None
        assert len(first) == size
        return first

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)


def _preset_pair(smp, r):
    return (smp.sample_lags(_PresetRng(r), len(r)),
            _reference_sample_lags(smp, _PresetRng(r.copy()), len(r)))


class TestSamplerOracle:
    @pytest.mark.parametrize("table_size", [0, 3, 10, 1000, 10 ** 6])
    @pytest.mark.parametrize("law_name", list(ORACLE_LAWS))
    def test_draws_match_the_reference(self, law_name, table_size):
        # three streams per (law, table), the first the batch of seed 12345
        # replica 730 that straddles the 2^52 cap at alpha=0.5
        smp = LatticeSampler(ORACLE_LAWS[law_name](), table_size=table_size)
        for stream in ((12345, 730), (7, 1), (7, 2)):
            got = smp.sample_lags(replica_rng(*stream), 20000)
            want = _reference_sample_lags(smp, replica_rng(*stream), 20000)
            assert np.array_equal(_bits(got), _bits(want)), stream

    @pytest.mark.parametrize("law", [
        make_lattice_table({1: 0.2, 2: 0.1, 3: 0.05}, origin_mass=0.3),
        make_power_law_lattice(0.5, normalize=True),
        make_multi_index_lattice(0.5, 1.5, normalize=True),
    ], ids=["origin", "power", "multi"])
    def test_table_lookup_at_the_edges(self, law):
        # magnitude draws on, and one ulp either side of, every guide
        # bucket edge and the first 10^5 cumulative masses
        smp = LatticeSampler(law)
        edges = smp.cum[-1] * np.arange(1 << 14) / float(1 << 14)
        points = np.concatenate([edges, smp.cum[:10 ** 5], [smp.origin_mass]]) / smp.total
        r = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        r = r[(r >= 0.0) & (r < 1.0)]
        got, want = _preset_pair(smp, r)
        assert np.array_equal(_bits(got), _bits(want))

    def test_mass_on_a_bucket_edge(self):
        # two-lag tables whose first cumulative mass sits on a guide bucket
        # edge or one ulp above it; for many table masses a draw one ulp from
        # that mass scales into the neighbouring bucket, whose sure-magnitude
        # entry must then be -1 (the magnitude changes within one bucket of
        # it) so that the binary search finds the right lag
        buckets = 1 << 14
        for k in range(1, 65):
            top = 1.0 - k * 1e-12
            edge = (buckets // 2 + 17 * k) * (top / buckets)
            for first in (edge, np.nextafter(edge, 1.0)):
                smp = LatticeSampler(make_lattice_table({1: first / 2, 2: (top - first) / 2}))
                assert smp.cum[0] == first and smp.cum[-1] == top
                u = np.array([np.nextafter(first, 0.0), first, np.nextafter(first, 1.0)])
                # uniforms whose product with the total lands on those points
                r = u / top
                for _ in range(4):
                    r = np.where(r * top < u, np.nextafter(r, 1.0), r)
                    r = np.where(r * top > u, np.nextafter(r, 0.0), r)
                assert np.array_equal(r * top, u)
                got, want = _preset_pair(smp, r)
                assert np.array_equal(_bits(got), _bits(want)), k
                assert list(np.abs(got)) == [1.0, 2.0, 2.0]

    def test_finite_table_stops_at_its_last_lag(self):
        law = make_lattice_table({1: 0.3, 2: 0.15, 4: 0.05})
        smp = LatticeSampler(law)
        lags = smp.sample_lags(replica_rng(SEED, 4), 100_000)
        assert set(np.unique(np.abs(lags))) == {1.0, 2.0, 4.0}
        # the largest uniform lands on the last lag, not past it
        top = smp.sample_lags(_PresetRng(np.array([np.nextafter(1.0, 0.0)])), 1)
        assert np.abs(top[0]) == 4.0

    @pytest.mark.parametrize("stride, offset", [(1, 0), (2, 0), (2, 1)])
    @pytest.mark.parametrize("rho", [1.05, 1.5, 1.95, 2.5, 3.0])
    def test_tail_inversion_is_exact(self, rho, stride, offset):
        # 10^5 targets per class: half log-uniform from the end of a 10^6
        # table to past the 2^52 cap (through the band above 1e14 where zeta
        # ties), half exactly on zeta's grid values. RuntimeWarnings are
        # errors here (pyproject), so the guess must not warn on overflow.
        a0 = offset / stride
        n_top = 10 ** 6
        j_start = n_top // stride + 1 if offset == 0 else math.ceil((n_top + 1 - offset) / stride)
        rng = np.random.default_rng(SEED)
        t_start = hurwitz_zeta(rho, j_start + a0)
        spread = rng.random(50_000) * math.log(1e18 / j_start) * (rho - 1.0)
        on_grid = np.floor(np.exp(rng.random(50_000) * math.log(1e17 / j_start)) * j_start)
        on_grid_t = hurwitz_zeta(rho, on_grid + 1.0 + a0)
        target = np.concatenate([t_start * np.exp(-spread), on_grid_t])
        j = _invert_hurwitz_tail(rho, a0, j_start, target)
        assert np.all((j == np.floor(j)) & (j >= j_start) & (j <= _J_CAP))
        assert np.all((j == _J_CAP) | (hurwitz_zeta(rho, j + 1.0 + a0) <= target))
        assert np.all((j == j_start) | (hurwitz_zeta(rho, (j - 1.0) + 1.0 + a0) > target))
        grid_j = j[50_000:]
        assert np.all(grid_j <= np.minimum(on_grid, _J_CAP))
        assert np.count_nonzero(j == _J_CAP) > 0
        assert np.count_nonzero((j > 1e14) & (j < _J_CAP)) > 0

    @pytest.mark.parametrize("rho", [1.5, 2.5, 3.0])
    def test_tail_guess_settles_most_draws(self, rho, monkeypatch):
        # for the sampler's targets, a uniform fraction of the tail past the
        # table, the closed-form guess is exact nearly always, so the
        # inversion evaluates zeta about twice per target
        from levycrit import simulate

        evaluated = []

        def counting_zeta(s, q):
            evaluated.append(np.size(q))
            return hurwitz_zeta(s, q)

        monkeypatch.setattr(simulate, "hurwitz_zeta", counting_zeta)
        a0, j_start = 0.5, 500_000
        target = np.random.default_rng(SEED).random(10 ** 4) * hurwitz_zeta(rho, j_start + a0)
        _invert_hurwitz_tail(rho, a0, j_start, target)
        assert sum(evaluated) <= 2.1 * len(target)

    def test_sojourn_matches_its_reference_rebuild(self, half_law_prob, monkeypatch):
        got = sojourn_estimate(half_law_prob, 5.0, 500, 20, SEED, keep_replicas=True)
        monkeypatch.setattr(LatticeSampler, "sample_lags", _reference_sample_lags)
        want = sojourn_estimate(half_law_prob, 5.0, 500, 20, SEED, keep_replicas=True)
        assert got == want

    @pytest.mark.parametrize("law_name, n", [
        ("unit", 20_000), ("unit", 0), ("even", 2000), ("power 0.5", 5000),
        ("multi 0.5/1.5", 20_000),
    ])
    def test_even_chain_matches_the_masked_loop(self, law_name, n):
        law = {"unit": lambda: make_lattice_table({1: 0.5}),
               "even": lambda: make_lattice_table({2: 0.5}), **ORACLE_LAWS}[law_name]()
        got = even_chain_batch(law, n, SEED)
        want = _reference_even_chain(law, n, SEED)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSeededDrawPins:
    """Seeded sampler output pinned to values recorded before the package
    computed its own zeta: a change in zeta's rounding that moves a draw
    shows here, where the oracle tests above, which share the new zeta,
    cannot see it."""

    LAWS = {
        "power 0.5": lambda: make_power_law_lattice(0.5, normalize=True),
        "power 1.5": lambda: make_power_law_lattice(1.5, normalize=True),
        "multi 0.5/1.5": lambda: make_multi_index_lattice(0.5, 1.5, normalize=True),
    }

    @pytest.mark.parametrize("law_name, stream, digest", [
        ("power 0.5", (12345, 730),
         "d6634ef1e77f6e9426d727628ee8c366f921a4ef312b2936f32f320fd1afe7b8"),
        ("power 0.5", (7, 1), "ca944c0409ce48b6e2c6f238d639d334ce6b7d67cec1f9f2b2e12ffe2794f125"),
        ("power 1.5", (12345, 730),
         "352376b59d8da578e5cd62257c57876356692012e4a8e72ead308fd416d97588"),
        ("power 1.5", (7, 1), "860bc0df31b0c5e21532c975c3a1bf24c3f36f13c639c90c7c31639a6347fd88"),
        ("multi 0.5/1.5", (12345, 730),
         "5b7a4b75be70e832885d882000a4b45c790afb21e95581bc26e593e406f37566"),
        ("multi 0.5/1.5", (7, 1),
         "e91c52c4baecde0fa94bf394f644ba69e7fe4a0cc733b9067d4fd2ac337182b6"),
    ])
    def test_sample_lags(self, law_name, stream, digest):
        smp = LatticeSampler(self.LAWS[law_name]())
        lags = smp.sample_lags(replica_rng(*stream), 20000)
        assert _digest(np.asarray(lags, dtype="<f8")) == digest

    def test_even_chain_batch(self):
        xs = even_chain_batch(self.LAWS["multi 0.5/1.5"](), 20_000, SEED)
        assert _digest(np.asarray(xs, dtype="<i8")) == (
            "2c40fa4900cabc114ee21a32f7bd726d2d3645fcf4c8ddc4c960169c5b869580")

    def test_sojourn_estimate(self, half_law_prob):
        stats = sojourn_estimate(half_law_prob, 5.0, 4000, 40, SEED)
        assert stats.to_dict() == {
            "sojourn_estimate": 4.075, "window": 5.0, "horizon": 4000, "replicas": 40,
            "seed": SEED, "max_excursion": 1453018607.0, "returns_to_window": 19,
            "doubled_estimate": 4.075, "growth_ratio": 1.0, "growth_se": 0.0,
            "leaning": "transient-leaning",
        }


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


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

    def test_integral_floats_and_numpy_integers_read_as_ints(self, half_law_prob):
        # a float horizon raised numpy's TypeError
        want = json.dumps(sojourn_estimate(half_law_prob, 5.0, 10, 3, 1).to_dict())
        for horizon, replicas, seed in [(10.0, 3.0, 1.0),
                                        (np.int64(10), np.int64(3), np.int64(1))]:
            got = sojourn_estimate(half_law_prob, 5.0, horizon, replicas, seed)
            assert json.dumps(got.to_dict()) == want

    @pytest.mark.parametrize("law, window, horizon, replicas", [
        (make_power_law_lattice(0.5, normalize=True), 5.0, 1, 7),
        (make_power_law_lattice(0.5, normalize=True), 5.0, 300, 9),
        (make_lattice_table({1: 0.2, 2: 0.1, 3: 0.05}, spacing=0.5, origin_mass=0.3),
         1.0, 1, 5),
        (make_lattice_table({1: 0.2, 2: 0.1, 3: 0.05}, spacing=0.5, origin_mass=0.3),
         1.0, 257, 6),
        (make_lattice_table({1: 0.5}), 1.0, 40, 5),
        (make_multi_index_lattice(0.5, 1.5, normalize=True), 4.0, 120, 4),
        (_table_with_tail(), 3.0, 100, 4),
    ], ids=["power h=1", "power", "origin h=1", "origin", "unit step", "multi", "table + tail"])
    def test_path_statistics_match_a_reference_rebuild(self, law, window, horizon, replicas):
        # each replica's path rebuilt from the same draws as S_0 = 0 followed
        # by the running sums, its statistics counted position by position
        got = sojourn_estimate(law, window, horizon, replicas, SEED, keep_replicas=True)
        smp = LatticeSampler(law)
        rows, base, doubled = [], [], []
        for r in range(replicas):
            jumps = smp.sample_lags(replica_rng(SEED, r), 2 * horizon) * law.spacing
            path = np.concatenate([[0.0], np.cumsum(jumps)])
            inside = [abs(s) < window for s in path[:-1]]
            base.append(sum(inside[:horizon]))
            doubled.append(sum(inside))
            returns = sum(inside[k] and not inside[k - 1] for k in range(1, horizon))
            exc = max(abs(s) for s in path[: horizon + 1])
            rows.append({"replica": r, "sojourn": base[-1], "max_excursion": exc,
                         "returns": returns})
        assert got.replica_rows == tuple(rows)
        assert got.sojourn_estimate == float(np.mean(base))
        assert got.doubled_estimate == float(np.mean(doubled))
        assert got.max_excursion == max(row["max_excursion"] for row in rows)
        assert got.returns_to_window == sum(row["returns"] for row in rows)

    def test_estimate_bounded_by_horizon(self, unit_step_law):
        stats = sojourn_estimate(unit_step_law, 3.0, 500, 20, SEED)
        assert stats.sojourn_estimate <= 500

    def test_huge_window_absorbs_everything(self, half_law_prob):
        stats = sojourn_estimate(half_law_prob, 1e30, 300, 10, SEED)
        assert stats.sojourn_estimate == 300.0
        assert stats.growth_ratio == pytest.approx(2.0)

    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_window_refused(self, half_law_prob, monkeypatch, window):
        # a nan window used to read a sojourn estimate of 1.0
        from levycrit import simulate

        def tripwire(*args, **kwargs):
            raise AssertionError("sampler built before the window was checked")

        monkeypatch.setattr(simulate, "LatticeSampler", tripwire)
        with pytest.raises(DomainError, match="window must be finite and positive"):
            sojourn_estimate(half_law_prob, window, 100, 4, SEED)

    def test_replica_rows_optional(self, half_law_prob):
        stats = sojourn_estimate(half_law_prob, 5.0, 200, 8, SEED, keep_replicas=True)
        assert len(stats.replica_rows) == 8
        assert all(r["sojourn"] <= 200 for r in stats.replica_rows)

    @pytest.mark.parametrize("horizon, replicas", [(0, 3), (10, 0)])
    def test_zero_horizon_or_replicas_refused(self, unit_step_law, monkeypatch,
                                              horizon, replicas):
        from levycrit import simulate

        def tripwire(*args, **kwargs):
            raise AssertionError("sampler built before the counts were checked")

        monkeypatch.setattr(simulate, "LatticeSampler", tripwire)
        with pytest.raises(DomainError, match="must be at least 1"):
            sojourn_estimate(unit_step_law, 5.0, horizon, replicas, SEED)

    @pytest.mark.parametrize("law_name", list(ORACLE_LAWS))
    def test_replica_rows_do_not_depend_on_the_replica_count(self, law_name):
        # replica r draws from its own stream, so a longer run only appends rows
        law = ORACLE_LAWS[law_name]()
        short = sojourn_estimate(law, 5.0, 200, 3, SEED, keep_replicas=True)
        long_ = sojourn_estimate(law, 5.0, 200, 8, SEED, keep_replicas=True)
        assert long_.replica_rows[:3] == short.replica_rows

    @pytest.mark.parametrize("law_name", list(ORACLE_LAWS))
    def test_walk_endpoints_are_sign_symmetric(self, law_name):
        # each replica's walk, drawn as the sojourn loop draws it, ends on
        # either side of 0 alike: a sign test, robust to the heavy tails
        # where a CLT band on the mean is not
        law = ORACLE_LAWS[law_name]()
        smp = LatticeSampler(law)
        ends = np.array([smp.sample_lags(replica_rng(SEED, r), 100).sum() for r in range(1000)])
        nonzero = ends[ends != 0]
        pos = np.count_nonzero(nonzero > 0)
        assert abs(pos - len(nonzero) / 2) <= 3.0 * math.sqrt(len(nonzero) / 4)


class TestEvenChain:
    def test_even_support(self, half_law_prob):
        xs = even_chain_batch(half_law_prob, 5000, SEED)
        assert np.all(xs % 2 == 0)

    @pytest.mark.parametrize("law_name", list(ORACLE_LAWS))
    def test_even_support_across_laws(self, law_name):
        law = ORACLE_LAWS[law_name]()
        xs = even_chain_batch(law, 2000, SEED)
        assert xs.shape == (2000,)
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

    def test_step_cap_raises(self, unit_step_law):
        from levycrit import SimulationCapError

        with pytest.raises(SimulationCapError):
            even_chain_batch(unit_step_law, 100, SEED, step_cap=1)


class _SamplerBuilt(Exception):
    pass


class TestDrawCaps:
    @pytest.mark.parametrize("count, refused", [
        (0, False), (MAX_SOJOURN_STEPS, False), (MAX_SOJOURN_STEPS + 1, True), (10 ** 15, True),
    ])
    def test_caps_checked_before_allocating(self, unit_step_law, monkeypatch, count, refused):
        # the sampler table is the first allocation; a count over the cap is
        # refused before it, and 10^15 draws could not be allocated at all
        from levycrit import simulate

        def tripwire(*args, **kwargs):
            raise _SamplerBuilt

        monkeypatch.setattr(simulate, "LatticeSampler", tripwire)
        with pytest.raises(DomainError if refused else _SamplerBuilt,
                           match="cap" if refused else None):
            even_chain_batch(unit_step_law, count, SEED)

    @pytest.mark.parametrize("table_size, refused", [
        (SAMPLER_TABLE_SIZE, False), (SAMPLER_TABLE_SIZE + 1, True), (10 ** 15, True),
        (-1, True), ("5", True), (0, False), (math.nan, True), (None, True),
    ])
    def test_table_size_checked_before_allocating(self, half_law_prob, monkeypatch,
                                                  table_size, refused):
        # the lag masses are the sampler's first allocation; a table size
        # outside [0, SAMPLER_TABLE_SIZE] is refused before them
        from levycrit.measures import SymmetricJumpLaw

        def tripwire(*args, **kwargs):
            raise _SamplerBuilt

        monkeypatch.setattr(SymmetricJumpLaw, "masses", tripwire)
        with pytest.raises(DomainError if refused else _SamplerBuilt,
                           match="table_size" if refused else None):
            LatticeSampler(half_law_prob, table_size=table_size)

    @pytest.mark.parametrize("value", [2.5, 1.5, -1, True, "5", math.nan, math.inf, None])
    @pytest.mark.parametrize("entry", [
        "sojourn horizon", "sojourn replicas", "sojourn seed", "chain n_samples", "chain seed",
        "chain step_cap",
    ])
    def test_non_integral_or_negative_counts_refused_before_the_sampler(
            self, unit_step_law, monkeypatch, entry, value):
        # a seed of 1.5 drew from seed 1 and was reported as 1.5; -1 ended in
        # numpy's ValueError, a float count in its TypeError; True ran as 1;
        # "5" failed a comparison with TypeError; NaN, inf and None are no
        # counts at all
        from levycrit import simulate

        def tripwire(*args, **kwargs):
            raise _SamplerBuilt

        monkeypatch.setattr(simulate, "LatticeSampler", tripwire)
        call = {
            "sojourn horizon": lambda: sojourn_estimate(unit_step_law, 5.0, value, 3, SEED),
            "sojourn replicas": lambda: sojourn_estimate(unit_step_law, 5.0, 10, value, SEED),
            "sojourn seed": lambda: sojourn_estimate(unit_step_law, 5.0, 10, 3, value),
            "chain n_samples": lambda: even_chain_batch(unit_step_law, value, SEED),
            "chain seed": lambda: even_chain_batch(unit_step_law, 10, value),
            "chain step_cap": lambda: even_chain_batch(unit_step_law, 10, SEED, step_cap=value),
        }[entry]
        with pytest.raises(DomainError):
            call()

    def test_non_integral_table_size_refused_before_allocating(self, half_law_prob,
                                                               monkeypatch):
        # 2.5 failed with "sampler masses sum to 1.0737, not 1"
        from levycrit.measures import SymmetricJumpLaw

        def tripwire(*args, **kwargs):
            raise _SamplerBuilt

        monkeypatch.setattr(SymmetricJumpLaw, "masses", tripwire)
        with pytest.raises(DomainError, match="table_size"):
            LatticeSampler(half_law_prob, table_size=2.5)

    def test_even_chain_refuses_negative_count(self, unit_step_law, monkeypatch):
        from levycrit import simulate

        def tripwire(*args, **kwargs):
            raise AssertionError("sampler built before the count was checked")

        monkeypatch.setattr(simulate, "LatticeSampler", tripwire)
        with pytest.raises(DomainError, match="n_samples must be at least 0"):
            even_chain_batch(unit_step_law, -1, SEED)


class TestEvenChainCriterion:
    def test_transient_case(self):
        v = even_chain_criterion(0.5, 1.5)
        assert v.status is Status.CONVERGES

    def test_boundary_inconclusive(self):
        assert even_chain_criterion(1.0, 1.5).status is Status.INCONCLUSIVE

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_inconclusive_rests_on_numerics(self, alpha):
        # no bound series to sum: the value is [0, inf] on a numeric basis
        v = even_chain_criterion(alpha, 1.5)
        assert v.value_interval == (0.0, math.inf)
        assert v.basis is Basis.NUMERIC_ONLY

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
