import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.special import zeta

from levycrit import (
    DomainError,
    LevyTriplet,
    Normalization,
    PowerPiece,
    as_finite_measure,
    char_exponent,
    classify,
    make_lattice_table,
    make_multi_index_lattice,
    make_piecewise_power,
    make_power_law_lattice,
    make_stable_triplet,
    make_walk_triplet,
    moment,
)
from levycrit.criteria import CF_EPS
from levycrit.discretize import bin_density, characteristics, jensen_gap
from levycrit.network import dyadic_energy_bound, flow_energy
from levycrit.measures import (
    LATTICE_SERIES_CUTOFF,
    ContinuousSupport,
    LatticeSupport,
    NumericError,
    SymmetricJumpLaw,
    _lattice_cos_sum,
    make_gaussian_density,
)
from levycrit.tails import PowerTailComponent, TailDescriptor, TailKind
from levycrit.powerint import (
    GK15_GAUSS,
    GK15_KRONROD,
    GK15_NODES,
    PANEL_CAP,
    one_minus_cos_tail,
    panel_integrals,
)

ZETA_15 = 2.612375348685488  # zeta(3/2)


#: xi of the psi oracles: from 1e-6 up to pi, where u = pi meets the closed form
PSI_ORACLE_XI = np.append(np.geomspace(1e-6, 3.0, 24), math.pi)


def _polylog_psi(parts, xi, table=None):
    """psi of masses ``C n^-s`` on all, even or odd lags n, to 40 digits.

    Each class sum of ``n^-s (1 - cos(n u))`` is a difference of
    polylogarithms, ``zeta(s) - Re Li_s(e^{iu})``, and the even lags are
    2^-s times that at 2u. At u = pi only odd lags count, each with
    1 - cos = 2, which gives ``2 (1 - 2^-s) zeta(s)``; polylog at e^{2iu}
    from a float pi is 7e-6 off there. ``table`` swaps the masses of the
    first lags of a single ``(C, s, "all")`` part for tabulated ones.
    """
    import mpmath as mp

    with mp.workdps(40):
        u = mp.pi if xi == math.pi else mp.mpf(float(xi))
        total = mp.mpf(0)
        for c, s, lags in parts:
            if u == mp.pi:
                odd = 2 * (1 - mp.mpf(2) ** -s) * mp.zeta(s)
                total += c * (0 if lags == "even" else odd)
                continue
            even = 2 ** -mp.mpf(s) * (mp.zeta(s) - mp.re(mp.polylog(s, mp.exp(2j * u))))
            every = mp.zeta(s) - mp.re(mp.polylog(s, mp.exp(1j * u)))
            total += c * {"all": every, "even": even, "odd": every - even}[lags]
        for n, m in (table or {}).items():
            c, s, _ = parts[0]
            total += (m - c * mp.mpf(n) ** -s) * (1 - mp.cos(n * u))
        return float(2 * total)


class TestPowerLawLattice:
    def test_raw_masses(self):
        law = make_power_law_lattice(0.5)
        assert law.mass(2) == pytest.approx(2 ** -1.5)
        law1 = make_power_law_lattice(1.0)
        assert law1.mass(1) == 1.0
        assert law1.mass(4) == 0.0625

    def test_normalized_sums_to_one(self):
        law = make_power_law_lattice(0.5, normalize=True)
        # oracle: partial sum to 1e7 plus integral tail bracket
        n = np.arange(1, 10 ** 7 + 1)
        partial = 2 * law.mass(1) * float(np.sum(n ** -1.5))
        lo_tail = 2 * law.mass(1) * (10 ** 7 + 1) ** -0.5 / 0.5
        assert partial + lo_tail == pytest.approx(1.0, abs=1e-7)
        # the two-sided total mass m(0) + 2 nu((0, inf)) encloses 1, and its midpoint is 1
        lo, hi = law.one_sided_tail_mass(0.0)
        m0 = law.support.origin_mass
        assert m0 + 2.0 * lo - 1e-10 <= 1.0 <= m0 + 2.0 * hi + 1e-10
        assert m0 + lo + hi == pytest.approx(1.0, abs=1e-10)
        assert law.mass(1) == pytest.approx(1.0 / (2.0 * ZETA_15))

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            make_power_law_lattice(0.0)
        with pytest.raises(DomainError):
            make_power_law_lattice(-1.0)

    def test_rejects_alpha_whose_masses_underflow(self):
        # 2^-(alpha+1) is below the smallest normal float: no mass past lag 1
        for make in (make_power_law_lattice, lambda a: make_multi_index_lattice(a, 0.5)):
            with pytest.raises(DomainError):
                make(1e300)
            with pytest.raises(DomainError):
                make(1022.0)

    def test_steep_tail_exponent_stays_finite(self):
        # u^(rho-1) underflows and the cosine tail from u * cutoff overflows;
        # the correction is below every float, so psi is the plain lag sum
        law = make_power_law_lattice(700.0)
        psi = char_exponent(make_walk_triplet(law), 1e-6)
        assert psi == pytest.approx(4.0 * math.sin(5e-7) ** 2, rel=1e-12)


class TestMultiIndex:
    def test_interleaved_masses(self, multi_default):
        assert multi_default.mass(2) == pytest.approx(2 ** -1.5)
        assert multi_default.mass(3) == pytest.approx(3 ** -2.5)

    def test_collapses_to_power_law(self):
        mi = make_multi_index_lattice(1.0, 1.0)
        pw = make_power_law_lattice(1.0)
        n = np.arange(1, 100)
        assert np.allclose(mi.mass(n), pw.mass(n), rtol=0, atol=0)

    def test_dominant_tail_exponent(self, multi_default):
        assert multi_default.tail.exponent == pytest.approx(1.5)


class TestStableTriplet:
    def test_brownian_case(self):
        t = make_stable_triplet(2.0, 1.0)
        assert t.c == 2.0
        assert t.nu is None
        assert char_exponent(t, 3.0) == pytest.approx(9.0)

    def test_cauchy_density_constant(self):
        # density * |y|^2 -> 1/pi for alpha = 1, gamma = 1
        t = make_stable_triplet(1.0, 1.0)
        assert t.nu.density(100.0) * 1e4 == pytest.approx(1.0 / math.pi, rel=1e-2)

    def test_density_symmetry(self):
        t = make_stable_triplet(0.5, 1.0)
        assert t.nu.density(-3.0) == t.nu.density(3.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            make_stable_triplet(2.5, 1.0)
        with pytest.raises(DomainError):
            make_stable_triplet(1.0, 0.0)


class TestCharExponent:
    def test_zero_at_origin(self, stable_half, multi_default):
        assert char_exponent(stable_half, 0.0) == 0.0
        assert char_exponent(make_walk_triplet(multi_default), 0.0) == 0.0

    def test_single_atom_lattice(self):
        law = make_lattice_table({1: 1.0})
        t = make_walk_triplet(as_finite_measure(law))
        assert char_exponent(t, math.pi) == pytest.approx(4.0, rel=1e-12)

    def test_even_and_nonnegative(self, stable_half, multi_default):
        rng = np.random.default_rng(1234)
        triplets = (
            stable_half,
            make_stable_triplet(2.0, 1.0),
            make_walk_triplet(make_power_law_lattice(1.0)),
            make_walk_triplet(multi_default),
        )
        for triplet in triplets:
            for xi in rng.uniform(-50, 50, size=1000):
                psi = char_exponent(triplet, xi)
                assert psi >= 0.0
                assert psi == char_exponent(triplet, -xi)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_stable_scaling(self, alpha):
        t = make_stable_triplet(alpha, 1.0)
        for xi in (0.1, 1.0, 10.0):
            ratio = char_exponent(t, 2 * xi) / char_exponent(t, xi)
            assert ratio == pytest.approx(2 ** alpha, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha, beta",
        [(a, None) for a in (0.05, 0.5, 0.9995, 1.5, 1.99)]
        + [(0.5, 1.5), (1.5, 0.5), (0.569, 0.8), (1.2, 0.3)],
    )
    def test_lattice_small_xi_matches_polylog_oracle(self, alpha, beta):
        # exact components: psi is exact to rounding over the whole period,
        # from xi = 1e-6 up to pi
        if beta is None:
            law = make_power_law_lattice(alpha, normalize=True)
            parts = [(1.0 / (2.0 * zeta(alpha + 1.0)), alpha + 1.0, "all")]
        else:
            law = make_multi_index_lattice(alpha, beta)
            parts = [(1.0, alpha + 1.0, "even"), (1.0, beta + 1.0, "odd")]
        got = char_exponent(make_walk_triplet(law), PSI_ORACLE_XI)
        want = [_polylog_psi(parts, xi) for xi in PSI_ORACLE_XI]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_table_with_exact_tail_matches_polylog_oracle(self):
        table = {1: 0.2, 2: 0.1, 3: 0.05}
        tail = TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=0.1, onset=4.0)
        law = make_lattice_table(table, tail=tail)
        got = char_exponent(make_walk_triplet(law), PSI_ORACLE_XI)
        # the K n^-1.5 sum over every lag, with the tabulated lags swapped in
        want = [_polylog_psi([(0.1, 1.5, "all")], xi, table) for xi in PSI_ORACLE_XI]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_unit_bins_match_a_long_direct_sum(self, flat_core_heavy):
        # unit bins of the flat-core law: masses K n^-1.5 (1 + O(n^-2)) past the
        # table, with K = 1/6 and the envelope midpoint 1.054 K. Reference: the
        # lag sum to N = 2e7 plus K int_{N+1/2}^inf y^-1.5 (1 - cos(xi y)) dy,
        # whose midpoint-rule error (about K N^-1.5 xi / 24) and mass error
        # (about K N^-2.5 / 6) are below 1e-13 of psi
        binned = bin_density(flat_core_heavy, 1.0)
        k = binned.components[0].constant
        xi = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        n_ref = 2 * 10 ** 7
        direct = np.zeros(len(xi))
        for start in range(0, n_ref, 10 ** 6):
            n = np.arange(start + 1, start + 10 ** 6 + 1)
            direct += 2.0 * np.sin(np.outer(xi, n) / 2.0) ** 2 @ binned.mass(n)
        tail = k * xi ** 0.5 * one_minus_cos_tail(1.5, xi * (n_ref + 0.5))
        got = char_exponent(make_walk_triplet(binned), xi)
        assert got == pytest.approx(2.0 * (direct + tail), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("xi", [1e-6, 1e-5, 1e-4])
    def test_steep_tail_small_xi_matches_mpmath(self, xi):
        # flat core c on [0, 1), c y^-3.5 beyond: psi = 2c [(1 - sin xi / xi)
        # + xi^2.5 int_xi^inf (1 - cos u) u^-3.5 du], about m2 xi^2 / 2
        import mpmath as mp

        c = 2.5 / 7.0
        law = make_piecewise_power(
            [PowerPiece(0.0, 1.0, ((c, 0.0),)), PowerPiece(1.0, math.inf, ((c, 3.5),))]
        )
        with mp.workdps(30):
            x = mp.mpf(xi)
            head = mp.quad(lambda u: (1 - mp.cos(u)) * u ** -3.5, [x, 1, 2 * mp.pi])
            tail = mp.quad(lambda u: u ** -3.5, [2 * mp.pi, mp.inf]) - mp.quadosc(
                lambda u: mp.cos(u) * u ** -3.5, [2 * mp.pi, mp.inf], omega=1
            )
            oracle = float(2 * c * ((1 - mp.sin(x) / x) + x ** 2.5 * (head + tail)))
        psi = char_exponent(make_walk_triplet(law), xi)
        assert psi == pytest.approx(oracle, rel=1e-6)
        assert psi == pytest.approx(5.0 / 3.0 * xi * xi / 2.0, rel=0.02)

    def test_lattice_small_xi_matches_series_oracle(self, power_half_raw):
        # oracle: direct summation to 1e7 plus tail average of (1 - cos)
        t = make_walk_triplet(power_half_raw)
        xi = 1e-3
        n = np.arange(1, 10 ** 7 + 1)
        partial = 2.0 * float(np.sum(n ** -1.5 * (1 - np.cos(n * xi))))
        tail_mid = 2.0 * float(zeta(1.5, 10 ** 7 + 1))
        psi = char_exponent(t, xi)
        assert partial <= psi <= partial + 2 * tail_mid
        assert psi == pytest.approx(partial + tail_mid, rel=1e-4)


def _direct_cos_sum(law, u):
    """Oracle: the plain lag-by-lag ``sum_n m(n) 2 sin^2(n u / 2)`` over the series head."""
    n_hi = law.series_head
    lags = np.arange(1, n_hi + 1, dtype=float)
    masses = law.mass(np.arange(1, n_hi + 1))
    return np.array([float(np.sum(masses * 2.0 * np.sin(lags * (x / 2.0)) ** 2)) for x in u])


def _lattice_laws():
    table_tail = TailDescriptor(
        TailKind.POWER_LAW, exponent=1.5, constant=0.1, onset=4.0,
        lower_factor=0.9, upper_factor=1.1,
    )
    flat_core = make_piecewise_power(
        [PowerPiece(0.0, 1.0, ((1.0 / 6.0, 0.0),)), PowerPiece(1.0, math.inf, ((1.0 / 6.0, 1.5),))]
    )
    return {
        **{f"power_lattice({a})": make_power_law_lattice(a) for a in (0.05, 0.9995, 1.55, 1.99)},
        "multi_index": make_multi_index_lattice(0.5, 1.5),
        "table_with_tail": make_lattice_table({1: 0.2, 2: 0.1, 3: 0.05}, tail=table_tail),
        "table_max_lag_1": make_lattice_table({1: 0.5}),
        "table_max_lag_6": make_lattice_table(
            {1: 0.1, 2: 0.2, 3: 0.05, 4: 0.05, 5: 0.03, 6: 0.07}, spacing=0.5
        ),
        "binned_heavy_delta_0.5": bin_density(flat_core, 0.5),
        "binned_gaussian_delta_0.25": bin_density(make_gaussian_density(1.0), 0.25),
    }


LATTICE_LAWS = _lattice_laws()


class TestBlockedLatticeSum:
    """The blocked angle-addition pass against the plain lag sum it replaced."""

    @pytest.mark.parametrize("name", LATTICE_LAWS)
    def test_chung_fuchs_grid_matches_direct_sum(self, name):
        law = LATTICE_LAWS[name]
        u = law.spacing * np.geomspace(CF_EPS, 1.0, 160)
        got, want = _lattice_cos_sum(law, u, law.series_head), _direct_cos_sum(law, u)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("name", LATTICE_LAWS)
    def test_wide_xi_matches_direct_sum(self, name):
        law = LATTICE_LAWS[name]
        xi = np.random.default_rng(7).uniform(0.0, 50.0, 200)
        period = 2.0 * math.pi / law.spacing
        xi = xi[np.abs(xi - period * np.rint(xi / period)) > 1e-3]  # away from 2 pi k / delta
        u = law.spacing * xi
        got, want = _lattice_cos_sum(law, u, law.series_head), _direct_cos_sum(law, u)
        err = np.abs(got - want)
        assert np.all((err <= 1e-12 * want) | (err <= 1e-13 * law.total_mass))


    def test_summed_lags_reach_the_table_end(self):
        # bins of width 1/128 are tabulated to lag 128001, and the binned
        # tail's envelope is inexact: psi sums every lag to 1e6, then adds
        # the component's K n^-1.5 sum past it. Reference: the plain sum to
        # N = 4e6 plus K int_{N+1/2}^inf y^-1.5 (1 - cos(u y)) dy, whose
        # midpoint-rule error (about K N^-1.5 u / 24) and mass error (about
        # K N^-2.5 / 6) are below 1e-13 of psi
        k = 0.25 * math.sqrt(1000.0) / 2.0  # a y^-1.5 tail of mass 1/4 past 1000
        law = make_piecewise_power(
            [PowerPiece(0.0, 1000.0, ((2.5e-4, 0.0),)), PowerPiece(1000.0, math.inf, ((k, 1.5),))]
        )
        binned = bin_density(law, 1.0 / 128.0)
        assert binned.support.top == 128001
        assert binned.series_head == LATTICE_SERIES_CUTOFF
        k_bins = binned.components[0].constant
        n_ref = 4 * 10 ** 6
        xi = np.array([1e-3, 1e-2, 0.1])
        u = xi / 128.0
        direct = np.zeros(len(u))
        for start in range(0, n_ref, 10 ** 6):
            n = np.arange(start + 1, start + 10 ** 6 + 1)
            direct += 2.0 * np.sin(np.outer(u, n) / 2.0) ** 2 @ binned.mass(n)
        ref = 2.0 * (direct + k_bins * u ** 0.5 * one_minus_cos_tail(1.5, u * (n_ref + 0.5)))
        got = char_exponent(make_walk_triplet(binned), xi)
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)


class TestCharExponentArray:
    TRIPLETS = {
        **{name: make_walk_triplet(law) for name, law in LATTICE_LAWS.items()},
        "stable(0.5)": make_stable_triplet(0.5, 1.0),
        "stable(2)": make_stable_triplet(2.0, 1.0),
        "gaussian": make_walk_triplet(make_gaussian_density(1.0)),
        "gauss_plus_jumps": LevyTriplet(c=0.3, nu=as_finite_measure(make_lattice_table({2: 0.5}))),
    }
    XI = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 9), [-3.0, 7.5, -41.0]])

    @pytest.mark.parametrize("name", TRIPLETS)
    def test_array_equals_scalar_calls(self, name):
        t = self.TRIPLETS[name]
        got = char_exponent(t, self.XI)
        want = np.array([char_exponent(t, float(x)) for x in self.XI])
        assert isinstance(got, np.ndarray) and got.shape == self.XI.shape
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        if not (t.nu is not None and t.nu.is_lattice):
            # a generic density gives every point its own row and bisection; a
            # stable law's one piece from 0 to inf gives every point the same integral
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", TRIPLETS)
    def test_zero_and_evenness(self, name):
        t = self.TRIPLETS[name]
        got = char_exponent(t, self.XI)
        assert got[0] == 0.0
        assert np.array_equal(got, char_exponent(t, -self.XI))
        assert isinstance(char_exponent(t, 0.5), float)

    FAMILIES = {
        "stable": make_stable_triplet(0.5, 1.0),
        "piecewise_power": make_walk_triplet(make_piecewise_power(
            [PowerPiece(0.0, 1.0, ((1.0 / 6.0, 0.0),)), PowerPiece(1.0, math.inf, ((1.0 / 6.0, 1.5),))]
        )),
        "power_lattice": make_walk_triplet(make_power_law_lattice(0.5)),
        "table": make_walk_triplet(make_lattice_table({1: 0.2, 2: 0.1})),
        "multi_index": make_walk_triplet(make_multi_index_lattice(0.5, 1.5)),
        "gaussian": make_walk_triplet(make_gaussian_density(1.0)),
    }

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf, np.array([0.5, math.nan])])
    def test_non_finite_xi_is_refused(self, name, xi):
        with pytest.raises(DomainError, match="finite"):
            char_exponent(self.FAMILIES[name], xi)

    def test_shape_is_kept(self, multi_default):
        t = make_walk_triplet(multi_default)
        grid = np.array([[0.0, 0.1], [0.2, -0.1]])
        got = char_exponent(t, grid)
        assert got.shape == (2, 2)
        assert got[0, 0] == 0.0
        assert got[0, 1] == pytest.approx(got[1, 1], rel=1e-14)


TAIL_MASS_LAWS = {
    **LATTICE_LAWS,
    "power_lattice(0.5, normalized)": make_power_law_lattice(0.5, normalize=True),
    "table_exact_tail": make_lattice_table(
        {1: 0.2, 2: 0.1, 3: 0.05},
        tail=TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=0.1, onset=4.0),
    ),
    "stable(0.7)": make_stable_triplet(0.7, 1.0).nu,
    "gaussian(1.3)": make_gaussian_density(1.3),
    "piecewise": make_piecewise_power(
        [PowerPiece(0.0, 1.0, ((1.0 / 6.0, 0.0),)), PowerPiece(1.0, math.inf, ((1.0 / 6.0, 1.5),))]
    ),
}


class TestArrayTailMass:
    """``one_sided_tail_mass`` over an array against one scalar call per point."""

    POINTS = np.array([[0.0, 0.3, 1.0, 1.7], [2.5, 5.0, 9.75, 30.0], [1e3, 1e5, 4.0, 0.75]])

    @pytest.mark.parametrize("name", TAIL_MASS_LAWS)
    def test_array_call_equals_scalar_calls(self, name):
        law = TAIL_MASS_LAWS[name]
        lo, hi = law.one_sided_tail_mass(self.POINTS)
        assert lo.shape == hi.shape == self.POINTS.shape
        scalar = [law.one_sided_tail_mass(x) for x in self.POINTS.ravel().tolist()]
        assert all(type(lo_x) is float and type(hi_x) is float for lo_x, hi_x in scalar)
        want, got = np.array(scalar), np.stack([lo.ravel(), hi.ravel()], axis=1)
        if law.is_lattice:
            # suffix sums and zeta tails give every point its scalar value
            assert np.array_equal(got, want)
        else:
            # a generic density's panels run between neighbouring points
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert np.all(lo <= hi)

    def test_past_max_lag_is_zero(self):
        law = LATTICE_LAWS["table_max_lag_6"]  # spacing 0.5: lag 6 sits at 3.0
        assert law.one_sided_tail_mass(3.0) == (0.0, 0.0)
        lo, hi = law.one_sided_tail_mass(np.array([2.9, 3.0, 1e4]))
        assert lo.tolist() == hi.tolist() == [0.07, 0.0, 0.0]


def _parent_tail_mass(law, x):
    """The lattice tail-mass rule before :meth:`lag_tail_sum`, kept as its oracle.

    Suffix sums of the masses up to ``top``, then each component's tail
    past max(n - 1, top), with n the first lag past x.
    """
    sup = law.support
    n_from = np.floor(x / sup.spacing).astype(np.int64) + 1
    top = sup.top
    first = int(n_from.min(initial=top + 1))
    suffix = np.append(np.cumsum(law.mass(np.arange(first, top + 1))[::-1])[::-1], 0.0)
    lo = hi = suffix[np.minimum(n_from, top + 1) - first]
    for c in sup.components:
        c_lo, c_hi = c.weighted_tail_sum(0.0, np.maximum(n_from - 1, top))
        lo, hi = lo + c_lo, hi + c_hi
    return lo, hi


class TestLagTailSum:
    """``sum_{n > n_from} n^w m(n)^(+-1)`` against a direct sum to 4e6 lags
    plus a Hurwitz-zeta envelope of each class past them."""

    N_DIRECT = 4 * 10 ** 6

    @classmethod
    def _rest(cls, law, weight, inverse):
        """Envelope of the sum over lags > N_DIRECT, class by class."""
        lo = hi = 0.0
        n = cls.N_DIRECT
        for c in law.components:
            p = -c.exponent - weight if inverse else c.exponent - weight
            if p <= 1.0:
                return math.inf, math.inf
            # class members n = s j + r past N start at j0 = (N - r) // s + 1
            s, r = c.stride, c.offset
            base = s ** -p * float(zeta(p, (n - r) // s + 1 + r / s))
            k_lo, k_hi = c.constant * c.lower_factor, c.constant * c.upper_factor
            lo += base / k_hi if inverse else base * k_lo
            hi += base / k_lo if inverse else base * k_hi
        return lo, hi

    @pytest.mark.parametrize("name", LATTICE_LAWS)
    def test_envelope_brackets_direct_sum(self, name):
        law = LATTICE_LAWS[name]
        top = law.support.top
        finite = law.support.max_lag is not None
        starts = sorted({0, max(top - 1, 0), top, top + 7, 10 ** 4})
        lags = np.arange(1, (top if finite else self.N_DIRECT) + 1)
        masses = law.mass(lags)
        for inverse, weight in product((False, True), (-3.0, 0.0, 2.0)):
            lo, hi = law.lag_tail_sum(weight, np.array(starts), inverse=inverse)
            assert lo.shape == hi.shape == (len(starts),)
            assert law.lag_tail_sum(weight, starts[0], inverse=inverse) == (lo[0], hi[0])
            r_lo, r_hi = self._rest(law, weight, inverse)
            if (inverse and finite) or math.isinf(r_hi):
                assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))
                continue
            terms = lags.astype(float) ** weight * (1.0 / masses if inverse else masses)
            for i, n_from in enumerate(starts):
                direct = float(np.sum(terms[n_from:]))
                assert lo[i] <= hi[i]
                assert lo[i] <= (direct + r_hi) * (1.0 + 1e-12)
                assert hi[i] >= (direct + r_lo) * (1.0 - 1e-12)
                if all(c.exact for c in law.components):
                    assert lo[i] == hi[i] == pytest.approx(direct + r_lo, rel=1e-12)

    @pytest.mark.parametrize("name", LATTICE_LAWS)
    def test_tail_mass_keeps_the_parent_rule(self, name):
        law = LATTICE_LAWS[name]
        top = law.support.top
        x = np.concatenate([TestArrayTailMass.POINTS.ravel(),
                            law.spacing * (np.arange(top - 2, top + 9) + 0.5).clip(0.0)])
        lo, hi = law.one_sided_tail_mass(x)
        want_lo, want_hi = _parent_tail_mass(law, x)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)

    def test_continuous_law_rejected(self):
        with pytest.raises(DomainError):
            make_gaussian_density(1.0).lag_tail_sum(0.0, 3)


def _flat_core(rho):
    """Probability density: flat on [0, 1], ``k y^-rho`` beyond."""
    k = (rho - 1.0) / (2.0 * rho)
    return make_piecewise_power(
        [PowerPiece(0.0, 1.0, ((k, 0.0),)), PowerPiece(1.0, math.inf, ((k, rho),))]
    )


class TestLawHead:
    """:meth:`SymmetricJumpLaw.masses` evaluates a law's head once, and only
    for a series that sums it."""

    @pytest.mark.parametrize("name", LATTICE_LAWS)
    def test_reads_agree_with_mass(self, name):
        law = replace(LATTICE_LAWS[name])  # a fresh copy: its head is not built yet
        head = law.series_head
        reads = list(product([0, 1, max(head - 1, 0), head, head + 5],
                             [1, 2, max(head, 1), head + 3]))
        for n_hi, n_lo in reads + reads:  # before the head is built, then from it
            got = law.masses(n_hi, n_lo)
            assert np.array_equal(got, law.mass(np.arange(n_lo, n_hi + 1)))
        assert head == 0 or not law.masses(head).flags.writeable
        with pytest.raises(DomainError, match="lags must be >= 1"):
            law.masses(head, 0)

    def test_series_evaluate_each_head_lag_once(self):
        # a binned law with an inexact component sums a 1e6-lag head
        binned = bin_density(_flat_core(1.5), 1.0)
        head = binned.series_head
        assert head == LATTICE_SERIES_CUTOFF
        counts = np.zeros(head + 1, dtype=np.int64)

        def counted(n, _mass_fn=binned.support.mass_fn):
            lags = np.asarray(n).ravel()
            np.add.at(counts, lags[lags <= head], 1)
            return _mass_fn(n)

        law = replace(binned, support=replace(binned.support, mass_fn=counted))
        triplet = make_walk_triplet(law)
        nu = triplet.nu  # the triplet's own law, which keeps its own head
        classify(triplet)
        char_exponent(triplet, np.array([1e-3, 0.5, 3.0]))
        char_exponent(triplet, 0.25)
        flow_energy(nu, 10)
        dyadic_energy_bound(nu)
        moment(nu, 2)
        assert counts[1:].min() == counts[1:].max() == 1

    def test_short_reads_build_no_head(self, monkeypatch):
        # diagnostics on an inexact binned law read a few thousand lags at
        # most, never its 1e6-lag head
        sizes = []
        mass = SymmetricJumpLaw.mass

        def counted(self, n):
            sizes.append(np.size(n))
            return mass(self, n)

        monkeypatch.setattr(SymmetricJumpLaw, "mass", counted)
        law = _flat_core(2.5)
        binned = bin_density(law, 1.0)
        assert binned.series_head == LATTICE_SERIES_CUTOFF
        jensen_gap(law)
        characteristics(binned)
        binned.lag_tail_sum(0.0, np.array([0, 5, 100]))
        binned.one_sided_tail_mass(3.5)
        assert sizes and sum(sizes) < LATTICE_SERIES_CUTOFF // 100

    def test_long_head_refused_before_allocation(self):
        # a finely binned heavy tail starts its power component near lag
        # 1/delta, so at delta = 1e-9 its head would hold 1e9 masses (8 GB)
        law = bin_density(_flat_core(1.5), 1e-9)
        assert law.series_head == 1_000_000_001
        reads = {
            "masses": lambda: law.masses(law.series_head),
            "past the head": lambda: law.masses(law.series_head + 5, 3),
            "lag_tail_sum": lambda: law.lag_tail_sum(0.0, 5),
            "flow_energy": lambda: flow_energy(law, 2),
            "dyadic_energy_bound": lambda: dyadic_energy_bound(law),
            "moment": lambda: moment(law, 2),
        }
        tracemalloc.start()
        try:
            for name, read in reads.items():
                with pytest.raises(DomainError, match="exceeds the cap"):
                    read()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "_head" not in law.__dict__
        # a read short of the head evaluates only its own lags
        assert np.array_equal(law.masses(5), law.mass(np.arange(1, 6)))


class TestInverseTailIntegral:
    """``int_y^inf t^w / f(t) dt`` of a power tail, the continuous inverse remainder."""

    def test_envelope_is_the_closed_form(self):
        # f between 0.8 K t^-1.5 and 1.25 K t^-1.5, K = 0.1:
        # int_50^inf t^-3 t^1.5 / (K factor) dt = 2 / (sqrt(50) K factor)
        tail = TailDescriptor(
            TailKind.POWER_LAW, exponent=1.5, constant=0.1, lower_factor=0.8, upper_factor=1.25
        )
        lo, hi = tail.inverse_tail_integral(-3.0, 50.0)
        exact = 2.0 / (math.sqrt(50.0) * 0.1)
        assert lo == pytest.approx(exact / 1.25, rel=1e-15)
        assert hi == pytest.approx(exact / 0.8, rel=1e-15)

    def test_divergent_weight_is_inf(self):
        tail = TailDescriptor(TailKind.POWER_LAW, exponent=2.0, constant=0.1)
        assert tail.inverse_tail_integral(-3.0, 50.0) == (math.inf, math.inf)


class TestExponentialTailUpper:
    """``int_y^inf t^k K e^(-lam t) dt`` of an exponential tail, for k = 0..3."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_bounds_the_closed_form(self, k):
        onset, constant, factor = 2.0, 0.3, 1.5
        tail = TailDescriptor(TailKind.EXPONENTIAL, exponent=1.0, constant=constant,
                              onset=onset, upper_factor=factor)
        for lam, y in product([0.01, 0.3, 1.0, 7.0], [0.5, 1.0, 2.0, 3.5, 40.0]):
            tail = replace(tail, exponent=lam)
            # below the onset the bound starts at the onset
            t = max(y, onset)
            exact = math.exp(-lam * t) * sum(
                math.factorial(k) / math.factorial(k - j) * t ** (k - j) / lam ** (j + 1)
                for j in range(k + 1)
            )
            bound = tail.weighted_tail_upper(float(k), y)
            assert factor * constant * exact <= bound * (1 + 1e-14)
            if k == 0:  # the bound is exact
                assert bound == pytest.approx(factor * constant * exact, rel=1e-14)


class TestMoment:
    def test_heavy_tail_diverges(self, stable_half):
        assert moment(stable_half.nu, 2).status.value == "diverges"

    def test_tail_mass_converges(self, stable_half):
        assert moment(stable_half.nu, 0).status.value == "converges"

    def test_lattice_second_moment_value(self):
        law = make_power_law_lattice(2.5)
        v = moment(law, 2, cutoff=10 ** 6)
        # oracle: 2 * (zeta(3/2) - 1), the exact two-sided sum over |n| >= 2
        assert v.status.value == "converges"
        assert v.estimate == pytest.approx(2 * (ZETA_15 - 1.0), abs=1e-6)
        lo, hi = v.value_interval
        assert lo <= 2 * (ZETA_15 - 1.0) <= hi

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_exact_head_stops_at_the_table(self, k):
        # exact component from lag 1: the head is empty (1 < |y| <= 1) and
        # the value is the Hurwitz tail 2 (zeta(3.5 - k) - 1), to rounding
        import mpmath as mp

        v = moment(make_power_law_lattice(2.5), k)
        assert v.truncation == "lattice sum over 1 < n*delta <= 1"
        with mp.workdps(30):
            ref = 2 * (mp.zeta(3.5 - k) - 1)
        assert v.value.hi - v.value.lo <= 1e-14 * v.value.hi
        assert v.value.lo <= ref <= v.value.hi

    def test_inexact_head_is_capped_before_allocation(self, flat_core_heavy):
        # unit bins carry an inexact component, so the head ends at lag 1e6
        # however far the cutoff lies; a mass function that refuses more
        # lags trips if a head of 1e12 lags is ever asked for
        binned = bin_density(flat_core_heavy, 1.0)

        def capped(n, _mass=binned.support.mass_fn):
            assert np.size(n) <= LATTICE_SERIES_CUTOFF
            return _mass(n)

        law = replace(binned, support=replace(binned.support, mass_fn=capped))
        v = moment(law, 0, cutoff=1e12)
        assert v.truncation == f"lattice sum over 1 < n*delta <= {LATTICE_SERIES_CUTOFF:g}"
        assert v.status.value == "converges"
        assert v.value.lo <= v.estimate <= v.value.hi < math.inf

    def test_bad_order_rejected(self, stable_half):
        with pytest.raises(DomainError):
            moment(stable_half.nu, 4)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_table_past_the_cutoff(self, k):
        # lag 20 sits at 2e6, past the cutoff 1e6: it belongs to the tail
        finite = make_lattice_table({1: 0.2, 20: 0.3}, spacing=1e5)
        direct = 2.0 * (0.2 * 1e5 ** k + 0.3 * 2e6 ** k)
        v = moment(finite, k)
        assert v.status.value == "converges"
        assert v.partial_value == pytest.approx(2.0 * 0.2 * 1e5 ** k, rel=1e-15)
        assert v.estimate == pytest.approx(direct, rel=1e-15)
        assert v.value_interval[0] <= direct <= v.value_interval[1]
        # with a power tail past the table, lag 20 is still summed exactly
        tail = TailDescriptor(TailKind.POWER_LAW, exponent=5.5, constant=0.1, onset=21.0)
        power = make_lattice_table({1: 0.2, 20: 0.3}, spacing=1e5, tail=tail)
        beyond = 2.0 * 1e5 ** k * 0.1 * float(zeta(5.5 - k, 21))
        assert moment(power, k).estimate == pytest.approx(direct + beyond, rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [0, 2])
    def test_gaussian_partial_matches_erfc(self, sigma, k, gaussian_upper_moment):
        # the partial is two-sided over 1 < |y| <= cutoff; the bump of the
        # density sits at the left end of that range
        v = moment(make_gaussian_density(sigma), k, cutoff=1e6)
        exact = 2.0 * gaussian_upper_moment(sigma, 1.0, 1e6, k)
        assert v.status.value == "converges"
        assert v.partial_value == pytest.approx(exact, rel=1e-9)


class TestPanelIntegrals:
    def test_rules_integrate_polynomials_exactly(self):
        # 15-point Kronrod: degree 22; embedded 7-point Gauss: degree 13
        for d in range(0, 23, 2):
            assert GK15_KRONROD @ GK15_NODES ** d == pytest.approx(2.0 / (d + 1), abs=1e-15)
        for d in range(0, 14, 2):
            assert GK15_GAUSS @ GK15_NODES ** d == pytest.approx(2.0 / (d + 1), abs=1e-15)

    def test_panels_add_up(self, gaussian_upper_moment):
        law = make_gaussian_density(1.0)
        edges = np.geomspace(1.0, 40.0, 400)
        panels, err = panel_integrals(lambda y: y ** 2 * law.density(y), edges)
        assert panels.shape == (399,)
        assert err < 1e-14
        assert np.sum(panels) == pytest.approx(gaussian_upper_moment(1.0, 1.0, 40.0, 2), rel=1e-13)

    def test_coarse_panel_is_refined(self, gaussian_upper_moment):
        # one panel over the whole bump: bisection refines it, and the
        # refined parts come back summed into that one panel
        law = make_gaussian_density(1.0)
        panels, err = panel_integrals(lambda y: y ** 2 * law.density(y), [1.0, 20.0])
        exact = gaussian_upper_moment(1.0, 1.0, 20.0, 2)
        assert panels.shape == (1,)
        assert err <= 1e-10 * exact
        assert panels[0] == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_endpoint_singularity_converges(self):
        # the nodes never touch 0, so bisection closes in on the singularity
        panels, _ = panel_integrals(lambda y: y ** -0.5, [0.0, 1.0])
        assert float(np.sum(panels)) == pytest.approx(2.0, rel=1e-10, abs=0.0)

    def test_divergent_integral_raises_at_cap(self):
        calls = []

        def inverse(y):
            calls.append(y.shape[0])
            return 1.0 / y

        with pytest.raises(NumericError, match=str(PANEL_CAP)):
            panel_integrals(inverse, [0.0, 1.0])
        assert sum(calls) - 1 <= PANEL_CAP  # panels added before the refusal

    def test_signed_integrand_uses_absolute_tolerance(self):
        # int_0^{2 pi} cos = 0: the tolerance is taken of int |cos| = 4, not
        # of 0, so one bisection is enough
        calls = []

        def cosine(y):
            calls.append(y.shape[0])
            return np.cos(y)

        panels, err = panel_integrals(cosine, [0.0, 2.0 * math.pi])
        assert abs(float(panels[0])) < 1e-14
        assert err <= 4e-10
        assert calls == [1, 2]


def _sin2(xi, law):
    """One side's integrand of psi's jump part, ``2 sin^2(xi y / 2) f(y)``, at one xi."""
    return lambda y: 2.0 * np.sin(xi * y / 2.0) ** 2 * law.density(y)


class TestGroupedPanelIntegrals:
    """A 2-D ``edges``: one integral per row, each with its own budget, bisection and cap."""

    XI = np.concatenate([[1e-6], np.geomspace(1e-5, 10.0, 30)])

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_rows_match_their_own_passes(self, sigma):
        law = make_gaussian_density(sigma)
        onset, decay = law.tail.onset, law.tail.exponent
        edges = [0.0, onset, onset + 60.0 / decay]  # the head of psi's generic-density pass
        xi = self.XI
        panels, err = panel_integrals(
            lambda y, row: 2.0 * np.sin(xi[row] * y / 2.0) ** 2 * law.density(y),
            np.tile(edges, (len(xi), 1)),
        )
        assert panels.shape == (len(xi), 2) and err.shape == (len(xi),)
        for x, got, got_err in zip(xi, panels, err):
            want, _ = panel_integrals(_sin2(x, law), edges)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
            assert got_err <= 1e-10 * np.sum(got)  # its own budget: the row's integral
        # xi = 1e-6, with psi about 1e-12, keeps its relative accuracy beside xi = 10
        closed = -math.expm1(-(sigma * 1e-6) ** 2 / 2.0)
        assert 2.0 * np.sum(panels[0]) == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_power_tail_density_matches_per_point_passes(self):
        # a generic density (no pieces) with an exact K y^-rho tail past the
        # onset: psi's head is the grouped pass, the tail the closed form
        k, rho, onset = 0.2, 2.5, 2.0
        law = SymmetricJumpLaw(
            support=ContinuousSupport(
                density_fn=lambda y: np.where(y < onset, 0.3 * np.exp(-y), k * y ** -rho)
            ),
            normalization=Normalization.SIGMA_FINITE,
            tail=TailDescriptor(TailKind.POWER_LAW, exponent=rho, constant=k, onset=onset),
        )
        got = char_exponent(LevyTriplet(c=0.0, nu=law), self.XI)
        for x, psi in zip(self.XI, got):
            head = np.sum(panel_integrals(_sin2(x, law), [0.0, onset])[0])
            tail = k * x ** (rho - 1.0) * one_minus_cos_tail(rho, x * onset)
            assert psi == pytest.approx(2.0 * (head + tail), rel=1e-14, abs=0.0)

    def test_each_row_has_its_own_cap(self):
        # y^-0.9 on [0, 1] needs about 600 added panels: two rows need more
        # than PANEL_CAP together, but each stays under it
        panels, err = panel_integrals(lambda y, row: y ** -0.9, [[0.0, 1.0], [0.0, 1.0]])
        assert panels[:, 0] == pytest.approx([10.0, 10.0], rel=1e-9)
        assert np.all(err <= 1e-9)

    def test_row_past_the_cap_raises(self):
        law = make_gaussian_density(1.0)
        xi = np.array([1.0, 1e300])
        with pytest.raises(NumericError, match=str(PANEL_CAP)):
            panel_integrals(
                lambda y, row: 2.0 * np.sin(xi[row] * y / 2.0) ** 2 * law.density(y),
                [[0.0, 8.0], [0.0, 8.0]],
            )

    def test_row_not_finite_raises(self):
        with pytest.raises(NumericError, match="not finite"):
            panel_integrals(lambda y, row: np.where(row == 1, np.nan, y), [[0.0, 1.0], [0.0, 1.0]])


class TestPiecewisePower:
    def test_probability_detection(self, flat_core_heavy):
        assert flat_core_heavy.normalization is Normalization.PROBABILITY
        assert flat_core_heavy.total_mass == pytest.approx(1.0)

    def test_density_evaluation(self, flat_core_heavy):
        assert flat_core_heavy.density(0.5) == pytest.approx(1 / 6)
        assert flat_core_heavy.density(4.0) == pytest.approx((1 / 6) * 4.0 ** -1.5)

    def test_sigma_finite_needs_levy_integrability(self):
        with pytest.raises(DomainError):
            make_piecewise_power([PowerPiece(0.0, math.inf, ((1.0, 3.5),))])
        with pytest.raises(DomainError):  # infinite mass at infinity
            make_piecewise_power([PowerPiece(0.0, math.inf, ((1.0, 0.5),))])

    def test_pieces_must_tile(self):
        with pytest.raises(DomainError):
            make_piecewise_power(
                [PowerPiece(0.0, 1.0, ((1.0, 0.0),)), PowerPiece(2.0, 3.0, ((1.0, 0.0),))]
            )


class TestLawAndTripletValidation:
    def test_unimodal_lattice_forbidden(self):
        with pytest.raises(DomainError):
            make_power_law_lattice(0.5).__class__(
                support=make_power_law_lattice(0.5).support,
                normalization=Normalization.FINITE,
                tail=make_power_law_lattice(0.5).tail,
                total_mass=2 * ZETA_15,
                unimodal=True,
            )

    @pytest.mark.parametrize(
        "max_lag,components,tail",
        [
            (None, (), TailDescriptor(TailKind.COMPACT_SUPPORT)),  # infinite, no tail model
            (None, (), TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=1.0)),
            (5, (), TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=1.0)),
            (5, (PowerTailComponent(1.0, 1.5),), TailDescriptor(TailKind.COMPACT_SUPPORT)),
            (5, (PowerTailComponent(1.0, 1.5),),
             TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=1.0)),
            (None, (PowerTailComponent(1.0, 1.5),), TailDescriptor(TailKind.UNKNOWN)),
        ],
    )
    def test_lattice_support_is_finite_or_power_modelled(self, max_lag, components, tail):
        support = LatticeSupport(
            spacing=1.0, mass_fn=lambda n: np.asarray(n, float) ** -1.5,
            components=components, max_lag=max_lag,
        )
        with pytest.raises(DomainError, match="finite .* or power-modelled"):
            SymmetricJumpLaw(support=support, normalization=Normalization.FINITE, tail=tail)

    @pytest.mark.parametrize("stride, offset", [(3, 0), (3, 2), (0, 0), (2, 2)])
    def test_component_stride_is_one_or_two(self, stride, offset):
        with pytest.raises(DomainError, match="stride must be 1 or 2"):
            PowerTailComponent(1.0, 1.5, stride=stride, offset=offset)

    def test_triplet_rejects_probability_law(self, power_half_prob):
        with pytest.raises(DomainError):
            LevyTriplet(c=0.0, nu=power_half_prob)
        t = make_walk_triplet(power_half_prob)
        assert t.nu.normalization is Normalization.FINITE
        assert t.b == 0.0

    def test_gaussian_variance_must_be_a_positive_float(self):
        with pytest.raises(DomainError):
            make_gaussian_density(1e-300)  # sigma^2 underflows to 0
        with pytest.raises(DomainError):
            make_gaussian_density(1e300)  # sigma^2 overflows

    def test_negative_gaussian_coefficient(self):
        with pytest.raises(DomainError):
            LevyTriplet(c=-1.0, nu=None)

    def test_tail_mass_envelope(self, multi_default):
        lo, hi = multi_default.one_sided_tail_mass(10.0)
        cutoff = 3 * 10 ** 6
        n = np.arange(11, cutoff)
        brute = float(np.sum(multi_default.mass(n)))
        missing = 2.0 * cutoff ** -0.5  # integral bound on the un-summed tail
        assert brute <= hi
        assert lo <= brute + missing
        assert hi - lo < 1e-12  # exact components: envelope is a point

    def test_table_lag_capped_before_allocating(self, monkeypatch):
        from levycrit import measures

        law = make_lattice_table({LATTICE_SERIES_CUTOFF: 0.25, 1: 0.25})
        assert law.mass(LATTICE_SERIES_CUTOFF) == 0.25

        def tripwire(*args, **kwargs):
            raise AssertionError("mass table allocated before the lag cap was checked")

        monkeypatch.setattr(measures.np, "zeros", tripwire)
        for lag in (LATTICE_SERIES_CUTOFF + 1, 10 ** 12):
            with pytest.raises(DomainError, match="exceeds the cap"):
                make_lattice_table({lag: 0.25, 1: 0.25})

    def test_total_mass_interval_table(self):
        law = make_lattice_table({1: 0.25, 2: 0.25})
        lo, hi = law.one_sided_tail_mass(0.0)
        m0 = law.support.origin_mass
        assert m0 + 2.0 * lo == m0 + 2.0 * hi == pytest.approx(1.0)
        assert law.normalization is Normalization.PROBABILITY
