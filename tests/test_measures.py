import math

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
    make_lattice_table,
    make_multi_index_lattice,
    make_piecewise_power,
    make_power_law_lattice,
    make_stable_triplet,
    make_walk_triplet,
    moment,
)
from levycrit.measures import (
    NumericError,
    check_probability,
    make_gaussian_density,
    total_mass_interval,
)
from levycrit.powerint import GK15_GAUSS, GK15_KRONROD, GK15_NODES, PANEL_CAP, panel_integrals

ZETA_15 = 2.612375348685488  # zeta(3/2)


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
        assert check_probability(law) == pytest.approx(1.0, abs=1e-10)
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
        [(a, None) for a in (0.05, 0.5, 0.9995, 1.5, 1.99)] + [(0.5, 1.5), (1.5, 0.5)],
    )
    def test_lattice_small_xi_matches_polylog_oracle(self, alpha, beta):
        # oracle: sum C n^-s (1 - cos(n u)) over all, even or odd lags n is
        # a difference of polylogarithms, zeta(s) - Re Li_s(e^{iu}), at 30 digits
        import mpmath as mp

        def class_sum(s, lags, u):
            even = 2 ** -s * (mp.zeta(s) - mp.re(mp.polylog(s, mp.exp(2j * u))))
            if lags == "even":
                return even
            every = mp.zeta(s) - mp.re(mp.polylog(s, mp.exp(1j * u)))
            return every if lags == "all" else every - even

        if beta is None:
            law = make_power_law_lattice(alpha, normalize=True)
            parts = [(1.0 / (2.0 * zeta(alpha + 1.0)), alpha + 1.0, "all")]
        else:
            law = make_multi_index_lattice(alpha, beta)
            parts = [(1.0, alpha + 1.0, "even"), (1.0, beta + 1.0, "odd")]
        t = make_walk_triplet(law)
        with mp.workdps(30):
            for xi in np.geomspace(1e-6, 0.05, 40):
                u = mp.mpf(float(xi))
                oracle = 2.0 * float(sum(c * class_sum(s, lags, u) for c, s, lags in parts))
                assert char_exponent(t, xi) == pytest.approx(oracle, rel=1e-5)

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

    def test_bad_order_rejected(self, stable_half):
        with pytest.raises(DomainError):
            moment(stable_half.nu, 4)

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

    def test_total_mass_interval_table(self):
        law = make_lattice_table({1: 0.25, 2: 0.25})
        lo, hi = total_mass_interval(law)
        assert lo == hi == pytest.approx(1.0)
        assert law.normalization is Normalization.PROBABILITY
