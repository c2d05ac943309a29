import math
import warnings

import numpy as np
import pytest

from levycrit import (
    Basis,
    Classification,
    HypothesisViolationError,
    PowerPiece,
    Status,
    TailDescriptor,
    TailKind,
    UnsupportedComparisonError,
    chung_fuchs_criterion,
    char_exponent,
    classify,
    compare_measures,
    inverse_cubic_density_criterion,
    inverse_cubic_lattice_criterion,
    make_lattice_table,
    make_multi_index_lattice,
    make_piecewise_power,
    make_power_law_lattice,
    make_stable_triplet,
    make_walk_triplet,
    sato_shepp_criterion,
    tail_status,
)
from levycrit.criteria import CF_GRID, SATO_SHEPP_POINTS, _cf_lower_constant
from levycrit.measures import make_gaussian_density, stable_levy_density_constant

ZETA_15 = 2.612375348685488


class TestInverseCubicLattice:
    def test_summable_case_value(self, power_half_raw):
        v = inverse_cubic_lattice_criterion(power_half_raw)
        assert v.status is Status.CONVERGES
        assert v.basis is Basis.ANALYTIC_TAIL
        # oracle: direct summation to 1e7 plus integral tail bracket
        n = np.arange(1, 10 ** 7 + 1)
        oracle_partial = float(np.sum(n ** -1.5))
        lo_t = (10 ** 7 + 1) ** -0.5 / 0.5
        hi_t = (10 ** 7) ** -0.5 / 0.5
        assert v.estimate == pytest.approx(ZETA_15, abs=1e-9)
        assert oracle_partial + lo_t <= ZETA_15 <= oracle_partial + hi_t
        lo, hi = v.value_interval
        assert lo - 1e-12 <= ZETA_15 <= hi + 1e-12  # interval is float, not ulp-tracked

    def test_harmonic_divergence(self):
        v = inverse_cubic_lattice_criterion(make_power_law_lattice(1.0))
        assert v.status is Status.DIVERGES

    def test_multi_index_odd_class_diverges(self, multi_default):
        v = inverse_cubic_lattice_criterion(multi_default)
        assert v.status is Status.DIVERGES

    def test_zero_mass_violates_hypothesis(self, nearest_neighbor):
        with pytest.raises(HypothesisViolationError):
            inverse_cubic_lattice_criterion(nearest_neighbor)

    def test_partial_monotone_in_cutoff(self, power_half_raw):
        cutoffs = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
        partials = [
            inverse_cubic_lattice_criterion(power_half_raw, cutoff=c).partial_value
            for c in cutoffs
        ]
        assert all(a < b for a, b in zip(partials, partials[1:]))


class TestInverseCubicDensity:
    def test_stable_directions(self):
        assert (
            inverse_cubic_density_criterion(make_stable_triplet(0.5, 1.0).nu).status
            is Status.CONVERGES
        )
        assert (
            inverse_cubic_density_criterion(make_stable_triplet(1.5, 1.0).nu).status
            is Status.DIVERGES
        )

    def test_closed_form_value(self, flat_core_heavy):
        # f = (1/6) y^-1.5 beyond 1: integral of y^-1.5/(1/6) over [1, inf) = 12
        v = inverse_cubic_density_criterion(flat_core_heavy)
        assert v.status is Status.CONVERGES
        assert v.estimate == pytest.approx(12.0, rel=1e-6)

    def test_compact_support_violates_hypothesis(self):
        law = make_piecewise_power([PowerPiece(0.0, 1.0, ((0.5, 0.0),))])
        with pytest.raises(HypothesisViolationError):
            inverse_cubic_density_criterion(law)

    def test_gaussian_diverges(self, gaussian_law):
        v = inverse_cubic_density_criterion(gaussian_law)
        assert v.status is Status.DIVERGES
        assert v.basis is Basis.ANALYTIC_TAIL


class TestSatoShepp:
    def test_stable_half_converges(self, stable_half):
        # closed-form inner integral: I(y) = (K/alpha)(1/2 + (y^(2-a)-1)/(2-a))
        v = sato_shepp_criterion(stable_half.nu)
        assert v.status is Status.CONVERGES
        k_const = stable_levy_density_constant(0.5, 1.0)
        a_const = k_const / 0.5

        def inner(y):
            return a_const * (0.5 + (y ** 1.5 - 1.0) / 1.5)

        from scipy import integrate

        oracle, _ = integrate.quad(lambda y: 1.0 / inner(y), 1.0, 1e4, limit=400)
        assert v.partial_value == pytest.approx(oracle, rel=1e-3)

    def test_stable_three_halves_diverges(self):
        v = sato_shepp_criterion(make_stable_triplet(1.5, 1.0).nu)
        assert v.status is Status.DIVERGES
        # same closed-form oracle as the convergent case: I(y) = A + B y^(2-a)
        k_const = stable_levy_density_constant(1.5, 1.0)
        a_const = k_const / 1.5
        from scipy import integrate

        oracle, _ = integrate.quad(
            lambda y: 1.0 / (a_const * (0.5 + (y ** 0.5 - 1.0) / 0.5)), 1.0, 1e4,
            limit=400,
        )
        assert v.partial_value == pytest.approx(oracle, rel=1e-3)

    def test_compact_support_diverges(self):
        law = make_piecewise_power([PowerPiece(0.0, 2.0, ((0.25, 0.0),))])
        v = sato_shepp_criterion(law)
        assert v.status is Status.DIVERGES
        assert "second moment" in v.note

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.653341, 1.0, 1.253101, 2.0])
    def test_gaussian_partial_matches_closed_form(self, sigma, gaussian_upper_moment):
        # I(y) = (y^2 nu((y, inf)) + int_1^y z^2 f) / 2 in closed form, fed
        # to the criterion's own trapezoid grid; the bump of the density sits
        # at the left end of every [1, y]
        def inner(y):
            return 0.5 * (
                y * y * gaussian_upper_moment(sigma, y, math.inf, 0)
                + gaussian_upper_moment(sigma, 1.0, y, 2)
            )

        ts = np.linspace(0.0, math.log(1e4), SATO_SHEPP_POINTS)
        ys = np.exp(ts)
        oracle = float(np.trapezoid(ys / np.array([inner(y) for y in ys]), ts))
        v = sato_shepp_criterion(make_gaussian_density(sigma))
        assert v.status is Status.DIVERGES
        assert v.partial_value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("alpha", [1005.0, 1015.0, 1021.0])
    def test_subnormal_inner_integral_gives_inf_partial(self, alpha):
        # I(y) is about 2^-(alpha+1) here, subnormal past alpha ~ 1010, so
        # y / I(y) exceeds every float: the partial is inf, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law in (
                make_power_law_lattice(alpha),
                make_multi_index_lattice(alpha, alpha),
            ):
                verdict = classify(make_walk_triplet(law))
                assert verdict.classification is Classification.RECURRENT
                assert not verdict.conflict
                ss = {e.criterion: e.verdict for e in verdict.evidence}["sato_shepp"]
                assert ss.status is Status.DIVERGES
                assert ss.partial_value > 1e300

    def test_lattice_applicable_without_unimodality(self, multi_default):
        v = sato_shepp_criterion(multi_default)
        assert v.status is Status.CONVERGES  # dominant exponent 1.5 < 2
        assert not multi_default.unimodal


class TestChungFuchs:
    def test_stable_half_value(self, stable_half):
        # int_{-1}^{1} |xi|^-1/2 d xi = 4
        v = chung_fuchs_criterion(stable_half, a=1.0)
        assert v.status is Status.CONVERGES
        assert v.estimate == pytest.approx(4.0, abs=2e-2)

    def test_partial_is_scipy_simpson(self, multi_default):
        # the numpy weights reproduce scipy.integrate.simpson on the same grid
        from scipy import integrate

        triplet = make_walk_triplet(multi_default)
        eps, _, n_pts = CF_GRID
        xi = np.geomspace(eps, 1.0, n_pts)
        psi = np.array([char_exponent(triplet, x) for x in xi])
        oracle = 2.0 * integrate.simpson(xi / psi, x=np.log(xi))
        got = chung_fuchs_criterion(triplet).partial_value
        assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_cauchy_boundary_diverges(self):
        v = chung_fuchs_criterion(make_stable_triplet(1.0, 1.0))
        assert v.status is Status.DIVERGES

    def test_brownian_diverges(self):
        v = chung_fuchs_criterion(make_stable_triplet(2.0, 1.0))
        assert v.status is Status.DIVERGES

    def test_multi_index_analytic(self, multi_default):
        v = chung_fuchs_criterion(make_walk_triplet(multi_default))
        assert v.status is Status.CONVERGES
        assert v.basis is Basis.ANALYTIC_TAIL

    def test_bad_window(self, stable_half):
        from levycrit import DomainError

        with pytest.raises(DomainError):
            chung_fuchs_criterion(stable_half, a=0.0)

    @pytest.mark.parametrize(
        "triplet",
        [
            make_walk_triplet(make_power_law_lattice(0.05)),
            make_walk_triplet(make_power_law_lattice(0.5)),
            make_walk_triplet(make_power_law_lattice(0.9995)),
            make_walk_triplet(make_multi_index_lattice(0.5, 1.5)),
            make_walk_triplet(make_multi_index_lattice(1.5, 0.5)),
            make_walk_triplet(make_multi_index_lattice(0.05, 1.95)),
            make_stable_triplet(0.1, 1.0),
            make_stable_triplet(0.9995, 1.0),
            make_walk_triplet(make_lattice_table(
                {1: 0.3, 2: 0.2, 3: 0.1},
                tail=TailDescriptor(TailKind.POWER_LAW, exponent=1.999, constant=1.0, onset=3.0),
            )),
        ],
        ids=lambda t: t.label,
    )
    def test_lower_constant_holds_below_eps(self, triplet):
        # psi >= C xi^(rho-1) on xi <= eps is what certifies the remainder
        rho = triplet.nu.tail.exponent
        c_lo = _cf_lower_constant(triplet.nu)
        for xi in np.geomspace(1e-10, CF_GRID[0], 9):
            assert char_exponent(triplet, xi) >= c_lo * xi ** (rho - 1.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_enclosure_contains_exact_value(self, alpha):
        # psi = |xi|^alpha: int_{-1}^{1} |xi|^-alpha d xi = 2 / (1 - alpha)
        lo, hi = chung_fuchs_criterion(make_stable_triplet(alpha, 1.0)).value_interval
        assert lo <= 2.0 / (1.0 - alpha) <= hi

    def test_boundary_stable_is_transient(self):
        verdict = classify(make_stable_triplet(0.9995, 1.0))
        assert verdict.classification is Classification.TRANSIENT
        assert not verdict.conflict

    @pytest.mark.parametrize(
        "rho, expected",
        [(1.999, Classification.TRANSIENT), (2.0, Classification.RECURRENT)],
    )
    def test_boundary_table_decided_by_tail(self, rho, expected):
        law = make_lattice_table(
            {1: 0.3, 2: 0.2, 3: 0.1},
            tail=TailDescriptor(TailKind.POWER_LAW, exponent=rho, constant=1.0, onset=3.0),
        )
        verdict = classify(make_walk_triplet(law))
        assert verdict.classification is expected
        assert not verdict.conflict
        by_name = {e.criterion: e for e in verdict.evidence}
        assert by_name["chung_fuchs"].implication == expected.value


class TestTailStatus:
    @pytest.mark.parametrize(
        "tail, status",
        [
            (TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=1.0), Status.CONVERGES),
            (TailDescriptor(TailKind.POWER_LAW, exponent=2.0, constant=1.0), Status.DIVERGES),
            (TailDescriptor(TailKind.POWER_LAW, exponent=3.5, constant=1.0), Status.DIVERGES),
            (TailDescriptor(TailKind.EXPONENTIAL, exponent=1.0, constant=1.0), Status.DIVERGES),
            (TailDescriptor(TailKind.COMPACT_SUPPORT), Status.DIVERGES),
            (TailDescriptor(TailKind.UNKNOWN), Status.INCONCLUSIVE),
        ],
    )
    def test_rule(self, tail, status):
        assert tail_status(tail)[0] is status

    def test_no_jumps_is_a_compact_tail(self):
        v = chung_fuchs_criterion(make_stable_triplet(2.0, 1.0))
        assert v.status is Status.DIVERGES
        assert "compact support tail" in v.note


class TestCompareMeasures:
    def test_identity_is_zero(self, stable_half):
        v = compare_measures(stable_half.nu, stable_half.nu)
        assert v.status is Status.CONVERGES
        assert v.partial_value == 0.0
        assert v.tail_bound == 0.0

    def test_compact_bump_converges(self):
        k_const = stable_levy_density_constant(0.5, 1.0)
        nu1 = make_stable_triplet(0.5, 1.0).nu
        nu2 = make_piecewise_power(
            [
                PowerPiece(0.0, 2.0, ((k_const, 1.5),)),
                PowerPiece(2.0, 3.0, ((k_const, 1.5), (0.05, 0.0))),
                PowerPiece(3.0, math.inf, ((k_const, 1.5),)),
            ]
        )
        v = compare_measures(nu1, nu2)
        assert v.status is Status.CONVERGES
        # oracle: int_2^3 y^2 * 0.05 dy = 0.05 * 19/3
        assert v.estimate == pytest.approx(0.05 * 19.0 / 3.0, rel=1e-9)

    def test_power_perturbation_converges(self):
        k_const = stable_levy_density_constant(0.5, 1.0)
        nu1 = make_stable_triplet(0.5, 1.0).nu
        nu2 = make_piecewise_power(
            [
                PowerPiece(0.0, 1.0, ((k_const, 1.5),)),
                PowerPiece(1.0, math.inf, ((k_const, 1.5), (k_const, 4.5))),
            ]
        )
        v = compare_measures(nu1, nu2)
        assert v.status is Status.CONVERGES
        # oracle: int_1^inf y^2 K y^-4.5 dy = K / 1.5 by closed form
        assert v.estimate == pytest.approx(k_const / 1.5, rel=1e-6)
        w = compare_measures(nu2, nu1)
        assert w.status == v.status
        assert w.partial_value == pytest.approx(v.partial_value, rel=1e-12)

    def test_perturbed_core_matches_closed_form(self):
        # the difference is 0.1 K y^-2.5 on [0, 1): weighted by y^2 it has a
        # y^-1/2 singularity at 0, and its integral is 0.2 K
        k_const = stable_levy_density_constant(1.5, 1.0)
        nu1 = make_stable_triplet(1.5, 1.0).nu
        nu2 = make_piecewise_power(
            [
                PowerPiece(0.0, 1.0, ((1.1 * k_const, 2.5),)),
                PowerPiece(1.0, math.inf, ((k_const, 2.5),)),
            ]
        )
        v = compare_measures(nu1, nu2)
        assert v.status is Status.CONVERGES
        assert v.tail_bound == 0.0
        assert v.partial_value == pytest.approx(0.2 * k_const, rel=1e-10)

    def test_gaussians_match_closed_form(self, gaussian_upper_moment):
        # two generic densities: the integrand is a narrow bump near the
        # origin of [0, 1e4]; the densities cross where y^2 = 2 ln(s) s^2/(s^2-1)
        s = 1.1
        cross = math.sqrt(2.0 * math.log(s) * s * s / (s * s - 1.0))
        exact = (
            gaussian_upper_moment(1.0, 0.0, cross, 2)
            - gaussian_upper_moment(s, 0.0, cross, 2)
            + gaussian_upper_moment(s, cross, 1e4, 2)
            - gaussian_upper_moment(1.0, cross, 1e4, 2)
        )
        v = compare_measures(make_gaussian_density(1.0), make_gaussian_density(s))
        assert v.status is Status.INCONCLUSIVE
        assert v.partial_value == pytest.approx(exact, rel=1e-10)

    def test_mixed_supports_rejected(self, stable_half, power_half_raw):
        with pytest.raises(UnsupportedComparisonError):
            compare_measures(stable_half.nu, power_half_raw)

    def test_lattice_identity(self, power_half_raw):
        v = compare_measures(power_half_raw, power_half_raw)
        assert v.status is Status.CONVERGES
        assert v.partial_value == 0.0


class TestClassify:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 1.75])
    def test_stable_sweep(self, alpha):
        verdict = classify(make_stable_triplet(alpha, 1.0))
        expected = Classification.TRANSIENT if alpha < 1.0 else Classification.RECURRENT
        assert verdict.classification is expected
        assert not verdict.conflict

    def test_multi_index_transient_via_chung_fuchs(self, multi_default):
        verdict = classify(make_walk_triplet(multi_default))
        assert verdict.classification is Classification.TRANSIENT
        by_name = {e.criterion: e for e in verdict.evidence}
        assert by_name["inverse_cubic"].verdict.status is Status.DIVERGES
        assert by_name["inverse_cubic"].implication == "none"
        assert by_name["chung_fuchs"].implication == "transient"
        # lattice support: sato-shepp convergence carries no implication
        assert by_name["sato_shepp"].implication == "none"

    def test_unimodality_flag_gates_sato_shepp(self):
        triplet = make_stable_triplet(0.5, 1.0, unimodal=False)
        verdict = classify(triplet)
        by_name = {e.criterion: e for e in verdict.evidence}
        assert by_name["sato_shepp"].implication == "none"
        verdict2 = classify(triplet, unimodal=True)
        by_name2 = {e.criterion: e for e in verdict2.evidence}
        assert by_name2["sato_shepp"].implication == "transient"

    def test_lattice_ignores_unimodal_override(self, multi_default):
        # discretely supported measures are never unimodal, even if asserted
        verdict = classify(make_walk_triplet(multi_default), unimodal=True)
        by_name = {e.criterion: e for e in verdict.evidence}
        assert by_name["sato_shepp"].verdict.status is Status.CONVERGES
        assert by_name["sato_shepp"].implication == "none"

    def test_monotone_truncation_across_criteria(self, stable_half):
        ss_parts = [
            sato_shepp_criterion(stable_half.nu, cutoff=c).partial_value
            for c in (1e2, 1e3, 1e4)
        ]
        assert all(a < b for a, b in zip(ss_parts, ss_parts[1:]))
        from levycrit import moment

        mo_parts = [
            moment(stable_half.nu, 0, cutoff=c).partial_value for c in (1e2, 1e4, 1e6)
        ]
        assert all(a < b for a, b in zip(mo_parts, mo_parts[1:]))

    def test_unknown_absorbs_failures(self, nearest_neighbor):
        # zero masses break the inverse-cubic hypothesis; CF sees exponent 2
        from levycrit.measures import as_finite_measure, LevyTriplet

        triplet = LevyTriplet(c=0.0, nu=as_finite_measure(nearest_neighbor))
        verdict = classify(triplet)
        assert verdict.classification in (Classification.RECURRENT, Classification.UNKNOWN)

    def test_gaussian_part_with_heavy_jumps_is_transient(self):
        # near xi = 0 the jump exponent (0.5) dominates the Gaussian xi^2
        # term, and the Chung-Fuchs route is two-sided, so adding a
        # diffusion to a transient jump process keeps it transient
        from levycrit import LevyTriplet, make_power_law_lattice

        triplet = LevyTriplet(c=2.0, nu=make_power_law_lattice(0.5))
        cf = chung_fuchs_criterion(triplet)
        assert cf.status is Status.CONVERGES
        verdict = classify(triplet)
        assert verdict.classification is Classification.TRANSIENT

    @pytest.mark.parametrize("alpha", [1.5, 1.75])
    def test_high_exponent_lattice_recurrent(self, alpha):
        # near the Gaussian edge psi bends towards xi^2, but the decision is
        # the declared tail's: rho = alpha + 1 >= 2 makes Chung-Fuchs and the
        # second-moment-rate route both say recurrent
        from levycrit import make_power_law_lattice as mk

        verdict = classify(make_walk_triplet(mk(alpha, normalize=True)))
        assert verdict.classification is Classification.RECURRENT
        by_name = {e.criterion: e for e in verdict.evidence}
        assert by_name["sato_shepp"].implication == "recurrent"


class TestLatticeSweep:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.25, 1.5])
    def test_power_lattice_classification(self, alpha):
        verdict = classify(make_walk_triplet(make_power_law_lattice(alpha, normalize=True)))
        expected = Classification.TRANSIENT if alpha < 1.0 else Classification.RECURRENT
        assert verdict.classification is expected
        assert not verdict.conflict

    def test_declared_tail_table_law(self):
        # explicit head masses continued by a declared exact power tail:
        # exercises the generic truncated-sum exponent path (no exact
        # cosine-transform hook)
        from levycrit import TailDescriptor, TailKind, make_lattice_table

        law = make_lattice_table(
            {1: 1.0},
            tail=TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=1.0, onset=1.0),
        )
        ic = inverse_cubic_lattice_criterion(law)
        assert ic.status is Status.CONVERGES
        verdict = classify(make_walk_triplet(law))
        assert verdict.classification is Classification.TRANSIENT


class TestDominance:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 1.75])
    def test_sato_shepp_stronger_than_inverse_cubic(self, alpha):
        nu = make_stable_triplet(alpha, 1.0).nu
        ss = sato_shepp_criterion(nu)
        ic = inverse_cubic_density_criterion(nu)
        if ss.status is Status.CONVERGES:
            assert ic.status is Status.CONVERGES
