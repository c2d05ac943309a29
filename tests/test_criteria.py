import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import zeta

from levycrit import (
    Basis,
    Classification,
    DomainError,
    HypothesisViolationError,
    Interval,
    PowerPiece,
    Status,
    TailDescriptor,
    TailKind,
    chung_fuchs_criterion,
    char_exponent,
    classify,
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
from levycrit.criteria import CF_EPS, _cf_lower_constant, _density_floor_cutoff
from levycrit.measures import (
    LATTICE_SERIES_CUTOFF,
    LatticeSupport,
    Normalization,
    SymmetricJumpLaw,
    make_gaussian_density,
    stable_levy_density_constant,
)
from levycrit.tails import CUTOFF_MAX, PowerTailComponent
from levycrit.verdicts import enclosure
from test_measures import LATTICE_LAWS

ZETA_15 = 2.612375348685488


def _inverse_cubic_reference(law):
    """``sum 1/(n^3 m(n))`` in 40 digits: the table, then each class's Hurwitz zeta."""
    with mp.workdps(40):
        top = law.support.top
        total = mp.fsum(1 / (mp.mpf(n) ** 3 * mp.mpf(float(law.mass(n)))) for n in range(1, top + 1))
        for c in law.components:
            first = top + 1 + (c.offset - top - 1) % c.stride  # first class lag past the table
            s = 3 - mp.mpf(c.exponent)
            total += mp.mpf(c.stride) ** -s * mp.zeta(s, mp.mpf(first) / c.stride) / mp.mpf(c.constant)
        return total


EXACT_LAWS = {
    **{name: law for name, law in LATTICE_LAWS.items() if law.components
       and all(c.exact for c in law.components)},
    "power_lattice(0.9, normalized)": make_power_law_lattice(0.9, normalize=True),
    "table_10_lags": make_lattice_table(
        {k: 1e-6 for k in range(1, 11)},
        tail=TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=0.05),
    ),
}


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

    @pytest.mark.parametrize("alpha", [1005.0, 1015.0, 1021.0])
    def test_underflowed_mass_gives_inf_partial(self, alpha):
        # n^-(alpha+1) is 0 in float64 from lag 3 on; the masses are positive,
        # so the summand is +inf, reported without a hypothesis error or warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law in (
                make_power_law_lattice(alpha),
                make_multi_index_lattice(alpha, alpha),
            ):
                v = inverse_cubic_lattice_criterion(law)
                assert v.status is Status.DIVERGES
                # the head stops at the table; the underflowing class is the tail's
                assert v.value.lo == math.inf
                ic = {e.criterion: e for e in classify(make_walk_triplet(law)).evidence}
                assert ic["inverse_cubic"].verdict.status is Status.DIVERGES

    def test_declared_zero_mass_violates_hypothesis(self):
        tail = TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=0.1, onset=4.0)
        law = make_lattice_table({1: 0.2, 2: 0.0, 3: 0.05}, tail=tail)
        with pytest.raises(HypothesisViolationError, match="lag 2"):
            inverse_cubic_lattice_criterion(law)
        # an even-lag power component says nothing about the empty odd lags past 1
        even = PowerTailComponent(constant=1.0, exponent=1.5, stride=2, offset=0, start=2)
        even_only = SymmetricJumpLaw(
            support=LatticeSupport(
                spacing=1.0,
                mass_fn=lambda n: np.where(n % 2 == 0, n ** -1.5, np.where(n == 1, 0.5, 0.0)),
                components=(even,),
            ),
            normalization=Normalization.FINITE,
            tail=TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=1.0, onset=2.0),
        )
        with pytest.raises(HypothesisViolationError, match="lag 3 "):
            inverse_cubic_lattice_criterion(even_only)

    @pytest.mark.parametrize("name", EXACT_LAWS)
    def test_exact_laws_meet_the_hurwitz_reference(self, name):
        # exact components: the head stops at the table and the interval
        # collapses to the value, which an mpmath Hurwitz sum must lie in
        law = EXACT_LAWS[name]
        v = inverse_cubic_lattice_criterion(law)
        assert v.truncation.startswith(f"series to n={law.support.top}")
        if max(c.exponent for c in law.components) >= 2.0:
            assert v.status is Status.DIVERGES
            assert v.value == Interval(math.inf, math.inf)
            return
        ref = _inverse_cubic_reference(law)
        assert v.status is Status.CONVERGES
        assert v.value.hi - v.value.lo <= 1e-14 * v.value.hi
        assert v.value.lo <= ref <= v.value.hi

    def test_inexact_tail_keeps_the_long_head(self):
        # factors 0.9/1.1 on the tail past 10 lags of 1e-6: the head runs to
        # LATTICE_SERIES_CUTOFF, where the envelope is narrow
        tail = TailDescriptor(
            TailKind.POWER_LAW, exponent=1.5, constant=0.05, lower_factor=0.9, upper_factor=1.1
        )
        law = make_lattice_table({k: 1e-6 for k in range(1, 11)}, tail=tail)
        v = inverse_cubic_lattice_criterion(law)
        assert v.truncation.startswith(f"series to n={LATTICE_SERIES_CUTOFF};")
        direct = sum(1e6 / k ** 3 for k in range(1, 11)) + float(zeta(1.5, 11)) / 0.05
        assert v.value.lo <= direct <= v.value.hi
        assert v.value.hi - v.value.lo < 0.01


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

    @pytest.mark.parametrize("cutoff", [10.0, 1e4, CUTOFF_MAX])
    @pytest.mark.parametrize("law", [
        *(make_stable_triplet(a, 1.0).nu for a in (0.3, 0.9995, 1.5, 1.9)),
        *(make_piecewise_power([PowerPiece(0.0, 1.0, ((0.2, 0.0),)),
                                PowerPiece(1.0, math.inf, ((0.2, rho),))])
          for rho in (1.2, 2.5, 2.9)),
    ], ids=["stable0.3", "stable0.9995", "stable1.5", "stable1.9",
            "flat1.2", "flat2.5", "flat2.9"])
    def test_partial_matches_power_closed_form(self, law, cutoff):
        # f = K y^-rho on [1, inf): int_1^top y^(rho-3)/K dy = (top^(rho-2) - 1)/((rho-2) K),
        # in 30 digits; top is where the density falls to the floor, if before the cutoff
        v = inverse_cubic_density_criterion(law, cutoff)
        top = _density_floor_cutoff(law, cutoff)
        rho, k = law.tail.exponent, law.tail.constant
        with mp.workdps(30):
            q = mp.mpf(rho) - 2
            exact = float(mp.expm1(q * mp.log(top)) / (q * mp.mpf(k)))
        assert v.partial_value == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_panel_error_widens_the_enclosure(self, gaussian_law):
        # 1/f of a gaussian explodes, so the pass's |K15 - G7| stands well above
        # rounding; it moves the lower end out
        v = inverse_cubic_density_criterion(gaussian_law)
        assert v.status is Status.DIVERGES
        err = enclosure(v.partial_value, 0.0, math.inf).lo - v.value.lo
        assert 0.0 < err < math.inf
        assert err <= 1e-9 * v.partial_value

    def test_largest_cutoff_finds_the_gaussian_floor(self, gaussian_law):
        # the density falls to the floor near y = 35.9; an arithmetic bisection
        # of [1, 1e100] stopped at 1 and reported an empty integral
        at_default = inverse_cubic_density_criterion(gaussian_law)
        at_max = inverse_cubic_density_criterion(gaussian_law, CUTOFF_MAX)
        assert at_max.truncation == at_default.truncation == "integral over [1, 35.8833]"
        assert at_max.partial_value == at_default.partial_value > 1e273

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

    @pytest.mark.parametrize("alpha", [0.02, 0.5])
    def test_stable_enclosure_contains_closed_form(self, alpha):
        # I(y) = (K/alpha)(1/2 + (y^(2-alpha) - 1)/(2-alpha)) in closed form,
        # integrated over [1, inf) in log y
        from scipy import integrate

        k_const = stable_levy_density_constant(alpha, 1.0)

        def outer(t):  # y / I(y) at y = e^t, in powers of 1/y
            q = math.exp(-(2.0 - alpha) * t)
            return math.exp(-(1.0 - alpha) * t) / (
                k_const / alpha * (0.5 * q + (1.0 - q) / (2.0 - alpha))
            )

        ref, _ = integrate.quad(outer, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        v = sato_shepp_criterion(make_stable_triplet(alpha, 1.0).nu)
        assert v.status is Status.CONVERGES
        assert v.value.lo <= ref <= v.value.hi

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.653341, 1.0, 1.253101, 2.0])
    def test_gaussian_partial_matches_closed_form(self, sigma, gaussian_upper_moment):
        # I(y) = (y^2 nu((y, inf)) + int_1^y z^2 f) / 2 in closed form,
        # integrated by quad in log y; the bump of the density sits at the
        # left end of every [1, y]
        from scipy import integrate

        def outer(t):
            y = math.exp(t)
            return y / (0.5 * (
                y * y * gaussian_upper_moment(sigma, y, math.inf, 0)
                + gaussian_upper_moment(sigma, 1.0, y, 2)
            ))

        oracle, _ = integrate.quad(outer, 0.0, math.log(1e4), epsabs=0.0, epsrel=1e-13, limit=200)
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

    def test_lattice_lag_cap_checked_first(self):
        # 1e4 / 1e-3 = 1e7 lags would need about 1 GB of masses: refused
        # before any mass is read, and classify records the criterion as
        # not evaluated
        armed = [True]

        def mass_fn(n):
            if armed[0]:
                raise AssertionError("a mass was read before the lag cap was checked")
            return 1e-3 * np.asarray(n, dtype=float) ** -1.5

        law = SymmetricJumpLaw(
            support=LatticeSupport(
                spacing=1e-3, mass_fn=mass_fn,
                components=(PowerTailComponent(constant=1e-3, exponent=1.5),),
            ),
            normalization=Normalization.FINITE,
            tail=TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=1e-3),
        )
        with pytest.raises(DomainError, match="exceed the cap of 1000000"):
            sato_shepp_criterion(law)
        armed[0] = False
        ss = {e.criterion: e.verdict for e in classify(make_walk_triplet(law)).evidence}
        assert ss["sato_shepp"].truncation == "criterion not evaluated"
        assert "exceed the cap" in ss["sato_shepp"].note

    @pytest.mark.parametrize("delta", [1.0, 1.0 / 16.0, 1.0 / 64.0])
    def test_binned_enclosure_contains_piecewise_reference(self, flat_core_heavy, delta):
        # the binned flat core (rho = 1.5) has nbar(y) = F((n + 1/2) delta) on
        # [n delta, (n + 1) delta), F(t) = t^-1/2 / 3 the density's mass past
        # t, so I(y) = c + t y^2 / 2 there and int dy / I(y) is an arctan per
        # piece up to 1e4; past it I grows as the continuous (2/9) y^1.5
        from scipy import integrate

        from levycrit.discretize import bin_density

        y_top = 1e4
        n = np.arange(round(1.0 / delta), round(y_top / delta) + 1)
        a, b = delta * n[:-1], delta * n[1:]
        t = (delta * (n[:-1] + 0.5)) ** -0.5 / 3.0
        i_a = t[0] / 2.0 + np.concatenate([[0.0], np.cumsum(t * (b * b - a * a) / 2.0)])
        c = i_a[:-1] - t * a * a / 2.0  # c = 0 on the first piece: I(1) = nbar(1) / 2
        head = 2.0 / t[0] * (1.0 / a[0] - 1.0 / b[0])
        c, t, a, b = c[1:], t[1:], a[1:], b[1:]
        s = np.sqrt(t / (2.0 * c))
        head += float(np.sum(np.arctan((b - a) * s / (1.0 + a * b * s * s)) / (c * s)))
        rest, _ = integrate.quad(
            lambda y: 1.0 / (i_a[-1] + 2.0 / 9.0 * (y ** 1.5 - y_top ** 1.5)), y_top, math.inf
        )
        v = sato_shepp_criterion(bin_density(flat_core_heavy, delta))
        assert v.status is Status.CONVERGES
        assert v.value.lo <= head + rest <= v.value.hi

    @pytest.mark.parametrize(
        "law",
        [
            make_lattice_table({1: 0.1, 2: 0.05, 4: 0.2, 7: 0.03, 10: 0.02}, spacing=0.3),
            make_lattice_table(
                {1: 0.2, 2: 0.1, 3: 0.05}, spacing=0.7,
                tail=TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=0.05, onset=2.1),
            ),
        ],
        ids=["finite_delta_0.3", "tailed_delta_0.7"],
    )
    def test_lattice_cell_sum_matches_gauss_legendre(self, law):
        # I(y) from its definition, (y^2 nu((y, inf)) + sum_{1 < k delta <= y}
        # (k delta)^2 m(k)) / 2, integrated by a 10-point Gauss-Legendre rule
        # on every cell between lattice points; at delta = 0.7, 1 lies inside
        # the first cell
        delta, cutoff = law.spacing, 1e4
        n = np.arange(math.floor(1.0 / delta), math.ceil(cutoff / delta))
        a = np.maximum(n * delta, 1.0)
        b = np.minimum((n + 1) * delta, cutoff)
        x, w = np.polynomial.legendre.leggauss(10)
        y = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
        lags = np.arange(1, n[-1] + 2)
        masses, pos = law.mass(lags), lags * delta
        rest = 0.0  # the masses past the summed lags
        if law.components:
            rest = 0.05 * float(zeta(1.5, lags[-1] + 1))
        past = np.append(np.cumsum(masses[::-1])[::-1], 0.0) + rest
        moment2 = np.concatenate([[0.0], np.cumsum(np.where(pos > 1.0, pos ** 2 * masses, 0.0))])
        k = np.floor(y / delta).astype(int)  # the nodes sit inside the cells
        inner = 0.5 * (y * y * past[k] + moment2[k])
        ref = float(np.sum(0.5 * (b - a) * ((1.0 / inner) @ w)))
        v = sato_shepp_criterion(law, cutoff)
        assert v.partial_value == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert v.value.lo <= ref

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

    def test_partial_matches_scipy_quad(self, multi_default):
        # 2 int xi / psi over t = log xi in [log CF_EPS, 0] by quad lies
        # within the panel error that widens the reported lower end
        from scipy import integrate

        triplet = make_walk_triplet(multi_default)
        half, _ = integrate.quad(
            lambda t: math.exp(t) / char_exponent(triplet, math.exp(t)),
            math.log(CF_EPS), 0.0, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        v = chung_fuchs_criterion(triplet)
        err = v.partial_value - v.value.lo
        assert abs(2.0 * half - v.partial_value) <= err

    def test_power_lattice_enclosure_contains_polylog_reference(self):
        # psi = 2 C (zeta(s) - Re Li_s(e^(i xi))), s = 1.05, from mpmath,
        # integrated in log xi by a 10-point Gauss-Legendre rule per decade
        # down to 1e-20; the rest is below 1e-18
        law = make_power_law_lattice(0.05, normalize=True)
        c, s = law.mass(1), mp.mpf(1.05)
        zeta_s = mp.zeta(s)
        x, w = np.polynomial.legendre.leggauss(10)
        ref = 0.0
        for lo in np.arange(-20.0, 0.0) * math.log(10.0):
            ts = lo + 0.5 * math.log(10.0) * (1.0 + x)
            psi = [2.0 * c * float(zeta_s - mp.re(mp.polylog(s, mp.expj(math.exp(t))))) for t in ts]
            ref += math.log(10.0) * float(w @ (np.exp(ts) / np.array(psi)))
        v = chung_fuchs_criterion(make_walk_triplet(law))
        assert v.value.lo <= ref <= v.value.hi

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
        for xi in np.geomspace(1e-10, CF_EPS, 9):
            assert char_exponent(triplet, xi) >= c_lo * xi ** (rho - 1.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05, 0.25, 0.5])
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


class TestWindowArguments:
    """Bad windows end in a DomainError before psi, a mass or a density is read."""

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, -1.0, CF_EPS])
    def test_chung_fuchs_window(self, stable_half, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="a must be finite"):
                chung_fuchs_criterion(stable_half, a=a)
            verdict = classify(stable_half, a=a)
        assert verdict.evidence[0].verdict.truncation == "criterion not evaluated"

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, 0.5, 1.0, -1.0, 1e300])
    def test_sato_shepp_cutoff(self, stable_half, power_half_raw, cutoff):
        for law in (stable_half.nu, power_half_raw):
            with pytest.raises(DomainError, match="cutoff must be finite"):
                sato_shepp_criterion(law, cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, 0.5, 1.0, -1.0, 1e300])
    def test_inverse_cubic_density_cutoff(self, stable_half, cutoff):
        with pytest.raises(DomainError, match="cutoff must be finite"):
            inverse_cubic_density_criterion(stable_half.nu, cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, -1.0, 0.5, 1e300])
    def test_moment_cutoff(self, power_half_raw, stable_half, gaussian_law, cutoff):
        # a moment's window is [1, CUTOFF_MAX]: below 1 it would sum an
        # empty head, past the bound y^3 overflows
        from levycrit import moment

        for law in (power_half_raw, stable_half.nu, gaussian_law):
            for k in range(4):
                with pytest.raises(DomainError, match="cutoff must be finite"):
                    moment(law, k, cutoff=cutoff)

    def test_huge_cutoff_refused(self, stable_half, gaussian_law):
        # past the shared bound y^3 overflows: refused before any evaluation
        from levycrit import moment

        for call in (
            lambda: sato_shepp_criterion(stable_half.nu, cutoff=1e300),
            lambda: sato_shepp_criterion(gaussian_law, cutoff=1e300),
            lambda: inverse_cubic_density_criterion(stable_half.nu, cutoff=1e300),
            lambda: moment(gaussian_law, 3, cutoff=1e300),
            lambda: moment(gaussian_law, 3, cutoff=CUTOFF_MAX * 1.01),
        ):
            with pytest.raises(DomainError, match="cutoff must be finite"):
                call()

    def test_largest_cutoff_stays_finite(self, stable_half, gaussian_law, flat_core_heavy):
        # under the suite's error::RuntimeWarning filter: no overflow at the bound
        from levycrit import moment

        for law in (stable_half.nu, gaussian_law, flat_core_heavy):
            assert sato_shepp_criterion(law, cutoff=CUTOFF_MAX).partial_value > 0.0
            for k in range(4):
                assert moment(law, k, cutoff=CUTOFF_MAX).value.lo > 0.0
        assert not inverse_cubic_density_criterion(stable_half.nu, cutoff=CUTOFF_MAX).value.infinite


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
        # both jump routes fail, each with its own exception's note
        cf, ic, ss = verdict.evidence
        assert cf.verdict == chung_fuchs_criterion(triplet)
        for e, error in ((ic, "HypothesisViolationError"), (ss, "NumericError")):
            assert (e.implication, e.verdict.status) == ("none", Status.INCONCLUSIVE)
            assert e.verdict.truncation == "criterion not evaluated"
            assert e.verdict.note.startswith(f"{error}: ")

    @pytest.mark.parametrize("failing", ["chung_fuchs", "inverse_cubic", "sato_shepp"])
    def test_failing_route_leaves_the_others(self, monkeypatch, failing):
        # the route table reads the module's criteria at call time
        from levycrit import criteria
        from levycrit.measures import NumericError

        triplet = make_stable_triplet(0.5, 1.0, unimodal=True)
        before = classify(triplet).evidence

        def boom(*args, **kwargs):
            raise NumericError("injected")

        attr = {"chung_fuchs": "chung_fuchs_criterion", "sato_shepp": "sato_shepp_criterion",
                "inverse_cubic": "inverse_cubic_density_criterion"}[failing]
        monkeypatch.setattr(criteria, attr, boom)
        after = classify(triplet).evidence
        assert [e.criterion for e in after] == ["chung_fuchs", "inverse_cubic", "sato_shepp"]
        for old, new in zip(before, after):
            if new.criterion == failing:
                assert new.implication == "none"
                assert new.verdict.status is Status.INCONCLUSIVE
                assert new.verdict.basis is Basis.NUMERIC_ONLY
                assert new.verdict.truncation == "criterion not evaluated"
                assert new.verdict.note == "NumericError: injected"
                assert new.verdict.value == Interval(0.0, math.inf)
            else:
                assert new == old

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
