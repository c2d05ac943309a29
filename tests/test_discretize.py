import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from levycrit import (
    Classification,
    DomainError,
    PowerPiece,
    Status,
    bin_density,
    characteristics,
    classify,
    convergence_report,
    default_test_functions,
    jensen_gap,
    make_gaussian_density,
    make_piecewise_power,
    make_walk_triplet,
)
from levycrit.discretize import truncation_function
from levycrit.powerint import log_panel_integrals


class TestBinDensity:
    def test_gaussian_center_bin(self, gaussian_law):
        binned = bin_density(gaussian_law, 1.0)
        # oracle: int_{-1/2}^{1/2} phi = erf(1/(2 sqrt 2))
        assert binned.support.origin_mass == pytest.approx(
            float(erf(1.0 / (2.0 * math.sqrt(2.0)))), abs=1e-12
        )

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
    def test_mass_conservation(self, gaussian_law, delta):
        binned = bin_density(gaussian_law, delta)
        lags = np.arange(1, binned.support.max_lag + 1)
        total = binned.support.origin_mass + 2.0 * float(np.sum(binned.mass(lags)))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("sigma,delta", [(0.5, 1.0), (1.0, 1.0), (1.0, 0.25)])
    def test_gaussian_masses_relatively_exact(self, sigma, delta, gaussian_upper_moment):
        # jensen_gap divides by the smallest masses, below 1e-97 at the last
        # bin for sigma = 0.5, so each mass must hold its own digits
        binned = bin_density(make_gaussian_density(sigma), delta)
        lags = np.arange(1, binned.support.max_lag + 1)
        exact = [
            gaussian_upper_moment(sigma, delta * (n - 0.5), delta * (n + 0.5), 0) for n in lags
        ]
        assert binned.mass(lags) == pytest.approx(exact, rel=1e-13, abs=0.0)
        origin = 2.0 * gaussian_upper_moment(sigma, 0.0, delta / 2.0, 0)
        assert binned.support.origin_mass == pytest.approx(origin, rel=1e-14)

    def test_power_tail_bin_asymptotics(self, flat_core_heavy):
        # bins of (1/6) y^-1.5 behave like (1/6) n^-1.5; ratio within 1% at n = 1000
        binned = bin_density(flat_core_heavy, 1.0)
        n = 1000
        ratio = binned.mass(n) / ((1.0 / 6.0) * n ** -1.5)
        assert ratio == pytest.approx(1.0, abs=1e-2)
        # and the certified envelope brackets the exact bin integral
        comp = binned.components[0]
        exact = (1.0 / 6.0) * ((n - 0.5) ** -0.5 - (n + 0.5) ** -0.5) / 0.5
        model = comp.constant * n ** -comp.exponent  # K n^-rho
        assert comp.lower_factor * model <= exact <= comp.upper_factor * model

    def test_symmetry_is_structural(self, gaussian_law):
        binned = bin_density(gaussian_law, 0.5)
        assert binned.mass(3) == binned.mass(3)  # single stored side
        total_side = 2.0 * float(np.sum(binned.mass(np.arange(1, 40))))
        assert total_side < 1.0

    def test_rejects_lattice_input(self, gaussian_law):
        binned = bin_density(gaussian_law, 1.0)
        with pytest.raises(DomainError):
            bin_density(binned, 0.5)

    @pytest.mark.parametrize("delta", [1.0, 0.125])
    def test_power_tail_masses_against_oracle(self, flat_core_heavy, delta):
        # narrow bins far out: b^q - a^q would lose about log10(n) digits
        import mpmath as mp

        lags = np.array([10, 100, 4095, 4096, 4097, 10 ** 5, 10 ** 6, 10 ** 7])
        got = bin_density(flat_core_heavy, delta).mass(lags)
        with mp.workdps(40):
            half = mp.mpf(1) / 2
            exact = [
                float(((delta * (n - half)) ** -half - (delta * (n + half)) ** -half) / 3)
                for n in lags.tolist()
            ]
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_piece_starting_far_out(self):
        # flat to L = 4500.3, then a y^-1.5 tail: bin 4500 straddles the
        # break, and each lag around it must match the 40-digit integral of
        # the flat part and of the tail part
        import mpmath as mp

        edge = 4500.3
        c = 1.0 / (6.0 * edge)
        k = c * edge ** 1.5
        pieces = [
            PowerPiece(0.0, edge, ((c, 0.0),)),
            PowerPiece(edge, math.inf, ((k, 1.5),)),
        ]
        law = make_piecewise_power(pieces)
        lags = np.arange(4095, 5002)
        got = bin_density(law, 1.0).mass(lags)
        with mp.workdps(40):
            e = mp.mpf(edge)
            ref = []
            for n in lags.tolist():
                a, b = mp.mpf(n) - mp.mpf(1) / 2, mp.mpf(n) + mp.mpf(1) / 2
                flat = mp.mpf(c) * max(min(b, e) - a, 0)
                power = 2 * mp.mpf(k) * (max(a, e) ** -0.5 - b ** -0.5) if b > e else 0
                ref.append(float(flat + power))
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_compact_piecewise_support_ends(self):
        # uniform on [-1.3, 1.3]: bins past 1.3 / delta + 1/2 carry nothing,
        # and a support that ends lets the exponent sum it exactly
        law = make_piecewise_power([PowerPiece(0.0, 1.3, ((0.5 / 1.3, 0.0),))])
        binned = bin_density(law, 0.25)
        lags = np.arange(1, binned.support.max_lag + 1)
        assert binned.mass(lags)[-1] == 0.0
        total = binned.support.origin_mass + 2.0 * float(np.sum(binned.mass(lags)))
        assert total == pytest.approx(1.0, abs=1e-12)
        verdict = classify(make_walk_triplet(binned))
        assert verdict.classification is Classification.RECURRENT

    def test_quadrature_cap_checked_first(self, gaussian_law):
        # a generic density needs one quad per bin; a width that would ask
        # for more than the cap is refused before the density is evaluated
        from dataclasses import replace

        from levycrit.discretize import MAX_BIN_QUADS
        from levycrit.measures import ContinuousSupport

        def tripwire(y):
            raise AssertionError("density evaluated before the cap was checked")

        law = replace(gaussian_law, support=ContinuousSupport(density_fn=tripwire))
        with pytest.raises(DomainError, match=str(MAX_BIN_QUADS)):
            bin_density(law, 1e-6)


class TestCharacteristics:
    def test_uniform_second_moment(self):
        uniform = make_piecewise_power([PowerPiece(0.0, 1.0, ((0.5, 0.0),))])
        ct = characteristics(uniform, h_radius=1.0)
        assert ct.quad_variation == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_drift_vanishes(self, gaussian_law, flat_core_heavy):
        for law in (gaussian_law, flat_core_heavy):
            assert abs(characteristics(law).drift) <= 1e-12
        binned = bin_density(gaussian_law, 0.25)
        assert abs(characteristics(binned).drift) <= 1e-12

    def test_gaussian_cosine_moment(self, gaussian_law):
        ct = characteristics(gaussian_law)
        # oracle: E[cos J] = exp(-1/2) for a standard Gaussian
        assert ct.test_integrals["cos"] == pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_truncation_function_shape(self):
        h = truncation_function(1.0)
        assert h(0.5) == 0.5
        assert h(-0.5) == -0.5
        assert h(1.5) == pytest.approx(0.5)
        assert h(2.5) == 0.0

    def test_binned_law_shares_the_reach(self):
        # one truncation rule: a binned law's tail model counts lags, and
        # its reach in lags times the spacing is the density's reach
        from levycrit.discretize import _expectation_reach

        steep = make_piecewise_power(
            [PowerPiece(0.0, 1.0, ((0.4375, 0.0),)), PowerPiece(1.0, math.inf, ((0.4375, 8.0),))]
        )
        reach = _expectation_reach(steep)
        assert 10.0 < reach < 256.0  # below the cap, so the rule itself decides
        # the binned tail envelope is a little looser, never tighter
        for delta in (1.0, 0.25, 0.125):
            assert reach <= _expectation_reach(bin_density(steep, delta)) <= 1.25 * reach

    def test_lag_cap_checked_before_allocating(self, flat_core_heavy):
        # 2.6e32 lags could not be allocated at all; the cap refuses first
        binned = bin_density(flat_core_heavy, 1e-30)
        with pytest.raises(DomainError, match="lags"):
            characteristics(binned)

    def test_rejects_non_probability(self):
        from levycrit import make_power_law_lattice

        with pytest.raises(DomainError):
            characteristics(make_power_law_lattice(0.5))  # raw measure


@pytest.fixture(scope="module")
def report(gaussian_law):
    return convergence_report(gaussian_law, [1.0, 0.5, 0.25, 0.125])


class TestConvergenceReport:

    def test_errors_strictly_decreasing(self, report):
        for name in default_test_functions():
            errs = report.errors_for(name)
            assert all(a > b for a, b in zip(errs, errs[1:])), name

    def test_orders_near_two(self, report):
        for name in default_test_functions():
            assert report.orders[name] >= 1.8, name

    def test_drift_rows_at_zero(self, report):
        assert all(e <= 1e-12 for e in report.errors_for("drift"))

    def test_quad_variation_converges(self, report):
        errs = report.errors_for("quad_variation")
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_constant_function_is_exact(self, gaussian_law):
        rep = convergence_report(
            gaussian_law, [1.0, 0.5], tests={"const": lambda y: np.ones_like(np.asarray(y, float))}
        )
        assert all(e <= 1e-10 for e in rep.errors_for("const"))

    def test_eventually_monotone_last_three(self, report):
        for name in default_test_functions():
            errs = report.errors_for(name)[-3:]
            assert errs[0] > errs[1] > errs[2]

    def test_csv_shape(self, report):
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("delta,test_id,")
        assert len(lines) == 1 + len(report.rows)

    def test_power_tail_rows_converge_at_order_two(self, flat_core_heavy):
        # binned and continuous sides share one reach, so the error halves
        # twice per halving of delta; with the binned side summed to 1e7
        # while the density stopped at 256, cos fell by 4.20, 4.52 and 7.99
        rep = convergence_report(flat_core_heavy, [1.0, 0.5, 0.25])
        errs = rep.errors_for("cos")
        assert all(3.9 <= a / b <= 4.1 for a, b in zip(errs, errs[1:]))
        # past the coarse widths every default test function follows suit
        rep = convergence_report(flat_core_heavy, [0.125, 0.0625, 0.03125])
        for name in list(default_test_functions()) + ["quad_variation"]:
            errs = rep.errors_for(name)
            assert all(3.9 <= a / b <= 4.1 for a, b in zip(errs, errs[1:])), name

    def test_deltas_must_decrease(self, gaussian_law):
        with pytest.raises(DomainError):
            convergence_report(gaussian_law, [0.5, 1.0])


def _bin_sum_enclosure(binned):
    """``sum 1/((n+1/2)^3 m(n))``: the bins to 1e7 summed directly, then the
    power component's n^-1.5 envelopes, scaled by (1 + 1/(2 n))^-3 below."""
    direct = 0.0
    for start in range(0, 10 ** 7, 10 ** 6):
        n = np.arange(start + 1, start + 10 ** 6 + 1)
        direct += float(np.sum(1.0 / ((n + 0.5) ** 3 * binned.mass(n))))
    (comp,) = binned.components
    beyond_lo, beyond_hi = comp.weighted_tail_sum(-3.0, 10 ** 7, inverse=True)
    return direct + beyond_lo * (1.0 + 0.5e-7) ** -3, direct + beyond_hi


class TestJensenGap:
    def test_heavy_tail_both_finite(self, flat_core_heavy):
        gap = jensen_gap(flat_core_heavy)
        assert gap.lhs.status is Status.CONVERGES
        assert gap.rhs.status is Status.CONVERGES
        assert gap.inequality_holds
        # rhs total is exactly 21 for this density: 9 on [1/2, 1], 12 beyond
        lo, hi = gap.rhs.value_interval
        assert lo <= 21.0 <= hi
        # certified totals keep the inequality with room
        assert gap.lhs.value.hi <= 21.0

    def test_matched_truncation_per_bin(self, flat_core_heavy):
        # per-bin comparison: 1/((n+1/2)^3 m(n)) <= int_bin dy/(y^3 f)
        binned = bin_density(flat_core_heavy, 1.0)
        for n in (1, 2, 5, 17):
            lhs = 1.0 / ((n + 0.5) ** 3 * binned.mass(n))
            rhs, _ = integrate.quad(
                lambda y: 1.0 / (y ** 3 * float(flat_core_heavy.density(y))),
                n - 0.5,
                n + 0.5,
            )
            assert lhs <= rhs + 1e-12

    def test_lhs_encloses_bins_past_the_table(self):
        # the unit bins are tabulated to lag 2501, past the 2000 summed
        # bins: the remainder sums lags 2001..2501 before the power tail
        law = make_piecewise_power(
            [PowerPiece(0.0, 2500.0, ((1e-4, 0.0),)), PowerPiece(2500.0, math.inf, ((6.25, 1.5),))]
        )
        binned = bin_density(law, 1.0)
        assert binned.support.top == 2501
        lo, hi = jensen_gap(law).lhs.value_interval
        s_lo, s_hi = _bin_sum_enclosure(binned)
        assert lo <= s_hi and s_lo <= hi

    def test_lhs_lower_end_on_a_long_table(self):
        # 98000 exact table lags past the 2000 summed bins: without the
        # (1 + 1/(2 n_top + 2))^-3 factor the lower end would pass the sum
        k = 0.05 * math.sqrt(1e5)
        law = make_piecewise_power(
            [PowerPiece(0.0, 1e5, ((4e-6, 0.0),)), PowerPiece(1e5, math.inf, ((k, 1.5),))]
        )
        lo, hi = jensen_gap(law).lhs.value_interval
        s_lo, s_hi = _bin_sum_enclosure(bin_density(law, 1.0))
        assert lo <= s_hi and s_lo <= hi

    def test_divergent_tail_still_consistent(self):
        law = make_piecewise_power(
            [PowerPiece(0.0, 1.0, ((0.3, 0.0),)), PowerPiece(1.0, math.inf, ((0.3, 2.5),))]
        )
        gap = jensen_gap(law)
        assert gap.lhs.status is Status.DIVERGES
        assert gap.rhs.status is Status.DIVERGES
        assert gap.inequality_holds

    def test_gaussian_divergence(self, gaussian_law):
        gap = jensen_gap(gaussian_law)
        assert gap.lhs.status is Status.DIVERGES
        assert gap.rhs.status is Status.DIVERGES
        assert gap.inequality_holds

    def test_rhs_carries_its_error(self, gaussian_law, monkeypatch):
        # the log-y pass's |K15 - G7| estimate widens the right-hand side
        from levycrit import discretize
        from levycrit.verdicts import enclosure

        errs = []

        def spy(fn, y_edges):
            out = log_panel_integrals(fn, y_edges)
            errs.append(out[1])
            return out

        monkeypatch.setattr(discretize, "log_panel_integrals", spy)
        rhs = jensen_gap(gaussian_law, 20).rhs
        (err,) = errs
        assert 0.0 < err < math.inf
        assert rhs.value.lo == enclosure(rhs.partial_value, -err, 0.0).lo < rhs.partial_value

    def test_rejects_lattice(self, power_half_raw):
        with pytest.raises(DomainError):
            jensen_gap(power_half_raw)


@pytest.fixture()
def tripwire_gaussian(gaussian_law):
    """The standard Gaussian whose density may not be read."""
    from dataclasses import replace

    def density_fn(y):
        raise AssertionError("density read before the arguments were checked")

    return replace(gaussian_law, support=replace(gaussian_law.support, density_fn=density_fn))


class TestBadSizes:
    """Bad bin widths, radii and term counts end in a DomainError before any density read."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_delta(self, tripwire_gaussian, bad):
        with pytest.raises(DomainError, match="delta must be finite and positive"):
            bin_density(tripwire_gaussian, bad)
        with pytest.raises(DomainError, match="delta must be finite and positive"):
            convergence_report(tripwire_gaussian, [bad])
        with pytest.raises(DomainError):  # 0 and -1 fail the order check first
            convergence_report(tripwire_gaussian, [bad, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_h_radius(self, tripwire_gaussian, bad):
        with pytest.raises(DomainError, match="h_radius must be finite and positive"):
            characteristics(tripwire_gaussian, h_radius=bad)
        with pytest.raises(DomainError, match="h_radius must be finite and positive"):
            convergence_report(tripwire_gaussian, [0.5], h_radius=bad)

    @pytest.mark.parametrize("n_terms", [-5, 0, math.nan])
    def test_jensen_terms(self, tripwire_gaussian, n_terms):
        # -5 used to end in a panel-cap NumericError and 0 in an empty comparison
        with pytest.raises(DomainError, match="n_terms must be at least 1"):
            jensen_gap(tripwire_gaussian, n_terms=n_terms)

    @pytest.mark.parametrize("n_terms", [2.5, 10 ** 6 + 1, 10 ** 9, 10 ** 13])
    def test_jensen_terms_refused_before_allocating(self, tripwire_gaussian, n_terms):
        # 10**13 terms once asked numpy for 72.8 TiB and 2.5 reported bins 1..2.5
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="n_terms must be at least 1, at most 1000000 "
                                                  "and integral"):
                jensen_gap(tripwire_gaussian, n_terms=n_terms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_jensen_integral_terms_accepted(self, gaussian_law):
        want = jensen_gap(gaussian_law, 50).to_dict()
        assert jensen_gap(gaussian_law, n_terms=np.int64(50)).to_dict() == want
        assert jensen_gap(gaussian_law, n_terms=50.0).to_dict() == want
