import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from levycrit import powerint
from levycrit.powerint import (
    hurwitz_zeta,
    log_panel_integrals,
    one_minus_cos_integral,
    one_minus_cos_range,
    one_minus_cos_tail,
    power_range,
    strided_power_sum,
)
from levycrit.powerint import panel_integrals as powerint_panel_integrals
from levycrit.tails import TailDescriptor, TailKind


@pytest.mark.parametrize("rho", [1.1, 1.5, 2.0, 2.5, 2.9])
def test_full_integral_against_quadrature(rho):
    # independent oracle: [0, 50] quadrature, exact plain tail, oscillatory
    # part to T plus its integration-by-parts remainder
    head, _ = integrate.quad(
        lambda u: (1 - math.cos(u)) * u ** -rho, 0, 50, limit=400
    )
    tail_plain = 50.0 ** (1 - rho) / (rho - 1)
    t_cut = 5000.0
    tail_osc, _ = integrate.quad(
        lambda u: u ** -rho, 50, t_cut, weight="cos", wvar=1.0, limit=400
    )
    remainder = -math.sin(t_cut) * t_cut ** -rho + rho * math.cos(t_cut) * t_cut ** (
        -rho - 1.0
    )
    oracle = head + tail_plain - (tail_osc + remainder)
    assert one_minus_cos_integral(rho) == pytest.approx(oracle, abs=1e-7)


def test_integral_matches_classical_value():
    # int_0^inf (1 - cos u) / u^2 du = pi / 2
    assert one_minus_cos_integral(2.0) == pytest.approx(math.pi / 2, rel=1e-14)


def _partial_series_oracle(rho, s):
    # int_0^s (1 - cos u) u^-rho du = sum_j (-1)^(j+1) s^(2j+1-rho) / ((2j)! (2j+1-rho)),
    # term by term to 30 digits, with the s / ln 10 digits its cancellation
    # costs on top; quadrature of 1 - cos u loses every digit near 0
    with mp.workdps(30 + int(s / math.log(10))):
        s, rho = mp.mpf(s), mp.mpf(rho)
        total, j = mp.mpf(0), 1
        while True:
            term = s ** (2 * j + 1 - rho) / (mp.factorial(2 * j) * (2 * j + 1 - rho))
            total += term if j % 2 else -term
            if 2 * j > s and term < mp.mpf(10) ** -30 * abs(total):
                return float(total)
            j += 1


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("s", [0.3, 2.0, 6.0, 30.0, 500.0])
def test_partial_against_quadrature(rho, s):
    # against the term-by-term series, not quadrature: 30-digit mp.quad is
    # 7e-10 off at rho = 2.5, s = 0.3
    oracle = _partial_series_oracle(rho, s)
    assert one_minus_cos_range(rho, 0.0, s) == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_partial_plus_tail_is_total():
    for rho in (1.2, 1.8, 2.6):
        for s in (0.1, 5.0, 80.0, 1000.0):
            total = one_minus_cos_range(rho, 0.0, s) + one_minus_cos_tail(rho, s)
            assert total == pytest.approx(one_minus_cos_integral(rho), rel=1e-7)


def test_range_is_difference_of_partials():
    val = one_minus_cos_range(0.0, 1.0, 4.0)
    oracle, _ = integrate.quad(lambda u: 1 - math.cos(u), 1.0, 4.0)
    assert val == pytest.approx(oracle, rel=1e-10)
    assert one_minus_cos_range(1.5, 2.0, math.inf) == pytest.approx(
        one_minus_cos_tail(1.5, 2.0)
    )


@pytest.mark.parametrize("rho", [1.2, 1.5, 2.0, 2.5, 2.99])
def test_whole_line_takes_the_classical_value(rho):
    # element by element, alone or next to other ranges
    exact = one_minus_cos_integral(rho)
    assert one_minus_cos_range(rho, 0.0, math.inf) == exact
    assert one_minus_cos_tail(rho, 0.0) == exact
    lo = np.array([0.0, 0.0, 2.0, 0.0, 7.0])
    hi = np.array([math.inf, 3.0, math.inf, math.inf, 250.0])
    got = one_minus_cos_range(rho, lo, hi)
    assert got[[0, 3]].tolist() == [exact, exact]
    others = [one_minus_cos_range(rho, a, b) for a, b in zip(lo[[1, 2, 4]], hi[[1, 2, 4]])]
    assert got[[1, 2, 4]] == pytest.approx(others, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("rho", [0.5, 1.0, 3.0, 3.5])
def test_whole_line_outside_the_classical_range_diverges(rho):
    assert one_minus_cos_range(rho, 0.0, math.inf) == math.inf


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.5, 2.5, 2.9, 3.5])
def test_ranges_below_six_skip_the_cosine_pass(rho, monkeypatch):
    def tripwire(rho, x):
        raise AssertionError("_cos_from ran for ranges that end by 6")

    monkeypatch.setattr(powerint, "_cos_from", tripwire)
    lo = np.array([0.3, 1e-3, 5.5, 6.0, 2.0])
    hi = np.array([4.2, 6.0, 6.0, 6.0, 2.0])
    got = one_minus_cos_range(rho, lo, hi)
    assert np.all(np.isfinite(got))
    assert one_minus_cos_range(rho, 0.5, 5.0) > 0.0
    if 1.0 < rho < 3.0:
        assert one_minus_cos_range(rho, np.zeros(2), [math.inf, 5.0])[0] == (
            one_minus_cos_integral(rho))


def _series_range_oracle(rho, a, b):
    # 30-digit int_a^b 2 sin^2(u/2) u^-rho du (1 - cos u loses every digit
    # near 0): the leading u^2/2 in closed form, quadrature on the rest,
    # which stays bounded at 0
    with mp.workdps(30):
        rho, a, b = mp.mpf(rho), mp.mpf(a), mp.mpf(b)
        lead = (b ** (3 - rho) - a ** (3 - rho)) / (2 * (3 - rho))
        rest = mp.quad(lambda u: (2 * mp.sin(u / 2) ** 2 - u ** 2 / 2) * u ** -rho, [a, b])
        return float(lead + rest)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.5, 2.5, 2.9, 3.5])
def test_series_ranges_match_mpmath(rho):
    # ranges ending in (4, 6], where the alternating series cancels most, in
    # one array call and one by one
    starts = ([0.0] if rho < 3.0 else []) + [1e-3, 0.3, 2.0, 3.9]
    ranges = [(a, b) for a in starts for b in (4.2, 5.0, 5.9, 6.0)]
    exact = [_series_range_oracle(rho, a, b) for a, b in ranges]
    lo, hi = np.array(ranges).T
    assert one_minus_cos_range(rho, lo, hi) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert [one_minus_cos_range(rho, a, b) for a, b in ranges] == pytest.approx(
        exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho,s", [(3.0, 0.5), (3.5, 0.5), (3.5, 10.0), (4.5, 1.0)])
def test_steep_exponent_tails(rho, s):
    # the full integral diverges at the origin for rho >= 3, but tails from
    # s > 0 are finite; oracle adds the analytic remainder beyond the cut
    t_cut = s + 4000.0
    head, _ = integrate.quad(
        lambda u: (1 - math.cos(u)) * u ** -rho, s, t_cut, limit=2000
    )
    remainder = t_cut ** (1.0 - rho) / (rho - 1.0)
    got = one_minus_cos_tail(rho, s)
    assert got == pytest.approx(head + remainder, rel=1e-4, abs=1e-12)
    assert one_minus_cos_tail(rho, 0.0) == math.inf
    fin = one_minus_cos_range(rho, s, s + 5.0)
    oracle, _ = integrate.quad(lambda u: (1 - math.cos(u)) * u ** -rho, s, s + 5.0)
    assert fin == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("rho", [3.0, 3.5, 4.0, 5.0])
@pytest.mark.parametrize("s", [1e-6, 1e-3, 0.5, 5.9])
def test_steep_exponent_small_s_matches_mpmath(rho, s):
    # plain minus oscillatory parts of two near-equal large numbers lost
    # every digit here; the oracle integrates at 30 digits
    import mpmath as mp

    with mp.workdps(30):
        head = mp.quad(lambda u: (1 - mp.cos(u)) * u ** -rho, [s, min(1, s * 100), 2 * mp.pi])
        tail = mp.quad(lambda u: u ** -rho, [2 * mp.pi, mp.inf]) - mp.quadosc(
            lambda u: mp.cos(u) * u ** -rho, [2 * mp.pi, mp.inf], omega=1
        )
        oracle = float(head + tail)
    assert one_minus_cos_tail(rho, s) == pytest.approx(oracle, rel=1e-6)


def _tail_oracle(rho, s):
    # plain power tail minus the cosine tail, at 30 digits; the cosine tail
    # is Re int_s^inf e^{iu} u^-rho du = Re s^(1-rho) E_rho(-i s)
    import mpmath as mp

    with mp.workdps(30):
        cos_tail = mp.re(mp.mpf(s) ** (1 - rho) * mp.expint(rho, -1j * s))
        return float(mp.mpf(s) ** (1 - rho) / (rho - 1) - cos_tail)


@pytest.mark.parametrize("rho", [3.0, 3.5, 4.0, 5.0])
@pytest.mark.parametrize("s", [6.0, 20.0, 50.0, 150.0, 200.0])
def test_steep_exponent_moderate_s_matches_mpmath(rho, s):
    # an infinite-range cosine quadrature honours only an absolute
    # tolerance, which is most of the value once it falls near 1e-8
    assert one_minus_cos_tail(rho, s) == pytest.approx(_tail_oracle(rho, s), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("rho", [0.0, 1.5, 1.0 + 2 ** -20, 3.5])
def test_power_range_keeps_narrow_ranges(rho):
    # unit-width ranges out to 1e7, against 40-digit closed forms
    import mpmath as mp

    a = np.array([0.5, 9.5, 4095.5, 1e7 - 0.5])
    got = power_range(rho, a, a + 1.0)
    with mp.workdps(40):
        q = 1 - mp.mpf(rho)
        exact = [float(((mp.mpf(x) + 1) ** q - mp.mpf(x) ** q) / q) for x in a]
    assert got == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert power_range(1.0, a, a + 1.0) == pytest.approx(np.log1p(1.0 / a), rel=1e-15, abs=0.0)


def test_power_range_tail():
    # a tail to inf: K 4^-2 / 2 for p = 3, and inf for p <= 1
    assert 2.0 * power_range(3.0, 4.0, math.inf) == pytest.approx(2.0 * 4.0 ** -2 / 2)
    assert power_range(1.0, 4.0, math.inf) == math.inf
    assert power_range(0.5, 4.0, math.inf) == math.inf
    tail = TailDescriptor(TailKind.POWER_LAW, exponent=3.0, constant=2.0, upper_factor=1.5)
    assert tail.weighted_tail_upper(0.0, 4.0) == pytest.approx(1.5 * 2.0 * 4.0 ** -2 / 2)
    assert tail.weighted_tail_upper(2.0, 4.0) == math.inf


def _gaussian_second_moment(y):
    return y * y * np.exp(-y * y / 2.0) / math.sqrt(2.0 * math.pi)


def test_log_panel_ranges_add_up(gaussian_upper_moment):
    # each range matches its erfc closed form, to the pass's tolerance of the
    # whole, and the ranges sum to the one-range value
    edges = [1.0, 2.0, 8.0, 40.0, 1e4]
    ranges, _ = log_panel_integrals(_gaussian_second_moment, edges)
    (whole,), _ = log_panel_integrals(_gaussian_second_moment, [1.0, 1e4])
    exact = [gaussian_upper_moment(1.0, a, b, 2) for a, b in zip(edges, edges[1:])]
    assert ranges.shape == (4,)
    assert ranges == pytest.approx(exact, rel=0.0, abs=1e-13 * whole)
    assert np.sum(ranges) == pytest.approx(whole, rel=1e-14)
    assert whole == pytest.approx(gaussian_upper_moment(1.0, 1.0, 1e4, 2), rel=1e-13)


def test_log_panel_grid_keeps_the_edges(monkeypatch):
    # every given edge is a breakpoint, and no panel is wider than a decade
    seen = []

    def spy(fn, edges):
        seen.append(np.array(edges))
        return powerint_panel_integrals(fn, edges)

    monkeypatch.setattr(powerint, "panel_integrals", spy)
    y_edges = np.array([1e-6, 3e-6, 1.0, 7.0, 1e4])
    log_panel_integrals(lambda y: 1.0 / y, y_edges)
    log_panel_integrals(lambda y: 1.0 / y, [1.0, 1e4])
    many, one = seen
    assert np.all(np.isin(np.log(y_edges), many))
    assert np.max(np.diff(many)) <= math.log(10.0) * (1.0 + 1e-15)
    assert len(many) == 1 + (1 + 6 + 1 + 4)  # ceil(log10(b / a)) panels a range
    assert np.array_equal(one, np.linspace(0.0, math.log(1e4), 5))


def test_log_panel_error_comes_back(monkeypatch):
    # the pass's own |K15 - G7| estimate, positive and finite on a gaussian
    errs = []

    def spy(fn, edges):
        out = powerint_panel_integrals(fn, edges)
        errs.append(out[1])
        return out

    monkeypatch.setattr(powerint, "panel_integrals", spy)
    for edges in ([1.0, 1e4], [1.0, 3.0, 1e4]):
        _, err = log_panel_integrals(_gaussian_second_moment, edges)
        assert err == errs[-1]
        assert 0.0 < err < math.inf


@pytest.mark.parametrize(
    "stride,offset,n_from",
    [(1, 0, 1), (1, 0, 17), (2, 0, 1), (2, 0, 10), (2, 1, 10), (2, 1, 11), (3, 2, 7)],
)
def test_strided_sum_against_brute_force(stride, offset, n_from):
    rho = 1.7
    n = np.arange(1, 2_000_001)
    sel = (n >= n_from) & (n % stride == offset % stride)
    brute = float(np.sum(n[sel] ** -rho))
    exact = strided_power_sum(rho, stride, offset, n_from)
    # brute force misses the tail beyond 2e6; bound it by the integral
    tail_cap = (2_000_000.0) ** (1 - rho) / (rho - 1)
    assert brute <= exact <= brute + tail_cap
    # an array n_from is taken elementwise, each point as its scalar call
    starts = np.array([[n_from, n_from + 0.5], [n_from + 3, 2 * n_from]])
    got = strided_power_sum(rho, stride, offset, starts)
    assert got.shape == starts.shape
    assert got.tolist() == [[strided_power_sum(rho, stride, offset, s) for s in row]
                            for row in starts.tolist()]


def test_strided_sum_divergent():
    assert strided_power_sum(1.0, 1, 0, 1) == math.inf


class TestHurwitzZeta:
    """The package's zeta, against scipy's and mpmath's as oracles."""

    @staticmethod
    def _grid():
        # s - 1 log-uniform on [1e-4, 1020] plus fixed exponents; q log-uniform
        # on [0.5, 1e16], every third an integer and every third a half-integer,
        # plus points either side of the q = 1e8 switch
        rng = np.random.default_rng(20260809)
        n = 60_000
        s = 1.0 + np.exp(rng.uniform(math.log(1e-4), math.log(1020.0), n))
        s[::5] = rng.choice([1.05, 1.5, 2.5, 20.0, 100.0], size=len(s[::5]))
        q = np.exp(rng.uniform(math.log(0.5), math.log(1e16), n))
        q[::3] = np.maximum(1.0, np.floor(q[::3]))
        q[1::3] = np.floor(q[1::3]) + 0.5
        q[2::30] = 1e8 * (1.0 + rng.uniform(-1e-3, 1e-3, len(q[2::30])))
        return s, q

    def test_matches_scipy(self):
        s, q = self._grid()
        got = hurwitz_zeta(s, q)
        want = special.zeta(s, q)
        # below about 1e-290 scipy's Bernoulli terms go subnormal and lose
        # digits (see test_near_underflow_matches_mpmath); past the float
        # range both give inf
        normal = want > 1e-290
        assert np.count_nonzero(normal) > 40_000
        assert np.max(np.abs(got[normal] / want[normal] - 1.0)) <= 2e-15
        assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])

    @pytest.mark.parametrize("s, q", [
        (1.0001, 0.5), (1.0001, 1e12), (1.05, 1e6 + 0.5), (1.05, 3e9), (1.5, 1.0),
        (1.5, 1e8), (1.5, 1e8 + 0.5), (2.0, 1.0), (2.5, 2.0 ** 52), (3.0, 0.5),
        (20.0, 1.5), (54.0, 1.0), (100.0, 7.5), (1021.0, 1.0), (1021.0, 0.5),
    ])
    def test_matches_mpmath(self, s, q):
        with mp.workdps(30):
            want = float(mp.zeta(mp.mpf(s), mp.mpf(q)))
        assert hurwitz_zeta(s, q) == pytest.approx(want, rel=2e-15)

    def test_near_underflow_matches_mpmath(self):
        # a normal result whose Bernoulli terms are subnormal: scipy reads
        # 1.86163399278083e-300 here, 7.5e-13 off
        s, q = 145.6325711986039, 114.58267636655333
        with mp.workdps(30):
            want = float(mp.zeta(mp.mpf(s), mp.mpf(q)))
        assert hurwitz_zeta(s, q) == pytest.approx(want, rel=2e-15)

    def test_steep_exponent_is_finite_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hurwitz_zeta(1022.0, np.array([0.5, 1.0, 1.5]))
        assert np.all(np.isfinite(got))
        assert got[0] == pytest.approx(2.0 ** 1022, rel=1e-15)
        assert got[1] == 1.0

    def test_pole_is_inf_and_silent(self):
        # 1 + alpha rounds to 1 for alpha below 1e-16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hurwitz_zeta(1.0, 1.0) == math.inf
            assert np.all(hurwitz_zeta(1.0, np.array([0.5, 3e8])) == math.inf)

    def test_array_s_matches_scalar_calls(self):
        s = 2.0 * np.arange(1, 28)
        got = hurwitz_zeta(s, 1.0)
        assert got.shape == s.shape
        assert got.tolist() == [hurwitz_zeta(x, 1.0) for x in s.tolist()]

    def test_scalar_gives_float(self):
        assert type(hurwitz_zeta(2.0, 1.0)) is float
        assert type(hurwitz_zeta(np.float64(2.0), np.array(1.0))) is float
        assert hurwitz_zeta(2.0, np.array([1.0])).shape == (1,)
