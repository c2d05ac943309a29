import math

import numpy as np
import pytest
from scipy import integrate

from levycrit.powerint import (
    one_minus_cos_integral,
    one_minus_cos_partial,
    one_minus_cos_range,
    one_minus_cos_tail,
    power_integral_tail,
    strided_power_sum,
)


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


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("s", [0.3, 2.0, 6.0, 30.0, 500.0])
def test_partial_against_quadrature(rho, s):
    # mpmath handles the u^(2-rho) endpoint singularity cleanly
    import mpmath as mp

    with mp.workdps(30):
        oracle = float(
            mp.quad(lambda u: (1 - mp.cos(u)) * u ** -rho, [0, min(s, 6), s])
        )
    assert one_minus_cos_partial(rho, s) == pytest.approx(oracle, rel=1e-9, abs=1e-13)


def test_partial_plus_tail_is_total():
    for rho in (1.2, 1.8, 2.6):
        for s in (0.1, 5.0, 80.0, 1000.0):
            total = one_minus_cos_partial(rho, s) + one_minus_cos_tail(rho, s)
            assert total == pytest.approx(one_minus_cos_integral(rho), rel=1e-7)


def test_range_is_difference_of_partials():
    val = one_minus_cos_range(0.0, 1.0, 4.0)
    oracle, _ = integrate.quad(lambda u: 1 - math.cos(u), 1.0, 4.0)
    assert val == pytest.approx(oracle, rel=1e-10)
    assert one_minus_cos_range(1.5, 2.0, math.inf) == pytest.approx(
        one_minus_cos_tail(1.5, 2.0)
    )


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


def test_power_integral_tail():
    assert power_integral_tail(2.0, 3.0, 4.0) == pytest.approx(2.0 * 4.0 ** -2 / 2)
    assert power_integral_tail(1.0, 1.0, 4.0) == math.inf


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


def test_strided_sum_divergent():
    assert strided_power_sum(1.0, 1, 0, 1) == math.inf
