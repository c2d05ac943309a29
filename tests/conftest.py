import math

import pytest

from levycrit import (
    PowerPiece,
    make_gaussian_density,
    make_lattice_table,
    make_multi_index_lattice,
    make_piecewise_power,
    make_power_law_lattice,
    make_stable_triplet,
)


@pytest.fixture(scope="session")
def power_half_raw():
    return make_power_law_lattice(0.5)


@pytest.fixture(scope="session")
def power_half_prob():
    return make_power_law_lattice(0.5, normalize=True)


@pytest.fixture(scope="session")
def multi_default():
    return make_multi_index_lattice(0.5, 1.5)


@pytest.fixture(scope="session")
def stable_half():
    return make_stable_triplet(0.5, 1.0)


@pytest.fixture(scope="session")
def nearest_neighbor():
    # unit conductance on consecutive sites
    return make_lattice_table({1: 1.0})


@pytest.fixture(scope="session")
def flat_core_heavy():
    # probability density: 1/6 on |y| <= 1, (1/6) |y|^-1.5 beyond
    return make_piecewise_power(
        [
            PowerPiece(0.0, 1.0, ((1.0 / 6.0, 0.0),)),
            PowerPiece(1.0, math.inf, ((1.0 / 6.0, 1.5),)),
        ]
    )


@pytest.fixture(scope="session")
def gaussian_law():
    return make_gaussian_density()


@pytest.fixture(scope="session")
def gaussian_upper_moment():
    """``int_a^b z^k f(z) dz`` of the N(0, sigma^2) density, k in {0, 2}.

    Written with the upper tail Q = erfc(x / sqrt 2) / 2, so nothing
    cancels when a / sigma is large.
    """

    def upper(x, k):
        q = 0.5 * math.erfc(x / math.sqrt(2.0))
        if k == 0:
            return q
        return q + x * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def moment(sigma, a, b, k):
        return sigma ** k * (upper(a / sigma, k) - upper(b / sigma, k))

    return moment
