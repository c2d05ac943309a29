import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import linalg

from levycrit import (
    TailDescriptor,
    TailKind,
    block_index,
    build_slice,
    dyadic_energy_bound,
    dyadic_flow,
    effective_resistance,
    effective_resistance_bounds,
    flow_energy,
    inverse_cubic_lattice_criterion,
    make_lattice_table,
    make_multi_index_lattice,
    make_power_law_lattice,
    resistance_profile,
    verify_flow,
)
from levycrit import network
from levycrit.network import FlowReport
from levycrit.verdicts import Status


class TestBlockIndex:
    @pytest.mark.parametrize(
        "u,expected", [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (-4, -3), (-7, -3), (-8, -4)]
    )
    def test_examples(self, u, expected):
        assert block_index(u) == expected

    @given(st.integers(min_value=1, max_value=2 ** 40))
    def test_block_brackets_vertex(self, u):
        i = block_index(u)
        assert 2 ** (i - 1) <= u <= 2 ** i - 1
        assert block_index(-u) == -i


class TestDyadicFlow:
    def test_source_edges(self):
        assert dyadic_flow(0, 1) == Fraction(1, 2)
        assert dyadic_flow(0, -1) == Fraction(1, 2)
        assert dyadic_flow(1, 0) == Fraction(-1, 2)

    def test_first_block_conservation(self):
        assert dyadic_flow(1, 2) == Fraction(1, 4)
        assert dyadic_flow(1, 3) == Fraction(1, 4)
        total = sum(dyadic_flow(1, v) for v in range(-8, 9) if v != 1)
        assert total == 0

    def test_deeper_pair(self):
        assert dyadic_flow(2, 5) == Fraction(1, 16)
        assert dyadic_flow(5, 2) == Fraction(-1, 16)

    def test_vanishes_beyond_quadruple(self):
        # u + w >= 4u with u > 0 forces zero flow (blocks two apart)
        assert dyadic_flow(2, 8) == Fraction(0)

    @given(
        st.integers(min_value=-(2 ** 12), max_value=2 ** 12),
        st.integers(min_value=-(2 ** 12), max_value=2 ** 12),
    )
    def test_antisymmetry(self, u, v):
        assert dyadic_flow(u, v) == -dyadic_flow(v, u)

    @given(st.integers(min_value=1, max_value=2 ** 10), st.integers(min_value=1, max_value=2 ** 12))
    def test_vanishing_rule(self, u, w):
        if u + w >= 4 * u:
            assert dyadic_flow(u, u + w) == 0

    @given(st.integers(min_value=-(2 ** 9), max_value=2 ** 9).filter(lambda u: u != 0))
    @settings(max_examples=40)
    def test_kirchhoff_at_vertex(self, u):
        i = block_index(u)
        lo, hi = -(2 ** (abs(i) + 1)), 2 ** (abs(i) + 1)
        total = sum(dyadic_flow(u, v) for v in range(lo, hi + 1))
        assert total == 0

    def test_unit_source_divergence(self):
        total = sum(dyadic_flow(0, v) for v in range(-4, 5))
        assert total == 1


class TestVerifyFlow:
    def test_small_level_exact(self):
        rep = verify_flow(4)
        assert rep.passed
        assert rep.source_divergence == Fraction(1)

    def test_scaled_scan_matches_fractions(self):
        rep = verify_flow(5)
        assert rep.passed
        # cross-check the scan against the Fraction implementation
        top = 2 ** 5 - 1
        for u in range(-top, top + 1):
            if abs(block_index(u)) <= 4 and u != 0:
                s = sum(dyadic_flow(u, v) for v in range(-top, top + 1))
                assert s == 0

    @pytest.mark.parametrize("i_max", [2, 3, 4, 5, 6])
    def test_scaled_flow_matches_fractions_exhaustively(self, i_max):
        # every ordered pair |u|, |v| < 2^I: the int64 flow is theta * 4^I
        top = 2 ** i_max - 1
        verts = range(-top, top + 1)
        blocks = np.array([block_index(u) for u in verts], dtype=np.int64)
        scaled = network._flow_scaled(blocks[:, None], blocks[None, :], i_max)
        assert scaled.dtype == np.int64
        exact = np.array(
            [[int(dyadic_flow(u, v) * 4 ** i_max) for v in verts] for u in verts],
            dtype=np.int64,
        )
        assert np.array_equal(scaled, exact)

    @pytest.mark.parametrize("variant", [None, "skip_level", "diagonal", "one_way"])
    def test_block_check_matches_vertex_scan(self, variant, monkeypatch):
        # the block-level check must give the exhaustive vertex scan's report
        # field for field, also on corrupted flows, so a check that stops
        # checking fails here
        if variant is not None:
            monkeypatch.setattr(network, "_flow_scaled", _corrupted_flow(variant))
        for i_max in range(2, 9):
            oracle = _vertex_scan(i_max)
            assert oracle.passed == (variant is None)
            assert verify_flow(i_max) == oracle

    def test_top_level_passes(self):
        from levycrit.network import VERIFY_FLOW_MAX_LEVEL

        i_max = VERIFY_FLOW_MAX_LEVEL
        rep = verify_flow(i_max)
        assert rep.passed
        assert rep.vertices_checked == 2 * (2 ** (i_max - 1) - 1)
        assert rep.pairs_checked == (2 ** (i_max + 1) - 1) ** 2

    def test_rejects_tiny_level(self):
        from levycrit import DomainError

        with pytest.raises(DomainError):
            verify_flow(1)

    def test_level_cap_checked_before_allocating(self):
        # past the cap the scaled flow or the pair count would leave int64
        from levycrit import DomainError
        from levycrit.network import VERIFY_FLOW_MAX_LEVEL

        with pytest.raises(DomainError):
            verify_flow(VERIFY_FLOW_MAX_LEVEL + 1)
        with pytest.raises(DomainError):
            verify_flow(40)

    def test_level_must_be_integral(self):
        # 10.0 once ended in a TypeError from range(); 2.5 is refused, not truncated
        from levycrit import DomainError

        assert verify_flow(10.0) == verify_flow(np.int64(10)) == verify_flow(10)
        for bad in (2.5, math.nan, math.inf, "10"):
            with pytest.raises(DomainError, match="i_max must be at least 2, at most 30 "
                                                  "and integral"):
                verify_flow(bad)


def _vertex_scan(i_max: int) -> FlowReport:
    """Every check of :func:`verify_flow` on every ordered vertex pair."""
    top = 2 ** i_max - 1
    verts = np.arange(-top, top + 1, dtype=np.int64)
    blocks = np.array([block_index(u) for u in verts.tolist()], dtype=np.int64)
    theta = network._flow_scaled(blocks[:, None], blocks[None, :], i_max)
    nonadjacent = np.abs(blocks[:, None] - blocks[None, :]) != 1
    quadruple = (verts[:, None] > 0) & (verts[None, :] >= 4 * verts[:, None])
    residual = theta.sum(axis=1)
    interior = (np.abs(blocks) <= i_max - 1) & (verts != 0)
    return FlowReport(
        i_max=i_max,
        vertices_checked=int(np.count_nonzero(interior)),
        pairs_checked=len(verts) ** 2,
        source_divergence=Fraction(int(residual[top]), 4 ** i_max),
        kirchhoff_violations=[int(u) for u in verts[interior & (residual != 0)][:100]],
        antisymmetry_violations=int(np.count_nonzero(theta + theta.T)),
        support_violations=int(np.count_nonzero(theta[nonadjacent])),
        vanishing_violations=int(np.count_nonzero(theta[quadruple])),
    )


def _corrupted_flow(variant: str):
    exact = network._flow_scaled

    def flow(i, j, i_max):
        theta = exact(i, j, i_max)
        if variant == "skip_level":  # antisymmetric flow between blocks two apart
            return theta + np.where(np.abs(i - j) == 2, np.sign(j - i), 0)
        if variant == "diagonal":  # flow inside a block, in both directions
            return theta + (i == j)
        return np.where(j > i, 2 * theta, theta)  # one_way: doubled one way only

    return flow


def _table_with_tail():
    # a small lag far below the power envelope: the case a tail rule that
    # assumed m(w) >= K_lo w^-rho at every lag got wrong
    tail = TailDescriptor(TailKind.POWER_LAW, exponent=1.5, constant=0.05, onset=3.0)
    return make_lattice_table({1: 0.3, 2: 1e-9, 3: 0.1}, tail=tail)


def _energy_reference(law, rho: float, levels: int = 18) -> float:
    """Dyadic flow energy by block pairs, without the lag weight or lag_tail_sum.

    Level i adds 2 16^-i sum_w N_i(w) / m(w) over the tent of pair counts
    N_i(w) = min(w, a, 3a - w)^+, a = 2^(i-1). Past the table the levels go
    as S_i = q^i (c_0 + c_1 2^-i + O(4^-i)) with q = 2^(rho - 2); the last
    two levels fix c_0 and c_1, and the levels past them sum geometrically.
    """
    total = 0.5 / law.mass(1)  # (0, +-1)
    levels_sum = []
    for i in range(1, levels + 1):
        a = 1 << (i - 1)
        w = np.arange(1, 3 * a)
        counts = np.minimum(np.minimum(w, a), 3 * a - w)
        levels_sum.append(2.0 * 16.0 ** -i * float(np.sum(counts / law.mass(w))))
    q = 2.0 ** (rho - 2.0)
    s1, s2 = levels_sum[-2] / q ** (levels - 1), levels_sum[-1] / q ** levels
    c1 = (s1 - s2) * 2.0 ** levels  # s_i = c0 + c1 2^-i
    c0 = s2 - c1 * 2.0 ** -levels
    rest = c0 * q ** (levels + 1) / (1.0 - q) + c1 * (q / 2) ** (levels + 1) / (1.0 - q / 2)
    return total + math.fsum(levels_sum) + rest


_NESTING_LAWS = {
    **{f"power_lattice {a}": lambda a=a: make_power_law_lattice(a) for a in (0.3, 0.5, 0.9, 1.5)},
    "multi_index 0.5 0.7": lambda: make_multi_index_lattice(0.5, 0.7),
    "multi_index 0.5 1.5": lambda: make_multi_index_lattice(0.5, 1.5),
    "table with tail": _table_with_tail,
    "inexact table": lambda: _inexact_table_law(),
    "nearest neighbour": lambda: make_lattice_table({1: 1.0}),
}


class TestFlowEnergy:
    @pytest.mark.parametrize("w", range(1, 41))
    def test_lag_weight_is_flow_enumeration(self, w):
        # g(w) = sum of theta^2 over the flow edges of lag w, both signs:
        # every u of blocks 1..8, and past them each level i carries w pairs
        # at theta^2 = 16^-i, 2 w 16^-8 / 15 in all
        top = 8
        exact = sum(2 * dyadic_flow(u, u + w) ** 2 for u in range(1, 1 << top))
        exact += Fraction(2 * w, 15 * 16 ** top)
        assert network._lag_weight(np.array([w]))[0] == pytest.approx(float(exact), rel=1e-15)

    def test_lag_weight_constants(self):
        w = np.arange(2, (1 << 20) + 1)
        phi = w.astype(float) ** 3 * network._lag_weight(w)
        lo, hi = network._LAG_WEIGHT_LO, network._LAG_WEIGHT_HI
        assert np.all(phi >= lo * (1.0 - 1e-15))
        assert np.all(phi <= hi * (1.0 + 1e-15))
        assert phi.max() == pytest.approx(hi, rel=1e-6)  # phi(1125/956) is approached
        at_lo = 3 * 2 ** np.arange(19)  # w = 3 2^j has x = 3/2
        assert phi[at_lo - 2] == pytest.approx(np.full(19, lo), rel=1e-15)
        assert lo == 297 / 640
        assert Fraction(hi) >= Fraction(35595703125, 27959130112)

    def test_direct_enumeration_oracle(self):
        # the block-pair sum of _energy_reference, at three levels, each
        # enclosure narrower than the one before
        laws = [(make_power_law_lattice(0.5), 1.5), (make_power_law_lattice(0.9), 1.9),
                (_table_with_tail(), 1.5)]
        for law, rho in laws:
            ref = _energy_reference(law, rho)
            widths = []
            for level in (9, 14, 20):
                e = flow_energy(law, level)
                assert e.lo <= ref <= e.hi
                widths.append(e.hi - e.lo)
            assert widths[0] > widths[1] > widths[2]

    @pytest.mark.parametrize("name", sorted(_NESTING_LAWS))
    def test_levels_nest(self, name):
        from levycrit.network import FLOW_ENERGY_MAX_LEVEL

        law = _NESTING_LAWS[name]()
        # an inexact component keeps the head at LATTICE_SERIES_CUTOFF = 10^6
        # lags up to level 19, so the levels below it repeat level 19
        first = 19 if law.series_head > 1 << 19 else 2
        e = [flow_energy(law, i) for i in range(first, FLOW_ENERGY_MAX_LEVEL + 1)]
        for outer, inner in zip(e, e[1:]):
            assert outer.lo <= inner.lo <= inner.hi <= outer.hi

    def test_small_lag_below_envelope(self):
        law = _table_with_tail()
        assert flow_energy(law, 3).hi >= flow_energy(law, 4).lo

    def test_interval_brackets_refined_partial(self, power_half_raw):
        e14 = flow_energy(power_half_raw, 14)
        e20 = flow_energy(power_half_raw, 20)
        assert e14.lo <= e20.lo <= e20.hi <= e14.hi

    def test_divergent_energy_grows(self):
        # without bound: the inverse-cubic series diverges at rho = 2.5, so
        # the energy, whose lag weight is at least 297/640 w^-3, is [inf, inf]
        # at every level
        law = make_power_law_lattice(1.5)
        for i in (6, 10, 14, 18):
            e = flow_energy(law, i)
            assert e.lo == e.hi == math.inf

    def test_odd_class_makes_multi_index_infinite(self, multi_default):
        # odd lags decay at rho = 2.5: the energy is infinite though the
        # even class (rho = 1.5) alone would give a finite one
        e = flow_energy(multi_default, 14)
        assert e.lo == e.hi == math.inf

    def test_missing_conductance_is_infinite(self, nearest_neighbor):
        e = flow_energy(nearest_neighbor, 8)
        assert e.infinite

    def test_level_cap(self, power_half_raw):
        from levycrit import DomainError
        from levycrit.network import FLOW_ENERGY_MAX_LEVEL

        with pytest.raises(DomainError):
            flow_energy(power_half_raw, FLOW_ENERGY_MAX_LEVEL + 1)

    def test_level_must_be_integral(self, power_half_raw):
        # 10.0 once ended in a TypeError from 1 << i_max
        from levycrit import DomainError

        want = flow_energy(power_half_raw, 10)
        assert flow_energy(power_half_raw, 10.0) == flow_energy(power_half_raw, np.int64(10)) == want
        for bad in (2.5, math.nan, math.inf, "10"):
            with pytest.raises(DomainError, match="i_max must be at least 2, at most 22 "
                                                  "and integral"):
                flow_energy(power_half_raw, bad)


class TestDyadicEnergyBound:
    def test_first_term_floor(self, power_half_raw, multi_default):
        for law in (power_half_raw, multi_default):
            b = dyadic_energy_bound(law)
            assert b.lo >= 3.0 / (4.0 * law.mass(1))

    def test_summand_tail_value(self, power_half_raw):
        # oracle: the whole series 288 sum_{v>=1} (v+3)^1.5 v^-3 at 30 digits,
        # summed term by term to v = 200 and by mpmath's Euler-Maclaurin
        # summation past it; the bound's exact class tails collapse the
        # enclosure onto it
        import mpmath as mp

        with mp.workdps(30):
            s = mp.mpf(1.5)
            f = lambda v: (v + 3) ** s * v ** -3  # noqa: E731
            series = mp.fsum(f(mp.mpf(v)) for v in range(1, 200)) + mp.sumem(f, [200, mp.inf])
            head = 3 / mp.mpf(4) + 2 ** s / 8 + 32 * 2 ** s / 3 + 32 * 3 ** s / 3
            oracle = head + 288 * series
        b = dyadic_energy_bound(power_half_raw)
        assert b.lo <= oracle <= b.hi
        assert b.hi - b.lo <= 1e-13 * b.hi

    def test_harmonic_case_infinite(self):
        b = dyadic_energy_bound(make_power_law_lattice(1.0))
        assert math.isfinite(b.lo)
        assert b.hi == math.inf

    def test_criterion_link(self):
        # convergent inverse-cubic series forces a finite energy bound
        for alpha in (0.25, 0.5, 0.75, 0.9):
            law = make_power_law_lattice(alpha)
            assert inverse_cubic_lattice_criterion(law).status is Status.CONVERGES
            assert math.isfinite(dyadic_energy_bound(law).hi)


class TestEnergyBoundDerivation:
    @pytest.mark.parametrize("w", [2, 3, 4, 7, 12, 30])
    def test_per_lag_flow_square_sums(self, w):
        # the closed-form bound rests on per-lag sums of theta^2 over
        # u >= ceil(w/3), u != 1 being at most 16/3 (w = 2, 3) and
        # 144/(w-3)^3 (w >= 4); check them against exact enumeration
        u_min = math.ceil(w / 3.0)
        total = 0.0
        for u in range(max(u_min, 2), 2 ** 16):
            theta = dyadic_flow(u, u + w)
            total += float(theta) ** 2
        cap = 16.0 / 3.0 if w in (2, 3) else 144.0 / (w - 3.0) ** 3
        assert total <= cap
        # below ceil(w/3) the flow vanishes entirely (u + w >= 4u)
        for u in range(1, u_min):
            assert dyadic_flow(u, u + w) == 0

    def test_closed_form_dominates_direct_energy(self, power_half_raw):
        # the bound was derived by enlarging the energy sum, so it must
        # dominate the energy's enclosure at any level
        bound = dyadic_energy_bound(power_half_raw)
        for level in (6, 10, 14, 18):
            assert flow_energy(power_half_raw, level).hi <= bound.lo


def _inexact_table_law():
    return make_lattice_table(
        {1: 0.2, 2: 0.1},
        tail=TailDescriptor(
            TailKind.POWER_LAW, exponent=1.5, constant=0.1, onset=2.0,
            lower_factor=0.5, upper_factor=2.0,
        ),
    )


_FOLD_LAWS = {
    **{f"power_lattice {a}": lambda a=a: make_power_law_lattice(a) for a in (0.3, 0.5, 1.5, 1.78)},
    "multi_index 0.5 1.5": lambda: make_multi_index_lattice(0.5, 1.5),
    "multi_index 1.5 1.2": lambda: make_multi_index_lattice(1.5, 1.2),
    "nearest neighbour": lambda: make_lattice_table({1: 1.0}),
    "inexact table": _inexact_table_law,
}


def _folded_system(slc, boundary):
    """Even-folded Dirichlet matrix and right-hand side on u, w = 1..N-1.

    A[u, w] = -(m|u-w| + m(u+w)), A[u, u] = S(N-1-u) + S(N-1+u) - m(2u) +
    b(u), S(k) = sum_{j<=k} m(j); the source's neighbours give the
    right-hand side m(u). With an exact boundary envelope A[u, u] = M -
    m(2u) at every radius, so a smaller slice's matrix is a leading block.
    """
    m = slc.conductance
    k = slc.radius - 1
    u = np.arange(1, k + 1)
    mirrored = np.concatenate((m[k - 1:0:-1], m[:k]))  # m(|j|), j = -(k-1)..k-1
    a_mat = np.add(sliding_window_view(mirrored, k)[::-1], sliding_window_view(m[2:], k))
    np.negative(a_mat, out=a_mat)
    prefix = np.cumsum(m)
    a_mat[u - 1, u - 1] = prefix[k - u] + prefix[k + u] - m[2 * u] + boundary[k + u]
    return a_mat, m[1:k + 1]


def _dense_net_source_sums(slc, boundary) -> np.ndarray:
    """The dense oracle: ``m_n . (1 - A_n^-1 m_n)`` for every leading block.

    One in-place LAPACK Cholesky A = L L^T and one forward solve y = L^-1 m:
    the leading blocks of L factor those of A, so entry n - 1 of the
    cumulative sum of m(u) - y_u^2 is the value at radius n (exact envelope).
    """
    if slc.radius == 1:
        return np.zeros(1)
    a_mat, rhs = _folded_system(slc, boundary)
    chol, info = linalg.lapack.dpotrf(a_mat.T, lower=1, clean=0, overwrite_a=1)
    assert info == 0
    y, _ = linalg.lapack.dtrtrs(chol, rhs, lower=1)
    return np.cumsum(np.append(0.0, rhs - y * y))


def _dense_resistance(law, radii) -> list:
    """R_eff at each radius from the largest slice's dense factor (exact envelope)."""
    slc = build_slice(law, radii[-1])
    nets = _dense_net_source_sums(slc, slc.boundary_hi)
    tails = law.one_sided_tail_mass((np.array(radii) - 0.5) * law.spacing)[1]
    return [1.0 / (2.0 * t + 2.0 * nets[r - 1]) for t, r in zip(tails, radii)]


def _refined_resistance(law, radius: int) -> float:
    """R_eff of one slice from a dense Cholesky solve of the deficit system
    A y = b, corrected six times by long double residuals of a long double
    A formed row block by row block."""
    slc = build_slice(law, radius)
    k = radius - 1
    m = slc.conductance.astype(np.longdouble)
    b = slc.boundary_hi[radius:]
    a_mat, _ = _folded_system(slc, slc.boundary_hi)
    factor = linalg.cho_factor(a_mat, lower=True)
    del a_mat
    prefix = np.cumsum(m)
    u = np.arange(1, k + 1)
    diag = prefix[k - u] + prefix[k + u] - m[2 * u] + b

    def residual(y):
        r = np.empty(k, dtype=np.longdouble)
        for lo in range(0, k, 256):
            rows = u[lo:lo + 256, None]
            block = -(m[np.abs(rows - u)] + m[rows + u])
            block[np.arange(len(rows)), rows[:, 0] - 1] = diag[lo:lo + 256]
            r[lo:lo + 256] = b[lo:lo + 256] - block @ y
        return r

    y = linalg.cho_solve(factor, b).astype(np.longdouble)
    for _ in range(6):
        y += linalg.cho_solve(factor, residual(y).astype(float))
    return float(1.0 / (slc.boundary_hi[k] + 2 * np.sum(m[1:radius] * y)))


def _two_sided_resistance(slc, boundary) -> float:
    """Dirichlet solve on the full (2N-1)^2 Laplacian of vertices |u| < N."""
    n = slc.radius
    idx = np.arange(-(n - 1), n)
    cond = slc.conductance[np.abs(idx[:, None] - idx[None, :])]
    lap = np.diag(cond.sum(axis=1) + boundary) - cond
    keep = idx != 0
    current = boundary[n - 1]
    if n > 1:
        volt = linalg.solve(lap[np.ix_(keep, keep)], cond[keep, n - 1], assume_a="pos")
        current += float(np.sum(cond[n - 1, keep] * (1.0 - volt)))
    return 1.0 / current


def _mp_resistance(s: float, radius: int) -> float:
    """R_eff of the raw masses w^-s at 40 digits: the two-sided dense
    Laplacian of |u| < radius, Hurwitz-zeta boundary tails, LU solve."""
    with mp.workdps(40):
        idx = list(range(-(radius - 1), radius))
        n = len(idx)

        def m(w):
            return mp.mpf(w) ** mp.mpf(-s)

        def tail(k):  # sum_{w > k} w^-s
            return mp.zeta(mp.mpf(s), mp.mpf(k + 1))

        lap = mp.zeros(n, n)
        bnd = [tail(radius - 1 - u) + tail(radius - 1 + u) for u in idx]
        for a in range(n):
            total = mp.mpf(0)
            for b in range(n):
                if a == b:
                    continue
                c = m(abs(idx[a] - idx[b]))
                lap[a, b] = -c
                total += c
            lap[a, a] = total + bnd[a]
        i0 = idx.index(0)
        keep = [a for a in range(n) if a != i0]
        a_mat = mp.matrix(len(keep), len(keep))
        rhs = mp.matrix(len(keep), 1)
        for ai, a in enumerate(keep):
            rhs[ai] = -lap[a, i0]
            for bi, b in enumerate(keep):
                a_mat[ai, bi] = lap[a, b]
        sol = mp.lu_solve(a_mat, rhs)
        volt = {idx[a]: sol[keep.index(a)] for a in keep}
        volt[0] = mp.mpf(1)
        current = bnd[i0]
        for a in range(n):
            if a == i0:
                continue
            current += m(abs(idx[a])) * (1 - volt[idx[a]])
        return float(1 / current)


class TestEffectiveResistance:
    def test_nearest_neighbor_halves(self, nearest_neighbor):
        for radius in (4, 8, 16):
            r = effective_resistance(nearest_neighbor, radius)
            assert r == pytest.approx(radius / 2.0, abs=1e-10)

    def test_extended_precision_oracle(self, power_half_raw):
        # independent dense solve at 40 digits with mpmath (Hurwitz-zeta
        # boundary tails), radius 32: inside the certified enclosure
        want = _mp_resistance(1.5, 32)
        got = effective_resistance_bounds(power_half_raw, 32)
        assert got.lo <= want <= got.hi
        assert got.midpoint == pytest.approx(want, rel=1e-13)

    def test_recurrent_oracle_in_profile(self):
        # masses w^-2.5 (alpha = 1.5, recurrent): radius 24 of a profile,
        # against the same 40-digit solve at radius 24
        want = _mp_resistance(2.5, 24)
        got = resistance_profile(make_power_law_lattice(1.5), [24, 48]).bounds[0]
        assert got.lo <= want <= got.hi
        assert got.midpoint == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.777947, 1.858262])
    def test_refined_dense_oracle_at_2048(self, alpha):
        # the float64 dense solve misses the exact slice value by 2.4e-10 and
        # 5.1e-10 here; refined with long double residuals it lies inside
        want = _refined_resistance(make_power_law_lattice(alpha), 2048)
        got = effective_resistance_bounds(make_power_law_lattice(alpha), 2048)
        assert got.lo <= want <= got.hi
        assert got.midpoint == pytest.approx(want, rel=1e-12)

    def test_nearest_neighbour_is_half_n_to_4096(self, nearest_neighbor):
        # every 63rd size from 64, and sizes next to the powers of two
        for radius in sorted({*range(64, 4097, 63), 127, 128, 255, 512, 1024, 2047, 2048, 4096}):
            got = effective_resistance_bounds(nearest_neighbor, radius)
            assert abs(got.midpoint - radius / 2.0) <= 1e-12 * radius
            assert got.lo <= radius / 2.0 <= got.hi

    def test_monotone_in_radius(self, power_half_raw, multi_default, nearest_neighbor):
        for law in (power_half_raw, multi_default, nearest_neighbor):
            values = [effective_resistance(law, r) for r in (8, 16, 32, 64)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_large_radius_continues_profile(self, power_half_raw):
        # a 2047-unknown dense solve; still monotone and below the flow energy
        r_256 = effective_resistance(power_half_raw, 256)
        r_1024 = effective_resistance(power_half_raw, 1024)
        assert r_256 <= r_1024 <= flow_energy(power_half_raw, 14).hi

    def test_thomson_bound(self, power_half_raw):
        e = flow_energy(power_half_raw, 14)
        for radius in (8, 32, 128):
            assert effective_resistance(power_half_raw, radius) <= e.hi + 1e-8

    def test_bounds_bracket_point_value(self, power_half_raw):
        b = effective_resistance_bounds(power_half_raw, 16)
        r = effective_resistance(power_half_raw, 16)
        assert b.lo - 1e-12 <= r <= b.hi + 1e-12

    def test_exact_envelope_bounds_are_certificate_wide(self, power_half_raw):
        # an exact envelope leaves only the solve's certificate and the
        # inputs' rounding between the ends
        b = effective_resistance_bounds(power_half_raw, 16)
        assert b.lo < effective_resistance(power_half_raw, 16) == b.midpoint < b.hi
        assert b.hi - b.lo <= 1e-13 * b.midpoint

    @pytest.mark.parametrize("law_name", sorted(_FOLD_LAWS))
    def test_certificates_nonzero_and_finite(self, law_name):
        from levycrit.network import _net_source_sum

        law = _FOLD_LAWS[law_name]()
        for radius in (2, 3, 8, 64, 256):
            slc = build_slice(law, radius)
            for boundary in (slc.boundary_lo, slc.boundary_hi):
                net, cert = _net_source_sum(slc, boundary)
                assert 0.0 < cert < math.inf
                assert cert <= 1e-9 * (net + boundary[radius - 1])

    def test_inexact_envelope_bounds_open(self):
        law = _inexact_table_law()
        b = effective_resistance_bounds(law, 16)
        assert b.lo < b.hi
        # one source of truth: the point value is the reported midpoint
        assert effective_resistance(law, 16) == b.midpoint

    def test_radius_validation(self, power_half_raw):
        from levycrit import DomainError
        from levycrit.network import RESISTANCE_MAX_RADIUS

        with pytest.raises(DomainError):
            build_slice(power_half_raw, 0)
        with pytest.raises(DomainError):
            build_slice(power_half_raw, RESISTANCE_MAX_RADIUS + 1)

    # non-integral radii were once a 2.5-radius slice, an IndexError and a
    # silent radius 2; integral floats and numpy integers read as ints
    NON_INTEGRAL = (2.5, 8.5, math.nan, math.inf, "8")

    def test_slice_radius_must_be_integral(self, power_half_raw):
        from levycrit import DomainError

        for bad in self.NON_INTEGRAL:
            with pytest.raises(DomainError, match="radius must be at least 1, at most 32768 "
                                                  "and integral"):
                build_slice(power_half_raw, bad)
        want = build_slice(power_half_raw, 8)
        for good in (8.0, np.int64(8)):
            slc = build_slice(power_half_raw, good)
            assert type(slc.radius) is int and slc.radius == 8
            assert np.array_equal(slc.boundary_hi, want.boundary_hi)

    def test_bounds_radius_must_be_integral(self, power_half_raw):
        from levycrit import DomainError

        for bad in self.NON_INTEGRAL:
            with pytest.raises(DomainError, match="radius must be at least 1"):
                effective_resistance_bounds(power_half_raw, bad)
        want = effective_resistance_bounds(power_half_raw, 8)
        assert effective_resistance_bounds(power_half_raw, 8.0) == want
        assert effective_resistance_bounds(power_half_raw, np.int64(8)) == want

    def test_profile_radii_must_be_integral(self, power_half_raw):
        from levycrit import DomainError

        for bad in self.NON_INTEGRAL:
            with pytest.raises(DomainError, match="radius must be at least 1"):
                resistance_profile(power_half_raw, [bad, 16])
            with pytest.raises(DomainError, match="radius must be at least 1"):
                resistance_profile(power_half_raw, [4, bad])
        want = resistance_profile(power_half_raw, [8, 16])
        got = resistance_profile(power_half_raw, [8.0, np.int64(16)])
        assert got == want
        assert all(type(r) is int for r in got.radii)

    def test_slice_structure(self, power_half_raw):
        slc = build_slice(power_half_raw, 8)
        assert len(slc.conductance) == 15  # lags 0 .. 14
        a_mat, rhs = _folded_system(slc, slc.boundary_hi)
        assert a_mat.shape == (7, 7)  # unknowns V(1) .. V(7)
        coupling = -(a_mat - np.diag(np.diag(a_mat)))
        assert np.array_equal(coupling, coupling.T)
        assert np.all(coupling >= 0.0)
        # mirror symmetry of boundary conductances over u = -7 .. 7
        assert np.array_equal(slc.boundary_lo, slc.boundary_lo[::-1])
        assert np.array_equal(slc.boundary_hi, slc.boundary_hi[::-1])
        # row sums: the conductance to the source plus the one to ground
        u = np.arange(1, 8)
        assert np.allclose(a_mat.sum(axis=1), power_half_raw.mass(u) + slc.boundary_hi[7 + u],
                           rtol=1e-13)
        assert np.array_equal(rhs, power_half_raw.mass(u))
        assert np.all(a_mat.sum(axis=1) > 0)

    def test_largest_slice_holds_no_matrix(self, power_half_raw):
        from levycrit.network import RESISTANCE_MAX_RADIUS

        n = RESISTANCE_MAX_RADIUS
        slc = build_slice(power_half_raw, n)
        arrays = [v for v in vars(slc).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3
        assert all(a.ndim == 1 and len(a) <= 2 * n for a in arrays)

    @pytest.mark.parametrize("law_name", sorted(_FOLD_LAWS))
    @pytest.mark.parametrize("radius", [2, 3, 8, 64, 257])
    def test_products_match_dense_matrix(self, law_name, radius):
        # the FFT products of the folded matrix against the dense oracle's
        # matrix, in long double inside their rounding bounds
        from levycrit.network import _FoldedOperator

        law = _FOLD_LAWS[law_name]()
        slc = build_slice(law, radius)
        for boundary in (slc.boundary_lo, slc.boundary_hi):
            a_mat, _ = _folded_system(slc, boundary)
            op = _FoldedOperator(slc.conductance, boundary[radius:])
            x = np.random.default_rng(radius).random(radius - 1)
            want = a_mat @ x
            assert np.allclose(op.apply(x), want, rtol=1e-12, atol=1e-13 * law.total_mass)
            r, beta, phi = op.residual(x, want)  # want - A x, A formed exactly
            slack = 64 * np.finfo(float).eps * np.abs(a_mat) @ x  # want's own rounding
            assert np.all(np.abs(r.astype(float)) <= beta + phi + slack)

    @pytest.mark.parametrize("law_name", sorted(_FOLD_LAWS))
    def test_fold_matches_two_sided_solve(self, law_name):
        # the folded N-1 unknown system against the two-sided (2N-1)^2
        # Laplacian solve, at both ends of the boundary envelope: the upper
        # boundary envelope gives R_eff's lower end
        law = _FOLD_LAWS[law_name]()
        for radius in (1, 2, 3, 8, 64, 256):
            slc = build_slice(law, radius)
            got = effective_resistance_bounds(law, radius)
            assert got.lo == pytest.approx(_two_sided_resistance(slc, slc.boundary_hi), rel=1e-10)
            assert got.hi == pytest.approx(_two_sided_resistance(slc, slc.boundary_lo), rel=1e-10)


class TestFactorReuse:
    """A profile solves each radius matrix-free. The dense oracle factors
    only its largest slice and reads every radius from that factor, as an
    exact envelope makes a smaller slice's matrix a leading block."""

    EXACT = sorted(name for name in _FOLD_LAWS if name != "inexact table")

    @pytest.mark.parametrize("law_name", EXACT)
    def test_smaller_slice_is_leading_block(self, law_name):
        law = _FOLD_LAWS[law_name]()
        big = build_slice(law, 256)
        a_big, rhs_big = _folded_system(big, big.boundary_hi)
        tol = 4e-15 * law.total_mass
        u = np.arange(1, 256)
        assert np.max(np.abs(np.diagonal(a_big) - (law.total_mass - law.mass(2 * u)))) <= tol
        for n in (2, 3, 8, 64, 255):
            slc = build_slice(law, n)
            a_mat, rhs = _folded_system(slc, slc.boundary_hi)
            assert np.max(np.abs(a_mat - a_big[: n - 1, : n - 1])) <= tol
            assert np.array_equal(rhs, rhs_big[: n - 1])

    def test_inexact_envelope_breaks_leading_block(self):
        law = _inexact_table_law()
        big = build_slice(law, 64)
        a_big, _ = _folded_system(big, big.boundary_hi)
        slc = build_slice(law, 8)
        a_mat, _ = _folded_system(slc, slc.boundary_hi)
        assert np.max(np.abs(a_mat - a_big[:7, :7])) > 1e-3 * law.total_mass

    @pytest.mark.parametrize("law_name", sorted(_FOLD_LAWS))
    def test_profile_matches_per_radius_solve(self, law_name):
        law = _FOLD_LAWS[law_name]()
        radii = (1, 2, 3, 8, 64, 256)
        prof = resistance_profile(law, radii)
        for radius, got in zip(radii, prof.bounds):
            want = effective_resistance_bounds(law, radius)
            assert got.lo == pytest.approx(want.lo, rel=1e-10)
            assert got.hi == pytest.approx(want.hi, rel=1e-10)
        # the largest radius is the same solve either way
        assert prof.bounds[-1] == effective_resistance_bounds(law, radii[-1])

    @pytest.mark.parametrize("law_name", EXACT)
    def test_profile_matches_dense_factor(self, law_name):
        # radii up to 1024 read from the dense oracle's one factor
        law = _FOLD_LAWS[law_name]()
        radii = [1, 2, 3, 8, 64, 256, 1024]
        got = resistance_profile(law, radii).resistances
        assert got == pytest.approx(_dense_resistance(law, radii), rel=1e-10)

    def test_solve_memory_is_linear(self, power_half_raw):
        effective_resistance(power_half_raw, 8)  # numpy.fft's import happens here
        tracemalloc.start()
        try:
            effective_resistance(power_half_raw, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 8 * 4096  # O(N) arrays; the dense matrix took 134 MB

    @pytest.mark.parametrize("field", ["conductance", "boundary_lo", "boundary_hi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_slice_refused(self, field, bad):
        from levycrit import DomainError
        from levycrit.network import NetworkSlice

        arrays = {"conductance": np.array([0.0, 1.0, 0.5]),
                  "boundary_lo": np.full(3, 0.25), "boundary_hi": np.full(3, 0.5)}
        arrays[field][1] = bad
        with pytest.raises(DomainError, match="finite|usable tail model"):
            NetworkSlice(radius=2, **arrays)

    def test_ill_conditioned_slice_raises_or_contains(self):
        # vertex 1 hangs on couplings of 1e-30 while vertices 2 and 3 share
        # unit ones, so cond_1(A) is about 1e30: the solve either gives up
        # with a NumericError or encloses the 40-digit current
        from levycrit import NumericError
        from levycrit.network import NetworkSlice, _current

        tiny = 1e-30
        boundary = np.array([1.0, 1.0, tiny, 1.0, tiny, 1.0, 1.0])  # u = -3..3
        slc = NetworkSlice(radius=4, conductance=np.array([0.0, tiny, tiny, tiny, tiny, 1.0, 1.0]),
                           boundary_lo=boundary, boundary_hi=boundary)
        with mp.workdps(40):
            a_mat, _ = _folded_system(slc, boundary)
            deficit = mp.lu_solve(mp.matrix(a_mat.tolist()), mp.matrix(boundary[4:].tolist()))
            want = float(1 + 2 * sum(mp.mpf(tiny) * d for d in deficit))
        try:
            got = _current(slc, boundary)
        except NumericError:
            return
        assert got.lo <= want <= got.hi


class TestResistanceProfile:
    def test_flattening_is_transient_leaning(self, power_half_raw):
        prof = resistance_profile(power_half_raw, [8, 16, 32, 64, 128, 256])
        assert prof.hint == "transient-leaning"
        assert prof.resistances == tuple(sorted(prof.resistances))

    def test_linear_growth_is_recurrent_leaning(self, nearest_neighbor):
        prof = resistance_profile(nearest_neighbor, [8, 16, 32, 64, 128, 256])
        assert prof.hint == "recurrent-leaning"
        for row, radius in zip(prof.rows(), (8, 16, 32, 64, 128, 256)):
            assert row["r_eff"] == pytest.approx(radius / 2.0, abs=1e-9)

    def test_quarter_flattens_below_bound(self):
        law = make_power_law_lattice(0.25)
        prof = resistance_profile(law, [8, 16, 32, 64, 128, 256])
        assert prof.hint == "transient-leaning"
        assert prof.resistances[-1] <= dyadic_energy_bound(law).hi

    def test_radii_must_increase(self, power_half_raw):
        from levycrit import DomainError

        with pytest.raises(DomainError):
            resistance_profile(power_half_raw, [8, 8, 16])
