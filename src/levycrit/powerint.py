"""Closed forms, tail sums and the package's one quadrature rule.

Everything downstream (characteristic exponents, convergence criteria,
energy bounds, boundary conductances) reduces to three primitives:

* cosine integrals ``int_lo^hi (1 - cos u) u^-rho du``, over arrays of ranges,
* tail sums ``sum_{n > N} n^-rho`` over an arithmetic progression,
  which are Hurwitz zeta values. :func:`hurwitz_zeta` computes them here,
  in numpy, by the Euler-Maclaurin layout of Cephes ``zeta`` (DLMF 25.11):
  within 2e-15 relative of scipy's ``zeta`` for s in (1, 1021] and q in
  [0.5, 1e16] wherever that value exceeds 1e-290 (below it scipy's own
  Bernoulli terms go subnormal and lose digits),
* :func:`panel_integrals`, a fixed 15-point Gauss-Kronrod rule applied to
  every panel of a grid in one array pass, for every integral that has no
  closed form; a table of grids, one integral per row, shares each pass
  while every row keeps its own error budget and bisection.
"""

from __future__ import annotations

import math

import numpy as np


class NumericError(RuntimeError):
    """A numeric routine failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# Gauss-Kronrod panels

#: largest summed |K15 - G7| estimate of a panel pass, relative to the
#: pass's integral of |fn|
PANEL_REL_TOL = 1e-10
#: most panels bisection may add to one pass
PANEL_CAP = 1000

# QUADPACK's 15-point Kronrod rule and its embedded 7-point Gauss rule on
# [-1, 1] (Piessens et al. 1983): the positive nodes from the outer end
# inward, then the centre; the Gauss rule uses every second node and has
# zero weight on the others
_GK_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_GK_KRONROD = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GK_GAUSS = (
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
)


def _mirror(half, sign: float = 1.0) -> np.ndarray:
    return np.concatenate([sign * np.array(half[:-1]), half[::-1]])


GK15_NODES = _mirror(_GK_NODES, -1.0)
GK15_KRONROD = _mirror(_GK_KRONROD)
GK15_GAUSS = _mirror(_GK_GAUSS)


def panel_integrals(fn, edges) -> tuple[np.ndarray, float | np.ndarray]:
    """``int fn`` over each panel ``[edges[i], edges[i+1]]``, and its error.

    ``fn`` maps an array of points to values. One array pass of the 15-point
    Gauss-Kronrod rule is accepted when its summed ``|K15 - G7|`` estimate
    is at most ``PANEL_REL_TOL`` times the integral of ``|fn|``; otherwise
    each round bisects the panels above an even share of the error budget
    left. Nodes never touch an endpoint, so a panel may start at an
    integrable singularity. Raises :class:`NumericError` when ``fn`` is not
    finite at a node, or before bisection would add more than ``PANEL_CAP``.

    A 2-D ``edges`` groups integrals, one per row, into the same array
    passes: ``fn(points, row)`` also receives the row index of each panel's
    points, as a column. Each row keeps its own budget, bisection and
    ``PANEL_CAP`` by the rules above, so it matches its own 1-D pass up to
    the order of summation. The panels come back with one row per integral,
    and the error as an array with one entry per row.
    """
    edges = np.asarray(edges, dtype=float)
    grouped = edges.ndim == 2
    table = np.atleast_2d(edges)
    n_rows, n = table.shape[0], table.shape[1] - 1
    lo, hi = table[:, :-1].reshape(-1), table[:, 1:].reshape(-1)
    owner = np.arange(n_rows * n)  # the given panel each current panel belongs to
    row = np.repeat(np.arange(n_rows), n)

    def row_sum(v, at):  # np.sum for one row, so that a 1-D pass keeps its rounding
        return np.sum(v, keepdims=True) if n_rows == 1 else np.bincount(at, v, minlength=n_rows)

    panels = np.zeros(n_rows * n)
    err_done, size_done = np.zeros(n_rows), np.zeros(n_rows)
    added = np.zeros(n_rows, dtype=np.int64)
    while True:
        center = 0.5 * (hi + lo)[:, None]
        half = 0.5 * (hi - lo)
        points = center + half[:, None] * GK15_NODES
        values = fn(points, row[:, None]) if grouped else fn(points)
        kronrod = half * (values @ GK15_KRONROD)
        err = np.abs(kronrod - half * (values @ GK15_GAUSS))
        if not np.all(np.isfinite(err)):  # an inf or nan value reaches err
            raise NumericError("integrand is not finite on the panels")
        size = half * (np.abs(values) @ GK15_KRONROD)
        budget = PANEL_REL_TOL * (row_sum(size, row) + size_done) - err_done
        fail = err > (budget / np.maximum(1, np.bincount(row, minlength=n_rows)))[row]
        # a row is done when within budget, or when no panel fails (by rounding only)
        done = (row_sum(err, row) <= budget) | (np.bincount(row[fail], minlength=n_rows) == 0)
        keep = ~fail | done[row]
        panels += np.bincount(owner[keep], kronrod[keep], minlength=panels.size)
        err_done += row_sum(err[keep], row[keep])
        size_done += row_sum(size[keep], row[keep])
        split = fail & ~done[row]
        if not np.any(split):
            break
        added += 2 * np.bincount(row[split], minlength=n_rows)
        if np.any(added > PANEL_CAP):
            raise NumericError(f"panel quadrature needs more than {PANEL_CAP} added panels")
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        owner, row = np.tile(owner[split], 2), np.tile(row[split], 2)
    if grouped:
        return panels.reshape(n_rows, n), err_done
    return panels, float(err_done[0])


# ---------------------------------------------------------------------------
# cosine integrals


def one_minus_cos_integral(rho: float) -> float:
    """``int_0^inf (1 - cos u) u^-rho du`` for 1 < rho < 3.

    Classical value pi / (2 Gamma(rho) sin(pi (rho - 1) / 2)); diverges at
    both endpoints of the admissible range.
    """
    if not 1.0 < rho < 3.0:
        raise ValueError(f"rho must lie in (1, 3), got {rho}")
    return math.pi / (2.0 * math.gamma(rho) * math.sin(math.pi * (rho - 1.0) / 2.0))


def _one_minus_cos_series(rho: float, lo, hi, max_terms: int = 80):
    # int_lo^hi (1-cos u) u^-rho du = sum_j (-1)^{j+1} int_lo^hi u^(2j-rho) du / (2j)!,
    # integrated term by term until every point has converged relative to
    # itself (lo = 0 needs rho < 3)
    total = 0.0
    sign = 1.0
    fact = 1.0
    for j in range(1, max_terms + 1):
        fact *= (2 * j - 1) * (2 * j)
        term = sign * power_range(rho - 2 * j, lo, hi) / fact
        total = total + term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
        sign = -sign
    return total


#: start of the asymptotic cosine tail; below it the cosine integrals run
#: on Gauss-Kronrod panels no wider than 1
COS_TAIL_SWITCH = 200.0


def _cos_tail_asymptotic(rho: float, s: np.ndarray) -> np.ndarray:
    # int_s^inf cos(u) u^-rho du = Re[i e^{is} s^-rho sum_m (-i)^m (rho)_m s^-m]
    # (integration by parts), each point summed until its terms drop below
    # machine precision or start to grow; for any rho its negative is an
    # antiderivative of cos(u) u^-rho, up to the last term dropped
    total = np.zeros(s.shape, dtype=complex)
    term = np.ones(s.shape, dtype=complex)
    active = np.ones(s.shape, dtype=bool)
    m = 0
    while np.any(active):
        total[active] += term[active]
        nxt = term * (-1j) * (rho + m) / s
        active &= (np.abs(nxt) < np.abs(term)) & (np.abs(nxt) > 1e-17 * np.abs(total))
        term = nxt
        m += 1
    return (1j * np.exp(1j * s) * total).real * s ** -rho


def _cos_from(rho: float, x: np.ndarray) -> np.ndarray:
    """``int_x^inf cos(u) u^-rho du`` at every x > 0 of a 1-D array (0 at inf).

    Below ``COS_TAIL_SWITCH`` one Gauss-Kronrod pass on unit panels, every point
    a breakpoint, summed from the switch down; the asymptotic expansion beyond.
    For rho <= 0 only differences of two points mean anything."""
    out = np.zeros(x.shape)
    near = x < COS_TAIL_SWITCH
    far = ~near & np.isfinite(x)
    asymptotic = _cos_tail_asymptotic(rho, np.append(x[far], COS_TAIL_SWITCH))
    out[far] = asymptotic[:-1]
    if np.any(near):
        grid = np.arange(math.ceil(x[near].min()), COS_TAIL_SWITCH + 1.0)
        edges = np.union1d(x[near], grid)
        panels, _ = panel_integrals(lambda u: np.cos(u) * u ** -rho, edges)
        suffix = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
        out[near] = suffix[np.searchsorted(edges, x[near])] + asymptotic[-1]
    return out


def one_minus_cos_range(rho: float, lo, hi):
    """``int_lo^hi (1 - cos u) u^-rho du`` elementwise, for 0 <= lo <= hi <= inf.

    A float for scalar bounds; inf where it diverges (at inf for rho <= 1,
    at 0 for rho >= 3). Below 6 the cosine series is integrated term by term;
    from 6 on it is the plain power integral minus the cosine integral, which
    is smaller by a factor of order u. No near-equal large numbers cancel: a
    tail taken as the full integral minus a partial loses 2e-11 at rho = 2.99.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    a, b = lo.reshape(-1), hi.reshape(-1)
    if np.any(a < 0):
        raise ValueError("bounds must be nonnegative")
    origin = (a == 0.0) & (rho >= 3.0)  # divergent: evaluated on an empty range, then inf
    a = np.where(origin, b, a)
    near = _one_minus_cos_series(rho, np.minimum(a, 6.0), np.minimum(b, 6.0))
    a, b = np.maximum(a, 6.0), np.maximum(b, 6.0)
    cos_a, cos_b = np.split(_cos_from(rho, np.concatenate([a, b])), 2)
    out = np.maximum(0.0, near + power_range(rho, a, b) - (cos_a - cos_b))
    out[origin] = math.inf
    return float(out[0]) if lo.ndim == 0 else out.reshape(lo.shape)


def one_minus_cos_tail(rho: float, s):
    """``int_s^inf (1 - cos u) u^-rho du`` elementwise; see :func:`one_minus_cos_range`."""
    return one_minus_cos_range(rho, s, math.inf)


def power_range(rho: float, a, b):
    """``int_a^b u^-rho du`` elementwise, for 0 <= a <= b <= inf; a = 0 needs rho < 1.

    A float for scalar bounds. With q = 1 - rho, a narrow range
    (|q log(b/a)| < 1) takes ``a^q expm1(q log1p((b - a) / a)) / q``:
    ``b - a`` is exact for b <= 2a, so a range [a, b] far out keeps every
    digit where ``b^q - a^q`` would lose about log10(a / (b - a)) of them. A
    wider range takes that difference, which cancels by less than a factor e.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    q = 1.0 - rho
    with np.errstate(divide="ignore", invalid="ignore"):  # a = 0 or b = inf
        log_ratio = np.log1p((b - a) / a)
        narrow = np.abs(q * log_ratio) < 1.0
        out = log_ratio if q == 0.0 else np.where(
            narrow, a ** q * np.expm1(q * log_ratio) / q, (b ** q - a ** q) / q)
    return float(out) if out.ndim == 0 else out


def power_integral_tail(constant: float, p: float, y_from: float) -> float:
    """``int_{y_from}^inf K y^-p dy``; +inf when p <= 1."""
    if p <= 1.0:
        return math.inf
    return constant * y_from ** (1.0 - p) / (p - 1.0)


# Euler-Maclaurin denominators (2k)!/B_2k, k = 1..12, of Cephes zeta.c
# (Moshier, "Methods and Programs for Mathematical Functions", 1989)
_ZETA_BERNOULLI = np.array([
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
])
_ZETA_HEAD = np.arange(10.0)  # the terms q .. q+9 are summed one by one
_ZETA_POCH = np.arange(23.0)  # factors s + i of the Pochhammer symbols (s)_(2k-1)
_ZETA_POWERS = np.arange(1.0, 13.0)  # powers k of w^-2k
#: past this q the two-term expansion (DLMF 25.11.43) is exact to rounding
_ZETA_FAR = 1e8
#: w^-s underflows to 0 for w >= 9 once s > 339
_ZETA_S_CAP = 1e3


def hurwitz_zeta(s, q):
    """Hurwitz ``zeta(s, q) = sum_{n >= 0} (n + q)^-s`` for s >= 1, q > 0.

    ``s`` and ``q`` broadcast; a float for scalar arguments. The terms q ..
    q+9 are summed directly, and the rest is the expansion DLMF 25.11.43 at
    w = q + 9: ``w^(1-s)/(s-1) - w^-s/2`` plus 12 Bernoulli terms
    ``(s)_(2k-1) w^(1-s-2k) B_2k/(2k)!``, taken as one polynomial in w^-2;
    past q = 1e8 it is ``(1/(s-1) + 1/(2q)) q^(1-s)``. Every element runs the
    same fixed terms. At the pole s = 1, and past the float range, the
    result is inf, without a warning; below the range it underflows to 0.
    """
    s, q = np.asarray(s, dtype=float), np.asarray(q, dtype=float)
    scalar = s.ndim == q.ndim == 0
    # at least 1-d, so that every operand stays an array: numpy's scalar
    # power is libm's, which can differ from the array loop's in the last bit
    s, q = np.atleast_1d(s, q)
    w = q + 9.0
    # (s)_(2k-1) B_2k/(2k)! times w^-2k, summed over k; past s = _ZETA_S_CAP,
    # w^-s is 0, and capping s there keeps the factors finite
    poch = np.minimum(s, _ZETA_S_CAP)[..., None] + _ZETA_POCH
    coef = np.multiply.accumulate(poch, axis=-1)[..., ::2] / _ZETA_BERNOULLI
    bernoulli = (coef * (1.0 / (w * w))[..., None] ** _ZETA_POWERS).sum(axis=-1)
    # (q + i)^-s overflows only where zeta does, q^(1-s) only below q = 1,
    # where it is not used, and s = 1 is the pole: inf
    with np.errstate(over="ignore", divide="ignore"):
        head = ((q[..., None] + _ZETA_HEAD) ** -s[..., None]).sum(axis=-1)
        b, s1 = w ** -s, s - 1.0
        bw = b * w
        near = head + bw / s1 - 0.5 * b + bw * bernoulli
        far = (1.0 / s1 + 0.5 / q) * q ** -s1
    out = np.where(q > _ZETA_FAR, far, near)
    return float(out[0]) if scalar else out


def strided_power_sum(rho: float, stride: int, offset: int, n_from):
    """``sum n^-rho`` over integers n >= n_from with n = offset (mod stride).

    A Hurwitz zeta value: with n = stride*j + r the sum is
    ``stride^-rho hurwitz_zeta(rho, j0 + r/stride)``. Requires rho > 1.
    Accepts float ``n_from`` (the sum runs over lattice points strictly
    above n_from - 1, i.e. n >= ceil(n_from)), and an array of them
    elementwise; a float for a scalar ``n_from``, and +inf when rho <= 1.
    """
    if rho <= 1.0:
        return math.inf
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    r = offset % stride
    n0 = np.ceil(np.asarray(n_from, dtype=float))
    # smallest j with stride*j + r >= max(n0, 1); for r = 0 the progression starts at j = 1
    if r == 0:
        j0 = np.maximum(1.0, np.ceil(n0 / stride))
    else:
        j0 = np.maximum(0.0, np.ceil((n0 - r) / stride))
    return stride ** -rho * hurwitz_zeta(rho, j0 + r / stride)
