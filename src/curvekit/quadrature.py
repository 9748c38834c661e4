"""Adaptive numerical integration on finite intervals.

The rule pair is Gauss-Kronrod 7/15: the 15-point Kronrod rule supplies the
value of each panel, the magnitude of its difference from the embedded
7-point Gauss rule supplies the error estimate, and the panel with the worst
estimate is bisected until the accumulated estimate meets the tolerance.
Node and weight literals are given to 20 significant digits; they were
checked against the Legendre P7 roots and by polynomial exactness (the Gauss
rule is exact through degree 13, the Kronrod rule through degree 23).

Both integrators (the panels, and the Chebyshev pieces of _accumulate) call
the integrand once per panel or piece as f(nodes); it returns one column of
values per component, and the columns give the component count.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from itertools import repeat
from operator import add, itemgetter, lt, mul, sub
from typing import NamedTuple

__all__ = [
    "IntegrationResult",
    "MaxDepthExceeded",
    "NonFiniteIntegrand",
    "integrate",
    "integrate_vector2",
]

# Positive Kronrod abscissae for [-1, 1]. Odd indices are the embedded
# 7-point Gauss nodes; the centre node 0 is shared and kept separate.
_XGK = (
    0.99145537112081263921,
    0.94910791234275852453,
    0.86486442335976907279,
    0.74153118559939443986,
    0.58608723546769113029,
    0.40584515137739716691,
    0.20778495500789846760,
)
_WGK = (
    0.022935322010529224964,
    0.063092092629978553291,
    0.10479001032225018384,
    0.14065325971552591875,
    0.16900472663926790283,
    0.19035057806478540991,
    0.20443294007529889241,
)
_WGK_CENTER = 0.20948214108472782801
_WG = (
    0.12948496616886969327,
    0.27970539148927666790,
    0.38183005050511894495,
)
_WG_CENTER = 0.41795918367346938776

_MAX_DEPTH = 50
_MAX_PANELS = 10_000  # panels per integral, pieces per station sweep
# stations per grid: 50 times the largest count in use, checked before the
# list is built, so a count of 1e10 is an error, not a MemoryError
_MAX_STATIONS = 1_000_000
_ERR_FLOOR = 1e-14  # absolute error floor near machine precision
_EPS = 2.0**-52
_LEFT_EDGE = itemgetter(2)  # of a heap entry

# Station sampler: Chebyshev interpolation of degree _CHEB_N per piece, at
# the Lobatto points x_j = cos(pi j / N), from x_0 = 1 down to x_N = -1.
# c_k = sum_j _DCT[k][j] f(x_j) are the interpolant's coefficients
# (a DCT-I, with the end samples and the end coefficients halved).
_CHEB_N = 32
_HALF_N = _CHEB_N // 2
# cos(pi r / N) as sin(pi (N/2 - m) / N), m = min(r, 2N - r): sin is odd, so
# _COS[N - r] = -_COS[r] exactly and cos(pi / 2) is 0, and the fold below
# regroups the table's products exactly
_COS = tuple(
    math.sin(math.pi * (_HALF_N - min(r, 2 * _CHEB_N - r)) / _CHEB_N)
    for r in range(2 * _CHEB_N)
)
_LOBATTO = _COS[: _CHEB_N + 1]
_DCT = tuple(
    tuple(
        (2.0 / _CHEB_N)
        * (0.5 if j in (0, _CHEB_N) else 1.0)
        * (0.5 if k in (0, _CHEB_N) else 1.0)
        * _COS[j * k % (2 * _CHEB_N)]
        for j in range(_CHEB_N + 1)
    )
    for k in range(_CHEB_N + 1)
)
# _DCT[k][N - j] = (-1)^k _DCT[k][j], so row k acts on f_j + f_(N-j) (and
# f_(N/2)) for even k and on f_j - f_(N-j) for odd k, j < N/2
_DCT_FOLD = tuple(row[: _HALF_N + (k % 2 == 0)] for k, row in enumerate(_DCT))


class MaxDepthExceeded(ArithmeticError):
    """Bisection hit the depth limit: singular or pathological integrand."""


class NonFiniteIntegrand(ArithmeticError):
    """The integrand returned nan or inf at a quadrature node."""


class IntegrationResult(NamedTuple):
    """Value of a definite integral with its accumulated error estimate.

    error_estimate sums the panels' |K15 - G7| differences. It leaves out
    the rounding of the panel sums, which dominates near a tol of 1e-14,
    so there it is not a bound on the value's error."""

    value: float
    error_estimate: float
    subdivisions: int


def _eval_panel(f, a: float, b: float):
    """Apply the G7/K15 pair to f on [a, b], called once on the 15 nodes.

    Returns (values, errors), one entry per column f returns, where errors
    is the per-component |K15 - G7| difference scaled to the interval.
    """
    xm = 0.5 * (a + b)
    xr = 0.5 * (b - a)
    x1, x2, x3, x4, x5, x6, x7 = _XGK
    d1, d2, d3, d4, d5, d6, d7 = xr * x1, xr * x2, xr * x3, xr * x4, xr * x5, xr * x6, xr * x7
    # the centre xm itself (so -0.0 stays), then xm -+ xr * x per abscissa,
    # written out: faster than a comprehension, a function call per panel
    # before Python 3.12
    nodes = [xm, xm - d1, xm + d1, xm - d2, xm + d2, xm - d3, xm + d3, xm - d4, xm + d4,
             xm - d5, xm + d5, xm - d6, xm + d6, xm - d7, xm + d7]
    k1, k2, k3, k4, k5, k6, k7 = _WGK
    g2, g4, g6 = _WG  # pairs 2, 4 and 6 are the Gauss nodes
    values = []
    errors = []
    for c, col in enumerate(f(nodes)):
        y, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7 = col
        # pair sums f(xm - dx) + f(xm + dx), added left to right in the fixed
        # Kronrod order, which rounds the same way on every interpreter
        p2, p4, p6 = l2 + r2, l4 + r4, l6 + r6
        kron = (_WGK_CENTER * y + k1 * (l1 + r1) + k2 * p2 + k3 * (l3 + r3) + k4 * p4
                + k5 * (l5 + r5) + k6 * p6 + k7 * (l7 + r7))
        gauss = _WG_CENTER * y + g2 * p2 + g4 * p4 + g6 * p6
        value = kron * xr
        if not math.isfinite(value):
            raise NonFiniteIntegrand(
                f"integrand component {c} is not finite on [{a!r}, {b!r}]"
            )
        values.append(value)
        errors.append(abs(kron - gauss) * abs(xr))
    return values, errors


def _integrate_components(f, a: float, b: float, tol: float, breaks=(), *, scale: float = 1.0):
    """Shared-subdivision adaptive integration of an integrand f that maps
    a node list to one column of values per component.

    All components are integrated over the same panel set; the set is
    accepted only when every component's accumulated estimate meets
    max(tol * scale, tol * |value|, floor). The default scale 1 makes that
    target relative to each value; a scale at least as large as every
    |value| can get makes it the absolute tol * scale. breaks are optional
    interior points, increasing within (a, b): the loop starts from the
    panels they cut [a, b] into, under the one global error budget, so a
    feature narrower than the first panel's node spacing is not missed.
    Without breaks, the one starting panel is evaluated first, and when it
    meets the target the integral returns straight from it: its values and
    errors are the final sums to the bit, and no leaf or heap is built. A
    panel that fails seeds the heap as its one leaf and is bisected from
    there, never evaluated twice. With breaks, convergence is tested on the
    starting panels first: when they meet the target, they are the leaves,
    already in spatial order, so nothing is sorted. Only the first bisection
    heapifies them. Deterministic: the heap is ordered by (error, insertion
    sequence) and the final sums run in spatial order.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError("integration requires a <= b")
    _check_tol(tol)

    floor = max(tol * scale, _ERR_FLOOR)
    row = tuple.__new__  # skips the NamedTuple's Python-level __new__
    # Leaves: (-worst component error, sequence, a, b, depth, values, errors),
    # in spatial order until the first bisection makes them a heap
    if breaks:
        edges = (a, *breaks, b)
        totals = errs = repeat(0.0)  # one running sum per column, from 0.0
        heap = []
        for seq, (pa, pb) in enumerate(zip(edges, edges[1:])):
            values, errors = _eval_panel(f, pa, pb)
            totals = list(map(add, totals, values))
            errs = list(map(add, errs, errors))
            heap.append((-max(errors), seq, pa, pb, 0, values, errors))
    else:
        totals, errs = _eval_panel(f, a, b)
        if all([e <= floor or e <= tol * abs(t) for e, t in zip(errs, totals)]):
            # one leaf: its sum is 0.0 + x, which is fsum([x]) to the bit (x
            # itself, except that -0.0 becomes +0.0); errors are never -0.0
            return [row(IntegrationResult, (0.0 + v, e, 1)) for v, e in zip(totals, errs)]
        heap = [(-max(errs), 0, a, b, 0, totals, errs)]
    seq = len(heap)  # panels evaluated so far; equal to len(heap) until a bisection
    while not all([e <= floor or e <= tol * abs(t) for e, t in zip(errs, totals)]):
        if seq == len(heap):
            heapq.heapify(heap)  # pops follow the (-error, seq) keys, a total order
        _, _, pa, pb, depth, pv, pe = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            raise MaxDepthExceeded(
                f"no convergence after depth {_MAX_DEPTH} near [{pa!r}, {pb!r}]"
            )
        if seq + 2 > _MAX_PANELS:
            raise MaxDepthExceeded(
                f"no convergence within {_MAX_PANELS} panels on [{a!r}, {b!r}]"
            )
        mid = 0.5 * (pa + pb)
        lv, le = _eval_panel(f, pa, mid)
        rv, re = _eval_panel(f, mid, pb)
        totals = [t + (x + y - p) for t, x, y, p in zip(totals, lv, rv, pv)]
        errs = [e + (x + y - p) for e, x, y, p in zip(errs, le, re, pe)]
        heapq.heappush(heap, (-max(le), seq, pa, mid, depth + 1, lv, le))
        heapq.heappush(heap, (-max(re), seq + 1, mid, pb, depth + 1, rv, re))
        seq += 2

    n = len(heap)
    if seq > n:  # a bisection made the leaves a heap: put them back in spatial order
        heap.sort(key=_LEFT_EDGE)
    values = map(math.fsum, zip(*(leaf[5] for leaf in heap)))
    errors = map(math.fsum, zip(*(leaf[6] for leaf in heap)))
    return [row(IntegrationResult, (v, e, n)) for v, e in zip(values, errors)]


def _check_tol(tol: float) -> None:
    # tol = inf would accept the first estimate, tol <= 0 or nan never converges
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


def _chebyshev_piece(f, a: float, b: float, tol: float):
    """Chebyshev coefficients of each column f returns on [a, b], called
    once on the Lobatto points, or None when some component's last three
    coefficients exceed tol * max(1, max |c_k|). Each coefficient is one
    folded row (_DCT_FOLD) summed with fsum, so it is correctly rounded."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = [mid + half * x for x in _LOBATTO]
    nodes[0] = b  # exact ends: the integrand may not accept an ulp beyond
    nodes[-1] = a
    coeffs = []
    for c, col in enumerate(f(nodes)):
        if not all(map(math.isfinite, col)):
            raise NonFiniteIntegrand(
                f"integrand component {c} is not finite on [{a!r}, {b!r}]"
            )
        head, tail = col[:_HALF_N], col[:_HALF_N:-1]  # f_j and f_(N-j), j < N/2
        plus = [*map(add, head, tail), col[_HALF_N]]
        minus = list(map(sub, head, tail))
        ck = [math.fsum(map(mul, row, minus if k & 1 else plus))
              for k, row in enumerate(_DCT_FOLD)]
        if max(map(abs, ck[-3:])) > tol * max(1.0, max(map(abs, ck))):
            return None
        coeffs.append(ck)
    return coeffs


def _antiderivative(ck, half: float):
    """Coefficients of x -> half * integral_{-1}^{x} sum_k ck[k] T_k, which
    is 0 at x = -1, with the trailing terms below rounding dropped."""
    n = len(ck)
    c = [2.0 * ck[0], *ck[1:], 0.0, 0.0]
    out = [half * (c[k - 1] - c[k + 1]) / (2 * k) for k in range(1, n + 1)]
    drop = _EPS * half * max(1.0, max(map(abs, ck)))
    while out and abs(out[-1]) <= drop:
        drop -= abs(out.pop())
    return [math.fsum(v if k & 1 else -v for k, v in enumerate(out, 1)), *out]


def _clenshaw(head: float, tail, ts, out: list) -> None:
    """Append head + sum_k c_k T_k(t) to out for each t in ts, where tail is
    (c_n, ..., c_1): Clenshaw's recurrence, one lane at a time."""
    append = out.append
    for t in ts:
        t2 = t + t
        b1 = b2 = 0.0
        for r in tail:
            b1, b2 = t2 * b1 - b2 + r, b1
        append(head + t * b1 - b2)


def _stations(a: float, b: float, count: int):
    """count uniform stations from a to b: a + (b - a) * i / (count - 1).
    For a = 0 and b >= 0 this is b * i / (count - 1) to the bit.

    Raises ValueError unless 2 <= count <= _MAX_STATIONS, before any
    station is computed, and then unless the last station is finite, which
    fails for a non-finite end and for a (b - a) * (count - 1) that
    overflows. For a < b, also unless the stations increase strictly and
    half their extent is positive: the station sweep maps a piece onto
    [-1, 1] by dividing by its half-width, which rounds to 0 over one least
    subnormal (5e-324). An empty or reversed range is the caller's to
    report."""
    if count < 2:
        raise ValueError("count must be at least 2")
    if count > _MAX_STATIONS:
        raise ValueError(f"count must be at most {_MAX_STATIONS}")
    stations = [a + (b - a) * i / (count - 1) for i in range(count)]
    if not math.isfinite(stations[-1]):
        raise ValueError(f"[{a!r}, {b!r}] gives no finite grid of {count} stations: "
                         f"the range and (b - a) * {count - 1} must be finite")
    if a < b and not (
        0.5 * (stations[-1] - stations[0]) > 0.0 and all(map(lt, stations, stations[1:]))
    ):
        raise ValueError(f"[{a!r}, {b!r}] is too short for {count} stations")
    return stations


def _accumulate(f, stations, tol: float):
    """One column per column of f: at each station s, the integral of that
    column from the first station to s, for increasing stations.

    Dense output: [stations[0], stations[-1]] is bisected depth-first into
    pieces on which the Chebyshev interpolant of f at 33 Lobatto points has
    a tail within tol (see _chebyshev_piece). Each piece's interpolant is
    integrated exactly, and every station inside the piece is one Clenshaw
    sum of that antiderivative plus the end values of the earlier pieces,
    added in piece order. A piece maps its stations onto [-1, 1] once, for
    all lanes, then sums each lane over them in one loop (_clenshaw).
    f is called once per piece, not per station; the error at s is about
    tol * (s - stations[0]) times the size of f. The first station holds
    exact zeros. Raises MaxDepthExceeded when a piece can no longer be
    halved in floating point or _MAX_PANELS pieces have been sampled, and
    NonFiniteIntegrand on a nan or inf sample, and ValueError unless
    0 < tol < inf.
    """
    _check_tol(tol)
    stations = list(stations)
    columns = offsets = None  # per lane: the sums so far, the integral up to the piece
    pending = [(stations[0], stations[-1])]  # pieces to the right, nearest last
    pieces = 0
    i = 1
    while pending:
        pa, pb = pending.pop()
        pieces += 1
        if pieces > _MAX_PANELS:
            raise MaxDepthExceeded(
                f"no convergence within {_MAX_PANELS} pieces near [{pa!r}, {pb!r}]"
            )
        mid = 0.5 * (pa + pb)
        ck = _chebyshev_piece(f, pa, pb, tol)
        if ck is None:
            if not pa < mid < pb:
                raise MaxDepthExceeded(f"cannot split [{pa!r}, {pb!r}] further")
            pending.append((mid, pb))
            pending.append((pa, mid))
            continue
        if columns is None:  # the first piece gives the lane count
            columns = [[0.0] for _ in ck]
            offsets = [0.0] * len(ck)
        half = 0.5 * (pb - pa)
        j = bisect_right(stations, pb, i)
        ts = [(s - mid) / half for s in stations[i:j]]
        lanes = [_antiderivative(c, half) for c in ck]
        # per lane: the value term, and the Clenshaw coefficients from its
        # own highest degree down to 1
        for lane, off, col in zip(lanes, offsets, columns):
            _clenshaw(lane[0] + off, lane[:0:-1], ts, col)
        offsets = [off + math.fsum(lane) for off, lane in zip(offsets, lanes)]
        i = j
    return columns


def integrate(f, a: float, b: float, tol: float = 1e-12) -> IntegrationResult:
    """Integrate a scalar function f over [a, b].

    The returned value satisfies |value - integral| <= max(tol, tol * |value|)
    up to an absolute floor of 1e-14 near machine precision. Raises
    NonFiniteIntegrand if f produces nan/inf at a node and MaxDepthExceeded
    if panel bisection reaches depth 50 or 10,000 panels without converging.
    Repeated calls with identical arguments are bit-identical.
    """
    (res,) = _integrate_components(lambda xs: (list(map(f, xs)),), a, b, tol)
    return res


def integrate_vector2(fx, fy, a: float, b: float, tol: float = 1e-12):
    """Integrate two scalar functions over [a, b] on a shared panel set.

    Both components see the same subdivision, so their results are suitable
    for coordinates of one point. Returns a pair of IntegrationResult with
    equal subdivision counts.
    """
    rx, ry = _integrate_components(lambda xs: (list(map(fx, xs)), list(map(fy, xs))), a, b, tol)
    return rx, ry
