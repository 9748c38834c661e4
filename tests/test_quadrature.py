"""Integrator tests against closed forms and a composite-Simpson oracle."""

import heapq
import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvekit.hermite import chord_angle, drawable_region
from curvekit.analysis import lcg_analytic
from curvekit.pseudospiral import (
    CurveSample,
    NaturalEquation,
    SampledCurve,
    evaluate_point,
    sample_curve,
)
from curvekit.qi3d import QiCurveSpec, qi_point, sample_qi
from curvekit.quadrature import (
    IntegrationResult,
    MaxDepthExceeded,
    NonFiniteIntegrand,
    integrate,
    integrate_vector2,
    _DCT,
    _ERR_FLOOR,
    _MAX_DEPTH,
    _MAX_PANELS,
    _WG,
    _WG_CENTER,
    _WGK,
    _WGK_CENTER,
    _XGK,
    _accumulate,
    _check_tol,
    _antiderivative,
    _chebyshev_piece,
    _clenshaw,
    _eval_panel,
    _integrate_components,
    _stations,
)
from curvekit.render import OrnamentSpec, ornament_svg


def simpson_oracle(f, a, b, panels=1_000_000):
    """Independent composite Simpson rule on a vectorized integrand."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = f(x)
    h = (b - a) / (2 * panels)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())


# ------------------------------------------------------------ panel rule


def test_panel_rule_polynomial_exactness():
    # G7 is exact through degree 13, K15 through degree 23
    for deg in range(0, 14):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        values, errors = _eval_panel(lambda xs, d=deg: ([x**d for x in xs],), -1.0, 1.0)
        assert values[0] == pytest.approx(exact, abs=1e-14)
        assert errors[0] < 1e-13
    for deg in (14, 16, 18, 20, 22):
        values, errors = _eval_panel(lambda xs, d=deg: ([x**d for x in xs],), -1.0, 1.0)
        exact = 2.0 / (deg + 1)
        assert values[0] == pytest.approx(exact, abs=1e-14)
    # degree 24 breaks the Kronrod rule: the panel value must drift
    values, _ = _eval_panel(lambda xs: ([x**24 for x in xs],), -1.0, 1.0)
    assert abs(values[0] - 2.0 / 25.0) > 1e-10


def reference_panel(g, a, b, m):
    """The G7/K15 panel on a per-node integrand g (an m-tuple per node),
    summed in the order the column walk keeps: centre, then w * (f(xm - dx)
    + f(xm + dx)) left to right."""
    xm, xr = 0.5 * (a + b), 0.5 * (b - a)
    fc = g(xm)
    kron = [_WGK_CENTER * v for v in fc]
    gauss = [_WG_CENTER * v for v in fc]
    for i in range(7):
        dx = xr * _XGK[i]
        f1, f2 = g(xm - dx), g(xm + dx)
        for c in range(m):
            kron[c] += _WGK[i] * (f1[c] + f2[c])
            if i & 1:
                gauss[c] += _WG[i >> 1] * (f1[c] + f2[c])
    return [v * xr for v in kron], [abs(k - q) * abs(xr) for k, q in zip(kron, gauss)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-3.0, 3.0)), min_size=1, max_size=3),
    st.floats(-1e3, 1e3),
    st.floats(0.0, 1e3),
)
@example([(1.0, 0.5), (-2.0, 0.0), (7.5, -1.0)], -0.0, 0.0)
def test_column_panel_is_bit_identical_to_the_per_node_panel(params, a, width):
    def g(x):
        return tuple(math.sin(k * x + p) * math.exp(-abs(x) / (1.0 + abs(k))) for k, p in params)

    values, errors = _eval_panel(lambda xs: tuple(zip(*map(g, xs))), a, a + width)
    want_values, want_errors = reference_panel(g, a, a + width, len(params))
    assert [v.hex() for v in values] == [v.hex() for v in want_values]
    assert [e.hex() for e in errors] == [e.hex() for e in want_errors]


@pytest.mark.parametrize(
    "a, b", [(-0.0, -0.0), (0.0, 0.0), (-0.0, 0.0), (0.3, 0.7), (-2.5, 1e-300), (1e300, 1.7e308)]
)
def test_panel_nodes_are_centre_then_minus_plus_pairs(a, b):
    # compared by hex: on a = b = -0.0 the centre must be -0.0, which it is
    # only as xm itself (xm + xr * 0.0 would be +0.0)
    seen = []

    def f(xs):
        seen.extend(xs)
        return ([1.0] * len(xs),)

    _eval_panel(f, a, b)
    xm, xr = 0.5 * (a + b), 0.5 * (b - a)
    want = [xm]
    for x in _XGK:
        want += (xm - xr * x, xm + xr * x)
    assert [x.hex() for x in seen] == [x.hex() for x in want]


# ------------------------------------------------------------ panel loop


def reference_integrate_components(
    f, a: float, b: float, tol: float, breaks=(), *, scale: float = 1.0, leaf_edges=None
):
    """The panel loop as it was before one-panel integrals returned at once,
    copied verbatim (docstring aside): the reference for the property below."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError("integration requires a <= b")
    _check_tol(tol)

    atol = tol * scale
    edges = (a, *breaks, b)
    totals = errs = repeat(0.0)  # one running sum per column, from 0.0
    # Heap entries: (-worst component error, sequence, a, b, depth, values, errors)
    heap = []
    for seq, (pa, pb) in enumerate(zip(edges, edges[1:])):
        values, errors = _eval_panel(f, pa, pb)
        totals = list(map(add, totals, values))
        errs = list(map(add, errs, errors))
        heapq.heappush(heap, (-max(errors), seq, pa, pb, 0, values, errors))
    seq = len(heap)
    while not all(e <= max(atol, tol * abs(t), _ERR_FLOOR) for e, t in zip(errs, totals)):
        _, _, pa, pb, depth, pv, pe = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            raise MaxDepthExceeded(
                f"no convergence after depth {_MAX_DEPTH} near [{pa!r}, {pb!r}]"
            )
        if seq + 2 > _MAX_PANELS:  # seq counts the panels evaluated so far
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

    leaves = sorted(heap, key=lambda leaf: leaf[2])
    if leaf_edges is not None and len(leaves) > 1:
        leaf_edges += [leaf[2] for leaf in leaves[1:]]
    values = map(math.fsum, zip(*(leaf[5] for leaf in leaves)))
    errors = map(math.fsum, zip(*(leaf[6] for leaf in leaves)))
    return [IntegrationResult(v, e, len(leaves)) for v, e in zip(values, errors)]


def loop_column(kind, p, q):
    """One integrand column: smooth, exact on one panel, -0.0 everywhere,
    with a pole at q, nan past q, or noise."""
    return {
        "wave": lambda x: math.sin(p * x + q) * math.exp(-abs(x) / (1.0 + abs(p))),
        "poly": lambda x: p * x * x + q,
        "zero": lambda x: -0.0,
        "pole": lambda x: 1.0 / (x - q) if x != q else math.inf,
        "nan": lambda x: math.nan if x > q else p,
        "noise": _noise,
    }[kind]


def run_loop(integrate_components, columns, a, b, tol, breaks, scale, edges):
    """(results or exception, the node lists f saw, leaf_edges), all as hex."""
    fns = [loop_column(*c) for c in columns]
    seen = []

    def f(xs):
        seen.append([x.hex() for x in xs])
        return [list(map(g, xs)) for g in fns]

    leaf_edges = None if edges is None else list(edges)
    try:
        results = integrate_components(f, a, b, tol, breaks, scale=scale, leaf_edges=leaf_edges)
        got = [(r.value.hex(), r.error_estimate.hex(), r.subdivisions) for r in results]
    except (MaxDepthExceeded, NonFiniteIntegrand) as exc:
        got = (type(exc), str(exc))
    return got, seen, leaf_edges if edges is None else [e.hex() for e in leaf_edges]


@st.composite
def loop_cases(draw):
    a = draw(st.floats(-10.0, 10.0))
    b = a + draw(st.floats(0.0, 20.0))
    columns = draw(st.lists(
        st.tuples(st.sampled_from(["wave", "poly", "zero", "pole", "nan"]),
                  st.floats(-40.0, 40.0), st.floats(-10.0, 30.0)),
        min_size=1, max_size=3,
    ))
    inner = draw(st.lists(st.floats(a, b), max_size=3, unique=True))
    breaks = sorted(x for x in inner if a < x < b)
    tol = 10.0 ** draw(st.floats(-13.0, -3.0))
    scale = draw(st.just(1.0) | st.floats(1e-3, 1e3))
    edges = draw(st.sampled_from([None, (), (7.0,)]))
    return columns, a, b, tol, breaks, scale, edges


@settings(max_examples=300, deadline=None)
@given(loop_cases())
@example(([("zero", 0.0, 0.0)], 0.0, 1.0, 1e-12, [], 1.0, ()))  # one panel: +0.0, as fsum
@example(([("zero", 0.0, 0.0), ("wave", 30.0, 1.0)], -1.0, 2.0, 1e-12, [0.5], 1.0, ()))
@example(([("poly", 2.0, -0.0)], 0.0, 1.0, 1e-12, [], 1.0, (7.0,)))
@example(([("pole", 0.0, 0.3)], 0.0, 1.0, 1e-12, [], 1.0, None))  # depth limit
@example(([("wave", 1.0, 0.0), ("nan", 1.0, 0.7)], 0.0, 1.0, 1e-12, [0.25], 1.0, ()))
@example(([("noise", 0.0, 0.0)], 0.0, 1.0, 1e-12, [], 1.0, None))  # panel budget
def test_panel_loop_is_bit_identical_to_the_reference_loop(case):
    # values, error estimates, subdivisions, leaf edges, exceptions and
    # every node list handed to f, all bit for bit
    columns, a, b, tol, breaks, scale, edges = case
    args = (columns, a, b, tol, breaks, scale, edges)
    assert run_loop(_integrate_components, *args) == run_loop(reference_integrate_components, *args)


# ------------------------------------------------------------ basic values


def test_constant_and_identity():
    r = integrate(lambda x: 1.0, 0.0, 3.0)
    assert r.value == pytest.approx(3.0, abs=1e-13)
    assert r.subdivisions >= 1
    r = integrate(lambda x: x, 0.0, 2.0)
    assert r.value == pytest.approx(2.0, abs=1e-13)


def test_cosine_quarter_period():
    r = integrate(math.cos, 0.0, math.pi / 2.0)
    assert abs(r.value - 1.0) <= 1e-12


def test_decaying_exponential():
    r = integrate(lambda x: math.exp(-x), 0.0, 5.0)
    # closed form 1 - e^-5
    assert abs(r.value - 0.99326205300091453) <= 1e-12


def test_empty_interval():
    r = integrate(math.sin, 2.0, 2.0)
    assert r.value == 0.0
    assert r.error_estimate == 0.0
    assert r.subdivisions == 1


def test_error_estimate_nonnegative_and_honest():
    r = integrate(lambda x: math.sin(x * x), 0.0, 3.0)
    exact = simpson_oracle(lambda x: np.sin(x * x), 0.0, 3.0)
    assert r.error_estimate >= 0.0
    assert abs(r.value - exact) <= 1e-9


# ------------------------------------------------------------ vector form


def test_vector2_shares_subdivision():
    rx, ry = integrate_vector2(math.cos, math.sin, 0.0, math.pi)
    assert rx.subdivisions == ry.subdivisions
    assert rx.value == pytest.approx(0.0, abs=1e-12)
    assert ry.value == pytest.approx(2.0, abs=1e-12)


def test_vector2_fresnel_values():
    # frozen from the Simpson oracle (1e6 panels):
    #   int_0^1 cos(t^2) dt = 0.90452423790027209
    #   int_0^1 sin(t^2) dt = 0.31026830172338110
    rx, ry = integrate_vector2(
        lambda t: math.cos(t * t), lambda t: math.sin(t * t), 0.0, 1.0
    )
    assert abs(rx.value - 0.90452423790027209) <= 1e-12
    assert abs(ry.value - 0.31026830172338110) <= 1e-12
    cx = simpson_oracle(lambda t: np.cos(t * t), 0.0, 1.0)
    sx = simpson_oracle(lambda t: np.sin(t * t), 0.0, 1.0)
    assert abs(rx.value - cx) <= 1e-9
    assert abs(ry.value - sx) <= 1e-9


# ------------------------------------------------------------ invariants


def test_linearity():
    f = lambda x: math.exp(-x) * math.cos(3.0 * x)
    base = integrate(f, 0.0, 2.0, tol=1e-12).value
    for c in (-2.0, 0.5, 10.0):
        scaled = integrate(lambda x: c * f(x), 0.0, 2.0, tol=1e-12).value
        assert scaled == pytest.approx(c * base, abs=1e-11 * max(1.0, abs(c)))


def test_interval_additivity():
    f = lambda x: math.sin(x) * math.exp(0.3 * x)
    tol = 1e-12
    whole = integrate(f, 0.0, 4.0, tol=tol)
    left = integrate(f, 0.0, 1.7, tol=tol)
    right = integrate(f, 1.7, 4.0, tol=tol)
    assert abs(whole.value - (left.value + right.value)) <= 2.0 * tol * max(
        1.0, abs(whole.value)
    )


def test_random_smooth_integrands_match_simpson():
    # polynomial * trigonometric products, 50 seeded draws
    rng = random.Random(20240817)
    for _ in range(50):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 4))]
        freq = rng.uniform(0.2, 4.0)
        phase = rng.uniform(0.0, math.tau)
        use_sin = rng.random() < 0.5
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.5, 3.0)

        def poly(x):
            acc = 0.0
            for c in coeffs:
                acc = acc * x + c
            return acc

        def f(x):
            trig = math.sin(freq * x + phase) if use_sin else math.cos(freq * x + phase)
            return poly(x) * trig

        def f_vec(x):
            acc = np.zeros_like(x)
            for c in coeffs:
                acc = acc * x + c
            trig = np.sin(freq * x + phase) if use_sin else np.cos(freq * x + phase)
            return acc * trig

        got = integrate(f, a, b).value
        want = simpson_oracle(f_vec, a, b)
        assert abs(got - want) <= 1e-9, (coeffs, freq, phase, a, b)


def test_determinism_bit_identical():
    f = lambda x: math.exp(-x * x) * math.cos(5.0 * x)
    r1 = integrate(f, -1.0, 2.0)
    r2 = integrate(f, -1.0, 2.0)
    assert (r1.value, r1.error_estimate, r1.subdivisions) == (
        r2.value,
        r2.error_estimate,
        r2.subdivisions,
    )


# ------------------------------------------------------------ errors


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(math.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        integrate(math.sin, 0.0, math.inf)


_QI_SPEC = QiCurveSpec.from_dict({
    "controls": [[1, 0, 0, 0], [0.8, 0.6, 0, 0]],
    "p0": [0, 0, 0], "v0": [1, 0, 0], "s_total": 3.0,
})
_TOL_ENTRIES = {
    "integrate": lambda tol: integrate(lambda x: math.sin(30 * x), 0.0, 3.0, tol=tol),
    "chord_angle": lambda tol: chord_angle(0.5, 1.0, 1.0, tol=tol),
    "drawable_region": lambda tol: drawable_region(2.0, 1.0, count=3, tol=tol),
    "sample_curve": lambda tol: sample_curve(NaturalEquation(0.5, 1.0), 5.0, 5, tol=tol),
    "sample_qi": lambda tol: sample_qi(_QI_SPEC, 5, tol=tol),
    # s = 0 returns the start point without an integral
    "evaluate_point": lambda tol: evaluate_point(NaturalEquation(0.5, 1.0), 0.0, tol=tol),
    "qi_point": lambda tol: qi_point(_QI_SPEC, 0.0, tol=tol),
}


@pytest.mark.parametrize("entry", sorted(_TOL_ENTRIES))
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_both_integrators_reject_tol_outside_zero_to_inf(entry, tol):
    # tol = inf accepted the first estimate (integrate gave 0.3439 for
    # 0.04827); tol <= 0 bisected the sampler to MaxDepthExceeded
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        _TOL_ENTRIES[entry](tol)


def test_non_finite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: float("nan"), 0.0, 1.0)
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0)


def test_max_depth_on_endpoint_singularity():
    # integrable singularity at 0: nodes never touch it, bisection stalls
    with pytest.raises(MaxDepthExceeded):
        integrate(lambda x: x**-0.5, 0.0, 1.0)


def _noise(x):
    """Deterministic noise in [0, 1) that no panel or piece resolves."""
    return math.sin(x * 12.9898 + 78.233) * 43758.5453 % 1.0


def test_panel_budget_stops_a_noisy_integrand():
    # worst-first refinement spreads over many shallow panels, so the depth
    # limit alone would let it refine for minutes
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        if calls > _MAX_PANELS * 15:
            raise AssertionError("refined past the panel budget")
        return _noise(x)

    with pytest.raises(MaxDepthExceeded, match="panels"):
        integrate(counted, 0.0, 1.0)


def test_result_type_is_frozen():
    r = integrate(math.cos, 0.0, 1.0)
    assert isinstance(r, IntegrationResult)
    with pytest.raises(AttributeError):
        r.value = 0.0
    # a NamedTuple: it unpacks and equals the plain 3-tuple of its fields
    value, error, panels = r
    assert r == (value, error, panels) == (r.value, r.error_estimate, r.subdivisions)


# ------------------------------------------------------------ station sampler


def test_station_sampler_is_exact_on_polynomials_and_smooth_integrands():
    stations = [2.0 * i / 12 for i in range(13)]
    ps, cs = _accumulate(
        lambda xs: ([x**5 for x in xs], list(map(math.cos, xs))), stations, 1e-12
    )
    assert len(ps) == len(cs) == len(stations)
    assert (ps[0], cs[0]) == (0.0, 0.0)
    for s, p, c in zip(stations, ps, cs):
        assert abs(p - s**6 / 6.0) <= 1e-14 * max(1.0, s**6 / 6.0)
        assert abs(c - math.sin(s)) <= 1e-15


def test_station_sampler_starts_at_the_first_station():
    # sums run from stations[0], not from 0
    stations = [1.0, 1.5, 3.0]
    (vs,) = _accumulate(lambda xs: (list(map(math.exp, xs)),), stations, 1e-12)
    assert len(vs) == len(stations) and vs[0] == 0.0
    for s, v in zip(stations, vs):
        assert abs(v - (math.exp(s) - math.e)) <= 1e-14 * math.exp(s)


def test_station_sampler_raises_on_non_finite_samples():
    with pytest.raises(NonFiniteIntegrand):
        _accumulate(lambda xs: ([1.0] * len(xs), [math.nan] * len(xs)), [0.0, 1.0], 1e-12)


def test_station_sampler_stops_where_pieces_no_longer_halve():
    # noise fails every piece: the depth-first split reaches the float
    # resolution near 1 after about 52 halvings
    with pytest.raises(MaxDepthExceeded, match="further"):
        _accumulate(lambda xs: (list(map(_noise, xs)),), [1.0, 1.5, 2.0], 1e-12)


def test_station_sampler_gives_up_within_the_piece_budget():
    # 160,000 oscillations would need far more pieces than the budget
    calls = 0

    def counted(xs):
        nonlocal calls
        calls += len(xs)
        if calls > _MAX_PANELS * 33:
            raise AssertionError("sampled past the piece budget")
        return ([math.sin(1e6 * x) for x in xs],)

    with pytest.raises(MaxDepthExceeded, match="pieces"):
        _accumulate(counted, [0.0, 1.0], 1e-12)


# one sample: any scale from subnormal to 1e300 (fsum's partial sums stay
# finite), and +-0
_SAMPLES = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1.0, 1.0),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_SAMPLES, min_size=33, max_size=33))
@example([0.0] * 16 + [1.0] + [0.0] * 16)  # f_(N/2) alone: even rows only
@example([float(j) for j in range(33)])
@example([(-1.0) ** j * 5e-324 * (j + 1) for j in range(33)])
@example([-0.0] * 33)
def test_folded_coefficients_are_the_dct_rows_to_a_few_ulps(col):
    # c_k = sum_j _DCT[k][j] f_j, evaluated exactly; the fold regroups that
    # sum on the row's symmetry in j -> N - j and rounds each pair, product
    # and the fsum once, so c_k is within 2 ulps of sum_j |_DCT[k][j] f_j|
    # (each subnormal product may also lose half of 2^-1074)
    (got,) = _chebyshev_piece(lambda xs: (col,), -1.0, 1.0, 1e308)
    assert len(got) == len(_DCT)
    for row, c in zip(_DCT, got):
        terms = [Fraction(d) * Fraction(f) for d, f in zip(row, col)]
        bound = Fraction(1, 2**51) * sum(map(abs, terms)) + Fraction(33, 2**1075)
        assert abs(Fraction(c) - sum(terms)) <= bound


def per_lane_clenshaw(head, tail, t):
    """head + sum_k c_k T_k(t), tail = (c_n, ..., c_1), by Clenshaw's
    recurrence on this one lane."""
    b1 = b2 = 0.0
    for r in tail:
        b1, b2 = 2.0 * t * b1 - b2 + r, b1
    return head + t * b1 - b2


_COEFFS = st.lists(st.floats(-1e3, 1e3), max_size=34)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    _COEFFS,
    _COEFFS,
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
)
@example(0.5, -0.25, [1.0, -2.0, 3.0, 0.5, -0.125], [7.0, -1e-3], [-1.0, 0.0, 0.3, 1.0])
@example(-0.0, 0.0, [], [2.0, -0.0, 1e-300], [-0.0, 1.0])
def test_clenshaw_columns_are_bit_identical_to_per_lane_clenshaw(hx, hy, tx, ty, ts):
    # each lane appends one sum per t to its column, after what it holds
    for head, tail in ((hx, tx), (hy, ty)):
        column = [0.0]
        _clenshaw(head, tail, ts, column)
        want = [0.0, *(per_lane_clenshaw(head, tail, t) for t in ts)]
        assert [v.hex() for v in column] == [v.hex() for v in want]


def _clenshaw_pair(heads, tails, stations, mid: float, half: float):
    """Yield (s, (x, y)) per station: the two lanes of _accumulate summed in
    one Clenshaw loop. The shorter tail is padded with leading zeros, which
    leave b1 = b2 = +0.0 and so each sum bit-identical to its own loop."""
    hx, hy = heads
    tx, ty = tails
    pad = len(tx) - len(ty)
    pairs = list(zip([0.0] * -pad + tx, [0.0] * pad + ty))
    for s in stations:
        t = (s - mid) / half
        t2 = t + t
        bx1 = bx2 = by1 = by2 = 0.0
        for rx, ry in pairs:
            bx2, bx1 = bx1, t2 * bx1 - bx2 + rx
            by2, by1 = by1, t2 * by1 - by2 + ry
        yield s, (hx + t * bx1 - bx2, hy + t * by1 - by2)


def _generator_accumulate(f, stations, tol: float):
    """The station sweep as a generator of (s, sums) rows, with a fused loop
    for two lanes: the reference the column sweep must match bit for bit."""
    _check_tol(tol)
    stations = list(stations)
    offsets = None  # per lane: the integral up to the current piece
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
        if offsets is None:  # the first piece gives the lane count
            offsets = [0.0] * len(ck)
            yield stations[0], tuple(offsets)
        half = 0.5 * (pb - pa)
        lanes = [_antiderivative(c, half) for c in ck]
        # per lane: the value term, and the Clenshaw coefficients from its
        # own highest degree down to 1
        heads = [lane[0] + off for lane, off in zip(lanes, offsets)]
        tails = [lane[:0:-1] for lane in lanes]
        j = bisect_right(stations, pb, i) if pending else len(stations)
        if len(lanes) == 2:
            yield from _clenshaw_pair(heads, tails, stations[i:j], mid, half)
        else:
            for s in stations[i:j]:
                t = (s - mid) / half
                t2 = t + t
                sums = []
                for head, tail in zip(heads, tails):
                    b1 = b2 = 0.0
                    for r in tail:
                        b1, b2 = t2 * b1 - b2 + r, b1
                    sums.append(head + t * b1 - b2)
                yield s, tuple(sums)
        i = j
        offsets = [off + math.fsum(lane) for off, lane in zip(offsets, lanes)]


# one lane of a test integrand: a name and its parameters
_LANES = st.one_of(
    st.tuples(st.just("poly"), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8)),
    st.tuples(st.just("sin"), st.floats(-20.0, 20.0), st.floats(-3.0, 3.0)),
    st.tuples(st.just("exp"), st.floats(-3.0, 3.0)),
    st.tuples(st.just("nan_from"), st.floats(-10.0, 10.0)),
    st.tuples(st.just("noise")),
)


def _lane_value(lane, x):
    kind, *p = lane
    if kind == "poly":
        return sum(c * x**k for k, c in enumerate(p[0]))
    if kind == "sin":
        return math.sin(p[0] * x + p[1])
    if kind == "exp":
        return math.exp(p[0] * x)
    if kind == "nan_from":
        return math.nan if x >= p[0] else 1.0 / (1.0 + x * x)
    return _noise(x)


def _sweep_or_error(sweep):
    try:
        return sweep()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_LANES, min_size=1, max_size=3),
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30, unique=True).map(sorted),
    st.sampled_from([1e-12, 1e-8, 1e-4, 0.0]),
)
@example([("sin", 3.0, 0.5), ("poly", [-0.0, 2.0])], [0.0, 0.5, 2.0, 7.0], 1e-12)
@example([("exp", 1.0), ("nan_from", 1.0), ("sin", 1.0, 0.0)], [0.0, 2.0], 1e-12)
@example([("noise",), ("poly", [1.0])], [1.0, 1.5, 2.0], 1e-12)
def test_column_sweep_matches_the_generator_sweep(lanes, stations, tol):
    # every station of every lane to the bit, or the same exception and message
    def f(xs):
        return tuple([_lane_value(lane, x) for x in xs] for lane in lanes)

    def rows_as_columns():
        rows = list(_generator_accumulate(f, stations, tol))
        assert [s for s, _ in rows] == stations
        return [[v.hex() for v in col] for col in zip(*(sums for _, sums in rows))]

    def columns():
        return [[v.hex() for v in col] for col in _accumulate(f, stations, tol)]

    assert _sweep_or_error(columns) == _sweep_or_error(rows_as_columns)


_ENDS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e300), _ENDS, _ENDS, st.integers(2, 2000))
@example(2.0 * math.pi, 0.3, 2.0 * math.pi, 7)
@example(5e-324, 1.0, 1.0000000000000002, 3)
@example(1e-323, -0.0, 5e-324, 2)
@example(1e-323, 0.0, 1e-323, 3)  # gaps of 5e-324, but an extent that halves
def test_stations_are_one_uniform_grid(b, lo, hi, count):
    # from 0: bit for bit the b * i / (count - 1) the samplers always used
    want = [b * i / (count - 1) for i in range(count)]
    assert_grid_or_rejected(0.0, b, count, want)
    want = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    assert_grid_or_rejected(lo, hi, count, want)


def assert_grid_or_rejected(a, b, count, want):
    # over a < b, repeated stations, or an extent of one least subnormal
    # (whose half rounds to 0), reject the whole grid
    if a < b and (want[-1] - want[0] <= 5e-324 or any(t <= s for s, t in zip(want, want[1:]))):
        with pytest.raises(ValueError, match=f"is too short for {count} stations"):
            _stations(a, b, count)
    else:
        assert [s.hex() for s in _stations(a, b, count)] == [s.hex() for s in want]


_QI_TINY = QiCurveSpec.from_dict({
    "p0": [0, 0, 0], "v0": [1, 0, 0], "controls": [[1, 0, 0, 0], [0, 1, 0, 0]], "s_total": 5e-324,
})
_TINY_PATH = SampledCurve(
    None, (CurveSample(0.0, 0.0, 0.0, 0.0, 1.0), CurveSample(5e-324, 5e-324, 0.0, 0.0, 1.0))
)


@pytest.mark.parametrize("call, message", [
    (lambda: sample_curve(NaturalEquation(0.5, 1.0), 5e-324, 2),
     "[0.0, 5e-324] is too short for 2"),
    (lambda: sample_curve(NaturalEquation(0.5, 1.0), 1e-323, 1000),
     "[0.0, 1e-323] is too short for 1000"),
    (lambda: sample_qi(_QI_TINY, 2), "[0.0, 5e-324] is too short for 2"),
    (lambda: lcg_analytic(NaturalEquation(0.5, 1.0), (0.0, 5e-324), 3),
     "[0.0, 5e-324] is too short for 3"),
    (lambda: ornament_svg(OrnamentSpec(_TINY_PATH, count=2)), "[0.0, 5e-324] is too short for 2"),
    # the region's grid is uniform in log lambda: here [1.0, 1.0000000000000002]
    (lambda: drawable_region(2.0, 1.0, (math.e, 2.718281828459046), 97),
     "[1.0, 1.0000000000000002] is too short for 97"),
])
def test_every_grid_rejects_an_extent_too_short_for_its_stations(call, message):
    # [0, 5e-324] has two distinct stations, but half its width rounds to 0,
    # which the station sweep divides by; finer grids repeat stations
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message + " stations"


@pytest.mark.parametrize("count", [1, 0, -3])
def test_stations_need_two(count):
    with pytest.raises(ValueError, match="count must be at least 2"):
        _stations(0.0, 1.0, count)
