"""Integrator tests against closed forms and a composite-Simpson oracle."""

import math
import random
from fractions import Fraction

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
    _MAX_PANELS,
    _WG,
    _WG_CENTER,
    _WGK,
    _WGK_CENTER,
    _XGK,
    _accumulate,
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
    "drawable_region": lambda tol: drawable_region(0.5, 1.0, count=3, tol=tol),
    # the log spiral's and the involute's chords are closed forms that check
    # tol all the same
    "chord_angle at alpha = 1": lambda tol: chord_angle(1.0, 1.0, 1.0, tol=tol),
    "drawable_region at alpha = 1": lambda tol: drawable_region(1.0, 1.0, count=3, tol=tol),
    "chord_angle at alpha = 2": lambda tol: chord_angle(2.0, 1.0, 1.0, tol=tol),
    "drawable_region at alpha = 2": lambda tol: drawable_region(2.0, 1.0, count=3, tol=tol),
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

    with pytest.raises(MaxDepthExceeded,
                       match=r"^no convergence within 10000 panels on \[0\.0, 1\.0\]$"):
        integrate(counted, 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-10.0, 10.0),
    st.floats(0.0, 20.0),
    st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-10.0, 30.0)), min_size=1, max_size=3),
    st.floats(-13.0, -3.0),
)
@example(-1.0, 3.0, [(30.0, 1.0), (0.0, -0.0)], -12.0)
@example(0.0, 1.0, [(0.0, -0.0)], -12.0)  # one panel of -0.0 sums to +0.0
def test_results_are_the_correctly_rounded_sums_of_the_final_panels(a, width, waves, log_tol):
    # value and error estimate of each component: the exact sum over the
    # final panels, which leaf_edges names, rounded once (as Fraction does)
    calls = 0

    def f(xs):
        nonlocal calls
        calls += 1
        return [[math.sin(p * x + q) * math.exp(-abs(x) / (1.0 + abs(p))) for x in xs]
                for p, q in waves]

    def bits(results):
        assert all(type(r) is IntegrationResult for r in results)
        return [(r.value.hex(), r.error_estimate.hex(), r.subdivisions) for r in results]

    b = a + width
    tol = 10.0**log_tol
    edges = []
    results = _integrate_components(f, a, b, tol, leaf_edges=edges)
    # one starting panel, then two per bisection, each adding one leaf:
    # 2 * len(panels) - 1 calls, so no panel was evaluated twice
    assert calls == 2 * (len(edges) + 1) - 1
    assert edges == sorted(edges) and all(a < e < b for e in edges)
    panels = [_eval_panel(f, pa, pb) for pa, pb in zip([a, *edges], [*edges, b])]
    for c, r in enumerate(results):
        assert r.subdivisions == len(panels)
        assert r.value.hex() == float(sum(Fraction(p[0][c]) for p in panels)).hex()
        assert r.error_estimate.hex() == float(sum(Fraction(p[1][c]) for p in panels)).hex()
    # started from those panels (as drawable_region's sweep starts a row),
    # the loop accepts them at once: one call per panel, the same bits and leaves
    calls = 0
    again = []
    warm = _integrate_components(f, a, b, tol, edges, leaf_edges=again)
    assert calls == len(edges) + 1
    assert bits(warm) == bits(results)
    assert again == edges


def test_every_return_path_gives_integration_results():
    def f(xs):
        return [[math.exp(-x * x) for x in xs], [math.cos(3.0 * x) for x in xs]]

    def panels(*args, **kwargs):
        results = _integrate_components(f, *args, **kwargs)
        assert all(type(r) is IntegrationResult for r in results)
        (n,) = {r.subdivisions for r in results}
        return n

    edges = []
    assert panels(0.0, 0.5, 1e-12) == 1  # one panel
    assert panels(0.0, 8.0, 1e-12, leaf_edges=edges) == len(edges) + 1 > 2  # refines
    assert panels(0.0, 8.0, 1e-12, edges) == len(edges) + 1  # warm, accepted at once
    assert panels(0.0, 8.0, 1e-12, edges[:1]) > 2  # warm, refines


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
    with pytest.raises(MaxDepthExceeded,
                       match=r"^cannot split \[1\.0000000000000007, 1\.0000000000000009\] further$"):
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


@pytest.mark.parametrize("a, b, count", [
    (0.0, math.inf, 1000),  # was "[0.0, inf] is too short for 1000 stations"
    (0.0, math.nan, 5),
    (-math.inf, 0.0, 3),
    (0.0, 1e308, 3),  # (b - a) * 2 overflows: the samplers blamed an arc length of inf
    (-1e308, 1e308, 2),  # b - a overflows
])
def test_stations_reject_a_grid_that_is_not_finite(a, b, count):
    with pytest.raises(ValueError) as info:
        _stations(a, b, count)
    assert str(info.value) == (f"[{a!r}, {b!r}] gives no finite grid of {count} stations: "
                               f"the range and (b - a) * {count - 1} must be finite")
    with pytest.raises(ValueError, match="count must be at least 2"):
        _stations(a, b, 1)
