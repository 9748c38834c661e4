"""Curve family tests: closed forms, named members, sampling, transforms."""

import cmath
import math
import random
import re
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvekit.pseudospiral as ps
from curvekit.pseudospiral import (
    CurveSample,
    DomainExceeded,
    NaturalEquation,
    Pose,
    SampledCurve,
    Similarity,
    UnknownName,
    curvature,
    evaluate_point,
    named_curve,
    sample_curve,
    turning_angle,
)


def kasa_circle_fit(points):
    """Algebraic circle fit; returns (cx, cy, r)."""
    n = len(points)
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sxx = sum(p[0] * p[0] for p in points)
    syy = sum(p[1] * p[1] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    sxz = sum(p[0] * (p[0] ** 2 + p[1] ** 2) for p in points)
    syz = sum(p[1] * (p[0] ** 2 + p[1] ** 2) for p in points)
    sz = sum(p[0] ** 2 + p[1] ** 2 for p in points)
    # solve the 3x3 normal equations for x^2+y^2 + a x + b y + c = 0
    a11, a12, a13, b1 = sxx, sxy, sx, -sxz
    a21, a22, a23, b2 = sxy, syy, sy, -syz
    a31, a32, a33, b3 = sx, sy, float(n), -sz
    det = (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )
    a = (
        b1 * (a22 * a33 - a23 * a32)
        - a12 * (b2 * a33 - a23 * b3)
        + a13 * (b2 * a32 - a22 * b3)
    ) / det
    b = (
        a11 * (b2 * a33 - a23 * b3)
        - b1 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * b3 - b2 * a31)
    ) / det
    c = (
        a11 * (a22 * b3 - b2 * a32)
        - a12 * (a21 * b3 - b2 * a31)
        + b1 * (a21 * a32 - a22 * a31)
    ) / det
    cx, cy = -a / 2.0, -b / 2.0
    r = math.sqrt(cx * cx + cy * cy - c)
    return cx, cy, r


# ------------------------------------------------------------ curvature


def test_curvature_at_zero_is_one():
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0, 10.0):
        eq = NaturalEquation(alpha, 0.7)
        assert curvature(eq, 0.0) == 1.0


def test_curvature_power_branch_value():
    # (1 + 1*2*3)^(-1/2) = 7^(-1/2) = 0.37796447300922722721
    eq = NaturalEquation(2.0, 1.0)
    assert curvature(eq, 3.0) == pytest.approx(0.37796447300922723, abs=1e-16)


def test_curvature_exponential_branch():
    eq = NaturalEquation(0.0, 0.8)
    assert curvature(eq, 2.5) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_curvature_monotone_decreasing_for_positive_lambda():
    rng = random.Random(11)
    for _ in range(30):
        alpha = rng.uniform(-2.0, 10.0)
        lam = rng.uniform(0.1, 5.0)
        eq = NaturalEquation(alpha, lam)
        end = eq.s_max_domain
        end = 3.0 if end == math.inf else 0.9 * end
        ks = [curvature(eq, end * i / 40.0) for i in range(41)]
        assert all(b < a + 1e-15 for a, b in zip(ks, ks[1:]))


def _decimal_power_branch(alpha, lam, s):
    """(theta, kappa) of the power branch at 50 digits, from the exact floats."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, l, x = Decimal(alpha), Decimal(lam), Decimal(s)
        log_base = (1 + l * a * x).ln()
        theta = (((a - 1) / a * log_base).exp() - 1) / (l * (a - 1))
        kappa = (-log_base / a).exp()
        return float(theta), float(kappa)


@pytest.mark.parametrize("alpha", [0.999, 1.001, 1e-11, 0.5])
def test_power_branch_matches_high_precision_reference(alpha):
    # small lam * s, alpha near 1 or near 0: the textbook form
    # ((1 + lam a s)^((a-1)/a) - 1) / (lam (a-1)) cancels here
    eps = 2.0**-52
    for lam in (1e-8, 1e-4, 1e-2):
        for s in (1e-3, 1.0, 10.0):
            eq = NaturalEquation(alpha, lam)
            theta, kappa = _decimal_power_branch(alpha, lam, s)
            assert abs(turning_angle(eq, s) - theta) <= 4.0 * eps * theta
            assert abs(curvature(eq, s) - kappa) <= 4.0 * eps * kappa


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        NaturalEquation(1.0, 0.0)
    with pytest.raises(ValueError):
        NaturalEquation(1.0, -2.0)


# ------------------------------------------------------------ turning angle


def test_turning_angle_branches_match_derivative():
    # d(theta)/ds must equal curvature on every branch
    h = 1e-6
    for alpha in (-1.0, 0.0, 1.0 - 1e-13, 1.0, 2.0, 10.0):
        eq = NaturalEquation(alpha, 0.9)
        for s in (0.2, 0.7, 1.0):
            if s + h >= eq.s_max_domain:
                continue
            fd = (turning_angle(eq, s + h) - turning_angle(eq, s - h)) / (2.0 * h)
            assert fd == pytest.approx(curvature(eq, s), rel=1e-8)


def test_turning_angle_log_branch_value():
    # alpha=1, lam=1: theta = log(1+s), so s = e-1 gives theta = 1
    eq = NaturalEquation(1.0, 1.0)
    assert turning_angle(eq, math.e - 1.0) == pytest.approx(1.0, abs=1e-15)


def test_turning_angle_linear_falloff_branch():
    # alpha=-1, lam=0.1: theta = s - lam s^2 / 2
    eq = NaturalEquation(-1.0, 0.1)
    assert turning_angle(eq, 2.0) == pytest.approx(2.0 - 0.1 * 2.0, abs=1e-14)


def test_turning_angle_small_s_is_s():
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
        eq = NaturalEquation(alpha, 1.3)
        s = 1e-9
        assert turning_angle(eq, s) == pytest.approx(s, rel=1e-7)


def test_domain_guard():
    eq = NaturalEquation(-1.0, 0.5)  # s_max = 1/(0.5*1) = 2
    assert eq.s_max_domain == pytest.approx(2.0)
    turning_angle(eq, 1.999999)
    with pytest.raises(DomainExceeded):
        turning_angle(eq, 2.0)
    with pytest.raises(DomainExceeded):
        curvature(eq, 2.5)
    with pytest.raises(ValueError):
        curvature(eq, -0.1)


def test_alpha_snapping():
    eq = NaturalEquation(1.0 + 1e-13, 1.0)
    assert eq.alpha == 1.0
    eq = NaturalEquation(-1e-13, 1.0)
    assert eq.alpha == 0.0


# ------------------------------------------------------------ named curves


def test_named_curve_aliases():
    cases = {
        "euler": -1.0,
        "nielsen": 0.0,
        "log_spiral": 1.0,
        "involute": 2.0,
        "quasi_circle": 10.0,
    }
    for name, alpha in cases.items():
        eq = named_curve(name, 1.0)
        assert eq.alpha == alpha
        assert eq.lam == 1.0
    with pytest.raises(UnknownName):
        named_curve("cornu", 1.0)


def test_euler_curvature_is_affine_in_arclength():
    # kappa = 1 - lam s exactly, to rounding
    eq = named_curve("euler", 0.25)
    for s in (0.0, 0.5, 1.5, 3.0):
        assert abs(curvature(eq, s) - (1.0 - 0.25 * s)) < 1e-14


def test_log_spiral_radius_exponential_in_turning():
    # rho = e^{lam theta} for alpha = 1
    eq = named_curve("log_spiral", 0.7)
    for s in (0.3, 1.0, 4.0):
        theta = turning_angle(eq, s)
        rho = 1.0 / curvature(eq, s)
        assert rho == pytest.approx(math.exp(0.7 * theta), rel=1e-12)


def test_nielsen_turning_angle_saturates():
    # alpha=0: theta never exceeds 1/lam and approaches it
    eq = named_curve("nielsen", 2.0)
    assert turning_angle(eq, 1e6) <= 0.5
    assert turning_angle(eq, 1e6) >= 0.999999 * 0.5
    assert turning_angle(eq, 3.0) < 0.5


# ------------------------------------------------------------ point evaluation


def test_point_small_s_taylor():
    # x ~ s, y ~ s^2/2 for small s regardless of family member
    for alpha in (-1.0, 0.0, 1.0, 2.0):
        eq = NaturalEquation(alpha, 1.0)
        s = 1e-3
        x, y = evaluate_point(eq, s)
        assert x == pytest.approx(s, rel=1e-2)
        assert y == pytest.approx(s * s / 2.0, rel=1e-2)


@pytest.mark.parametrize("alpha", [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0])
def test_point_at_zero_arc_length_is_the_positive_origin(alpha):
    # one G7/K15 panel of zero width: its sums are exact +0.0
    point = evaluate_point(NaturalEquation(alpha, 0.7), 0.0)
    assert [v.hex() for v in point] == ["0x0.0p+0"] * 2


def test_point_log_spiral_closed_form():
    # alpha=1, lam=1: P(theta) = (e^{(lam+i)theta} - 1) / (lam+i), theta=log(1+s)
    # frozen via 50-digit evaluation at s=5
    eq = NaturalEquation(1.0, 1.0)
    x, y = evaluate_point(eq, 5.0, tol=1e-13)
    assert x == pytest.approx(1.769552081652393, abs=1e-8)
    assert y == pytest.approx(4.084568781411132, abs=1e-8)


def test_point_euler_matches_fresnel_scaling():
    # alpha=-1: theta(s) = s - lam s^2/2; cross-check against a dense
    # trapezoid evaluation of the same integral
    eq = NaturalEquation(-1.0, 0.4)
    s_end = 2.0
    n = 200_001
    h = s_end / (n - 1)
    xs = 0.0
    ys = 0.0
    for i in range(n):
        s = i * h
        th = s - 0.4 * s * s / 2.0
        w = 0.5 if i in (0, n - 1) else 1.0
        xs += w * math.cos(th)
        ys += w * math.sin(th)
    xs *= h
    ys *= h
    x, y = evaluate_point(eq, s_end)
    assert x == pytest.approx(xs, abs=1e-9)
    assert y == pytest.approx(ys, abs=1e-9)


def test_unit_speed():
    h = 1e-6
    for alpha, lam in ((-1.0, 0.3), (0.0, 1.0), (2.0, 0.5), (10.0, 1.5)):
        eq = NaturalEquation(alpha, lam)
        x0, y0 = evaluate_point(eq, 1.0 - h)
        x1, y1 = evaluate_point(eq, 1.0 + h)
        speed = math.hypot(x1 - x0, y1 - y0) / (2.0 * h)
        assert speed == pytest.approx(1.0, abs=1e-9)


def test_quasi_circle_is_nearly_circular():
    # alpha=10, lam=1 over s in [0,1] stays within 2% of a best-fit circle
    eq = named_curve("quasi_circle", 1.0)
    sc = sample_curve(eq, 1.0, 1000)
    pts = [(p.x, p.y) for p in sc.samples]
    cx, cy, r = kasa_circle_fit(pts)
    worst = max(abs(math.hypot(x - cx, y - cy) - r) for x, y in pts)
    assert worst < 0.02 * r


# ------------------------------------------------------------ sampling


def test_sample_curve_basic_contract():
    eq = NaturalEquation(0.0, 1.0)
    sc = sample_curve(eq, 2.0, 11)
    assert len(sc.samples) == 11
    assert sc.samples[0].s == 0.0
    assert sc.samples[0].x == 0.0 and sc.samples[0].y == 0.0
    assert sc.samples[-1].s == pytest.approx(2.0)
    assert sc.s_end == pytest.approx(2.0)
    ss = [p.s for p in sc.samples]
    assert all(b > a for a, b in zip(ss, ss[1:]))
    for p in sc.samples:
        assert p.theta == pytest.approx(turning_angle(eq, p.s), abs=1e-12)
        assert p.kappa == pytest.approx(curvature(eq, p.s), abs=1e-15)


def test_sample_curve_polyline_length_converges():
    eq = NaturalEquation(2.0, 1.0)
    s_end = 3.0

    def poly_len(n):
        sc = sample_curve(eq, s_end, n)
        return sum(
            math.hypot(b.x - a.x, b.y - a.y)
            for a, b in zip(sc.samples, sc.samples[1:])
        )

    short = poly_len(10)
    long = poly_len(10_000)
    assert short <= s_end + 1e-9
    assert long <= s_end + 1e-9
    assert s_end - long < 1e-6
    assert short < long


def test_sample_curve_respects_pose():
    eq = NaturalEquation(0.0, 1.0)
    pose = Pose(x=2.0, y=-1.0, angle=math.pi / 2.0)
    sc = sample_curve(eq, 1.0, 5, pose=pose)
    assert sc.samples[0].x == 2.0
    assert sc.samples[0].y == -1.0
    assert sc.samples[0].theta == pytest.approx(math.pi / 2.0)
    # initial heading points along +y now
    p1 = sc.samples[1]
    assert p1.y > -1.0
    assert abs(p1.x - 2.0) < (p1.y + 1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-3.0, 10.0),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 1.0),
    st.integers(2, 2000),
)
@example(0.0, 2.0, 1.0, 2)  # the whole turn lies within the first 1% of s_end
def test_sample_curve_matches_independent_quadrature(alpha, log_lam, u, count):
    # every station against evaluate_point, which integrates from 0 with
    # G7/K15 on its own: s_end reaches 0.99 of the alpha < 0 domain end,
    # and runs from 1e-3 to 100 otherwise
    eq = NaturalEquation(alpha, 10.0**log_lam)
    if eq.alpha < 0.0:
        s_end = max(u, 1e-3) * 0.99 * eq.s_max_domain
    else:
        s_end = 10.0 ** (-3.0 + 5.0 * u)
    tol = 1e-12
    sc = sample_curve(eq, s_end, count, tol=tol)
    first = sc.samples[0]
    assert (first.s, first.x, first.y) == (0.0, 0.0, 0.0)
    for p in sc.samples:
        x, y = evaluate_point(eq, p.s, tol)
        assert math.hypot(p.x - x, p.y - y) <= tol * max(1.0, p.s), p.s
    assert repr(sample_curve(eq, s_end, count, tol=tol)) == repr(sc)


def graded_simpson_point(eq, s, n=200):
    """(x, y) at arc length s by composite Simpson with n intervals on each
    of the cells [0, c], [c, 2c], [2c, 4c], ... up to s, c = 1e-4/lambda, so
    the turn near s = 0 is resolved whatever s is."""
    cuts = [0.0]
    c = 1e-4 / eq.lam
    while c < s:
        cuts.append(c)
        c += c
    cuts.append(s)
    xs, ys = [], []
    for a, b in zip(cuts, cuts[1:]):
        h = (b - a) / n
        for k in range(n + 1):
            w = (1.0 if k in (0, n) else 4.0 if k % 2 else 2.0) * h / 3.0
            th = turning_angle(eq, a + k * h)
            xs.append(w * math.cos(th))
            ys.append(w * math.sin(th))
    return math.fsum(xs), math.fsum(ys)


def test_evaluate_point_resolves_a_turn_narrower_than_its_first_panel():
    # theta saturates at 1/lambda = 0.01 within s ~ 0.05; every node of a
    # single K15 panel on [0, 100] lies past the turn, so K15 and G7 agree
    # on a wrong y (0.99998333)
    eq = NaturalEquation(0.0, 100.0)
    x, y = evaluate_point(eq, 100.0)
    want_x, want_y = graded_simpson_point(eq, 100.0)
    assert abs(y - want_y) <= 1e-10
    assert abs(x - want_x) <= 1e-10
    assert abs(y - 0.99988333647220) <= 1e-12


def test_evaluate_point_meets_the_arc_length_target_on_a_long_log_spiral():
    # about 6,909 rad of turning over s = 1e6 while |P| stays near 1,000: a
    # target relative to the point, not to s, ran out of panels here
    eq = NaturalEquation(1.0, 1e-3)
    s = 1e6
    x, y = evaluate_point(eq, s)
    theta = math.log1p(eq.lam * s) / eq.lam
    want = (cmath.exp((eq.lam + 1j) * theta) - 1.0) / (eq.lam + 1j)
    assert max(abs(x - want.real), abs(y - want.imag)) <= 1e-12 * s


def test_sample_curve_on_a_log_spiral_of_length_2_5e24():
    # a fitted segment of the Hermite acceptance test: the tangent turns
    # within s ~ 1/lam of the start, about 80 halvings below s_end
    eq = NaturalEquation(1.0, 88.93307902901887)
    s_end = 2.5105642028377583e24
    for count in (2, 9):
        sc = sample_curve(eq, s_end, count)
        for p in sc.samples:
            x, y = evaluate_point(eq, p.s)
            assert math.hypot(p.x - x, p.y - y) <= 1e-12 * max(1.0, p.s)


def test_sample_curve_samples_the_tangent_per_piece_not_per_station(monkeypatch):
    nodes = 0
    tangent = ps._tangent

    def counted(eq, ts):
        nonlocal nodes
        nodes += len(ts)
        return tangent(eq, ts)

    monkeypatch.setattr(ps, "_tangent", counted)
    sample_curve(NaturalEquation(0.5, 1.0), 10.0, 2000)
    assert 0 < nodes < 1000


@pytest.mark.parametrize("count", [2, 2000])
def test_sample_curve_checks_the_domain_once_per_curve(monkeypatch, count):
    calls = 0
    check = ps._check_domain

    def counted(eq, s):
        nonlocal calls
        calls += 1
        return check(eq, s)

    monkeypatch.setattr(ps, "_check_domain", counted)
    sample_curve(NaturalEquation(-1.0, 0.5), 1.9, count)
    assert calls <= 2


def test_sample_curve_domain_error_at_and_past_the_guard():
    eq = NaturalEquation(-1.0, 0.5)  # s_max = 2
    guard = ps._DOMAIN_GUARD * eq.s_max_domain
    sample_curve(eq, guard, 36)  # the last station rounds below the guard
    for s_end in (eq.s_max_domain, math.nextafter(guard, math.inf)):
        with pytest.raises(DomainExceeded):
            sample_curve(eq, s_end, 2)
    # 6 stations: guard * 5 / 5 rounds an ulp past the guard, which the
    # check at the last station catches though s_end itself passes
    last = guard * 5 / 5
    assert last > guard
    with pytest.raises(DomainExceeded, match=re.escape(repr(last))):
        sample_curve(eq, guard, 6)


def test_sample_curve_count_validation():
    eq = NaturalEquation(0.0, 1.0)
    with pytest.raises(ValueError):
        sample_curve(eq, 1.0, 1)
    with pytest.raises(DomainExceeded):
        sample_curve(NaturalEquation(-1.0, 1.0), 1.5, 4)


# ------------------------------------------------------------ transforms


def test_similarity_apply_point():
    sim = Similarity(rotation=math.pi / 2.0, scale=2.0, translation=(1.0, 1.0))
    x, y = sim.apply_point(1.0, 0.0)
    assert x == pytest.approx(1.0, abs=1e-15)
    assert y == pytest.approx(3.0, abs=1e-15)


def test_similarity_rejects_a_scale_that_is_not_positive():
    for scale in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^scale must be positive$"):
            Similarity(scale=scale)


def test_similarity_rejects_an_infinite_scale():
    with pytest.raises(ValueError, match="^scale must be finite$"):
        Similarity(scale=math.inf)


def test_similarity_mirror_flips_before_rotation():
    sim = Similarity(rotation=0.0, scale=1.0, translation=(0.0, 0.0), mirror=True)
    x, y = sim.apply_point(0.5, 0.25)
    assert (x, y) == (0.5, -0.25)


def test_transformed_scales_arclength_and_curvature():
    eq = NaturalEquation(2.0, 1.0)
    sc = sample_curve(eq, 2.0, 9)
    sim = Similarity(rotation=0.3, scale=4.0, translation=(-1.0, 2.0))
    tc = sc.transformed(sim)
    assert tc.s_end == pytest.approx(8.0)
    for a, b in zip(sc.samples, tc.samples):
        assert b.s == pytest.approx(4.0 * a.s)
        assert b.kappa == pytest.approx(a.kappa / 4.0)
        assert b.theta == pytest.approx(a.theta + 0.3)
        ex, ey = sim.apply_point(a.x, a.y)
        assert b.x == pytest.approx(ex, abs=1e-12)
        assert b.y == pytest.approx(ey, abs=1e-12)


def test_transformed_mirror_negates_curvature():
    eq = NaturalEquation(0.0, 1.0)
    sc = sample_curve(eq, 1.0, 5)
    tc = sc.transformed(Similarity(mirror=True))
    for a, b in zip(sc.samples, tc.samples):
        assert b.kappa == pytest.approx(-a.kappa)


def test_sampled_curve_validation():
    eq = NaturalEquation(0.0, 1.0)
    sc = sample_curve(eq, 1.0, 3)
    with pytest.raises(ValueError):
        SampledCurve(eq, ())
    with pytest.raises(ValueError):
        SampledCurve(eq, sc.samples[1:])  # s must start at 0
    bad = (sc.samples[0], sc.samples[2], sc.samples[1])
    with pytest.raises(ValueError):
        SampledCurve(eq, bad)
    first, mid, last = sc.samples
    for bad in (
        (first, mid, mid),  # a repeated arc length
        (first, mid._replace(s=math.nan), last),
        (first, mid, last._replace(s=math.nan)),
    ):
        with pytest.raises(ValueError, match="increase strictly"):
            SampledCurve(eq, bad)


def test_curve_sample_is_a_tuple_row():
    p = CurveSample(0.5, 1.0, -2.0, 0.25, 3.0)
    assert CurveSample._fields == ("s", "x", "y", "theta", "kappa")
    assert repr(p) == "CurveSample(s=0.5, x=1.0, y=-2.0, theta=0.25, kappa=3.0)"
    assert p == (0.5, 1.0, -2.0, 0.25, 3.0) and tuple(p) == (p.s, p.x, p.y, p.theta, p.kappa)
    assert hash(p) == hash((0.5, 1.0, -2.0, 0.25, 3.0))
    for name in CurveSample._fields:
        with pytest.raises(AttributeError):
            setattr(p, name, 0.0)
    assert p._replace(kappa=1.0) == CurveSample(0.5, 1.0, -2.0, 0.25, 1.0)
    assert p.kappa == 3.0


def test_as_dict_round_trip_keys():
    eq = NaturalEquation(2.0, 0.5)
    d = eq.as_dict()
    assert d == {"alpha": 2.0, "lambda": 0.5, "s_max_domain": math.inf}
    d = NaturalEquation(-1.0, 2.0).as_dict()
    assert d["s_max_domain"] == pytest.approx(0.5)


def reference_theta(lam, a, s):
    """The turning angle as three separate closed forms, one per branch."""
    if a == 0.0:
        return -math.expm1(-lam * s) / lam
    if a == 1.0:
        return math.log1p(lam * s) / lam
    return math.expm1((a - 1.0) / a * math.log1p(lam * a * s)) / (lam * (a - 1.0))


def reference_kappa(lam, a, s):
    if a == 0.0:
        return math.exp(-lam * s)
    return math.exp(-math.log1p(lam * a * s) / a)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from([0.0, 1.0, 1e-11, 0.999, -1.0, 1e-13, 1.0 - 1e-13]),
        st.floats(-5.0, 5.0, allow_nan=False),
    ),
    st.floats(1e-3, 1e3),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_theta_kappa_is_bit_identical_to_the_separate_closed_forms(alpha, lam, fracs):
    eq = NaturalEquation(alpha, lam)
    ss = [f * min(50.0 / lam, ps._DOMAIN_GUARD * eq.s_max_domain) for f in fracs]
    thetas, kappas = ps._theta_kappa(eq, ss)
    for s, theta, kappa in zip(ss, thetas, kappas, strict=True):
        assert theta.hex() == reference_theta(eq.lam, eq.alpha, s).hex()
        assert kappa.hex() == reference_kappa(eq.lam, eq.alpha, s).hex()
        assert turning_angle(eq, s) == theta
        assert curvature(eq, s) == kappa


@pytest.mark.parametrize("key", [(0.5, 1.0, 0.3), (0.5, 1.0, 2.0), (0.5, 1.0, 10.0),
                                 (2.0, 3.0, 0.1), (2.0, 3.0, 1.0), (2.0, 3.0, 5.0)])
def test_evaluate_point_pinned_bits(key, ledger):
    alpha, lam, s = key
    x, y = evaluate_point(NaturalEquation(alpha, lam), s)
    assert [x.hex(), y.hex()] == ledger[f"evaluate_point({alpha}, {lam}, {s})"]


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_sample_curve_pinned_bits(alpha, ledger):
    curve = sample_curve(NaturalEquation(alpha, 0.3), 3.0, 41, Pose(0.5, -1.0, 0.25))
    got = [v.hex() for i in (0, 20, 40) for v in curve.samples[i]]
    assert got == ledger[f"sample_curve({alpha}, 0.3) 41 stations to 3, posed, rows 0, 20, 40"]


def test_sample_curve_bad_count_wins_over_bad_s_end():
    with pytest.raises(ValueError, match="count must be at least 2"):
        sample_curve(NaturalEquation(0.5, 1.0), -1.0, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from([0.0, 1.0, 1e-11, 0.999, -1.0]), st.floats(-5.0, 5.0)),
    st.floats(1e-3, 1e3),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_tangent_columns_equal_the_per_node_tangent(alpha, lam, fracs):
    eq = NaturalEquation(alpha, lam)
    ts = [f * min(50.0 / lam, ps._DOMAIN_GUARD * eq.s_max_domain) for f in fracs]
    xs, ys = ps._tangent(eq, ts)
    for t, x, y in zip(ts, xs, ys, strict=True):
        theta = ps._theta_kappa(eq, [t])[0][0]
        assert (x.hex(), y.hex()) == (math.cos(theta).hex(), math.sin(theta).hex())


@pytest.mark.parametrize(
    "alpha, lam", [(0.5, 5e-324), (1e-11, 1e-310), (2.0, 2e-309), (-3.0, 5e-309)]
)
def test_natural_equation_rejects_a_lambda_whose_products_underflow(alpha, lam):
    # the closed forms divide by lam * alpha and lam * (alpha - 1): at
    # (1e-11, 1e-310) turning_angle(eq, 1.0) came back 0.998, not 1.0
    with pytest.raises(ValueError, match="underflows"):
        NaturalEquation(alpha, lam)


@pytest.mark.parametrize(
    "alpha, lam", [(10.0, 1e308), (2.0, 1e308), (1.5, 1.7e308), (-1.0, 1e308), (-1e300, 1e10)]
)
def test_natural_equation_rejects_a_lambda_whose_products_overflow(alpha, lam):
    # at (10, 1e308) curvature(eq, 0.0) was nan, not 1.0: lam * alpha is inf
    with pytest.raises(ValueError, match=r"^lam = .* is too large for alpha = .*: "
                                         r"lam \* alpha or lam \* \(alpha - 1\) overflows$"):
        NaturalEquation(alpha, lam)


@pytest.mark.parametrize(
    "alpha, lam", [(0.0, 1e308), (1.0, 1e308), (0.5, 1e308), (10.0, 1e307)]
)
def test_natural_equation_keeps_huge_lambdas_that_do_not_overflow(alpha, lam):
    eq = NaturalEquation(alpha, lam)
    assert curvature(eq, 0.0) == 1.0


@pytest.mark.parametrize(
    "alpha, lam", [(0.0, 5e-324), (1.0, 5e-324), (5e-13, 5e-324), (0.5, 1e-290)]
)
def test_natural_equation_keeps_tiny_lambdas_that_do_not_underflow(alpha, lam):
    eq = NaturalEquation(alpha, lam)
    assert turning_angle(eq, 1.0) == pytest.approx(1.0, abs=1e-12)
