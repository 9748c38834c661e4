"""G1 Hermite fitting, turning limits, chord angles, drawable regions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit.hermite import (
    DegenerateInput,
    DrawableRegion,
    EmptyRegion,
    FittedSegment,
    HermiteProblem,
    NoSolution,
    TurningUnreachable,
    _chord_components,
    arc_length_for_turning,
    chord_angle,
    drawable_region,
    fit_g1,
    turning_limit,
)
from curvekit.pseudospiral import (
    NaturalEquation,
    Similarity,
    evaluate_point,
    turning_angle,
)
from curvekit.quadrature import integrate_vector2


def problem_from_psi(alpha, delta_theta, psi, rotation=0.0, chord=1.0,
                     origin=(0.0, 0.0), mirror=False):
    """World G1 data whose normalized target chord angle is psi."""
    sgn = -1.0 if mirror else 1.0
    ox, oy = origin
    cd = rotation + sgn * psi
    p_end = (ox + chord * math.cos(cd), oy + chord * math.sin(cd))
    ea = rotation + sgn * delta_theta
    return HermiteProblem(
        p_start=origin,
        p_end=p_end,
        t_start=(math.cos(rotation), math.sin(rotation)),
        t_end=(math.cos(ea), math.sin(ea)),
        alpha=alpha,
    )


# ------------------------------------------------------------ turning limit


def test_turning_limit_values():
    assert turning_limit(1.0, 2.0) == math.inf
    assert turning_limit(2.0, 0.5) == math.inf
    assert turning_limit(0.0, 4.0) == pytest.approx(0.25)
    assert turning_limit(0.5, 2.0) == pytest.approx(1.0)
    assert turning_limit(-1.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        turning_limit(0.0, 0.0)


def test_turning_limit_attained_at_domain_end_for_negative_alpha():
    eq = NaturalEquation(-1.0, 1.0)
    s_near = (1.0 - 1e-9) * eq.s_max_domain
    assert turning_angle(eq, s_near) == pytest.approx(
        turning_limit(-1.0, 1.0), rel=1e-9
    )


# ------------------------------------------------------------ inversion


def test_arc_length_inverts_turning_angle():
    rng = random.Random(5)
    for _ in range(40):
        alpha = rng.uniform(-2.0, 10.0)
        lam = rng.uniform(0.1, 5.0)
        limit = turning_limit(alpha, lam)
        theta = rng.uniform(0.0, 1.0) * (limit if limit < math.inf else 3.0) * 0.95
        s = arc_length_for_turning(alpha, lam, theta)
        eq = NaturalEquation(alpha, lam)
        assert turning_angle(eq, s) == pytest.approx(theta, rel=1e-10, abs=1e-12)


def test_arc_length_zero_and_errors():
    assert arc_length_for_turning(0.5, 1.0, 0.0) == 0.0
    with pytest.raises(TurningUnreachable):
        arc_length_for_turning(0.0, 2.0, 0.5)
    with pytest.raises(TurningUnreachable):
        arc_length_for_turning(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        arc_length_for_turning(0.5, 1.0, -0.1)


def test_arc_length_overflow_returns_inf():
    assert arc_length_for_turning(1.0, 1.0, 1000.0) == math.inf


# ------------------------------------------------------------ chord angle


def test_chord_angle_circle_limit():
    # lam -> 0 approaches a circular arc, whose chord bisects the turning
    for alpha in (0.0, 1.0, 2.0):
        psi = chord_angle(alpha, 1e-9, 1.0)
        assert psi == pytest.approx(0.5, abs=1e-6)


def test_chord_angle_quasi_circle_instance():
    psi = chord_angle(10.0, 1.0, math.pi / 2.0)
    assert abs(psi - math.pi / 4.0) < 0.05


def test_chord_angle_bounds_and_errors():
    with pytest.raises(ValueError):
        chord_angle(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        chord_angle(1.0, 1.0, math.pi)
    with pytest.raises(TurningUnreachable):
        chord_angle(0.0, 2.0, 1.0)


def test_chord_angle_matches_arclength_route():
    # independent route: integrate (cos theta(s), sin theta(s)) out to the
    # arc length with the same total turning
    for alpha, lam, dth in ((0.0, 0.8, 1.0), (1.0, 1.5, 2.0), (2.0, 0.5, 1.2),
                            (-1.0, 0.4, 0.9), (0.5, 1.0, 1.5)):
        s_end = arc_length_for_turning(alpha, lam, dth)
        eq = NaturalEquation(alpha, lam)
        rx, ry = integrate_vector2(
            lambda s: math.cos(turning_angle(eq, s)),
            lambda s: math.sin(turning_angle(eq, s)),
            0.0,
            s_end,
            tol=1e-13,
        )
        want = math.atan2(ry.value, rx.value)
        got = chord_angle(alpha, lam, dth)
        assert got == pytest.approx(want, abs=1e-10), (alpha, lam, dth)


def test_reach_edge_is_unreachable_not_a_domain_error():
    # delta_theta sits within rounding of this member's turning limit: the
    # guard and the closed forms must agree that it is out of reach
    alpha, lam, dth = -0.5, 0.2780281230997687, 2.3978389640368767
    with pytest.raises(TurningUnreachable):
        chord_angle(alpha, lam, dth)
    with pytest.raises(TurningUnreachable):
        arc_length_for_turning(alpha, lam, dth)


def test_chord_angle_extreme_lambda_is_finite():
    # the arc length overflows for alpha=1 at this lambda; the chord angle
    # must still come back finite and inside (0, delta_theta)
    psi = chord_angle(1.0, 1e6, 1.0)
    assert math.isfinite(psi)
    assert 0.0 < psi < 1.0


def test_chord_angle_increases_from_half_turning():
    # decreasing curvature pushes the chord toward the far tangent
    for alpha in (0.0, 0.5, 1.0, 2.0):
        limit_lam = math.inf if alpha >= 1.0 else 0.8 / (1.0 - alpha)
        lo = chord_angle(alpha, 1e-6, 1.0)
        hi = chord_angle(alpha, min(3.0, limit_lam), 1.0)
        assert lo == pytest.approx(0.5, abs=1e-4)
        assert hi > lo


# ------------------------------------------------------------ problem type


def test_problem_validation_and_normalization():
    p = HermiteProblem((0, 0), (1, 0), (1.0 + 5e-7, 0.0), (0.0, 1.0), 1.0)
    assert p.t_start == (1.0, 0.0)
    with pytest.raises(ValueError):
        HermiteProblem((0, 0), (1, 0), (0.5, 0.0), (0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        HermiteProblem((0, 0), (1, math.nan), (1, 0), (0, 1), 1.0)


def test_problem_delta_theta_signed():
    p = HermiteProblem((0, 0), (1, 1), (1, 0), (0, 1), 0.0)
    assert p.delta_theta() == pytest.approx(math.pi / 2.0)
    q = HermiteProblem((0, 0), (1, -1), (1, 0), (0, -1), 0.0)
    assert q.delta_theta() == pytest.approx(-math.pi / 2.0)


def test_problem_control_point():
    p = HermiteProblem((0, 0), (1, 1), (1, 0), (0, 1), 0.0)
    cp = p.control_point()
    assert cp == pytest.approx((1.0, 0.0))
    q = HermiteProblem((0, 0), (1, 1), (1, 0), (1, 0), 0.0)
    assert q.control_point() is None


# ------------------------------------------------------------ fitting


def test_fit_round_trip_normalized():
    # build the G1 data from a known member, then recover it
    alpha, lam = 0.5, 1.2
    dth = 1.0
    s_total = arc_length_for_turning(alpha, lam, dth)
    eq = NaturalEquation(alpha, lam)
    ex, ey = evaluate_point(eq, s_total, tol=1e-13)
    problem = HermiteProblem(
        (0.0, 0.0), (ex, ey), (1.0, 0.0), (math.cos(dth), math.sin(dth)), alpha
    )
    seg = fit_g1(problem)
    assert seg.equation.lam == pytest.approx(lam, rel=1e-6)
    assert seg.s_total == pytest.approx(s_total, rel=1e-6)
    assert seg.residual < 1e-10
    assert seg.transform.scale == pytest.approx(1.0, rel=1e-8)
    assert not seg.transform.mirror


def check_round_trip(problem, seg):
    chord = math.hypot(
        problem.p_end[0] - problem.p_start[0],
        problem.p_end[1] - problem.p_start[1],
    )
    sc = seg.sample(2)
    last = sc.samples[-1]
    err = math.hypot(last.x - problem.p_end[0], last.y - problem.p_end[1])
    assert err <= 1e-8 * chord
    want_angle = math.atan2(problem.t_end[1], problem.t_end[0])
    assert abs(math.remainder(last.theta - want_angle, math.tau)) <= 1e-8
    first = sc.samples[0]
    assert (first.x, first.y) == pytest.approx(problem.p_start, abs=1e-12)


def test_fit_round_trip_posed_world():
    alpha, lam = 0.5, 1.2
    dth = 1.0
    s_total = arc_length_for_turning(alpha, lam, dth)
    eq = NaturalEquation(alpha, lam)
    ex, ey = evaluate_point(eq, s_total, tol=1e-13)
    sim = Similarity(rotation=0.7, scale=3.0, translation=(2.0, -1.0))
    p0 = sim.apply_point(0.0, 0.0)
    p1 = sim.apply_point(ex, ey)
    a0 = sim.apply_angle(0.0)
    a1 = sim.apply_angle(dth)
    problem = HermiteProblem(
        p0, p1, (math.cos(a0), math.sin(a0)), (math.cos(a1), math.sin(a1)), alpha
    )
    seg = fit_g1(problem)
    assert seg.equation.lam == pytest.approx(lam, rel=1e-6)
    assert seg.transform.scale == pytest.approx(3.0, rel=1e-8)
    check_round_trip(problem, seg)


def test_fit_mirrored_problem():
    # clockwise turning flips the solution across the chord frame
    problem = problem_from_psi(1.0, 1.2, 0.75, rotation=0.3, chord=2.0,
                               origin=(1.0, 1.0), mirror=True)
    seg = fit_g1(problem)
    assert seg.transform.mirror
    assert seg.residual < 1e-10
    check_round_trip(problem, seg)
    # the mirrored twin solves to the same member
    twin = problem_from_psi(1.0, 1.2, 0.75, rotation=0.3, chord=2.0,
                            origin=(1.0, 1.0), mirror=False)
    tseg = fit_g1(twin)
    assert tseg.equation.lam == pytest.approx(seg.equation.lam, rel=1e-12)
    assert tseg.s_total == pytest.approx(seg.s_total, rel=1e-12)
    assert not tseg.transform.mirror


def test_fit_similarity_invariance():
    base = fit_g1(problem_from_psi(0.25, 1.4, 0.85, rotation=-0.4, chord=1.7,
                                   origin=(0.5, -0.25)))
    for c in (0.01, 1.0, 100.0):
        problem = problem_from_psi(0.25, 1.4, 0.85, rotation=-0.4,
                                   chord=1.7 * c, origin=(0.5 * c, -0.25 * c))
        seg = fit_g1(problem)
        check_round_trip(problem, seg)
        assert seg.equation.lam == pytest.approx(base.equation.lam, rel=1e-9)
        assert seg.s_total == pytest.approx(base.s_total, rel=1e-9)
        assert seg.transform.scale / base.transform.scale == pytest.approx(
            c, rel=1e-9
        )


def test_fit_aligned_tangent_cases_are_degenerate():
    with pytest.raises(DegenerateInput):
        fit_g1(HermiteProblem((0, 0), (0, 0), (1, 0), (0, 1), 1.0))
    with pytest.raises(DegenerateInput):
        fit_g1(HermiteProblem((0, 0), (2, 0), (1, 0), (1, 0), 1.0))
    with pytest.raises(DegenerateInput):
        fit_g1(HermiteProblem((0, 0), (2, 0), (1, 0), (-1, 0), 1.0))


def test_fit_no_solution_reports_region():
    # a chord angle at a quarter of the turning sits below every member's
    # reach (the circle already bisects at half)
    for alpha in (-1.0, 0.0, 2.0):
        problem = problem_from_psi(alpha, 1.2, 0.3)
        with pytest.raises(NoSolution) as info:
            fit_g1(problem)
        err = info.value
        assert err.psi_target == pytest.approx(0.3)
        assert err.psi_min is not None and err.psi_min > 0.3
        assert err.psi_max is not None


def test_fit_no_solution_near_upper_edge_for_limited_members():
    # alpha=2 with a quarter-turn: even lambda -> inf leaves the chord short
    # of the far tangent, so a target just under the turning fails
    problem = problem_from_psi(2.0, math.pi / 2.0, 1.4)
    with pytest.raises(NoSolution):
        fit_g1(problem)
    # while alpha=1 solves the same configuration
    seg = fit_g1(problem_from_psi(1.0, math.pi / 2.0, 1.4))
    assert seg.residual < 1e-10


def test_fit_scale_underflow_is_no_solution():
    # alpha = 1 at lambda * dtheta = 800: the normalized member spans e^800
    # unit lengths, so the scale onto a unit chord underflows to zero
    psi = chord_angle(1.0, 800.0, 1.0)
    with pytest.raises(NoSolution, match="scale underflows double precision") as info:
        fit_g1(problem_from_psi(1.0, 1.0, psi))
    assert info.value.psi_target == pytest.approx(psi)


def test_fit_determinism():
    problem = problem_from_psi(0.75, 1.1, 0.7)
    a = fit_g1(problem)
    b = fit_g1(problem)
    assert a.equation.lam == b.equation.lam
    assert a.s_total == b.s_total
    assert a.residual == b.residual


def test_fit_alternate_lambdas_sorted():
    problem = problem_from_psi(0.5, 1.3, 0.8)
    seg = fit_g1(problem)
    assert isinstance(seg.alternate_lambdas, tuple)
    prev = seg.equation.lam
    for l in seg.alternate_lambdas:
        assert l > prev
        prev = l


@settings(max_examples=80, deadline=None)
@given(
    st.floats(-3.0, 10.0),
    st.floats(0.05, 3.0),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
    st.booleans(),
)
def test_fit_recovers_member_geometry(alpha, dth, u, rotation, mirror):
    # lambda log-uniform up to 100 and, for alpha < 1, just short of lambda*.
    # The fitted lambda is not compared, since it is ill-conditioned where psi
    # flattens: the fitted member, placed by its similarity, must end on the
    # problem's end point with its end tangent. Its end comes from the
    # log-radius chord integral (checked against the arc-length route above):
    # sample_curve's closed-form turning angle cancels badly for alpha near 0
    # or 1 at small lambda.
    lam_star = math.inf if alpha >= 1.0 else 1.0 / (dth * (1.0 - alpha))
    lo, hi = 1e-4, min(100.0, (1.0 - 1e-6) * lam_star)
    lam = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    problem = problem_from_psi(alpha, dth, chord_angle(alpha, lam, dth),
                               rotation=rotation, chord=2.0, mirror=mirror)
    seg = fit_g1(problem)
    x, y, log_scale = _chord_components(alpha, seg.equation.lam, dth, 1e-13)
    ex, ey = seg.transform.apply_point(x * math.exp(log_scale), y * math.exp(log_scale))
    assert math.hypot(ex - problem.p_end[0], ey - problem.p_end[1]) <= 1e-8 * 2.0
    end_angle = math.atan2(problem.t_end[1], problem.t_end[0])
    assert abs(math.remainder(seg.transform.apply_angle(dth) - end_angle, math.tau)) <= 1e-8


def test_fit_and_region_reach_past_the_last_grid_point():
    # alpha = 0: lambda* = 1/dth, and 0.99 lambda* lies beyond the last of
    # the 97 grid points that reach this turning
    alpha, dth = 0.0, 1.1425
    psi = chord_angle(alpha, 0.99 / dth, dth)
    assert psi == pytest.approx(0.912, abs=1e-3)
    problem = problem_from_psi(alpha, dth, psi)
    seg = fit_g1(problem)
    assert seg.residual <= 1e-10
    assert seg.alternate_lambdas == ()
    check_round_trip(problem, seg)
    assert drawable_region(alpha, dth).psi_max >= psi


def test_fit_custom_bounds_and_failure():
    problem = problem_from_psi(0.5, 1.3, 0.9)
    with pytest.raises((NoSolution, ValueError)):
        fit_g1(problem, lam_bounds=(1e-6, 1e-5))


# ------------------------------------------------------------ regions


def test_region_scan_family_with_unbounded_turning():
    reg = drawable_region(1.0, math.pi / 2.0)
    assert isinstance(reg, DrawableRegion)
    assert reg.psi_max - reg.psi_min > 0.1
    assert reg.psi_min == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert reg.psi_max < math.pi / 2.0
    assert len(reg.boundary_samples) > 0
    for lam, psi in reg.boundary_samples:
        assert reg.psi_min <= psi <= reg.psi_max
        assert lam > 0.0


def test_region_empty_when_turning_unreachable_everywhere():
    # alpha=0 tops out at 1/lam < 2 across the whole grid
    with pytest.raises(EmptyRegion):
        drawable_region(0.0, 2.0, lam_bounds=(1.0, 10.0))


def test_region_limited_for_bounded_members():
    # alpha=-1 with large turning keeps only small lambdas; the region
    # exists but the scan is partially unreachable
    reg = drawable_region(-1.0, 1.5)
    full = drawable_region(1.0, 1.5)
    assert len(reg.boundary_samples) < len(full.boundary_samples)
    assert reg.psi_max < full.psi_max


def test_region_rejects_bad_turning():
    with pytest.raises(ValueError):
        drawable_region(1.0, 0.0)
    with pytest.raises(ValueError):
        drawable_region(1.0, 3.5)
