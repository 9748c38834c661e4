"""G1 Hermite fitting, turning limits, chord angles, drawable regions."""

import math
import random
import sys
from fractions import Fraction
from operator import lt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curvekit.hermite as he
from curvekit.hermite import (
    DegenerateInput,
    DrawableRegion,
    EmptyRegion,
    FittedSegment,
    HermiteProblem,
    NoSolution,
    TurningUnreachable,
    _chord_components,
    _chord_integrand,
    _reach,
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
from curvekit.quadrature import _integrate_components, integrate_vector2


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


def test_turning_limit_stays_positive_where_its_product_overflows():
    # lam * (1 - alpha) overflowed to inf: the limit read 0.0, and so did
    # chord_angle's error message
    assert turning_limit(-1.0, 1e308) == 5e-309
    with pytest.raises(TurningUnreachable, match=r"limit 5e-309$"):
        chord_angle(-1.0, 1e308, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(max_value=1.0, exclude_max=True, allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(-1.0, 1e308)
@example(-1e308, 1e308)  # the supremum, 5e-617, has no double: 0.0 is its nearest
@example(1.0 - 2.0**51, 2.0**1023)  # the supremum is 2^-1074, the least subnormal
def test_turning_limit_is_positive_and_keeps_its_bits_where_the_product_is_finite(alpha, lam):
    try:
        limit = turning_limit(alpha, lam)
    except ValueError:
        assume(False)
    product = lam * (1.0 - alpha)
    if product < math.inf:
        assert limit.hex() == (1.0 / product).hex()
    if 1 / (Fraction(lam) * (1 - Fraction(alpha))) >= Fraction(5e-324):
        assert limit > 0.0


@pytest.mark.parametrize("alpha", [-3.0, 0.0, 0.5, 1.0, 2.0, 10.0])
def test_a_lambda_whose_products_underflow_is_a_value_error(alpha):
    # turning_limit and the chord integrand divide by lam * (alpha - 1):
    # a subnormal lambda was a ZeroDivisionError or a non-finite integrand
    for call in (
        lambda: turning_limit(alpha, 5e-324),
        lambda: chord_angle(alpha, 5e-324, 1.2),
        lambda: drawable_region(alpha, 1.2, (5e-324, 1e6)),
        lambda: fit_g1(problem_from_psi(alpha, 1.2, 0.7), lam_bounds=(5e-324, 1e6)),
    ):
        with pytest.raises(ValueError, match="is too small for alpha .* underflows"):
            call()


@pytest.mark.parametrize("alpha, dth", [(1.5, 3.0), (3.0, 1.2), (10.0, 1.2), (10.0, 0.1)])
def test_a_lambda_whose_products_overflow_is_a_value_error(alpha, dth):
    # the chord integrand divides by lam * (alpha - 1) and takes log1p of
    # dth * lam * (alpha - 1): at lam = 1e308 (alpha = 1.5, 3 and 10) one
    # overflowed, and the chord angle was a "math domain error", a
    # NonFiniteIntegrand or, at dth = 0.1, a silent 0.0
    for call in (
        lambda: chord_angle(alpha, 1e308, dth),
        lambda: drawable_region(alpha, dth, (1e-6, 1e308)),
        lambda: fit_g1(problem_from_psi(alpha, dth, 0.5 * dth), lam_bounds=(1e-6, 1e308)),
    ):
        with pytest.raises(ValueError, match="is too large for alpha .* overflows$"):
            call()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_a_non_finite_alpha_is_a_value_error(alpha):
    # turning_limit(nan, 1) and arc_length_for_turning returned nan, and
    # chord_angle and drawable_region said "integration bounds must be finite"
    for call in (
        lambda: turning_limit(alpha, 1.0),
        lambda: arc_length_for_turning(alpha, 1.0, 1.0),
        lambda: chord_angle(alpha, 1.0, 1.0),
        lambda: drawable_region(alpha, 1.0),
    ):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            call()


@settings(max_examples=300, deadline=None)
@given(st.floats(), st.floats(), st.floats())
@example(2.0, 1e300, 1e10)  # theta * lam * (alpha - 1) overflows: inf / inf
@example(2.0, 2.0, 1e308)
@example(2.0, 1.0, math.inf)
@example(1.0, math.inf, 1.0)  # expm1(inf) / inf
def test_closed_forms_never_return_nan(alpha, lam, theta):
    # each returns a number or raises ValueError; an overflowing arc length is inf
    for call in (lambda: turning_limit(alpha, lam),
                 lambda: arc_length_for_turning(alpha, lam, theta)):
        try:
            value = call()
        except ValueError:
            continue
        assert value >= 0.0, (alpha, lam, theta, value)


def test_an_infinite_lambda_is_a_value_error():
    # turning_limit took it: arc_length_for_turning returned nan and
    # chord_angle raised NonFiniteIntegrand
    for call in (
        lambda: turning_limit(0.5, math.inf),
        lambda: arc_length_for_turning(1.0, math.inf, 1.0),
        lambda: chord_angle(2.0, math.inf, 1.0),
    ):
        with pytest.raises(ValueError, match="^lam must be finite$"):
            call()


@pytest.mark.parametrize("alpha", [-3.0, 0.0, 0.5, 1.0, 2.0, 10.0])
def test_the_smallest_normal_products_are_accepted(alpha):
    lam = sys.float_info.min
    if alpha != 1.0:
        lam = max(lam, lam / abs(alpha - 1.0))
        while lam * abs(alpha - 1.0) < sys.float_info.min:
            lam = math.nextafter(lam, 1.0)
    assert turning_limit(alpha, lam) > 0.0
    # a member this slow is a circular arc: the chord bisects the turning
    assert chord_angle(alpha, lam, 1.2) == pytest.approx(0.6, abs=1e-12)
    region = drawable_region(alpha, 1.2, (lam, 1e6))
    assert region.boundary_samples[0][1] == pytest.approx(0.6, abs=1e-12)


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
    for alpha in (-3.0, 0.0, 0.5, 1.0, 2.0):  # +0.0 from the closed form on both branches
        s = arc_length_for_turning(alpha, 1.0, 0.0)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0
    with pytest.raises(TurningUnreachable):
        arc_length_for_turning(0.0, 2.0, 0.5)
    with pytest.raises(TurningUnreachable):
        arc_length_for_turning(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        arc_length_for_turning(0.5, 1.0, -0.1)


@pytest.mark.parametrize("lam", [-1.0, math.nan, 5e-324])
def test_zero_turning_checks_the_member_as_any_turning_does(lam):
    # theta = 0 returned 0.0 whatever lam was
    with pytest.raises(ValueError) as positive:
        arc_length_for_turning(0.5, lam, 0.5)
    with pytest.raises(ValueError) as zero:
        arc_length_for_turning(0.5, lam, 0.0)
    assert str(zero.value) == str(positive.value)


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


def per_node_chord_columns(alpha, lam, delta_theta, us):
    """The chord integrand's columns from separate per-node expressions, every
    theta first and then each weight on its own: the reference the
    one-pass loop must match bit for bit."""
    am1 = alpha - 1.0
    _, _, _, u_end = _chord_integrand(alpha, lam, delta_theta)
    thetas = [math.expm1(am1 * (u_end - u)) / (lam * am1) for u in us]
    xs, ys = [], []
    for u, theta in zip(us, thetas):
        w = math.exp(am1 * (u_end - u) - u) / lam
        xs.append(w * math.cos(theta))
        ys.append(w * math.sin(theta))
    return xs, ys


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-3.0, 10.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=15),
)
@example(0.0, 0.5, 1.2, [0.0, 0.5, 1.0])
@example(math.nextafter(1.0, 2.0), 0.5, 1.2, [0.0, 0.5, 1.0])
@example(math.nextafter(1.0, 0.0), 1.0, 3.0, [0.0, 1e-9, 1.0])
def test_chord_integrand_columns_are_bit_identical_to_per_node_expressions(
    alpha, frac, dth, ts
):
    # lambda log-uniform over [1e-6, 1e6], below the reach (1 - 1e-8) lambda*;
    # the log spiral's chord is a closed form, checked by the literals below
    assume(alpha != 1.0)
    hi = 1e6 if alpha >= 1.0 else min(1e6, (1.0 - 1e-8) / dth / (1.0 - alpha))
    lam = math.exp(math.log(1e-6) + frac * (math.log(hi) - math.log(1e-6)))
    f, a, b, _ = _chord_integrand(alpha, lam, dth)
    us = [a + (b - a) * t for t in ts]
    got = f(us)
    want = per_node_chord_columns(alpha, lam, dth, us)
    assert [[v.hex() for v in col] for col in got] == [[v.hex() for v in col] for col in want]


# (lambda, delta_theta) -> (psi, x, y) of the log spiral's normalized chord
# x + iy = (e^(i dth) - e^(-lambda dth))/(lambda + i), computed once with
# mpmath at 40 digits and rounded to the nearest double: extreme lambda,
# turnings near 0 and pi, lambda near dth/2, where the real part of the
# numerator, cos(dth) - e^(-lambda dth), cancels, and lambda = 1 at a small
# turning, where dividing by lambda + i would cancel y.
LOG_SPIRAL_CHORDS = {
    (1e-06, 1.2): (0.6000001229824318, 0.9320384483252487, 0.6376419775624947),
    (1e-06, 3.1415926): (1.570797299999958, -1.9464070652403297e-06, 1.9999968584103869),
    (1e6, 1.2): (1.199999, 3.6235868651539723e-07, 9.320387236085398e-07),
    (1e6, 1e-06): (5.819767068693277e-07, 6.321205588284255e-07, 3.6787944117140775e-13),
    (1.0, 1e-06): (5.000000833333333e-07, 9.999995e-07, 4.999998333333333e-13),
    (1.0, 3.1415926): (2.3561944388224463, -0.5216069334949013, 0.5216069870846944),
    (0.6, 1.2): (0.6731002968720479, 0.6304429302038584, 0.5026602596056131),
    (5e-07, 1e-06): (5.000000000000417e-07, 9.999999999995832e-07, 4.99999999999875e-13),
}


@pytest.mark.parametrize("lam, dth", sorted(LOG_SPIRAL_CHORDS))
def test_log_spiral_chord_is_within_two_ulps_of_its_closed_form(lam, dth):
    psi, x, y = LOG_SPIRAL_CHORDS[lam, dth]
    got_x, got_y, log_scale = _chord_components(1.0, lam, dth, 1e-12)
    assert log_scale == lam * dth
    for got, want in ((chord_angle(1.0, lam, dth), psi), (got_x, x), (got_y, y)):
        assert abs(got - want) <= 2 * math.ulp(want)


# (lambda, delta_theta) -> (psi, x, y) of the circle involute's normalized
# chord x + iy = P/(1 + lambda dth), P = int_0^dth (1 + lambda theta)
# e^(i theta) dtheta, computed once with mpmath at 100 digits and rounded to
# the nearest double: extreme lambda, turnings near 0 and pi, and either side
# of dth = 1, where the sums switch from series to sin and cos.
INVOLUTE_CHORDS = {
    (1e-06, 1e-06): (5.000000000000833e-07, 9.999999999993333e-07, 4.999999999997916e-13),
    (1e-06, 0.9999999999999999): (0.5000000847560967, 0.841470525110662, 0.4596975356030035),
    (1e-06, 1.0): (0.5000000847560968, 0.8414705251106621, 0.45969753560300364),
    (1e-06, 3.1415926): (1.5707972999983872, -1.9464039236644805e-06, 1.9999968584173218),
    (1.0, 1e-06): (5.000000833332916e-07, 9.999995000003334e-07, 4.999998333334583e-13),
    (1.0, 0.9999999999999999): (0.5564440739199769, 0.6116221377419664, 0.3804331865358085),
    (1.0, 1.0): (0.5564440739199769, 0.6116221377419664, 0.38043318653580854),
    (1.0, 3.1415926): (1.941770652121465, -0.4829059666691764, 1.2414530230689005),
    (1e6, 1e-06): (5.555555555555564e-07, 7.499999999998541e-07, 4.1666666666662913e-13),
    (1e6, 0.9999999999999999): (0.667915766963813, 0.38177375037327066, 0.3011688374686134),
    (1e6, 1.0): (0.6679157669638132, 0.38177375037327066, 0.30116883746861345),
    (1e6, 3.1415926): (2.1377075052011225, -0.6366195269950408, 1.0000003353679447),
    (1e300, 1e-06): (6.666666666666679e-07, 4.999999999998749e-07, 3.3333333333329997e-13),
    (1e300, 0.9999999999999999): (0.66791609651816, 0.3817732906760362, 0.30116867893975674),
    (1e300, 1.0): (0.6679160965181601, 0.3817732906760362, 0.3011686789397568),
    (1e300, 3.1415926): (2.137707793601433, -0.6366197296373505, 1.0000000170581598),
}


@pytest.mark.parametrize("lam, dth", sorted(INVOLUTE_CHORDS))
def test_involute_chord_is_within_four_ulps_of_its_closed_form(lam, dth):
    psi, x, y = INVOLUTE_CHORDS[lam, dth]
    got_x, got_y, log_scale = _chord_components(2.0, lam, dth, 1e-12)
    assert log_scale == math.log1p(lam * dth)
    for got, want in ((chord_angle(2.0, lam, dth), psi), (got_x, x), (got_y, y)):
        assert abs(got - want) <= 4 * math.ulp(want)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
@example(0.0, 1e-300)
@example(1.0, 3.1415926)
@example(0.5, 1.0)
def test_involute_chord_agrees_with_its_integral(frac, dth):
    # lambda log-uniform over [1e-6, 1e6]; _chord_integrand is the general
    # alpha reference, integrated to the tolerance fit_g1 asks of it
    lam = math.exp(math.log(1e-6) + frac * (math.log(1e6) - math.log(1e-6)))
    f, a, b, u_end = _chord_integrand(2.0, lam, dth)
    want = _integrate_components(f, a, b, 1e-12)
    got_x, got_y, log_scale = _chord_components(2.0, lam, dth, 1e-12)
    assert log_scale == u_end
    for got, ref in zip((got_x, got_y), want):
        assert abs(got - ref.value) <= max(1e-12 * abs(ref.value), 1e-14)


@pytest.mark.parametrize("dth", [1.2, 3.0])
def test_involute_chord_is_finite_at_the_largest_lambdas(dth):
    # at dth = 3, lambda dth overflows: the integral's nodes reached cos(inf),
    # a "math domain error"
    x, y, _ = _chord_components(2.0, 1e308, dth, 1e-12)
    assert math.isfinite(x) and math.isfinite(y) and math.hypot(x, y) > 0.0
    assert chord_angle(2.0, 1e308, dth) == math.atan2(y, x)


# (alpha, lambda, delta_theta) -> (psi, x, y) of the normalized chord of an
# alpha > 1 member, int_0^dth e^(i theta) ((1 + c theta)/T)^p dtheta with
# c = lambda (alpha - 1), p = 1/(alpha - 1) and T = 1 + c dth, computed once
# with mpmath at 40 digits and rounded to the nearest double: extreme
# lambda, a small turning and a turning near pi, at alpha near 1 and far
# from it. The series was within 3 ulps of psi and 1 ulp of the chord's
# length in x and y on these; G7/K15 at tol 1e-12 within 16 ulps of psi.
SERIES_CHORDS = {
    (1.01, 1e-06, 1.2): (0.600000122982431, 0.9320384483252537, 0.6376419775624971),
    (1.01, 0.05, 0.01): (0.005000416666317677, 0.00999733377994305, 4.9991251115856905e-05),
    (1.01, 1.0, 3.1): (2.306767072806692, -0.5043216017942819, 0.5568135246980789),
    (1.01, 20.0, 0.3): (0.2488994013035688, 0.05065594360346608, 0.012875215762679285),
    (1.01, 1e6, 1.2): (1.18823482558401, 0.004435292645710161, 0.011022485008497758),
    (1.25, 1e-06, 1.2): (0.6000001229824132, 0.9320384483253731, 0.6376419775625545),
    (1.25, 0.05, 0.01): (0.005000416641318752, 0.009997333979859071, 4.99912518655998e-05),
    (1.25, 1.0, 3.1): (2.1385150795722563, -0.5267832533155414, 0.8259965725905435),
    (1.25, 20.0, 0.3): (0.21930040071251325, 0.09639564575992919, 0.02148513898428956),
    (1.25, 1e6, 1.2): (1.000952350439827, 0.1276492597812865, 0.1992189913805799),
    (1.5, 1e-06, 1.2): (0.6000001229823948, 0.9320384483254974, 0.6376419775626143),
    (1.5, 0.05, 0.01): (0.005000416615282033, 0.009997334188066675, 4.9991252646428954e-05),
    (1.5, 1.0, 3.1): (2.0340243015968094, -0.5072213313250344, 1.0155077937286046),
    (1.5, 20.0, 0.3): (0.20361780562976808, 0.12820006902262499, 0.0264706582511671),
    (1.5, 1e6, 1.2): (0.9018134209642971, 0.24147047692046766, 0.305426855291546),
    (3.0, 1e-06, 1.2): (0.6000001229822841, 0.9320384483262432, 0.6376419775629731),
    (3.0, 0.05, 0.01): (0.005000416459143682, 0.009997335436493253, 4.999125732812747e-05),
    (3.0, 1.0, 3.1): (1.7966415483008118, -0.3431430931857846, 1.4934521504867304),
    (3.0, 20.0, 0.3): (0.17395146773866538, 0.20814754310964798, 0.03657724872010977),
    (3.0, 1e6, 1.2): (0.7217997684130666, 0.5713438218337925, 0.5029294982733425),
    (10.0, 1e-06, 1.2): (0.6000001229817676, 0.9320384483297236, 0.6376419775646475),
    (10.0, 0.05, 0.01): (0.0050004157323504704, 0.009997341243983602, 4.999127910205842e-05),
    (10.0, 1.0, 3.1): (1.6308518836328652, -0.11071972991557708, 1.8414047572326737),
    (10.0, 20.0, 0.3): (0.15713296597413903, 0.26747310344624997, 0.04237820098866663),
    (10.0, 1e6, 1.2): (0.6321892113229413, 0.8218850368177504, 0.6020086884983846),
}


@pytest.mark.parametrize("alpha, lam, dth", sorted(SERIES_CHORDS))
def test_series_chord_is_within_four_ulps_of_its_exact_value(alpha, lam, dth):
    psi, x, y = SERIES_CHORDS[alpha, lam, dth]
    got_x, got_y, log_scale = _chord_components(alpha, lam, dth, 1e-12)
    assert log_scale == math.log1p(dth * lam * (alpha - 1.0)) / (alpha - 1.0)
    assert abs(chord_angle(alpha, lam, dth) - psi) <= 4 * math.ulp(psi)
    for got, want in ((got_x, x), (got_y, y)):
        assert abs(got - want) <= 4 * math.ulp(math.hypot(x, y))


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 100.0, exclude_min=True), st.floats(-6.0, 6.0),
       st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
@example(1.0 + 1e-13, 0.5, 1.2)
@example(1.0 + 1e-6, 3.0, 3.0)
@example(1.01, 1.3, 2.0)  # lambda 20: a series about the midpoint was 4.3e5 ulps off
@example(1.5, 0.0, 2.5)  # a draft that stopped early was 7.5e-15 off
@example(3.0, -0.9445232857944336, 1.0)  # the running product just above 4: backward
@example(3.0, -0.9445232857944335, 1.0)  # and just below: forward
@example(1.5, 0.34, 0.00365)  # forward while the product stayed below 16: 132 ulps
def test_series_chord_agrees_with_its_integral(alpha, log_lam, dth):
    # lambda log-uniform over [1e-6, 1e6]; _chord_integrand is the general
    # reference, integrated past the tolerance fit_g1 asks of a chord. Its
    # rounding grows with its panels: against 40-digit values, x at (34,
    # 10^5.9375, 3) was 40 ulps of the chord's length off on 15 panels, with
    # an error estimate of 12 ulps, while the series was within 2.
    lam = 10.0**log_lam
    # where dth * lam * (alpha - 1) is subnormal, the integral's [0, u_end]
    # has lost its bits (at 0 it is empty), and below dth = 1e-150 both
    # chords' y, about dth^2/2, do
    assume(alpha != 2.0 and dth * lam * (alpha - 1.0) >= sys.float_info.min and dth >= 1e-150)
    f, a, b, u_end = _chord_integrand(alpha, lam, dth)
    want = _integrate_components(f, a, b, 1e-14)
    got_x, got_y, log_scale = _chord_components(alpha, lam, dth, 1e-12)
    assert log_scale == u_end
    panels = want[0].subdivisions
    psi = math.atan2(want[1].value, want[0].value)
    assert abs(chord_angle(alpha, lam, dth) - psi) <= 4e-15 * panels * psi
    size = math.hypot(want[0].value, want[1].value)
    for got, ref in zip((got_x, got_y), want):
        assert abs(got - ref.value) <= ref.error_estimate + 4 * panels * math.ulp(size)


# The pinned bits live in tests/ledger.json; these check its entries for
# the README problem (delta_theta = 1.2) one input at a time.


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_chord_angle_pinned_bits(alpha, ledger):
    assert chord_angle(alpha, 0.3, 1.2).hex() == ledger[f"chord_angle({alpha}, 0.3, 1.2)"]


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 2.0])
def test_fit_g1_pinned_bits(alpha, ledger):
    t_end = (math.cos(1.2), math.sin(1.2))
    seg = fit_g1(HermiteProblem((0.0, 0.0), (0.7, 0.72), (1.0, 0.0), t_end, alpha))
    t = seg.transform
    got = [v.hex() for v in (seg.equation.lam, seg.residual, t.scale, seg.s_total, t.rotation)]
    name = f"fit_g1 README problem alpha {alpha}: lam, residual, scale, s_total, rotation"
    assert got == ledger[name]


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 2.0])
def test_region_pinned_bits(alpha, ledger):
    rows = drawable_region(alpha, 1.2).boundary_samples
    picked = list(range(0, len(rows) - 1, 16)) + [len(rows) - 1]  # every 16th row and the last
    name = f"drawable_region({alpha}, 1.2) rows {picked}"
    assert name in ledger, f"{len(rows)} rows is not the pinned count"
    assert [v.hex() for i in picked for v in rows[i]] == ledger[name]


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


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0, 2.0])
def test_fit_with_a_subnormal_turning_is_degenerate(alpha):
    # the chord angle is 0 at every lambda, so a straight chord is "reached"
    # at a bracket end whose chord integral is empty: a ZeroDivisionError
    problem = HermiteProblem((0.0, 0.0), (0.7, 5e-324), (1.0, 5e-324), (1.0, 0.0), alpha)
    with pytest.raises(DegenerateInput, match="^turning 5e-324 is too small to fit: the "
                       r"normalized chord underflows at lambda = 1e-06$"):
        fit_g1(problem)


@pytest.mark.parametrize("alpha", [-1.0, 1.0, 2.0])
def test_a_chord_that_overflows_is_a_value_error(alpha):
    # cy overflowed to inf, atan2 put the chord at pi/2, and at alpha = 1 the
    # fit returned a segment whose scale was inf
    problem = HermiteProblem((0.0, -1e308), (1e307, 1e308), (math.cos(0.5), math.sin(0.5)),
                             (math.cos(2.3), math.sin(2.3)), alpha)
    with pytest.raises(ValueError, match=r"^the chord from \(0\.0, -1e\+308\) to "
                       r"\(1e\+307, 1e\+308\) overflows double precision$"):
        fit_g1(problem)


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0, 2.0])
def test_fit_accepts_a_subnormal_tol(alpha):
    # the integrals' tolerance, a hundredth of tol, underflowed to 0.0: "tol
    # must be positive and finite" about a tol that is both
    seg = fit_g1(problem_from_psi(alpha, 1.2, 0.7), tol=1e-323)
    assert seg.residual <= 2.0**-52


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


def test_fit_with_no_lambda_reaching_the_turning_has_no_solution():
    # alpha = 0 turns by 2 only below lambda* = 1/2, under the whole bracket
    problem = problem_from_psi(0.0, 2.0, 1.0)
    with pytest.raises(NoSolution) as info:
        fit_g1(problem, lam_bounds=(1.0, 1e6))
    assert str(info.value) == (f"turning {abs(problem.delta_theta())!r} is unreachable "
                               "for every lambda in [1.0, 1000000.0] at alpha = 0.0")
    assert (info.value.psi_min, info.value.psi_max) == (None, None)
    assert info.value.psi_target == pytest.approx(1.0)


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
    # lambda log-uniform up to 100 and, for alpha < 1, just short of lambda*,
    # so the target lies inside the region and the residual meets tol.
    # The fitted lambda is not compared, since it is ill-conditioned where psi
    # flattens: the fitted member, placed by its similarity, must end on the
    # problem's end point, at its chord angle to tol, with its end tangent.
    # Its end comes from the log-radius chord integral (checked against the
    # arc-length route above): sample_curve's closed-form turning angle
    # cancels badly for alpha near 0 or 1 at small lambda.
    lam_star = math.inf if alpha >= 1.0 else 1.0 / (dth * (1.0 - alpha))
    lo, hi = 1e-4, min(100.0, (1.0 - 1e-6) * lam_star)
    lam = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    # just below alpha = 1, near the reach, the normalized chord can exceed
    # e^700, beyond any double scale (test_fit_scale_underflow_is_no_solution)
    assume(_chord_components(alpha, lam, dth, 1e-12)[2] < 650.0)
    problem = problem_from_psi(alpha, dth, chord_angle(alpha, lam, dth),
                               rotation=rotation, chord=2.0, mirror=mirror)
    seg = fit_g1(problem, tol=1e-10)
    assert seg.residual <= 1e-10
    x, y, log_scale = _chord_components(alpha, seg.equation.lam, dth, 1e-13)
    ex, ey = seg.transform.apply_point(x * math.exp(log_scale), y * math.exp(log_scale))
    assert math.hypot(ex - problem.p_end[0], ey - problem.p_end[1]) <= 1e-8 * 2.0
    # tol, plus the quadrature error of the fit's psi and of this one
    r = math.hypot(x, y)
    psi_err = math.atan2(ey, ex) - math.atan2(problem.p_end[1], problem.p_end[0])
    assert abs(math.remainder(psi_err, math.tau)) <= 1e-10 + 2e-12 * max(1.0, r) / r
    end_angle = math.atan2(problem.t_end[1], problem.t_end[0])
    assert abs(math.remainder(seg.transform.apply_angle(dth) - end_angle, math.tau)) <= 1e-8


FIRST_STEP_ALPHAS = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.5, 3.0, 10.0]


def bracket_x(alpha, dth):
    """fit_g1's default bracket in its root-finder's variable x = log(lambda /
    (1 - k lambda)), with k = 1/lambda* below alpha = 1 and 0 otherwise: (x at
    the small end, x at the far end, k). The first step is the midpoint."""
    k = max(0.0, dth * (1.0 - alpha))
    lo, hi = 1e-6, _reach(alpha, dth, (1e-6, 1e6))
    return math.log(lo) - math.log1p(-k * lo), math.log(hi) - math.log1p(-k * hi), k


@pytest.mark.parametrize("alpha", FIRST_STEP_ALPHAS)
@pytest.mark.parametrize("dth", [0.4, 1.2, 2.6])
def test_fit_integrates_the_far_end_only_for_a_root_beyond_the_first_step(
        monkeypatch, alpha, dth):
    lams = []  # where fit_g1 calls chord_angle: its bracket ends

    def counted(a, lam, *args):
        lams.append(lam)
        return chord_angle(a, lam, *args)

    monkeypatch.setattr(he, "chord_angle", counted)
    xa, xb, k = bracket_x(alpha, dth)
    for u, ends in ((0.3, 1), (0.7, 2)):
        # a member whose root lies below, then above, the first step
        lam = 1.0 / (math.exp(-(xa + u * (xb - xa))) + k)
        problem = problem_from_psi(alpha, dth, chord_angle(alpha, lam, dth))
        lams.clear()
        assert fit_g1(problem).residual <= 1e-10
        assert lams == [1e-6, _reach(alpha, problem.delta_theta(), (1e-6, 1e6))][:ends]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(FIRST_STEP_ALPHAS),
    st.floats(0.05, 3.0),
    st.floats(0.0, 1.0),
    st.floats(1e-9, 0.3),
    st.booleans(),
)
@example(0.0, 1.1, 0.999, 1e-9, True)  # within 1e-6 of lambda*, and a target just past psi_max
@example(-3.0, 2.5, 0.5, 0.3, False)  # the root on the first step
def test_fit_over_the_whole_bracket(alpha, dth, u, push, above):
    # lambda spread in the root-finder's x over the bracket, for alpha < 1 up
    # to (1 - 1e-7) lambda*: closer in, psi_max lies within the chord
    # integral's error of the target (ROADMAP items 4 and 15)
    xa, xb, k = bracket_x(alpha, dth)
    if k:  # x at (1 - 1e-7) lambda*
        xb = min(xb, math.log((1.0 - 1e-7) / 1e-7 / k))
    # inside the bracket ends, whose psi the end point rounds past by an ulp
    lam = min(max(1.0 / (math.exp(-(xa + u * (xb - xa))) + k), 1.0001e-6), 0.9999e6)
    # past a normalized chord of e^700 no double scale places the member
    assume(_chord_components(alpha, lam, dth, 1e-12)[2] < 650.0)
    problem = problem_from_psi(alpha, dth, chord_angle(alpha, lam, dth), chord=2.0)
    seg = fit_g1(problem, tol=1e-10)
    assert seg.residual <= 1e-10
    x, y, log_scale = _chord_components(alpha, seg.equation.lam, dth, 1e-13)
    ex, ey = seg.transform.apply_point(x * math.exp(log_scale), y * math.exp(log_scale))
    assert math.hypot(ex - problem.p_end[0], ey - problem.p_end[1]) <= 1e-8 * 2.0
    # a target pushed outside the region reports the bracket ends' own bits,
    # at the turning the problem's tangents give
    d = problem.delta_theta()
    ends = sorted(chord_angle(alpha, end, d) for end in (1e-6, _reach(alpha, d, (1e-6, 1e6))))
    psi = ends[1] + push if above else ends[0] - push
    with pytest.raises(NoSolution) as info:
        fit_g1(problem_from_psi(alpha, dth, psi, chord=2.0), tol=1e-10)
    assert (info.value.psi_min, info.value.psi_max) == tuple(ends)


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


def test_region_checks_bounds_then_count_then_reach():
    # the grid comes from quadrature._stations after _reach has checked the
    # bounds, and before the empty-region check
    with pytest.raises(ValueError, match="count must be at least 2"):
        drawable_region(0.5, 1.0, (10.0, 20.0), count=1)  # empty, bad count
    with pytest.raises(EmptyRegion):
        drawable_region(0.5, 1.0, (10.0, 20.0), count=2)
    with pytest.raises(ValueError, match="lam_bounds requires"):
        drawable_region(2.0, 1.0, (2.0, 1.0), count=1)  # bad bounds, bad count
    with pytest.raises(ValueError, match="count must be at least 2"):
        drawable_region(0.5, 1.0, (10.0, 10.000000000000002), count=1)  # bad count, repeats
    with pytest.raises(ValueError, match="is too short for 3 distinct lambdas"):
        drawable_region(0.5, 1.0, (10.0, 10.000000000000002), count=3)  # repeats, empty


def test_region_rejects_a_grid_that_repeats_a_lambda():
    # distinct logs can exp to one lambda: this wrote 97 rows of only two
    # lambdas, 1 and 1.0000000000000002, with psi_min == psi_max
    with pytest.raises(ValueError) as info:
        drawable_region(2.0, 1.0, (1.0, 1.0000000000000002))
    assert str(info.value) == "[1.0, 1.0000000000000002] is too short for 97 distinct lambdas"
    # two lambdas still make a grid
    assert len(drawable_region(2.0, 1.0, (1.0, 1.0000000000000002), 2).boundary_samples) == 2


def _log_grid(lo, hi, count):
    """count log-spaced points of [lo, hi], built without curvekit."""
    llo, lhi = math.log(lo), math.log(hi)
    return [math.exp(llo + (lhi - llo) * i / (count - 1)) for i in range(count)]


def _cold_grid(alpha, dth, lo, hi, count):
    """The region's lambda column: _log_grid, those at or past the reach
    replaced by the reach."""
    lams = _log_grid(lo, hi, count)
    if alpha < 1.0:
        reach = (1.0 - 1e-8) / dth / (1.0 - alpha)
        if reach < hi:
            lams = [lam for lam in lams if lam < reach] + [reach]
    return lams


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from([0.0, 1.0, 1.01, 2.0]), st.floats(-3.0, 10.0)),
    dth=st.floats(0.05, 3.0),
    count=st.integers(2, 200),
    ends=st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2, unique=True),
)
@example(alpha=2.0, dth=1.0, count=97, ends=[0.0, 1e-16])  # lambdas 1 and 1.0000000000000002
def test_region_sweep_matches_independent_chord_angles(alpha, dth, count, ends):
    # every row is the chord angle of its own lambda, to the bit, on the grid
    # built without curvekit
    lo, hi = (10.0**e for e in sorted(ends))
    assume(lo < hi)  # distinct exponents can still round to one power of 10
    grid = _log_grid(lo, hi, count)
    if not all(map(lt, grid, grid[1:])):
        # a repeated log is _stations' rejection, a repeated exp the region's
        want = f"is too short for {count} (stations|distinct lambdas)"
        with pytest.raises(ValueError, match=want):
            drawable_region(alpha, dth, (lo, hi), count)
        return
    try:
        reg = drawable_region(alpha, dth, (lo, hi), count)
    except EmptyRegion:
        assert alpha < 1.0 and (1.0 - 1e-8) / dth / (1.0 - alpha) <= lo
        return
    lams = [lam for lam, _ in reg.boundary_samples]
    assert lams == _cold_grid(alpha, dth, lo, hi, count)
    for lam, psi in reg.boundary_samples:
        assert psi == chord_angle(alpha, lam, dth)
    psis = [psi for _, psi in reg.boundary_samples]
    assert (reg.psi_min, reg.psi_max) == (min(psis), max(psis))
