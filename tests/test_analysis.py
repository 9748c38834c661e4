"""Fairness line, monotonicity checks, and stress markers."""

import math
import random
from decimal import Decimal, localcontext

import pytest

from curvekit.analysis import (
    DegenerateLcg,
    check_monotone,
    lcg_analytic,
    lcg_from_functions,
    lcg_from_samples,
    stress_marker,
)
from curvekit.pseudospiral import NaturalEquation, curvature, sample_curve


ALPHAS = (-1.0, 0.0, 0.5, 1.0, 2.0, 10.0)
LAMBDAS = (0.3, 1.0, 3.0)


def family_range(alpha, lam):
    eq = NaturalEquation(alpha, lam)
    end = eq.s_max_domain
    return eq, (3.0 if end == math.inf else 0.9 * end)


def brute_force_monotone(kappas, tol):
    """All-pairs reference for the running-extrema implementation."""
    dec_ok = all(
        kappas[j] <= kappas[i] + tol
        for i in range(len(kappas))
        for j in range(i + 1, len(kappas))
    )
    inc_ok = all(
        kappas[j] >= kappas[i] - tol
        for i in range(len(kappas))
        for j in range(i + 1, len(kappas))
    )
    return dec_ok, inc_ok


# ------------------------------------------------------------ analytic line


def test_analytic_slope_is_alpha_and_intercept_is_neg_log_lambda():
    for alpha in ALPHAS:
        for lam in LAMBDAS:
            eq, end = family_range(alpha, lam)
            rep = lcg_analytic(eq, (0.0, end), 64)
            assert rep.slope == pytest.approx(alpha, abs=1e-6), (alpha, lam)
            assert rep.intercept == pytest.approx(-math.log(lam), abs=1e-6)
            assert rep.rms_residual < 1e-9


def test_functions_route_matches_analytic():
    lam = 0.8
    eq = NaturalEquation(2.0, lam)
    s_values = [0.05 * i for i in range(1, 60)]

    def dk(s):
        return -lam * (1.0 + 2.0 * lam * s) ** (-1.5)

    rep = lcg_from_functions(lambda s: curvature(eq, s), dk, s_values)
    assert rep.slope == pytest.approx(2.0, abs=1e-9)
    assert rep.intercept == pytest.approx(-math.log(lam), abs=1e-9)


# ------------------------------------------------------------ sampled line


def test_sampled_slope_recovers_alpha():
    for alpha in ALPHAS:
        for lam in LAMBDAS:
            eq, end = family_range(alpha, lam)
            sc = sample_curve(eq, end, 2000)
            rep = lcg_from_samples(sc)
            assert rep.slope == pytest.approx(alpha, abs=1e-3), (alpha, lam)
            assert rep.intercept == pytest.approx(-math.log(lam), abs=1e-3)


def test_sampled_accepts_bare_pairs():
    eq = NaturalEquation(1.0, 1.0)
    s_values = [0.01 * i for i in range(300)]
    pairs = [(s, curvature(eq, s)) for s in s_values]
    rep = lcg_from_samples(pairs)
    assert rep.slope == pytest.approx(1.0, abs=1e-3)


def test_scale_covariance():
    # scaling a curve by c: slope fixed, intercept shifts by (1-alpha) ln c
    alpha, lam = 2.0, 1.0
    eq = NaturalEquation(alpha, lam)
    s_values = [0.02 * i for i in range(1, 200)]
    base = lcg_from_samples([(s, curvature(eq, s)) for s in s_values])
    for c in (0.1, 7.0):
        scaled = lcg_from_samples(
            [(c * s, curvature(eq, s) / c) for s in s_values]
        )
        # the (u, v) cloud shifts rigidly by (ln c, ln c), so the slope is
        # bit-for-bit stable and the intercept moves by (1 - slope) ln c
        assert scaled.slope == pytest.approx(base.slope, abs=1e-9)
        shift = (1.0 - base.slope) * math.log(c)
        assert scaled.intercept - base.intercept == pytest.approx(shift, abs=1e-9)
        assert abs(shift - (1.0 - alpha) * math.log(c)) < 2e-3


def test_circle_is_degenerate():
    with pytest.raises(DegenerateLcg):
        lcg_from_functions(lambda s: 2.0, lambda s: 0.0, [0.1, 0.2, 0.3])
    pairs = [(0.1 * i, 2.0) for i in range(50)]
    with pytest.raises(DegenerateLcg):
        lcg_from_samples(pairs)


def test_noisy_circle_never_crashes():
    rng = random.Random(7)
    pairs = [(0.1 * i, 2.0 + rng.uniform(-1e-4, 1e-4)) for i in range(200)]
    try:
        rep = lcg_from_samples(pairs)
    except DegenerateLcg:
        return
    assert math.isfinite(rep.slope)
    assert rep.rms_residual >= 0.0


def test_nonpositive_curvature_rejected():
    with pytest.raises(ValueError):
        lcg_from_functions(lambda s: -1.0, lambda s: -0.1, [0.1, 0.2])
    with pytest.raises(ValueError):
        lcg_from_samples([(0.0, 1.0), (0.1, 0.0), (0.2, 0.5)])


@pytest.mark.parametrize("pairs, message", [
    ([(0.0, 1.0), (0.1, 0.0), (0.2, math.nan)], "kappa must be positive"),
    ([(0.0, 1.0), (0.1, math.inf), (0.2, -1.0)], "samples must be finite"),
    ([(0.0, 1.0), (math.nan, 0.5), (0.2, -1.0)], "samples must be finite"),
    ([(0.0, 1.0), (0.1, -0.5), (math.inf, 0.5)], "kappa must be positive"),
])
def test_lcg_from_samples_names_the_first_faulty_sample(pairs, message):
    with pytest.raises(ValueError, match=message):
        lcg_from_samples(pairs)


@pytest.mark.parametrize("check", [check_monotone, stress_marker])
@pytest.mark.parametrize("bad", [(2, 1, math.nan), (2, 1, math.inf), (0, 0, -math.inf),
                                 (3, 0, math.nan)])
def test_profile_checks_reject_non_finite_samples(check, bad):
    # nan made check_monotone call the profile "decreasing", inf "constant",
    # and stress_marker stop with a StopIteration
    pairs = [[0.1 * i, 1.0 / (1 + i)] for i in range(5)]
    i, j, value = bad
    pairs[i][j] = value
    with pytest.raises(ValueError, match="^samples must be finite$"):
        check(pairs)


@pytest.mark.parametrize("check", [lcg_from_samples, check_monotone, stress_marker])
@pytest.mark.parametrize("pairs", [
    [(0.0, 1.0), (0.0, 0.9), (1.0, 0.5)],  # lcg and stress: ZeroDivisionError in _slopes
    [(0.0, 1.0), (0.5, 0.9), (0.5, 0.7), (1.0, 0.5)],
    [(0.0, 1.0), (1.0, 0.9), (0.5, 0.5)],
])
def test_profile_checks_reject_arc_lengths_that_do_not_increase(check, pairs):
    with pytest.raises(ValueError, match="^sample arc lengths must increase strictly$"):
        check(pairs)


@pytest.mark.parametrize("check", [lcg_from_samples, stress_marker])
@pytest.mark.parametrize("pairs, gap", [
    ([(0.0, 1.0), (5e-324, 0.9), (1.0, 0.5)], r"\[0\.0, 5e-324\]"),  # lcg gave a nan slope
    ([(0.0, 1.0), (1.0, 0.9), (2.0, 1e-300), (2.0000000000000004, 1e300)],
     r"\[2\.0, 2\.0000000000000004\]"),
])
def test_slopes_that_overflow_name_their_gap(check, pairs, gap):
    # increasing arc lengths whose gap is too small for the change across it
    with pytest.raises(ValueError, match=f"^the slope over the arc-length gap {gap} is not finite"):
        check(pairs)


def test_a_reversed_range_and_a_single_sample_are_named():
    with pytest.raises(ValueError, match="^s_range must satisfy 0 <= s0 < s1$"):
        lcg_analytic(NaturalEquation(0.5, 1.0), (1.0, 0.5), 5)
    with pytest.raises(ValueError, match="^need at least two samples$"):
        check_monotone([(0.0, 1.0)])


def test_too_few_points_degenerate():
    with pytest.raises(DegenerateLcg):
        lcg_from_functions(lambda s: math.exp(-s), lambda s: -math.exp(-s), [0.5])
    with pytest.raises(ValueError):
        lcg_from_samples([(0.0, 1.0), (0.1, 0.9)])


def test_dropped_counts_flat_radius_steps():
    # plateaus in rho produce zero finite differences that must be dropped
    pairs = [(0.0, 1.0), (0.1, 1.0), (0.2, 1.0), (0.3, 0.5), (0.4, 0.25), (0.5, 0.125)]
    rep = lcg_from_samples(pairs)
    assert rep.dropped >= 1
    assert math.isfinite(rep.slope)


# ------------------------------------------------------------ log-spiral identity


def test_log_spiral_radius_line():
    # alpha=1: v = u - log(lam), a unit-slope line in (u, v)
    lam = 0.6
    eq = NaturalEquation(1.0, lam)
    rep = lcg_analytic(eq, (0.0, 5.0), 100)
    for u, v in rep.points:
        assert v == pytest.approx(u - math.log(lam), abs=1e-12)


@pytest.mark.parametrize("alpha", [1e-11, 1e-9, 0.5, 10.0])
def test_lcg_analytic_matches_high_precision_reference(alpha):
    # v = log(kappa / |dkappa/ds|) = log(1 + lam alpha s) - log(lam) on the
    # power branch; at tiny alpha the power form of dkappa/ds cancels
    for lam in (1e-4, 1e-2, 1.0):
        rep = lcg_analytic(NaturalEquation(alpha, lam), (0.0, 2.0), 3)
        for s, (_, v) in zip((0.0, 1.0, 2.0), rep.points):
            with localcontext() as ctx:
                ctx.prec = 50
                a, l = Decimal(alpha), Decimal(lam)
                ref = float((1 + l * a * Decimal(s)).ln() - l.ln())
            assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref))


# ------------------------------------------------------------ monotonicity


def test_monotone_direction_of_family_members():
    for alpha in ALPHAS:
        eq, end = family_range(alpha, 1.0)
        sc = sample_curve(eq, end, 200)
        rep = check_monotone(sc)
        assert rep.is_monotone
        assert rep.direction == "decreasing"
        assert rep.violations == ()


def test_monotone_constant():
    pairs = [(0.1 * i, 3.0) for i in range(20)]
    rep = check_monotone(pairs)
    assert rep.is_monotone
    assert rep.direction == "constant"


def test_monotone_increasing():
    pairs = [(0.1 * i, 1.0 + 0.05 * i) for i in range(20)]
    rep = check_monotone(pairs)
    assert rep.is_monotone
    assert rep.direction == "increasing"


def test_sine_curvature_flagged_with_first_violation_after_peak():
    # kappa = 1 + sin(s): rises to the peak at pi/2, then falls
    pairs = [(0.05 * i, 1.0 + math.sin(0.05 * i)) for i in range(200)]
    rep = check_monotone(pairs)
    assert not rep.is_monotone
    assert rep.direction == "non-monotone"
    assert len(rep.violations) > 0
    first = rep.violations[0]
    assert first[0] > math.pi / 2.0


def test_tolerance_absorbs_jitter():
    rng = random.Random(3)
    pairs = [
        (0.1 * i, math.exp(-0.1 * i) + rng.uniform(-1e-9, 1e-9)) for i in range(100)
    ]
    rep = check_monotone(pairs, tolerance=1e-8)
    assert rep.is_monotone
    assert rep.direction == "decreasing"
    assert rep.tolerance == 1e-8


def test_monotone_agrees_with_brute_force():
    rng = random.Random(20240816)
    for trial in range(60):
        n = rng.randint(3, 60)
        kappas = [1.0]
        for _ in range(n - 1):
            kappas.append(max(1e-6, kappas[-1] + rng.uniform(-0.1, 0.1)))
        pairs = [(0.1 * i, k) for i, k in enumerate(kappas)]
        tol = 10.0 ** rng.uniform(-12, -1)
        rep = check_monotone(pairs, tolerance=tol)
        dec_ok, inc_ok = brute_force_monotone(kappas, tol)
        assert rep.is_monotone == (dec_ok or inc_ok), (trial, kappas, tol)
        if dec_ok and inc_ok:
            assert rep.direction == "constant"
        elif dec_ok:
            assert rep.direction == "decreasing"
        elif inc_ok:
            assert rep.direction == "increasing"
        else:
            assert rep.direction == "non-monotone"
            assert len(rep.violations) > 0


# ------------------------------------------------------------ stress markers


def test_stress_marker_on_decreasing_family_is_at_start():
    eq = NaturalEquation(-1.0, 0.5)
    sc = sample_curve(eq, 1.5, 400)
    m = stress_marker(sc)
    # curvature max sits at s=0 for every decreasing member
    assert m.s_at_max_kappa == 0.0
    assert m.kappa_max == pytest.approx(1.0)
    # steepest slope of the affine falloff is uniform; first index wins
    assert m.s_at_max_kappa_slope == 0.0


def test_stress_marker_interior_peak():
    # single hump: kappa = 1 + sin(s) on [0, 3.1]
    pairs = [(0.05 * i, 1.0 + math.sin(0.05 * i)) for i in range(63)]
    m = stress_marker(pairs)
    assert m.s_at_max_kappa == pytest.approx(math.pi / 2.0, abs=0.05)
    assert m.kappa_max == pytest.approx(2.0, abs=1e-3)
    # |dk/ds| = |cos s| largest near s=0 or s=pi; first occurrence is s=0
    assert m.s_at_max_kappa_slope == pytest.approx(0.0, abs=0.06)


def test_stress_marker_needs_three_samples():
    with pytest.raises(ValueError):
        stress_marker([(0.0, 1.0), (0.1, 0.9)])


def test_stress_marker_tie_takes_first():
    pairs = [(0.0, 2.0), (0.1, 1.0), (0.2, 2.0), (0.3, 1.0), (0.4, 2.0)]
    m = stress_marker(pairs)
    assert m.s_at_max_kappa == 0.0


# ------------------------------------------------------------ report shapes


def test_report_as_dict():
    eq = NaturalEquation(0.0, 1.0)
    rep = lcg_analytic(eq, (0.0, 2.0), 32)
    d = rep.as_dict()
    assert set(d) == {"points", "slope", "intercept", "rms_residual", "dropped"}
    rep2 = check_monotone([(0.0, 1.0), (0.1, 0.9), (0.2, 0.8)])
    d2 = rep2.as_dict()
    assert set(d2) == {"is_monotone", "direction", "violations", "tolerance"}
