"""Work-count budgets: ceilings on machine-independent counts of work, and
on traced peak memory per input byte, at the value measured when each
budget was set plus 10%. A change that lowers a count tightens its
ceiling; raising one needs a stated reason."""

import contextlib
import io
import math
import os
import random
import tracemalloc

import pytest

import curvekit.hermite as he
import curvekit.pseudospiral as ps
import curvekit.qi3d as qi
from curvekit import cli
from curvekit.hermite import HermiteProblem, fit_g1
from curvekit.pseudospiral import NaturalEquation, sample_curve
from curvekit.qi3d import QiCurveSpec, QuaternionCurve, UnitQuaternion, q_exp, sample_qi
from curvekit.render import export_csv

SLACK = 1.1


def test_sample_curve_tangent_nodes(monkeypatch):
    # 3 Chebyshev pieces of 33 nodes for 2,000 stations
    nodes = 0
    tangent = ps._tangent

    def counted(eq, ts):
        nonlocal nodes
        nodes += len(ts)
        return tangent(eq, ts)

    monkeypatch.setattr(ps, "_tangent", counted)
    sample_curve(NaturalEquation(0.5, 1.0), 10.0, 2000)
    assert 0 < nodes <= SLACK * 99


# alpha -> tangent nodes of one 2,000-station sweep at lambda = 0.003 to
# s = 100 (0.9 of the alpha = -3 domain): 13 or 15 pieces of 33 nodes
SWEEP_NODES = {
    -3.0: 429, -1.0: 429, -0.5: 429, 0.0: 495, 0.5: 495, 1.0: 495, 2.0: 495, 10.0: 495,
}


@pytest.mark.parametrize("alpha", sorted(SWEEP_NODES))
def test_sample_curve_tangent_nodes_per_alpha(monkeypatch, alpha):
    nodes = 0
    tangent = ps._tangent

    def counted(eq, ts):
        nonlocal nodes
        nodes += len(ts)
        return tangent(eq, ts)

    monkeypatch.setattr(ps, "_tangent", counted)
    sample_curve(NaturalEquation(alpha, 0.003), 100.0, 2000)
    assert 0 < nodes <= SLACK * SWEEP_NODES[alpha]


def within_budget(count, budget):
    """0 < count <= SLACK * budget; a budget of 0 allows no work at all."""
    return 0 < count <= SLACK * budget if budget else count == 0


# alpha -> (chord integrals, panels summed over them) per fit; the panels
# are the leaf panels each integral ends with (its subdivisions), not the
# panels it evaluated on the way. The log spiral's (alpha = 1) and the
# circle involute's (alpha = 2) chords are closed forms, and every other
# alpha > 1 sums a series: no integral runs. At alpha = 0.5 the fit starts at
# psi's second-order root in lambda and steps below it by a secant in lambda
# (10 integrals on 11 panels from the first-order root).
FIT_COUNTS = {-1.0: (10, 37), 0.0: (9, 15), 0.5: (7, 8), 1.0: (0, 0), 2.0: (0, 0)}


@pytest.mark.parametrize("alpha", sorted(FIT_COUNTS))
def test_fit_g1_chord_integrals_and_panels(monkeypatch, alpha):
    # the README fit problem: end (0.7, 0.72), end tangent at 1.2 rad
    integrals = panels = 0
    integrate = he._integrate_components

    def counted(*args, **kwargs):
        nonlocal integrals, panels
        results = integrate(*args, **kwargs)
        integrals += 1
        panels += results[0].subdivisions
        return results

    monkeypatch.setattr(he, "_integrate_components", counted)
    t_end = (math.cos(1.2), math.sin(1.2))
    fit_g1(HermiteProblem((0.0, 0.0), (0.7, 0.72), (1.0, 0.0), t_end, alpha))
    max_integrals, max_panels = FIT_COUNTS[alpha]
    assert within_budget(integrals, max_integrals)
    assert within_budget(panels, max_panels)


# alpha -> integrand calls, one per evaluated panel, per fit_g1 on the
# README problem: a cheaper panel must not hide extra panels (12 at alpha = 0.5
# from the first-order root)
FIT_PANEL_CALLS = {-1.0: 64, 0.0: 21, 0.5: 9, 1.0: 0, 2.0: 0}


def integrand_calls(monkeypatch, run):
    """Integrand calls, one per evaluated panel, of hermite's integrals in run()."""
    calls = 0
    integrate = he._integrate_components

    def counted_integrate(f, *args, **kwargs):
        def counted(nodes):
            nonlocal calls
            calls += 1
            return f(nodes)

        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(he, "_integrate_components", counted_integrate)
    run()
    return calls


@pytest.mark.parametrize("alpha", sorted(FIT_PANEL_CALLS))
def test_fit_g1_integrand_calls(monkeypatch, alpha):
    t_end = (math.cos(1.2), math.sin(1.2))
    problem = HermiteProblem((0.0, 0.0), (0.7, 0.72), (1.0, 0.0), t_end, alpha)
    calls = integrand_calls(monkeypatch, lambda: fit_g1(problem))
    assert within_budget(calls, FIT_PANEL_CALLS[alpha])


@pytest.mark.parametrize("alpha", [1.01, 1.5, 3.0, 10.0])
def test_no_chord_integral_above_alpha_1(monkeypatch, alpha):
    # the README problem's chord (0.80 rad) lies outside these regions, so
    # the fit takes the chord at 0.62 rad; 10, 10 and 9 chord integrals of
    # 10, 14 and 31 integrand calls at alpha = 1.5, 3 and 10 before the series
    t_end = (math.cos(1.2), math.sin(1.2))
    problem = HermiteProblem((0.0, 0.0), (math.cos(0.62), math.sin(0.62)), (1.0, 0.0), t_end,
                             alpha)
    for run in (lambda: he.chord_angle(alpha, 0.3, 1.2), lambda: fit_g1(problem)):
        assert within_budget(integrand_calls(monkeypatch, run), 0)


def member_problems():
    """64 seeded fit problems built from members, 8 per alpha: lambda
    log-uniform over [1e-2, 1e2] for alpha >= 1 and over [1e-4, 1] lambda*
    for alpha < 1, where 3 of the 8 have their root within 1e-3 of lambda*."""
    rng = random.Random(20)
    problems = []
    for alpha in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0):
        for j in range(8):
            dth = rng.uniform(0.2, 2.8)
            if alpha >= 1.0:
                lam = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            elif j < 3:
                lam = (1.0 - 10.0 ** rng.uniform(-7.0, -3.0)) / (dth * (1.0 - alpha))
            else:
                lam = math.exp(rng.uniform(math.log(1e-4), 0.0)) / (dth * (1.0 - alpha))
            psi = he.chord_angle(alpha, lam, dth)
            problems.append(HermiteProblem((0.0, 0.0), (math.cos(psi), math.sin(psi)),
                                           (1.0, 0.0), (math.cos(dth), math.sin(dth)), alpha))
    return problems


def test_fit_g1_chord_integrals_on_member_problems(monkeypatch):
    # a worst-case and a mean ceiling on chord integrals per fit, bracket ends
    # included (11 and 7.68 when set; 11 and 6.41 once the 8 alpha = 10 fits,
    # with the 8 log spirals and the 8 involutes, integrate nothing; 11 and
    # 4.70 once a fit starts at psi's first-order root in lambda; 11 and 3.95
    # once it starts at the second-order root and steps below it by a secant
    # in lambda).
    # Illinois false position took up to 24 here, and this root-find in
    # plain log lambda up to 31 near the reach.
    integrals = 0
    integrate = he._integrate_components

    def counted(*args, **kwargs):
        nonlocal integrals
        integrals += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(he, "_integrate_components", counted)
    counts = []
    for problem in member_problems():
        integrals = 0
        assert fit_g1(problem).residual <= 1e-10
        counts.append(integrals)
    assert max(counts) <= 11
    assert sum(counts) <= 3.96 * len(counts)


# (alpha, delta_theta) -> integrand calls, one per evaluated panel, for the
# default 97-point region. For alpha < 1 the grid stops below the reach and
# the region ends on the reach row; each row is its own integral, and
# (-1.0, 1.5) makes 62 calls, against 60 when each row started from the
# previous row's panels. Above alpha = 1 no row integrates: (10.0, 1.5)
# made 407 calls that way, and 701 with one integral per row.
REGION_CALLS = {
    (-1.0, 1.5): 60,
    (0.5, 1.0): 56,
    (1.0, 1.2): 0,
    (1.01, 0.5): 0,
    (2.0, 1.5): 0,
    (3.0, 1.2): 0,
    (10.0, 1.5): 0,
}


@pytest.mark.parametrize("alpha, dth", sorted(REGION_CALLS))
def test_drawable_region_integrand_calls(monkeypatch, alpha, dth):
    calls = integrand_calls(monkeypatch, lambda: he.drawable_region(alpha, dth))
    assert within_budget(calls, REGION_CALLS[alpha, dth])


@pytest.mark.parametrize("count", [50, 1000])
def test_sample_qi_tangent_nodes(monkeypatch, count):
    # the README circle: one Chebyshev piece of 33 nodes, whatever the count
    nodes = 0
    tangent = qi._tangent

    def counted(spec, ss):
        nonlocal nodes
        nodes += len(ss)
        return tangent(spec, ss)

    monkeypatch.setattr(qi, "_tangent", counted)
    circle = QiCurveSpec(
        p0=(0.0, 0.0, 0.0),
        v0=(1.0, 0.0, 0.0),
        qcurve=QuaternionCurve((
            UnitQuaternion(1.0, 0.0, 0.0, 0.0),
            q_exp((0.0, 0.0, math.pi / 2)),
            q_exp((0.0, 0.0, math.pi)),
        )),
        s_total=math.tau,
    )
    sample_qi(circle, count)
    assert 0 < nodes <= SLACK * 33


def test_sample_qi_one_quaternion_evaluation_per_station(monkeypatch):
    # each station's tangent rotates v0 by one eval_quaternion_curve; the
    # position sweep evaluates the tangent field through its column call
    calls = 0
    evaluate = qi.eval_quaternion_curve

    def counted(curve, t):
        nonlocal calls
        calls += 1
        return evaluate(curve, t)

    monkeypatch.setattr(qi, "eval_quaternion_curve", counted)
    spec = QiCurveSpec(
        p0=(0.0, 0.0, 0.0),
        v0=(1.0, 0.0, 0.0),
        qcurve=QuaternionCurve((
            UnitQuaternion(1.0, 0.0, 0.0, 0.0),
            UnitQuaternion(0.8, 0.6, 0.0, 0.0),
            UnitQuaternion(0.6, 0.0, 0.8, 0.0),
        )),
        s_total=3.0,
    )
    sample_qi(spec, 500)
    assert 0 < calls <= SLACK * 500


def test_one_parser_build_per_process(tmp_path, monkeypatch):
    # the parser is cached: in-process callers (the benchmark's space
    # workload among them) must not rebuild it per call
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    calls = (
        ["curve", "--alpha", "1", "--lambda", "1", "--n", "5"],
        ["curve", "--bogus"],
        ["region", "--alpha", "2", "--delta-theta", "1", "--points", "3"],
        ["qi", "--controls", "1,0,0,0;0.8,0.6,0,0", "--n", "4"],
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for args in calls:
            cli.main(args)
    assert cli._build_parser.cache_info().misses <= 1


# command -> tracemalloc peak per byte of its --in CSVs, on CPython 3.11:
# a.csv holds 5,000 rows and b.csv 2,000
IN_PATH_PEAK_PER_BYTE = {"plot": 3.69, "ornament": 3.70}
IN_PATH_ARGS = {
    "plot": (["plot", "--in", "a.csv", "--in", "b.csv", "--annotate", "--widths", "0.5,1"],
             ("a.csv", "b.csv")),
    "ornament": (["ornament", "--in", "a.csv"], ("a.csv",)),
}


@pytest.mark.parametrize("command", sorted(IN_PATH_PEAK_PER_BYTE))
def test_in_path_peak_memory_per_input_byte(tmp_path, monkeypatch, command):
    # the --in path holds each piece of data once: the CSV text is walked a
    # line at a time, path points are formatted straight from the samples,
    # the strokes of a curve share its d, and the document is written a
    # slice at a time. With a list of the lines, world- and canvas-point
    # lists, a stroke's copy of d, the document copied by + "\n" and
    # encoded whole, the peaks were 5.69 (plot) and 4.86 (ornament).
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, alpha, lam, s_end, n in (("a.csv", 0.5, 1.0, 5.0, 5000),
                                       ("b.csv", -1.0, 0.5, 1.5, 2000)):
        text = export_csv(sample_curve(NaturalEquation(alpha, lam), s_end, n))
        (tmp_path / name).write_text(text, encoding="utf-8", newline="\n")
    args, inputs = IN_PATH_ARGS[command]
    with contextlib.redirect_stdout(io.StringIO()):
        # a first run fills what a process fills once (the parser among it):
        # not the --in path's memory
        assert cli.main([*args, "--out", "o.svg"]) == 0
        tracemalloc.start()
        try:
            assert cli.main([*args, "--out", "o.svg"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = sum(os.path.getsize(name) for name in inputs)
    assert 0 < peak <= SLACK * IN_PATH_PEAK_PER_BYTE[command] * size, peak / size
