"""The output ledger: curvekit's outputs on fixed inputs, pinned by name.

Every entry is one in-process ``cli.main`` run (or a short chain of runs in
one working directory) or one library call. A run is reduced to the sha256
of its exit codes, stdout, stderr and the files it wrote; a library call to
the float.hex of the numbers it returns, or to the sha256 of a text (a CSV
or SVG it writes, or the type and message of the exception it raises). The
entries are committed in ``tests/ledger.json``.

Standard library only, so it runs on any interpreter without the test
extra. From the root of a checkout:

    PYTHONPATH=src python tests/test_ledger.py          # compare with ledger.json
    PYTHONPATH=src python tests/test_ledger.py --write  # regenerate ledger.json

pytest collects ``test_outputs_match_the_ledger`` as well. A change that
moves an output regenerates the file and lists each moved entry, with the
reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

from curvekit import cli
from curvekit.analysis import (
    StressMarker,
    check_monotone,
    lcg_analytic,
    lcg_from_samples,
    stress_marker,
)
from curvekit.hermite import (
    HermiteProblem,
    arc_length_for_turning,
    chord_angle,
    drawable_region,
    fit_g1,
    turning_limit,
)
from curvekit.pseudospiral import (
    _DOMAIN_GUARD,
    CurveSample,
    NaturalEquation,
    Pose,
    SampledCurve,
    evaluate_point,
    sample_curve,
)
from curvekit.qi3d import QiCurveSpec, QuaternionCurve, UnitQuaternion, q_exp, qi_point, sample_qi
from curvekit.quadrature import _integrate_components, integrate, integrate_vector2
from curvekit.render import OrnamentSpec, PlotSpec, export_csv, ornament_svg, plot_svg

LEDGER = Path(__file__).resolve().with_name("ledger.json")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hex(*values):
    return [float(v).hex() for v in values]


def _rows(rows, picked):
    return [v.hex() for i in picked for v in rows[i]]


def _or_raised(call):
    """call(), or the sha256 of the ValueError or ArithmeticError it raises."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return _sha(f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- the CLI

# --in inputs: a monotone curve; the subnormal gap whose kappa slope
# overflows; a path far from the world origin; a path of subnormal extent;
# a non-monotone profile; a circle, whose log-curvature graph is undefined
INPUTS = {
    "slope.csv": "s,x,y,theta,kappa\n0,0,0,0,1\n5e-324,0.1,0,0,0.9\n1,0.2,0,0,0.5\n",
    "far.csv": "s,x,y,theta,kappa\n0,500,0,0,1\n1,500,1e-304,0,0.5\n",
    "tiny.csv": "s,x,y,theta,kappa\n0,0,0,0,1\n1,0,5e-324,0,0.5\n",
    "wavy.csv": "s,x,y,theta,kappa\n0,0,0,0,1\n0.5,0.5,0,0,2\n1,1,0,0,0.5\n1.5,1.5,0,0,3\n",
    "circle.csv": "s,x,y,theta,kappa\n0,1,0,0,1\n1,0.5,0.8,1,1\n2,-0.4,0.9,2,1\n",
    "curvekit.conf": "samples = 25\nout_dir = outdir\nlambda_min = 0.01\nlambda_max = 100\n",
    "junk.conf": "samples = 25\nthis line has no equals sign\n",
    "spec.json": json.dumps({"p0": [0.5, -1, 2], "v0": [0, 0.6, 0.8], "s_total": 3.7,
                             "controls": [[1, 0, 0, 0], [0.8, 0.6, 0, 0], [0.6, 0, -0.8, 0],
                                          [0.36, 0.48, 0.64, 0.48], [0, 0, 0.6, 0.8]]}),
}
_FIT = "fit --start 0,0 --end 0.7,0.72 --start-angle 0 --end-angle 1.2"
_C = "curve --alpha 0.5 --lambda 1 --s-end 2 --n 30 --out c.csv"
# name -> the commands run one after another in one working directory
CLI_RUNS = {
    "curve alpha 0.5": ["curve --alpha 0.5 --lambda 1 --n 50"],
    "curve euler --svg --axes": ["curve --named euler --lambda 0.3 --s-end 2 --n 40 --svg c.svg "
                                 "--axes"],
    "curve log_spiral into a new directory": ["curve --named log_spiral --lambda 0.7 --n 30 "
                                              "--out sub/c.csv"],
    "curve alpha -1 near its domain end": ["curve --alpha -1 --lambda 1 --s-end 0.99 --n 20"],
    "curve past the domain end (exit 2)": ["curve --alpha -1 --lambda 1 --s-end 2 --n 5"],
    "curve subnormal s-end (exit 1)": ["curve --alpha 0.5 --lambda 1 --s-end 5e-324"],
    "curve without lambda (exit 1)": ["curve --alpha 0.5"],
    "curve unknown flag (exit 1)": ["curve --bogus"],
    "curve --config": ["--config curvekit.conf curve --alpha 2 --lambda 0.3 --s-end 3"],
    "curve --config with a junk line (exit 1)": ["--config junk.conf curve --alpha 2 "
                                                 "--lambda 0.3"],
    "lcg analytic": ["lcg --alpha 0.5 --lambda 1 --n 20"],
    "lcg analytic --json": ["lcg --alpha 2 --lambda 0.5 --s-end 3 --n 15 --json"],
    "lcg analytic --json --out": ["lcg --alpha 1 --lambda 1 --n 10 --json --out l.json"],
    "lcg --in": [_C, "lcg --in c.csv --json"],
    "lcg --in a subnormal gap": ["lcg --in slope.csv --json"],
    "lcg --in a circle (exit 3)": ["lcg --in circle.csv"],
    "fit alpha 0.5": [f"{_FIT} --alpha 0.5"],
    "fit alpha 2 --json --svg": [f"{_FIT} --alpha 2 --json --svg f.svg"],
    "fit alpha -1 --out": [f"{_FIT} --alpha -1 --out f.json"],
    "fit alpha 1 --tol": [f"{_FIT} --alpha 1 --tol 1e-8 --json"],
    "fit --config": [f"--config curvekit.conf {_FIT} --alpha 0 --json"],
    "fit outside the region (exit 4)": ["fit --start 0,0 --end 1,0 --start-angle 0 "
                                        "--end-angle 1.2 --alpha 0.5"],
    "fit parallel tangents (exit 1)": ["fit --start 0,0 --end 1,1 --start-angle 0 "
                                       "--end-angle 0 --alpha 0.5"],
    "region alpha 2": ["region --alpha 2 --delta-theta 1.5 --points 20"],
    "region alpha -1": ["region --alpha -1 --delta-theta 1.2"],
    "region alpha 0.5 bounded": ["region --alpha 0.5 --delta-theta 1 --lambda-min 0.01 "
                                 "--lambda-max 10 --points 9"],
    "region turning past pi (exit 1)": ["region --alpha 0.5 --delta-theta 4"],
    "region unreachable turning (exit 4)": ["region --alpha 0 --delta-theta 1 --lambda-min 10 "
                                            "--lambda-max 100"],
    "qi --controls": ["qi --controls 1,0,0,0;0.8,0.6,0,0;0.6,0,0.8,0 --s-total 3 --n 30"],
    "qi --spec": ["qi --spec spec.json --n 41"],
    "qi antipodal controls (exit 1)": ["qi --controls 1,0,0,0;-1,0,0,0 --n 5"],
    "qi last station past s-total (exit 1)": ["qi --controls 1,0,0,0;0,1,0,0 "
                                              "--s-total 6.283185307179586 --n 14"],
    "ornament squares": ["ornament --alpha 0.5 --lambda 1 --n 40 --count 7 --primitive square "
                         "--rhythm 1,2 --palette red,#00ff00"],
    "ornament triangles by curvature": ["ornament --named euler --lambda 0.3 --n 30 "
                                        "--primitive triangle "
                                        "--size-rule proportional_to_radius_of_curvature"],
    "ornament --in": [_C, "ornament --in c.csv --count 3 --out o.svg"],
    "ornament markup in the palette (exit 1)": ["ornament --alpha 0.5 --lambda 1 --palette '\"'"],
    "check": ["check --alpha 0.5 --lambda 1 --n 20"],
    "check --in --json": ["check --in wavy.csv --json"],
    "plot --in twice --annotate --axes": [
        _C, "curve --alpha 2 --lambda 3 --s-end 1 --n 25 --out d.csv",
        "plot --in c.csv --in d.csv --widths 0.5,2 --size 640x480 --annotate --axes"],
    "plot euler --annotate": ["plot --named euler --lambda 0.3 --n 30 --annotate"],
    "plot --axes far from the origin": ["plot --in far.csv --axes"],
    "plot --annotate a subnormal gap": ["plot --in slope.csv --annotate"],
    "plot a subnormal extent (exit 1)": ["plot --in tiny.csv"],
    "plot a missing file (exit 1)": ["plot --in missing.csv"],
}


def _cli_run(commands):
    """Run the commands in a fresh working directory holding INPUTS; returns
    each one's exit code, stdout and stderr, then every file that is not an
    unchanged input."""
    record = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in INPUTS.items():
            (root / name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for command in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(shlex.split(command))
                record.append([command, code, out.getvalue(), err.getvalue()])
        finally:
            os.chdir(cwd)
        for path in sorted(root.rglob("*")):
            name = path.relative_to(root).as_posix()
            if path.is_file() and INPUTS.get(name) != path.read_text(encoding="utf-8"):
                record.append([name, path.read_text(encoding="utf-8")])
    return _sha(json.dumps(record))


def cli_entries():
    saved = os.environ.pop(cli.ENV_OUT_DIR, None)
    try:
        return {f"cli {name}": _cli_run(commands) for name, commands in CLI_RUNS.items()}
    finally:
        if saved is not None:
            os.environ[cli.ENV_OUT_DIR] = saved


# ---------------------------------------------------------------- the library

_ALPHAS = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0)
_README_END = (math.cos(1.2), math.sin(1.2))
_PIN_CONTROLS = [[1, 0, 0, 0], [0.8, 0.6, 0, 0], [0.6, 0, -0.8, 0],
                 [0.36, 0.48, 0.64, 0.48], [0, 0, 0.6, 0.8]]


def _pin_spec(degree):
    return QiCurveSpec.from_dict({"p0": [0.5, -1, 2], "v0": [0, 0.6, 0.8],
                                  "controls": _PIN_CONTROLS[: degree + 1], "s_total": 3.7})


def _circle_spec():
    controls = (UnitQuaternion(1.0, 0.0, 0.0, 0.0), q_exp((0.0, 0.0, math.pi / 2.0)),
                q_exp((0.0, 0.0, math.pi)))
    return QiCurveSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), QuaternionCurve(controls), math.tau)


def _member_end(alpha, lam):
    """0.9 of the domain end for alpha < 0, else the arc length of a
    turning of min(3, 0.9 of the turning limit)."""
    if alpha < 0.0:
        return 0.9 * NaturalEquation(alpha, lam).s_max_domain
    return arc_length_for_turning(alpha, lam, min(3.0, 0.9 * turning_limit(alpha, lam)))


def _fit(alpha, end=(0.7, 0.72), t_end=_README_END, start=(0.0, 0.0), t_start=(1.0, 0.0)):
    seg = fit_g1(HermiteProblem(start, end, t_start, t_end, alpha))
    t = seg.transform
    return _hex(seg.equation.lam, seg.residual, t.scale, seg.s_total, t.rotation)


def _recorded_integral(columns, a, b, breaks=()):
    """The panel loop on fixed columns: each result's float.hex (value, error
    estimate, panels), or the exception's sha256; the sha256 of every node
    list it evaluated."""
    seen = []

    def f(xs):
        seen.append(_hex(*xs))
        return [list(map(g, xs)) for g in columns]

    try:
        results = _integrate_components(f, a, b, 1e-12, breaks)
        got = [v for r in results for v in _hex(r.value, r.error_estimate, r.subdivisions)]
    except ArithmeticError as exc:
        got = [_sha(f"{type(exc).__name__}: {exc}")]
    return [*got, _sha(json.dumps(seen))]


def _stress(pairs):
    m = stress_marker(pairs)
    return _hex(m.s_at_max_kappa, m.kappa_max, m.s_at_max_kappa_slope)


def _lcg(data):
    r = lcg_from_samples(data)
    return [*_hex(r.slope, r.intercept, r.rms_residual, r.dropped), _sha(repr(r.points))]


def library_entries():
    e = {}
    for alpha, lam in ((-1.0, 0.3), (0.0, 0.3), (0.5, 0.3), (1.0, 0.3), (2.0, 0.3),
                       (-3.0, 0.2), (10.0, 0.3)):
        e[f"chord_angle({alpha}, {lam}, 1.2)"] = chord_angle(alpha, lam, 1.2).hex()
    # at the alpha < 1 reach, where the chord integral is least accurate
    e["chord_angle near the reach"] = _hex(
        chord_angle(0.28912019377595755, 0.8818720611829656, 1.5951379016681944),
        chord_angle(0.0, 1.99999998, 0.5))

    for alpha in (-1.0, 0.0, 1.0, 2.0, 0.5):
        e[f"fit_g1 README problem alpha {alpha}: lam, residual, scale, s_total, rotation"] = (
            _fit(alpha))
    for alpha, psi in ((-3.0, 0.65), (10.0, 0.62)):
        e[f"fit_g1 alpha {alpha}, chord at {psi} rad"] = _fit(
            alpha, end=(math.cos(psi), math.sin(psi)))
    e["fit_g1 mirrored README problem alpha 0.5"] = _fit(
        0.5, end=(0.7, -0.72), t_end=(math.cos(1.2), -math.sin(1.2)))
    e["fit_g1 posed problem alpha 2"] = _fit(
        2.0, start=(3.0, -1.0), end=(1.6, 0.5), t_start=(0.0, 1.0),
        t_end=(math.cos(2.9), math.sin(2.9)))
    e["fit_g1 outside the region"] = _or_raised(lambda: _fit(0.5, end=(1.0, 0.0)))
    # a target on the region's edge: the root-find returns its bracket end
    psi = drawable_region(0.5, 1.2).boundary_samples[-1][1]
    e["fit_g1 alpha 0.5 on the region's edge"] = _fit(0.5, end=(math.cos(psi), math.sin(psi)))

    for alpha in (-1.0, 0.0, 0.5, 2.0):
        rows = drawable_region(alpha, 1.2).boundary_samples
        picked = list(range(0, len(rows) - 1, 16)) + [len(rows) - 1]
        e[f"drawable_region({alpha}, 1.2)"] = _sha(repr(_rows(rows, range(len(rows)))))
        e[f"drawable_region({alpha}, 1.2) rows {picked}"] = _rows(rows, picked)
    for alpha, dth in ((1.0, 1.2), (10.0, 1.5), (0.5, 1.0), (-1.0, 1.5)):
        rows = drawable_region(alpha, dth).boundary_samples
        e[f"drawable_region({alpha}, {dth})"] = _sha(repr(_rows(rows, range(len(rows)))))

    for alpha, lam, s in ((0.5, 1.0, 0.3), (0.5, 1.0, 2.0), (0.5, 1.0, 10.0),
                          (2.0, 3.0, 0.1), (2.0, 3.0, 1.0), (2.0, 3.0, 5.0)):
        e[f"evaluate_point({alpha}, {lam}, {s})"] = _hex(
            *evaluate_point(NaturalEquation(alpha, lam), s))
    for alpha in _ALPHAS:
        end = _member_end(alpha, 0.3)
        ss = (0.01 * end, 0.5 * end, end)
        e[f"evaluate_point({alpha}, 0.3, s) at 1%, 50% and 100% of its end"] = [
            v for s in ss for v in _hex(*evaluate_point(NaturalEquation(alpha, 0.3), s))]
    e["evaluate_point(1.0, 1e-3, 1e6)"] = _hex(*evaluate_point(NaturalEquation(1.0, 1e-3), 1e6))

    for s in (1.0, 2.5, math.tau):
        e[f"qi_point(circle, {s})"] = _hex(*qi_point(_circle_spec(), s))
    for degree in (1, 2, 3, 4):
        e[f"qi_point(pinned degree {degree}) at s = 0.5, 1.7, 3, 3.7"] = [
            v for s in (0.5, 1.7, 3.0, 3.7) for v in _hex(*qi_point(_pin_spec(degree), s))]

    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
        curve = sample_curve(NaturalEquation(alpha, 0.3), 3.0, 41, Pose(0.5, -1.0, 0.25))
        e[f"sample_curve({alpha}, 0.3) 41 stations to 3, posed"] = _sha(export_csv(curve))
        e[f"sample_curve({alpha}, 0.3) 41 stations to 3, posed, rows 0, 20, 40"] = _rows(
            curve.samples, (0, 20, 40))
    for degree in (1, 2, 3, 4):
        rows = sample_qi(_pin_spec(degree), 41)
        e[f"sample_qi(pinned degree {degree}, 41)"] = _sha(export_csv(rows))
        e[f"sample_qi(pinned degree {degree}, 41) rows 0, 20, 40"] = _rows(rows, (0, 20, 40))
    # stations on every piece end, and every uniform station the sweep can split at
    curve = sample_curve(NaturalEquation(0.5, 0.003), 100.0, 2049)
    e["sample_curve(0.5, 0.003) 2049 stations to 100"] = _sha(export_csv(curve))
    spec = _pin_spec(4)
    spec = QiCurveSpec((-0.0, 0.0, -0.0), spec.v0, spec.qcurve, spec.s_total)
    e["sample_qi(pinned degree 4 from (-0.0, 0.0, -0.0), 257)"] = _sha(export_csv(
        sample_qi(spec, 257)))
    # the last station an ulp past the domain end; up to the domain end; alpha
    # that snaps to 0 or 1; odd alphas; poses with signed zeros
    guard = _DOMAIN_GUARD
    for alpha, lam, s_end, count, pose in (
            (-1.0, 0.5, guard * 2.0, 6, Pose(-0.0, -0.0, 0.3)),
            (-3.0, 2.0, guard / 6.0, 2000, Pose(-0.0, 1.0, -2.5)),
            (1e-13, 3.0, 0.7 * 50.0 / 3.0, 37, Pose(-0.0, -0.0, 1.0)),
            (1.0 - 1e-13, 3.0, 0.7 * 50.0 / 3.0, 37, Pose(-0.0, 2.0, -0.0)),
            (0.3, 0.7, 4.0, 101, Pose(1.5, -0.0, 2.2)),
            (2.7, 1.3, 9.0, 101, Pose(-3.0, 0.25, -1.1)),
            (-0.7, 0.9, 1.5, 101, Pose(0.0, 0.0, 3.0)),
            (0.5, 1.0, 0.0, 2, Pose())):
        e[f"sample_curve({alpha}, {lam}) {count} stations to {s_end}, {pose}"] = (
            _or_raised(lambda: _sha(export_csv(sample_curve(NaturalEquation(alpha, lam), s_end,
                                                            count, pose)))))
    # the cross-interpreter set: 24 members and four space curves, 500 stations
    for alpha in _ALPHAS:
        for lam in (0.01, 0.3, 3.0):
            curve = sample_curve(NaturalEquation(alpha, lam), _member_end(alpha, lam), 500)
            e[f"sample_curve({alpha}, {lam}) 500 stations"] = _sha(export_csv(curve))
    for degree in (1, 2, 3, 4):
        e[f"sample_qi(pinned degree {degree}, 500)"] = _sha(export_csv(sample_qi(
            _pin_spec(degree), 500)))

    for alpha, lam, n in ((-1.0, 1.0, 200), (0.5, 1.0, 20), (2.0, 0.5, 100), (10.0, 0.3, 50)):
        curve = sample_curve(NaturalEquation(alpha, lam), _member_end(alpha, lam), n)
        e[f"lcg_from_samples({alpha}, {lam}, {n} stations): slope, intercept, rms, dropped"] = (
            _lcg(curve))
        e[f"stress_marker({alpha}, {lam}, {n} stations)"] = _stress(curve)
        e[f"check_monotone({alpha}, {lam}, {n} stations)"] = _sha(repr(check_monotone(curve)))
    for alpha in (-1.0, 0.5, 1.0):
        r = lcg_analytic(NaturalEquation(alpha, 1.0), (0.0, 0.9), 30)
        e[f"lcg_analytic({alpha}, 1.0, [0, 0.9], 30)"] = _hex(r.slope, r.intercept,
                                                            r.rms_residual)
    gap = [(0.0, 1.0), (5e-324, 0.9), (1.0, 0.5)]
    e["lcg_from_samples with a subnormal gap"] = _or_raised(lambda: _lcg(gap))
    e["stress_marker with a subnormal gap"] = _or_raised(lambda: _stress(gap))
    e["check_monotone non-monotone"] = _sha(repr(check_monotone(
        [(0.0, 1.0), (0.5, 2.0), (1.0, 0.5), (1.5, 3.0)])))

    e.update(_render_entries())

    # the panel loop: one panel; two columns cut at a break; a pole; a column
    # that turns nan; the depth limit; columns with different errors on an
    # interval that does not halve exactly; relative targets
    e["panel loop: -0.0 on [0, 1]"] = _recorded_integral([lambda x: -0.0], 0.0, 1.0)
    e["panel loop: 0 and sin(30x + 1) on [-1, 2], break 0.5"] = _recorded_integral(
        [lambda x: 0.0, lambda x: math.sin(30.0 * x + 1.0)], -1.0, 2.0, (0.5,))
    e["panel loop: 1 / (x - 0.3) on [0, 1]"] = _recorded_integral(
        [lambda x: 1.0 / (x - 0.3) if x != 0.3 else math.inf], 0.0, 1.0)
    e["panel loop: sin, then nan past 0.7, on [0, 1], break 0.25"] = _recorded_integral(
        [math.sin, lambda x: math.nan if x > 0.7 else 1.0], 0.0, 1.0, (0.25,))
    e["panel loop: x^-0.5 on [0, 1]"] = _recorded_integral([lambda x: x**-0.5], 0.0, 1.0)
    e["panel loop: 1 / (1 + 100 x^2) and cos x on [-0.3, 2.1], break 0.7"] = (
        _recorded_integral([lambda x: 1.0 / (1.0 + 100.0 * x * x), math.cos], -0.3, 2.1, (0.7,)))
    e["integrate(exp(x) sin 3x, 0, 20)"] = _hex(
        *integrate(lambda x: math.exp(x) * math.sin(3.0 * x), 0.0, 20.0))
    r = integrate(lambda x: math.exp(-x * x) * math.cos(5.0 * x), -1.0, 2.0)
    e["integrate(exp(-x^2) cos 5x, -1, 2)"] = _hex(*r)
    rx, ry = integrate_vector2(lambda t: math.cos(t * t), lambda t: math.sin(t * t), 0.0, 3.0)
    e["integrate_vector2(cos t^2, sin t^2, 0, 3)"] = _hex(*rx, *ry)
    return e


def _path(*rows):
    return SampledCurve(None, tuple(CurveSample(*row) for row in rows), Pose())


def _random_path(rng):
    ss = sorted(rng.uniform(1e-3, 10.0) for _ in range(rng.randrange(1, 7)))
    return _path(*((s, rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3), rng.uniform(-7.0, 7.0),
                    rng.uniform(1e-2, 3.0)) for s in [0.0, *ss]))


def _render_entries():
    member = sample_curve(NaturalEquation(0.0, 1.0), 1.8, 30)
    odd = _path((0.0, -0.0, 5e-324, -0.0, 1.0), (0.5, 1e3, -2.2250738585072014e-308, 1.0, 2.0),
                (2.0, -3.5, 7.25, -0.0, 0.5))
    straight = _path(*((i / 3.0, i / 3.0, 0.0, 0.0, 1.0) for i in range(4)))
    plots = {
        "member, widths 0.5 and 2, axes, markers": PlotSpec(
            (member,), (640, 480), 13.7, (0.5, 2), ((0, stress_marker(member)),), True),
        "signed zeros and subnormals, integer sizes": PlotSpec(
            (odd, straight), (801, 599.5), 0, (1, 3), ((1, stress_marker(straight)),), True),
        "a marker before the start, axes": PlotSpec(
            (straight,), annotations=((0, StressMarker(-1.0, 1.0, -0.0)),), axes=True),
        "a path of zero extent, axes": PlotSpec((_path((0.0, 1.0, 2.0, 0.0, 1.0),
                                                      (1.0, 1.0, 2.0, 0.0, 1.0)),), axes=True),
        "axes far from a tiny path": PlotSpec(
            (_path((0.0, 500.0, 0.0, 0.0, 1.0), (1.0, 500.0, 1e-304, 0.0, 0.5)),), axes=True),
    }
    ornaments = {
        "circles": OrnamentSpec(member, "circle", 5, 0.1, rhythm=(1, 2.5),
                                palette=("red", "#0f0")),
        "squares by curvature": OrnamentSpec(
            member, "square", 8, 0.02, "proportional_to_radius_of_curvature", size=(300, 200)),
        "triangles, one station": OrnamentSpec(odd, "triangle", 1, 3.0, margin=10.5),
        "triangles on signed zeros": OrnamentSpec(odd, "triangle", 4, 0.5, rhythm=(1, 2, 3)),
    }
    rng = random.Random(2024)  # random() draws the same numbers on every version
    for seed in range(3):
        paths = [_random_path(rng) for _ in range(2)]
        marker = StressMarker(rng.uniform(-1.0, 11.0), 1.0, rng.uniform(-1.0, 11.0))
        size = (rng.uniform(100.0, 2000.0), rng.uniform(100.0, 2000.0))
        margin = rng.uniform(0.0, 60.0)
        plots[f"random draw {seed}"] = PlotSpec(paths, size, margin, (2, 0.5, 1),
                                                ((1, marker),), True)
        ornaments[f"random draw {seed}"] = OrnamentSpec(
            paths[0], ("circle", "square", "triangle")[seed], rng.randrange(1, 12),
            rng.uniform(1e-3, 5.0), "proportional_to_radius_of_curvature",
            (rng.uniform(0.1, 3.0), 2), ("#a0a0a0", "red"), size, margin)
    e = {f"plot_svg {name}": _or_raised(lambda: _sha(plot_svg(spec)))
         for name, spec in plots.items()}
    e.update({f"ornament_svg {name}": _or_raised(lambda: _sha(ornament_svg(spec)))
              for name, spec in ornaments.items()})
    return e


def ledger():
    return {**cli_entries(), **library_entries()}


def differences(want, got):
    """One line per entry that differs, is missing or is extra."""
    lines = [f"differs: {k}\n  ledger {want[k]}\n  now    {got[k]}"
             for k in want if k in got and want[k] != got[k]]
    lines += [f"missing: {k}" for k in want if k not in got]
    lines += [f"extra: {k}" for k in got if k not in want]
    return lines


def test_outputs_match_the_ledger():
    want = json.loads(LEDGER.read_text(encoding="utf-8"))
    lines = differences(want, ledger())
    assert not lines, "\n".join(lines)


def main(argv):
    got = ledger()
    if argv == ["--write"]:
        LEDGER.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} entries to {LEDGER}")
        return 0
    if argv:
        print("usage: test_ledger.py [--write]", file=sys.stderr)
        return 2
    lines = differences(json.loads(LEDGER.read_text(encoding="utf-8")), got)
    print("\n".join(lines) or f"{len(got)} entries match {LEDGER.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
