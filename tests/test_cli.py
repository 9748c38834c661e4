"""End-to-end CLI tests, mostly through subprocess: exit codes, files,
determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvekit import cli
from curvekit._fmt import fmt
from curvekit.hermite import HermiteProblem, drawable_region, fit_g1
from curvekit.pseudospiral import CurveSample, Pose, SampledCurve
from curvekit.quadrature import _MAX_STATIONS, _stations
from curvekit.render import export_csv


SUBCOMMANDS = ("curve", "lcg", "fit", "region", "qi", "ornament", "check", "plot")


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "curvekit.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def write_circle_csv(path, kappa=2.0, n=50):
    r = 1.0 / kappa
    samples = tuple(
        CurveSample(
            i * 0.05,
            r * math.sin(i * 0.05 * kappa),
            r - r * math.cos(i * 0.05 * kappa),
            i * 0.05 * kappa,
            kappa,
        )
        for i in range(n)
    )
    path.write_text(export_csv(SampledCurve(None, samples, Pose())))


def write_sine_kappa_csv(path):
    samples = tuple(
        CurveSample(0.05 * i, 0.05 * i, 0.0, 0.0, 1.0 + math.sin(0.05 * i))
        for i in range(63)
    )
    path.write_text(export_csv(SampledCurve(None, samples, Pose())))


# ------------------------------------------------------------ help and args


def test_help_exits_zero_everywhere(tmp_path):
    r = run_cli(["--help"], tmp_path)
    assert r.returncode == 0
    assert "curvekit" in r.stdout
    for sub in SUBCOMMANDS:
        r = run_cli([sub, "--help"], tmp_path)
        assert r.returncode == 0, (sub, r.stderr)
        assert "--" in r.stdout


def test_usage_and_help_do_not_depend_on_the_terminal_width(tmp_path):
    # argparse wraps at COLUMNS by default; the parser wraps at a fixed 78
    for args in (["curve", "--bogus"], ["fit", "--help"]):
        narrow, wide = (run_cli(args, tmp_path, {"COLUMNS": c}) for c in ("40", "200"))
        assert (narrow.returncode, narrow.stdout, narrow.stderr) == (
            wide.returncode, wide.stdout, wide.stderr), args
    assert narrow.stdout.splitlines()[0] == (
        "usage: curvekit fit [-h] --start START --end END --start-angle START_ANGLE")


def test_unknown_subcommand_exits_one(tmp_path):
    r = run_cli(["frobnicate"], tmp_path)
    assert r.returncode == 1
    assert "invalid choice: 'frobnicate'" in r.stderr


def test_bad_numeric_argument_exits_one(tmp_path):
    r = run_cli(["curve", "--named", "euler", "--lambda", "abc"], tmp_path)
    assert r.returncode == 1
    assert "invalid float value: 'abc'" in r.stderr


def test_missing_lambda_exits_one(tmp_path):
    r = run_cli(["curve", "--named", "euler"], tmp_path)
    assert r.returncode == 1
    assert "lambda" in r.stderr.lower()


def test_conflicting_family_args_exit_one(tmp_path):
    r = run_cli(
        ["curve", "--named", "euler", "--alpha", "2", "--lambda", "1"], tmp_path
    )
    assert r.returncode == 1
    assert "give either --named or --alpha, not both" in r.stderr


# ------------------------------------------------------------ curve


def test_curve_writes_csv_with_summary(tmp_path):
    r = run_cli(
        ["curve", "--named", "euler", "--lambda", "1", "--s-end", "0.9",
         "--n", "500", "--out", "euler.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    text = (tmp_path / "euler.csv").read_text()
    lines = [ln for ln in text.split("\n") if ln]
    assert lines[0] == "s,x,y,theta,kappa"
    assert len(lines) == 501
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[4] == 1.0
    assert last[4] == pytest.approx(0.1, abs=1e-12)
    assert "samples = 500" in r.stdout
    assert "kappa" in r.stdout


def test_curve_bounded_turning_in_summary(tmp_path):
    r = run_cli(
        ["curve", "--alpha", "0", "--lambda", "2", "--s-end", "10",
         "--out", "n.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    m = re.search(r"theta_total = (\S+)", r.stdout)
    assert m is not None
    assert float(m.group(1)) < 0.5


def test_curve_domain_violation_exits_two(tmp_path):
    r = run_cli(
        ["curve", "--named", "euler", "--lambda", "1", "--s-end", "1.5"], tmp_path
    )
    assert r.returncode == 2
    assert "s_max_domain" in r.stderr
    assert not (tmp_path / "curve.csv").exists()


def test_curve_optional_svg(tmp_path):
    r = run_cli(
        ["curve", "--alpha", "2", "--lambda", "1", "--s-end", "2",
         "--n", "50", "--out", "c.csv", "--svg", "c.svg"],
        tmp_path,
    )
    assert r.returncode == 0
    svg = (tmp_path / "c.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<path ") == 1


# ------------------------------------------------------------ lcg


def test_lcg_family_json_slope(tmp_path):
    r = run_cli(
        ["lcg", "--alpha", "2", "--lambda", "1", "--s-end", "3", "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["slope"] == pytest.approx(2.0, abs=1e-6)
    assert payload["rms_residual"] < 1e-9


def test_lcg_circle_csv_exits_three(tmp_path):
    write_circle_csv(tmp_path / "circle.csv")
    r = run_cli(["lcg", "--in", "circle.csv"], tmp_path)
    assert r.returncode == 3
    assert r.stderr.strip() != ""


def test_lcg_csv_input_recovers_slope(tmp_path):
    r = run_cli(
        ["curve", "--alpha", "1", "--lambda", "1", "--s-end", "4",
         "--n", "2000", "--out", "log.csv"],
        tmp_path,
    )
    assert r.returncode == 0
    r = run_cli(["lcg", "--in", "log.csv", "--json"], tmp_path)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["slope"] == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------------ fit


def fit_args(alpha, delta_theta, psi, extra=()):
    end = (math.cos(psi), math.sin(psi))
    return [
        "fit",
        "--start", "0,0",
        "--end", f"{end[0]},{end[1]}",
        "--start-angle", "0",
        "--end-angle", str(delta_theta),
        "--alpha", str(alpha),
        *extra,
    ]


def test_fit_solvable_case_json(tmp_path):
    r = run_cli(fit_args(1.0, 1.2, 0.75, ("--json",)), tmp_path)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["residual"] < 1e-10
    assert payload["equation"]["alpha"] == 1.0
    assert payload["equation"]["lambda"] > 0.0
    assert payload["s_total"] > 0.0


def test_fit_no_solution_exits_four_with_bounds(tmp_path):
    r = run_cli(fit_args(-1.0, 1.2, 0.3, ("--out", "seg.json")), tmp_path)
    assert r.returncode == 4
    assert "drawable region" in r.stderr
    assert "psi" in r.stderr
    assert not (tmp_path / "seg.json").exists()


def test_fit_scale_underflow_exits_four(tmp_path):
    # alpha = 1, lambda = 800, turning 1 at the member's own chord angle
    r = run_cli(fit_args(1.0, 1.0, 0.998750000651041, ("--out", "seg.json")), tmp_path)
    assert r.returncode == 4, r.stderr
    assert "no solution: the fitted member's scale underflows double precision" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "seg.json").exists()


def test_fit_zero_turning_exits_one(tmp_path):
    r = run_cli(
        ["fit", "--start", "0,0", "--end", "1,0", "--start-angle", "0.5",
         "--end-angle", "0.5", "--alpha", "1"],
        tmp_path,
    )
    assert r.returncode == 1
    assert "tangents are parallel" in r.stderr


def test_fit_writes_svg(tmp_path):
    r = run_cli(fit_args(0.5, 1.0, 0.7, ("--svg", "seg.svg")), tmp_path)
    assert r.returncode == 0, r.stderr
    svg = (tmp_path / "seg.svg").read_text()
    assert svg.count("<path ") == 1


# ------------------------------------------------------------ region


def test_region_writes_scan_csv(tmp_path):
    r = run_cli(
        ["region", "--alpha", "1", "--delta-theta", "1.5707963",
         "--out", "reg.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "reg.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda,psi"
    assert len(lines) == 98
    assert "psi_min" in r.stdout and "psi_max" in r.stdout


def test_region_empty_exits_four(tmp_path):
    r = run_cli(
        ["region", "--alpha", "0", "--delta-theta", "2",
         "--lambda-min", "1", "--lambda-max", "10"],
        tmp_path,
    )
    assert r.returncode == 4
    assert r.stderr.strip() != ""
    assert not (tmp_path / "region.csv").exists()


# ------------------------------------------------------------ qi


def test_qi_identity_controls_straight_line(tmp_path):
    r = run_cli(
        ["qi", "--controls", "1,0,0,0", "--p0", "0,0,0", "--v0", "0,0,1",
         "--s-total", "5", "--n", "6", "--out", "line.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "line.csv").read_text().strip().split("\n")
    assert lines[0] == "s,x,y,z,tx,ty,tz"
    assert len(lines) == 7
    for ln in lines[1:]:
        s, x, y, z, tx, ty, tz = (float(v) for v in ln.split(","))
        assert (x, y) == (0.0, 0.0)
        assert z == pytest.approx(s, abs=1e-12)
        assert (tx, ty, tz) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)


def test_qi_spec_file_circle_closes(tmp_path):
    half = math.pi / 2.0
    spec = {
        "p0": [0.0, 0.0, 0.0],
        "v0": [1.0, 0.0, 0.0],
        "controls": [
            [1.0, 0.0, 0.0, 0.0],
            [math.cos(half), 0.0, 0.0, math.sin(half)],
            [math.cos(math.pi), 0.0, 0.0, math.sin(math.pi)],
        ],
        "s_total": math.tau,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    r = run_cli(
        ["qi", "--spec", "spec.json", "--n", "9", "--out", "circ.csv"], tmp_path
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "circ.csv").read_text().strip().split("\n")
    end = [float(v) for v in lines[-1].split(",")]
    assert math.hypot(end[1], end[2], end[3]) < 1e-9


def test_qi_requires_controls_or_spec(tmp_path):
    r = run_cli(["qi", "--n", "4"], tmp_path)
    assert r.returncode == 1
    assert "either --spec or --controls is required" in r.stderr


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"p0": [0, 0, 0], "v0": [1, 0, 0], "s_total": 1}', "no 'controls' key"),
        ("[[1, 0, 0, 0]]", "JSON object"),
        ('{"p0": [0, 0, 0], "v0": [1, 0, 0], "controls": [[1, 0, 0]], "s_total": 1}',
         "4 numbers"),
    ],
    ids=["no-controls", "list", "three-numbers"],
)
def test_qi_malformed_spec_exits_1_without_traceback(tmp_path, spec, message):
    (tmp_path / "spec.json").write_text(spec)
    r = run_cli(["qi", "--spec", "spec.json", "--n", "4"], tmp_path)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr


# ------------------------------------------------------------ check


def test_check_family_reports_decreasing(tmp_path):
    r = run_cli(
        ["check", "--named", "involute", "--lambda", "1", "--s-end", "3",
         "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["is_monotone"] is True
    assert payload["direction"] == "decreasing"
    assert payload["violations"] == []


def test_check_non_monotone_csv(tmp_path):
    write_sine_kappa_csv(tmp_path / "sine.csv")
    r = run_cli(["check", "--in", "sine.csv", "--json"], tmp_path)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["is_monotone"] is False
    assert payload["direction"] == "non-monotone"
    assert len(payload["violations"]) > 0


# ------------------------------------------------------------ ornament / plot


def test_ornament_cli_station_count(tmp_path):
    r = run_cli(
        ["ornament", "--named", "euler", "--lambda", "0.5", "--s-end", "1.8",
         "--count", "12", "--out", "orn.svg"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    svg = (tmp_path / "orn.svg").read_text()
    assert svg.count("<circle ") == 12


def test_plot_multiple_inputs_and_widths(tmp_path):
    for name, alpha in (("a.csv", "0"), ("b.csv", "2")):
        r = run_cli(
            ["curve", "--alpha", alpha, "--lambda", "1", "--s-end", "2",
             "--n", "40", "--out", name],
            tmp_path,
        )
        assert r.returncode == 0
    r = run_cli(
        ["plot", "--in", "a.csv", "--in", "b.csv", "--widths", "1,2",
         "--out", "both.svg"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    svg = (tmp_path / "both.svg").read_text()
    assert svg.count("<path ") == 4


def test_plot_annotate_draws_markers(tmp_path):
    r = run_cli(
        ["plot", "--named", "euler", "--lambda", "0.5", "--s-end", "1.8",
         "--n", "200", "--annotate", "--out", "ann.svg"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    svg = (tmp_path / "ann.svg").read_text()
    assert 'stroke="#c43b3b"' in svg
    assert 'stroke="#3b5fc4"' in svg


# ------------------------------------------------------------ determinism


def test_reruns_byte_identical(tmp_path):
    pairs = (
        (["curve", "--alpha", "0.5", "--lambda", "1.3", "--s-end", "2",
          "--n", "100", "--out", "{}"], "csv"),
        (fit_args(1.0, 1.2, 0.75, ("--out", "{}")), "json"),
        (["region", "--alpha", "1", "--delta-theta", "1", "--out", "{}"], "csv"),
        (["ornament", "--alpha", "2", "--lambda", "1", "--s-end", "2",
          "--count", "7", "--out", "{}"], "svg"),
    )
    for args, ext in pairs:
        outs = []
        for tag in ("one", "two"):
            name = f"{tag}.{ext}"
            cmd = [a.replace("{}", name) for a in args]
            r = run_cli(cmd, tmp_path)
            assert r.returncode == 0, (cmd, r.stderr)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1], args


# ------------------------------------------------------------ config and env


def test_config_file_defaults(tmp_path):
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    cfg = tmp_path / "ck.cfg"
    cfg.write_text(
        "# defaults for this project\n"
        "samples = 7\n"
        f"out_dir = {out_dir}\n"
    )
    r = run_cli(
        ["--config", "ck.cfg", "curve", "--alpha", "1", "--lambda", "1",
         "--s-end", "2", "--out", "c.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    text = (out_dir / "c.csv").read_text()
    assert len(text.strip().split("\n")) == 8
    assert not (tmp_path / "c.csv").exists()


def test_env_out_dir_overrides_config(tmp_path):
    cfg_dir = tmp_path / "cfgdir"
    env_dir = tmp_path / "envdir"
    cfg_dir.mkdir()
    env_dir.mkdir()
    cfg = tmp_path / "ck.cfg"
    cfg.write_text(f"out_dir = {cfg_dir}\n")
    r = run_cli(
        ["--config", "ck.cfg", "curve", "--alpha", "1", "--lambda", "1",
         "--s-end", "1", "--n", "5", "--out", "c.csv"],
        tmp_path,
        env_extra={"CURVEKIT_OUT_DIR": str(env_dir)},
    )
    assert r.returncode == 0, r.stderr
    assert (env_dir / "c.csv").exists()
    assert not (cfg_dir / "c.csv").exists()


def test_config_unknown_key_exits_one(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    r = run_cli(
        ["--config", "bad.cfg", "curve", "--alpha", "1", "--lambda", "1"],
        tmp_path,
    )
    assert r.returncode == 1
    assert "volume" in r.stderr


@pytest.mark.parametrize("line, want", [
    ("samples = abc", "samples: invalid literal for int() with base 10: 'abc'"),
    ("tol = 1e-3.5", "tol: could not convert string to float: '1e-3.5'"),
])
def test_config_bad_value_names_file_and_line(tmp_path, monkeypatch, capsys, line, want):
    # the conversion error was printed alone, without the file or line
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    (tmp_path / "bad.cfg").write_text(f"# comment\n\n{line}\n")
    code, out, err = run_in_process(
        ["--config", "bad.cfg", "curve", "--alpha", "1", "--lambda", "1", "--out", "c.csv"],
        tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: bad.cfg:3: {want}\n"
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("row, want", [
    ("0.2,abc,0,0,1", "line 4: could not convert string to float: 'abc'"),
    ("0.2,0,0,1", "line 4: row width 4 does not match header"),
])
def test_a_bad_in_row_names_its_line(tmp_path, monkeypatch, capsys, row, want):
    # the line was not named; the blank line 3 counts
    (tmp_path / "c.csv").write_text(f"s,x,y,theta,kappa\n0,0,0,0,1\n\n{row}\n")
    code, out, err = run_in_process(["lcg", "--in", "c.csv"], tmp_path, monkeypatch, capsys)
    assert (code, out, err) == (1, "", f"error: c.csv: {want}\n")


def test_in_errors_name_their_file(tmp_path, monkeypatch, capsys):
    # neither the bad cell of the second --in file nor a byte that is not
    # UTF-8 said which file it was in
    good = "s,x,y,theta,kappa\n0,0,0,0,1\n0.1,0.1,0,0,0.5\n"
    (tmp_path / "a.csv").write_text(good)
    (tmp_path / "b.csv").write_text(good + "0.2,abc,0,0,1\n")
    (tmp_path / "c.csv").write_bytes(good.encode() + b"\xff\n")
    code, out, err = run_in_process(["plot", "--in", "a.csv", "--in", "b.csv", "--out", "p.svg"],
                                    tmp_path, monkeypatch, capsys)
    assert (code, out, err) == (1, "", "error: b.csv: line 4: could not convert string to float: "
                                       "'abc'\n")
    code, out, err = run_in_process(["lcg", "--in", "c.csv"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: c.csv: 'utf-8' codec can't decode byte 0xff")


def test_absolute_out_path_ignores_out_dir(tmp_path):
    target = tmp_path / "abs.csv"
    other = tmp_path / "elsewhere"
    other.mkdir()
    r = run_cli(
        ["curve", "--alpha", "1", "--lambda", "1", "--s-end", "1",
         "--n", "5", "--out", str(target)],
        tmp_path,
        env_extra={"CURVEKIT_OUT_DIR": str(other)},
    )
    assert r.returncode == 0, r.stderr
    assert target.exists()


# ------------------------------------------------------------ in-process runs


def run_in_process(args, cwd, monkeypatch, capsys):
    monkeypatch.chdir(cwd)
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_in_process_calls_match_fresh_runs(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; a usage error must leave
    # nothing behind for the calls after it
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    calls = (
        ["curve", "--alpha", "1", "--bogus"],
        ["curve", "--alpha", "0.5", "--lambda", "2", "--n", "9", "--out", "c.csv"],
        ["qi", "--controls", "1,0,0,0;0.8,0.6,0,0", "--n", "7", "--out", "q.csv"],
    )
    warm, fresh = tmp_path / "warm", tmp_path / "fresh"
    warm.mkdir()
    fresh.mkdir()
    for args in calls:
        got = run_in_process(args, warm, monkeypatch, capsys)
        r = run_cli(args, fresh)
        assert got == (r.returncode, r.stdout, r.stderr), args
    assert [p.name for p in sorted(warm.iterdir())] == ["c.csv", "q.csv"]
    for name in ("c.csv", "q.csv"):
        assert (warm / name).read_bytes() == (fresh / name).read_bytes()


def test_failed_write_names_the_requested_path(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    (tmp_path / "D").mkdir()
    args = ["curve", "--alpha", "1", "--lambda", "1", "--n", "5", "--out", "D"]
    runs = [run_in_process(args, tmp_path, monkeypatch, capsys) for _ in range(2)]
    runs.append(tuple(getattr(run_cli(args, tmp_path), k)
                      for k in ("returncode", "stdout", "stderr")))
    for code, out, err in runs:
        assert code == 1
        assert out == ""
        assert ".curvekit-" not in err
        assert "D" in err
    assert runs[0] == runs[1] == runs[2]
    assert os.listdir(tmp_path) == ["D"]
    assert os.listdir(tmp_path / "D") == []


def test_lcg_domain_error_names_the_requested_s_end(tmp_path):
    r = run_cli(["lcg", "--alpha", "-1", "--lambda", "1", "--s-end", "2"], tmp_path)
    assert r.returncode == 2
    assert "s = 2.0 exceeds the domain" in r.stderr


OVERFLOWING_CHORD = ["fit", "--start=0,-1e308", "--end=1e307,1e308", "--start-angle", "0.5",
                     "--end-angle", "2.3", "--alpha", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["curve", "--alpha", "0.5", "--lambda", "5e-324"],
        ["lcg", "--alpha", "0.5", "--lambda", "5e-324"],
        ["check", "--alpha", "0.5", "--lambda", "5e-324"],
        ["ornament", "--alpha", "0.5", "--lambda", "5e-324"],
        ["qi", "--controls", "1e300,0,0,0;0,0,0,1"],
        [*OVERFLOWING_CHORD, "--json"],
        [*OVERFLOWING_CHORD, "--svg", "f.svg"],
        ["region", "--alpha", "10", "--delta-theta", "0.1", "--lambda-max", "1e308"],
        ["region", "--alpha", "1.5", "--delta-theta", "3", "--lambda-max", "1e308"],
        pytest.param(["curve", "--alpha", "10", "--lambda", "1e308", "--n", "5"],
                     id="curve-lam-alpha-overflows"),
        pytest.param(["lcg", "--alpha", "10", "--lambda", "1e308"],
                     id="lcg-lam-alpha-overflows"),
        pytest.param(["curve", "--alpha", "-1e300", "--lambda", "1e10", "--n", "5"],
                     id="curve-negative-alpha-overflows"),
    ],
    ids=lambda args: args[0],
)
def test_extreme_parameters_exit_1_with_one_error_line(tmp_path, monkeypatch, capsys, args):
    # lam * alpha underflows to 0 (a ZeroDivisionError in the closed forms),
    # 1e300 ** 2 overflows (an OverflowError): both were tracebacks. The fit
    # chord's y overflows: --json exited 0 with "scale": null, fitted to a
    # chord angle of pi/2, and --svg said "samples must start at s = 0". At
    # lam = 1e308 the region's chord integrand overflowed: alpha = 10 wrote a
    # psi of 0 and exited 0, alpha = 1.5 said "math domain error". A member
    # whose lam * alpha overflows made curve exit 2 ("integrand component 0
    # is not finite") and lcg say kappa(0) was not finite; at alpha = -1e300
    # curve exited 2 with "s_max_domain = 0.0"
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


README_FIT = ["fit", "--start", "0,0", "--end", "0.7,0.72", "--start-angle", "0",
              "--end-angle", "1.2"]


def readme_problem(alpha):
    return HermiteProblem((0.0, 0.0), (0.7, 0.72), (1.0, 0.0),
                          (math.cos(1.2), math.sin(1.2)), alpha)


@pytest.mark.parametrize(
    "command, alpha, bounds",
    [
        ("region", 0.5, (1e-6, math.inf)),  # was one row, exit 0
        ("region", 2.0, (1e-6, math.inf)),  # was "integration bounds must be finite"
        ("fit", 2.0, (1e-6, math.inf)),  # was a numerical failure, exit 2
        ("region", 2.0, (-math.inf, 1e6)),
        ("fit", 2.0, (math.nan, 1e6)),
    ],
)
def test_non_finite_lambda_bounds_exit_1(tmp_path, monkeypatch, capsys, command, alpha, bounds):
    with pytest.raises(ValueError, match="lam_bounds"):
        if command == "region":
            drawable_region(alpha, 1.0, bounds)
        else:
            fit_g1(readme_problem(alpha), lam_bounds=bounds)
    # the CLI takes region's bounds as flags and fit's from a config file
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    (tmp_path / "ck.cfg").write_text(
        f"lambda_min = {bounds[0]!r}\nlambda_max = {bounds[1]!r}\n")
    if command == "region":
        args = ["region", "--alpha", repr(alpha), "--delta-theta", "1",
                f"--lambda-min={bounds[0]!r}", f"--lambda-max={bounds[1]!r}"]
    else:
        args = ["--config", "ck.cfg", *README_FIT, "--alpha", repr(alpha)]
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: lam_bounds") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["ck.cfg"]


@pytest.mark.parametrize("alpha", ["-3", "0", "0.5", "1", "2", "10"])
@pytest.mark.parametrize("command", ["fit", "region"])
def test_subnormal_lambda_min_exits_1(tmp_path, monkeypatch, capsys, command, alpha):
    # at alpha = 0.5 a ZeroDivisionError traceback, elsewhere exit 2 with
    # "integrand component 0 is not finite on [0.0, 5e-324]"
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    (tmp_path / "ck.cfg").write_text("lambda_min = 5e-324\n")
    if command == "fit":
        args = [*README_FIT, "--alpha", alpha, "--svg", "fit.svg"]
    else:
        args = ["region", "--alpha", alpha, "--delta-theta", "1.2", "--out", "r.csv"]
    code, out, err = run_in_process(["--config", "ck.cfg", *args], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: lam = 5e-324 is too small") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["ck.cfg"]


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_fit_rejects_tol_outside_zero_to_inf(tmp_path, monkeypatch, capsys, tol):
    # inf ended on the bracket end with exit 0; nan ignored the tolerance
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        fit_g1(readme_problem(2.0), tol=tol)
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    args = [*README_FIT, "--alpha", "2", "--tol", repr(tol)]
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert (code, out, err) == (1, "", "error: tol must be positive and finite\n")


def test_fit_accepts_a_subnormal_tol(tmp_path, monkeypatch, capsys):
    # exited 1 with "tol must be positive and finite": a hundredth of it,
    # the integrals' tolerance, underflowed to 0.0
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    args = [*README_FIT, "--alpha", "2", "--tol", "1e-323", "--json"]
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["residual"] <= 2.0**-52


def test_fit_that_does_not_converge_warns_and_exits_0(tmp_path, monkeypatch, capsys):
    # a --tol below the chord angle's rounding: the best segment is written,
    # with "converged": false and one warning line, and the exit code stays 0
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    seg = fit_g1(readme_problem(-1.0), tol=1e-20)
    assert not seg.converged
    args = [*README_FIT, "--alpha", "-1", "--tol", "1e-20", "--json"]
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["converged"], payload["residual"]) == (False, seg.residual)
    assert err == (f"warning: fit did not converge: residual {fmt(seg.residual)} "
                   "exceeds tol 9.9999999999999995e-21\n")
    # a converged fit says so and warns of nothing
    code, out, err = run_in_process([*README_FIT, "--alpha", "-1", "--json"], tmp_path,
                                    monkeypatch, capsys)
    assert (code, err, json.loads(out)["converged"]) == (0, "", True)


SUBNORMAL_EXTENT = {  # arc lengths of one or two least subnormals
    "curve": ["curve", "--alpha", "0.5", "--lambda", "1", "--s-end", "5e-324", "--out", "o.csv"],
    "curve-1e-323": ["curve", "--alpha", "0.5", "--lambda", "1", "--s-end", "1e-323",
                     "--out", "o.csv"],
    "check": ["check", "--alpha", "0.5", "--lambda", "1", "--s-end", "5e-324"],
    "plot": ["plot", "--alpha", "0.5", "--lambda", "1", "--s-end", "5e-324", "--out", "o.svg"],
    "ornament": ["ornament", "--alpha", "0.5", "--lambda", "1", "--s-end", "5e-324",
                 "--out", "o.svg"],
    "lcg": ["lcg", "--alpha", "0.5", "--lambda", "1", "--s-end", "5e-324"],
    "qi": ["qi", "--controls", "1,0,0,0;0,1,0,0", "--s-total", "5e-324", "--out", "o.csv"],
    "qi-1e-323": ["qi", "--controls", "1,0,0,0;0,1,0,0", "--s-total", "1e-323", "--n", "4",
                  "--out", "o.csv"],
}


@pytest.mark.parametrize("name", sorted(SUBNORMAL_EXTENT))
def test_subnormal_extent_exits_one_with_one_line(tmp_path, monkeypatch, capsys, name):
    # these divided by a zero half-width (a traceback), wrote repeated
    # arc lengths (qi, exit 0), named an internal invariant (curve at
    # 1e-323) or called the input degenerate (lcg, exit 3)
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    code, out, err = run_in_process(SUBNORMAL_EXTENT[name], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    want = r"error: \[0\.0, (5e-324|1e-323)\] is too short for \d+ stations\n"
    assert re.fullmatch(want, err), err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("end, count, argv", [
    ("inf", 1000, ["curve", "--alpha", "1", "--lambda", "1", "--s-end", "inf"]),
    ("1e+308", 3, ["curve", "--alpha", "1", "--lambda", "1", "--s-end", "1e308", "--n", "3"]),
    ("1e+308", 3, ["qi", "--controls", "1,0,0,0;0,1,0,0", "--s-total", "1e308", "--n", "3"]),
    ("inf", 1000, ["lcg", "--alpha", "0.5", "--lambda", "1", "--s-end", "inf"]),
], ids=["curve-inf", "curve-1e308", "qi-1e308", "lcg-inf"])
def test_a_grid_that_is_not_finite_exits_1_naming_its_range(
        tmp_path, monkeypatch, capsys, end, count, argv):
    # an infinite end was "too short", and a finite end whose grid overflows
    # was "arc length must be finite and >= 0, got inf"
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    code, out, err = run_in_process([*argv, "--out", "o.out"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: [0.0, {end}] gives no finite grid of {count} stations: "
                   f"the range and (b - a) * {count - 1} must be finite\n")
    assert os.listdir(tmp_path) == []


def test_region_grid_that_repeats_a_lambda_exits_1(tmp_path, monkeypatch, capsys):
    # distinct logs exp to one lambda: this exited 0 with 97 rows of only
    # two lambdas, 1 and 1.0000000000000002
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    args = ["region", "--alpha", "2", "--delta-theta", "1", "--lambda-min", "1",
            "--lambda-max", "1.0000000000000002", "--out", "r.csv"]
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == "error: [1.0, 1.0000000000000002] is too short for 97 distinct lambdas\n"
    assert os.listdir(tmp_path) == []


def rejects(args, tmp_path, monkeypatch, capsys):
    """The error line of a run that exits 1 with one line and no new file."""
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    before = sorted(os.listdir(tmp_path))
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(os.listdir(tmp_path)) == before
    return err


@pytest.mark.parametrize("args", [
    ["curve", "--alpha", "0.5", "--lambda", "1", "--n", "10000000000", "--out", "o.csv"],
    ["lcg", "--alpha", "0.5", "--lambda", "1", "--n", "10000000000", "--json"],
    ["qi", "--controls", "1,0,0,0;0,1,0,0", "--n", "10000000000", "--out", "o.csv"],
    ["region", "--alpha", "2", "--delta-theta", "1", "--points", "10000000000",
     "--out", "r.csv"],
    ["ornament", "--alpha", "0.5", "--lambda", "1", "--count", "10000000000",
     "--out", "o.svg"],
], ids=["curve", "lcg", "qi", "region", "ornament"])
def test_a_count_above_the_ceiling_exits_1_before_any_allocation(
        tmp_path, monkeypatch, capsys, args):
    # curve --n 10000000000 built the whole station list before any check
    # and died through a MemoryError traceback. The first check keeps the
    # runs below from building such a list should the ceiling ever go.
    with pytest.raises(ValueError, match=f"^count must be at most {_MAX_STATIONS}$"):
        _stations(0.0, 1.0, _MAX_STATIONS + 1)
    tracemalloc.start()
    try:
        err = rejects(args, tmp_path, monkeypatch, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == f"error: count must be at most {_MAX_STATIONS}\n"
    assert peak < 10_000_000  # bytes: no grid was built


@pytest.mark.parametrize("kappa", ["nan", "inf"])
@pytest.mark.parametrize("args", [
    ["plot", "--in", "k.csv", "--annotate", "--out", "o.svg"],  # a StopIteration traceback
    ["check", "--in", "k.csv"],  # exit 0, "decreasing" for nan and "constant" for inf
    ["plot", "--in", "k.csv", "--out", "o.svg"],  # wrote nan into the SVG
    ["ornament", "--in", "k.csv", "--count", "3", "--out", "o.svg"],
], ids=["plot-annotate", "check", "plot", "ornament"])
def test_non_finite_in_rows_exit_1(tmp_path, monkeypatch, capsys, args, kappa):
    rows = [f"{0.1 * i!r},{0.1 * i!r},0,0,{1.0 / (1 + i)!r}" for i in range(5)]
    rows[2] = rows[2].rsplit(",", 1)[0] + "," + kappa
    (tmp_path / "k.csv").write_text("\n".join(["s,x,y,theta,kappa", *rows]) + "\n")
    err = rejects(args, tmp_path, monkeypatch, capsys)
    assert err == "error: k.csv: samples must be finite\n"


@pytest.mark.parametrize("args", [
    ["plot", "--widths", "nan"],
    ["plot", "--widths", "1,inf"],
    ["plot", "--size", "infx600"],  # wrote 1,002 infs
    ["ornament", "--rhythm", "nan"],
    ["ornament", "--rhythm", "1,inf"],
    ["ornament", "--size-base", "inf"],
    ["ornament", "--palette", '"/><script>'],  # the file did not parse as XML
    ["ornament", "--palette", "#000000,&"],
], ids=["widths-nan", "widths-inf", "size-inf", "rhythm-nan", "rhythm-inf", "size-base-inf",
        "palette-markup", "palette-ampersand"])
def test_non_finite_or_unsafe_drawing_flags_exit_1(tmp_path, monkeypatch, capsys, args):
    family = ["--alpha", "0.5", "--lambda", "1", "--out", "o.svg"]
    err = rejects([*args, *family], tmp_path, monkeypatch, capsys)
    assert "finite" in err or "palette" in err


@pytest.mark.parametrize("args", [
    ["--count", "1", "--size-base", "1e308"],
    ["--rhythm", "1e308", "--size-base", "1e308"],
], ids=["size-base", "rhythm"])
def test_ornament_radius_overflow_exits_1(tmp_path, monkeypatch, capsys, args):
    # both exited 0 and wrote r="inf"
    argv = ["ornament", "--alpha", "0.5", "--lambda", "1", *args, "--out", "o.svg"]
    err = rejects(argv, tmp_path, monkeypatch, capsys)
    assert err.startswith("error: primitive radius inf ") and "size_base" in err


@pytest.mark.parametrize("command", ["plot", "ornament"])
def test_a_subnormal_path_extent_exits_1(tmp_path, monkeypatch, capsys, command):
    # plot exited 0 and wrote d="M nan nan L nan -inf"; ornament blamed size_base * rhythm
    (tmp_path / "t.csv").write_text("s,x,y,theta,kappa\n0,0,0,0,1\n1,0,5e-324,0,0.5\n")
    err = rejects([command, "--in", "t.csv", "--out", "o.svg"], tmp_path, monkeypatch, capsys)
    assert err == "error: path extent 0.0 x 5e-324 is too small to scale onto the canvas\n"


_GAP_ROWS = "s,x,y,theta,kappa\n0,0,0,0,1\n5e-324,0.1,0,0,0.9\n1,0.2,0,0,0.5\n"
_GAP_ERROR = "error: the slope over the arc-length gap [0.0, 5e-324] is not finite\n"


@pytest.mark.parametrize("args, rows, want", [
    (["lcg", "--in", "t.csv", "--json"], _GAP_ROWS, _GAP_ERROR),  # exit 0, "slope": null
    (["plot", "--in", "t.csv", "--annotate", "--out", "o.svg"], _GAP_ROWS, _GAP_ERROR),
    # exit 0, and the y axis drawn as "M -inf 0 L -inf 600"
    (["plot", "--in", "t.csv", "--axes", "--out", "o.svg"],
     "s,x,y,theta,kappa\n0,500,0,0,1\n1,500,1e-304,0,0.5\n",
     "error: the world origin maps to (-inf, 560.0) on the canvas: "
     "the path is too small for its distance from the origin\n"),
], ids=["lcg-slope", "plot-annotate-slope", "plot-axes"])
def test_an_overflowing_slope_or_axis_exits_1(tmp_path, monkeypatch, capsys, args, rows, want):
    (tmp_path / "t.csv").write_text(rows)
    assert rejects(args, tmp_path, monkeypatch, capsys) == want


@pytest.mark.parametrize("size", ["800", "x600", "800x600x1", "800,600", "wx600"])
def test_bad_size_names_the_flag(tmp_path, monkeypatch, capsys, size):
    # "800" said "could not convert string to float: ''"
    args = ["plot", "--alpha", "0.5", "--lambda", "1", "--size", size, "--out", "o.svg"]
    err = rejects(args, tmp_path, monkeypatch, capsys)
    assert err.startswith("error: --size ") and repr(size) in err


# setting -> (its flag, values to draw); lambda_min stays below lambda_max
PRECEDENCE = {
    "samples": ("--n", st.integers(2, 40)),
    "lambda_min": ("--lambda-min", st.floats(1e-4, 1.0)),
    "lambda_max": ("--lambda-max", st.floats(10.0, 1e4)),
    "tol": ("--tol", st.floats(1e-9, 1e-4)),
}


@settings(max_examples=30, deadline=None)
@given(st.fixed_dictionaries({
    name: st.tuples(st.none() | values, st.none() | values)
    for name, (_, values) in PRECEDENCE.items()
}))
def test_flag_then_file_then_builtin(drawn):
    # drawn: setting -> (flag value, config file value), each maybe absent
    builtin = cli.Config()
    want = {name: next((v for v in (flag, key) if v is not None), getattr(builtin, name))
            for name, (flag, key) in drawn.items()}

    def flags(*names):
        return [a for n in names if drawn[n][0] is not None
                for a in (PRECEDENCE[n][0], repr(drawn[n][0]))]

    with tempfile.TemporaryDirectory() as tmp:
        config = [f"{name} = {key!r}\n" for name, (_, key) in drawn.items() if key is not None]
        head = []
        if config:
            with open(os.path.join(tmp, "ck.cfg"), "w", encoding="utf-8") as fh:
                fh.writelines(config)
            head = ["--config", os.path.join(tmp, "ck.cfg")]

        def run(*args):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*head, *args])
            assert 0 <= code <= 4 and "Traceback" not in err.getvalue(), (args, err.getvalue())
            return code

        def csv_rows(name):
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                return fh.read().splitlines()[1:]

        out = os.path.join(tmp, "c.csv")
        assert run("curve", "--alpha", "1", "--lambda", "1", "--out", out,
                   *flags("samples")) == 0
        assert len(csv_rows("c.csv")) == want["samples"]

        out = os.path.join(tmp, "r.csv")
        assert run("region", "--alpha", "2", "--delta-theta", "1", "--points", "3",
                   "--out", out, *flags("lambda_min", "lambda_max")) == 0
        lams = [float(row.split(",")[0]) for row in csv_rows("r.csv")]
        lo, hi = math.log(want["lambda_min"]), math.log(want["lambda_max"])
        # the last grid point is lo + (hi - lo), which need not round to hi
        assert (lams[0], lams[-1]) == (math.exp(lo), math.exp(lo + (hi - lo)))

        seen = []

        def recording(problem, tol, lam_bounds):
            seen.append(tol)
            return fit_g1(problem, tol, lam_bounds)

        with mock.patch.object(cli, "fit_g1", recording):
            run(*README_FIT, "--alpha", "2", *flags("tol"))
        assert seen == [want["tol"]]


def test_fit_with_no_lambda_reaching_the_turning_exits_4_with_one_line(
        tmp_path, monkeypatch, capsys):
    # alpha = 0 turns by 2 only below lambda* = 1/2, under lambda_min = 1
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    (tmp_path / "ck.cfg").write_text("lambda_min = 1\n")
    args = ["--config", "ck.cfg", "fit", "--start", "0,0", "--end", "0.7,0.72",
            "--start-angle", "0", "--end-angle", "2", "--alpha", "0", "--out", "o.json"]
    code, out, err = run_in_process(args, tmp_path, monkeypatch, capsys)
    assert (code, out) == (4, "")
    assert err == ("no solution: turning 2.0 is unreachable for every lambda in "
                   "[1.0, 1000000.0] at alpha = 0.0\n")
    assert sorted(os.listdir(tmp_path)) == ["ck.cfg"]


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_region_with_a_non_finite_alpha_exits_1(tmp_path, monkeypatch, capsys, alpha):
    # nan and inf said "integration bounds must be finite"
    args = ["region", "--alpha", alpha, "--delta-theta", "1", "--out", "r.csv"]
    assert rejects(args, tmp_path, monkeypatch, capsys) == "error: alpha must be finite\n"


def joined(args):
    """args with each '--flag value' pair written as '--flag=value'."""
    out = []
    for arg in args:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize("args, code", [
    (["fit", "--start", "0,0", "--end", "-0.5,0.7", "--start-angle", "0",
      "--end-angle", "2.5", "--alpha", "1", "--out", "f.json"], 0),
    (["qi", "--p0", "-1,0,0", "--controls", "1,0,0,0;0.8,0.6,0,0", "--n", "5",
      "--out", "q.csv"], 0),
    (["curve", "--alpha", "-1e-3", "--lambda", "1", "--n", "5", "--out", "c.csv"], 0),
    (["curve", "--alpha", "-inf", "--lambda", "1", "--out", "c.csv"], 1),
], ids=["fit-end", "qi-p0", "curve-alpha", "curve-alpha-inf"])
def test_a_negative_value_may_follow_its_flag(tmp_path, monkeypatch, capsys, args, code):
    # each exited 1 with "expected one argument": argparse took the value
    # for a flag unless it was a plain negative number such as -1 or -.5
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    runs = []
    for name, argv in (("spaced", args), ("joined", joined(args))):
        (tmp_path / name).mkdir()
        got = run_in_process(argv, tmp_path / name, monkeypatch, capsys)
        runs.append((*got, {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    if code == 0:
        assert runs[0][3]
    else:
        assert runs[0][2] == "error: alpha and lam must be finite\n"


# ------------------------------------------------------------ robustness property

EDGE_NUMBERS = (0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e308, -1e308, math.inf,
                -math.inf, math.nan, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1e-12)
# the integer flags' edges: each is rejected before a list is built, except
# 1, which --n and --points reject and --count accepts; the ceiling itself,
# 1,000,000, would start a run that long
EDGE_COUNTS = (0, -1, 1, 1_000_001, 10**10)
INTEGER_FLAGS = ("--n", "--points", "--count")
_FAMILY = {"--alpha": "0.5", "--lambda": "1", "--s-end": "1"}
# subcommand -> (fixed flags, {numeric flag: its usual value}); an argv sets
# one to three of them to an edge number, as the value or one entry of its list
NUMERIC_FLAGS = {
    "curve": (["--out=o.csv", "--svg=o.svg", "--axes"], {"--n": "9", **_FAMILY}),
    "lcg": (["--out=o.json"], {"--n": "9", **_FAMILY}),
    "fit": (["--out=o.json", "--svg=o.svg"],
            {"--start": "0,0", "--end": "0.7,0.72", "--start-angle": "0", "--end-angle": "1.2",
             "--alpha": "2", "--tol": "1e-10"}),
    "region": (["--out=o.csv"],
               {"--points": "5", "--alpha": "2", "--delta-theta": "1", "--lambda-min": "1e-6",
                "--lambda-max": "1e6"}),
    "qi": (["--out=o.csv"],
           {"--n": "9", "--controls": "1,0,0,0;0.8,0.6,0,0", "--p0": "0,0,0",
            "--v0": "1,0,0", "--s-total": "1"}),
    "ornament": (["--out=o.svg"],
                 {"--count": "3", "--n": "9", **_FAMILY, "--size-base": "0.05",
                  "--rhythm": "1,2"}),
    "check": ([], {"--n": "9", **_FAMILY}),
    "plot": (["--annotate", "--axes", "--out=o.svg"],
             {"--n": "9", **_FAMILY, "--widths": "1,2", "--size": "800x600"}),
}


def numeric_argv(command, changed):
    fixed, values = NUMERIC_FLAGS[command]
    return [command, *fixed, *(f"{flag}={changed.get(flag, value)}"
                               for flag, value in values.items())]


@st.composite
def numeric_argvs(draw):
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    values = dict(NUMERIC_FLAGS[command][1])
    slots = [(flag, k) for flag, value in values.items()
             for k in range(len(re.split("[,;x]", value)))]
    edges = st.sampled_from(slots).flatmap(lambda slot: st.tuples(
        st.just(slot), st.sampled_from(EDGE_COUNTS if slot[0] in INTEGER_FLAGS else EDGE_NUMBERS)))
    for (flag, k), number in draw(st.lists(edges, min_size=1, max_size=3)):
        entries = re.split("([,;x])", values[flag])  # the numbers at even indices
        entries[2 * k] = repr(number)
        values[flag] = "".join(entries)
    return numeric_argv(command, values)


def run_in_fresh_directory(argv, inputs=()):
    """(exit code, stdout, stderr, {file name: bytes}) of cli.main(argv),
    run in a new working directory that holds only inputs, pairs of (file
    name, text), which the file map leaves out."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs:
            (Path(tmp) / name).write_text(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        files = {name: (Path(tmp) / name).read_bytes() for name in sorted(os.listdir(tmp))
                 if name not in dict(inputs)}
    return code, out.getvalue(), err.getvalue(), files


def keeps_the_cli_contract(argv, inputs=()):
    """Run argv twice, each in a fresh directory with inputs, and check the
    contract: the same result both times; exit 0-4 and no traceback; on
    failure one stderr line (fit's exit 4 adds the drawable region when the
    turning is reachable) and no file; no nan or inf in a written file.
    Returns the first run's result."""
    with mock.patch.dict(os.environ):
        os.environ.pop("CURVEKIT_OUT_DIR", None)
        first = run_in_fresh_directory(argv, inputs)
        assert run_in_fresh_directory(argv, inputs) == first, argv
    code, _, err, files = first
    assert 0 <= code <= 4 and "Traceback" not in err, (argv, err)
    if code:
        assert not files, (argv, sorted(files))
        lines = 2 if argv[0] == "fit" and code == 4 and "\ndrawable region: " in err else 1
        assert err.endswith("\n") and err.count("\n") == lines, (argv, err)
    for name, data in files.items():
        assert not re.search(rb"nan|inf", data, re.IGNORECASE), (argv, name)
    return first


@settings(max_examples=200, deadline=None)
@given(numeric_argvs())
# each broke the contract once: tracebacks, r="inf", infs in the SVG, the wrong error
@example(numeric_argv("curve", {"--s-end": "5e-324"}))
@example(numeric_argv("fit", {"--end": "0.7,5e-324", "--start-angle": "5e-324",
                              "--end-angle": "0.0"}))
@example(numeric_argv("ornament", {"--size-base": "1e+308"}))
@example(numeric_argv("plot", {"--size": "infx600"}))
@example(numeric_argv("plot", {"--widths": "1,inf"}))
@example(numeric_argv("region", {"--alpha": "nan"}))
@example(numeric_argv("ornament", {"--count": "1", "--n": "1"}))
@example(numeric_argv("ornament", {"--count": "1"}))
@example(numeric_argv("region", {"--points": "10000000000"}))
def test_extreme_numbers_keep_the_cli_contract(argv):
    keeps_the_cli_contract(argv)


# the cells of an --in CSV: signed zeros, subnormals, the edges of the double
# range, and ordinary values
EDGE_CELLS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-308, 1e300, -1e300, 1e308, -1e308,
                     1.7976931348623157e308)),
    st.floats(-10.0, 10.0),
)
# the commands that read in.csv; lcg also writes its report
IN_COMMANDS = (
    ("lcg", "--in=in.csv", "--json", "--out=o.json"),
    ("check", "--in=in.csv", "--json"),
    ("plot", "--in=in.csv", "--out=o.svg"),
    ("plot", "--in=in.csv", "--annotate", "--out=o.svg"),
    ("plot", "--in=in.csv", "--axes", "--out=o.svg"),
    ("ornament", "--in=in.csv", "--out=o.svg"),
    ("ornament", "--in=in.csv", "--size-rule=proportional_to_radius_of_curvature",
     "--out=o.svg"),
)


def in_csv(*rows):
    return "s,x,y,theta,kappa\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(IN_COMMANDS),
    st.lists(st.tuples(*[EDGE_CELLS] * 5), min_size=2, max_size=6).map(lambda rows: in_csv(*rows)),
)
# each wrote inf into the SVG and exited 0: a centre whose sum overflows, and
# an extent past the largest double, which scaled the path by 0.0
@example(IN_COMMANDS[2], in_csv((0.0, 0.0, 1e308, 0.0, 1.0), (1.0, 0.0, 1.5e308, 0.0, 0.5)))
@example(IN_COMMANDS[5], in_csv((0.0, -1e308, 0.0, 0.0, 1.0), (1.0, 1e308, 0.0, 0.0, 0.5)))
def test_extreme_in_csvs_keep_the_cli_contract(argv, text):
    _, out, _, _ = keeps_the_cli_contract(list(argv), [("in.csv", text)])
    assert not re.search(r"nan|inf", out, re.IGNORECASE), (argv, text, out)
