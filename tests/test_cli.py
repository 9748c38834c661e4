"""End-to-end CLI tests through subprocess: exit codes, files, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from curvekit.pseudospiral import CurveSample, Pose, SampledCurve
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
