"""Tests of the benchmark itself: tracing changes no output, every wrapped
attribute is restored, traced counts repeat exactly, failures count
operations, the references agree with closed forms, and the runner refuses
a tree without curvekit."""

import math
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calltrace  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _small_ops(ctx):
    """A cheap cross-section: few-station plane ops, one fit, one region, one space op."""
    plane = [op for op in workloads.build_plane(ctx, random.Random(3)) if int(op.name.rsplit("=", 1)[1]) < 40]
    fit = workloads.build_fit(ctx, random.Random(3))
    space = sorted(workloads.build_space(ctx, random.Random(3)),
                   key=lambda op: int(op.name.rsplit("=", 1)[1]))
    return plane[:4] + [next(op for op in fit if op.name.startswith("fit/")),
                        next(op for op in fit if op.name.startswith("region/")), space[0]]


def _curvekit_attributes():
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "curvekit" or name.startswith("curvekit.")
        for key, value in vars(mod).items()
    }


def _run(ops, tracer=None):
    digests = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i, op.name)
        try:
            out = op.call()
        except Exception as exc:
            out = exc
        if tracer is not None:
            tracer.end_op()
        digests.append(op.digest(out))
    return digests


def _counts(tracer):
    timed = ("busy:", "self:", "layer_busy:")
    return {k: v for k, v in tracer.totals.items() if not k.startswith(timed)}


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(ROOT, str(tmp_path))


def test_tracing_changes_no_output_and_restores_every_attribute(ctx):
    ops = _small_ops(ctx)
    before = _curvekit_attributes()
    plain = _run(ops)
    tracer = calltrace.Tracer()
    restore = calltrace.install(tracer)
    try:
        traced = _run(ops, tracer)
    finally:
        restore()
    assert traced == plain
    after = _curvekit_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.totals["calls:quadrature.integrand"] > 0
    assert tracer.spans and all(span[3] >= span[2] for span in tracer.spans)


def test_traced_counts_repeat_exactly(ctx):
    ops = _small_ops(ctx)
    runs = []
    for _ in range(2):
        tracer = calltrace.Tracer()
        restore = calltrace.install(tracer)
        try:
            _run(ops, tracer)
        finally:
            restore()
        runs.append(_counts(tracer))
    assert runs[0] == runs[1]
    for key in ("calls:quadrature.integrand", "calls:hermite.chord_angle",
                "calls:qi3d.eval_quaternion_curve", "quadrature.panels"):
        assert runs[0][key] > 0


def test_traced_child_matches_cold_child(ctx):
    csv = ctx.path("profile.csv")
    workloads.write_profile_csv(csv, -1.0, 0.7, 1.0, 200)
    op = workloads._cli_op(ctx, 0, "check", ["check", f"--in={csv}", "--json"], None,
                           lambda res: (None, None, None))
    cold = op.call()
    ctx.traced = True
    traced = op.call()
    tracer = calltrace.Tracer()
    op.collect(tracer, 0)
    assert cold.rc == traced.rc == 0
    assert op.digest(cold) == op.digest(traced)
    assert tracer.totals["calls:analysis.check_monotone"] == 1
    assert tracer.totals["render.bytes_in"] == os.path.getsize(csv)


def test_failures_count_operations_not_executions():
    ok = workloads.Op("ok", None, lambda out: (None, None, None))
    bad = workloads.Op("bad", None, lambda out: (None, "wrong", "gap"))
    verdicts = run.Verdicts(2)
    for _ in range(3):
        verdicts.record(0, ok, "same")
        verdicts.record(1, bad, "same")
    assert (verdicts.attempted, verdicts.failed, verdicts.unexplained) == (2, 1, [])
    verdicts.record(0, ok, "different")
    verdicts.record(0, ok, "different again")
    assert verdicts.failed == 2
    assert verdicts.unexplained == [("ok", "output differs from its first run")]


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_reference_quadrature_matches_closed_forms(alpha):
    for lam in (1e-2, 1.0, 30.0):
        for s in (0.05, 2.0, 40.0):
            if ref.turning(alpha, lam, s) > 30.0:
                continue
            exact = ref.point(alpha, lam, s)
            k_end = (1.0 + lam * alpha * s) ** ((alpha - 1.0) / alpha)
            x, y, log_end = ref._chord(alpha, lam, ref.turning(alpha, lam, s), k_end)
            scale = math.exp(log_end)
            assert math.dist(exact, (scale * x, scale * y)) <= 1e-13 * max(1.0, math.hypot(*exact))


def test_runner_refuses_a_tree_without_curvekit(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plane", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
