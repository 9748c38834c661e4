"""Benchmark of curvekit: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload plane --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): plane, fit, space, cli_cold. The run builds
the workload's operation list from the seed, times a repeated closed loop
over it for --seconds, checks every output against an independent
reference, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted and failed count the operations of the list. With --trace 0 the
metrics are the end-to-end ones, at reference speed: a fixed pure-Python
kernel runs between operations, and each time is scaled by how much faster
or slower than REFERENCE_KERNEL_S the kernel ran around it (see
reference_kernel()). The raw wall-clock figures are in the detail line.
With --trace 1 the run times the first third of --seconds untraced, then
wraps curvekit's functions (calltrace.py) and times whole traced passes;
the metrics are the per-layer ones, per pass of the operation list, and the
spans go to .perfbench_out/trace-<workload>.json.
The line before the result holds the details: environment, tail percentile
and sample count, passes, and every failure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import calltrace
import reference as ref
from workloads import KNOWN_DEFECTS, WORKLOADS, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7
# reference_kernel() time on the 2-vCPU Intel Xeon VM (Python 3.11) the
# bounds were set on, in its fast phase; every reported time is scaled to it
REFERENCE_KERNEL_S = 0.002
INTERPRETER_REPEATS = 5
IMPORT_CODE = "import time; t = time.perf_counter(); import curvekit.cli; print(time.perf_counter() - t)"


def env_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def _child(ctx, code: str) -> subprocess.CompletedProcess:
    return subprocess.run([ctx.python, "-c", code], cwd=ctx.tmp, env=ctx.env,
                          capture_output=True, text=True, check=True)


def reference_kernel() -> float:
    """Seconds taken by one fixed piece of pure-Python numeric work.

    The work is the benchmark's own quadrature (reference.py): float math,
    calls and small lists, as in curvekit, but it does not change when
    curvekit does. Its time tells how fast the machine runs right now. The
    2-vCPU VMs on a shared host this was built on switch between speeds up
    to ~1.9x apart, in phases of seconds to minutes; over ten runs the
    quartile spread of wall-clock latencies reached 0.2-0.47 of the median,
    and 0.01-0.1 once each time is scaled by the kernel run around it.
    """
    t0 = time.perf_counter()
    ref.point(0.5, 1.0, 2.0)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A time measured between two kernel runs, scaled to a machine on which
    the kernel takes REFERENCE_KERNEL_S."""
    return seconds * 2.0 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)


def setup(ctx, workload: str, seed: int):
    """Build the operations SETUP_REPEATS times; return them and the median
    set-up time at reference speed: import of curvekit.cli (timed inside a
    fresh interpreter), bytecode compilation, input generation and warm-up."""
    build, warm = WORKLOADS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_kernel()
        import_s = float(_child(ctx, IMPORT_CODE).stdout)
        t0 = time.perf_counter()
        compileall.compile_dir(os.path.join(ctx.src, "curvekit"), quiet=1)
        ops = build(ctx, random.Random(seed))
        warm(ctx)
        elapsed = import_s + time.perf_counter() - t0
        times.append(at_reference_speed(elapsed, before, reference_kernel()))
    return ops, statistics.median(times)


class Verdicts:
    """Checks each operation's first output, then byte-identity of repeats.

    attempted and failed count operations of the list, not executions: an
    operation fails when its first output fails its check or any repeat
    differs from it. Both then depend only on the seed, not on how many
    passes fit in the run.
    """

    def __init__(self, count: int):
        self.first = [None] * count  # (digest, problem, defect)
        self.bad = [False] * count
        self.differs = set()
        self.err_max = 0.0
        self.defects = Counter()
        self.unexplained = []

    @property
    def attempted(self) -> int:
        return sum(1 for f in self.first if f is not None)

    @property
    def failed(self) -> int:
        return sum(self.bad)

    def record(self, i: int, op, out):
        digest = op.digest(out)
        if self.first[i] is None:
            try:
                err, problem, defect = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails the op
                err, problem, defect = None, f"check raised {exc!r}", None
            if err is not None:
                self.err_max = max(self.err_max, err)
            self.first[i] = (digest, problem, defect)
            if problem:
                self.bad[i] = True
                if defect:
                    self.defects[defect] += 1
                else:
                    self.unexplained.append((op.name, problem))
        elif digest != self.first[i][0] and i not in self.differs:
            self.differs.add(i)
            self.bad[i] = True
            self.unexplained.append((op.name, "output differs from its first run"))


def measure(ops, verdicts, deadline, tracer=None, whole_passes=False):
    """Closed loop over ops until deadline, at least one whole pass.

    A run of the reference kernel precedes every operation, so each
    execution lies between two. Returns each op's latencies, raw and at
    reference speed, and the number of whole passes.
    """
    raw = [[] for _ in ops]
    scaled = [[] for _ in ops]
    passes = 0
    before = reference_kernel()
    while True:
        for i, op in enumerate(ops):
            if passes and not whole_passes and time.perf_counter() >= deadline:
                return raw, scaled, passes
            if tracer is not None:
                tracer.begin_op(i, op.name)
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed result
                out = exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            after = reference_kernel()
            raw[i].append(elapsed)
            scaled[i].append(at_reference_speed(elapsed, before, after))
            before = after
            if tracer is not None and op.collect is not None:
                op.collect(tracer, i)
            verdicts.record(i, op, out)
        passes += 1
        if time.perf_counter() >= deadline:
            return raw, scaled, passes


def latency(times):
    """Throughput, median and tail over the operations of the list.

    Each operation's latency is the median of its executions. ops_per_s is
    the number of operations over the sum of their latencies, i.e. the rate
    of one pass of the list. The tail is the highest whole percentile with
    at least ten operations beyond it (nearest rank), returned with the
    operation count.
    """
    per_op = sorted(statistics.median(t) for t in times)
    k = len(per_op)
    pct = max(0, math.floor(100 * (k - 10) / k))
    return {"ops_per_s": k / sum(per_op), "op_p50_s": statistics.median(per_op),
            "op_tail_s": per_op[max(1, math.ceil(pct * k / 100)) - 1],
            "tail_percentile": pct, "samples": k,
            "executions": sum(len(t) for t in times), "min_repeats": min(len(t) for t in times)}


def _m(value, unit):
    return {"value": value, "unit": unit}


def _count(value):
    return int(value) if float(value).is_integer() else value


def per_layer(totals, passes, extra):
    """Per-layer metrics per pass of the operation list."""
    def g(key):
        return totals.get(key, 0.0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    calls = {n: g("calls:" + n) for n in (
        "quadrature._integrate_components", "quadrature.integrand", "pseudospiral.sample_curve",
        "pseudospiral.turning_angle", "hermite.fit_g1", "hermite.chord_angle", "qi3d.qi_frame",
        "qi3d.eval_quaternion_curve", "qi3d.q_exp", "render._interpolate", "_fmt.fmt")}
    counts = {
        "quadrature.calls": calls["quadrature._integrate_components"],
        "quadrature.integrand_evals": calls["quadrature.integrand"],
        "quadrature.panels": g("quadrature.panels"),
        "quadrature.failed": g("failed:quadrature._integrate_components"),
        "pseudospiral.sample_curve.calls": calls["pseudospiral.sample_curve"],
        "pseudospiral.stations": g("pseudospiral.stations"),
        "pseudospiral.turning_angle.calls": calls["pseudospiral.turning_angle"],
        "hermite.fit_g1.calls": calls["hermite.fit_g1"],
        "hermite.chord_angle.calls": calls["hermite.chord_angle"],
        "hermite.no_solution": g("hermite.no_solution"),
        "qi3d.qi_frame.calls": calls["qi3d.qi_frame"],
        "qi3d.eval_quaternion_curve.calls": calls["qi3d.eval_quaternion_curve"],
        "qi3d.q_exp.calls": calls["qi3d.q_exp"],
        "qi3d.failed": g("layer_failed:qi3d"),
        "analysis.stations": g("analysis.stations"),
        "render.interpolate.calls": calls["render._interpolate"],
        "render.bytes_out": g("render.bytes_out"),
        "render.bytes_in": g("render.bytes_in"),
        "fmt.fmt.calls": calls["_fmt.fmt"],
        "cli.exit_nonzero": g("cli.exit_nonzero"),
    }
    seconds = {
        "quadrature.busy_s": g("layer_busy:quadrature"),
        "quadrature.self_s": g("self:quadrature"),
        "quadrature.integrand_s": g("layer_busy:integrand"),
        "pseudospiral.sample_curve.busy_s": g("busy:pseudospiral.sample_curve"),
        "pseudospiral.self_s": g("self:pseudospiral"),
        "hermite.fit_g1.busy_s": g("busy:hermite.fit_g1"),
        "hermite.drawable_region.busy_s": g("busy:hermite.drawable_region"),
        "qi3d.busy_s": g("layer_busy:qi3d"),
        "qi3d.self_s": g("self:qi3d"),
        "analysis.lcg_from_samples.busy_s": g("busy:analysis.lcg_from_samples"),
        "analysis.check_monotone.busy_s": g("busy:analysis.check_monotone"),
        "analysis.stress_marker.busy_s": g("busy:analysis.stress_marker"),
        "render.export_csv.busy_s": g("busy:render.export_csv"),
        "render.parse_csv.busy_s": g("busy:render.parse_csv"),
        "render.plot_svg.busy_s": g("busy:render.plot_svg"),
        "render.ornament_svg.busy_s": g("busy:render.ornament_svg"),
        "cli.handler_s": g("busy:cli.main"),
        "cli.interpreter_s": extra["interpreter_s"],
        "cli.import_s": extra["import_s"],
    }
    ratios = {
        "quadrature.evals_per_call": ratio(calls["quadrature.integrand"],
                                           calls["quadrature._integrate_components"]),
        "hermite.chord_angle_per_fit": ratio(g("hermite.chord_angle_in_fit"), calls["hermite.fit_g1"]),
        "qi3d.evals_per_station": ratio(calls["qi3d.eval_quaternion_curve"], calls["qi3d.qi_frame"]),
        "trace.overhead": extra["overhead"],
        "check.err_to_tol_max": extra["err_to_tol_max"],
        "check.failed_ratio": extra["failed_ratio"],
    }
    out = {k: _m(_count(v), "count") for k, v in counts.items()}
    out["render.bytes_out"]["unit"] = out["render.bytes_in"]["unit"] = "B"
    out.update({k: _m(v, "s") for k, v in seconds.items()})
    out.update({k: _m(v, "ratio") for k, v in ratios.items()})
    return out


def interpreter_times(ctx):
    """Median wall time of a bare interpreter, and of importing curvekit.cli on top."""
    def wall(code):
        runs = []
        for _ in range(INTERPRETER_REPEATS):
            t0 = time.perf_counter()
            _child(ctx, code)
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    bare = wall("pass")
    return bare, wall("import curvekit.cli") - bare


def run(args, ctx) -> tuple[dict, dict]:
    ops, setup_s = setup(ctx, args.workload, args.seed)
    verdicts = Verdicts(len(ops))
    start = time.perf_counter()
    detail = {"operations": len(ops)}
    if not args.trace:
        raw, times, passes = measure(ops, verdicts, start + args.seconds)
        lat = latency(times)
        wall = latency(raw)
        if args.workload == "cli_cold":
            rss_kb = ctx.child_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": _m(setup_s, "s"),
            "ops_per_s": _m(lat["ops_per_s"], "1/s"),
            "op_p50_ms": _m(lat["op_p50_s"] * 1e3, "ms"),
            "op_tail_ms": _m(lat["op_tail_s"] * 1e3, "ms"),
            "peak_rss_mb": _m(rss_kb / 1024.0, "MB"),
        }
        detail.update(passes=passes, op_tail={"percentile": lat["tail_percentile"],
                                              "operations": lat["samples"]},
                      executions=lat["executions"], min_repeats=lat["min_repeats"],
                      wall_clock={"ops_per_s": wall["ops_per_s"], "op_p50_ms": wall["op_p50_s"] * 1e3,
                                  "op_tail_ms": wall["op_tail_s"] * 1e3})
    else:
        # a third of the run untraced, the rest traced, for the overhead
        _, base, _ = measure(ops, verdicts, start + args.seconds / 3)
        tracer = calltrace.Tracer()
        restore = calltrace.install(tracer)
        ctx.traced = True
        try:
            _, times, passes = measure(ops, verdicts, start + args.seconds, tracer, whole_passes=True)
        finally:
            ctx.traced = False
            restore()
        interpreter_s, import_s = interpreter_times(ctx)
        overhead = latency(base)["ops_per_s"] / latency(times)["ops_per_s"] - 1.0
        metrics = per_layer(tracer.totals, passes, {
            "interpreter_s": interpreter_s, "import_s": import_s, "overhead": overhead,
            "err_to_tol_max": verdicts.err_max,
            "failed_ratio": verdicts.failed / verdicts.attempted,
        })
        trace_path = os.path.join(ROOT, ".perfbench_out", f"trace-{args.workload}.json")
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "passes": passes,
                                 "env": env_info(), "operations": [op.name for op in ops]})
        detail.update(traced_passes=passes, trace_file=os.path.relpath(trace_path, ROOT))
    detail.update(
        known_defects={k: {"failures": v, "defect": KNOWN_DEFECTS[k]} for k, v in verdicts.defects.items()},
        unexplained_failures=verdicts.unexplained[:20],
        err_to_tol_max=verdicts.err_max,
    )
    result = {"correct": not verdicts.unexplained, "attempted": verdicts.attempted,
              "failed": verdicts.failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "curvekit", "cli.py")):
        print(f"perfbench: no curvekit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        result, detail = run(args, Context(ROOT, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env_info())
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
