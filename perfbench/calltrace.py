"""Call tracing of curvekit from outside the library.

install() replaces module-level functions of curvekit with wrappers that
time and count each call, and returns a function that puts every original
back. A function imported by name into other curvekit modules (cli imports
fit_g1, pseudospiral imports _integrate_components, ...) is replaced under
every such name, so calls are seen whichever module makes them. The
integrand handed to the quadrature entry is wrapped per call.

Three kinds of wrapper:
  span   timed, counted, and recorded as a span (name, start, end, parent,
         operation id);
  leaf   timed and counted, but no span: these run thousands of times per
         operation (integrands, turning_angle, q_exp, ...), so their time
         and count are kept only in the totals and in their parent's self
         time, which keeps the in-memory span list small;
  count  counted only (_fmt.fmt, called once per number written).

A layer's busy time is the time during which at least one of its frames is
on the stack; its self time is the sum over its frames of duration minus
the duration of child frames.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer, kind)
TARGETS = (
    ("quadrature", "_integrate_components", "quadrature", "span"),
    ("pseudospiral", "sample_curve", "pseudospiral", "span"),
    ("pseudospiral", "evaluate_point", "pseudospiral", "span"),
    ("pseudospiral", "turning_angle", "pseudospiral", "leaf"),
    ("pseudospiral", "curvature", "pseudospiral", "leaf"),
    ("hermite", "fit_g1", "hermite", "span"),
    ("hermite", "drawable_region", "hermite", "span"),
    ("hermite", "chord_angle", "hermite", "span"),
    ("qi3d", "qi_frame", "qi3d", "span"),
    ("qi3d", "qi_point", "qi3d", "span"),
    ("qi3d", "eval_quaternion_curve", "qi3d", "leaf"),
    ("qi3d", "q_exp", "qi3d", "leaf"),
    ("analysis", "lcg_from_samples", "analysis", "span"),
    ("analysis", "check_monotone", "analysis", "span"),
    ("analysis", "stress_marker", "analysis", "span"),
    ("render", "export_csv", "render", "span"),
    ("render", "parse_csv", "render", "span"),
    ("render", "plot_svg", "render", "span"),
    ("render", "ornament_svg", "render", "span"),
    ("render", "_interpolate", "render", "leaf"),
    ("_fmt", "fmt", "_fmt", "count"),
    ("cli", "main", "cli", "span"),
)

_INTEGRAND = "quadrature.integrand"


def _samples_len(data):
    samples = getattr(data, "samples", None)
    return len(samples if samples is not None else data)


class Tracer:
    """Totals and spans of the traced calls, kept in memory until dumped.

    totals keys: calls:<name>, failed:<name>, busy:<name> (outermost calls
    only), layer_busy:<layer>, layer_failed:<layer>, self:<layer>, and the
    counters that the hooks below add.
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self.spans = []  # (id, name, start, end, parent id, operation id)
        self.op = 0
        self._stack = []  # frames: [child time, span id, ...]
        self._depth = defaultdict(int)
        self._next_id = 1

    # ------------------------------------------------------------ operations

    def begin_op(self, op_id: int, name: str):
        """Open the root span of one benchmark operation."""
        self.op = op_id
        sid = self._next_id
        self._next_id += 1
        self._stack.append([0.0, sid, name, perf_counter()])

    def end_op(self):
        _, sid, name, start = self._stack.pop()
        self.spans.append((sid, "op/" + name, start, perf_counter(), 0, self.op))

    # -------------------------------------------------------------- wrapping

    def wrap(self, func, name: str, layer: str, kind: str):
        totals = self.totals
        if kind == "count":
            key = "calls:" + name

            def counted(*args, **kwargs):
                totals[key] += 1
                return func(*args, **kwargs)

            return counted

        stack = self._stack
        depth = self._depth
        spans = self.spans
        k_calls, k_failed, k_busy = "calls:" + name, "failed:" + name, "busy:" + name
        k_lbusy, k_self = "layer_busy:" + layer, "self:" + layer
        spanned = kind == "span"
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            totals[k_calls] += 1
            if before is not None:
                args = before(self, args)
            outer_fn = depth[name] == 0
            outer_layer = depth[layer] == 0
            depth[name] += 1
            depth[layer] += 1
            parent_sid = stack[-1][1] if stack else 0
            if spanned:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent_sid
            frame = [0.0, sid]
            stack.append(frame)
            raised = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                raised = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                depth[layer] -= 1
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                totals[k_self] += dur - frame[0]
                if outer_fn:
                    totals[k_busy] += dur
                if outer_layer:
                    totals[k_lbusy] += dur
                    if raised is not None:
                        totals["layer_failed:" + layer] += 1
                if raised is not None:
                    totals[k_failed] += 1
                    if after is not None:
                        after(self, args, kwargs, raised)
                if spanned:
                    spans.append((sid, name, start, end, parent_sid, self.op))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ reporting

    def merge(self, data: dict, op_id: int):
        """Add the dump of a traced child process to this tracer."""
        for key, value in data["totals"].items():
            self.totals[key] += value
        root = self._stack[-1][1] if self._stack else 0
        base = self._next_id
        top = 0
        for sid, name, start, end, parent, _ in data["spans"]:
            self.spans.append((base + sid, name, start, end, base + parent if parent else root, op_id))
            top = max(top, sid)
        self._next_id = base + top + 1

    def dump(self, path: str, extra: dict | None = None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**(extra or {}), "totals": self.totals, "spans": self.spans}, fh)


# Hooks run at the boundary of particular wrapped functions.


def _before_quadrature(tracer, args):
    f = tracer.wrap(args[0], _INTEGRAND, "integrand", "leaf")
    return (f,) + tuple(args[1:])


def _after_quadrature(tracer, args, kwargs, result):
    if not isinstance(result, Exception):
        tracer.totals["quadrature.panels"] += result[0].subdivisions


def _after_sample_curve(tracer, args, kwargs, result):
    if not isinstance(result, Exception):
        tracer.totals["pseudospiral.stations"] += len(result.samples)


def _after_fit(tracer, args, kwargs, result):
    if type(result).__name__ == "NoSolution":
        tracer.totals["hermite.no_solution"] += 1


def _before_chord_angle(tracer, args):
    if tracer._depth["hermite.fit_g1"]:
        tracer.totals["hermite.chord_angle_in_fit"] += 1
    return args


def _before_analysis(tracer, args):
    tracer.totals["analysis.stations"] += _samples_len(args[0])
    return args


def _after_render_out(tracer, args, kwargs, result):
    if isinstance(result, str):
        tracer.totals["render.bytes_out"] += len(result.encode("utf-8"))


def _before_parse_csv(tracer, args):
    tracer.totals["render.bytes_in"] += len(args[0].encode("utf-8"))
    return args


def _after_cli(tracer, args, kwargs, result):
    if result != 0:
        tracer.totals["cli.exit_nonzero"] += 1


_BEFORE = {
    "quadrature._integrate_components": _before_quadrature,
    "hermite.chord_angle": _before_chord_angle,
    "analysis.lcg_from_samples": _before_analysis,
    "analysis.check_monotone": _before_analysis,
    "analysis.stress_marker": _before_analysis,
    "render.parse_csv": _before_parse_csv,
}
_AFTER = {
    "quadrature._integrate_components": _after_quadrature,
    "pseudospiral.sample_curve": _after_sample_curve,
    "hermite.fit_g1": _after_fit,
    "render.export_csv": _after_render_out,
    "render.plot_svg": _after_render_out,
    "render.ornament_svg": _after_render_out,
    "cli.main": _after_cli,
}


def install(tracer: Tracer):
    """Wrap every target under every curvekit name bound to it.

    Returns a function that restores the original attributes.
    """
    import curvekit.cli  # noqa: F401  (loads every module of the package)

    modules = {
        name: mod for name, mod in sys.modules.items()
        if (name == "curvekit" or name.startswith("curvekit.")) and mod is not None
    }
    saved = []
    for mod_name, attr, layer, kind in TARGETS:
        original = getattr(modules["curvekit." + mod_name], attr)
        wrapped = tracer.wrap(original, f"{mod_name}.{attr}", layer, kind)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore():
        for mod, key, original in reversed(saved):
            setattr(mod, key, original)

    return restore
