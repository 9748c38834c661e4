"""Command line interface.

Subcommands: curve, lcg, fit, region, qi, ornament, check, plot.

Exit codes: 0 success, 1 bad arguments or degenerate input, 2 domain
violations, 3 degenerate analysis, 4 no solution in reach. A fit whose
residual exceeds --tol still exits 0 and writes its best segment, with
"converged": false in its JSON and one warning line on stderr. Output files
are written to a temporary file and renamed into place, so a failing run
never leaves a partial file. Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, fields

from ._fmt import fmt, to_json
from .analysis import (
    DegenerateLcg,
    check_monotone,
    lcg_analytic,
    lcg_from_samples,
    stress_marker,
)
from .hermite import (
    _DEFAULT_BOUNDS,
    _REGION_POINTS,
    EmptyRegion,
    HermiteProblem,
    NoSolution,
    TurningUnreachable,
    drawable_region,
    fit_g1,
)
from .pseudospiral import (
    DomainExceeded,
    NaturalEquation,
    named_curve,
    sample_curve,
    NAMED_CURVES,
)
from .qi3d import QiCurveSpec, sample_qi
from .quadrature import MaxDepthExceeded, NonFiniteIntegrand
from .render import (
    _csv,
    OrnamentSpec,
    PlotSpec,
    curve_from_rows,
    export_csv,
    ornament_svg,
    parse_csv,
    plot_svg,
)

ENV_OUT_DIR = "CURVEKIT_OUT_DIR"
# characters per write: a document is encoded a slice at a time, never whole
_WRITE_SLICE = 1 << 16

EXIT_OK = 0
EXIT_ARGS = 1
EXIT_DOMAIN = 2
EXIT_DEGENERATE = 3
EXIT_NO_SOLUTION = 4


@dataclass
class Config:
    """Run configuration. Each setting comes from the first of: a flag whose
    dest is the field's name (unless None), the CURVEKIT_OUT_DIR environment
    variable (out_dir only), the config file, the built-in default."""

    tol: float = 1e-10
    samples: int = 1000
    out_dir: str = "."
    lambda_min: float = _DEFAULT_BOUNDS[0]
    lambda_max: float = _DEFAULT_BOUNDS[1]

    @classmethod
    def load(cls, path: str | None, args=None) -> "Config":
        cfg = cls()
        if path is not None:
            cfg._apply_file(path)
        env_dir = os.environ.get(ENV_OUT_DIR)
        if env_dir:
            cfg.out_dir = env_dir
        for f in fields(cfg):
            if getattr(args, f.name, None) is not None:
                setattr(cfg, f.name, getattr(args, f.name))
        return cfg

    def _apply_file(self, path: str) -> None:
        """Each key names a field; its value converts with the type of the
        field's default. Every error names the file and line."""
        types = {f.name: type(f.default) for f in fields(self)}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in types:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    setattr(self, key, types[key](value.strip()))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with status 2; the contract wants 1.

    Usage and help wrap at a fixed 78 columns (what COLUMNS=80 gives), not
    at the terminal's width, so their bytes are the same everywhere. A token
    that starts with '-' and then a digit, '.' and a digit, inf or nan is a
    value, not a flag, so '--end -0.5,0.7' and '--alpha -1e-3' need no '=':
    argparse's own test takes only plain negative numbers such as -1 or -.5."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=78)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ARGS)


def _write_slices(fh, text: str) -> None:
    """Write text to a text stream a slice at a time, so no encoded copy of
    the whole text is made. A character the encoding cannot take raises the
    error that one write of the whole text raises, at its position there."""
    for start in range(0, len(text), _WRITE_SLICE):
        try:
            fh.write(text[start:start + _WRITE_SLICE])
        except UnicodeEncodeError:
            text.encode(fh.encoding, fh.errors)
            raise


def _write_text(path: str, text: str, out_dir: str) -> str:
    """Write atomically: temp file in the target directory, then rename.

    A failed write raises OSError naming the requested path, never the
    random temporary name, so the error message is the same on every run.
    """
    if not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".curvekit-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                _write_slices(fh, text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    return path


def _parse_floats(text: str, what: str, expect: int | None = None, sep: str = ","):
    """The numbers of a flag's list: entries separated by sep or ';', blank
    entries skipped; exactly expect of them when given, else at least one."""
    parts = [p for p in text.replace(";", sep).split(sep) if p.strip()]
    if not parts or expect and len(parts) != expect:
        raise ValueError(f"{what} needs {expect or 'one or more'} numbers "
                         f"separated by {sep!r}, got {text!r}")
    try:
        return tuple(map(float, parts))
    except ValueError:
        raise ValueError(f"{what} takes numbers separated by {sep!r}, got {text!r}") from None


def _equation_from_args(args) -> NaturalEquation:
    if args.named is not None and args.alpha is not None:
        raise ValueError("give either --named or --alpha, not both")
    if args.lam is None:
        raise ValueError("--lambda is required with a family curve")
    if args.named is not None:
        return named_curve(args.named, args.lam)
    if args.alpha is None:
        raise ValueError("one of --named or --alpha is required")
    return NaturalEquation(args.alpha, args.lam)


def _add_family_args(p):
    p.add_argument("--named", choices=sorted(NAMED_CURVES), help="catalog curve name")
    p.add_argument("--alpha", type=float, help="shape parameter")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="curvature decay rate")
    p.add_argument("--s-end", dest="s_end", type=float, default=1.0,
                   help="arc length to sample (default 1)")
    p.add_argument("--n", dest="samples", metavar="N", type=int,
                   help="sample count (default from config)")


def _sampled_from_args(args, cfg: Config):
    return sample_curve(_equation_from_args(args), args.s_end, cfg.samples)


def _input_or_sampled(args, cfg: Config):
    """The --in CSV if given, else the family member the flags name."""
    if args.input:
        return _load_curve_csv(args.input)
    return _sampled_from_args(args, cfg)


def _load_curve_csv(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fields, rows = parse_csv(fh.read())
        if fields[1:3] == ("x", "y") and len(fields) == 5:
            return curve_from_rows(rows)
    except ValueError as exc:
        # a bad byte, row or value: name the file, as plot takes --in more than once
        raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"{path} is not a 2D curve CSV")


def _wrote(path: str, text: str, cfg: Config, summary: str) -> int:
    """Write a command's output file, then report its path and summary."""
    print(f"wrote {_write_text(path, text, cfg.out_dir)}")
    print(summary)
    return EXIT_OK


def _report(args, cfg: Config, record, summary: str) -> int:
    """Emit a record as JSON: written to --out when given, then printed with
    --json, or else the one-line summary is printed."""
    payload = to_json(record.as_dict())
    if getattr(args, "out", None):
        path = _write_text(args.out, payload + "\n", cfg.out_dir)
        print(f"wrote {path}")
    if args.json:
        _write_slices(sys.stdout, payload)
        sys.stdout.write("\n")
    else:
        print(summary)
    return EXIT_OK


# ---------------------------------------------------------------- commands


def _cmd_curve(args, cfg: Config) -> int:
    curve = _sampled_from_args(args, cfg)
    if args.svg:
        spec = PlotSpec(curves=(curve,), axes=args.axes)
        _write_text(args.svg, plot_svg(spec), cfg.out_dir)
    first, last = curve.samples[0], curve.samples[-1]
    return _wrote(
        args.out, export_csv(curve), cfg,
        f"samples = {len(curve.samples)}  s_end = {fmt(last.s)}  "
        f"theta_total = {fmt(last.theta - first.theta)}  "
        f"kappa = {fmt(first.kappa)} -> {fmt(last.kappa)}",
    )


def _cmd_lcg(args, cfg: Config) -> int:
    if args.input:
        report = lcg_from_samples(_load_curve_csv(args.input))
    else:
        eq = _equation_from_args(args)
        report = lcg_analytic(eq, (0.0, args.s_end), cfg.samples)
    return _report(
        args, cfg, report,
        f"slope = {fmt(report.slope)}  intercept = {fmt(report.intercept)}  "
        f"rms_residual = {fmt(report.rms_residual)}  dropped = {report.dropped}",
    )


def _cmd_fit(args, cfg: Config) -> int:
    problem = HermiteProblem(
        p_start=_parse_floats(args.start, "--start", 2),
        p_end=_parse_floats(args.end, "--end", 2),
        t_start=(math.cos(args.start_angle), math.sin(args.start_angle)),
        t_end=(math.cos(args.end_angle), math.sin(args.end_angle)),
        alpha=args.alpha,
    )
    segment = fit_g1(problem, tol=cfg.tol, lam_bounds=(cfg.lambda_min, cfg.lambda_max))
    if not segment.converged:
        print(f"warning: fit did not converge: residual {fmt(segment.residual)} "
              f"exceeds tol {fmt(cfg.tol)}", file=sys.stderr)
    if args.svg:
        spec = PlotSpec(curves=(segment.sample(400),))
        _write_text(args.svg, plot_svg(spec), cfg.out_dir)
    eq = segment.equation
    return _report(
        args, cfg, segment,
        f"alpha = {fmt(eq.alpha)}  lambda = {fmt(eq.lam)}  "
        f"s_total = {fmt(segment.s_total)}  scale = {fmt(segment.transform.scale)}  "
        f"residual = {fmt(segment.residual)}",
    )


def _cmd_region(args, cfg: Config) -> int:
    bounds = (cfg.lambda_min, cfg.lambda_max)
    region = drawable_region(args.alpha, args.delta_theta, bounds, args.points)
    return _wrote(
        args.out, _csv("lambda,psi", region.boundary_samples), cfg,
        f"alpha = {fmt(region.alpha)}  delta_theta = {fmt(region.delta_theta)}  "
        f"psi_min = {fmt(region.psi_min)}  psi_max = {fmt(region.psi_max)}  "
        f"samples = {len(region.boundary_samples)}",
    )


def _cmd_qi(args, cfg: Config) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = QiCurveSpec.from_dict(json.load(fh))
    else:
        if not args.controls:
            raise ValueError("either --spec or --controls is required")
        spec = QiCurveSpec.from_dict({
            "controls": [
                _parse_floats(part, "--controls entry", 4)
                for part in args.controls.split(";")
                if part.strip()
            ],
            "p0": _parse_floats(args.p0, "--p0", 3),
            "v0": _parse_floats(args.v0, "--v0", 3),
            "s_total": args.s_total,
        })
    rows = sample_qi(spec, cfg.samples)
    end = rows[-1]
    return _wrote(
        args.out, export_csv(rows), cfg,
        f"samples = {cfg.samples}  s_total = {fmt(spec.s_total)}  "
        f"end = ({fmt(end[1])}, {fmt(end[2])}, {fmt(end[3])})",
    )


def _cmd_ornament(args, cfg: Config) -> int:
    spec = OrnamentSpec(
        path=_input_or_sampled(args, cfg),
        primitive=args.primitive,
        count=args.count,
        size_base=args.size_base,
        size_rule=args.size_rule,
        rhythm=_parse_floats(args.rhythm, "--rhythm"),
        palette=tuple(c.strip() for c in args.palette.split(",") if c.strip()),
    )
    return _wrote(args.out, ornament_svg(spec), cfg,
                  f"stations = {spec.count}  primitive = {spec.primitive}")


def _cmd_check(args, cfg: Config) -> int:
    report = check_monotone(_input_or_sampled(args, cfg))
    return _report(
        args, cfg, report,
        f"is_monotone = {str(report.is_monotone).lower()}  "
        f"direction = {report.direction}  violations = {len(report.violations)}",
    )


def _cmd_plot(args, cfg: Config) -> int:
    curves = [_load_curve_csv(p) for p in args.input or ()]
    if args.named is not None or args.alpha is not None:
        curves.append(_sampled_from_args(args, cfg))
    widths = _parse_floats(args.widths, "--widths")
    annotations = []
    if args.annotate:
        annotations = [(i, stress_marker(c)) for i, c in enumerate(curves)]
    spec = PlotSpec(
        curves=tuple(curves),
        size=_parse_floats(args.size, "--size", 2, sep="x"),
        stroke_widths=widths,
        annotations=tuple(annotations),
        axes=args.axes,
    )
    return _wrote(args.out, plot_svg(spec), cfg,
                  f"curves = {len(curves)}  paths = {len(curves) * len(widths)}")


# ---------------------------------------------------------------- parser


@functools.cache  # built once per process: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="curvekit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="path to a 'key = value' config file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("curve", help="sample a curve to CSV (and optionally SVG)")
    _add_family_args(p)
    p.add_argument("--out", default="curve.csv", help="output CSV path")
    p.add_argument("--svg", help="also render the curve to this SVG path")
    p.add_argument("--axes", action="store_true", help="draw world axes in the SVG")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("lcg", help="log-curvature line fit")
    _add_family_args(p)
    p.add_argument("--in", dest="input", help="2D curve CSV to analyze instead")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.add_argument("--out", help="write the JSON report to this path")
    p.set_defaults(handler=_cmd_lcg)

    p = sub.add_parser("fit", help="fit one segment to a G1 Hermite problem")
    p.add_argument("--start", required=True, help="start point 'x,y'")
    p.add_argument("--end", required=True, help="end point 'x,y'")
    p.add_argument("--start-angle", dest="start_angle", type=float, required=True,
                   help="start tangent angle in radians")
    p.add_argument("--end-angle", dest="end_angle", type=float, required=True,
                   help="end tangent angle in radians")
    p.add_argument("--alpha", type=float, required=True, help="shape parameter")
    p.add_argument("--tol", type=float, help="chord-angle tolerance in radians")
    p.add_argument("--json", action="store_true", help="print the result as JSON")
    p.add_argument("--out", help="write the JSON result to this path")
    p.add_argument("--svg", help="render the fitted segment to this SVG path")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("region", help="scan the drawable chord-angle region")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta-theta", dest="delta_theta", type=float, required=True,
                   help="total turning in radians, in (0, pi)")
    p.add_argument("--lambda-min", dest="lambda_min", type=float)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--points", type=int, default=_REGION_POINTS,
                   help="grid size (default %(default)s)")
    p.add_argument("--out", default="region.csv", help="output CSV path")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("qi", help="sample a quaternion-driven space curve")
    p.add_argument("--spec", help="JSON spec file")
    p.add_argument("--controls", help="quaternions 'w,x,y,z;w,x,y,z;...'")
    p.add_argument("--p0", default="0,0,0", help="start point (default origin)")
    p.add_argument("--v0", default="1,0,0", help="swept unit vector (default +x)")
    p.add_argument("--s-total", dest="s_total", type=float, default=1.0)
    p.add_argument("--n", dest="samples", metavar="N", type=int, help="sample count")
    p.add_argument("--out", default="qi.csv", help="output CSV path")
    p.set_defaults(handler=_cmd_qi)

    p = sub.add_parser("ornament", help="repeat primitives along a curve")
    _add_family_args(p)
    p.add_argument("--in", dest="input", help="2D curve CSV to decorate instead")
    p.add_argument("--primitive", choices=("circle", "square", "triangle"),
                   default="circle")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--size-base", dest="size_base", type=float, default=0.05)
    p.add_argument("--size-rule", dest="size_rule",
                   choices=("constant", "proportional_to_radius_of_curvature"),
                   default="constant")
    p.add_argument("--rhythm", default="1", help="size multipliers, e.g. '1,2,1'")
    p.add_argument("--palette", default="#000000", help="fill colors, comma separated")
    p.add_argument("--out", default="ornament.svg", help="output SVG path")
    p.set_defaults(handler=_cmd_ornament)

    p = sub.add_parser("check", help="check curvature monotonicity")
    _add_family_args(p)
    p.add_argument("--in", dest="input", help="2D curve CSV to check instead")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("plot", help="render curves to SVG")
    _add_family_args(p)
    p.add_argument("--in", dest="input", action="append",
                   help="2D curve CSV (repeatable)")
    p.add_argument("--widths", default="1", help="stroke widths, e.g. '0.5,1,2'")
    p.add_argument("--size", default="800x600", help="canvas WxH (default 800x600)")
    p.add_argument("--annotate", action="store_true",
                   help="draw stress marker arrows")
    p.add_argument("--axes", action="store_true", help="draw world axes")
    p.add_argument("--out", default="plot.svg", help="output SVG path")
    p.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ARGS
    try:
        cfg = Config.load(args.config, args)
        return args.handler(args, cfg)
    except DomainExceeded as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (MaxDepthExceeded, NonFiniteIntegrand) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DegenerateLcg as exc:
        print(f"degenerate analysis: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NoSolution, EmptyRegion, TurningUnreachable) as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        if getattr(exc, "psi_min", None) is not None:
            print(
                f"drawable region: psi in [{fmt(exc.psi_min)}, {fmt(exc.psi_max)}], "
                f"target psi = {fmt(exc.psi_target)}",
                file=sys.stderr,
            )
        return EXIT_NO_SOLUTION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
