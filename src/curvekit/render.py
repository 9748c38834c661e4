"""Deterministic SVG and CSV emission for sampled curves.

All numbers are written at 17 significant digits with LF newlines, so a
curve renders to byte-identical output on every run. The world-to-canvas
map is a uniform scale plus translation (y flipped so counterclockwise
stays counterclockwise on screen); aspect ratio is never distorted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from ._fmt import FIELD
from .pseudospiral import CurveSample, Pose, SampledCurve
from .quadrature import _stations

__all__ = [
    "EmptyInput",
    "OrnamentSpec",
    "PlotSpec",
    "curve_from_rows",
    "export_csv",
    "ornament_svg",
    "parse_csv",
    "plot_svg",
]

_HEADER_2D = "s,x,y,theta,kappa"
_HEADER_3D = "s,x,y,z,tx,ty,tz"


class EmptyInput(ValueError):
    """Nothing to render."""


@dataclass(frozen=True)
class PlotSpec:
    """Curves plus canvas geometry for a line plot.

    stroke_widths emits one path per (curve, width) pair, widths kept in
    the given order. annotations maps curve indices to stress markers,
    drawn as arrows. axes draws the world axes when set.
    """

    curves: tuple
    size: tuple = (800, 600)
    margin: float = 40.0
    stroke_widths: tuple = (1.0,)
    annotations: tuple = ()
    axes: bool = False

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "stroke_widths", _positive("stroke_widths", self.stroke_widths))
        object.__setattr__(self, "annotations", tuple(self.annotations))
        _check_canvas(self)


@dataclass(frozen=True)
class OrnamentSpec:
    """Primitives repeated along a path at uniform arc-length stations.

    size_rule "constant" uses size_base * rhythm; the rule
    "proportional_to_radius_of_curvature" multiplies in the local 1/kappa.
    rhythm cycles over stations, palette cycles over fill colors.
    """

    path: SampledCurve
    primitive: str = "circle"
    count: int = 10
    size_base: float = 1.0
    size_rule: str = "constant"
    rhythm: tuple = (1.0,)
    palette: tuple = ("#000000",)
    size: tuple = (800, 600)
    margin: float = 40.0

    def __post_init__(self):
        if self.primitive not in ("circle", "square", "triangle"):
            raise ValueError(f"unknown primitive {self.primitive!r}")
        if self.size_rule not in ("constant", "proportional_to_radius_of_curvature"):
            raise ValueError(f"unknown size rule {self.size_rule!r}")
        if self.count < 1:
            raise EmptyInput("count must be at least 1")
        if not 0.0 < self.size_base < math.inf:
            raise ValueError("size_base must be positive and finite")
        object.__setattr__(self, "rhythm", _positive("rhythm", self.rhythm))
        palette = tuple(str(c) for c in self.palette)
        if not palette or any(set(c) & set('"<>&') for c in palette):
            raise ValueError("palette must be nonempty, with no '\"', '<', '>' or '&' in an entry")
        object.__setattr__(self, "palette", palette)
        _check_canvas(self)


def _positive(what, values):
    """values as a tuple of floats, each positive and finite."""
    values = tuple(map(float, values))
    if not values or not all(0.0 < v < math.inf for v in values):
        raise ValueError(f"{what} must be nonempty, positive and finite")
    return values


def _check_canvas(spec):
    """Store size as two positive finite floats, margin as a finite float."""
    w, h = _positive("canvas size", spec.size)
    if not math.isfinite(spec.margin):
        raise ValueError("margin must be finite")
    object.__setattr__(spec, "size", (w, h))
    object.__setattr__(spec, "margin", float(spec.margin))


class _CanvasMap:
    """Uniform-scale world-to-canvas transform fitting the bounding box of
    runs of samples (each with x and y)."""

    def __init__(self, sample_runs, size, margin):
        def coordinates(name):  # read straight from the samples: no list of points
            return map(attrgetter(name), chain.from_iterable(sample_runs))

        x_lo, x_hi = min(coordinates("x")), max(coordinates("x"))
        y_lo, y_hi = min(coordinates("y")), max(coordinates("y"))
        w, h = size
        span_x = x_hi - x_lo
        span_y = y_hi - y_lo
        avail_x = w - 2.0 * margin
        avail_y = h - 2.0 * margin
        if avail_x <= 0.0 or avail_y <= 0.0:
            raise ValueError("margin leaves no drawable area")
        if not (span_x < math.inf and span_y < math.inf):  # else the scale would be 0.0
            raise ValueError(f"path extent {span_x!r} x {span_y!r} overflows double precision")
        candidates = []
        if span_x > 0.0:
            candidates.append(avail_x / span_x)
        if span_y > 0.0:
            candidates.append(avail_y / span_y)
        self.k = min(candidates) if candidates else 1.0
        if not math.isfinite(self.k):  # a subnormal extent: avail / span overflows
            raise ValueError(
                f"path extent {span_x!r} x {span_y!r} is too small to scale onto the canvas"
            )
        # halved before the sum only where the sum overflows: no finite centre moves
        self.cx, self.cy = (0.5 * (lo + hi) if abs(lo + hi) < math.inf else 0.5 * lo + 0.5 * hi
                            for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)))
        self.ox = 0.5 * w
        self.oy = 0.5 * h

    def point(self, x, y):
        return (
            self.ox + self.k * (x - self.cx),
            self.oy - self.k * (y - self.cy),
        )

    def angle(self, theta):
        return -theta  # y flip reverses angles


# element templates, each one line with its newline: every SVG number goes
# through FIELD, as CSV rows do
_XY = f"{FIELD} {FIELD}"
_PAIR = f"{FIELD},{FIELD}"
_SVG_OPEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{FIELD}" height="{FIELD}" viewBox="0 0 {FIELD} {FIELD}">\n'
)
_PATH = f'<path d="%s" fill="none" stroke="%s" stroke-width="{FIELD}"/>\n'
# a long d goes between these two pieces of _PATH, not copied into each stroke
_PATH_HEAD, _PATH_TAIL = _PATH.split("%s", 1)
_POLYGON = '<polygon points="%s" fill="%s"/>\n'
_CIRCLE = f'<circle cx="{FIELD}" cy="{FIELD}" r="{FIELD}" fill="%s"/>\n'


def _svg(size, body):
    """One SVG document: the canvas of the given size around body's pieces,
    which hold their own newlines."""
    w, h = size
    return "".join([_SVG_OPEN % (w, h, w, h), *body, "</svg>\n"])


def _path_d(canvas_points):
    return "M " + " L ".join(map(_XY.__mod__, canvas_points))


def _points(canvas_points):
    return " ".join(map(_PAIR.__mod__, canvas_points))


def _arrow(tip, angle, length, color):
    """Shaft and head of an arrow pointing at tip from direction angle
    (canvas radians)."""
    x, y = tip
    tail = (x - length * math.cos(angle), y - length * math.sin(angle))
    head = 0.25 * length
    barbs = [(x - head * math.cos(angle + d), y - head * math.sin(angle + d)) for d in (-0.4, 0.4)]
    return _PATH % (_path_d([tail, tip]), color, 1.5), _POLYGON % (_points([tip, *barbs]), color)


def _interpolate(curve: SampledCurve, svals, s: float) -> CurveSample:
    """Linear interpolation of a sample record at arc length s; svals is
    the curve's list of sample arc lengths, built once by the caller."""
    pts = curve.samples
    if s <= svals[0]:
        return pts[0]
    if s >= svals[-1]:
        return pts[-1]
    j = bisect_right(svals, s)
    a, b = pts[j - 1], pts[j]
    f = (s - a.s) / (b.s - a.s)
    return CurveSample(
        s,
        a.x + f * (b.x - a.x),
        a.y + f * (b.y - a.y),
        a.theta + f * (b.theta - a.theta),
        a.kappa + f * (b.kappa - a.kappa),
    )


def plot_svg(spec: PlotSpec) -> str:
    """Render curves as polyline paths; deterministic byte-for-byte."""
    if not spec.curves:
        raise EmptyInput("no curves to plot")
    cmap = _CanvasMap([c.samples for c in spec.curves], spec.size, spec.margin)

    body = []
    if spec.axes:
        w, h = spec.size
        x0, y0 = cmap.point(0.0, 0.0)
        if not (math.isfinite(x0) and math.isfinite(y0)):
            raise ValueError(f"the world origin maps to ({x0!r}, {y0!r}) on the canvas: "
                             "the path is too small for its distance from the origin")
        axes = _path_d([(0.0, y0), (w, y0)]) + " " + _path_d([(x0, 0.0), (x0, h)])
        body.append(_PATH % (axes, "#888888", 1.0))
    for curve in spec.curves:
        d = _path_d(cmap.point(p.x, p.y) for p in curve.samples)
        for width in spec.stroke_widths:
            body += (_PATH_HEAD, d, _PATH_TAIL % ("#000000", width))
    svals = {i: [p.s for p in spec.curves[i].samples] for i, _ in spec.annotations}
    for index, marker in spec.annotations:
        curve = spec.curves[index]
        for s, color, tilt in (
            (marker.s_at_max_kappa, "#c43b3b", 0.75 * math.pi),
            (marker.s_at_max_kappa_slope, "#3b5fc4", 0.25 * math.pi),
        ):
            p = _interpolate(curve, svals[index], s)
            body.extend(_arrow(cmap.point(p.x, p.y), tilt, 28.0, color))
    return _svg(spec.size, body)


def ornament_svg(spec: OrnamentSpec) -> str:
    """Place primitives along the path at uniform arc-length stations."""
    path = spec.path
    if len(path.samples) < 2:
        raise EmptyInput("path needs at least two samples")
    s0 = path.samples[0].s
    s1 = path.samples[-1].s
    stations = [s0] if spec.count == 1 else _stations(s0, s1, spec.count)

    cmap = _CanvasMap([path.samples], spec.size, spec.margin)
    svals = [p.s for p in path.samples]
    body = [_PATH % (_path_d(cmap.point(p.x, p.y) for p in path.samples), "#bbbbbb", 1.0)]
    for j, s in enumerate(stations):
        p = _interpolate(path, svals, s)
        size = spec.size_base * spec.rhythm[j % len(spec.rhythm)]
        if spec.size_rule == "proportional_to_radius_of_curvature":
            if p.kappa == 0.0:
                raise ValueError(
                    "proportional size rule needs nonzero curvature along the path"
                )
            size *= 1.0 / abs(p.kappa)
        cx, cy = cmap.point(p.x, p.y)
        r = cmap.k * size
        if not math.isfinite(r):
            raise ValueError(
                f"primitive radius {r!r} on the canvas is not finite: size_base * rhythm "
                "is too large for this path"
            )
        color = spec.palette[j % len(spec.palette)]
        if spec.primitive == "circle":
            body.append(_CIRCLE % (cx, cy, r, color))
            continue
        corner_count = 4 if spec.primitive == "square" else 3
        start = cmap.angle(p.theta) + (math.pi / 4.0 if spec.primitive == "square" else 0.0)
        angles = [start + k * math.tau / corner_count for k in range(corner_count)]
        corners = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles]
        body.append(_POLYGON % (_points(corners), color))
    return _svg(spec.size, body)


def _csv(header, rows) -> str:
    """CSV text: the header, then each row through one printf template of
    the header's width, LF newlines and a trailing newline."""
    template = ",".join([FIELD] * (header.count(",") + 1))
    return "\n".join([header, *map(template.__mod__, rows), ""])


def export_csv(data) -> str:
    """Serialize samples to CSV.

    A SampledCurve writes the 2D header s,x,y,theta,kappa; an iterable of
    7-field records writes the 3D header s,x,y,z,tx,ty,tz. Floats are
    formatted for exact round-trips; newlines are LF. A 2D sample is a
    row of the template already.
    """
    if isinstance(data, SampledCurve):
        rows = data.samples
        header = _HEADER_2D
    else:
        rows = [tuple(map(float, row)) for row in data]
        header = _HEADER_3D
        if any(len(row) != 7 for row in rows):
            raise ValueError("3D records need exactly 7 fields")
    if not rows:
        raise EmptyInput("no samples to export")
    return _csv(header, rows)


def _nonblank_lines(text):
    """(number, line) for each nonblank line of text, numbered from 1 with
    blank lines counted and without its "\n"; no list of the lines is built."""
    number = start = 0
    while True:
        number += 1
        end = text.find("\n", start)
        line = text[start:] if end < 0 else text[start:end]
        if line.strip():
            yield number, line
        if end < 0:
            return
        start = end + 1


def parse_csv(text: str):
    """Parse CSV produced by export_csv: returns (field_names, rows). Blank
    lines are skipped; a row that does not parse names its line number.
    The text is read one line at a time."""
    lines = _nonblank_lines(text)
    _, header = next(lines, (0, ""))
    if not header:
        raise EmptyInput("empty CSV")
    fields = tuple(header.strip().split(","))
    if fields not in (tuple(_HEADER_2D.split(",")), tuple(_HEADER_3D.split(","))):
        raise ValueError(f"unrecognized CSV header: {header!r}")
    rows = []
    try:
        for number, line in lines:
            values = tuple(map(float, line.split(",")))
            if len(values) != len(fields):
                raise ValueError(f"row width {len(values)} does not match header")
            rows.append(values)
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None
    return fields, rows


def curve_from_rows(rows) -> SampledCurve:
    """Rebuild a SampledCurve from parsed 2D CSV rows, which must be
    finite (float() reads nan and inf)."""
    samples = tuple(map(CurveSample._make, rows))
    if not samples:
        raise EmptyInput("no rows")
    if not all(map(math.isfinite, chain.from_iterable(samples))):
        raise ValueError("samples must be finite")
    first = samples[0]
    return SampledCurve(None, samples, Pose(first.x, first.y, first.theta))
