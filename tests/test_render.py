"""SVG and CSV emission: structure, determinism, geometry preservation."""

import math
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvekit._fmt import FIELD, fmt
from curvekit.analysis import stress_marker
from curvekit.pseudospiral import (
    CurveSample,
    NaturalEquation,
    Pose,
    SampledCurve,
    named_curve,
    sample_curve,
)
from curvekit.render import (
    _csv,
    _path_d,
    EmptyInput,
    OrnamentSpec,
    PlotSpec,
    curve_from_rows,
    export_csv,
    ornament_svg,
    parse_csv,
    plot_svg,
)


def euler_path(n=200):
    return sample_curve(named_curve("euler", 0.5), 1.8, n)


def straight_path(n=11):
    samples = tuple(
        CurveSample(float(i), float(i), 0.0, 0.0, 0.0) for i in range(n)
    )
    return SampledCurve(None, samples, Pose())


def circle_path(n=721):
    # exact unit circle centered at (0, 1), unit speed
    samples = tuple(
        CurveSample(
            math.tau * i / (n - 1),
            math.sin(math.tau * i / (n - 1)),
            1.0 - math.cos(math.tau * i / (n - 1)),
            math.tau * i / (n - 1),
            1.0,
        )
        for i in range(n)
    )
    return SampledCurve(None, samples, Pose())


def path_coords(svg, index=0):
    ds = re.findall(r'<path d="([^"]+)"', svg)
    coords = re.findall(r"[ML] (\S+) (\S+)", ds[index])
    return [(float(x), float(y)) for x, y in coords]


# ------------------------------------------------------------ plot structure


def test_single_curve_single_width_one_path():
    svg = plot_svg(PlotSpec(curves=(euler_path(),)))
    assert svg.count("<path ") == 1
    assert svg.count("</svg>") == 1
    assert svg.endswith("\n")


def test_thickness_ladder_order():
    widths = (0.5, 1.0, 2.0, 4.0, 8.0)
    svg = plot_svg(PlotSpec(curves=(euler_path(),), stroke_widths=widths))
    assert svg.count("<path ") == 5
    found = re.findall(r'stroke-width="([^"]+)"', svg)
    assert [float(w) for w in found] == list(widths)


def test_multiple_curves_times_widths():
    curves = (euler_path(50), straight_path())
    svg = plot_svg(PlotSpec(curves=curves, stroke_widths=(1.0, 3.0)))
    assert svg.count("<path ") == 4


def test_axes_flag_adds_gray_path():
    spec = PlotSpec(curves=(euler_path(50),), axes=True)
    svg = plot_svg(spec)
    assert svg.count('stroke="#888888"') == 1
    no_axes = plot_svg(PlotSpec(curves=(euler_path(50),)))
    assert '#888888' not in no_axes


def test_annotations_draw_two_arrows():
    path = euler_path(100)
    marker = stress_marker(path)
    svg = plot_svg(PlotSpec(curves=(path,), annotations=((0, marker),)))
    assert svg.count('stroke="#c43b3b"') == 1
    assert svg.count('fill="#c43b3b"') == 1
    assert svg.count('stroke="#3b5fc4"') == 1
    assert svg.count('fill="#3b5fc4"') == 1


def test_plot_determinism():
    spec = PlotSpec(curves=(euler_path(),), stroke_widths=(1.0, 2.0), axes=True)
    assert plot_svg(spec) == plot_svg(spec)


def test_plot_validation():
    with pytest.raises(EmptyInput):
        plot_svg(PlotSpec(curves=()))
    with pytest.raises(ValueError):
        PlotSpec(curves=(euler_path(10),), stroke_widths=(0.0,))
    with pytest.raises(ValueError):
        PlotSpec(curves=(euler_path(10),), size=(0, 100))
    with pytest.raises(ValueError):
        plot_svg(PlotSpec(curves=(euler_path(10),), size=(50, 50), margin=30.0))


def test_svg_well_formed_and_known_elements():
    path = euler_path(80)
    marker = stress_marker(path)
    svg = plot_svg(PlotSpec(curves=(path,), annotations=((0, marker),), axes=True))
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    allowed = {f"{ns}path", f"{ns}polygon", f"{ns}circle"}
    for child in root.iter():
        if child is root:
            continue
        assert child.tag in allowed, child.tag


def test_plot_preserves_aspect_ratio():
    # an exact circle keeps equal x and y extents on a non-square canvas
    svg = plot_svg(PlotSpec(curves=(circle_path(),), size=(800, 600)))
    pts = path_coords(svg)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    assert abs(span_x / span_y - 1.0) < 1e-9


def test_canvas_fits_margin():
    svg = plot_svg(PlotSpec(curves=(euler_path(),), size=(400, 300), margin=25.0))
    pts = path_coords(svg)
    for x, y in pts:
        assert 25.0 - 1e-9 <= x <= 375.0 + 1e-9
        assert 25.0 - 1e-9 <= y <= 275.0 + 1e-9


# ------------------------------------------------------------ ornaments


def test_ornament_station_count():
    for count in (1, 2, 7, 30):
        svg = ornament_svg(OrnamentSpec(path=euler_path(), count=count))
        assert svg.count("<circle ") == count


def test_ornament_single_station_at_start():
    path = straight_path()
    svg = ornament_svg(OrnamentSpec(path=path, count=1, size_base=0.2))
    m = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)
    assert len(m) == 1
    cx, cy = float(m[0][0]), float(m[0][1])
    first = path_coords(svg)[0]
    assert (cx, cy) == pytest.approx(first, abs=1e-12)


def test_ornament_straight_line_equal_spacing():
    svg = ornament_svg(OrnamentSpec(path=straight_path(), count=10, size_base=0.1))
    m = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)"', svg)
    assert len(m) == 10
    centers = [(float(a), float(b)) for a, b, _ in m]
    gaps = [math.dist(a, b) for a, b in zip(centers, centers[1:])]
    mean = sum(gaps) / len(gaps)
    variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    assert variance < 1e-9
    radii = {r for _, _, r in m}
    assert len(radii) == 1


def test_ornament_proportional_sizes_follow_radius_of_curvature():
    # curvature falls along the path, so 1/kappa sizes must rise
    svg = ornament_svg(
        OrnamentSpec(
            path=euler_path(400),
            count=8,
            size_base=0.05,
            size_rule="proportional_to_radius_of_curvature",
        )
    )
    radii = [float(r) for r in re.findall(r' r="([^"]+)"', svg)]
    assert len(radii) == 8
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_ornament_proportional_rejects_straight_path():
    spec = OrnamentSpec(
        path=straight_path(),
        count=3,
        size_rule="proportional_to_radius_of_curvature",
    )
    with pytest.raises(ValueError):
        ornament_svg(spec)


def test_ornament_rhythm_cycling():
    svg = ornament_svg(
        OrnamentSpec(path=straight_path(), count=6, size_base=0.1, rhythm=(1.0, 2.0))
    )
    radii = [float(r) for r in re.findall(r' r="([^"]+)"', svg)]
    assert len(radii) == 6
    for i in range(0, 6, 2):
        assert radii[i + 1] == pytest.approx(2.0 * radii[i], rel=1e-12)


def test_ornament_palette_cycling():
    svg = ornament_svg(
        OrnamentSpec(
            path=straight_path(),
            count=5,
            size_base=0.1,
            palette=("#112233", "#445566"),
        )
    )
    fills = re.findall(r'<circle[^>]* fill="([^"]+)"', svg)
    assert fills == ["#112233", "#445566", "#112233", "#445566", "#112233"]


def test_ornament_polygon_primitives():
    for primitive, corners in (("square", 4), ("triangle", 3)):
        svg = ornament_svg(
            OrnamentSpec(path=straight_path(), count=4, primitive=primitive,
                         size_base=0.2)
        )
        polys = re.findall(r'<polygon points="([^"]+)"', svg)
        assert len(polys) == 4
        for poly in polys:
            assert len(poly.split(" ")) == corners


def test_ornament_validation():
    with pytest.raises(ValueError):
        OrnamentSpec(path=straight_path(), primitive="hexagon")
    with pytest.raises(ValueError):
        OrnamentSpec(path=straight_path(), size_rule="random")
    with pytest.raises(EmptyInput):
        OrnamentSpec(path=straight_path(), count=0)
    with pytest.raises(ValueError):
        OrnamentSpec(path=straight_path(), rhythm=())
    with pytest.raises(ValueError):
        OrnamentSpec(path=straight_path(), rhythm=(1.0, -1.0))
    with pytest.raises(ValueError):
        OrnamentSpec(path=straight_path(), palette=())
    short = SampledCurve(None, (CurveSample(0.0, 0.0, 0.0, 0.0, 1.0),), Pose())
    with pytest.raises(EmptyInput):
        ornament_svg(OrnamentSpec(path=short))


def test_ornament_determinism():
    spec = OrnamentSpec(path=euler_path(), count=12, rhythm=(1.0, 0.5),
                        palette=("#abcdef", "#123456"), primitive="triangle",
                        size_base=0.15)
    assert ornament_svg(spec) == ornament_svg(spec)


def test_ornament_svg_well_formed():
    svg = ornament_svg(OrnamentSpec(path=euler_path(), count=9, primitive="square",
                                    size_base=0.1))
    ET.fromstring(svg)


# ------------------------------------------------------------ CSV


def test_csv_2d_structure():
    sc = sample_curve(named_curve("nielsen", 1.0), 1.0, 2)
    text = export_csv(sc)
    lines = text.split("\n")
    assert lines[0] == "s,x,y,theta,kappa"
    assert len(lines) == 4  # header + 2 rows + trailing empty from final LF
    assert lines[-1] == ""
    assert "\r" not in text


def test_csv_17_significant_digits():
    samples = (
        CurveSample(0.0, 0.0, 0.0, 0.0, 1.0),
        CurveSample(1.0 / 3.0, 0.1, 0.2, 0.3, 2.0 / 3.0),
    )
    sc = SampledCurve(None, samples, Pose())
    text = export_csv(sc)
    assert "0.33333333333333331" in text
    assert "0.66666666666666663" in text


def test_csv_round_trip_byte_identical():
    sc = sample_curve(named_curve("involute", 0.7), 2.5, 40)
    text = export_csv(sc)
    fields, rows = parse_csv(text)
    assert fields == ("s", "x", "y", "theta", "kappa")
    rebuilt = curve_from_rows(rows)
    assert export_csv(rebuilt) == text
    ss = [r[0] for r in rows]
    assert all(b > a for a, b in zip(ss, ss[1:]))


def test_csv_3d_records():
    rows = [
        (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        (1.0, math.pi, 0.0, 0.5, 0.0, 1.0, 0.0),
    ]
    text = export_csv(rows)
    assert text.startswith("s,x,y,z,tx,ty,tz\n")
    fields, parsed = parse_csv(text)
    assert fields == ("s", "x", "y", "z", "tx", "ty", "tz")
    assert parsed[1][1] == math.pi
    assert export_csv(parsed) == text


def test_csv_errors():
    with pytest.raises(EmptyInput):
        export_csv([])
    with pytest.raises(ValueError):
        export_csv([(1.0, 2.0)])
    with pytest.raises(EmptyInput):
        parse_csv("")
    with pytest.raises(ValueError):
        parse_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_csv("s,x,y,theta,kappa\n1,2,3\n")


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0]),
    st.floats(1e-2, 1e2),
    st.floats(0.05, 0.9),
    st.integers(2, 300),
)
def test_csv_round_trip_of_sampled_members(alpha, lam, frac, n):
    # s_end is frac of the alpha < 0 domain, or of a turning of 2 pi
    s_end = frac * (-1.0 / (lam * alpha) if alpha < 0.0 else 2.0 * math.pi)
    text = export_csv(sample_curve(NaturalEquation(alpha, lam), s_end, n))
    assert export_csv(curve_from_rows(parse_csv(text)[1])) == text


@pytest.mark.parametrize("body, message", [
    (["1,2,3,4,5", "1,2,3", "1,x,3,4,5"], "row width 3"),  # a short row first
    (["1,x,3,4,5", "1,2,3"], "could not convert"),  # a bad number first
    (["1,x,3"], "could not convert"),  # in one row, the number before the width
])
def test_parse_csv_reports_the_first_faulty_row(body, message):
    with pytest.raises(ValueError, match=message):
        parse_csv("\n".join(["s,x,y,theta,kappa", *body]) + "\n")


@pytest.mark.parametrize("text, message", [
    ("s,x,y,theta,kappa\n1,2,3,4,5\n1,2,3\n", "line 3: row width 3 does not match header"),
    ("s,x,y,theta,kappa\n1,x,3\n", "line 2: could not convert string to float: 'x'"),
    ("\ns,x,y,theta,kappa\n\n1,2,3,4,5\n \n1,x,3,4,5", "line 6: could not convert "
     "string to float: 'x'"),  # blank lines count
], ids=["short-row", "bad-number", "blank-lines"])
def test_parse_csv_names_the_line_of_a_faulty_row(text, message):
    with pytest.raises(ValueError) as info:
        parse_csv(text)
    assert str(info.value) == message


def split_parse_csv(text):
    """parse_csv as it was before it walked the text a line at a time: the
    reference. It splits the whole text, and on a faulty row numbers the
    nonblank lines of a second split."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise EmptyInput("empty CSV")
    fields = tuple(lines[0].strip().split(","))
    if fields not in (("s", "x", "y", "theta", "kappa"), ("s", "x", "y", "z", "tx", "ty", "tz")):
        raise ValueError(f"unrecognized CSV header: {lines[0]!r}")
    rows = []
    try:
        for ln in lines[1:]:
            values = tuple(map(float, ln.split(",")))
            if len(values) != len(fields):
                raise ValueError(f"row width {len(values)} does not match header")
            rows.append(values)
    except ValueError as exc:
        numbers = [n for n, ln in enumerate(text.split("\n"), 1) if ln.strip()]
        raise ValueError(f"line {numbers[len(rows) + 1]}: {exc}") from None
    return fields, rows


def parse_outcome(parse, text):
    """repr of (fields, rows), or the error's type and text (repr, so that
    nan rows compare equal)."""
    try:
        return repr(parse(text))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


_CELL = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: f" {v!r} "),  # spaces around a number are allowed
    st.sampled_from(["abc", "", " ", "1e", "0x1p3", "1_0"]),
)


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from(
        ["s,x,y,theta,kappa", "s,x,y,z,tx,ty,tz", " s,x,y,theta,kappa\t", "s,x,y", "x;y"]))
    width = header.count(",") + 1
    good_row = st.lists(st.floats().map(repr), min_size=width, max_size=width).map(",".join)
    any_row = st.lists(_CELL, min_size=max(1, width - 1), max_size=width + 1).map(",".join)
    blank = st.sampled_from(["", " ", "\t", "  "])
    line = st.one_of(good_row, good_row, any_row, blank, good_row.map(lambda r: r + "  "))
    lines = [*draw(st.lists(blank, max_size=2)), header, *draw(st.lists(line, max_size=8))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(csv_texts())
@example("")  # an empty file
@example("\n \n")
@example("s,x,y,theta,kappa\n0,0,0,0,1\n1,1,1,1,abc\n2,2,2,2,2\n")  # last column, mid-file
@example("s,x,y,theta,kappa\r\n0,0,0,0,1\r\n\r\n1,1,1,1,abc\r\n")
@example("s,x,y,theta,kappa\n0,0,0,0,1\n\n1,2,3\n4,5,6,7,8")  # a short row
@example("s,x,y,theta,kappa\n0,0,0,0,1\n1,1,1,1,1")  # no final newline
@example("s,x\n0,0\n")  # the header's line is named without its newline
def test_parse_csv_walks_lines_as_the_split_text_read(text):
    # the same fields and rows, or the same error: its line number and the
    # offending token, with no line's newline in it
    assert parse_outcome(parse_csv, text) == parse_outcome(split_parse_csv, text)


_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308]


@given(
    st.lists(st.floats(), min_size=7, max_size=7),
    st.lists(st.floats(), min_size=4, max_size=4),
)
@example(_EDGES[:7], _EDGES[4:])
@example(_EDGES[1:], [2.2250738585072014e-308, -1e-310, 0.1, -1 / 3])
def test_row_templates_match_per_field_fmt(row7, row4):
    assert export_csv([row7]).split("\n")[1] == ",".join(map(fmt, row7))
    curve = SampledCurve(None, (CurveSample(0.0, *row4), CurveSample(1.0, *row4)), Pose())
    assert export_csv(curve).split("\n")[2] == ",".join(map(fmt, (1.0, *row4)))
    pts = list(zip(row7, row4 + row7[:3]))
    want = [f"M {fmt(pts[0][0])} {fmt(pts[0][1])}"]
    want.extend(f"L {fmt(x)} {fmt(y)}" for x, y in pts[1:])
    assert _path_d(pts) == " ".join(want)


@given(st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.booleans()))
@example(-0.0)
@example(5e-324)
@example(2**53 + 1)
def test_printf_field_equals_fmt(x):
    # fmt is the template itself; both spell format(float(x), ".17g")
    assert FIELD % x == fmt(x) == format(float(x), ".17g")


@pytest.mark.parametrize("make, bad", [
    (PlotSpec, {"size": (math.inf, 600)}),  # wrote 1,002 infs
    (PlotSpec, {"size": (800, math.nan)}),
    (PlotSpec, {"margin": math.nan}),
    (PlotSpec, {"stroke_widths": (1.0, math.nan)}),
    (PlotSpec, {"stroke_widths": (math.inf,)}),
    (OrnamentSpec, {"rhythm": (math.nan,)}),
    (OrnamentSpec, {"rhythm": (1.0, math.inf)}),
    (OrnamentSpec, {"size_base": math.inf}),
    (OrnamentSpec, {"size_base": math.nan}),
    (OrnamentSpec, {"size": (800, math.inf)}),
    (OrnamentSpec, {"margin": -math.inf}),
])
def test_specs_reject_non_finite_numbers(make, bad):
    first = "path" if make is OrnamentSpec else "curves"
    value = euler_path(10) if make is OrnamentSpec else (euler_path(10),)
    with pytest.raises(ValueError, match="finite"):
        make(**{first: value}, **bad)


@pytest.mark.parametrize("size_base, rhythm", [(1e308, (1.0,)), (1e308, (1e308,))])
def test_ornament_rejects_a_radius_that_overflows(size_base, rhythm):
    # both wrote r="inf": the canvas scale times size_base, and size_base * rhythm
    path = sample_curve(NaturalEquation(0.5, 1.0), 5.0, 64)
    spec = OrnamentSpec(path=path, count=1, size_base=size_base, rhythm=rhythm)
    with pytest.raises(ValueError, match=r"^primitive radius inf .*size_base \* rhythm"):
        ornament_svg(spec)


# kappa 1 at the start and 0 beyond: the proportional rule fails at the second station
_FLAT_AFTER_START = SampledCurve(None, (CurveSample(0.0, 0.0, 0.0, 0.0, 1.0),
                                        CurveSample(1.0, 1.0, 0.0, 0.0, 0.0),
                                        CurveSample(2.0, 2.0, 0.0, 0.0, 0.0)), Pose())


@pytest.mark.parametrize("size_base, margin, message", [
    (1.0, 500.0, "^margin leaves no drawable area$"),
    (1e308, 40.0, "^primitive radius inf "),
    (1.0, 40.0, "^proportional size rule needs nonzero curvature"),
])
def test_ornament_reports_the_canvas_then_each_station_in_order(size_base, margin, message):
    # one pass: the canvas is checked first, then each station's curvature
    # and radius in turn (the curvature of every station used to come first)
    spec = OrnamentSpec(path=_FLAT_AFTER_START, count=3, size_base=size_base, margin=margin,
                        size_rule="proportional_to_radius_of_curvature")
    with pytest.raises(ValueError, match=message):
        ornament_svg(spec)


# a path whose extent is one least subnormal: the canvas scale overflows
_TINY_Y = SampledCurve(None, (CurveSample(0.0, 0.0, 0.0, 0.0, 1.0),
                              CurveSample(1.0, 0.0, 5e-324, 0.0, 0.5)), Pose())


@pytest.mark.parametrize("emit", [
    lambda path: plot_svg(PlotSpec((path,))),  # wrote d="M nan nan L nan -inf"
    lambda path: ornament_svg(OrnamentSpec(path, count=2)),  # blamed size_base * rhythm
], ids=["plot", "ornament"])
def test_a_subnormal_path_extent_is_rejected(emit):
    with pytest.raises(ValueError) as info:
        emit(_TINY_Y)
    assert str(info.value) == "path extent 0.0 x 5e-324 is too small to scale onto the canvas"


def test_axes_whose_origin_overflows_the_canvas_are_rejected():
    # a path of height 1e-304 at x = 500: the y axis went to x = -inf, and
    # the SVG held "M -inf 0 L -inf 600"
    far = SampledCurve(None, (CurveSample(0.0, 500.0, 0.0, 0.0, 1.0),
                              CurveSample(1.0, 500.0, 1e-304, 0.0, 0.5)), Pose())
    with pytest.raises(ValueError, match=r"^the world origin maps to \(-inf, 560\.0\) "):
        plot_svg(PlotSpec((far,), axes=True))
    assert "inf" not in plot_svg(PlotSpec((far,)))


@pytest.mark.parametrize("entry", ['"', '"/><script>', "<b", "a>", "&amp;"])
def test_ornament_palette_rejects_markup(entry):
    # '"/><script>' closed the fill attribute: the file no longer parsed
    with pytest.raises(ValueError, match="palette"):
        OrnamentSpec(path=euler_path(10), palette=("#000000", entry))
    svg = ornament_svg(OrnamentSpec(path=euler_path(10), palette=("#000000", "red")))
    ET.fromstring(svg)


@pytest.mark.parametrize("column", range(5))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_curve_from_rows_rejects_non_finite_values(column, value):
    rows = [[0.1 * i, 0.1 * i, 0.0, 0.0, 1.0 / (1 + i)] for i in range(4)]
    rows[2][column] = value
    with pytest.raises(ValueError, match="^samples must be finite$"):
        curve_from_rows(map(tuple, rows))


def test_curve_from_no_rows_is_empty_input():
    with pytest.raises(EmptyInput, match="^no rows$"):
        curve_from_rows([])


@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=5))
@example([(-0.0, 5e-324), (1e-6, -2.2250738585072014e-308)])
def test_region_csv_writes_the_fmt_rows(rows):
    want = "\n".join(["lambda,psi", *(f"{fmt(lam)},{fmt(psi)}" for lam, psi in rows)]) + "\n"
    assert _csv("lambda,psi", rows) == want
