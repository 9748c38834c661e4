"""Quaternion algebra, cumulative-basis curves, and 3D integral curves."""

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit import cli
from curvekit.qi3d import (
    AntipodalSingularity,
    QiCurveSpec,
    QuaternionCurve,
    UnitQuaternion,
    eval_quaternion_curve,
    q_exp,
    q_log,
    qi_frame,
    qi_point,
    sample_qi,
)
from curvekit.quadrature import integrate
from curvekit.render import export_csv


IDENTITY = UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def random_unit_quaternion(rng, max_half_angle=0.8 * math.pi):
    ax = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
    n = math.sqrt(sum(c * c for c in ax)) or 1.0
    half = rng.uniform(0.0, max_half_angle)
    return q_exp(tuple(half * c / n for c in ax))


def slerp_reference(q0, q1, t):
    """Independent geometric slerp: sin-weighted blend of components."""
    d = q0.dot(q1)
    if d < 0.0:
        q1 = -q1
        d = -d
    d = min(1.0, d)
    omega = math.acos(d)
    if omega < 1e-9:
        c = [(1.0 - t) * a + t * b for a, b in zip(q0.components(), q1.components())]
    else:
        ka = math.sin((1.0 - t) * omega) / math.sin(omega)
        kb = math.sin(t * omega) / math.sin(omega)
        c = [ka * a + kb * b for a, b in zip(q0.components(), q1.components())]
    n = math.sqrt(sum(x * x for x in c))
    return tuple(x / n for x in c)


def quat_distance(q, components):
    return max(abs(a - b) for a, b in zip(q.components(), components))


# ------------------------------------------------------------ algebra


def test_unit_normalization():
    q = UnitQuaternion(2.0, 0.0, 0.0, 0.0)
    assert q.components() == (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitQuaternion(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitQuaternion(math.nan, 0.0, 0.0, 1.0)


def test_exp_of_zero_is_identity():
    assert q_exp((0.0, 0.0, 0.0)).components() == (1.0, 0.0, 0.0, 0.0)


def test_exp_half_turn_about_x():
    q = q_exp((math.pi / 2.0, 0.0, 0.0))
    assert quat_distance(q, (0.0, 1.0, 0.0, 0.0)) < 1e-15
    # as a rotation: pi about x sends y to -y and z to -z
    assert q.rotate((0.0, 1.0, 0.0)) == pytest.approx((0.0, -1.0, 0.0), abs=1e-15)
    assert q.rotate((0.0, 0.0, 1.0)) == pytest.approx((0.0, 0.0, -1.0), abs=1e-15)


def test_rotate_matches_rotation_matrix():
    # quarter turn about x: y -> z
    q = q_exp((math.pi / 4.0, 0.0, 0.0))
    assert q.rotate((0.0, 1.0, 0.0)) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    # quarter turn about z: x -> y
    q = q_exp((0.0, 0.0, math.pi / 4.0))
    assert q.rotate((1.0, 0.0, 0.0)) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


def test_exp_log_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        ax = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(sum(c * c for c in ax)) or 1.0
        mag = rng.uniform(0.0, math.pi - 1e-6)
        v = tuple(mag * c / n for c in ax)
        w = q_log(q_exp(v))
        assert max(abs(a - b) for a, b in zip(v, w)) < 1e-12


def test_log_of_identity_and_antipode():
    assert q_log(IDENTITY) == (0.0, 0.0, 0.0)
    with pytest.raises(AntipodalSingularity):
        q_log(UnitQuaternion(-1.0, 0.0, 0.0, 0.0))


def test_multiplication_against_axis_composition():
    # two quarter turns about the same axis compose to a half turn
    h = q_exp((0.0, 0.0, math.pi / 4.0))
    full = h * h
    assert quat_distance(full, q_exp((0.0, 0.0, math.pi / 2.0)).components()) < 1e-15


def test_inverse_and_conjugate():
    rng = random.Random(4)
    for _ in range(20):
        q = random_unit_quaternion(rng)
        r = q * q.inverse()
        assert quat_distance(r, (1.0, 0.0, 0.0, 0.0)) < 1e-15
        assert q.conjugate().components() == (q.w, -q.x, -q.y, -q.z)


def test_rotation_preserves_norm():
    rng = random.Random(12)
    for _ in range(50):
        q = random_unit_quaternion(rng)
        v = (rng.gauss(0, 2), rng.gauss(0, 2), rng.gauss(0, 2))
        w = q.rotate(v)
        assert math.sqrt(sum(c * c for c in w)) == pytest.approx(
            math.sqrt(sum(c * c for c in v)), rel=1e-13, abs=1e-13
        )


def test_product_norm_drift_stays_tiny():
    rng = random.Random(77)
    q = IDENTITY
    for _ in range(10_000):
        q = q * random_unit_quaternion(rng, max_half_angle=0.2)
        n = math.sqrt(q.w**2 + q.x**2 + q.y**2 + q.z**2)
        assert abs(n - 1.0) < 1e-12


# ------------------------------------------------------------ quaternion curve


def test_curve_endpoints():
    rng = random.Random(31)
    controls = tuple(random_unit_quaternion(rng) for _ in range(4))
    curve = QuaternionCurve(controls)
    q0 = eval_quaternion_curve(curve, 0.0)
    # t=0 reproduces the first control bit for bit
    assert q0.components() == curve.controls[0].components()
    q1 = eval_quaternion_curve(curve, 1.0)
    assert quat_distance(q1, curve.controls[-1].components()) < 1e-12


def test_curve_degree_one_is_slerp():
    rng = random.Random(8)
    for _ in range(20):
        q0 = random_unit_quaternion(rng)
        q1 = random_unit_quaternion(rng)
        curve = QuaternionCurve((q0, q1))
        for t in (0.0, 0.1, 0.37, 0.5, 0.81, 1.0):
            got = eval_quaternion_curve(curve, t)
            want = slerp_reference(curve.controls[0], curve.controls[1], t)
            assert quat_distance(got, want) < 1e-12


def test_curve_constant_controls():
    rng = random.Random(2)
    q = random_unit_quaternion(rng)
    curve = QuaternionCurve((q, q, q))
    for t in (0.0, 0.3, 1.0):
        assert quat_distance(eval_quaternion_curve(curve, t), q.components()) < 1e-15


def test_curve_double_cover_flip():
    # a negated control must not send the path the long way round
    q0 = IDENTITY
    q1 = q_exp((0.0, 0.0, 0.3))
    flipped = QuaternionCurve((q0, -q1))
    direct = QuaternionCurve((q0, q1))
    for t in (0.25, 0.5, 0.75):
        a = eval_quaternion_curve(direct, t)
        b = eval_quaternion_curve(flipped, t)
        assert min(quat_distance(b, a.components()),
                   quat_distance(-b, a.components())) < 1e-13


def test_curve_antipodal_controls_rejected():
    with pytest.raises(AntipodalSingularity):
        QuaternionCurve((IDENTITY, UnitQuaternion(-1.0, 0.0, 0.0, 0.0)))


def test_curve_reversal_symmetry_degree_one():
    rng = random.Random(21)
    q0 = random_unit_quaternion(rng)
    q1 = random_unit_quaternion(rng)
    fwd = QuaternionCurve((q0, q1))
    rev = QuaternionCurve((q1, q0))
    for t in (0.0, 0.2, 0.5, 0.9, 1.0):
        a = eval_quaternion_curve(fwd, t)
        b = eval_quaternion_curve(rev, 1.0 - t)
        assert min(quat_distance(b, a.components()),
                   quat_distance(-b, a.components())) < 1e-12


def test_curve_parameter_bounds():
    curve = QuaternionCurve((IDENTITY,))
    with pytest.raises(ValueError):
        eval_quaternion_curve(curve, -0.1)
    with pytest.raises(ValueError):
        eval_quaternion_curve(curve, 1.1)
    with pytest.raises(ValueError):
        QuaternionCurve(())


# ------------------------------------------------------------ integral curves


def circle_spec():
    # rotation about z by angle s (half-angle pi*t over s_total = 2*pi)
    controls = (
        IDENTITY,
        q_exp((0.0, 0.0, math.pi / 2.0)),
        q_exp((0.0, 0.0, math.pi)),
    )
    return QiCurveSpec(
        p0=(0.0, 0.0, 0.0),
        v0=(1.0, 0.0, 0.0),
        qcurve=QuaternionCurve(controls),
        s_total=math.tau,
    )


def test_straight_line_identity():
    spec = QiCurveSpec(
        p0=(1.0, 2.0, 3.0),
        v0=(0.0, 0.0, 1.0),
        qcurve=QuaternionCurve((IDENTITY,)),
        s_total=5.0,
    )
    for s in (0.0, 1.0, 2.5, 5.0):
        p = qi_point(spec, s)
        assert max(abs(a - b) for a, b in zip(p, (1.0, 2.0, 3.0 + s))) <= 1e-12


def test_circle_spec_geometry():
    spec = circle_spec()
    # quarter point: (sin, 1-cos) of pi/2
    p = qi_point(spec, math.pi / 2.0)
    assert p == pytest.approx((1.0, 1.0, 0.0), abs=1e-10)
    # closure
    end = qi_point(spec, math.tau)
    assert math.dist(end, spec.p0) < 1e-9


def test_circle_tangent_turns_with_arclength():
    spec = circle_spec()
    for s in (0.0, 1.0, 2.0, 4.0):
        _, t = qi_frame(spec, s)
        assert t == pytest.approx((math.cos(s), math.sin(s), 0.0), abs=1e-12)


def test_frame_tangent_matches_finite_difference():
    spec = circle_spec()
    h = 1e-6
    for s in (0.5, 2.0, 5.0):
        pm = qi_point(spec, s - h, tol=1e-13)
        pp = qi_point(spec, s + h, tol=1e-13)
        fd = tuple((a - b) / (2.0 * h) for a, b in zip(pp, pm))
        _, t = qi_frame(spec, s)
        assert fd == pytest.approx(t, abs=1e-6)


def test_unit_speed_random_specs():
    rng = random.Random(20240816)
    for _ in range(10):
        degree = rng.randint(1, 4)
        controls = tuple(random_unit_quaternion(rng) for _ in range(degree + 1))
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(sum(c * c for c in v)) or 1.0
        spec = QiCurveSpec(
            p0=(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
            v0=tuple(c / n for c in v),
            qcurve=QuaternionCurve(controls),
            s_total=rng.uniform(0.5, 8.0),
        )

        def speed(u):
            q = eval_quaternion_curve(spec.qcurve, u / spec.s_total)
            t = q.rotate(spec.v0)
            return math.sqrt(sum(c * c for c in t))

        length = integrate(speed, 0.0, spec.s_total, tol=1e-12).value
        assert abs(length - spec.s_total) < 1e-9


def test_lipschitz_bound():
    spec = circle_spec()
    rng = random.Random(6)
    for _ in range(20):
        s0 = rng.uniform(0.0, spec.s_total)
        s1 = rng.uniform(0.0, spec.s_total)
        p0 = qi_point(spec, s0)
        p1 = qi_point(spec, s1)
        assert math.dist(p0, p1) <= abs(s1 - s0) + 1e-9


def test_rotation_invariance():
    rng = random.Random(40)
    r = random_unit_quaternion(rng)
    controls = tuple(random_unit_quaternion(rng) for _ in range(3))
    v0 = (0.0, 1.0, 0.0)
    base = QiCurveSpec((0.0, 0.0, 0.0), v0, QuaternionCurve(controls), 3.0)
    turned = QiCurveSpec(
        (0.0, 0.0, 0.0),
        r.rotate(v0),
        QuaternionCurve(tuple(r * q * r.inverse() for q in controls)),
        3.0,
    )
    for s in (0.5, 1.5, 3.0):
        want = r.rotate(qi_point(base, s))
        got = qi_point(turned, s)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


def test_spec_validation_and_serialization():
    with pytest.raises(ValueError):
        QiCurveSpec((0, 0, 0), (1, 1, 0), QuaternionCurve((IDENTITY,)), 1.0)
    with pytest.raises(ValueError):
        QiCurveSpec((0, 0, 0), (1, 0, 0), QuaternionCurve((IDENTITY,)), 0.0)
    spec = circle_spec()
    d = spec.as_dict()
    back = QiCurveSpec.from_dict(d)
    assert back.p0 == spec.p0
    assert back.s_total == spec.s_total
    assert all(
        a.components() == b.components()
        for a, b in zip(back.qcurve.controls, spec.qcurve.controls)
    )
    p = qi_point(back, 1.0)
    q = qi_point(spec, 1.0)
    assert p == pytest.approx(q, abs=1e-15)


def test_arc_bounds_checked():
    spec = circle_spec()
    with pytest.raises(ValueError):
        qi_point(spec, -0.1)
    with pytest.raises(ValueError):
        qi_point(spec, spec.s_total + 0.1)


# ------------------------------------------------------------ properties


def rotation_vectors(max_angle):
    """Rotation vectors (half-angle axis form) of length at most max_angle."""
    return st.tuples(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
        st.floats(0.0, max_angle),
    ).map(lambda v: tuple(v[3] * c / (math.hypot(*v[:3]) or 1.0) for c in v[:3]))


@st.composite
def quaternion_curves(draw, max_degree):
    """A random walk of controls; steps below a half turn keep neighbours
    off the antipode."""
    q = q_exp(draw(rotation_vectors(math.pi)))
    controls = [q]
    for _ in range(draw(st.integers(0, max_degree))):
        q = q * q_exp(draw(rotation_vectors(1.2)))
        controls.append(q)
    return QuaternionCurve(tuple(controls))


@st.composite
def qi_specs(draw):
    v = draw(rotation_vectors(1.0).filter(lambda v: math.hypot(*v) > 0.1))
    n = math.hypot(*v)
    return QiCurveSpec(
        p0=draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)),
        v0=tuple(c / n for c in v),
        qcurve=draw(quaternion_curves(4)),
        s_total=draw(st.floats(0.5, 8.0)),
    )


def overshoots(s_total, count):
    return s_total * (count - 1) / (count - 1) > s_total


def reference_chain(curve, t):
    """The cumulative-basis product built from UnitQuaternion products and
    q_exp, as the dataclass API computes it."""
    n = curve.degree
    q = curve.controls[0]
    acc = 1.0
    for i in range(1, n + 1):
        acc -= math.comb(n, i - 1) * t ** (i - 1) * (1.0 - t) ** (n - i + 1)
        wx, wy, wz = q_log(curve.controls[i - 1].inverse() * curve.controls[i])
        q = q * q_exp((wx * acc, wy * acc, wz * acc))
    return q


@settings(max_examples=300, deadline=None)
@given(quaternion_curves(6), st.floats(0.0, 1.0))
def test_eval_matches_dataclass_chain_bit_for_bit(curve, t):
    got = eval_quaternion_curve(curve, t)
    assert isinstance(got, UnitQuaternion)
    assert got.components() == reference_chain(curve, t).components()


@settings(max_examples=40, deadline=None)
@given(qi_specs(), st.integers(2, 40))
def test_sample_qi_matches_qi_frame(spec, count):
    if overshoots(spec.s_total, count):
        with pytest.raises(ValueError, match="s must lie in"):
            sample_qi(spec, count)
        return
    rows = sample_qi(spec, count)
    assert len(rows) == count
    tol = 1e-12
    for i, row in enumerate(rows):
        s = row[0]
        assert s == spec.s_total * i / (count - 1)
        point, tangent = qi_frame(spec, s, tol)
        assert row[4:] == tangent
        assert math.dist(row[1:4], point) <= tol * max(1.0, s)


@settings(max_examples=25, deadline=None)
@given(qi_specs(), st.integers(2, 40))
def test_cli_qi_writes_sample_qi_rows(spec, count):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        out_path = Path(tmp) / "qi.csv"
        text = json.dumps(spec.as_dict())
        spec_path.write_text(text, encoding="utf-8")
        argv = ["qi", "--spec", str(spec_path), "--n", str(count), "--out", str(out_path)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
        if overshoots(spec.s_total, count):
            assert rc == 1 and "s must lie in" in err.getvalue()
            assert not out_path.exists()
            return
        assert rc == 0, err.getvalue()
        # the spec as the CLI reads it back: from_dict normalizes v0 again
        loaded = QiCurveSpec.from_dict(json.loads(text))
        assert out_path.read_text(encoding="utf-8") == export_csv(sample_qi(loaded, count))


@settings(max_examples=60, deadline=None)
@given(qi_specs(), st.integers(2, 40))
def test_spec_json_round_trip_samples_identically(spec, count):
    loaded = QiCurveSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert loaded == spec
    if not overshoots(spec.s_total, count):
        assert sample_qi(loaded, count) == sample_qi(spec, count)
