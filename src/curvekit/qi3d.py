"""Unit-speed space curves driven by a quaternion rotation curve.

A curve of unit quaternions q(t) sweeps a fixed unit vector v0:

    C(s) = P0 + integral_0^s  q(u/s_total) v0 q(u/s_total)^-1  du

The tangent is the rotated v0, so |C'| = 1 and the parameter is arc
length by construction. The rotation curve is a quaternion Bezier in
cumulative basis form

    q(t) = q_0 * prod_i exp(log(q_{i-1}^-1 q_i) * Btil_i(t)),

Btil_i(t) = sum_{j>=i} B_j^n(t), which interpolates q_0 and q_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .quadrature import _accumulate, _integrate_components, _stations

__all__ = [
    "AntipodalSingularity",
    "QiCurveSpec",
    "QuaternionCurve",
    "UnitQuaternion",
    "q_exp",
    "q_log",
    "eval_quaternion_curve",
    "qi_point",
    "qi_frame",
    "sample_qi",
]


class AntipodalSingularity(ValueError):
    """log is undefined at -identity: the rotation axis is ambiguous."""


# Arithmetic on plain (w, x, y, z) tuples, shared by UnitQuaternion and by
# the tangent integrand, which builds no dataclass per node.
def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _qexp(vx: float, vy: float, vz: float):
    angle = math.sqrt(vx * vx + vy * vy + vz * vz)
    # sin(a)/a to second order keeps the map smooth through zero
    k = 1.0 - angle * angle / 6.0 if angle < 1e-12 else math.sin(angle) / angle
    return (math.cos(angle), k * vx, k * vy, k * vz)


def _rotate(q, v):
    """q v q^-1 for a unit q, expanded without a full product."""
    w, x, y, z = q
    vx, vy, vz = v
    # t = 2 q_vec x v, result = v + w t + q_vec x t
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + y * tz - z * ty,
        vy + w * ty + z * tx - x * tz,
        vz + w * tz + x * ty - y * tx,
    )


@dataclass(frozen=True)
class UnitQuaternion:
    """Quaternion kept at unit length.

    Construction renormalizes only when the norm is off by more than 1e-12,
    so products of unit quaternions keep their exact components while any
    accumulated drift self-heals within that bound.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        try:
            n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        except OverflowError:  # float ** 2 raises where float * float gives inf
            raise ValueError("quaternion components overflow when squared") from None
        if not math.isfinite(n) or n == 0.0:
            raise ValueError("quaternion components must be finite and not all zero")
        scale = 1.0 if abs(n - 1.0) <= 1e-12 else n
        if scale == 1.0 and type(self.w) is type(self.x) is type(self.y) is type(self.z) is float:
            return  # float(v) / 1.0 is v: nothing to store
        for name, v in (("w", self.w), ("x", self.x), ("y", self.y), ("z", self.z)):
            object.__setattr__(self, name, float(v) / scale)

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        return UnitQuaternion(*_qmul(self.components(), other.components()))

    def __neg__(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(self.w, -self.x, -self.y, -self.z)

    inverse = conjugate  # unit norm

    def dot(self, other: "UnitQuaternion") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def rotate(self, v):
        """Rotate a 3-vector: q v q^-1."""
        return _rotate(self.components(), v)

    def components(self):
        return (self.w, self.x, self.y, self.z)


def q_exp(v) -> UnitQuaternion:
    """Exponential of a rotation vector (half-angle axis representation)."""
    vx, vy, vz = (float(c) for c in v)
    return UnitQuaternion(*_qexp(vx, vy, vz))


def q_log(q: UnitQuaternion):
    """Principal logarithm, |log| <= pi. Undefined at -identity."""
    vn = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    if vn < 1e-15:
        if q.w < 0.0:
            raise AntipodalSingularity("log(-identity) has no preferred axis")
        return (0.0, 0.0, 0.0)
    angle = math.atan2(vn, q.w)
    k = angle / vn
    return (k * q.x, k * q.y, k * q.z)


@dataclass(frozen=True)
class QuaternionCurve:
    """Cumulative-basis quaternion Bezier through the given controls.

    Consecutive controls are sign-flipped onto the shorter arc at
    construction; exactly antipodal neighbours raise AntipodalSingularity.
    """

    controls: tuple

    def __post_init__(self):
        ctrls = tuple(self.controls)
        if not ctrls:
            raise ValueError("controls must be nonempty")
        canon = [ctrls[0]]
        for q in ctrls[1:]:
            prev = canon[-1]
            d = prev.dot(q)
            if d < 0.0:
                rel = prev.inverse() * q
                if math.sqrt(rel.x**2 + rel.y**2 + rel.z**2) < 1e-12:
                    raise AntipodalSingularity(
                        "consecutive controls are antipodal: geodesic is ambiguous"
                    )
                q = -q
            canon.append(q)
        omegas = tuple(
            q_log(canon[i].inverse() * canon[i + 1]) for i in range(len(canon) - 1)
        )
        n = len(canon) - 1
        object.__setattr__(self, "controls", tuple(canon))
        object.__setattr__(self, "_omegas", omegas)
        # per-evaluation constants of _q_at: q_0, and C(n, j) for j < n
        object.__setattr__(self, "_q0", canon[0].components())
        object.__setattr__(self, "_binom", tuple(math.comb(n, j) for j in range(n)))

    @property
    def degree(self) -> int:
        return len(self.controls) - 1


def _q_at(curve: QuaternionCurve, t: float):
    """q(t) as a (w, x, y, z) tuple, for a t in [0, 1] the caller has checked."""
    n = len(curve._omegas)
    q = curve._q0
    acc = 1.0
    for i, (wx, wy, wz) in enumerate(curve._omegas):
        # cumulative basis: the sum of B_j for j > i, B_i = C(n, i) t^i (1 - t)^(n - i)
        acc -= curve._binom[i] * t**i * (1.0 - t) ** (n - i)
        q = _qmul(q, _qexp(wx * acc, wy * acc, wz * acc))
    return q


def eval_quaternion_curve(curve: QuaternionCurve, t: float) -> UnitQuaternion:
    """q(t) for t in [0, 1]; interpolates the first and last control."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return UnitQuaternion(*_q_at(curve, t))


@dataclass(frozen=True)
class QiCurveSpec:
    """Start point, swept unit vector, rotation curve and total length."""

    p0: tuple
    v0: tuple
    qcurve: QuaternionCurve
    s_total: float

    def __post_init__(self):
        p0 = tuple(float(c) for c in self.p0)
        v0 = tuple(float(c) for c in self.v0)
        if len(p0) != 3 or not all(math.isfinite(c) for c in p0):
            raise ValueError("p0 must be a finite 3-vector")
        # |c| <= 2 also rejects nan, and keeps fsum's partial sums finite
        if len(v0) != 3 or not all(abs(c) <= 2.0 for c in v0):
            raise ValueError("v0 must be a unit 3-vector")
        n = math.sqrt(math.fsum(c * c for c in v0))
        if abs(n - 1.0) > 1e-6:
            raise ValueError("v0 must be a unit 3-vector")
        if not (math.isfinite(self.s_total) and self.s_total > 0.0):
            raise ValueError("s_total must be positive and finite")
        object.__setattr__(self, "p0", p0)
        # as UnitQuaternion: leave an already-unit v0 exact, so specs round-trip
        scale = 1.0 if abs(n - 1.0) <= 1e-12 else n
        object.__setattr__(self, "v0", tuple(c / scale for c in v0))

    def as_dict(self) -> dict:
        return {
            "p0": list(self.p0),
            "v0": list(self.v0),
            "controls": [list(q.components()) for q in self.qcurve.controls],
            "s_total": self.s_total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QiCurveSpec":
        """Inverse of as_dict. Raises ValueError naming a missing key or the
        key of a value of the wrong shape."""
        if not isinstance(data, dict):
            raise ValueError(f"spec must be a JSON object, not {type(data).__name__}")
        values = {}
        for key, read in (("controls", partial(_listed, convert=_listed)),
                          ("p0", _listed), ("v0", _listed), ("s_total", float)):
            if key not in data:
                raise ValueError(f"spec has no {key!r} key")
            try:
                values[key] = read(data[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed spec {key!r}: {exc}") from None
        if any(len(c) != 4 for c in values["controls"]):
            raise ValueError("every control must be 4 numbers w, x, y, z")
        curve = QuaternionCurve(tuple(UnitQuaternion(*c) for c in values["controls"]))
        return cls(values["p0"], values["v0"], curve, values["s_total"])


def _listed(value, convert=float):
    """A JSON list as a tuple of its entries, each through convert."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(map(convert, value))


def _check_arc(spec: QiCurveSpec, s: float) -> None:
    if not (0.0 <= s <= spec.s_total):
        raise ValueError(f"s must lie in [0, {spec.s_total!r}]")


def _tangent(spec: QiCurveSpec, ss):
    """Unit tangent columns of C'(s) = q(s / s_total) v0 at the arc lengths
    ss, on tuples: the integrand of the point. Unchecked, as in qi_point."""
    return tuple(zip(*[_rotate(_q_at(spec.qcurve, s / spec.s_total), spec.v0) for s in ss]))


def _station_tangent(spec: QiCurveSpec, s: float):
    """C'(s) at one station via eval_quaternion_curve (perfbench counts its calls)."""
    return eval_quaternion_curve(spec.qcurve, s / spec.s_total).rotate(spec.v0)


def qi_point(spec: QiCurveSpec, s: float, tol: float = 1e-12):
    """Point C(s): componentwise quadrature of the rotated direction field.

    Each coordinate is within tol * max(1, s) of the curve, the position
    contract that sample_qi and the planar samplers also state."""
    _check_arc(spec, s)
    rx, ry, rz = _integrate_components(partial(_tangent, spec), 0.0, s, tol, scale=max(1.0, s))
    return (spec.p0[0] + rx.value, spec.p0[1] + ry.value, spec.p0[2] + rz.value)


def qi_frame(spec: QiCurveSpec, s: float, tol: float = 1e-12):
    """(point, unit tangent) at arc length s."""
    return qi_point(spec, s, tol), _station_tangent(spec, s)


def sample_qi(spec: QiCurveSpec, count: int, tol: float = 1e-12):
    """Rows (s, x, y, z, tx, ty, tz) at the stations s_total * i / (count - 1).

    Points come from one piecewise-Chebyshev antiderivative of the tangent
    field, evaluated at every station, and agree with qi_frame's within
    tol * max(1, s); tangents are identical. The stations increase from 0,
    so checking the last one checks them all.
    """
    stations = _stations(0.0, spec.s_total, count)
    _check_arc(spec, stations[-1])
    px, py, pz = spec.p0
    return [
        (s, px + x, py + y, pz + z, *_station_tangent(spec, s))
        for s, x, y, z in zip(stations, *_accumulate(partial(_tangent, spec), stations, tol))
    ]
