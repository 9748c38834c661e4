"""Planar curve family with power-law monotone curvature.

Natural equation, arc length s >= 0, kappa(0) = 1:

    kappa(s) = exp(-lambda * s)              alpha = 0
    kappa(s) = (lambda*alpha*s + 1)^(-1/alpha)   otherwise

lambda > 0, so curvature decreases strictly from 1. For alpha < 0 the
equation is only defined up to s_max = -1/(lambda*alpha), where curvature
reaches zero. Positive curvature turns counterclockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from .quadrature import _accumulate, _integrate_components

__all__ = [
    "CurveSample",
    "DomainExceeded",
    "NaturalEquation",
    "Pose",
    "SampledCurve",
    "Similarity",
    "UnknownName",
    "curvature",
    "turning_angle",
    "evaluate_point",
    "sample_curve",
    "named_curve",
    "NAMED_CURVES",
]

_ALPHA_SNAP = 1e-12
_DOMAIN_GUARD = 1.0 - 1e-12  # evaluation stops just short of s_max


class DomainExceeded(ValueError):
    """Arc length outside the curve's domain of definition."""


class UnknownName(ValueError):
    """Requested named curve is not in the catalog."""


@dataclass(frozen=True)
class NaturalEquation:
    """Shape parameter alpha and slope lambda of one family member.

    alpha within 1e-12 of the special branches 0 (exponential curvature)
    and 1 (logarithmic spiral) snaps to the exact branch.
    """

    alpha: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.lam)):
            raise ValueError("alpha and lam must be finite")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        a = float(self.alpha)
        if abs(a) < _ALPHA_SNAP:
            a = 0.0
        elif abs(a - 1.0) < _ALPHA_SNAP:
            a = 1.0
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def s_max_domain(self) -> float:
        """Largest admissible arc length; +inf for alpha >= 0."""
        if self.alpha >= 0.0:
            return math.inf
        return -1.0 / (self.lam * self.alpha)

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "lambda": self.lam,
            "s_max_domain": self.s_max_domain,
        }


# name -> alpha for the classical members
NAMED_CURVES = {
    "euler": -1.0,
    "nielsen": 0.0,
    "log_spiral": 1.0,
    "involute": 2.0,
    "quasi_circle": 10.0,
}


def named_curve(name: str, lam: float) -> NaturalEquation:
    """Look up a classical family member by name."""
    try:
        alpha = NAMED_CURVES[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_CURVES))
        raise UnknownName(f"unknown curve name {name!r}; expected one of: {known}") from None
    return NaturalEquation(alpha, lam)


def _check_domain(eq: NaturalEquation, s: float) -> None:
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"arc length must be finite and >= 0, got {s!r}")
    s_max = eq.s_max_domain
    if s > _DOMAIN_GUARD * s_max:
        raise DomainExceeded(
            f"s = {s!r} exceeds the domain of alpha = {eq.alpha!r}: "
            f"s_max_domain = {s_max!r}"
        )


def curvature(eq: NaturalEquation, s: float) -> float:
    """kappa(s) of the natural equation."""
    _check_domain(eq, s)
    if eq.alpha == 0.0:
        return math.exp(-eq.lam * s)
    return (eq.lam * eq.alpha * s + 1.0) ** (-1.0 / eq.alpha)


def turning_angle(eq: NaturalEquation, s: float) -> float:
    """theta(s) = integral of kappa from 0 to s, in closed form per branch."""
    _check_domain(eq, s)
    lam = eq.lam
    a = eq.alpha
    if a == 0.0:
        return -math.expm1(-lam * s) / lam
    if a == 1.0:
        return math.log1p(lam * s) / lam
    # d/ds [((1 + lam*a*s)^((a-1)/a) - 1) / (lam*(a-1))] = (1 + lam*a*s)^(-1/a)
    return ((lam * a * s + 1.0) ** ((a - 1.0) / a) - 1.0) / (lam * (a - 1.0))


def _tangent(eq: NaturalEquation, t: float):
    """Unit tangent (cos theta, sin theta) at t: the integrand of the point."""
    th = turning_angle(eq, t)
    return (math.cos(th), math.sin(th))


def evaluate_point(eq: NaturalEquation, s: float, tol: float = 1e-12):
    """Point (x, y) at arc length s, starting at the origin with tangent +x."""
    _check_domain(eq, s)
    if s == 0.0:
        return (0.0, 0.0)
    rx, ry = _integrate_components(partial(_tangent, eq), 2, 0.0, s, tol)
    return (rx.value, ry.value)


@dataclass(frozen=True)
class Pose:
    """Start position and tangent angle of a planar curve."""

    x: float = 0.0
    y: float = 0.0
    angle: float = 0.0


@dataclass(frozen=True)
class Similarity:
    """Orientation-preserving or mirrored similarity of the plane.

    Applies as translate(rotate(scale(mirror(p)))): optional reflection
    across the x axis first, then uniform scale, rotation, translation.
    """

    rotation: float = 0.0
    scale: float = 1.0
    translation: tuple = (0.0, 0.0)
    mirror: bool = False

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")

    def apply_point(self, x: float, y: float):
        if self.mirror:
            y = -y
        c = math.cos(self.rotation)
        s = math.sin(self.rotation)
        k = self.scale
        return (
            self.translation[0] + k * (c * x - s * y),
            self.translation[1] + k * (s * x + c * y),
        )

    def apply_angle(self, theta: float) -> float:
        return self.rotation + (-theta if self.mirror else theta)

    def as_dict(self) -> dict:
        return {
            "rotation": self.rotation,
            "scale": self.scale,
            "translation": list(self.translation),
            "mirror": self.mirror,
        }


@dataclass(frozen=True)
class CurveSample:
    """One station of a sampled curve: arc length, point, tangent, curvature."""

    s: float
    x: float
    y: float
    theta: float
    kappa: float


@dataclass(frozen=True)
class SampledCurve:
    """Polyline discretization of a planar curve.

    equation is the generating natural equation, or None for hand-built
    paths (straight lines, circles). scale records the uniform factor
    relating sample arc lengths to the normalized kappa(0) = 1 equation.
    Sample arc lengths start at 0 and increase strictly; signed kappa is
    positive where the curve turns counterclockwise.
    """

    equation: NaturalEquation | None
    samples: tuple
    pose: Pose = field(default_factory=Pose)
    scale: float = 1.0

    def __post_init__(self):
        pts = tuple(self.samples)
        if not pts:
            raise ValueError("samples must be nonempty")
        if pts[0].s != 0.0:
            raise ValueError("samples must start at s = 0")
        for prev, cur in zip(pts, pts[1:]):
            if not cur.s > prev.s:
                raise ValueError("sample arc lengths must increase strictly")
        object.__setattr__(self, "samples", pts)

    @property
    def s_end(self) -> float:
        return self.samples[-1].s

    def transformed(self, sim: Similarity) -> "SampledCurve":
        """Apply a similarity: s scales, kappa scales inversely and flips
        sign under mirroring, angles follow the transform."""
        k = sim.scale
        sign = -1.0 if sim.mirror else 1.0
        out = []
        for p in self.samples:
            x, y = sim.apply_point(p.x, p.y)
            out.append(
                CurveSample(p.s * k, x, y, sim.apply_angle(p.theta), sign * p.kappa / k)
            )
        first = out[0]
        return SampledCurve(
            self.equation,
            tuple(out),
            Pose(first.x, first.y, first.theta),
            self.scale * k,
        )


def sample_curve(
    eq: NaturalEquation,
    s_end: float,
    count: int,
    pose: Pose = Pose(),
    tol: float = 1e-12,
) -> SampledCurve:
    """Sample the curve at count uniform arc-length stations on [0, s_end].

    Positions accumulate incrementally, one quadrature per station gap, so
    the cost is linear in count.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if not s_end > 0.0:
        raise ValueError("s_end must be positive")
    _check_domain(eq, s_end)
    cos_r = math.cos(pose.angle)
    sin_r = math.sin(pose.angle)
    stations = [s_end * i / (count - 1) for i in range(count)]
    samples = []
    for s, (x, y) in _accumulate(partial(_tangent, eq), 2, stations, tol):
        wx = pose.x + cos_r * x - sin_r * y
        wy = pose.y + sin_r * x + cos_r * y
        samples.append(
            CurveSample(s, wx, wy, pose.angle + turning_angle(eq, s), curvature(eq, s))
        )
    return SampledCurve(eq, tuple(samples), pose)
