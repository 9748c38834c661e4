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
import sys
from dataclasses import dataclass, field
from functools import partial
from operator import lt
from typing import NamedTuple

from ._fmt import Record
from .quadrature import _accumulate, _integrate_components, _stations

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
    and 1 (logarithmic spiral) snaps to the exact branch. Off those
    branches, lam * alpha and lam * (alpha - 1) must be normal doubles: the
    closed forms divide by them.
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
        lam = float(self.lam)
        if a not in (0.0, 1.0):
            products = (lam * abs(a), lam * abs(a - 1.0))
            if min(products) < sys.float_info.min:
                raise ValueError(
                    f"lam = {lam!r} is too small for alpha = {a!r}: "
                    "lam * alpha or lam * (alpha - 1) underflows"
                )
            if max(products) == math.inf:
                raise ValueError(
                    f"lam = {lam!r} is too large for alpha = {a!r}: "
                    "lam * alpha or lam * (alpha - 1) overflows"
                )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "lam", lam)

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


def _theta_kappa(eq: NaturalEquation, ss):
    """Columns (thetas, kappas) at the arc lengths ss, which the caller has
    checked (see _check_domain). The branch and its constants are taken once
    per column."""
    lam = eq.lam
    a = eq.alpha
    if a == 0.0:
        xs = [-lam * s for s in ss]
        return [-math.expm1(x) / lam for x in xs], list(map(math.exp, xs))
    # log1p keeps lam*a*s below an ulp of 1 when a is tiny
    la = lam * a
    log_ks = list(map(math.log1p, [la * s for s in ss]))
    kappas = [math.exp(-lk / a) for lk in log_ks]
    if a == 1.0:
        return [lk / lam for lk in log_ks], kappas
    # d/ds [((1 + lam*a*s)^((a-1)/a) - 1) / (lam*(a-1))] = (1 + lam*a*s)^(-1/a),
    # written with expm1/log1p so it does not cancel when lam*s, a or
    # |a - 1| is small
    c = (a - 1.0) / a
    d = lam * (a - 1.0)
    return [math.expm1(c * lk) / d for lk in log_ks], kappas


def curvature(eq: NaturalEquation, s: float) -> float:
    """kappa(s) of the natural equation."""
    _check_domain(eq, s)
    return _theta_kappa(eq, (s,))[1][0]


def turning_angle(eq: NaturalEquation, s: float) -> float:
    """theta(s) = integral of kappa from 0 to s, in closed form per branch."""
    _check_domain(eq, s)
    return _theta_kappa(eq, (s,))[0][0]


def _tangent(eq: NaturalEquation, ts):
    """Unit tangent columns (cos theta, sin theta) at the nodes ts: the
    integrand of the point. Unchecked: its callers check the end s of [0, s]."""
    thetas = _theta_kappa(eq, ts)[0]
    return list(map(math.cos, thetas)), list(map(math.sin, thetas))


def evaluate_point(eq: NaturalEquation, s: float, tol: float = 1e-12):
    """Point (x, y) at arc length s, starting at the origin with tangent +x.

    Each coordinate is within tol * max(1, s) of the curve: the one position
    contract that sample_curve and sample_qi also state. The tangent turns
    fastest near s = 0, over about 1/lambda of arc length. The adaptive
    integral starts from panels cut at 1/lambda, 2/lambda, 4/lambda, ...
    below s (none shorter than s * 2^-52), so that turn is sampled however
    long the member is.
    """
    _check_domain(eq, s)
    breaks = []
    cut = max(1.0 / eq.lam, s * 2.0**-52)
    while cut < s:
        breaks.append(cut)
        cut += cut
    rx, ry = _integrate_components(
        partial(_tangent, eq), 0.0, s, tol, breaks, scale=max(1.0, s)
    )
    return (rx.value, ry.value)


@dataclass(frozen=True)
class Pose:
    """Start position and tangent angle of a planar curve."""

    x: float = 0.0
    y: float = 0.0
    angle: float = 0.0


@dataclass(frozen=True)
class Similarity(Record):
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
        if self.scale == math.inf:
            raise ValueError("scale must be finite")
        super().__post_init__()

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


def _check_increasing(s) -> None:
    # finite differences and slopes divide by the gaps between arc lengths
    if not all(map(lt, s, s[1:])):
        raise ValueError("sample arc lengths must increase strictly")


class CurveSample(NamedTuple):
    """One station of a sampled curve: arc length, point, tangent, curvature.

    A tuple row (s, x, y, theta, kappa): it unpacks, compares and hashes as
    that 5-tuple, and formats as one CSV row without a copy."""

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
        s = [p.s for p in pts]
        if s[0] != 0.0:
            raise ValueError("samples must start at s = 0")
        _check_increasing(s)
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

    Positions come from one piecewise-Chebyshev antiderivative of the unit
    tangent over [0, s_end], evaluated at every station: the tangent is
    sampled per piece, not per station, and each station costs one short
    Clenshaw sum. Each position is within about tol * max(1, s) of the
    curve; theta and kappa are the closed forms.

    The domain is checked once per curve, not per station: the check is
    monotone in s and the stations increase from 0, so checking s_end and
    the last station (which may round an ulp away from s_end) covers every
    station and every tangent node. DomainExceeded names that arc length.
    """
    stations = _stations(0.0, s_end, count)
    if not s_end > 0.0:
        raise ValueError("s_end must be positive")
    _check_domain(eq, s_end)
    _check_domain(eq, stations[-1])
    cos_r = math.cos(pose.angle)
    sin_r = math.sin(pose.angle)
    px, py, p0 = pose.x, pose.y, pose.angle
    thetas, kappas = _theta_kappa(eq, stations)
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    row = tuple.__new__
    samples = tuple([
        row(CurveSample, (s, px + cos_r * x - sin_r * y, py + sin_r * x + cos_r * y,
                          p0 + theta, kappa))
        for s, x, y, theta, kappa in zip(
            stations, *_accumulate(partial(_tangent, eq), stations, tol), thetas, kappas
        )
    ])
    return SampledCurve(eq, samples, pose)
