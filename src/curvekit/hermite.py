"""Two-point G1 Hermite fitting with a single curve family segment.

Every problem normalizes to: start at the origin, start tangent along +x,
total turning delta_theta in (0, pi) (mirrored first if the signed turning
is negative). With the shape parameter alpha fixed, the one remaining
degree of freedom is lambda, and the chord angle psi(lambda) measured from
the start tangent is matched to the target by a grid scan plus bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .pseudospiral import (
    NaturalEquation,
    Pose,
    SampledCurve,
    Similarity,
    sample_curve,
)
from .quadrature import _integrate_components

__all__ = [
    "DegenerateInput",
    "DrawableRegion",
    "EmptyRegion",
    "FittedSegment",
    "HermiteProblem",
    "NoSolution",
    "TurningUnreachable",
    "arc_length_for_turning",
    "chord_angle",
    "drawable_region",
    "fit_g1",
    "turning_limit",
]

_DEFAULT_GRID = (1e-6, 1e6)
_DEFAULT_GRID_POINTS = 97
_MAX_BISECT = 200


class TurningUnreachable(ValueError):
    """The requested total turning exceeds what the member can accumulate."""


class NoSolution(ValueError):
    """No lambda bracket matches the target chord angle.

    Carries the scanned drawable bounds: psi_target, psi_min, psi_max.
    """

    def __init__(self, message, psi_target=None, psi_min=None, psi_max=None):
        super().__init__(message)
        self.psi_target = psi_target
        self.psi_min = psi_min
        self.psi_max = psi_max


class DegenerateInput(ValueError):
    """Problem admits no one-segment fit regardless of lambda."""


class EmptyRegion(ValueError):
    """No grid lambda can reach the requested turning."""


def turning_limit(alpha: float, lam: float) -> float:
    """Supremum of the total turning angle over all arc lengths.

    alpha >= 1 turns without bound; below that the bound is
    1/(lam*(1-alpha)), attained at the domain end for alpha < 0 and only
    approached for 0 <= alpha < 1.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if alpha >= 1.0:
        return math.inf
    return 1.0 / (lam * (1.0 - alpha))


def arc_length_for_turning(alpha: float, lam: float, theta: float) -> float:
    """Invert the closed-form turning angle: the s with theta(s) = theta.

    Raises TurningUnreachable when theta is not strictly below the turning
    limit. Returns inf when the arc length overflows double precision.
    """
    if not theta >= 0.0:
        raise ValueError("theta must be nonnegative")
    if theta == 0.0:
        return 0.0
    if theta >= turning_limit(alpha, lam):
        raise TurningUnreachable(
            f"turning {theta!r} is not reachable: limit for alpha = {alpha!r}, "
            f"lam = {lam!r} is {turning_limit(alpha, lam)!r}"
        )
    try:
        if alpha == 0.0:
            return -math.log1p(-lam * theta) / lam
        if alpha == 1.0:
            return math.expm1(lam * theta) / lam
        base = 1.0 + lam * (alpha - 1.0) * theta
        return (base ** (alpha / (alpha - 1.0)) - 1.0) / (lam * alpha)
    except OverflowError:
        return math.inf


def _chord_components(alpha: float, lam: float, delta_theta: float, tol: float):
    """Normalized chord integral in log-radius measured back from the end.

    Substituting ds = rho dtheta turns the endpoint integral into
    int_0^dtheta e^(i theta) rho(theta) dtheta, dominated by the large-rho
    end at extreme lambda. A second substitution u = log(rho(dth)/rho(theta))
    makes the weight exp((alpha-1)(U-u) - u)/lam: explicit exponential decay
    the panel subdivision can follow, and no overflow at any lambda. Returns
    (x, y, log_scale) with the true endpoint being e^(log_scale) * (x, y).
    """
    big = delta_theta * lam * (alpha - 1.0)
    log_ref = lam * delta_theta if alpha == 1.0 else math.log1p(big) / (alpha - 1.0)
    u_end = log_ref

    # the scaled weight is exp(-alpha u) up to a constant: clip the interval
    # where the remaining mass is below e^-45 of the peak
    a, b = 0.0, u_end
    if alpha > 0.0:
        b = min(u_end, 45.0 / alpha)
    elif alpha < 0.0:
        a = max(0.0, u_end + 45.0 / alpha)

    def f(u: float):
        back = u_end - u
        if alpha == 1.0:
            theta = delta_theta - u / lam
        else:
            theta = math.expm1((alpha - 1.0) * back) / (lam * (alpha - 1.0))
        w = math.exp((alpha - 1.0) * back - u) / lam
        return (w * math.cos(theta), w * math.sin(theta))

    rx, ry = _integrate_components(f, 2, a, b, tol)
    return rx.value, ry.value, log_ref


def chord_angle(alpha: float, lam: float, delta_theta: float, tol: float = 1e-12) -> float:
    """Angle of the chord to the segment end, measured from the start tangent.

    The segment starts at the origin with tangent +x and turns by exactly
    delta_theta. Raises TurningUnreachable when that much turning is beyond
    the member's limit.
    """
    if not (0.0 < delta_theta < math.pi):
        raise ValueError("delta_theta must lie in (0, pi)")
    if delta_theta >= turning_limit(alpha, lam):
        raise TurningUnreachable(
            f"turning {delta_theta!r} unreachable for alpha = {alpha!r}, lam = {lam!r}: "
            f"limit {turning_limit(alpha, lam)!r}"
        )
    x, y, _ = _chord_components(alpha, lam, delta_theta, tol)
    return math.atan2(y, x)


@dataclass(frozen=True)
class HermiteProblem:
    """Endpoints with unit tangents and the family shape parameter."""

    p_start: tuple
    p_end: tuple
    t_start: tuple
    t_end: tuple
    alpha: float

    def __post_init__(self):
        for name in ("p_start", "p_end", "t_start", "t_end"):
            v = tuple(float(c) for c in getattr(self, name))
            if len(v) != 2 or not all(math.isfinite(c) for c in v):
                raise ValueError(f"{name} must be a finite 2-vector")
            object.__setattr__(self, name, v)
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        for name in ("t_start", "t_end"):
            tx, ty = getattr(self, name)
            norm = math.hypot(tx, ty)
            if abs(norm - 1.0) > 1e-6:
                raise ValueError(f"{name} must be a unit vector")
            object.__setattr__(self, name, (tx / norm, ty / norm))

    def delta_theta(self) -> float:
        """Signed turning from start tangent to end tangent, in (-pi, pi]."""
        a0 = math.atan2(self.t_start[1], self.t_start[0])
        a1 = math.atan2(self.t_end[1], self.t_end[0])
        return math.remainder(a1 - a0, math.tau)

    def control_point(self):
        """Apex of the tangent triangle (intersection of the tangent lines),
        or None when the tangents are parallel."""
        px, py = self.p_start
        qx, qy = self.p_end
        ux, uy = self.t_start
        vx, vy = self.t_end
        denom = ux * vy - uy * vx
        if denom == 0.0:
            return None
        t = ((qx - px) * vy - (qy - py) * vx) / denom
        return (px + t * ux, py + t * uy)

    def as_dict(self) -> dict:
        return {
            "p_start": list(self.p_start),
            "p_end": list(self.p_end),
            "t_start": list(self.t_start),
            "t_end": list(self.t_end),
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class FittedSegment:
    """A family segment plus the similarity placing it onto the problem."""

    equation: NaturalEquation
    s_total: float
    transform: Similarity
    residual: float
    alternate_lambdas: tuple = ()

    def sample(self, count: int = 200, tol: float = 1e-12) -> SampledCurve:
        """Discretize the fitted segment in world coordinates."""
        base = sample_curve(self.equation, self.s_total, count, Pose(), tol)
        return base.transformed(self.transform)

    def as_dict(self) -> dict:
        return {
            "equation": self.equation.as_dict(),
            "s_total": self.s_total,
            "transform": self.transform.as_dict(),
            "residual": self.residual,
            "alternate_lambdas": list(self.alternate_lambdas),
        }


@dataclass(frozen=True)
class DrawableRegion:
    """Reachable chord angles for one (alpha, delta_theta) over a lambda grid."""

    alpha: float
    delta_theta: float
    psi_min: float
    psi_max: float
    boundary_samples: tuple

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "delta_theta": self.delta_theta,
            "psi_min": self.psi_min,
            "psi_max": self.psi_max,
            "boundary_samples": [list(p) for p in self.boundary_samples],
        }


def _log_grid(lo: float, hi: float, count: int):
    if not (0.0 < lo < hi) or count < 2:
        raise ValueError("grid requires 0 < lo < hi and count >= 2")
    llo = math.log(lo)
    lhi = math.log(hi)
    return [math.exp(llo + (lhi - llo) * i / (count - 1)) for i in range(count)]


def _scan_psi(alpha, delta_theta, lams, tol):
    """chord_angle over the grid; None where the turning is unreachable."""
    out = []
    for lam in lams:
        try:
            out.append(chord_angle(alpha, lam, delta_theta, tol))
        except TurningUnreachable:
            out.append(None)
    return out


def drawable_region(
    alpha: float,
    delta_theta: float,
    lam_bounds=_DEFAULT_GRID,
    count: int = _DEFAULT_GRID_POINTS,
    tol: float = 1e-12,
) -> DrawableRegion:
    """Scan the lambda grid and report the reachable chord-angle range."""
    if not (0.0 < delta_theta < math.pi):
        raise ValueError("delta_theta must lie in (0, pi)")
    lams = _log_grid(lam_bounds[0], lam_bounds[1], count)
    psis = _scan_psi(alpha, delta_theta, lams, tol)
    samples = tuple((lam, psi) for lam, psi in zip(lams, psis) if psi is not None)
    if not samples:
        raise EmptyRegion(
            f"no lambda in [{lam_bounds[0]!r}, {lam_bounds[1]!r}] reaches "
            f"turning {delta_theta!r} for alpha = {alpha!r}"
        )
    values = [p for _, p in samples]
    return DrawableRegion(alpha, delta_theta, min(values), max(values), samples)


def _bisect_bracket(alpha, delta_theta, psi_target, lo, g_lo, hi, g_hi, tol, quad_tol):
    """Bisect in log-lambda until |psi - psi_target| <= tol; best effort
    within the iteration cap."""
    if g_lo == 0.0:
        return lo, 0.0
    if g_hi == 0.0:
        return hi, 0.0
    best_lam, best_g = (lo, g_lo) if abs(g_lo) < abs(g_hi) else (hi, g_hi)
    for _ in range(_MAX_BISECT):
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break  # bracket exhausted at double precision
        g_mid = chord_angle(alpha, mid, delta_theta, quad_tol) - psi_target
        if abs(g_mid) < abs(best_g):
            best_lam, best_g = mid, g_mid
        if abs(g_mid) <= tol:
            return mid, g_mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return best_lam, best_g


def fit_g1(
    problem: HermiteProblem,
    tol: float = 1e-10,
    lam_bounds=_DEFAULT_GRID,
    grid_points: int = _DEFAULT_GRID_POINTS,
) -> FittedSegment:
    """Fit one family segment to a planar G1 Hermite problem.

    Scans psi(lambda) over a log grid for sign changes against the target
    chord angle, bisects every bracket, and returns the smallest-lambda
    solution (any other solved lambdas are listed on the result). The
    residual is the remaining chord-angle mismatch in radians.
    """
    quad_tol = min(1e-12, tol * 1e-2)
    cx = problem.p_end[0] - problem.p_start[0]
    cy = problem.p_end[1] - problem.p_start[1]
    chord = math.hypot(cx, cy)
    if chord == 0.0:
        raise DegenerateInput("chord has zero length")

    phi0 = math.atan2(problem.t_start[1], problem.t_start[0])
    d_signed = problem.delta_theta()
    if d_signed == 0.0:
        raise DegenerateInput("tangents are parallel: no turning to fit")
    if abs(d_signed) >= math.pi:
        raise DegenerateInput("|delta_theta| must be below pi")
    psi_world = math.remainder(math.atan2(cy, cx) - phi0, math.tau)
    mirror = d_signed < 0.0
    delta_theta = abs(d_signed)
    psi_target = -psi_world if mirror else psi_world

    lams = _log_grid(lam_bounds[0], lam_bounds[1], grid_points)
    psis = _scan_psi(problem.alpha, delta_theta, lams, quad_tol)
    valid = [p for p in psis if p is not None]
    if not valid:
        raise NoSolution(
            f"turning {delta_theta!r} unreachable across the whole lambda grid "
            f"for alpha = {problem.alpha!r}",
            psi_target=psi_target,
        )

    solutions = []
    for i in range(len(lams) - 1):
        g_lo = None if psis[i] is None else psis[i] - psi_target
        g_hi = None if psis[i + 1] is None else psis[i + 1] - psi_target
        if g_lo is None or g_hi is None:
            continue
        if g_lo == 0.0 or (g_lo < 0.0) != (g_hi < 0.0):
            lam, g = _bisect_bracket(
                problem.alpha, delta_theta, psi_target,
                lams[i], g_lo, lams[i + 1], g_hi, tol, quad_tol,
            )
            solutions.append((lam, abs(g)))
    if psis[-1] is not None and psis[-1] == psi_target:
        solutions.append((lams[-1], 0.0))

    if not solutions:
        raise NoSolution(
            f"target chord angle {psi_target!r} lies outside the drawable "
            f"region [{min(valid)!r}, {max(valid)!r}] scanned for "
            f"alpha = {problem.alpha!r}, turning {delta_theta!r}",
            psi_target=psi_target,
            psi_min=min(valid),
            psi_max=max(valid),
        )

    solutions.sort()
    lam, residual = solutions[0]
    s_total = arc_length_for_turning(problem.alpha, lam, delta_theta)
    ex, ey, log_ref = _chord_components(problem.alpha, lam, delta_theta, quad_tol)
    # scale maps the normalized endpoint onto the chord; computed in log
    # space because the normalized endpoint can be enormous at large lambda
    scale = chord * math.exp(-log_ref) / math.hypot(ex, ey)
    if not scale > 0.0:
        raise NoSolution(
            f"the fitted member's scale underflows double precision: at alpha = "
            f"{problem.alpha!r}, lambda = {lam!r} its normalized chord is e^{log_ref!r} long",
            psi_target=psi_target,
        )
    transform = Similarity(
        rotation=phi0,
        scale=scale,
        translation=problem.p_start,
        mirror=mirror,
    )
    return FittedSegment(
        NaturalEquation(problem.alpha, lam),
        s_total,
        transform,
        residual,
        tuple(l for l, _ in solutions[1:]),
    )
