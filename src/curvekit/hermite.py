"""Two-point G1 Hermite fitting with a single curve family segment.

Every problem normalizes to: start at the origin, start tangent along +x,
total turning delta_theta in (0, pi) (mirrored first if the signed turning
is negative). With the shape parameter alpha fixed, the one remaining
degree of freedom is lambda, and the chord angle psi(lambda) measured from
the start tangent is matched to the target by one bracketed root-find in
log lambda. psi is monotone in lambda, so the bracket over the reachable
lambda range holds exactly one solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_DEFAULT_BOUNDS = (1e-6, 1e6)
_REGION_POINTS = 97
_MAX_ITER = 200
# For alpha < 1 the bracket ends at (1 - _REACH_MARGIN) lambda*, where
# lambda* = 1/(delta_theta (1 - alpha)). psi steepens toward lambda*: at alpha = 0
# one ulp of lambda moves it by up to 6.7e-11 at this margin but by 4e-9 at
# 1.7e-10, so much closer in no double lambda meets fit_g1's tol = 1e-10.
_REACH_MARGIN = 1e-8


class TurningUnreachable(ValueError):
    """The requested total turning exceeds what the member can accumulate."""


class NoSolution(ValueError):
    """The target chord angle lies outside the reachable lambda bracket.

    Carries psi_target and the chord angles at the two ends of the bracket,
    psi_min and psi_max (None when no lambda reaches the turning).
    """

    def __init__(self, message, psi_target=None, psi_min=None, psi_max=None):
        super().__init__(message)
        self.psi_target = psi_target
        self.psi_min = psi_min
        self.psi_max = psi_max


class DegenerateInput(ValueError):
    """Problem admits no one-segment fit regardless of lambda."""


class EmptyRegion(ValueError):
    """No lambda within the requested bounds can reach the turning."""


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


def _check_reachable(alpha: float, lam: float, theta: float) -> None:
    """Raise TurningUnreachable unless the member turns by theta: for
    alpha < 1, unless 1 + theta*lam*(alpha-1) > 0, rounded exactly as the
    closed forms below evaluate it (no log or power of a nonpositive number)."""
    limit = turning_limit(alpha, lam)  # also rejects lam <= 0
    if alpha < 1.0 and not 1.0 + theta * lam * (alpha - 1.0) > 0.0:
        raise TurningUnreachable(
            f"turning {theta!r} unreachable for alpha = {alpha!r}, lam = {lam!r}: "
            f"limit {limit!r}"
        )


def arc_length_for_turning(alpha: float, lam: float, theta: float) -> float:
    """Invert the closed-form turning angle: the s with theta(s) = theta.

    Raises TurningUnreachable when theta is not strictly below the turning
    limit. Returns inf when the arc length overflows double precision.
    """
    if not theta >= 0.0:
        raise ValueError("theta must be nonnegative")
    if theta == 0.0:
        return 0.0
    _check_reachable(alpha, lam, theta)
    try:
        if alpha == 1.0:
            return math.expm1(lam * theta) / lam
        # s = (rho^alpha - 1)/(lam alpha), kept exact as alpha -> 0 (lam alpha underflows)
        log_rho = math.log1p(theta * lam * (alpha - 1.0)) / (alpha - 1.0)
        x = alpha * log_rho
        return log_rho / lam * (math.expm1(x) / x if x != 0.0 else 1.0)
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
    _check_reachable(alpha, lam, delta_theta)
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
    """A family segment plus the similarity placing it onto the problem.

    alternate_lambdas is always (): psi is monotone in lambda, so the
    solution is unique. The field and its JSON key stay for compatibility."""

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
    """Reachable chord angles for one (alpha, delta_theta), tabulated over
    the lambda range that fit_g1 searches."""

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


def _reach(alpha: float, delta_theta: float, lam_bounds):
    """Largest usable lambda in lam_bounds, or None when none above
    lam_bounds[0] turns by delta_theta: lam_bounds[1] for alpha >= 1, else
    at most (1 - _REACH_MARGIN) lambda*, lambda* = 1/(delta_theta (1 - alpha))."""
    lo, hi = lam_bounds
    if not 0.0 < lo < hi:
        raise ValueError("lam_bounds requires 0 < lo < hi")
    if alpha < 1.0:
        hi = min(hi, (1.0 - _REACH_MARGIN) / delta_theta / (1.0 - alpha))
    return hi if lo < hi else None


def drawable_region(
    alpha: float,
    delta_theta: float,
    lam_bounds=_DEFAULT_BOUNDS,
    count: int = _REGION_POINTS,
    tol: float = 1e-12,
) -> DrawableRegion:
    """Tabulate psi over a log grid of lam_bounds and report its range.

    Grid points at or beyond the largest usable lambda (see _reach) give way
    to that lambda, so the region covers the range fit_g1 searches."""
    if not (0.0 < delta_theta < math.pi):
        raise ValueError("delta_theta must lie in (0, pi)")
    if count < 2:
        raise ValueError("count must be at least 2")
    hi = _reach(alpha, delta_theta, lam_bounds)
    if hi is None:
        raise EmptyRegion(
            f"no lambda in [{lam_bounds[0]!r}, {lam_bounds[1]!r}] reaches "
            f"turning {delta_theta!r} for alpha = {alpha!r}"
        )
    llo, lhi = math.log(lam_bounds[0]), math.log(lam_bounds[1])
    lams = [math.exp(llo + (lhi - llo) * i / (count - 1)) for i in range(count)]
    if hi < lam_bounds[1]:
        lams = [lam for lam in lams if lam < hi] + [hi]
    samples = tuple((lam, chord_angle(alpha, lam, delta_theta, tol)) for lam in lams)
    values = [p for _, p in samples]
    return DrawableRegion(alpha, delta_theta, min(values), max(values), samples)


def _solve_log(g, a, g_a, b, g_b, tol):
    """Root of g between a and b, where g(a) = g_a and g(b) = g_b differ in sign.

    Illinois false position in log lambda: halving the g of an end kept for
    another step keeps convergence superlinear. Returns the best
    (lam, |g(lam)|) seen when |g| <= tol, the bracket stops shrinking or the
    iteration cap is hit."""
    best_lam, best_g = (a, g_a) if abs(g_a) <= abs(g_b) else (b, g_b)
    for _ in range(_MAX_ITER):
        if abs(best_g) <= tol:
            break
        la, lb = math.log(a), math.log(b)
        # exp of the interpolated log can round outside the bracket
        c = min(max(math.exp(lb - g_b * (lb - la) / (g_b - g_a)), min(a, b)), max(a, b))
        if c == a or c == b:
            break
        g_c = g(c)
        if abs(g_c) < abs(best_g):
            best_lam, best_g = c, g_c
        if (g_c < 0.0) != (g_b < 0.0):
            a, g_a = b, g_b
        else:
            g_a *= 0.5
        b, g_b = c, g_c
    return best_lam, abs(best_g)


def fit_g1(
    problem: HermiteProblem,
    tol: float = 1e-10,
    lam_bounds=_DEFAULT_BOUNDS,
) -> FittedSegment:
    """Fit one family segment to a planar G1 Hermite problem.

    psi(lambda) is monotone, so one bracketed root-find solves for the target
    chord angle, between lam_bounds[0] and the largest usable lambda:
    lam_bounds[1], or for alpha < 1 at most (1 - 1e-8) / (delta_theta (1 - alpha)).
    The residual is the remaining chord-angle mismatch in radians; it
    exceeds tol only when the root-find stalls."""
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

    lo = lam_bounds[0]
    hi = _reach(problem.alpha, delta_theta, lam_bounds)
    if hi is None:
        raise NoSolution(
            f"turning {delta_theta!r} is unreachable for every lambda in "
            f"[{lo!r}, {lam_bounds[1]!r}] at alpha = {problem.alpha!r}",
            psi_target=psi_target,
        )

    def g(lam):
        return chord_angle(problem.alpha, lam, delta_theta, quad_tol) - psi_target

    psi_lo = chord_angle(problem.alpha, lo, delta_theta, quad_tol)
    psi_hi = chord_angle(problem.alpha, hi, delta_theta, quad_tol)
    psi_min, psi_max = sorted((psi_lo, psi_hi))
    if not psi_min <= psi_target <= psi_max:
        raise NoSolution(
            f"target chord angle {psi_target!r} lies outside the drawable region "
            f"[{psi_min!r}, {psi_max!r}] for alpha = {problem.alpha!r}, turning {delta_theta!r}",
            psi_target=psi_target,
            psi_min=psi_min,
            psi_max=psi_max,
        )
    lam, residual = _solve_log(g, lo, psi_lo - psi_target, hi, psi_hi - psi_target, tol)
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
    return FittedSegment(NaturalEquation(problem.alpha, lam), s_total, transform, residual)
