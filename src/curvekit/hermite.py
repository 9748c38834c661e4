"""Two-point G1 Hermite fitting with a single curve family segment.

Every problem normalizes to: start at the origin, start tangent along +x,
total turning delta_theta in (0, pi) (mirrored first if the signed turning
is negative). With the shape parameter alpha fixed, the one remaining
degree of freedom is lambda, and the chord angle psi(lambda) measured from
the start tangent is matched to the target by one bracketed root-find
(Chandrupatla's method) in log lambda, or for alpha < 1 in
log(lambda / (1 - lambda/lambda*)). psi is monotone in lambda, so the
bracket over the reachable lambda range holds exactly one solution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import cos, exp, expm1, sin
from operator import lt

from ._fmt import Record
from .pseudospiral import (
    NaturalEquation,
    Pose,
    SampledCurve,
    Similarity,
    sample_curve,
)
from .quadrature import _check_tol, _integrate_components, _stations

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
# 1/(2k+1)! from k = 9 down to 0: sinh(v)/v = sum_k (v^2)^k/(2k+1)!, within
# rounding for |v^2| < 1
_SINHC = tuple(1 / math.factorial(n) for n in range(19, 0, -2))
# (x, y) coefficients from k = 10 down to 1 of the involute's chord per unit
# lambda, within rounding for t^2 < 1: t sin t + cos t - 1 = t^2 sum_k
# (-1)^(k+1) (2k-1)/(2k)! t^(2k-2) and sin t - t cos t = t^3 sum_k
# (-1)^(k+1) 2k/(2k+1)! t^(2k-2)
_INVOLUTE = tuple(
    ((-1) ** (k + 1) * (2 * k - 1) / math.factorial(2 * k),
     (-1) ** (k + 1) * 2 * k / math.factorial(2 * k + 1))
    for k in range(10, 0, -1)
)


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
    approached for 0 <= alpha < 1; where that product overflows, the bound
    is 1/lam/(1-alpha), still positive. The module's one member check:
    finite lam > 0 and alpha, normal lam and lam * |alpha - 1| (off
    alpha = 1), else ValueError.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if lam == math.inf:
        raise ValueError("lam must be finite")
    if lam < sys.float_info.min or (
        alpha != 1.0 and lam * abs(alpha - 1.0) < sys.float_info.min
    ):
        raise ValueError(
            f"lam = {lam!r} is too small for alpha = {alpha!r}: "
            "lam or lam * (alpha - 1) underflows"
        )
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha >= 1.0:
        return math.inf
    d = lam * (1.0 - alpha)
    # past the largest double the product overflows and 1/d would be 0.0
    return 1.0 / d if d < math.inf else 1.0 / lam / (1.0 - alpha)


def _check_reachable(alpha: float, lam: float, theta: float) -> None:
    """Raise TurningUnreachable unless the member turns by theta: for
    alpha < 1, unless 1 + theta*lam*(alpha-1) > 0, rounded exactly as the
    closed forms below evaluate it (no log or power of a nonpositive number)."""
    limit = turning_limit(alpha, lam)  # also checks the member
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
    _check_reachable(alpha, lam, theta)
    try:
        if alpha == 1.0:
            return math.expm1(lam * theta) / lam
        # s = (rho^alpha - 1)/(lam alpha), kept exact as alpha -> 0 (lam alpha underflows)
        log_rho = math.log1p(theta * lam * (alpha - 1.0)) / (alpha - 1.0)
        if log_rho == math.inf:  # theta * lam * (alpha - 1) overflows; expm1(x) / x is nan
            return math.inf
        x = alpha * log_rho
        return log_rho / lam * (math.expm1(x) / x if x != 0.0 else 1.0)
    except OverflowError:
        return math.inf


def _chord_turn(alpha: float, lam: float, delta_theta: float):
    """alpha - 1, lam (alpha - 1) and delta_theta lam (alpha - 1); ValueError on +inf."""
    am1 = alpha - 1.0
    lam_am1, turn = lam * am1, delta_theta * lam * am1
    if not (lam_am1 < math.inf and turn < math.inf):
        raise ValueError(
            f"lam = {lam!r} is too large for alpha = {alpha!r} and turning "
            f"{delta_theta!r}: lam * (alpha - 1) or delta_theta * lam * (alpha - 1) overflows"
        )
    return am1, lam_am1, turn


def _chord_integrand(alpha: float, lam: float, delta_theta: float):
    """Normalized chord integrand in log-radius measured back from the end,
    for alpha != 1 (_chord_fn integrates it below alpha = 1; above,
    it stays the tests' reference).

    Substituting ds = rho dtheta turns the endpoint integral into
    int_0^dtheta e^(i theta) rho(theta) dtheta, dominated by the large-rho
    end at extreme lambda. A second substitution u = log(rho(dth)/rho(theta))
    makes the weight exp((alpha-1)(U-u) - u)/lam: explicit exponential decay
    the panel subdivision can follow, and no overflow at any lambda. Returns
    (f, a, b, log_scale): the true endpoint is e^(log_scale) times the
    integral of the two columns of f over [a, b]. Raises ValueError when
    lam * (alpha - 1) or delta_theta * lam * (alpha - 1) overflows to +inf
    (alpha > 1): theta would be 0 at every node, or a node would reach
    cos(inf). Below alpha = 1 a reachable turning keeps the second product
    above -1, and where the first is -inf, theta is within a subnormal of 0.
    """
    am1, lam_am1, turn = _chord_turn(alpha, lam, delta_theta)
    u_end = math.log1p(turn) / am1

    # the scaled weight is exp(-alpha u) up to a constant: clip the interval
    # where the remaining mass is below e^-45 of the peak
    a, b = 0.0, u_end
    if alpha > 0.0:
        b = min(u_end, 45.0 / alpha)
    elif alpha < 0.0:
        a = max(0.0, u_end + 45.0 / alpha)

    def f(us):
        # one pass per node: v = (alpha-1)(U-u) serves theta and the weight
        xs, ys = [], []
        for u in us:
            v = am1 * (u_end - u)
            theta = expm1(v) / lam_am1
            w = exp(v - u) / lam
            xs.append(w * cos(theta))
            ys.append(w * sin(theta))
        return xs, ys

    return f, a, b, u_end


def _chord_series(alpha: float, lam: float, delta_theta: float):
    """(x, y, log_scale) of the chord for alpha > 1, by a moment recurrence.

    With c = lam (alpha-1), p = 1/(alpha-1), T = 1 + c dth and kappa = c/T,
    the normalized chord about the peak end t = dth - theta = 0 is e^(i dth)
    sum_n (-i)^n K_n, K_n = int_0^dth t^n/n! (1 - kappa t)^p dt; by parts,
    kappa (n+p+1) K_n = K_(n-1) - dth^n/n! T^-(p+1). It runs forward from K_0
    while the running products of 1/(kappa (j+p+1)), an error's growth, stay
    within 4 min(1, dth) (the odd terms are of order dth), to the first
    dth^N/N! below tiny = 2^-56 min(1, dth); else backward from K_N = 0, N
    grown until dth^N/N! times the product of max(1, kappa (j+p+1)), a bound
    on the start's error carried back down, is below tiny."""
    am1, lam_am1, turn = _chord_turn(alpha, lam, delta_theta)
    log_t = math.log1p(turn)
    log_scale = log_t / am1
    q = log_scale + log_t  # (p + 1) log T
    p1, kappa = 1.0 / am1 + 1.0, lam_am1 / (1.0 + turn)
    limit, tiny = 4.0 * min(1.0, delta_theta), 2.0**-56 * min(1.0, delta_theta)
    terms, bound, prod, forward, n = [1.0], 1.0, 1.0, True, 0  # terms: dth^n/n!
    while bound > tiny:
        n += 1
        f = kappa * (n + p1)
        terms.append(terms[-1] * delta_theta / n)
        if forward:
            prod /= f
            forward = prod <= limit
        bound *= delta_theta / n if forward else delta_theta / n * max(1.0, f)
    tail = exp(-q)  # T^-(p+1)
    if forward:
        ks = [-expm1(-q) / (kappa * p1)]
        for j in range(1, n + 1):
            ks.append((ks[-1] - terms[j] * tail) / (kappa * (j + p1)))
    else:
        ks = [0.0]
        for j in range(n, 0, -1):
            ks.append(kappa * (j + p1) * ks[-1] + terms[j] * tail)
        ks.reverse()
    sr = math.fsum(ks[0::4] + [-k for k in ks[2::4]])
    si = math.fsum(ks[3::4] + [-k for k in ks[1::4]])
    c, s = cos(delta_theta), sin(delta_theta)
    return c * sr - s * si, s * sr + c * si, log_scale


def _chord_fn(alpha: float, delta_theta: float, tol: float):
    """The chord of the members of one alpha that turn by delta_theta, as a
    function lam -> (x, y, log_scale): the true endpoint is e^(log_scale) *
    (x, y). tol is checked, and every factor free of lam computed, once.

    The one place the chord branches on alpha. The log spiral (alpha = 1)
    has the closed form P = (e^((lam+i) dth) - 1)/(lam + i), so no integral
    runs there and tol is only checked: log_scale is lam dth, and
    x + iy = (e^(i dth) - e^(-lam dth))/(lam + i). Its real numerator is
    written as -2 sin^2(dth/2) - expm1(-lam dth), against cancellation, and
    divided by Smith's method in real arithmetic, so the bits do not depend
    on how an interpreter divides complex numbers. Where |v| < 1 for
    v = (lam + i) dth/2, that division would cancel y, of order dth^2, from
    terms of order lam dth: there x + iy = dth e^(-lam dth/2) e^(i dth/2)
    sinh(v)/v, summed as a series in v^2 whose two terms of y are both
    positive. psi, y and x (relative to |P|) stay within 3 ulps.

    The circle involute (alpha = 2, rho = 1 + lam theta) has P = sin dth +
    i 2 sin^2(dth/2) + lam (cx + i cy), with cx = dth sin dth + cos dth - 1
    and cy = sin dth - dth cos dth. log_scale is log1p(lam dth), the
    integral's u_end, and x + iy = P/(1 + lam dth), with numerator and
    denominator divided by lam for lam >= 1, so no finite lam overflows.
    Below dth = 1, cx and cy are summed as their series in dth^2: computed
    directly, cy takes its dth^3/3 from terms of order dth. psi was within
    4.05 ulps of 40-digit values on 20,000 sampled pairs. Any other alpha > 1
    sums _chord_series, and alpha < 1 integrates _chord_integrand to tol."""
    _check_tol(tol)  # at every alpha, whether or not an integral runs
    if alpha == 1.0:
        t = 0.5 * delta_theta
        tt, c, h = t * t, cos(t), sin(t)
        nx0, ny = -2.0 * h * h, sin(delta_theta)
        sinhc = _SINHC[1:]

        def log_spiral(lam):
            log_scale = lam * delta_theta
            a = 0.5 * log_scale
            if a * a + tt < 1.0:
                # sinh(v)/v = sr + i si, Horner in z = v^2 = (a + it)^2
                zr, zi = a * a - tt, 2.0 * a * t
                sr, si = _SINHC[0], 0.0
                for q in sinhc:
                    sr, si = sr * zr - si * zi + q, sr * zi + si * zr
                k = delta_theta * exp(-a)
                return k * (c * sr - h * si), k * (h * sr + c * si), log_scale
            nx = nx0 - expm1(-log_scale)
            if lam >= 1.0:
                r = 1.0 / lam
                d = lam + r
                return (nx + ny * r) / d, (ny - nx * r) / d, log_scale
            d = lam * lam + 1.0
            return (nx * lam + ny) / d, (ny * lam - nx) / d, log_scale

        return log_spiral
    if alpha == 2.0:
        t = delta_theta
        s, h = sin(t), sin(0.5 * t)
        v = 2.0 * h * h  # 1 - cos t
        if t < 1.0:
            z = t * t
            px = py = 0.0
            for qx, qy in _INVOLUTE:
                px, py = px * z + qx, py * z + qy
            cx, cy = z * px, z * t * py
        else:
            cx, cy = t * s - v, s - t * cos(t)

        def involute(lam):
            log_scale = math.log1p(lam * t)
            if lam >= 1.0:
                r = 1.0 / lam
                d = r + t
                return (s * r + cx) / d, (v * r + cy) / d, log_scale
            d = 1.0 + lam * t
            return (s + lam * cx) / d, (v + lam * cy) / d, log_scale

        return involute
    if alpha > 1.0:
        return lambda lam: _chord_series(alpha, lam, delta_theta)

    def integral(lam):
        f, a, b, log_scale = _chord_integrand(alpha, lam, delta_theta)
        rx, ry = _integrate_components(f, a, b, tol)
        return rx.value, ry.value, log_scale

    return integral


def _chord_components(alpha: float, lam: float, delta_theta: float, tol: float):
    """(x, y, log_scale) of the chord at one lam: _chord_fn's, for callers
    that evaluate one lambda per (alpha, delta_theta)."""
    return _chord_fn(alpha, delta_theta, tol)(lam)


def chord_angle(alpha: float, lam: float, delta_theta: float, tol: float = 1e-12) -> float:
    """Angle of the chord to the segment end, measured from the start tangent.

    The segment starts at the origin with tangent +x and turns by exactly
    delta_theta. The chord is integrated to tol for alpha < 1; at alpha >= 1
    it is a closed form or a series that integrates nothing (see
    _chord_fn); tol must be positive and finite either way. Raises
    TurningUnreachable when that much turning is beyond the member's limit,
    and ValueError on a member turning_limit rejects.
    """
    if not (0.0 < delta_theta < math.pi):
        raise ValueError("delta_theta must lie in (0, pi)")
    _check_reachable(alpha, lam, delta_theta)
    x, y, _ = _chord_components(alpha, lam, delta_theta, tol)
    return math.atan2(y, x)


@dataclass(frozen=True)
class HermiteProblem(Record):
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


@dataclass(frozen=True)
class FittedSegment(Record):
    """A family segment plus the similarity placing it onto the problem.

    alternate_lambdas is always (): psi is monotone in lambda, so the
    solution is unique. The field and its JSON key stay for compatibility.
    converged is whether the residual meets the fit's tol; fit_g1 returns
    its best lambda either way."""

    equation: NaturalEquation
    s_total: float
    transform: Similarity
    residual: float
    alternate_lambdas: tuple = ()
    converged: bool = True

    def sample(self, count: int = 200, tol: float = 1e-12) -> SampledCurve:
        """Discretize the fitted segment in world coordinates."""
        base = sample_curve(self.equation, self.s_total, count, Pose(), tol)
        return base.transformed(self.transform)


@dataclass(frozen=True)
class DrawableRegion(Record):
    """Reachable chord angles for one (alpha, delta_theta), tabulated over
    the lambda range that fit_g1 searches."""

    alpha: float
    delta_theta: float
    psi_min: float
    psi_max: float
    boundary_samples: tuple


def _reach(alpha: float, delta_theta: float, lam_bounds):
    """Largest usable lambda in lam_bounds, or None when none above
    lam_bounds[0] turns by delta_theta: lam_bounds[1] for alpha >= 1, else
    at most (1 - _REACH_MARGIN) lambda*, lambda* = 1/(delta_theta (1 - alpha))."""
    lo, hi = lam_bounds
    if not 0.0 < lo < hi:
        raise ValueError("lam_bounds requires 0 < lo < hi")
    if hi == math.inf:
        raise ValueError("lam_bounds must be finite")
    turning_limit(alpha, lo)  # checks lo: every lambda searched or tabulated is at least lo
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
    to that lambda, so the region covers the range fit_g1 searches. Every
    row is chord_angle's psi at its lambda, to the bit; at alpha >= 1 no
    integral runs."""
    if not (0.0 < delta_theta < math.pi):
        raise ValueError("delta_theta must lie in (0, pi)")
    hi = _reach(alpha, delta_theta, lam_bounds)
    # bad bounds are reported before a bad count, a bad count before a grid
    # whose distinct logs exp rounds to one lambda, that before an empty region
    lams = [math.exp(v) for v in _stations(*map(math.log, lam_bounds), count)]
    if not all(map(lt, lams, lams[1:])):
        raise ValueError(
            f"[{lam_bounds[0]!r}, {lam_bounds[1]!r}] is too short for {count} distinct lambdas"
        )
    if hi is None:
        raise EmptyRegion(
            f"no lambda in [{lam_bounds[0]!r}, {lam_bounds[1]!r}] reaches "
            f"turning {delta_theta!r} for alpha = {alpha!r}"
        )
    if hi < lam_bounds[1]:
        lams = [lam for lam in lams if lam < hi] + [hi]
    # no lambda is past the reach, so each member turns by delta_theta
    chords = map(_chord_fn(alpha, delta_theta, tol), lams)
    values = [math.atan2(y, x) for x, y, _ in chords]
    samples = tuple(zip(lams, values))
    return DrawableRegion(alpha, delta_theta, min(values), max(values), samples)


def _solve_log(g, a, g_a, b, far, tol, k, guess):
    """Root of g between a < b, where g(a) = g_a and far() returns g(b).

    Chandrupatla's method (Adv. Eng. Software 28(3):145-149, 1997): an inverse
    quadratic step through the last three points when its xi/phi test finds
    the interpolant monotone there, a bisection otherwise. It runs in
    x = log(lambda / (1 - k lambda)), so lambda = 1/(e^-x + k), where k is
    1/lambda* for a member of limited turning (alpha < 1) and 0 otherwise,
    making x plain log lambda. For alpha < 1 psi varies smoothly in
    log(1 - lambda/lambda*), so x spreads out the bracket end at the reach,
    where in log lambda psi is steepest and the steps crawl toward a root
    there.

    The first step is at guess, a lambda inside (a, b), or with no guess at
    the midpoint of [a, b] in x. far() is called once, and only when g there
    has g_a's sign: the root then lies beyond it, and a root in the lower
    half never costs g(b). The method restarts on the half that holds the
    root with a bisection, or after a guess with a secant step through a and
    the guess where that lands inside the half: below the guess in lambda,
    where psi's first-order term leads, and beyond it in x. Returns the best
    (lam, |g(lam)|) seen when |g| <= tol, the bracket stops shrinking or the
    iteration cap is hit; the first step is always taken."""
    lo, hi = a, b
    xa, xb = (math.log(lam) - math.log1p(-k * lam) for lam in (a, b))
    x_lo, g_lo = xa, g_a
    best_lam, best_g = a, g_a
    if guess is None:
        x = xa + 0.5 * (xb - xa)
        lam = min(max(1.0 / (exp(-x) + k), lo), hi)
    else:
        x, lam = math.log(guess) - math.log1p(-k * guess), guess
    g_t = g(lam)
    if abs(g_t) < abs(best_g):
        best_lam, best_g = lam, g_t
    below = (g_t < 0.0) != (g_a < 0.0)
    if below:
        xb, g_b, b = xa, g_a, a
    else:
        g_b = far()
        if abs(g_b) < abs(best_g):
            best_lam, best_g = b, g_b
    xa, g_a, a = x, g_t, lam
    x = xa + 0.5 * (xb - xa)
    if guess is not None and g_a != g_lo:
        if below:
            lam_s = a + g_a / (g_a - g_lo) * (lo - a)
            if lo < lam_s < a:
                x = math.log(lam_s) - math.log1p(-k * lam_s)
        else:
            # past the guess the secant runs on beyond it, where one to the
            # far end, decades away on psi's flat tail, would stop short of
            # the root and leave the method to bisect
            x_s = xa + g_a / (g_a - g_lo) * (x_lo - xa)
            if xa < x_s < xb:
                x = x_s
    for _ in range(_MAX_ITER - 1):
        # the inverse map can round outside the bracket
        lam = min(max(1.0 / (exp(-x) + k), lo), hi)
        if abs(best_g) <= tol or lam == a or lam == b:
            break
        g_t = g(lam)
        if abs(g_t) < abs(best_g):
            best_lam, best_g = lam, g_t
        # a is the new point and b the other bracket end; c is the point
        # just dropped from the bracket
        if (g_t < 0.0) == (g_a < 0.0):
            xc, g_c = xa, g_a
        else:
            xc, g_c = xb, g_b
            xb, g_b, b = xa, g_a, a
        xa, g_a, a = x, g_t, lam
        xi = (xa - xb) / (xc - xb)
        phi = (g_a - g_b) / (g_c - g_b)
        # the test fails wherever a divisor of the quadratic step is zero
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = (g_a / (g_b - g_a) * g_c / (g_b - g_c)
                 + (xc - xa) / (xb - xa) * g_a / (g_c - g_a) * g_b / (g_c - g_b))
        else:
            t = 0.5
        x = xa + t * (xb - xa)
    return best_lam, abs(best_g)


def fit_g1(
    problem: HermiteProblem,
    tol: float = 1e-10,
    lam_bounds=_DEFAULT_BOUNDS,
) -> FittedSegment:
    """Fit one family segment to a planar G1 Hermite problem.

    psi(lambda) is monotone, so one bracketed root-find solves for the target
    chord angle, between lam_bounds[0] and the largest usable lambda:
    lam_bounds[1], or for alpha < 1 at most (1 - 1e-8) lambda*, where
    lambda* = 1/(delta_theta (1 - alpha)). The root-find (see _solve_log)
    stops at the first step within tol, so the residual, the remaining
    chord-angle mismatch in radians, is often just under tol; it exceeds
    tol only when the root-find stalls, and then converged is False. It
    starts where psi's second-order expansion in lambda meets the target,
    when that lies inside the bracket. The far end's chord angle is
    integrated only when the root lies beyond the root-find's first step,
    and only then is the target checked against the drawable region: a
    target outside it raises NoSolution with the chord angles at both ends."""
    _check_tol(tol)
    # below tol = 2.5e-322 the hundredth underflows to 0.0; the least
    # subnormal is as good there, since the integrals' error floor binds
    quad_tol = max(min(1e-12, tol * 1e-2), math.ulp(0.0))
    cx = problem.p_end[0] - problem.p_start[0]
    cy = problem.p_end[1] - problem.p_start[1]
    chord = math.hypot(cx, cy)
    if chord == math.inf:
        raise ValueError(f"the chord from {problem.p_start!r} to {problem.p_end!r} "
                         "overflows double precision")
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

    chords = {}  # lambda -> (x, y, log_scale) at each root-finding step

    def g(lam):
        # chord_angle without its reach check: lam lies inside [lo, hi]
        x, y, _ = chords[lam] = _chord_components(problem.alpha, lam, delta_theta, quad_tol)
        return math.atan2(y, x) - psi_target

    psi_lo = chord_angle(problem.alpha, lo, delta_theta, quad_tol)

    def far():
        # g at the far end, once the root lies beyond the first step: the
        # target is inside the region or no lambda meets it
        psi_hi = chord_angle(problem.alpha, hi, delta_theta, quad_tol)
        psi_min, psi_max = sorted((psi_lo, psi_hi))
        if not psi_min <= psi_target <= psi_max:
            raise NoSolution(
                f"target chord angle {psi_target!r} lies outside the drawable region "
                f"[{psi_min!r}, {psi_max!r}] for alpha = {problem.alpha!r}, "
                f"turning {delta_theta!r}",
                psi_target=psi_target,
                psi_min=psi_min,
                psi_max=psi_max,
            )
        return psi_hi - psi_target

    # for every alpha, psi = h + lambda slope (1 + lambda d/2) + O(lambda^3),
    # with h = delta_theta/2, slope = 1 - h cot h (summed as its series below
    # delta_theta = 0.1, against cancellation) and d = delta_theta (1 - alpha).
    # The root-find starts at that parabola's root, 2 lambda0/(1 + sqrt(1 +
    # 2 d lambda0)) with lambda0 the line's, or at lambda0 where the target
    # lies past the parabola's apex (alpha > 1), when the slope is a normal
    # double and the start lies inside the bracket and below 1/|d| (lambda*
    # below alpha = 1); else at the bracket's midpoint.
    h = 0.5 * delta_theta
    if delta_theta < 0.1:
        z = delta_theta * delta_theta
        slope = z * (1.0 / 12.0 + z * (1.0 / 720.0 + z / 30240.0))
    else:
        slope = 1.0 - h / math.tan(h)
    d = delta_theta * (1.0 - problem.alpha)
    guess = None
    if slope >= sys.float_info.min:
        lam0 = (psi_target - h) / slope
        disc = 1.0 + 2.0 * d * lam0
        guess = 2.0 * lam0 / (1.0 + math.sqrt(disc)) if disc >= 0.0 else lam0
        if not (lo < guess < hi and guess * abs(d) < 1.0):
            guess = None
    k = max(0.0, d)  # 1/lambda* for alpha < 1
    lam, residual = _solve_log(g, lo, psi_lo - psi_target, hi, far, tol, k, guess)
    s_total = arc_length_for_turning(problem.alpha, lam, delta_theta)
    # the returned lambda is a root-finding step, or else a bracket end
    ex, ey, log_ref = chords.get(lam) or _chord_components(
        problem.alpha, lam, delta_theta, quad_tol)
    norm = math.hypot(ex, ey)
    # a turning of a few subnormals: an empty chord integral, or a subnormal
    # closed-form chord whose reciprocal overflows the scale
    if norm < sys.float_info.min:
        raise DegenerateInput(f"turning {delta_theta!r} is too small to fit: the "
                              f"normalized chord underflows at lambda = {lam!r}")
    # scale maps the normalized endpoint onto the chord; computed in log
    # space because the normalized endpoint can be enormous at large lambda
    scale = chord * math.exp(-log_ref) / norm
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
    return FittedSegment(NaturalEquation(problem.alpha, lam), s_total, transform, residual,
                         converged=residual <= tol)
