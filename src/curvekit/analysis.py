"""Curvature-profile analysis: log-curvature lines, monotonicity, stress.

The log-curvature graph of a curve plots u = log(rho) against
v = log(rho * ds/drho), rho = 1/kappa. Family members trace the straight
line v = alpha * u - log(lambda); the fitted slope therefore recovers the
shape parameter and the intercept recovers -log(lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pseudospiral import NaturalEquation, SampledCurve, curvature

__all__ = [
    "DegenerateLcg",
    "LcgReport",
    "MonotonicityReport",
    "StressMarker",
    "lcg_analytic",
    "lcg_from_functions",
    "lcg_from_samples",
    "check_monotone",
    "stress_marker",
]


class DegenerateLcg(ValueError):
    """The log-curvature graph is undefined or underdetermined."""


@dataclass(frozen=True)
class LcgReport:
    """Fitted log-curvature line. points are (u, v) pairs; dropped counts
    stations discarded for a vanishing radius derivative."""

    points: tuple
    slope: float
    intercept: float
    rms_residual: float
    dropped: int = 0

    def as_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "slope": self.slope,
            "intercept": self.intercept,
            "rms_residual": self.rms_residual,
            "dropped": self.dropped,
        }


@dataclass(frozen=True)
class MonotonicityReport:
    """Verdict of the curvature monotonicity check.

    direction is one of "decreasing", "increasing", "constant",
    "non-monotone". violations lists (s, kappa) samples that break the
    established trend; is_monotone is true exactly when it is empty.
    """

    is_monotone: bool
    direction: str
    violations: tuple
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "is_monotone": self.is_monotone,
            "direction": self.direction,
            "violations": [list(v) for v in self.violations],
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class StressMarker:
    """Locations a designer would inspect: the curvature maximum and the
    steepest curvature change."""

    s_at_max_kappa: float
    kappa_max: float
    s_at_max_kappa_slope: float

    def as_dict(self) -> dict:
        return {
            "s_at_max_kappa": self.s_at_max_kappa,
            "kappa_max": self.kappa_max,
            "s_at_max_kappa_slope": self.s_at_max_kappa_slope,
        }


def _fit_line(points):
    """Least-squares line through (u, v) points; returns slope, intercept, rms."""
    n = len(points)
    su = math.fsum(p[0] for p in points)
    sv = math.fsum(p[1] for p in points)
    suu = math.fsum(p[0] * p[0] for p in points)
    suv = math.fsum(p[0] * p[1] for p in points)
    denom = n * suu - su * su
    if not denom > 0.0 or not math.isfinite(denom):
        raise DegenerateLcg("graph abscissae do not span an interval; cannot fit a line")
    slope = (n * suv - su * sv) / denom
    intercept = (sv - slope * su) / n
    rms = math.sqrt(
        math.fsum((p[1] - slope * p[0] - intercept) ** 2 for p in points) / n
    )
    return slope, intercept, rms


def lcg_from_functions(kappa, dkappa_ds, s_values) -> LcgReport:
    """Build the graph from closed-form curvature and its derivative.

    Raises DegenerateLcg if the radius derivative vanishes at any station
    (constant-curvature input has no log-curvature graph).
    """
    pts = []
    for s in s_values:
        k = float(kappa(s))
        dk = float(dkappa_ds(s))
        if not (math.isfinite(k) and math.isfinite(dk)) or k <= 0.0:
            raise ValueError(f"kappa must be finite and positive at s = {s!r}")
        # drho/ds = -dkappa/ds / kappa^2 vanishes iff dkappa/ds does
        if dk == 0.0:
            raise DegenerateLcg(f"drho/ds = 0 at s = {s!r}")
        u = -math.log(k)
        v = math.log(k) - math.log(abs(dk))  # log(rho * ds/drho) = log(kappa/|kappa'|)
        pts.append((u, v))
    if len(pts) < 2:
        raise DegenerateLcg("need at least two stations")
    slope, intercept, rms = _fit_line(pts)
    return LcgReport(tuple(pts), slope, intercept, rms)


def lcg_analytic(eq: NaturalEquation, s_range, count: int) -> LcgReport:
    """Graph of a family member from its closed forms, on uniform stations."""
    s0, s1 = (float(s_range[0]), float(s_range[1]))
    if not (0.0 <= s0 < s1):
        raise ValueError("s_range must satisfy 0 <= s0 < s1")
    if count < 2:
        raise ValueError("count must be at least 2")
    lam = eq.lam
    a = eq.alpha

    def dkappa(s: float) -> float:
        if a == 0.0:
            return -lam * math.exp(-lam * s)
        return -lam * (lam * a * s + 1.0) ** (-1.0 / a - 1.0)

    stations = [s0 + (s1 - s0) * i / (count - 1) for i in range(count)]
    return lcg_from_functions(lambda s: curvature(eq, s), dkappa, stations)


def _extract_s_kappa(data):
    if isinstance(data, SampledCurve):
        return [(p.s, p.kappa) for p in data.samples]
    return [(float(s), float(k)) for s, k in data]


def _slopes(s, f):
    """df/ds at every station: centered differences inside, one-sided at the ends."""
    n = len(s)
    out = [(f[1] - f[0]) / (s[1] - s[0])]
    out.extend((f[i + 1] - f[i - 1]) / (s[i + 1] - s[i - 1]) for i in range(1, n - 1))
    out.append((f[n - 1] - f[n - 2]) / (s[n - 1] - s[n - 2]))
    return out


def lcg_from_samples(data, drop_tolerance: float | None = None) -> LcgReport:
    """Build the graph from (s, kappa) samples by finite differences.

    The radius derivative uses centered differences at interior stations and
    one-sided differences at the ends. Stations where |drho/ds| falls below
    drop_tolerance are dropped and counted; fewer than three usable stations
    raise DegenerateLcg. The default tolerance scales with the radius range.
    """
    pairs = _extract_s_kappa(data)
    if len(pairs) < 3:
        raise DegenerateLcg("need at least three samples")
    for s, k in pairs:
        if not (math.isfinite(s) and math.isfinite(k)):
            raise ValueError("samples must be finite")
        if k <= 0.0:
            raise ValueError("kappa must be positive at every sample")
    s = [p[0] for p in pairs]
    rho = [1.0 / p[1] for p in pairs]
    if drop_tolerance is None:
        drop_tolerance = 1e-12 * max(rho) / (s[-1] - s[0])

    pts = []
    dropped = 0
    for r, drds in zip(rho, _slopes(s, rho)):
        if abs(drds) < drop_tolerance or drds == 0.0:
            dropped += 1
            continue
        u = math.log(r)
        v = u - math.log(abs(drds))  # log(rho / |drho/ds|)
        pts.append((u, v))
    if len(pts) < 3:
        raise DegenerateLcg(
            f"only {len(pts)} usable stations after dropping {dropped}"
        )
    slope, intercept, rms = _fit_line(pts)
    return LcgReport(tuple(pts), slope, intercept, rms, dropped)


def check_monotone(data, tolerance: float | None = None) -> MonotonicityReport:
    """Classify the curvature profile of sampled data.

    A sequence is monotone decreasing when no sample rises more than
    tolerance above the running minimum (and symmetrically for increasing);
    ranges within tolerance are constant. Otherwise the trend established
    by the first significant move from kappa[0] is reported with the
    samples that break it.
    """
    pairs = _extract_s_kappa(data)
    if len(pairs) < 2:
        raise ValueError("need at least two samples")
    kappas = [k for _, k in pairs]
    if tolerance is None:
        tolerance = 1e-12 * max(abs(k) for k in kappas)

    breaks_dec = []  # samples rising above the running minimum
    breaks_inc = []  # samples falling below the running maximum
    run_min = run_max = kappas[0]
    for s, k in pairs[1:]:
        if k > run_min + tolerance:
            breaks_dec.append((s, k))
        if k < run_max - tolerance:
            breaks_inc.append((s, k))
        run_min = min(run_min, k)
        run_max = max(run_max, k)

    if not breaks_dec and not breaks_inc:
        return MonotonicityReport(True, "constant", (), tolerance)
    if not breaks_dec:
        return MonotonicityReport(True, "decreasing", (), tolerance)
    if not breaks_inc:
        return MonotonicityReport(True, "increasing", (), tolerance)
    # Mixed: report breaks against the first significant trend.
    trend_up = True
    for _, k in pairs[1:]:
        if abs(k - kappas[0]) > tolerance:
            trend_up = k > kappas[0]
            break
    violations = tuple(breaks_inc if trend_up else breaks_dec)
    return MonotonicityReport(False, "non-monotone", violations, tolerance)


def stress_marker(data) -> StressMarker:
    """Find the curvature maximum and the steepest curvature change.

    Slopes use centered differences at interior stations, one-sided at the
    ends. Ties within 1e-12 relative resolve to the smallest arc length.
    """
    pairs = _extract_s_kappa(data)
    if len(pairs) < 3:
        raise ValueError("need at least three samples")
    s = [p[0] for p in pairs]
    kappa = [p[1] for p in pairs]

    k_max = max(kappa)
    i_max = next(i for i, k in enumerate(kappa) if k >= k_max - 1e-12 * abs(k_max))

    slopes = _slopes(s, kappa)
    worst = max(abs(v) for v in slopes)
    i_slope = next(i for i, v in enumerate(slopes) if abs(v) >= worst * (1.0 - 1e-12))

    return StressMarker(s[i_max], kappa[i_max], s[i_slope])
