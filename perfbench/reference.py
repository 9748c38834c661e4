"""Reference values computed without curvekit.

Everything here is written from the mathematical definitions, not from the
library's code: closed forms for the alpha = 1 and alpha = 2 members, a
fixed composite Gauss-Legendre rule for the other members and for chord
angles, the circle that a constant-axis quaternion sweep traces, and an
independent evaluation of the cumulative quaternion Bezier curve.
"""

from __future__ import annotations

import cmath
import math


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-17:
                break
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


_GL_X, _GL_W = _gauss_legendre(20)


def _breakpoints(a: float, b: float, width: float, graded: bool):
    """Uniform panels no wider than width. When graded, the two end panels
    are halved repeatedly down to ~1e-16 of their size, so steep or nearly
    singular behaviour at either end is resolved whatever the scale."""
    m = max(2, math.ceil((b - a) / width))
    h = (b - a) / m
    pts = {a + h * j for j in range(m)} | {b}
    for k in range(1, 54 if graded else 1):
        g = h * 0.5**k
        pts.add(a + g)
        pts.add(b - g)
    return sorted(p for p in pts if a <= p <= b)


def integrate(f, a: float, b: float, width: float = 0.5, graded: bool = True):
    """Integrate a tuple-valued f over [a, b] by composite Gauss-Legendre."""
    pts = _breakpoints(a, b, width, graded)
    terms = None
    for lo, hi in zip(pts, pts[1:]):
        c = 0.5 * (lo + hi)
        r = 0.5 * (hi - lo)
        for x, w in zip(_GL_X, _GL_W):
            vals = f(c + r * x)
            if terms is None:
                terms = [[] for _ in vals]
            for acc, v in zip(terms, vals):
                acc.append(w * r * v)
    return tuple(math.fsum(acc) for acc in terms)


# ----------------------------------------------------------- planar family


def turning(alpha: float, lam: float, s: float) -> float:
    """theta(s) = integral of kappa over [0, s] for the power-law family."""
    if alpha == 0.0:
        return -math.expm1(-lam * s) / lam
    if alpha == 1.0:
        return math.log1p(lam * s) / lam
    return ((lam * alpha * s + 1.0) ** ((alpha - 1.0) / alpha) - 1.0) / (lam * (alpha - 1.0))


def curvature(alpha: float, lam: float, s: float) -> float:
    if alpha == 0.0:
        return math.exp(-lam * s)
    return (lam * alpha * s + 1.0) ** (-1.0 / alpha)


def arc_length(alpha: float, lam: float, theta: float) -> float:
    """Arc length at which the member has turned by theta."""
    if alpha == 0.0:
        return -math.log1p(-lam * theta) / lam
    if alpha == 1.0:
        return math.expm1(lam * theta) / lam
    base = 1.0 + lam * (alpha - 1.0) * theta
    return (base ** (alpha / (alpha - 1.0)) - 1.0) / (lam * alpha)


def turning_limit(alpha: float, lam: float) -> float:
    return math.inf if alpha >= 1.0 else 1.0 / (lam * (1.0 - alpha))


def _chord(alpha: float, lam: float, big_theta: float, k_end: float):
    """Endpoint after turning big_theta, integrated over the turning angle.

    With ds = rho(theta) dtheta and 1 + lam (alpha-1) theta = kappa^(1-alpha),
    rho(theta) / rho(end) = (1 + lam (1-alpha) tau / k_end)^(1/(alpha-1))
    in tau = end - theta, where k_end = kappa(end)^(1-alpha). The weight is
    at most 1, so no lambda overflows. Returns (x, y, log rho(end)).
    """
    if alpha == 1.0:
        log_end = lam * big_theta

        def weight(tau):
            return math.exp(-lam * tau)
    else:
        log_end = math.log(k_end) / (alpha - 1.0)
        c = lam * (1.0 - alpha) / k_end

        def weight(tau):
            return math.exp(math.log1p(c * tau) / (alpha - 1.0))

    def f(tau):
        w = weight(tau)
        th = big_theta - tau
        return (w * math.cos(th), w * math.sin(th))

    x, y = integrate(f, 0.0, big_theta)
    return x, y, log_end


def chord(alpha: float, lam: float, delta_theta: float):
    """Normalized endpoint of the segment turning by delta_theta:
    (x, y, log_scale), the true endpoint being exp(log_scale) * (x, y)."""
    return _chord(alpha, lam, delta_theta, 1.0 + lam * (alpha - 1.0) * delta_theta)


def chord_angle(alpha: float, lam: float, delta_theta: float) -> float:
    x, y, _ = chord(alpha, lam, delta_theta)
    return math.atan2(y, x)


def point(alpha: float, lam: float, s: float):
    """Position at arc length s, from the origin with tangent +x."""
    if s == 0.0:
        return (0.0, 0.0)
    if alpha == 1.0:
        u = math.log1p(lam * s)
        z = (cmath.exp(complex(1.0, 1.0 / lam) * u) - 1.0) / complex(lam, 1.0)
        return (z.real, z.imag)
    if alpha == 2.0:
        c = complex(0.0, 1.0 / lam)
        r = math.sqrt(1.0 + 2.0 * lam * s)
        z = (cmath.exp(c * (r - 1.0)) * (r / c - 1.0 / c**2) - (1.0 / c - 1.0 / c**2)) / lam
        return (z.real, z.imag)
    # kappa(s)^(1-alpha), computed from s so no cancellation near a domain end
    k_end = math.exp(-lam * s) if alpha == 0.0 else (1.0 + lam * alpha * s) ** ((alpha - 1.0) / alpha)
    x, y, log_end = _chord(alpha, lam, turning(alpha, lam, s), k_end)
    scale = math.exp(log_end)
    return (scale * x, scale * y)


# ------------------------------------------------------------- quaternions


def qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def qaxis(axis, angle: float):
    """Unit quaternion of a rotation by angle about a unit axis."""
    s = math.sin(0.5 * angle)
    return (math.cos(0.5 * angle), axis[0] * s, axis[1] * s, axis[2] * s)


def qrotate(q, v):
    w = q[0]
    u = q[1:]
    uv = cross(u, v)
    uuv = cross(u, uv)
    return tuple(v[i] + 2.0 * (w * uv[i] + uuv[i]) for i in range(3))


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _half_log(q):
    """Half-angle rotation vector of a unit quaternion with w > 0."""
    vn = math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
    if vn == 0.0:
        return (0.0, 0.0, 0.0)
    k = math.atan2(vn, q[0]) / vn
    return (k * q[1], k * q[2], k * q[3])


def _half_exp(v):
    a = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    k = 1.0 if a == 0.0 else math.sin(a) / a
    return (math.cos(a), k * v[0], k * v[1], k * v[2])


class QuaternionBezier:
    """q(t) = q0 * prod_i exp(w_i * sum_{j>=i} B_j^n(t)), w_i = log(q_{i-1}^-1 q_i).

    Controls must already lie on the shorter arc (positive dot products).
    """

    def __init__(self, controls):
        self.controls = [tuple(c) for c in controls]
        self.omegas = []
        for a, b in zip(self.controls, self.controls[1:]):
            conj = (a[0], -a[1], -a[2], -a[3])
            self.omegas.append(_half_log(qmul(conj, b)))

    def __call__(self, t: float):
        n = len(self.omegas)
        q = self.controls[0]
        for i, w in enumerate(self.omegas, start=1):
            b = sum(math.comb(n, j) * t**j * (1.0 - t) ** (n - j) for j in range(i, n + 1))
            q = qmul(q, _half_exp((w[0] * b, w[1] * b, w[2] * b)))
        return q


def space_frame(curve: QuaternionBezier, p0, v0, s_total: float, s: float):
    """(point, tangent) of the unit-speed space curve at arc length s."""
    def f(u):
        return qrotate(curve(u / s_total), v0)

    if s == 0.0:
        d = (0.0, 0.0, 0.0)
    else:
        d = integrate(f, 0.0, s, width=0.25, graded=False)
    return tuple(p0[i] + d[i] for i in range(3)), f(s)


def circle_point(p0, v, w, s_total: float, s: float):
    """Point of the closed circle of length s_total through p0 with start
    tangent v, bending towards w (v, w orthonormal)."""
    r = s_total / math.tau
    phi = math.tau * s / s_total
    a = r * math.sin(phi)
    b = r * (1.0 - math.cos(phi))
    return tuple(p0[i] + a * v[i] + b * w[i] for i in range(3))
