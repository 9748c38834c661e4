"""The four workloads: seeded operation lists, the timed call of each
operation, and the check of its output against an independent reference.

Each workload is a closed loop with one client: the runner calls one
operation at a time and starts the next when it returns. build() draws
every input from the seed, stratified so that each run does about the same
amount of work whatever the seed. No drawn input is filtered out; the known
defects (ROADMAP items 2, 3 and 4) that some inputs hit are recognized by
their signature and counted as failures (see KNOWN_DEFECTS).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET

import reference as ref

ALPHAS = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0)
TOL_QUAD = 1e-12  # default tol of sample_curve, chord_angle, drawable_region, qi_point
TOL_FIT = 1e-10  # default chord-angle tol of fit_g1 and `curvekit fit`
TOL_LCG = 1e-3  # the benchmark's own tolerance on an LCG slope from samples
EPS = 2.220446049250313e-16
# fit_g1's default lambda grid: 97 log-spaced points over [1e-6, 1e6]
_GRID = tuple(math.exp(math.log(1e-6) + (math.log(1e6) - math.log(1e-6)) * i / 96) for i in range(97))

KNOWN_DEFECTS = {
    "gap": "ROADMAP item 2: lambda lies between the last reachable grid point and "
           "lambda* = 1/(dtheta (1 - alpha)), so the grid scan raises NoSolution",
    "unconverged": "ROADMAP item 4: fit_g1 returns a best-effort root whose own residual "
                   "exceeds tol, and says nothing",
    "overshoot": "ROADMAP item 3: s_total * (n-1) / (n-1) rounds above s_total, so the "
                 "last station fails the arc-length check and `qi` exits 1",
}


class Op:
    """One operation: call() is timed; digest() and check() are not.

    check(out) returns (err_to_tol, problem, defect): err_to_tol is the
    worst deviation from the reference over the stated tolerance (None if
    not applicable), problem describes a failure (None if the output is
    right), and defect names the known defect the failure matches.
    """

    def __init__(self, name, call, check, digest=None, collect=None):
        self.name = name
        self.call = call
        self.check = check
        self.digest = digest or _digest_value
        self.collect = collect


class Context:
    """Paths and switches shared by the operations of one run."""

    def __init__(self, root: str, tmp: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.tmp = tmp
        self.python = sys.executable
        self.launcher = os.path.join(root, "perfbench", "launch.py")
        self.env = {k: v for k, v in os.environ.items() if k != "CURVEKIT_OUT_DIR"}
        self.env["PYTHONPATH"] = self.src  # absolute: children run in tmp
        self.traced = False  # cli_cold children run under launch.py when set
        self.child_rss_kb = 0

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)


def _digest_value(out) -> str:
    if isinstance(out, Exception):
        text = f"{type(out).__name__}: {out}"
    elif isinstance(out, str):
        text = out
    else:
        text = repr(out.as_dict())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _strata(rng, lo, hi, k, log=False):
    """k draws, the j-th uniform in the j-th of k equal slices of [lo, hi]."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    vals = [lo + (hi - lo) * (j + rng.random()) / k for j in range(k)]
    return [math.exp(v) for v in vals] if log else vals


def _raised(out):
    return f"raised {type(out).__name__}: {out}"


def _arc_end(rng_theta, alpha, lam, frac):
    """Arc length for a drawn turning; for alpha < 0 a fraction of the domain."""
    if alpha < 0.0:
        return frac * (-1.0 / (lam * alpha))
    theta = rng_theta
    if alpha < 1.0:
        theta = min(theta, 0.9 * ref.turning_limit(alpha, lam))
    elif alpha == 1.0:
        theta = min(theta, 20.0 / lam)
    return ref.arc_length(alpha, lam, theta)


# ------------------------------------------------------------- planar CSV


def _parse_rows(text: str, header: str):
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError("bad CSV framing")
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:-1]]


def _station_tol(i: int, s: float, dims: int) -> float:
    """Stated tolerance of a point after i quadratures covering arc length s:
    each gap is within max(tol, tol |value|), plus summation rounding."""
    return math.sqrt(dims) * TOL_QUAD * (i + s) + 4.0 * (i + 1) * EPS * max(1.0, s)


def check_plane_csv(text, alpha, lam, s_end, n):
    """Check a 2D curve CSV against closed forms and the reference points."""
    rows = _parse_rows(text, "s,x,y,theta,kappa")
    if len(rows) != n:
        return None, f"{len(rows)} rows, expected {n}", None
    if rows[0][:3] != (0.0, 0.0, 0.0) or abs(rows[-1][0] - s_end) > 4 * EPS * s_end:
        return None, "stations do not span [0, s_end]", None
    for (s, _, _, th, k), prev in zip(rows, [None] + rows[:-1]):
        if prev is not None and not s > prev[0]:
            return None, f"arc length not increasing at s = {s!r}", None
        th_ref = ref.turning(alpha, lam, s)
        k_ref = ref.curvature(alpha, lam, s)
        if abs(th - th_ref) > 1e-12 * max(1.0, abs(th_ref)) or abs(k - k_ref) > 1e-12 * k_ref:
            return None, f"theta or kappa off the closed form at s = {s!r}", None
    worst = 0.0
    for i in sorted({(n - 1) // 2, n - 1}):
        s, x, y = rows[i][:3]
        rx, ry = ref.point(alpha, lam, s)
        worst = max(worst, math.hypot(x - rx, y - ry) / _station_tol(i, s, 2))
    if worst > 1.0:
        return worst, f"point off the reference by {worst:.3g} x tolerance", None
    return worst, None, None


def _plane_params(rng, count):
    """count (alpha, lam, s_end) triples per alpha, stratified in lam and s."""
    out = []
    for alpha in ALPHAS:
        lams = _strata(rng, 1e-2, 1e2, count, log=True)
        thetas = _strata(rng, 0.5, 3.0 * math.pi, count)
        fracs = _strata(rng, 0.5, 0.99, count)
        rng.shuffle(lams)
        rng.shuffle(thetas)
        for lam, th, fr in zip(lams, thetas, fracs):
            out.append((alpha, lam, _arc_end(th, alpha, lam, fr)))
    return out


def build_plane(ctx, rng):
    import curvekit.pseudospiral as ps
    import curvekit.render as render

    ops = []
    params = _plane_params(rng, 8)
    for j, (alpha, lam, s_end) in enumerate(params):
        # per alpha, 3 few-station ops (gaps subdivide) and 5 many-station
        # ops (one 15-node panel per gap), each band stratified; the median
        # operation then lies inside the many-station band, not between bands
        k = j % 8
        n = 12 + int((k + rng.random()) / 3 * 19) if k < 3 else \
            1000 + int((k - 3 + rng.random()) / 5 * 1000)

        def call(alpha=alpha, lam=lam, s_end=s_end, n=n):
            return render.export_csv(ps.sample_curve(ps.NaturalEquation(alpha, lam), s_end, n))

        def check(out, alpha=alpha, lam=lam, s_end=s_end, n=n):
            if isinstance(out, Exception):
                return None, _raised(out), None
            return check_plane_csv(out, alpha, lam, s_end, n)

        ops.append(Op(f"plane/a={alpha:g}/lam={lam:.3g}/n={n}", call, check))
    rng.shuffle(ops)
    return ops


def warm_plane(ctx):
    import curvekit.pseudospiral as ps
    import curvekit.render as render

    render.export_csv(ps.sample_curve(ps.NaturalEquation(0.0, 1.0), 1.0, 20))


# -------------------------------------------------------------------- fit


class FitProblem:
    """A Hermite problem built from a genuine member (alpha, lam) turning by
    dtheta, placed by a random rotation, translation, chord length and mirror."""

    def __init__(self, rng, alpha, lam, dtheta):
        self.alpha, self.lam, self.dtheta = alpha, lam, dtheta
        self.phi0 = rng.uniform(-math.pi, math.pi)
        self.sign = -1.0 if rng.random() < 0.5 else 1.0
        self.chord = rng.uniform(0.5, 5.0)
        self.start = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        psi = ref.chord_angle(alpha, lam, dtheta)
        a = self.phi0 + self.sign * psi
        self.end = (self.start[0] + self.chord * math.cos(a), self.start[1] + self.chord * math.sin(a))
        self.end_angle = self.phi0 + self.sign * dtheta
        reach = [g for g in _GRID if dtheta < ref.turning_limit(alpha, g)]
        self.in_gap = alpha < 1.0 and bool(reach) and lam > reach[-1]

    def hermite(self, hermite):
        return hermite.HermiteProblem(
            self.start, self.end,
            (math.cos(self.phi0), math.sin(self.phi0)),
            (math.cos(self.end_angle), math.sin(self.end_angle)),
            self.alpha,
        )

    def check(self, alpha, lam, rotation, scale, translation, mirror, residual):
        """Place the fitted member by its similarity and compare with the problem."""
        if alpha != self.alpha:
            return None, f"fitted alpha {alpha!r} differs", None
        x, y, log_end = ref.chord(alpha, lam, self.dtheta)
        r = math.hypot(x, y)
        k = math.exp(math.log(scale) + log_end)
        if mirror:
            y = -y
        c, s = math.cos(rotation), math.sin(rotation)
        dx = translation[0] + k * (c * x - s * y) - self.start[0]
        dy = translation[1] + k * (s * x + c * y) - self.start[1]
        # the chord angle is right to tol, up to the quadrature tolerance of
        # evaluating it; the chord length is exact up to the latter
        tol = TOL_FIT + math.sqrt(2.0) * TOL_QUAD * max(1.0, r) / r
        chord_angle = math.atan2(self.end[1] - self.start[1], self.end[0] - self.start[0])
        err = max(abs(math.remainder(math.atan2(dy, dx) - chord_angle, math.tau)),
                  abs(math.hypot(dx, dy) / self.chord - 1.0)) / tol
        turn = rotation + (-self.dtheta if mirror else self.dtheta)
        if abs(math.remainder(turn - self.end_angle, math.tau)) > 1e-12:
            return err, "end tangent does not match", None
        if err > 1.0:
            return err, f"end point off by {err:.3g} x tolerance", \
                "unconverged" if residual > TOL_FIT else None
        return err, None, None

    def no_solution(self, message):
        return None, message, "gap" if self.in_gap else None


def _fit_problems(rng, count):
    probs = []
    for alpha in ALPHAS:
        dthetas = _strata(rng, 0.2, 2.8, count)
        rng.shuffle(dthetas)
        if alpha >= 1.0:
            # lam <= 100 keeps lam * dtheta below ~709, where the arc length
            # of the alpha = 1 member overflows a double
            lams = _strata(rng, 1e-2, 1e2, count, log=True)
        else:
            # up to lambda*, the end of the reachable range
            lams = [
                f / (d * (1.0 - alpha))
                for f, d in zip(_strata(rng, 1e-4, 1.0, count, log=True), dthetas)
            ]
        probs.extend(FitProblem(rng, alpha, lam, d) for lam, d in zip(lams, dthetas))
    return probs


def check_region(region_samples, psi_min, psi_max, alpha, dtheta):
    """Region samples against reference chord angles at three lambdas."""
    if not region_samples:
        return None, "empty region", None
    psis = [p for _, p in region_samples]
    if psi_min != min(psis) or psi_max != max(psis):
        return None, "psi_min/psi_max are not the extremes of the samples", None
    worst = 0.0
    for lam, psi in (region_samples[0], region_samples[len(psis) // 2], region_samples[-1]):
        x, y, _ = ref.chord(alpha, lam, dtheta)
        r = math.hypot(x, y)
        tol = math.sqrt(2.0) * TOL_QUAD * max(1.0, r) / r + 4.0 * EPS
        worst = max(worst, abs(psi - math.atan2(y, x)) / tol)
    if worst > 1.0:
        return worst, f"chord angle off by {worst:.3g} x tolerance", None
    return worst, None, None


def build_fit(ctx, rng):
    import curvekit.hermite as hermite

    ops = []
    for prob in _fit_problems(rng, 6):
        def fit(prob=prob):
            return hermite.fit_g1(prob.hermite(hermite))

        def check_fit(out, prob=prob):
            if isinstance(out, hermite.NoSolution):
                return prob.no_solution(_raised(out))
            if isinstance(out, Exception):
                return None, _raised(out), None
            t = out.transform
            return prob.check(out.equation.alpha, out.equation.lam, t.rotation, t.scale,
                              t.translation, t.mirror, out.residual)

        def region(prob=prob):
            return hermite.drawable_region(prob.alpha, prob.dtheta)

        def check_reg(out, prob=prob):
            if isinstance(out, Exception):
                return None, _raised(out), None
            return check_region(out.boundary_samples, out.psi_min, out.psi_max,
                                prob.alpha, prob.dtheta)

        tag = f"a={prob.alpha:g}/lam={prob.lam:.3g}/dth={prob.dtheta:.3g}"
        ops.append(Op("fit/" + tag, fit, check_fit))
        ops.append(Op("region/" + tag, region, check_reg))
    rng.shuffle(ops)
    return ops


def warm_fit(ctx):
    import curvekit.hermite as hermite

    hermite.drawable_region(0.0, 1.0)
    hermite.fit_g1(FitProblem(random.Random(0), 2.0, 1.0, 1.0).hermite(hermite))


# ------------------------------------------------------------ space curves


class SpaceSpec:
    """A seeded quaternion-curve spec with its independent reference.

    circle: controls R * rot(a, 2 pi i / d) sweep v0 (perpendicular to a)
    through one full turn at constant rate, so the curve is a closed circle
    through p0. Otherwise the controls are a random walk of rotations by
    1.2 rad about random axes, which keeps neighbours on the shorter arc; the
    fixed step keeps the quadrature work per station alike across seeds.
    """

    def __init__(self, rng, degree, s_total, circle):
        self.degree, self.s_total, self.circle = degree, s_total, circle
        self.p0 = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
        q = ref.qaxis(_unit(rng), rng.uniform(0.0, math.tau))
        if circle:
            axis = _unit(rng)
            v0 = _normalize(ref.cross(axis, _unit(rng)))
            self.controls = [ref.qmul(q, ref.qaxis(axis, math.tau * i / degree))
                             for i in range(degree + 1)]
            self.circle_v = ref.qrotate(q, v0)
            self.circle_w = ref.qrotate(q, ref.cross(axis, v0))
        else:
            v0 = _unit(rng)
            self.controls = [q]
            for _ in range(degree):
                q = ref.qmul(q, ref.qaxis(_unit(rng), 1.2))
                self.controls.append(q)
            self.curve = ref.QuaternionBezier(self.controls)
        self.v0 = v0

    def as_json(self):
        return json.dumps({"p0": list(self.p0), "v0": list(self.v0),
                           "controls": [list(c) for c in self.controls],
                           "s_total": self.s_total})

    def overshoots(self, n):
        return self.s_total * (n - 1) / (n - 1) > self.s_total

    def check_csv(self, text, n):
        rows = _parse_rows(text, "s,x,y,z,tx,ty,tz")
        if len(rows) != n:
            return None, f"{len(rows)} rows, expected {n}", None
        worst = 0.0
        for i, row in enumerate(rows):
            s = row[0]
            if s != self.s_total * i / (n - 1):
                return None, f"station {i} is at s = {s!r}", None
            if abs(math.hypot(*row[4:]) - 1.0) > 1e-12:
                return None, f"tangent at station {i} is not unit", None
            if self.circle or i in ((n - 1) // 2, n - 1):
                if self.circle:
                    p, t = ref.circle_point(self.p0, self.circle_v, self.circle_w, self.s_total, s), None
                else:
                    p, t = ref.space_frame(self.curve, self.p0, self.v0, self.s_total, s)
                tol = math.sqrt(3.0) * TOL_QUAD * max(1.0, s) + 8.0 * EPS * (max(map(abs, self.p0)) + s)
                worst = max(worst, math.dist(p, row[1:4]) / tol)
                if t is not None and math.dist(t, row[4:]) > 1e-12:
                    return worst, f"tangent at station {i} is off the reference", None
        if worst > 1.0:
            return worst, f"point off the reference by {worst:.3g} x tolerance", None
        return worst, None, None

    def check_run(self, rc, stderr, text, n):
        if rc == 1 and "s must lie in" in stderr and self.overshoots(n):
            return None, f"exit 1: {stderr.strip()}", "overshoot"
        if rc != 0:
            return None, f"exit {rc}: {stderr.strip()}", None
        return self.check_csv(text, n)


def _normalize(v):
    n = math.sqrt(sum(c * c for c in v))
    return tuple(c / n for c in v)


def _unit(rng):
    """A random unit 3-vector."""
    while True:
        v = tuple(rng.gauss(0.0, 1.0) for _ in range(3))
        if math.sqrt(sum(c * c for c in v)) > 1e-3:
            return _normalize(v)


def _space_specs(rng, circles, generic, lo, hi):
    """(spec, n) pairs: n stratified on a log scale over [lo, hi / degree**2],
    degree cycling with n so every degree sees its whole range. A station
    costs about degree**2 / 5 ms (0.2 ms at degree 1, 1.8 ms at degree 4),
    so every operation then costs alike and a pass of the list stays short."""
    def top(degree):
        return hi / degree ** 2

    out = []
    for j, u in enumerate(_strata(rng, 0.0, 1.0, circles)):
        degree = 3 + j % 2
        out.append((SpaceSpec(rng, degree, math.tau, True), int(lo * (top(degree) / lo) ** u)))
    s_totals = _strata(rng, 0.5, 8.0, generic)
    rng.shuffle(s_totals)
    for j, (u, s_total) in enumerate(zip(_strata(rng, 0.0, 1.0, generic), s_totals)):
        degree = 1 + j % 4
        out.append((SpaceSpec(rng, degree, s_total, False), int(lo * (top(degree) / lo) ** u)))
    return out


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def build_space(ctx, rng):
    import curvekit.cli as cli

    ops = []
    for j, (spec, n) in enumerate(_space_specs(rng, 8, 24, 50, 1000)):
        spec_path, out_path = ctx.path(f"space{j}.json"), ctx.path(f"space{j}.csv")
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(spec.as_json())
        argv = ["qi", "--spec", spec_path, "--n", str(n), "--out", out_path]

        def call(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        def digest(res, out_path=out_path):
            if isinstance(res, Exception):
                return _digest_value(res)
            return hashlib.sha256(repr(res).encode() + _read(out_path)).hexdigest()

        def check(res, spec=spec, n=n, out_path=out_path):
            if isinstance(res, Exception):
                return None, _raised(res), None
            rc, _, err = res
            return spec.check_run(rc, err, _read(out_path).decode(), n)

        kind = "circle" if spec.circle else "walk"
        ops.append(Op(f"space/{kind}/deg={spec.degree}/n={n}", call, check, digest))
    rng.shuffle(ops)
    return ops


def warm_space(ctx):
    import curvekit.cli as cli

    spec = ctx.path("warm.json")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"p0": [0, 0, 0], "v0": [1, 0, 0], "controls": [[1, 0, 0, 0], [0.8, 0.6, 0, 0]],
                             "s_total": 1.0}))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["qi", "--spec", spec, "--n", "10", "--out", ctx.path("warm.csv")])


# ----------------------------------------------------------- cold CLI runs


def write_profile_csv(path, alpha, lam, s_end, rows):
    """A family member's 2D CSV written by the benchmark itself: exact
    theta and kappa, positions by the trapezoid rule."""
    out = ["s,x,y,theta,kappa"]
    x = y = 0.0
    prev = None
    for i in range(rows):
        s = s_end * i / (rows - 1)
        th = ref.turning(alpha, lam, s)
        if prev is not None:
            h = s - prev[0]
            x += 0.5 * h * (math.cos(th) + math.cos(prev[1]))
            y += 0.5 * h * (math.sin(th) + math.sin(prev[1]))
        out.append(",".join(format(v, ".17g") for v in (s, x, y, th, ref.curvature(alpha, lam, s))))
        prev = (s, th)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


class CliRun:
    """Outcome of one child process. The exit code is taken in the timed
    call; stdout, stderr and the output file are read by load() after it."""

    def __init__(self, rc, paths):
        self.rc = rc
        self._paths = paths

    def load(self):
        if self._paths is not None:
            so, se, out = self._paths
            self.stdout, self.stderr = _read(so).decode(), _read(se).decode()
            self.output = _read(out) if out else b""
            self._paths = None
        return self


def _cli_op(ctx, j, name, args, out_name, check):
    out_path = ctx.path(out_name) if out_name else None
    so, se, trace_path = ctx.path(f"cli{j}.out"), ctx.path(f"cli{j}.err"), ctx.path(f"cli{j}.trace")
    full = list(args) + ([f"--out={out_path}"] if out_path else [])

    def call():
        if ctx.traced:
            argv = [ctx.python, ctx.launcher, trace_path, *full]
        else:
            argv = [ctx.python, "-m", "curvekit.cli", *full]
        with open(so, "wb") as fo, open(se, "wb") as fe:
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ctx.tmp, env=ctx.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.child_rss_kb = max(ctx.child_rss_kb, usage.ru_maxrss)
        return CliRun(proc.returncode, (so, se, out_path))

    def digest(res):
        if isinstance(res, Exception):
            return _digest_value(res)
        res.load()
        stdout = res.stdout.replace(ctx.tmp, "<tmp>")
        return hashlib.sha256(repr((res.rc, stdout, res.stderr)).encode() + res.output).hexdigest()

    def run_check(res):
        if isinstance(res, Exception):
            return None, _raised(res), None
        return check(res.load())

    def collect(tracer, op_id):
        # a child that died before writing its trace fails its check instead
        if os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                tracer.merge(json.load(fh), op_id)
            os.remove(trace_path)

    return Op(name, call, run_check, digest, collect)


def _ok(res):
    return None if res.rc == 0 else f"exit {res.rc}: {res.stderr.strip()}"


def build_cli_cold(ctx, rng):
    per = 4
    ops = []
    profiles = []
    alphas = list(ALPHAS)
    rng.shuffle(alphas)
    # fixed sizes spanning 2k-20k rows, so the largest child's memory is alike across seeds
    for j, rows in enumerate((2000, 4309, 9283, 20000)):
        alpha = alphas[j]
        lam = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        s_end = _arc_end(rng.uniform(1.0, math.tau), alpha, lam, rng.uniform(0.5, 0.95))
        path = ctx.path(f"profile{j}.csv")
        write_profile_csv(path, alpha, lam, s_end, int(rows))
        profiles.append((path, alpha, lam, int(rows)))

    for j, (path, alpha, lam, rows) in enumerate(profiles):
        def lcg(res, alpha=alpha, lam=lam):
            if _ok(res):
                return None, _ok(res), None
            report = json.loads(res.stdout)
            err = abs(report["slope"] - alpha) / (TOL_LCG * max(1.0, abs(alpha)))
            if err > 1.0:
                return err, f"LCG slope {report['slope']!r} is not alpha = {alpha!r}", None
            return err, None, None

        def check(res):
            if _ok(res):
                return None, _ok(res), None
            report = json.loads(res.stdout)
            if not report["is_monotone"] or report["direction"] != "decreasing":
                return None, f"profile reported {report['direction']}", None
            return None, None, None

        other = profiles[(j + 1) % per]

        def plot(res, rows=rows, other_rows=other[3]):
            if _ok(res):
                return None, _ok(res), None
            svg = ET.fromstring(res.output)
            paths = [e.get("d") for e in svg if e.tag.endswith("path")]
            polys = [e for e in svg if e.tag.endswith("polygon")]
            # 2 curves x 2 widths, plus 2 annotation arrows (path + head) per curve
            if len(paths) != 8 or len(polys) != 4:
                return None, f"{len(paths)} paths and {len(polys)} arrow heads", None
            if [p.count(" L ") for p in paths[:4]] != [rows - 1] * 2 + [other_rows - 1] * 2:
                return None, "curve paths do not have one vertex per row", None
            return None, None, None

        count = rng.randint(10, 200)
        primitive = rng.choice(("circle", "square", "triangle"))
        rule = rng.choice(("constant", "proportional_to_radius_of_curvature"))

        def ornament(res, count=count, primitive=primitive):
            if _ok(res):
                return None, _ok(res), None
            svg = ET.fromstring(res.output)
            tag = "circle" if primitive == "circle" else "polygon"
            placed = sum(1 for e in svg if e.tag.endswith(tag))
            if placed != count:
                return None, f"{placed} primitives, expected {count}", None
            return None, None, None

        tag = f"a={alpha:g}/rows={rows}"
        ops.append(_cli_op(ctx, len(ops), "lcg/" + tag, ["lcg", f"--in={path}", "--json"], None, lcg))
        ops.append(_cli_op(ctx, len(ops), "check/" + tag, ["check", f"--in={path}", "--json"], None, check))
        ops.append(_cli_op(ctx, len(ops), "plot/" + tag,
                           ["plot", f"--in={path}", f"--in={other[0]}", "--annotate", "--widths=0.5,1"],
                           f"plot{j}.svg", plot))
        ops.append(_cli_op(ctx, len(ops), "ornament/" + tag,
                           ["ornament", f"--in={path}", f"--count={count}", f"--primitive={primitive}",
                            f"--size-rule={rule}", "--size-base=0.02", "--palette=#aa0000,#0000aa"],
                           f"ornament{j}.svg", ornament))

    counts = _strata(rng, 200, 2000, per)
    for j, (alpha, lam, s_end) in enumerate(rng.sample(_plane_params(rng, 1), per)):
        n = int(counts[j])

        def curve(res, alpha=alpha, lam=lam, s_end=s_end, n=n):
            if _ok(res):
                return None, _ok(res), None
            return check_plane_csv(res.output.decode(), alpha, lam, s_end, n)

        ops.append(_cli_op(ctx, len(ops), f"curve/a={alpha:g}/n={n}",
                           ["curve", f"--alpha={alpha!r}", f"--lambda={lam!r}", f"--s-end={s_end!r}",
                            f"--n={n}"], f"curve{j}.csv", curve))

    for prob in rng.sample(_fit_problems(rng, 1), per):
        def fit(res, prob=prob):
            if res.rc == 4 and prob.in_gap:
                return prob.no_solution(_ok(res))
            if _ok(res):
                return None, _ok(res), None
            seg = json.loads(res.stdout)
            t = seg["transform"]
            return prob.check(seg["equation"]["alpha"], seg["equation"]["lambda"], t["rotation"],
                              t["scale"], t["translation"], t["mirror"], seg["residual"])

        def region(res, prob=prob):
            if _ok(res):
                return None, _ok(res), None
            rows = _parse_rows(res.output.decode(), "lambda,psi")
            psis = [p for _, p in rows]
            return check_region(rows, min(psis), max(psis), prob.alpha, prob.dtheta)

        tag = f"a={prob.alpha:g}/lam={prob.lam:.3g}"
        ops.append(_cli_op(ctx, len(ops), "fit/" + tag,
                           ["fit", f"--start={prob.start[0]!r},{prob.start[1]!r}",
                            f"--end={prob.end[0]!r},{prob.end[1]!r}", f"--start-angle={prob.phi0!r}",
                            f"--end-angle={prob.end_angle!r}", f"--alpha={prob.alpha!r}", "--json"],
                           None, fit))
        ops.append(_cli_op(ctx, len(ops), "region/" + tag,
                           ["region", f"--alpha={prob.alpha!r}", f"--delta-theta={prob.dtheta!r}"],
                           f"region{len(ops)}.csv", region))

    for j, (spec, n) in enumerate(_space_specs(rng, 1, per - 1, 50, 1000)):
        spec_path = ctx.path(f"qi{j}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(spec.as_json())

        def qi(res, spec=spec, n=n):
            return spec.check_run(res.rc, res.stderr, res.output.decode(), n)

        ops.append(_cli_op(ctx, len(ops), f"qi/deg={spec.degree}/n={n}",
                           ["qi", f"--spec={spec_path}", f"--n={n}"], f"qi{j}.csv", qi))
    rng.shuffle(ops)
    return ops


def warm_cli_cold(ctx):
    subprocess.run([ctx.python, "-m", "curvekit.cli", "--help"], cwd=ctx.tmp, env=ctx.env,
                   stdout=subprocess.DEVNULL, check=True)


WORKLOADS = {
    "plane": (build_plane, warm_plane),
    "fit": (build_fit, warm_fit),
    "space": (build_space, warm_space),
    "cli_cold": (build_cli_cold, warm_cli_cold),
}
