"""Adaptive numerical integration on finite intervals.

The rule pair is Gauss-Kronrod 7/15: the 15-point Kronrod rule supplies the
value of each panel, the magnitude of its difference from the embedded
7-point Gauss rule supplies the error estimate, and the panel with the worst
estimate is bisected until the accumulated estimate meets the tolerance.
Node and weight literals are given to 20 significant digits; they were
checked against the Legendre P7 roots and by polynomial exactness (the Gauss
rule is exact through degree 13, the Kronrod rule through degree 23).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

__all__ = [
    "IntegrationResult",
    "MaxDepthExceeded",
    "NonFiniteIntegrand",
    "integrate",
    "integrate_vector2",
]

# Positive Kronrod abscissae for [-1, 1]. Odd indices are the embedded
# 7-point Gauss nodes; the centre node 0 is shared and kept separate.
_XGK = (
    0.99145537112081263921,
    0.94910791234275852453,
    0.86486442335976907279,
    0.74153118559939443986,
    0.58608723546769113029,
    0.40584515137739716691,
    0.20778495500789846760,
)
_WGK = (
    0.022935322010529224964,
    0.063092092629978553291,
    0.10479001032225018384,
    0.14065325971552591875,
    0.16900472663926790283,
    0.19035057806478540991,
    0.20443294007529889241,
)
_WGK_CENTER = 0.20948214108472782801
_WG = (
    0.12948496616886969327,
    0.27970539148927666790,
    0.38183005050511894495,
)
_WG_CENTER = 0.41795918367346938776

_MAX_DEPTH = 50
_ERR_FLOOR = 1e-14  # absolute error floor near machine precision


class MaxDepthExceeded(ArithmeticError):
    """Bisection hit the depth limit: singular or pathological integrand."""


class NonFiniteIntegrand(ArithmeticError):
    """The integrand returned nan or inf at a quadrature node."""


@dataclass(frozen=True)
class IntegrationResult:
    """Value of a definite integral with its accumulated error estimate."""

    value: float
    error_estimate: float
    subdivisions: int


def _eval_panel(f, a: float, b: float, m: int):
    """Apply the G7/K15 pair to f on [a, b]; f returns an m-tuple per node.

    Returns (values, errors), each an m-tuple, where errors is the
    per-component |K15 - G7| difference scaled to the interval.
    """
    xm = 0.5 * (a + b)
    xr = 0.5 * (b - a)
    fc = f(xm)
    kron = [_WGK_CENTER * v for v in fc]
    gauss = [_WG_CENTER * v for v in fc]
    for i in range(7):
        dx = xr * _XGK[i]
        f1 = f(xm - dx)
        f2 = f(xm + dx)
        w = _WGK[i]
        for c in range(m):
            kron[c] += w * (f1[c] + f2[c])
        if i & 1:
            w = _WG[i >> 1]
            for c in range(m):
                gauss[c] += w * (f1[c] + f2[c])
    values = tuple(v * xr for v in kron)
    errors = tuple(abs(kron[c] - gauss[c]) * abs(xr) for c in range(m))
    for c in range(m):
        if not math.isfinite(values[c]):
            raise NonFiniteIntegrand(
                f"integrand component {c} is not finite on [{a!r}, {b!r}]"
            )
    return values, errors


def _targets(totals, tol: float):
    return [max(tol, tol * abs(t), _ERR_FLOOR) for t in totals]


def _integrate_components(f, m: int, a: float, b: float, tol: float):
    """Shared-subdivision adaptive integration of a tuple-valued integrand.

    All m components are integrated over the same panel set; a panel is
    acceptable only when every component's accumulated estimate meets
    max(tol, tol * |value|, floor). Deterministic: the heap is ordered by
    (error, insertion sequence) and the final sums run in spatial order.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError("integration requires a <= b")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    values, errors = _eval_panel(f, a, b, m)
    totals = list(values)
    errs = list(errors)
    # Heap entries: (-worst component error, sequence, a, b, depth, values, errors)
    heap = [(-max(errors), 0, a, b, 0, values, errors)]
    seq = 1
    while True:
        targets = _targets(totals, tol)
        if all(errs[c] <= targets[c] for c in range(m)):
            break
        _, _, pa, pb, depth, pv, pe = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            raise MaxDepthExceeded(
                f"no convergence after depth {_MAX_DEPTH} near [{pa!r}, {pb!r}]"
            )
        mid = 0.5 * (pa + pb)
        lv, le = _eval_panel(f, pa, mid, m)
        rv, re = _eval_panel(f, mid, pb, m)
        for c in range(m):
            totals[c] += lv[c] + rv[c] - pv[c]
            errs[c] += le[c] + re[c] - pe[c]
        heapq.heappush(heap, (-max(le), seq, pa, mid, depth + 1, lv, le))
        heapq.heappush(heap, (-max(re), seq + 1, mid, pb, depth + 1, rv, re))
        seq += 2

    leaves = sorted(heap, key=lambda leaf: leaf[2])
    results = []
    for c in range(m):
        value = math.fsum(leaf[5][c] for leaf in leaves)
        err = math.fsum(leaf[6][c] for leaf in leaves)
        results.append(IntegrationResult(value, err, len(leaves)))
    return results


def _accumulate(f, m: int, stations, tol: float):
    """Yield (s, sums) per station: the m integrals of f from the first
    station to s, one quadrature per gap, summed in station order."""
    sums = [0.0] * m
    prev = None
    for s in stations:
        if prev is not None:
            for c, r in enumerate(_integrate_components(f, m, prev, s, tol)):
                sums[c] += r.value
        yield s, tuple(sums)
        prev = s


def integrate(f, a: float, b: float, tol: float = 1e-12) -> IntegrationResult:
    """Integrate a scalar function f over [a, b].

    The returned value satisfies |value - integral| <= max(tol, tol * |value|)
    up to an absolute floor of 1e-14 near machine precision. Raises
    NonFiniteIntegrand if f produces nan/inf at a node and MaxDepthExceeded
    if panel bisection reaches depth 50 without converging. Repeated calls
    with identical arguments are bit-identical.
    """
    (res,) = _integrate_components(lambda x: (f(x),), 1, a, b, tol)
    return res


def integrate_vector2(fx, fy, a: float, b: float, tol: float = 1e-12):
    """Integrate two scalar functions over [a, b] on a shared panel set.

    Both components see the same subdivision, so their results are suitable
    for coordinates of one point. Returns a pair of IntegrationResult with
    equal subdivision counts.
    """
    rx, ry = _integrate_components(lambda x: (fx(x), fy(x)), 2, a, b, tol)
    return rx, ry
