"""Work-count budgets: ceilings on machine-independent counts of work, at
the count measured when each budget was set plus 10%. A change that lowers
a count tightens its ceiling; raising one needs a stated reason."""

import math

import pytest

import curvekit.hermite as he
import curvekit.pseudospiral as ps
from curvekit.hermite import HermiteProblem, fit_g1
from curvekit.pseudospiral import NaturalEquation, sample_curve

SLACK = 1.1


def test_sample_curve_tangent_nodes(monkeypatch):
    # 3 Chebyshev pieces of 33 nodes for 2,000 stations
    nodes = 0
    tangent = ps._tangent

    def counted(eq, ts):
        nonlocal nodes
        nodes += len(ts)
        return tangent(eq, ts)

    monkeypatch.setattr(ps, "_tangent", counted)
    sample_curve(NaturalEquation(0.5, 1.0), 10.0, 2000)
    assert 0 < nodes <= SLACK * 99


# alpha -> (chord integrals, panels summed over them) per fit
FIT_COUNTS = {-1.0: (12, 43), 0.0: (16, 28), 1.0: (13, 17), 2.0: (16, 91)}


@pytest.mark.parametrize("alpha", sorted(FIT_COUNTS))
def test_fit_g1_chord_integrals_and_panels(monkeypatch, alpha):
    # the README fit problem: end (0.7, 0.72), end tangent at 1.2 rad
    integrals = panels = 0
    integrate = he._integrate_components

    def counted(*args, **kwargs):
        nonlocal integrals, panels
        results = integrate(*args, **kwargs)
        integrals += 1
        panels += results[0].subdivisions
        return results

    monkeypatch.setattr(he, "_integrate_components", counted)
    t_end = (math.cos(1.2), math.sin(1.2))
    fit_g1(HermiteProblem((0.0, 0.0), (0.7, 0.72), (1.0, 0.0), t_end, alpha))
    max_integrals, max_panels = FIT_COUNTS[alpha]
    assert 0 < integrals <= SLACK * max_integrals
    assert 0 < panels <= SLACK * max_panels
