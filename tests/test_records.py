"""JSON shape of every public result record, pinned byte for byte.

Each record's as_dict() feeds the CLI's JSON output and is hashed by the
benchmark, so its key order, its nesting and the list type of its
sequences are part of the output contract.
"""

import dataclasses

import pytest

from curvekit import (
    DrawableRegion,
    FittedSegment,
    HermiteProblem,
    LcgReport,
    MonotonicityReport,
    NaturalEquation,
    QiCurveSpec,
    QuaternionCurve,
    Similarity,
    StressMarker,
    UnitQuaternion,
)
from curvekit._fmt import to_json


GOLDEN = [
    (
        LcgReport(((0.0, 1.5), (0.25, 2.0)), 0.5, 1.0, 1e-17, 2),
        "{'points': [[0.0, 1.5], [0.25, 2.0]], 'slope': 0.5, 'intercept': 1.0, "
        "'rms_residual': 1e-17, 'dropped': 2}",
        '{\n  "points": [[0, 1.5], [0.25, 2]],\n  "slope": 0.5,\n  "intercept": 1,\n'
        '  "rms_residual": 1.0000000000000001e-17,\n  "dropped": 2\n}',
    ),
    (
        MonotonicityReport(False, "non-monotone", ((0.5, 1.25), (0.75, 1.5)), 1e-12),
        "{'is_monotone': False, 'direction': 'non-monotone', "
        "'violations': [[0.5, 1.25], [0.75, 1.5]], 'tolerance': 1e-12}",
        '{\n  "is_monotone": false,\n  "direction": "non-monotone",\n'
        '  "violations": [[0.5, 1.25], [0.75, 1.5]],\n'
        '  "tolerance": 9.9999999999999998e-13\n}',
    ),
    (
        StressMarker(0.0, 1.0, 0.75),
        "{'s_at_max_kappa': 0.0, 'kappa_max': 1.0, 's_at_max_kappa_slope': 0.75}",
        '{\n  "s_at_max_kappa": 0,\n  "kappa_max": 1,\n  "s_at_max_kappa_slope": 0.75\n}',
    ),
    (
        HermiteProblem((0, 0), (1, 0.5), (1, 0), (0, 1), 0.5),
        "{'p_start': [0.0, 0.0], 'p_end': [1.0, 0.5], 't_start': [1.0, 0.0], "
        "'t_end': [0.0, 1.0], 'alpha': 0.5}",
        '{\n  "p_start": [0, 0],\n  "p_end": [1, 0.5],\n  "t_start": [1, 0],\n'
        '  "t_end": [0, 1],\n  "alpha": 0.5\n}',
    ),
    (
        NaturalEquation(-1.0, 2.0),
        "{'alpha': -1.0, 'lambda': 2.0, 's_max_domain': 0.5}",
        '{\n  "alpha": -1,\n  "lambda": 2,\n  "s_max_domain": 0.5\n}',
    ),
    (
        Similarity(0.25, 2.0, (1.0, -1.0), True),
        "{'rotation': 0.25, 'scale': 2.0, 'translation': [1.0, -1.0], 'mirror': True}",
        '{\n  "rotation": 0.25,\n  "scale": 2,\n  "translation": [1, -1],\n'
        '  "mirror": true\n}',
    ),
    (
        FittedSegment(
            NaturalEquation(0.5, 1.5), 2.25, Similarity(0.5, 3.0, (0.0, 1.0)), 1e-13
        ),
        "{'equation': {'alpha': 0.5, 'lambda': 1.5, 's_max_domain': inf}, "
        "'s_total': 2.25, 'transform': {'rotation': 0.5, 'scale': 3.0, "
        "'translation': [0.0, 1.0], 'mirror': False}, 'residual': 1e-13, "
        "'alternate_lambdas': [], 'converged': True}",
        '{\n  "equation": {\n    "alpha": 0.5,\n    "lambda": 1.5,\n'
        '    "s_max_domain": null\n  },\n  "s_total": 2.25,\n  "transform": {\n'
        '    "rotation": 0.5,\n    "scale": 3,\n    "translation": [0, 1],\n'
        '    "mirror": false\n  },\n  "residual": 1e-13,\n  "alternate_lambdas": [],\n'
        '  "converged": true\n}',
    ),
    (
        DrawableRegion(0.5, 1.0, 0.25, 0.75, ((1e-06, 0.25), (1.0, 0.75))),
        "{'alpha': 0.5, 'delta_theta': 1.0, 'psi_min': 0.25, 'psi_max': 0.75, "
        "'boundary_samples': [[1e-06, 0.25], [1.0, 0.75]]}",
        '{\n  "alpha": 0.5,\n  "delta_theta": 1,\n  "psi_min": 0.25,\n'
        '  "psi_max": 0.75,\n'
        '  "boundary_samples": [[9.9999999999999995e-07, 0.25], [1, 0.75]]\n}',
    ),
    (
        QiCurveSpec(
            (0, 0, 1),
            (1, 0, 0),
            QuaternionCurve((UnitQuaternion(1, 0, 0, 0), UnitQuaternion(0.6, 0.8, 0, 0))),
            2.0,
        ),
        "{'p0': [0.0, 0.0, 1.0], 'v0': [1.0, 0.0, 0.0], "
        "'controls': [[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0]], 's_total': 2.0}",
        '{\n  "p0": [0, 0, 1],\n  "v0": [1, 0, 0],\n'
        '  "controls": [[1, 0, 0, 0], [0.59999999999999998, 0.80000000000000004, 0, 0]],\n'
        '  "s_total": 2\n}',
    ),
]


@pytest.mark.parametrize(
    "record, expected_repr, expected_json",
    GOLDEN,
    ids=[type(g[0]).__name__ for g in GOLDEN],
)
def test_as_dict_shape_is_pinned(record, expected_repr, expected_json):
    d = record.as_dict()
    assert repr(d) == expected_repr
    assert to_json(d) == expected_json


def test_as_dict_copies_sequences():
    translation = [1.0, 2.0]
    d = Similarity(0.0, 1.0, translation).as_dict()
    assert d["translation"] == translation
    assert d["translation"] is not translation
    report = LcgReport(((0.0, 1.0), (1.0, 2.0)), 1.0, 1.0, 0.0)
    d = report.as_dict()
    d["points"][0][0] = 9.0
    assert report.points[0] == (0.0, 1.0)


def test_records_built_from_lists_are_hashable_and_immutable():
    pairs = [[0.0, 1.5], [0.25, 2.0]]
    built = [
        Similarity(0.0, 1.0, [1.0, 2.0]),
        LcgReport(pairs, 0.5, 1.0, 0.0),
        MonotonicityReport(False, "non-monotone", pairs, 1e-12),
        DrawableRegion(1.0, 0.5, 0.1, 0.2, pairs),
        FittedSegment(NaturalEquation(1, 1), 1.0, Similarity(), 0.0, [2.0]),
        StressMarker(0.0, 1.0, 0.75),
    ]
    given = [
        Similarity(0.0, 1.0, (1.0, 2.0)),
        LcgReport(((0.0, 1.5), (0.25, 2.0)), 0.5, 1.0, 0.0),
        MonotonicityReport(False, "non-monotone", ((0.0, 1.5), (0.25, 2.0)), 1e-12),
        DrawableRegion(1.0, 0.5, 0.1, 0.2, ((0.0, 1.5), (0.25, 2.0))),
        FittedSegment(NaturalEquation(1, 1), 1.0, Similarity(), 0.0, (2.0,)),
        StressMarker(0.0, 1.0, 0.75),
    ]
    pairs[0][0] = 9.0  # the caller's lists are not shared
    for record, same in zip(built, given):
        assert record == same
        assert hash(record) == hash(same)
        assert record.as_dict() == same.as_dict()
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)

