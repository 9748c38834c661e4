"""Geometry kernel for curves with monotone curvature.

Generate planar curves from their natural equation, measure fairness on
the log-curvature graph, fit single segments to G1 Hermite data, extend
the construction to unit-speed space curves driven by quaternion curves,
and render everything to deterministic SVG/CSV.
"""

from .analysis import (
    DegenerateLcg,
    LcgReport,
    MonotonicityReport,
    StressMarker,
    check_monotone,
    lcg_analytic,
    lcg_from_functions,
    lcg_from_samples,
    stress_marker,
)
from .hermite import (
    DegenerateInput,
    DrawableRegion,
    EmptyRegion,
    FittedSegment,
    HermiteProblem,
    NoSolution,
    TurningUnreachable,
    arc_length_for_turning,
    chord_angle,
    drawable_region,
    fit_g1,
    turning_limit,
)
from .pseudospiral import (
    CurveSample,
    DomainExceeded,
    NaturalEquation,
    Pose,
    SampledCurve,
    Similarity,
    UnknownName,
    curvature,
    evaluate_point,
    named_curve,
    sample_curve,
    turning_angle,
    NAMED_CURVES,
)
from .qi3d import (
    AntipodalSingularity,
    QiCurveSpec,
    QuaternionCurve,
    UnitQuaternion,
    eval_quaternion_curve,
    q_exp,
    q_log,
    qi_frame,
    qi_point,
    sample_qi,
)
from .quadrature import (
    IntegrationResult,
    MaxDepthExceeded,
    NonFiniteIntegrand,
    integrate,
    integrate_vector2,
)
from .render import (
    EmptyInput,
    OrnamentSpec,
    PlotSpec,
    curve_from_rows,
    export_csv,
    ornament_svg,
    parse_csv,
    plot_svg,
)

__version__ = "0.1.0"
