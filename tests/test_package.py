"""The package namespace: each module's __all__ is the one list of public
names, and curvekit re-exports exactly those lists. With star imports a name
dropped from a module's __all__ would silently leave the package; the golden
list below catches that."""

import ast
import os
import sys
import types

import pytest

import curvekit
from curvekit import analysis, hermite, pseudospiral, qi3d, quadrature, render

MODULES = (analysis, hermite, pseudospiral, qi3d, quadrature, render)

PUBLIC_NAMES = {
    # analysis
    "DegenerateLcg", "LcgReport", "MonotonicityReport", "StressMarker",
    "check_monotone", "lcg_analytic", "lcg_from_functions", "lcg_from_samples",
    "stress_marker",
    # hermite
    "DegenerateInput", "DrawableRegion", "EmptyRegion", "FittedSegment",
    "HermiteProblem", "NoSolution", "TurningUnreachable", "arc_length_for_turning",
    "chord_angle", "drawable_region", "fit_g1", "turning_limit",
    # pseudospiral
    "CurveSample", "DomainExceeded", "NAMED_CURVES", "NaturalEquation", "Pose",
    "SampledCurve", "Similarity", "UnknownName", "curvature", "evaluate_point",
    "named_curve", "sample_curve", "turning_angle",
    # qi3d
    "AntipodalSingularity", "QiCurveSpec", "QuaternionCurve", "UnitQuaternion",
    "eval_quaternion_curve", "q_exp", "q_log", "qi_frame", "qi_point", "sample_qi",
    # quadrature
    "IntegrationResult", "MaxDepthExceeded", "NonFiniteIntegrand", "integrate",
    "integrate_vector2",
    # render
    "EmptyInput", "OrnamentSpec", "PlotSpec", "curve_from_rows", "export_csv",
    "ornament_svg", "parse_csv", "plot_svg",
}


def test_module_lists_are_the_golden_list_without_overlap():
    names = [name for module in MODULES for name in module.__all__]
    assert len(PUBLIC_NAMES) == 57
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_the_module_object(module):
    for name in module.__all__:
        assert getattr(curvekit, name) is getattr(module, name), name


def test_package_exports_exactly_the_module_lists():
    public = {
        name
        for name, value in vars(curvekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
    star = {}
    exec("from curvekit import *", star)
    assert PUBLIC_NAMES <= set(star)


def test_the_package_imports_only_the_standard_library():
    # every absolute import's top-level name must be a stdlib module
    root = os.path.dirname(curvekit.__file__)
    sources = sorted(name for name in os.listdir(root) if name.endswith(".py"))
    assert "quadrature.py" in sources
    for name in sources:
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            for module in imported:
                assert module.split(".")[0] in sys.stdlib_module_names, (name, module)
