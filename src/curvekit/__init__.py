"""Geometry kernel for curves with monotone curvature.

Generate planar curves from their natural equation, measure fairness on
the log-curvature graph, fit single segments to G1 Hermite data, extend
the construction to unit-speed space curves driven by quaternion curves,
and render everything to deterministic SVG/CSV.
"""

from .analysis import *
from .hermite import *
from .pseudospiral import *
from .qi3d import *
from .quadrature import *
from .render import *

__version__ = "0.1.0"
