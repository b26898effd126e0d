"""Essential-vertex detection for vertex hitting set problems.

A library and CLI around five vertex deletion problems (multicut, directed
multicut, P4 hitting, vertex cover, directed feedback vertex set): exact
rational LP relaxations solved by cutting planes, vertex-avoiding LP values
used to detect vertices that good solutions cannot skip, constructive
roundings certifying the relaxations' integrality-gap factors, and a driver
that turns detection into search-space reduction for exact solving.
"""

from .detection import (
    DETECTION_THRESHOLDS,
    DetectionResult,
    detect,
    essential_vertices_exact,
    lp_values,
)
from .driver import DriverReport, restrict_instance, solve_with_detection
from .errors import (
    EssentiaError,
    InfeasibleSeparatorError,
    InputError,
    IterationCapError,
    NodeCapError,
    PinInfeasibleError,
    PreconditionError,
    ResourceCapError,
    SizeCapError,
)
from .exact import SolveBudget, opt_value, solve_exact
from .graphs import Graph, VertexWeights, min_vertex_separator
from .lab import (
    GapReport,
    LabeledInstance,
    convert,
    gap_csv_rows,
    gen_dfvs_gadget,
    gen_gnp,
    gen_matching_apex,
    gen_star_multicut,
    gen_vc_gadget,
    measure_gap,
)
from .lp import FractionalSolution, solve, verify_feasible
from .problems import Instance, Problem, find_violated_obstacle, is_solution
from .rounding import (
    RoundingCertificate,
    round_cograph,
    round_directed_multicut,
    round_multicut,
)

# One group per submodule, in import order.
__all__ = [
    "DETECTION_THRESHOLDS", "DetectionResult", "detect",
    "essential_vertices_exact", "lp_values",
    "DriverReport", "restrict_instance", "solve_with_detection",
    "EssentiaError", "InfeasibleSeparatorError", "InputError", "IterationCapError",
    "NodeCapError", "PinInfeasibleError", "PreconditionError", "ResourceCapError",
    "SizeCapError",
    "SolveBudget", "opt_value", "solve_exact",
    "Graph", "VertexWeights", "min_vertex_separator",
    "GapReport", "LabeledInstance", "convert", "gap_csv_rows",
    "gen_dfvs_gadget", "gen_gnp", "gen_matching_apex", "gen_star_multicut",
    "gen_vc_gadget", "measure_gap",
    "FractionalSolution", "solve", "verify_feasible",
    "Instance", "Problem", "find_violated_obstacle", "is_solution",
    "RoundingCertificate", "round_cograph", "round_directed_multicut",
    "round_multicut",
]
__version__ = "0.1.0"
