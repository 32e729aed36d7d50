"""Exact lifted model counting for two-variable logic with equality,
cardinality constraints and counting quantifiers, with weighted counting
and count distributions, verified against a brute-force ground oracle."""

from .engine import Solver
from .errors import (Fo2mcError, InternalConsistencyError, OracleCapError,
                     ParseError, SemanticError, UnsupportedFeatureError)
from .cells import CellStructure, build_cells
from .grounding import GroundFormula, eval_qf, ground
from .normalize import (NormalizedProblem, dump_normalized, normalize,
                        successor_encoding)
from .oracle import (OracleReport, oracle_count, oracle_distribution, oracle_stratified,
                     spec_count, spec_terms)
from .parser import Problem, parse_formula, parse_problem
from .weights import (count_distribution, distribution_table, wfomc_profile,
                      wfomc_symmetric)

__all__ = [
    "CellStructure", "Fo2mcError", "GroundFormula", "InternalConsistencyError",
    "NormalizedProblem", "OracleCapError", "OracleReport", "ParseError",
    "Problem", "SemanticError", "Solver", "UnsupportedFeatureError",
    "build_cells", "count_distribution", "distribution_table",
    "dump_normalized", "eval_qf", "ground", "normalize", "oracle_count",
    "oracle_distribution", "oracle_stratified", "parse_formula",
    "parse_problem", "spec_count", "spec_terms", "successor_encoding",
    "wfomc_profile", "wfomc_symmetric",
]

__version__ = "0.1.0"
