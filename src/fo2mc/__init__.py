"""Exact lifted model counting for two-variable logic with equality,
cardinality constraints and counting quantifiers, with weighted counting
and count distributions, verified against a brute-force ground oracle."""

from .engine import (CountResult, Solver, fomc_universal, universal_term,
                     witness_deficit_counts)
from .errors import (Fo2mcError, InternalConsistencyError, OracleCapError,
                     ParseError, SemanticError, UnsupportedFeatureError)
from .cells import CellStructure, build_cells
from .grounding import GroundFormula, eval_qf, ground
from .normalize import (NormalizedProblem, dump_normalized,
                        expand_counting_sugar, normalize)
from .oracle import OracleReport, oracle_count, oracle_distribution, oracle_stratified
from .parser import Problem, parse_formula, parse_problem
from .weights import (count_distribution, distribution_table, wfomc_profile,
                      wfomc_symmetric)

__all__ = [
    "CellStructure", "CountResult", "Fo2mcError", "GroundFormula",
    "InternalConsistencyError", "NormalizedProblem", "OracleCapError",
    "OracleReport", "ParseError", "Problem", "SemanticError", "Solver",
    "UnsupportedFeatureError", "build_cells", "count_distribution",
    "distribution_table", "dump_normalized", "eval_qf",
    "expand_counting_sugar", "fomc_universal", "ground",
    "witness_deficit_counts", "normalize", "oracle_count",
    "oracle_distribution", "oracle_stratified", "parse_formula",
    "parse_problem", "universal_term", "wfomc_profile", "wfomc_symmetric",
]

__version__ = "0.1.0"
