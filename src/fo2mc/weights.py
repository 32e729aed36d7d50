"""Weighted counting on top of the profile machinery.

Symmetric weights multiply a per-literal factor over every ground atom
and enter the engine's factors as coefficients, so they need no extra
counters.  Profile weights are arithmetic expressions over predicate
cardinalities, evaluated per profile; they subsume the symmetric family
and are what count distributions are built from.  Each is summed by one
grouped read, ``Solver.read``: into one group for ``wfomc_profile``, into
one per query cardinality vector for a distribution.  The sums stay
integers unless a weight is not; they become ``Fraction``s here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .engine import Solver
from .errors import SemanticError
from .logic import Signature, WeightExpr
from .normalize import NormalizedProblem
from .parser import Problem


def _solver(problem) -> Solver:
    return problem if isinstance(problem, Solver) else Solver(problem)


def _check_symmetric(signature: Signature, weights: Mapping[str, tuple[Fraction, Fraction]]):
    """Every user predicate of ``signature`` has a weight, and no other one."""
    missing = [p for p in signature.user_predicates() if p not in weights]
    if missing:
        raise SemanticError(
            f"missing symmetric weight for predicate(s): {', '.join(missing)}")
    for pred in weights:
        if pred not in signature or pred in signature.synthetic:
            raise SemanticError(f"weight declared for unknown predicate {pred}")


def wfomc_symmetric(problem: Problem | NormalizedProblem | Solver, n: int,
                    weights: Mapping[str, tuple[Fraction, Fraction]] | None = None
                    ) -> Fraction:
    """Weighted count with per-predicate true/false literal weights;
    synthetic predicates keep weight (1, 1)."""
    solver = _solver(problem)
    if weights is None:
        weights = solver.norm.symmetric_weights
    _check_symmetric(solver.norm.signature, weights)
    return Fraction(solver.read(n, fold=weights).get((), 0))


def wfomc_profile(problem: Problem | NormalizedProblem | Solver, n: int,
                  weight: WeightExpr | None = None) -> Fraction:
    """Sum of weight(profile) * F(profile) over the profiles allowed by
    the problem's cardinality constraint, where ``weight`` defaults to the
    problem's profile weight and the problem's symmetric weights, if it
    declares any, are folded into F: the weighting is their product."""
    solver = _solver(problem)
    return Fraction(solver.read(n, (), *_weight_setup(solver, weight)).get((), 0))


def _weight_setup(solver: Solver, weight):
    """Resolve the weighting of a query: the problem's profile weight
    unless the caller gives one, and the problem's symmetric weights.
    Symmetric weights enter the engine's factors, profile weights per
    profile."""
    if weight is None:
        weight = solver.norm.profile_weight
    symmetric = solver.norm.symmetric_weights
    if symmetric:
        _check_symmetric(solver.norm.signature, symmetric)
    return weight, symmetric or None


def _strata(solver: Solver, n: int, query_preds: Sequence[str], weight
            ) -> tuple[dict[tuple[int, ...], int | Fraction], Fraction]:
    """The weighted mass of each query cardinality vector the problem's
    constraint allows, and the partition function, which must be nonzero.
    Feasible strata stay in the table even at mass zero."""
    mass = solver.read(n, query_preds, *_weight_setup(solver, weight))
    z = Fraction(sum(mass.values()))
    if z == 0:
        raise SemanticError("partition function is zero; the distribution "
                            "is undefined")
    return mass, z


def count_distribution(problem: Problem | NormalizedProblem | Solver, n: int,
                       query: Sequence[tuple[str, int]],
                       weight: WeightExpr | None = None
                       ) -> tuple[Fraction, Fraction, Fraction]:
    """Probability that each query predicate has exactly the requested
    number of true groundings, under the weighted distribution (profile
    weights, symmetric weights, or their product).
    Returns (numerator, partition function, probability)."""
    mass, z = _strata(_solver(problem), n, [p for p, _ in query], weight)
    numerator = Fraction(mass.get(tuple(int(c) for _, c in query), 0))
    return numerator, z, numerator / z


def distribution_table(problem: Problem | NormalizedProblem | Solver, n: int,
                       query_preds: Sequence[str],
                       weight: WeightExpr | None = None
                       ) -> dict[tuple[int, ...], Fraction]:
    """The full count distribution over the query predicates' cardinality
    vectors; the probabilities sum to exactly one."""
    mass, z = _strata(_solver(problem), n, query_preds, weight)
    inverse = 1 / z  # one division, then a product per stratum
    return {k: v * inverse for k, v in sorted(mass.items())}
