"""Weighted counting on top of the profile machinery.

Symmetric weights multiply a per-literal factor over every ground atom
and are folded directly into the cell values, so they need no extra
counters.  Profile weights are arithmetic expressions over predicate
cardinalities, evaluated per profile; they subsume the symmetric family
and are what count distributions are built from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .engine import Solver, symmetric_fold
from .errors import SemanticError
from .logic import (CardCompare, LinearExpr, WeightExpr,
                    card_conjoin, weight_predicates, weight_value)
from .normalize import NormalizedProblem
from .parser import Problem


def _solver(problem) -> Solver:
    return problem if isinstance(problem, Solver) else Solver(problem)


def _check_symmetric(solver: Solver,
                     weights: Mapping[str, tuple[Fraction, Fraction]]):
    missing = [p for p in solver.norm.signature.user_predicates()
               if p not in weights]
    if missing:
        raise SemanticError(
            f"missing symmetric weight for predicate(s): {', '.join(missing)}")
    for pred in weights:
        if pred not in solver.norm.signature or pred in solver.norm.signature.synthetic:
            raise SemanticError(f"weight declared for unknown predicate {pred}")


def wfomc_symmetric(problem: Problem | NormalizedProblem | Solver, n: int,
                    weights: Mapping[str, tuple[Fraction, Fraction]] | None = None
                    ) -> Fraction:
    """Weighted count with per-predicate true/false literal weights;
    synthetic predicates keep weight (1, 1)."""
    solver = _solver(problem)
    if weights is None:
        weights = solver.norm.symmetric_weights
    _check_symmetric(solver, weights)
    fold = symmetric_fold(solver.cells, weights)
    return Fraction(solver.weighted_total(n, (), fold=fold))


def wfomc_profile(problem: Problem | NormalizedProblem | Solver, n: int,
                  weight: WeightExpr | None = None) -> Fraction:
    """Sum of weight(profile) * F(profile) over the profiles allowed by
    the problem's cardinality constraint."""
    solver = _solver(problem)
    if weight is None:
        weight = solver.norm.profile_weight
    if weight is None:
        return Fraction(solver.weighted_total(n, ()))
    tracked = tuple(sorted(weight_predicates(weight)))
    return solver.weighted_total(
        n, tracked, weight_fn=lambda cards: weight_value(weight, cards))


def _weight_setup(solver: Solver, weight, symmetric):
    """Resolve the weighting of a distribution query: the problem's own
    declarations fill in whatever the caller left unset.  Symmetric
    weights enter through the cell fold, profile weights per profile."""
    from .engine import IDENTITY_FOLD
    if weight is None:
        weight = solver.norm.profile_weight
    if symmetric is None and solver.norm.symmetric_weights:
        symmetric = solver.norm.symmetric_weights
    fold = IDENTITY_FOLD
    if symmetric:
        _check_symmetric(solver, symmetric)
        fold = symmetric_fold(solver.cells, symmetric)
    return weight, fold


def count_distribution(problem: Problem | NormalizedProblem | Solver, n: int,
                       query: Sequence[tuple[str, int]],
                       weight: WeightExpr | None = None,
                       symmetric: Mapping[str, tuple[Fraction, Fraction]] | None = None
                       ) -> tuple[Fraction, Fraction, Fraction]:
    """Probability that each query predicate has exactly the requested
    number of true groundings, under the weighted distribution (profile
    weights, symmetric weights, or their product).
    Returns (numerator, partition function, probability)."""
    solver = _solver(problem)
    weight, fold = _weight_setup(solver, weight, symmetric)
    weight_fn = (lambda cards: weight_value(weight, cards)) if weight else None
    z = Fraction(solver.weighted_total(n, tuple(
        sorted(weight_predicates(weight))) if weight else (),
        fold=fold, weight_fn=weight_fn))
    if z == 0:
        raise SemanticError("partition function is zero; the distribution "
                            "is undefined")
    target = card_conjoin(
        [CardCompare("=", LinearExpr.card(p), LinearExpr.of(int(c)))
         for p, c in query])
    tracked = tuple(sorted({p for p, _ in query}
                           | (weight_predicates(weight) if weight else set())))
    constraint = card_conjoin([solver.norm.constraint, target])
    numerator = solver.weighted_total(n, tracked, fold=fold,
                                      weight_fn=weight_fn,
                                      constraint=constraint)
    return numerator, z, numerator / z


def distribution_table(problem: Problem | NormalizedProblem | Solver, n: int,
                       query_preds: Sequence[str],
                       weight: WeightExpr | None = None,
                       symmetric: Mapping[str, tuple[Fraction, Fraction]] | None = None
                       ) -> dict[tuple[int, ...], Fraction]:
    """The full count distribution over the query predicates' cardinality
    vectors; the probabilities sum to exactly one."""
    solver = _solver(problem)
    weight, fold = _weight_setup(solver, weight, symmetric)
    tracked = tuple(query_preds)
    if weight is not None:
        tracked += tuple(sorted(weight_predicates(weight)))
    out: dict[tuple[int, ...], Fraction] = {}
    z = Fraction(0)
    for cards, val in solver._allowed_rows(n, tracked, fold):
        if val == 0:
            continue
        w = weight_value(weight, cards) if weight is not None else Fraction(1)
        contrib = Fraction(val) * w
        z += contrib
        # feasible strata stay in the table even at probability zero
        sub = tuple(cards[p] for p in query_preds)
        out[sub] = out.get(sub, Fraction(0)) + contrib
    if z == 0:
        raise SemanticError("partition function is zero; the distribution "
                            "is undefined")
    return {k: v / z for k, v in sorted(out.items())}
