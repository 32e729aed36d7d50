"""Shared helpers: parsing shortcuts, a seeded random problem generator
used by property and integrality tests, the census walk's problems,
which the relation tests share, and reads of ``Solver`` shaped for tests."""

from __future__ import annotations

import math
import random

import pytest

from fo2mc.engine import ProfileEvaluator, Solver
from fo2mc.errors import SemanticError
from fo2mc.logic import (And, Atom, CardCompare, Counting, Eq, Exists, Forall,
                         Formula, Iff, Implies, LinearExpr, Not, Or, Signature,
                         CARD_TRUE, constraint_predicates)
from fo2mc.parser import Problem, parse_problem

RUNNING_EXAMPLE = """\
predicate A/1
predicate R/2
forall x forall y (A(x) & R(x,y) & x != y -> A(y))
"""

ZERO_OR_TWO_EXAMPLE = "forall x (forall y !R(x,y) | exists{=2} y R(x,y))"

#: every element has an R-successor in A and an S-successor outside A:
#: 8 classes of 1-types in 2 column groups
TWO_WITNESS = ("predicate A/1\npredicate R/2\npredicate S/2\n"
               "forall x exists y (R(x,y) & A(y)) & forall x exists y (S(x,y) & !A(y))")
#: two-witness and a T-successor in B: 32 classes in 4 column groups
THREE_WITNESS = ("predicate A/1\npredicate B/1\npredicate R/2\npredicate S/2\n"
                 "predicate T/2\n" + TWO_WITNESS.splitlines()[-1]
                 + " & forall x exists y (T(x,y) & B(y))")

#: a symmetric R with one R-successor per element and any S with one
#: S-successor: I(n) n^n models (I the involution numbers), two blocks on a
#: matrix that is not directed, so the successor encoding
SYM2BLK = ("predicate R/2\npredicate S/2\nforall x forall y (R(x,y) -> R(y,x)) & "
           "forall x exists{=1} y R(x,y) & forall x exists{=1} y S(x,y)\n")

#: a weight line naming a predicate the declarations leave out
UNDECLARED_WEIGHT = "predicate A/1\nforall x A(x)\nweight Q 1 2\n"
#: a second profile weight
TWO_PROFILE_WEIGHTS = "predicate H/1\nforall x H(x)\nprofileweight |H|\nprofileweight 2\n"


@pytest.fixture
def running_problem() -> Problem:
    return parse_problem(RUNNING_EXAMPLE)


def random_qf(rng: random.Random, atoms: list[Formula], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_qf(rng, atoms, depth - 1))
    left = random_qf(rng, atoms, depth - 1)
    right = random_qf(rng, atoms, depth - 1)
    return [And, Or, Implies, Iff][kind - 1](left, right)


def random_problem(seed: int) -> Problem:
    """A random small-signature problem: a universal matrix over at most
    two unary and one binary predicate, optionally a forall-exists
    conjunct, a counting conjunct (in a shape the matrix pins), and a
    cardinality constraint."""
    rng = random.Random(seed)
    signature = Signature()
    signature.declare("A", 1)
    signature.declare("B", 1)
    signature.declare("R", 2)
    atoms = [Atom("A", ("x",)), Atom("A", ("y",)), Atom("B", ("x",)),
             Atom("B", ("y",)), Atom("R", ("x", "x")), Atom("R", ("x", "y")),
             Atom("R", ("y", "x")), Atom("R", ("y", "y")), Eq("x", "y")]
    conjuncts: list[Formula] = [
        Forall("x", Forall("y", random_qf(rng, atoms, rng.randrange(1, 4))))]
    if rng.random() < 0.5:
        unary_atoms = [Atom("A", ("x",)), Atom("B", ("x",)),
                       Atom("R", ("x", "y")), Atom("R", ("y", "x"))]
        conjuncts.append(Forall("x", Exists("y", random_qf(rng, unary_atoms, 2))))
    if rng.random() < 0.5:
        m = rng.choice((1, 1, 2))
        body = Atom("R", ("x", "y"))
        if rng.random() < 0.5:
            conjuncts.append(Forall("x", Counting("=", m, "y", body)))
        else:
            conjuncts.append(Forall("x", Or(Forall("y", Not(body)),
                                            Counting("=", m, "y", body))))
    sentence = conjuncts[0]
    for extra in conjuncts[1:]:
        sentence = And(sentence, extra)
    constraint = CARD_TRUE
    if rng.random() < 0.4:
        pred = rng.choice(("A", "B", "R"))
        op = rng.choice(("=", "<=", ">="))
        bound = rng.randrange(0, 5)
        constraint = CardCompare(op, LinearExpr.card(pred), LinearExpr.of(bound))
    return Problem(signature, sentence, constraint)


SYMMETRIC = "forall x forall y (R(x,y) -> R(y,x))"

#: matrices the successor encoding counts, beside the random ones
FALLBACKS = (SYMMETRIC + " & forall x exists{=1} y R(x,y)",
             SYMMETRIC + " & forall x exists{=2} y R(x,y)",
             SYMMETRIC + " & forall x exists{<=1} y R(x,y)",
             "forall x exists{=1} y (R(x,y) & R(y,x))")


def walk_problems():
    """Seeded problems over A, B and R: random matrices (directed or not,
    with forall-exists and pinned counting conjuncts, and a constraint of
    their own), and the symmetric fallback shapes, each with a random
    unary conjunct on A and B."""
    problems = [random_problem(seed) for seed in range(0, 200, 9)]
    rng = random.Random(24)
    unary = [Atom("A", ("x",)), Atom("B", ("x",))]
    for text in FALLBACKS:
        problem = parse_problem("predicate A/1\npredicate B/1\npredicate R/2\n" + text)
        body = And(problem.sentence, Forall("x", random_qf(rng, unary, 2)))
        problems.append(Problem(problem.signature, body, problem.constraint))
    return problems


def profile_rows(solver: Solver, n: int, tracked, fold=None, constraint=None) -> list:
    """``Solver.read`` grouped by the tracked cards (deduplicated, unary
    first) as sorted (cards, value) rows, the rows ``count --profiles``
    prints."""
    by = sorted(dict.fromkeys(tracked), key=solver.norm.signature.arity)
    return [(dict(zip(by, cards)), value)
            for cards, value in sorted(solver.read(n, by, None, fold, constraint).items())]


def evaluator(solver: Solver, n: int, tracked=()) -> ProfileEvaluator:
    """The evaluator ``Solver.read`` builds for an unweighted read grouped
    by ``tracked``: the problem's constraint applies, and its cards are
    tracked too."""
    constraint = solver.norm.constraint
    tracked = (*tracked, *sorted(constraint_predicates(constraint)))
    return ProfileEvaluator(solver.norm, solver.cells, n, tracked, None, constraint)


def pinned(solver: Solver) -> bool:
    """True when the matrix pins every counting block, so the solver's
    successor encoding carries no sign predicate."""
    return not any(b.sign for b in solver.successor_encoding().blocks)


def witness_deficit_counts(problem, n: int, m: int) -> tuple[int, int]:
    """For a single forall-exists problem: (p_m, e_m), the matrix models in
    which a marked set of exactly m elements is witness-free (the sign
    predicate counted as an ordinary predicate), and, by an alternating
    binomial sum over the p_j, those in which exactly m elements have no
    witness."""
    solver = Solver(problem)
    norm = solver.norm
    if len(norm.sign_preds) != 1 or norm.blocks:
        raise SemanticError("diagnostic requires exactly one forall-exists conjunct")
    if not 0 <= m <= n:
        raise SemanticError(f"m = {m} is outside 0..{n}, the domain size")
    # weight (1, 1) replaces the sign's literal weight: the marked set is
    # counted like an ordinary predicate
    table = solver.read(n, norm.sign_preds, None, {norm.sign_preds[0]: (1, 1)}, CARD_TRUE)
    p = [table.get((j,), 0) for j in range(n + 1)]
    e_m = sum((-1) ** (j - m) * math.comb(j, m) * p[j] for j in range(m, n + 1))
    return p[m], e_m
