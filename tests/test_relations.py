"""Relations between counts that hold at every domain size, checked at
n = 5..8, past the oracle's reach: the successor encoding counts what the
per-element census counts, and an unrelated symmetric predicate multiplies
a count by the number of its interpretations.  Both send a directed
problem through the census over pair tables."""

import math

import pytest

from fo2mc.corpus import load_corpus
from fo2mc.engine import Solver
from fo2mc.errors import UnsupportedFeatureError
from fo2mc.logic import And, Atom, Forall, Implies, Signature
from fo2mc.parser import Problem

from conftest import walk_problems

#: the largest n per problem where 8 is too slow: on the successor encoding
#: two_blocks's breakdown with R tracked takes about 15 s at n = 8
LARGEST = {"two_blocks": 6}


def relation_problems() -> dict[str, Problem]:
    """The directed problems of ``walk_problems`` and the corpus's counting
    problems, by name."""
    problems = {f"walk{i}": p for i, p in enumerate(walk_problems()) if Solver(p).cells.directed}
    return problems | {e.name: e.problem() for e in load_corpus() if "counting" in e.tags}


PROBLEMS = relation_problems()


def with_symmetric_f(problem: Problem) -> Problem:
    """The problem conjoined with a symmetric F of its own."""
    signature = Signature(dict(problem.signature.arities), set(problem.signature.synthetic))
    signature.declare("F", 2)
    symmetric = Forall("x", Forall("y", Implies(Atom("F", ("x", "y")), Atom("F", ("y", "x")))))
    return Problem(signature, And(problem.sentence, symmetric), problem.constraint)


@pytest.mark.parametrize("name", PROBLEMS)
def test_forced_fallback(name):
    """``Solver(s.successor_encoding())`` gives ``s``'s counts, and its
    breakdown with A tracked (R where the problem has no A)."""
    problem = PROBLEMS[name]
    solver = Solver(problem)
    fallback = Solver(solver.successor_encoding())
    tracked = ("A",) if "A" in problem.signature else ("R",)
    for n in range(5, LARGEST.get(name, 8) + 1):
        assert fallback.count(n) == solver.count(n), n
        assert (fallback.breakdown(n, tracked).profiles
                == solver.breakdown(n, tracked).profiles), n


@pytest.mark.parametrize("name", PROBLEMS)
def test_unrelated_symmetric_predicate(name):
    """Conjoining a symmetric F the problem does not mention multiplies its
    count by 2^(n + C(n, 2)); two_blocks is refused with F (34 table bits)."""
    problem = PROBLEMS[name]
    if name == "two_blocks":
        with pytest.raises(UnsupportedFeatureError, match="34 table bits"):
            Solver(with_symmetric_f(problem))
        return
    solver, extended = Solver(problem), Solver(with_symmetric_f(problem))
    for n in range(5, LARGEST.get(name, 8) + 1):
        assert extended.count(n) == solver.count(n) * 2 ** (n + math.comb(n, 2)), n
