"""``Solver`` against ``spec_count``, the source paper's lemma evaluated
literally, at domain sizes the ground oracle cannot reach: the census
walk's problems and the corpus's counting problems at n = 4 and 5, each
unconstrained and under one comparison; the seeded random problems at
n = 4; ``linear_card`` at n <= 8; and two lower bounds on a binary card at
n = 10 and 11, which ``Solver`` reads from their complement.  The reference
enumerates every census of the valid 1-types of the successor encoding with
every block signed, so a size is compared only where there are at most
``CENSUSES`` of them, and the problems this leaves out are pinned."""

import math

import pytest

from fo2mc.cells import build_cells
from fo2mc.corpus import load_corpus
from fo2mc.engine import Solver
from fo2mc.errors import UnsupportedFeatureError
from fo2mc.logic import CARD_TRUE
from fo2mc.normalize import normalize, successor_encoding
from fo2mc.oracle import spec_count
from fo2mc.parser import parse_cardinality, parse_problem

from conftest import random_problem, walk_problems

#: the most censuses one comparison enumerates
CENSUSES = 3500

PROBLEMS = ({f"walk{i}": p for i, p in enumerate(walk_problems())}
            | {e.name: e.problem() for e in load_corpus() if "counting" in e.tags})

#: the problems with more than ``CENSUSES`` censuses at n = 4 (16, 22, 36
#: and 38 valid 1-types), and two_blocks, whose signed encoding is refused
UNCOMPARED = {"walk3", "walk7", "walk8", "walk14", "walk17", "walk20", "walk22", "two_blocks"}


def sizes(problem, candidates) -> list[int]:
    """The domain sizes among ``candidates`` with at most ``CENSUSES``
    censuses of the reference's valid 1-types."""
    encoding = successor_encoding(normalize(problem))
    types = len(build_cells(encoding.signature, encoding.matrix).valid)
    return [n for n in candidates if math.comb(types + n - 1, n) <= CENSUSES]


def engine_count(problem, n, constraint):
    """``Solver``'s count, weighted like the reference's by the problem's
    symmetric weights."""
    if problem.symmetric_weights:
        return Solver(problem).read(n, fold=problem.symmetric_weights,
                                    constraint=constraint).get((), 0)
    return Solver(problem).count(n, constraint)


@pytest.mark.parametrize("name", PROBLEMS)
def test_engine_matches_reference(name):
    """At n = 4 and 5, with no constraint and with a lower bound on R (on A
    where there is no R)."""
    problem = PROBLEMS[name]
    if name == "two_blocks":  # signing both blocks takes 34 table bits
        with pytest.raises(UnsupportedFeatureError, match="34 table bits"):
            spec_count(problem, 4)
        return
    ns = sizes(problem, (4, 5))
    assert bool(ns) != (name in UNCOMPARED)
    bound = "|R| >= 3" if "R" in problem.signature else "|A| >= 2"
    for n in ns:
        for constraint in (CARD_TRUE, parse_cardinality(bound, problem.signature)):
            assert spec_count(problem, n, constraint) == engine_count(problem, n, constraint), \
                (n, str(constraint))


def test_random_problems():
    """At n = 4, on the 136 seeds of 0..199 whose censuses are few enough."""
    compared = 0
    for seed in range(200):
        problem = random_problem(seed)
        if sizes(problem, (4,)):
            assert spec_count(problem, 4) == Solver(problem).count(4), seed
            compared += 1
    assert compared == 136


def test_linear_card():
    """2|A| <= |R| + 1 at n = 1..8."""
    problem = next(e.problem() for e in load_corpus() if e.name == "linear_card")
    solver = Solver(problem)
    for n in range(1, 9):
        assert spec_count(problem, n) == solver.count(n), n


@pytest.mark.parametrize("n", (10, 11))
@pytest.mark.parametrize("text", (
    "forall x forall y (R(x,y) -> R(y,x))\nconstraint |R| >= 3",
    "forall x exists y R(x,y)\nconstraint |R| >= 12"), ids=["symmetric", "forall_exists"])
def test_complement_read(text, n, monkeypatch):
    """``Solver`` reads these lower bounds as the total without them minus
    the total under their negation: three calls of ``Solver.read``."""
    problem = parse_problem("predicate R/2\n" + text)
    calls = []
    read = Solver.read

    def spy(self, *args, **kwargs):
        calls.append(kwargs.get("constraint"))
        return read(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "read", spy)
    assert Solver(problem).count(n) == spec_count(problem, n)
    assert len(calls) == 3, [str(c) for c in calls]
