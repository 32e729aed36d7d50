"""The census walk: it enters only the censuses whose tracked unary cards
can land in the constraint's box, and on pair tables it shares the
products of a census's prefix.  Checked by identities between constrained
counts past the oracle's reach, against the oracle below it, and by the
number of census keys and packed products a count takes."""

import random

import pytest

from fo2mc.engine import Solver, _Layout
from fo2mc.logic import And, Atom, Forall, card_conjoin
from fo2mc.oracle import oracle_count
from fo2mc.parser import Problem, parse_cardinality, parse_problem

from conftest import random_problem, random_qf

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


def count(solver, problem, n, text=None):
    """The count under the problem's constraint and ``text``, if given."""
    extra = [parse_cardinality(text, problem.signature)] if text else []
    return solver.count(n, constraint=card_conjoin([problem.constraint, *extra]))


@pytest.mark.parametrize("index", range(len(walk_problems())))
def test_card_boxes_partition_the_count(index):
    """Past the oracle's reach, the counts of |A| = k add up to the count,
    so do |A| <= k and |A| >= k + 1, and the counts of |A| = i and |B| = j
    over every i and j."""
    problem = walk_problems()[index]
    solver = Solver(problem)
    rng = random.Random(index)
    for n in (4, rng.randint(5, 8)):
        total = count(solver, problem, n)
        assert sum(count(solver, problem, n, f"|A| = {k}") for k in range(n + 1)) == total
        k = rng.randint(-1, n)
        assert (count(solver, problem, n, f"|A| <= {k}")
                + count(solver, problem, n, f"|A| >= {k + 1}")) == total
    n = 4
    assert sum(count(solver, problem, n, f"|A| = {i} and |B| = {j}")
               for i in range(n + 1) for j in range(n + 1)) == count(solver, problem, n)


@pytest.mark.parametrize("index", range(len(walk_problems())))
def test_card_boxes_match_the_oracle(index):
    problem = walk_problems()[index]
    solver = Solver(problem)
    for n in (1, 2, 3):
        for text in ("|A| = 1", "|A| <= 1 and |B| >= 2", "|A| + |B| = 2", "|A| >= 2"):
            constraint = card_conjoin([problem.constraint,
                                       parse_cardinality(text, problem.signature)])
            want = oracle_count(problem.signature, problem.sentence, n, constraint).total
            assert solver.count(n, constraint=constraint) == want, (text, n)


@pytest.fixture
def products(monkeypatch):
    """Counts the products of packed integers past a cap (``_Layout.mul``)."""
    calls = [0]
    mul = _Layout.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)
    monkeypatch.setattr(_Layout, "mul", counted)
    return calls


@pytest.mark.parametrize("m,n,most,want", [(2, 12, 6000, 1521077404),
                                          (3, 8, 60000, 848932)])
def test_prefix_products_on_pair_tables(products, m, n, most, want):
    """Each node of the pair-table walk carries its products toward the
    later classes: the symmetric ``exists{=2}`` at n = 12 took 22,100
    products when every census raised each class pair to its own power,
    and ``exists{=3}`` at n = 8 took 259,032."""
    solver = Solver(parse_problem(f"{SYMMETRIC} & forall x exists{{={m}}} y R(x,y)"))
    assert solver.norm.successors
    assert solver.count(n) == want
    assert products[0] <= most


def test_a_fixed_card_enters_one_census():
    """``exists{=2} x A(x)`` fixes |A| = 2, so of the 41 censuses of its two
    classes at n = 40 the walk reaches one census key."""
    problem = parse_problem("predicate A/1\npredicate R/2\nexists{=2} x A(x) & "
                            "forall x forall y (A(x) & A(y) -> (R(x,y) <-> R(y,x)))")
    solver = Solver(problem)
    ev = solver._evaluator(40, (), None, None)
    assert len(ev.types) == 2
    assert ev.total() == 780 * 2 ** (40 * 40 - 1)
    assert len(ev._at) == 1
