"""The census walk: it enters only the censuses whose tracked unary cards
can land in the constraint's box, and on pair tables it walks pooled
classes and shares the products of a census's prefix.  Checked by
identities between constrained counts past the oracle's reach, against
the oracle below it, and by the number of census keys, parts and packed
products a count takes."""

import math
import random

import pytest

from fo2mc.engine import ProfileEvaluator, Solver, _Layout
from fo2mc.logic import card_conjoin
from fo2mc.oracle import oracle_count
from fo2mc.parser import parse_cardinality, parse_problem

from conftest import SYM2BLK, SYMMETRIC, evaluator, random_problem, walk_problems


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
    """The pair-table walk carries the product of a census's prefix: the
    symmetric ``exists{=2}`` at n = 12 took 22,100 products when every
    census raised each class pair to its own power, and ``exists{=3}`` at
    n = 8 took 259,032."""
    solver = Solver(parse_problem(f"{SYMMETRIC} & forall x exists{{={m}}} y R(x,y)"))
    assert solver.norm.successors
    assert solver.count(n) == want
    assert products[0] <= most


#: a symmetric F that spreads S, and two R-successors in S per element:
#: not directed, so the successor encoding
SMOKERS2 = ("predicate F/2\npredicate S/1\npredicate R/2\n"
            "forall x forall y (F(x,y) -> F(y,x)) & forall x forall y (F(x,y) & S(x) -> S(y)) & "
            "forall x exists{=2} y (R(x,y) & S(y))")


@pytest.mark.parametrize("text,parts,classes,want", [
    (f"{SYMMETRIC} & forall x exists{{=3}} y R(x,y)", 4, 8, 1760),
    (SMOKERS2, 6, 8, 90253169786880),
    (SYM2BLK, 4, 4, 3545856)], ids=["exists3", "smokers2", "sym2blk"])
def test_pair_table_classes_pool(monkeypatch, text, parts, classes, want):
    """Classes of one tracked unary key whose packed 2-table factors agree
    toward every class are one part of the pair-table walk: at n = 6 the
    symmetric ``exists{=3}`` walks 4 parts for its 8 classes, *smokers2* 6
    for 8, and *sym2blk*, whose classes all differ, 4 for 4."""
    walked = []

    def groups(self, *args, run=ProfileEvaluator._groups):
        first, out = run(self, *args)
        walked.append(len(out))
        return first, out
    monkeypatch.setattr(ProfileEvaluator, "_groups", groups)
    ev = evaluator(Solver(parse_problem(text)), 6)
    assert ev.read().get((), 0) == want
    assert (walked, len(ev.types)) == ([parts], classes)


def test_a_zero_prefix_ends_its_group(products):
    """Every two elements outside A share a symmetric R edge, so |R| <= 6
    holds only with at most three of them; the forced class !A comes first
    in walk order, and once its prefix product truncates to 0 no larger
    count of it is tried: at n = 30 the count takes 130 products, and
    1,074 without the stop.  With a = |!A|, r reflexive R atoms and p free
    unordered pairs, the count is sum_a C(n, a) sum_{r + 2p <= 6 - a(a-1)}
    C(n, r) C(C(n, 2) - C(a, 2), p)."""
    problem = parse_problem("predicate A/1\npredicate R/2\n"
                            "forall x forall y (R(x,y) <-> R(y,x)) & "
                            "forall x forall y (!A(x) & !A(y) & x != y -> R(x,y))\n"
                            "constraint |R| <= 6")
    solver = Solver(problem)

    def want(n: int) -> int:
        comb, pairs = math.comb, math.comb(n, 2)
        return sum(comb(n, a) * comb(n, r) * comb(pairs - comb(a, 2), p)
                   for a in range(n + 1) for r in range(7) for p in range(4)
                   if r + 2 * p <= 6 - a * (a - 1))
    for n in (1, 2, 3):
        assert solver.count(n) == want(n) == oracle_count(
            problem.signature, problem.sentence, n, problem.constraint).total
    assert [want(n) for n in (10, 30)] == [1137268, 2383132192]
    assert solver.count(10) == want(10)
    products[0] = 0
    assert solver.count(30) == want(30)
    assert products[0] <= 200


def test_a_fixed_card_enters_one_census():
    """``exists{=2} x A(x)`` fixes |A| = 2, so of the 41 censuses of its two
    classes at n = 40 the walk reaches one census key."""
    problem = parse_problem("predicate A/1\npredicate R/2\nexists{=2} x A(x) & "
                            "forall x forall y (A(x) & A(y) -> (R(x,y) <-> R(y,x)))")
    solver = Solver(problem)
    ev = evaluator(solver, 40)
    assert len(ev.types) == 2
    assert ev.read().get((), 0) == 780 * 2 ** (40 * 40 - 1)
    assert len(ev._at) == 1


def test_parts_raising_a_tracked_unary_card_come_first(monkeypatch):
    """An evaluator lists first the classes whose tracked unary key is
    nonzero, each run by representative type, and the census walks its
    groups (of pooled classes, at their first classes) in that order."""
    walked = []

    def groups(self, *args, run=ProfileEvaluator._groups):
        first, out = run(self, *args)
        walked.append([any(key) for key, _ in out])
        return first, out
    monkeypatch.setattr(ProfileEvaluator, "_groups", groups)
    mixed = 0
    for seed in range(60):
        solver = Solver(random_problem(seed))
        for tracked in (("A",), ("A", "B"), ("B", "R")):
            ev = evaluator(solver, 3, tracked)
            raising = [any(key) for key in ev._unary_keys]
            cut = raising.count(True)
            assert raising == [True] * cut + [False] * (len(raising) - cut)
            assert ev.types[:cut] == sorted(ev.types[:cut])
            assert ev.types[cut:] == sorted(ev.types[cut:])
            mixed += 0 < cut < len(raising)
            walked.clear()
            ev.read().get((), 0)
            for parts in walked:
                assert parts == sorted(parts, reverse=True)
    assert mixed
