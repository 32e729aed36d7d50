"""Profile weights against the ground oracle: random weight expressions
(sums, products, negations and powers of -1, 2, 1/2 and |P|, to |P| or
to constants, negative ones included) on random problems, on a problem
in the successor encoding and on a constrained, fractionally weighted
one.  The engine sums them in one grouped read of its packed table; the
oracle weighs every model on its own."""

import random
from fractions import Fraction

import pytest

import fo2mc.engine
from fo2mc.engine import ProfileEvaluator, Solver
from fo2mc.errors import SemanticError
from fo2mc.logic import WAdd, WCard, WMul, WNeg, WNum, WPow, WSub, weight_value
from fo2mc.oracle import oracle_count, oracle_distribution
from fo2mc.parser import parse_problem
from fo2mc.weights import distribution_table, wfomc_profile

from conftest import RUNNING_EXAMPLE, random_problem

PREDS = ("A", "B", "R")

#: exactly two R-successors, along a guard that couples both directions:
#: a matrix that is not directed, so the successor encoding, with its tie
#: counter and 1/2! per element
SUCCESSORS = "predicate A/1\npredicate R/2\nforall x exists{=2} y (R(x,y) & R(y,x))\n"

#: a constraint that is not a conjunction of comparisons, so rows are
#: checked one by one, and fractional symmetric weights, so every row
#: is scaled
CONSTRAINED = (RUNNING_EXAMPLE + "constraint |R| <= 2*|A| + 1 or |A| = 3\n"
               "weight A 0.5 -2\nweight R 3 0.25\n")


def random_weight(rng: random.Random, preds, depth: int):
    """A weight expression over the cards of ``preds``; only a base that
    cannot be 0 gets a negative exponent."""
    cards = [WCard(p) for p in preds]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(cards + [WNum(Fraction(rng.choice((-2, -1, 1, 3)))),
                                   WNum(Fraction(1, 2))])
    kind = rng.randrange(5)
    if kind < 3:
        node = (WAdd, WSub, WMul)[kind]
        return node(random_weight(rng, preds, depth - 1), random_weight(rng, preds, depth - 1))
    if kind == 3:
        return WNeg(random_weight(rng, preds, depth - 1))
    card = rng.choice(cards)
    if rng.random() < 0.25:
        return WPow(card, rng.choice((card, WNum(Fraction(rng.randrange(3))))))
    base = WNum(Fraction(rng.choice((-1, 2, Fraction(1, 2)))))
    exponent = rng.choice((card, WNeg(card), WNum(Fraction(rng.randrange(-2, 3)))))
    return WPow(base, exponent)


def check(problem, weight, n, query):
    """wfomc and the distribution over ``query`` against the oracle."""
    solver = Solver(problem)
    symmetric = problem.symmetric_weights or None
    want = oracle_count(problem.signature, problem.sentence, n, constraint=problem.constraint,
                        symmetric_weights=symmetric, profile_weight=weight).weighted_total
    got = wfomc_profile(solver, n, weight)
    assert type(got) is Fraction and got == want, (str(weight), n)
    try:
        expected = oracle_distribution(problem.signature, problem.sentence, n, weight, query,
                                       constraint=problem.constraint,
                                       symmetric_weights=symmetric)
    except SemanticError:
        with pytest.raises(SemanticError, match="partition function is zero"):
            distribution_table(solver, n, query, weight)
        return
    table = distribution_table(solver, n, query, weight)
    assert all(type(p) is Fraction for p in table.values())
    assert {k: p for k, p in table.items() if p} == {k: p for k, p in expected.items() if p}, (
        str(weight), n, query)


@pytest.mark.parametrize("seed", range(24))
def test_random_problems(seed):
    rng = random.Random(seed ^ 0x3E1)
    problem = random_problem(seed)
    for n in (1, 2, 3):
        weight = random_weight(rng, PREDS, 3)
        check(problem, weight, n, rng.sample(PREDS, rng.randrange(1, 3)))


def test_successor_encoding():
    problem = parse_problem(SUCCESSORS)
    assert Solver(problem).norm.successors
    rng = random.Random("successors")
    for n in (1, 2, 3):
        for _ in range(4):
            check(problem, random_weight(rng, ("A", "R"), 3), n, rng.choice((["R"], ["A", "R"])))


def test_constrained_fractional_weights():
    problem = parse_problem(CONSTRAINED)
    rng = random.Random("constrained")
    for n in (1, 2, 3):
        for _ in range(4):
            check(problem, random_weight(rng, ("A", "R"), 3), n, rng.choice((["A"], ["R", "A"])))


def test_rows_off_the_tie_target_are_not_read(monkeypatch):
    """Only digits whose tie counter is at its target m * n are rows.  No
    digit below it survives (each element of A has its m successors), so
    one is planted there in the census layout, which holds |R| and the tie
    counter: the read at the target must drop it, and the layout the reads
    receive holds |R| alone.  The same digit planted at the target is read."""
    solver = Solver(parse_problem(SUCCESSORS))
    n, block = 3, solver.norm.blocks[0]
    target = block.m * n
    want = ProfileEvaluator(solver.norm, solver.cells, n, ("R",)).read(by=("R",))
    read_at = fo2mc.engine._Layout.at

    def planted(tie):
        ev = ProfileEvaluator(solver.norm, solver.cells, n, ("R",))
        stray = ([0, tie], 5 * ev.scale)  # one row of 5 at |R| = 0

        def at(layout, x, top):
            assert layout.counters == (0, 1) and top == [target]
            return read_at(layout, x + layout.pack([stray]), top)
        monkeypatch.setattr(fo2mc.engine._Layout, "at", at)
        assert ev._census()[1].counters == (0,)
        return ev

    ev = planted(target - 1)
    assert ev.read(by=ev.key_names) == want
    assert ev.read(lambda cards: 2, ()) == {(): 2 * sum(want.values())}
    assert planted(target).read(by=("R",)) == {**want, (0,): want.get((0,), 0) + 5}


@pytest.mark.parametrize("weight,message", [
    (WPow(WNum(Fraction(2)), WNum(Fraction(1, 2))),
     "non-integer exponent 1/2 in weight expression"),
    (WPow(WCard("A"), WNum(Fraction(-1))),
     "0 raised to a negative exponent in weight expression"),
])
def test_weight_errors_keep_their_messages(weight, message):
    """The engine and the oracle evaluate one definition: the same error,
    word for word, where the weight is undefined (here at |A| = 0)."""
    problem = parse_problem(RUNNING_EXAMPLE)
    with pytest.raises(SemanticError) as engine_error:
        wfomc_profile(problem, 2, weight)
    with pytest.raises(SemanticError) as oracle_error:
        weight_value(weight, {"A": 0, "R": 0})
    assert str(engine_error.value) == str(oracle_error.value) == message
