"""Constrained counts read over card ranges: every comparison of a
conjunctive constraint gives the one packed card it bounds a range, and
the count decodes only the digits inside the ranges, with no check per
row.  Checked against the ground oracle and against the sum of the rows
that ``Solver.read`` decodes and filters by tracked card."""

import random

import pytest

from fo2mc.engine import ProfileEvaluator, Solver, _Layout, _linear, card_ranges
from fo2mc.errors import InternalConsistencyError
from fo2mc.logic import CardAnd, CardCompare, CardNot, CardOr, LinearExpr, Signature
from fo2mc.oracle import oracle_count
from fo2mc.parser import parse_cardinality, parse_problem
from fo2mc.weights import wfomc_symmetric

from conftest import RUNNING_EXAMPLE

#: one unary card A and one binary card R, on a directed matrix of each
#: kind: the running example, a counting block, a sign predicate
PROBLEMS = {
    "running": RUNNING_EXAMPLE,
    "count_guard": "predicate A/1\npredicate R/2\nforall x exists{=1} y (R(x,y) & A(y))\n",
    "forall_exists": "predicate A/1\npredicate R/2\nforall x exists y R(x,y)\n",
}
OPS = ("=", "<=", ">=", "<", ">")


def random_constraint(rng: random.Random, n: int):
    """One or two comparisons over |A| and |R|: coefficients -2..2, either
    side, constants -2..n^2+1."""
    parts = []
    for _ in range(rng.choice((1, 1, 2))):
        left, right = {}, {}
        for pred in ("A", "R"):
            coefficient = rng.randint(-2, 2)
            side = rng.choice((left, right))
            side[pred] = coefficient if side is left else -coefficient
        const = rng.randint(-2, n * n + 1)
        parts.append(CardCompare(rng.choice(OPS), LinearExpr.of(0, **left),
                                 LinearExpr.of(const, **right)))
    return parts[0] if len(parts) == 1 else CardAnd(tuple(parts))


def rows_total(solver, n, tracked, constraint, fold=None):
    return sum(solver.read(n, tracked, None, fold, constraint).values())


@pytest.fixture
def rows_decoded(monkeypatch):
    """Records each census key whose rows are decoded one by one (to be
    checked against the constraint) rather than summed whole."""
    seen = []
    digits = _Layout.digits

    def spy(self, *args):
        seen.append(args[1])
        return digits(self, *args)
    monkeypatch.setattr(_Layout, "digits", spy)
    return seen


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_random_linear_constraints(name):
    problem = parse_problem(PROBLEMS[name])
    solver = Solver(problem)
    rng = random.Random(name)
    for n in range(1, 6):
        for _ in range(30 if n <= 3 else 12):
            constraint = random_constraint(rng, n)
            value = solver.count(n, constraint)
            if n <= 3:
                report = oracle_count(problem.signature, problem.sentence, n,
                                      constraint=constraint)
                assert value == report.total, (name, n, str(constraint))
            assert value == rows_total(solver, n, ("A", "R"), constraint), (
                name, n, str(constraint))


@pytest.mark.parametrize("text", [
    "2*|A| <= |R| + 1", "|R| >= 3", "|R| > 2*|A| + 1", "|R| >= |A| and |A| = 2",
    "-|R| <= -5 and |A| < 3", "|R| + |A| >= 7",
])
def test_lower_bounds_at_larger_n(text, rows_decoded):
    """Lower bounds on |R|, read from the narrower side where the negation
    caps |R| lower: the total without the comparison minus the total under
    its negation."""
    problem = parse_problem(RUNNING_EXAMPLE)
    solver = Solver(problem)
    constraint = parse_cardinality(text, problem.signature)
    for n in (4, 5, 6):
        rows_decoded.clear()
        value = solver.count(n, constraint)
        assert not rows_decoded
        assert value == rows_total(solver, n, ("A", "R"), constraint)


def test_two_packed_cards(rows_decoded):
    """|R| and |S| are both digits of one integer: only the box of the two
    ranges is decoded."""
    problem = parse_problem("predicate R/2\npredicate S/2\n"
                            "forall x forall y (R(x,y) -> S(x,y))\n")
    solver = Solver(problem)
    for text in ("|R| <= 2 and |S| >= 3", "|R| >= 1 and |S| <= 3", "|S| = 2 and |R| < 2"):
        constraint = parse_cardinality(text, problem.signature)
        for n in (1, 2, 3, 4):
            rows_decoded.clear()
            value = solver.count(n, constraint)
            assert not rows_decoded, (text, n)
            if n <= 2:
                assert value == oracle_count(problem.signature, problem.sentence, n,
                                             constraint=constraint).total, (text, n)
            assert value == rows_total(solver, n, ("R", "S"), constraint), (text, n)


@pytest.mark.parametrize("make", [
    lambda sig: CardOr((parse_cardinality("|R| <= 1", sig), parse_cardinality("|S| >= 3", sig))),
    lambda sig: CardNot(parse_cardinality("|R| = 2", sig)),
    lambda sig: parse_cardinality("|R| = |S|", sig),
    lambda sig: CardAnd((parse_cardinality("|R| <= 3", sig),
                         CardNot(parse_cardinality("|S| = 1", sig)))),
], ids=("or", "not", "coupled", "and_not"))
def test_rows_fallback(make, rows_decoded):
    """A disjunction, a negation, or a comparison of two packed cards is
    checked on each decoded row, capped by the comparisons at the top."""
    problem = parse_problem("predicate R/2\npredicate S/2\n"
                            "forall x forall y (R(x,y) -> S(x,y))\n")
    solver = Solver(problem)
    constraint = make(problem.signature)
    for n in (1, 2):
        rows_decoded.clear()
        assert solver.count(n, constraint) == oracle_count(
            problem.signature, problem.sentence, n, constraint=constraint).total
        assert rows_decoded


def test_successor_encoding_with_constraints(rows_decoded):
    """On pair tables the tie counter is one more range, its target."""
    problem = parse_problem("predicate A/1\npredicate R/2\n"
                            "forall x exists{=2} y (R(x,y) & R(y,x))\n")
    solver = Solver(problem)
    assert solver.norm.successors
    for text in ("|R| <= 4", "|R| >= 6", "|A| = 1 and |R| < 9", "|R| > 2*|A|", "|R| = 6"):
        constraint = parse_cardinality(text, problem.signature)
        for n in (1, 2, 3, 4):
            rows_decoded.clear()
            value = solver.count(n, constraint)
            assert not rows_decoded, (text, n)
            if n <= 3:
                assert value == oracle_count(problem.signature, problem.sentence, n,
                                             constraint=constraint).total, (text, n)
            assert value == rows_total(solver, n, ("A", "R"), constraint), (text, n)


@pytest.mark.parametrize("constraint", ["2*|A| <= |R| + 1", "|R| >= 3 and |A| < 2",
                                        "|R| = 2*|A|"])
def test_fractional_weights_against_rows(constraint):
    """Negative and fractional symmetric weights: the total is divided by
    the scale once, and equals the sum of the rows."""
    text = RUNNING_EXAMPLE + f"constraint {constraint}\nweight A 0.5 -3\nweight R -0.25 2\n"
    problem = parse_problem(text)
    solver = Solver(problem)
    weights = problem.symmetric_weights
    for n in range(1, 6):
        value = wfomc_symmetric(solver, n)
        assert value == rows_total(solver, n, ("A", "R"), None, weights), n
        if n <= 3:
            assert value == oracle_count(problem.signature, problem.sentence, n,
                                         constraint=problem.constraint,
                                         symmetric_weights=weights).weighted_total, n


def test_indivisible_sum_with_integer_weights_is_an_internal_error():
    """Under integer weights the rows of a total must divide by its scale;
    one that does not is reported, not returned as a fraction."""
    solver = Solver(parse_problem("forall x exists{=2} y (R(x,y) & R(y,x))"))
    ev = ProfileEvaluator(solver.norm, solver.cells, 3)
    count = ev.read().get((), 0)
    assert count == 10
    ev.scale *= count + 1
    with pytest.raises(InternalConsistencyError, match="non-integer row in census"):
        ev.read().get((), 0)
    # a weighted read checks each row on its own
    with pytest.raises(InternalConsistencyError, match=r"non-integer row \(\)"):
        ev.read(lambda row: 1)


def test_card_ranges():
    """Fixed cards substitute; the one card left gets floor and ceil
    bounds, strict ops move them by one, an equation that does not divide
    leaves nothing, and a decided comparison that fails rules out all."""
    signature = Signature()
    signature.declare("A", 1)
    signature.declare("R", 2)

    def ranges(text, **cards):
        return card_ranges([_linear(parse_cardinality(text, signature))], cards)
    assert ranges("2*|A| <= |R| + 1", A=(3, 3), R=(0, 16)) == {"A": (3, 3), "R": (5, 16)}
    assert ranges("2*|R| < 7", A=(0, 4), R=(0, 16)) == {"A": (0, 4), "R": (0, 3)}
    assert ranges("2*|R| <= 7", A=(0, 4), R=(0, 16))["R"] == (0, 3)
    assert ranges("3*|R| >= 7", A=(0, 4), R=(0, 16))["R"] == (3, 16)
    assert ranges("3*|R| > 6", A=(0, 4), R=(0, 16))["R"] == (3, 16)
    assert ranges("-2*|R| >= -7", A=(0, 4), R=(0, 16))["R"] == (0, 3)
    assert ranges("2*|R| = |A| + 1", A=(3, 3), R=(0, 16))["R"] == (2, 2)
    assert ranges("2*|R| = |A| + 1", A=(2, 2), R=(0, 16)) is None
    assert ranges("|A| >= 3", A=(2, 2), R=(0, 16)) is None
    # with |A| free, |R| gets the loosest bound any |A| allows
    assert ranges("|R| <= 2*|A|", A=(0, 4), R=(0, 16)) == {"A": (0, 4), "R": (0, 8)}


def test_name_allocator_numbers_past_declared_synthetics():
    """A declared __P1 keeps its name; the sign predicates number on."""
    problem = parse_problem("predicate R/2\npredicate __P1/1\n"
                            "(forall x exists y R(x,y)) & (exists x __P1(x))",
                            allow_synthetic=True)
    solver = Solver(problem)
    assert "__P1" not in solver.norm.sign_preds
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(problem.signature, problem.sentence, n).total
