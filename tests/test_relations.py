"""Relations between counts that hold at every domain size, checked at
n = 5..8, past the oracle's reach: the successor encoding counts what the
per-element census counts, an unrelated symmetric predicate or an unused
one multiplies a count and each profile by the number of its
interpretations, the models where every element satisfies a counting
formula and those where some element does not add up to all models,
renaming predicates or variables, reordering conjuncts and transposing
binary predicates change no count (or the transposition is refused), a
weight w on one predicate sums its table's counts times w to the
card, and a sentence that reuses a variable counts what its hand
reduction (a fresh unary predicate, no reuse) counts.  The successor
encoding of a directed problem reads element rows with a tie counter;
the symmetric predicate, and one side of each complement, send a
directed problem through pair factors, with a tie
counter where it has a counting block."""

import math
import re
from collections.abc import Collection
from fractions import Fraction
from itertools import combinations

import pytest

from fo2mc.cells import MAX_TABLE_BITS
from fo2mc.corpus import load_corpus
from fo2mc.engine import Solver
from fo2mc.errors import UnsupportedFeatureError
from fo2mc.logic import (And, Atom, CardCompare, Counting, Eq, Exists, Forall, Implies,
                         LinearExpr, Signature, conjoin, conjuncts, rebuild, subformulas)
from fo2mc.parser import Problem, parse_problem
from fo2mc.weights import wfomc_symmetric

from conftest import profile_rows, walk_problems

SIZES = range(5, 9)


def relation_problems() -> dict[str, Problem]:
    """The directed problems of ``walk_problems`` and the corpus's counting
    problems, by name."""
    problems = {f"walk{i}": p for i, p in enumerate(walk_problems()) if Solver(p).cells.directed}
    return problems | {e.name: e.problem() for e in load_corpus() if "counting" in e.tags}


PROBLEMS = relation_problems()


def declaring(problem: Problem, name: str, arity: int) -> Problem:
    """The problem with one more predicate, which it does not mention."""
    assert name not in problem.signature
    signature = Signature(dict(problem.signature.arities), set(problem.signature.synthetic))
    signature.declare(name, arity)
    return Problem(signature, problem.sentence, problem.constraint)


def with_symmetric_f(problem: Problem) -> Problem:
    """The problem conjoined with a symmetric F of its own."""
    problem = declaring(problem, "F", 2)
    symmetric = Forall("x", Forall("y", Implies(Atom("F", ("x", "y")), Atom("F", ("y", "x")))))
    return Problem(problem.signature, And(problem.sentence, symmetric), problem.constraint)


@pytest.mark.parametrize("name", PROBLEMS)
def test_forced_fallback(name):
    """``Solver(s.successor_encoding())`` gives ``s``'s counts, and its
    rows with A and R tracked, each where the problem has it."""
    problem = PROBLEMS[name]
    solver = Solver(problem)
    fallback = Solver(solver.successor_encoding())
    tracked = tuple(p for p in ("A", "R") if p in problem.signature)
    assert tracked
    for n in SIZES:
        assert fallback.count(n) == solver.count(n), n
        assert profile_rows(fallback, n, tracked) == profile_rows(solver, n, tracked), n


@pytest.mark.parametrize("name", PROBLEMS)
def test_unrelated_symmetric_predicate(name):
    """Conjoining a symmetric F the problem does not mention multiplies its
    count by 2^(n + C(n, 2)), and at n = 5 and 6 each of its rows
    with A tracked (R where the problem has no A); two_blocks is refused
    with F (34 table bits)."""
    problem = PROBLEMS[name]
    if name == "two_blocks":
        with pytest.raises(UnsupportedFeatureError, match="34 table bits"):
            Solver(with_symmetric_f(problem))
        return
    solver, extended = Solver(problem), Solver(with_symmetric_f(problem))
    tracked = ("A",) if "A" in problem.signature else ("R",)
    for n in SIZES:
        factor = 2 ** (n + math.comb(n, 2))
        assert extended.count(n) == solver.count(n) * factor, n
        if n <= 6:
            rows = profile_rows(solver, n, tracked)
            assert profile_rows(extended, n, tracked) == [
                (cards, value * factor) for cards, value in rows], n


@pytest.mark.parametrize("arity", (1, 2))
@pytest.mark.parametrize("name", PROBLEMS)
def test_unused_predicate(name, arity):
    """Declaring a predicate the problem never mentions multiplies its count
    by 2^n (unary) or 2^(n^2) (binary)."""
    problem = PROBLEMS[name]
    solver, extended = Solver(problem), Solver(declaring(problem, "U", arity))
    for n in SIZES:
        assert extended.count(n) == solver.count(n) * 2 ** n ** arity, n


def test_unused_predicates_up_to_30_table_bits():
    """An unused predicate adds 2 table bits (unary) or 4 (binary): beside
    ``forall x exists y R(x,y)`` and its sign predicate, 12 unused unary
    ones take 30 bits and count, and one more of either arity is refused."""
    problem = parse_problem("predicate R/2\nforall x exists y R(x,y)")
    solver = Solver(problem)
    for i in range(12):
        problem = declaring(problem, f"U{i}", 1)
    extended = Solver(problem)
    assert 2 * extended.cells.u + extended.cells.b == MAX_TABLE_BITS
    for n in (5, 6):
        assert extended.count(n) == solver.count(n) * 2 ** (12 * n), n
    for arity, bits in ((1, 32), (2, 34)):
        with pytest.raises(UnsupportedFeatureError, match=f"= {bits} table bits"):
            Solver(declaring(problem, "V", arity))


#: counting formulas in x with a unary condition on y
PHIS = ("exists{=2} y (R(x,y) & A(y))", "exists{<=1} y (R(x,y) & A(y))",
        "exists{>=2} y (R(x,y) & A(y))")


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("base,sizes", [
    ("forall x exists y R(x,y)", range(5, 9)),
    ("forall x forall y (R(x,y) -> R(y,x))", (5, 6))], ids=["directed", "symmetric"])
def test_complement(base, sizes, phi):
    """count(B & forall x phi) + count(B & exists x !phi) = count(B): the
    exists side needs a sign predicate where the forall side may not, and
    on the symmetric B both go through the successor encoding.  A triple
    takes about 10 ms on the directed B at n = 8, and 0.3 to 0.6 s on the
    symmetric one at n = 6."""
    declared = "predicate A/1\npredicate R/2\n"
    every, some, whole = (Solver(parse_problem(declared + text)) for text in (
        f"{base} & forall x {phi}", f"{base} & exists x !({phi})", base))
    for n in sizes:
        assert every.count(n) + some.count(n) == whole.count(n), n


#: sentences that reuse a variable, each beside its hand reduction: the
#: inner subformula in y is a user predicate D defined beside it, and no
#: variable is reused
REUSE = {
    "forall x exists y (R(x,y) & exists x S(y,x))":
        "forall x exists y (R(x,y) & D(y)) & forall y (D(y) <-> exists x S(y,x))",
    "forall x (A(x) | forall y (R(x,y) -> exists x S(y,x)))":
        "forall x (A(x) | forall y (R(x,y) -> D(y))) & forall y (D(y) <-> exists x S(y,x))",
    "forall x exists{=1} y (R(x,y) & exists{=1} x S(y,x))":
        "forall x exists{=1} y (R(x,y) & D(y)) & forall y (D(y) <-> exists{=1} x S(y,x))",
    "forall x (A(x) <-> exists{=2} y (R(x,y) & exists x S(y,x)))":
        "forall x (A(x) <-> exists{=2} y (R(x,y) & D(y))) & forall y (D(y) <-> exists x S(y,x))",
}


@pytest.mark.parametrize("text", REUSE)
def test_reuse_equals_its_hand_reduction(text):
    """A sentence that reuses a variable counts what its hand reduction
    counts, a fresh D defined by the subformula it stands for (so one D
    per model): the third has a counting quantifier in another's body."""
    declared = "predicate A/1\npredicate R/2\npredicate S/2\n"
    solver = Solver(parse_problem(declared + text))
    reduced = Solver(parse_problem(declared + "predicate D/1\n" + REUSE[text]))
    for n in SIZES:
        assert solver.count(n) == reduced.count(n), n


def renamed(problem: Problem, names: dict[str, str], variables: dict[str, str],
            transposed: Collection[str] = ()) -> Problem:
    """The problem with its predicates renamed by ``names``, its
    variables, bound ones included, by ``variables``, and the arguments of
    the ``transposed`` predicates' atoms swapped."""
    def walk(f):
        if isinstance(f, Atom):
            args = tuple(variables.get(a, a) for a in f.args)
            return Atom(names.get(f.pred, f.pred), args[::-1] if f.pred in transposed else args)
        if isinstance(f, Eq):
            return Eq(variables.get(f.left, f.left), variables.get(f.right, f.right))
        if isinstance(f, (Forall, Exists)):
            return type(f)(variables.get(f.var, f.var), walk(f.body))
        if isinstance(f, Counting):
            return Counting(f.cmp, f.count, variables.get(f.var, f.var), walk(f.body))
        return rebuild(f, [walk(s) for s in subformulas(f)])

    def card(c):
        if isinstance(c, CardCompare):
            left, right = (LinearExpr(tuple(sorted((names.get(p, p), k) for p, k in e.coeffs)),
                                      e.const) for e in (c.left, c.right))
            return CardCompare(c.op, left, right)
        return type(c)(tuple(map(card, c.parts)))

    signature = Signature({names.get(p, p): a for p, a in problem.signature.arities.items()})
    return Problem(signature, walk(problem.sentence), card(problem.constraint))


def transformed(problem: Problem, transform: str) -> Problem:
    if transform == "predicates":  # reversing their order, which orders the type slots
        preds = problem.signature.predicates()
        return renamed(problem, {p: f"Q{len(preds) - i}" for i, p in enumerate(preds)}, {})
    if transform == "variables":
        return renamed(problem, {}, {"x": "y", "y": "x"})
    parts = list(conjuncts(problem.sentence))
    return Problem(problem.signature, conjoin(parts[::-1]), problem.constraint)


@pytest.mark.parametrize("transform", ("predicates", "variables", "conjuncts"))
@pytest.mark.parametrize("name", PROBLEMS)
def test_renaming(name, transform):
    """Renaming the predicates, swapping x and y, or reversing the top-level
    conjuncts leaves every count unchanged."""
    problem = PROBLEMS[name]
    solver, other = Solver(problem), Solver(transformed(problem, transform))
    for n in SIZES:
        assert other.count(n) == solver.count(n), n


#: the transpositions refused, with the table bits they need: two_blocks's
#: guards R and S read as in-edges, so the successor encoding takes over
REFUSED_TRANSPOSITIONS = {"two_blocks": {("R",): 34, ("S",): 34, ("R", "S"): 38}}


@pytest.mark.parametrize("name", PROBLEMS)
def test_transposition(name):
    """Transposing any non-empty set of the binary predicates in every atom
    (P(a,b) becomes P(b,a), the constraint unchanged) counts what the
    problem counts or is refused for its table bits, and exactly the pinned
    sets are refused."""
    problem = PROBLEMS[name]
    solver = Solver(problem)
    want = [solver.count(n) for n in SIZES]
    binary = problem.signature.binary_predicates()
    refused = {}
    for preds in (c for k in range(1, len(binary) + 1) for c in combinations(binary, k)):
        try:
            other = Solver(renamed(problem, {}, {}, preds))
            counts = [other.count(n) for n in SIZES]
        except UnsupportedFeatureError as e:
            refused[preds] = int(re.search(r"= (\d+) table bits", str(e))[1])
            continue
        assert counts == want, preds
    assert refused == REFUSED_TRANSPOSITIONS.get(name, {})


@pytest.mark.parametrize("name", PROBLEMS)
def test_weights_against_tables(name):
    """wfomc with weight (w, 1) on A (on R where there is no A) equals
    sum_k w^k count(|A| = k), read from ``Solver.read``, for w = 2 and 3."""
    problem = PROBLEMS[name]
    pred = "A" if "A" in problem.signature else "R"
    solver = Solver(problem)
    for n in SIZES:
        table = profile_rows(solver, n, (pred,))
        for w in (2, 3):
            weights = {p: (Fraction(w if p == pred else 1), Fraction(1))
                       for p in problem.signature.user_predicates()}
            assert wfomc_symmetric(solver, n, weights) == \
                sum(w ** cards[pred] * value for cards, value in table), (n, w)
