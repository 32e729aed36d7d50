"""The census under per-element rows: closed forms for shapes whose classes
fall into few column groups, at sizes that enumerating the censuses of
the classes could not reach, each also checked against the ground oracle
at small n."""

import math
import time
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from fo2mc.cells import CellStructure
from fo2mc.engine import ProfileEvaluator, Solver, _Layout
from fo2mc.oracle import oracle_count
from fo2mc.parser import parse_problem

from conftest import THREE_WITNESS, TWO_WITNESS

EXISTS_CLOSED = "predicate A/1\nexists x A(x)"


def two_witness(n):
    """|A| = k: each element sends R to some of the k A-elements and S to
    some of the n - k others; its other n out-edges are free."""
    return sum(math.comb(n, k) * ((2 ** k - 1) * (2 ** (n - k) - 1) * 2 ** n) ** n
               for k in range(n + 1))


def mirrored(k):
    """k unary predicates mirrored along R: an R-edge joins elements that
    agree on every A_i."""
    body = " & ".join(f"(A{i}(x) <-> A{i}(y))" for i in range(k))
    return "".join(f"predicate A{i}/1\n" for i in range(k)) + (
        f"predicate R/2\nforall x forall y (R(x,y) -> ({body}))")


def mirrored_count(k, n):
    """Over the censuses c of the 2^k types, n!/prod c_t! 2^(sum c_t^2):
    the R-edges inside each type's block are free, the others absent."""
    total = 0
    for census in combinations_with_replacement(range(2 ** k), n):
        counts = Counter(census).values()
        total += (math.factorial(n) // math.prod(map(math.factorial, counts))
                  * 2 ** sum(c * c for c in counts))
    return total


def three_witness(n):
    """As ``two_witness``, and |B| = j: T to some of the j B-elements."""
    return sum(math.comb(n, k) * math.comb(n, j)
               * ((2 ** k - 1) * (2 ** (n - k) - 1) * (2 ** j - 1) * 2 ** (2 * n - j)) ** n
               for k in range(n + 1) for j in range(n + 1))


# (text, closed form, n, seconds): each bound is about ten times the
# measured time
CASES = {
    "two_witness": (TWO_WITNESS, two_witness, 100, 0.05),
    "three_witness": (THREE_WITNESS, three_witness, 20, 1.0),
    "exists_closed": (EXISTS_CLOSED, lambda n: 2 ** n - 1, 200, 0.05),
}


@pytest.mark.parametrize("name", CASES)
def test_closed_form_in_time(name):
    text, closed, n, bound = CASES[name]
    solver = Solver(parse_problem(text))
    start = time.monotonic()
    value = solver.count(n)
    seconds = time.monotonic() - start
    assert value == closed(n)
    assert seconds < bound


@pytest.mark.parametrize("name", CASES)
def test_closed_form_matches_oracle(name):
    text, closed, _, _ = CASES[name]
    problem = parse_problem(text)
    solver = Solver(problem)
    for n in (1, 2):
        want = oracle_count(problem.signature, problem.sentence, n).total
        assert solver.count(n) == closed(n) == want


@pytest.mark.parametrize("text", (TWO_WITNESS, THREE_WITNESS), ids=("two", "three"))
def test_out_edges_asked_once_per_class_pair(monkeypatch, text):
    """One read of a directed problem asks ``CellStructure.sends`` at most
    once per ordered pair of the evaluator's classes: the column keys and
    the out-edge factors come from the same answers."""
    solver = Solver(parse_problem(text))
    assert solver.cells.directed
    calls, evaluators = [], []
    sends, factors = CellStructure.sends, ProfileEvaluator._factors

    def counted(cells, i, j):
        calls.append((i, j))
        return sends(cells, i, j)

    def recorded(ev):
        evaluators.append(ev)
        return factors(ev)

    monkeypatch.setattr(CellStructure, "sends", counted)
    monkeypatch.setattr(ProfileEvaluator, "_factors", recorded)
    solver.read(3)
    (ev,) = evaluators
    assert len(ev.types) >= 4
    assert len(calls) <= len(ev.types) ** 2


def test_each_distinct_option_packed_once(monkeypatch):
    """One read of the mirrored row with 6 predicates (64 classes, two
    distinct out-edge options) packs each class weight and each distinct
    option once, not one factor per class and column."""
    solver = Solver(parse_problem(mirrored(6)))
    assert solver.cells.directed
    calls, evaluators = [], []
    pack, factors = _Layout.pack, ProfileEvaluator._factors

    def counted(layout, poly, ones=()):
        calls.append(poly)
        return pack(layout, poly, ones)

    def recorded(ev):
        evaluators.append(ev)
        return factors(ev)

    monkeypatch.setattr(_Layout, "pack", counted)
    monkeypatch.setattr(ProfileEvaluator, "_factors", recorded)
    assert solver.read(1) == {(): 2 ** 7}
    (ev,) = evaluators
    assert len(ev.types) == 64
    assert len(calls) <= 2 * len(ev.types)


@pytest.mark.parametrize("k", range(1, 6))
def test_mirrored_closed_form(k):
    """Many classes in many column groups: the mirrored row against its
    closed form at n = 1..3, and against the oracle where it has at most 16
    ground atoms."""
    problem = parse_problem(mirrored(k))
    solver = Solver(problem)
    for n in (1, 2, 3):
        want = mirrored_count(k, n)
        assert solver.count(n) == want, n
        if k * n + n * n <= 16:
            assert oracle_count(problem.signature, problem.sentence, n).total == want, n
