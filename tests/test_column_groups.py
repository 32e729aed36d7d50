"""The census under per-element rows: closed forms for shapes whose classes
fall into few column groups, at sizes that enumerating the censuses of
the classes could not reach, each also checked against the ground oracle
at small n."""

import math
import time

import pytest

from fo2mc.cells import CellStructure
from fo2mc.engine import ProfileEvaluator, Solver
from fo2mc.oracle import oracle_count
from fo2mc.parser import parse_problem

from conftest import THREE_WITNESS, TWO_WITNESS

EXISTS_CLOSED = "predicate A/1\nexists x A(x)"


def two_witness(n):
    """|A| = k: each element sends R to some of the k A-elements and S to
    some of the n - k others; its other n out-edges are free."""
    return sum(math.comb(n, k) * ((2 ** k - 1) * (2 ** (n - k) - 1) * 2 ** n) ** n
               for k in range(n + 1))


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
