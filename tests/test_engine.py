import math

import pytest

from fo2mc.cells import build_cells
from fo2mc.corpus import load_corpus
from fo2mc.engine import ProfileEvaluator, Solver
from fo2mc.errors import SemanticError
from fo2mc.logic import CARD_TRUE, CardCompare, LinearExpr, card_conjoin
from fo2mc.oracle import oracle_count, oracle_stratified, spec_count, spec_terms
from fo2mc.parser import parse_problem
from fo2mc.weights import wfomc_symmetric

from conftest import (RUNNING_EXAMPLE, THREE_WITNESS, TWO_WITNESS, ZERO_OR_TWO_EXAMPLE,
                      pinned, profile_rows, random_problem, witness_deficit_counts)


def running_solver():
    return Solver(parse_problem(RUNNING_EXAMPLE))


# -- universal counting ---------------------------------------------------------


def test_worked_census_term_n3():
    """Worked census term: n=3, census (2,0,0,1) contributes
    3 * 4 * 2^2 = 48."""
    assert spec_terms(parse_problem(RUNNING_EXAMPLE), 3)[(2, 0, 0, 1)] == 48


def test_fomc_universal_running():
    assert spec_count(parse_problem(RUNNING_EXAMPLE), 2) == 48
    assert 48 == 16 + 16 + 8 + 8  # hand sum over |A| strata at n=2


def test_tautology_with_one_unary():
    p = parse_problem("forall x (A(x) | !A(x))")
    s = Solver(p)
    for n in (1, 2, 5, 9):
        assert s.count(n) == 2 ** n


def test_term_validation():
    """The reference's census keys have 2^u non-negative entries summing to
    n, one per census of the valid 1-types: (1,0,0,1) is no census at n=3."""
    terms = spec_terms(parse_problem(RUNNING_EXAMPLE), 3)
    assert (1, 0, 0, 1) not in terms
    assert len(terms) == math.comb(len(running_solver().cells.valid) + 2, 3)
    assert all(len(k) == 4 and min(k) >= 0 and sum(k) == 3 for k in terms)


# -- Scott form -----------------------------------------------------------------


def test_forall_exists_closed_form():
    s = Solver(parse_problem("forall x exists y R(x,y)"))
    assert s.count(2) == 9
    assert s.count(3) == 343
    for n in range(1, 9):
        assert s.count(n) == (2 ** n - 1) ** n


def test_no_existentials_equals_universal():
    """The merged evaluation equals the reference's plain census sum over
    every valid type, on the running example and on the universal-only
    random problems (no sign predicates, no counting blocks)."""
    solver = running_solver()
    assert solver.count(3) == spec_count(parse_problem(RUNNING_EXAMPLE), 3)
    universal = 0
    for seed in range(200):
        problem = random_problem(seed)
        solver = Solver(problem)
        if solver.norm.sign_preds or solver.norm.blocks:
            continue
        universal += 1
        for n in range(1, 6):
            assert solver.count(n, constraint=CARD_TRUE) == \
                spec_count(problem, n, CARD_TRUE), (seed, n)
    assert universal > 0


def test_negative_count_impossible_on_corpus():
    # scott counts stay non-negative on assorted shapes
    for text in ("forall x exists y (R(x,y) & x != y)",
                 "exists x forall y !R(x,y)"):
        s = Solver(parse_problem(text))
        for n in (1, 2, 3, 4):
            assert s.count(n) >= 0


# -- witness-deficit diagnostic ----------------------------------------------------


def test_witness_deficit_alternating_shape():
    p = parse_problem("forall x exists y R(x,y)")
    # e_2 = C(2,2) p_2 - C(3,2) p_3 + C(4,2) p_4 at n=4
    p2, e2 = witness_deficit_counts(p, 4, 2)
    norm_solver = Solver(p)
    ev_p = []
    for m in range(5):
        pm, _ = witness_deficit_counts(p, 4, m)
        ev_p.append(pm)
    assert e2 == ev_p[2] - 3 * ev_p[3] + 6 * ev_p[4]


def test_witness_deficit_base_case():
    p = parse_problem("forall x exists y R(x,y)")
    for n in (2, 3, 4):
        pn, en = witness_deficit_counts(p, n, n)
        assert en == pn  # e_n = p_n


def test_witness_deficit_total():
    """sum_{m>=1} e_m = p_0 - Solver.count, every e_m >= 0."""
    for text in ("forall x exists y R(x,y)",
                 "forall x forall y (R(x,y) -> R(y,x)) & forall x exists y R(x,y)"):
        p = parse_problem(text)
        s = Solver(p)
        for n in (1, 2, 3, 4):
            total = 0
            for m in range(1, n + 1):
                _, em = witness_deficit_counts(p, n, m)
                assert em >= 0
                total += em
            p0, _ = witness_deficit_counts(p, n, 0)
            assert total == p0 - s.count(n)


def test_witness_deficit_m_above_n():
    p = parse_problem("forall x exists y R(x,y)")
    with pytest.raises(SemanticError):
        witness_deficit_counts(p, 2, 3)


@pytest.mark.parametrize("call,message", [
    (lambda p: Solver(p).read(0), "domain size must be at least 1"),
    (lambda p: Solver(p).read(2, ("Q",)), "cannot track undeclared predicate Q"),
    (lambda p: wfomc_symmetric(p, 2, {"A": (1, 1), "R": (1, 1), "Q": (2, 1)}),
     "weight declared for unknown predicate Q"),
], ids=("domain-size", "track-undeclared", "weight-unknown"))
def test_library_refusals(call, message):
    p = parse_problem("predicate A/1\npredicate R/2\nforall x exists y R(x,y)")
    with pytest.raises(SemanticError) as err:
        call(p)
    assert str(err.value) == message


def test_diagnostics_refuse_negative_arguments():
    """A negative m is refused like m > n, not left to ``math.comb`` to
    fail on."""
    with pytest.raises(SemanticError, match="outside 0..3"):
        witness_deficit_counts(parse_problem("forall x exists y R(x,y)"), 3, -1)


# -- constrained counting ----------------------------------------------------------


def test_balanced_constraint_matches_oracle():
    base = parse_problem(RUNNING_EXAMPLE)
    for n in (2, 3, 4):
        lo = CardCompare(">=", LinearExpr.of(0, A=2), LinearExpr.of(n))
        hi = CardCompare("<=", LinearExpr.of(0, A=2), LinearExpr.of(n + 1))
        constraint = card_conjoin([lo, hi])
        got = Solver(base).count(n, constraint=constraint)
        want = oracle_count(base.signature, base.sentence, n,
                            constraint=constraint).total
        assert got == want


def test_infeasible_constraint_returns_zero():
    p = parse_problem(RUNNING_EXAMPLE + "constraint |A| = 5\n")
    assert Solver(p).count(3) == 0


def test_trivial_constraint_equals_plain():
    s = running_solver()
    p = parse_problem(RUNNING_EXAMPLE + "constraint |A| >= 0\n")
    assert Solver(p).count(3) == s.count(3)


# -- counting quantifiers -----------------------------------------------------------


def test_counting_closed_forms():
    assert Solver(parse_problem("forall x exists{=1} y R(x,y)")).count(3) == 27
    assert Solver(parse_problem("forall x exists{=2} y R(x,y)")).count(3) == 27
    assert Solver(parse_problem(ZERO_OR_TWO_EXAMPLE)).count(3) == 64


def test_counting_m_above_n():
    s = Solver(parse_problem("forall x exists{=2} y R(x,y)"))
    assert s.count(1) == 0
    s = Solver(parse_problem(ZERO_OR_TWO_EXAMPLE))
    assert s.count(1) == 1  # only the empty relation survives


def test_counting_m_equals_n():
    s = Solver(parse_problem("forall x exists{=2} y R(x,y)"))
    assert s.count(2) == 1


def test_blocks_are_pinned_on_supported_shapes():
    for text in ("forall x exists{=1} y R(x,y)", ZERO_OR_TWO_EXAMPLE,
                 "forall x exists y S(x,y) & forall x exists{=2} y R(x,y)"):
        s = Solver(parse_problem(text))
        assert pinned(s)


def test_unpinned_pattern_matches_oracle():
    """An escapable counting context is not pinned by the matrix.  Its
    matrix is directed, so the block is counted per element, with no
    successor predicates and no sign, and the count is exact; its
    successor encoding would need a sign predicate."""
    p = parse_problem("predicate B/1\npredicate R/2\n"
                      "forall x (B(x) | exists{=1} y R(x,y))")
    s = Solver(p)
    assert not pinned(s)
    assert s.cells.directed and not s.norm.successors and not s.norm.sign_preds
    encoded = s.successor_encoding()
    assert encoded.blocks[0].sign == encoded.sign_preds[0]
    for n in (1, 2, 3):
        assert s.count(n) == oracle_count(p.signature, p.sentence, n).total


# -- profile machinery ----------------------------------------------------------------


def test_profile_breakdown_running():
    s = running_solver()
    rows = profile_rows(s, 2, ("A",))
    assert sum(value for _, value in rows) == 48
    assert [(cards["A"], value) for cards, value in rows] == \
        [(0, 16), (1, 16), (2, 16)]


def test_breakdown_empty_tracking():
    s = running_solver()
    assert profile_rows(s, 3, ()) == [({}, 1792)]


def test_breakdown_binary_tracking():
    s = running_solver()
    rows = profile_rows(s, 2, ("R",))
    strata = oracle_stratified(s.norm.signature, parse_problem(RUNNING_EXAMPLE).sentence,
                               2, preds=("R",))
    assert {cards["R"]: value for cards, value in rows} == \
        {r: c for (r,), c in strata.items()}
    assert sum(value for _, value in rows) == 48


def test_profile_table_reads_by_its_tracked_cards_unary_first():
    """``Solver.profile_table``, which the benchmark harness wraps, reads by
    the tracked names deduplicated, unary ones first, and returns them."""
    s = running_solver()
    names, table = s.profile_table(3, ("R", "A", "A"))
    assert names == ("A", "R")
    assert table == s.read(3, names) and sum(table.values()) == 1792


def test_stratified_census_identity():
    """Per-census reference terms equal oracle 1-type census counts."""
    p = parse_problem(RUNNING_EXAMPLE)
    for n in (1, 2, 3):
        census = oracle_stratified(p.signature, p.sentence, n, by_one_types=True)
        terms = spec_terms(p, n)
        for k in terms.keys() | census.keys():
            assert terms.get(k, 0) == census.get(k, 0), k


# -- evaluation strategies agree --------------------------------------------------------


def census_both_ways(problem, n, tracked=(), fold=None):
    """The census read per element, then the other reads of the same
    count: when the problem has a counting block, its successor encoding
    read per element and over pair tables, both with a tie counter, else
    the same cells read over pair tables; the pair tables come from the
    evaluator with its directed flag cleared.  ``fold`` is a map of
    symmetric weights."""
    solver = Solver(problem)
    assert solver.cells.directed and not solver.norm.successors
    ev = ProfileEvaluator(solver.norm, solver.cells, n, tracked, fold)
    assert ev._directed
    tables = [ev.read(by=ev.key_names)]
    norm, cells = solver.norm, solver.cells
    if norm.blocks:
        norm = solver.successor_encoding()
        cells = build_cells(norm.signature, norm.matrix)
        ev = ProfileEvaluator(norm, cells, n, tracked, fold)
        tables.append(ev.read(by=ev.key_names))
    ev = ProfileEvaluator(norm, cells, n, tracked, fold)
    ev._directed = False
    return tables + [ev.read(by=ev.key_names)]


@pytest.mark.parametrize("text,tracked", [
    ("forall x exists y R(x,y)", ()),
    ("forall x exists{=1} y R(x,y)", ()),
    (ZERO_OR_TWO_EXAMPLE, ()),
    ("forall x exists{=2} y R(x,y)", ("R",)),
    ("forall x (A(x) -> exists y R(x,y))", ("A",)),
    ("predicate A/1\npredicate R/2\nforall x exists{=1} y R(x,y)", ("R", "A")),
    ("forall x exists{=1} y R(x,y) & forall x exists{=1} y S(x,y)", ("S",)),
    ("forall x (A(x) -> exists y R(x,y))\nweight A 2 1\nweight R 0.25 3", ("R",)),
    (RUNNING_EXAMPLE, ()),
    (RUNNING_EXAMPLE, ("A", "R")),
    ("predicate A/1\nexists x A(x)", ()),
    ("predicate A/1\nexists x A(x)", ("A",)),
    (TWO_WITNESS, ("A", "R")),
])
def test_enum_equals_collapsed(text, tracked):
    """The census read per element, which collapses every census with the
    same column-group counts into one term, equals the census over pair
    tables; blocks go through their successor encoding as well, read both
    ways, whose signed terms can leave rows of value 0."""
    weights = parse_problem(text).symmetric_weights
    for n in (1, 2, 3, 4, 5):
        groups, *others = census_both_ways(parse_problem(text), n, tracked, weights)
        for other in others:
            assert groups == {k: v for k, v in other.items() if v}


def test_group_census_equals_pair_tables_on_random_problems():
    """Every directed random problem, untracked and with A and R tracked,
    read per element and over pair tables:
    among them are pairs of types that allow nothing although the matrix
    holds with either type on the x side, where both sides must send
    nothing."""
    directed = 0
    for seed in range(200):
        problem = random_problem(seed)
        if not Solver(problem).cells.directed:
            continue
        directed += 1
        for tracked in ((), ("A", "R")):
            for n in (1, 2, 3):
                groups, *others = census_both_ways(problem, n, tracked)
                for other in others:
                    assert groups == {k: v for k, v in other.items() if v}, (seed, tracked, n)
    assert directed > 100


def test_path_choice(monkeypatch):
    """A directed matrix, with or without a tie counter, reads rows per
    element, its classes grouped by out-edge column; tracked unary cards
    split the groups or stay digits, whichever the cost estimate favours;
    any other matrix reads pair tables, its classes grouped by packed pair
    factors."""
    walks, groups_seen = [], []
    choose = ProfileEvaluator._groups

    def groups_spy(self, keys, bits):
        walks.append("rows" if self._directed else "pairs")
        first, groups = choose(self, keys, bits)
        groups_seen.append((len(self.types), len(set(keys)), len(groups),
                            "split" if first else "pack"))
        return first, groups
    monkeypatch.setattr(ProfileEvaluator, "_groups", groups_spy)

    def path_of(text, n, tracked=(), encoded=False):
        walks.clear()
        groups_seen.clear()
        solver = Solver(parse_problem(text))
        if encoded:  # the successor encoding, with its tie counter
            solver = Solver(solver.successor_encoding())
        rows = profile_rows(solver, n, tracked)
        assert len(walks) == len(groups_seen) == 1
        return walks[0], groups_seen[0], rows

    # (classes, columns, groups, unary cards)
    for text, shape in [("forall x exists y R(x,y)", (2, 1, 1, "pack")),
                        ("predicate A/1\nexists x A(x)", (3, 2, 2, "pack")),
                        (RUNNING_EXAMPLE, (2, 2, 2, "pack")),
                        (ZERO_OR_TWO_EXAMPLE, (3, 1, 1, "pack")),  # outside A: 2 signed classes
                        (TWO_WITNESS, (8, 2, 2, "pack")),
                        (THREE_WITNESS, (32, 4, 4, "pack"))]:
        assert path_of(text, 2)[:2] == ("rows", shape)
    # the counting problems of the benchmark's collapsed ladder: one group
    corpus = {entry.name: entry for entry in load_corpus()}
    for name in ("count_eq1", "count_eq2", "count_disj", "count_le1",
                 "count_le_sugar", "mixed_exists_eq1", "weighted_eq1", "two_exists"):
        for tracked in ((), ("R",)):
            path, (_, _, groups, _), _ = path_of(corpus[name].text, 3, tracked)
            assert (path, groups) == ("rows", 1)
    # their successor encoding, and two_blocks's, keeps the directed matrix
    # and reads rows per element with a tie counter
    for name in ("count_eq1", "count_eq2", "two_blocks"):
        path, _, rows = path_of(corpus[name].text, 4, ("R",), encoded=True)
        assert path == "rows"
        assert rows == profile_rows(Solver(corpus[name].problem()), 4, ("R",))
    # (classes, distinct packed pair factors, groups, unary cards); with
    # pair factors the unary cards are census keys, whatever the estimate
    for text, tracked, shape in [
            ("forall x forall y (R(x,y) -> R(y,x))", (), (1, 1, 1, "pack")),
            ("forall x exists{=1} y (R(x,y) & R(y,x))", (), (2, 2, 2, "pack")),
            ("predicate A/1\npredicate R/2\nforall x forall y (R(x,y) -> R(y,x))", ("A",),
             (2, 1, 2, "split"))]:
        assert path_of(text, 3, tracked)[:2] == ("pairs", shape)
    # the unary-card rows: packed, but for A(x) -> B(x) with a free R, whose
    # packed integer would have (n + 1)^2 digits of about n^2 bits each
    coins = "predicate H/1\nforall x (H(x) | !H(x))"
    _, shape, rows = path_of(coins, 100, ("H",))
    assert shape == (2, 1, 1, "pack")
    assert [value for _, value in rows] == [math.comb(100, k) for k in range(101)]
    three_free = "predicate A/1\npredicate B/1\npredicate C/1\nforall x (A(x) | !A(x))"
    _, shape, rows = path_of(three_free, 10, ("A", "B", "C"))
    assert shape == (8, 1, 1, "pack") and sum(value for _, value in rows) == 8 ** 10
    n = 30
    five_types = ("predicate A/1\npredicate B/1\npredicate C/1\n"
                  "forall x (A(x) -> (B(x) & C(x)))")
    _, shape, rows = path_of(five_types, n, ("A", "B", "C"))
    assert shape == (5, 1, 1, "pack")
    assert rows == [
        ({"A": k, "B": k + b, "C": k + c},
         math.comb(n, k) * math.comb(n - k, b) * math.comb(n - k, c))
        for k in range(n + 1) for b in range(n - k + 1) for c in range(n - k + 1)]
    n = 100
    implied = "predicate A/1\npredicate B/1\npredicate R/2\nforall x (A(x) -> B(x))"
    _, shape, rows = path_of(implied, n, ("A", "B"))
    assert shape == (3, 1, 3, "split")
    assert rows == [({"A": a, "B": b}, math.comb(n, b) * math.comb(b, a) * 2 ** (n * n))
                               for a in range(n + 1) for b in range(a, n + 1)]


def test_scaling_n50_fast():
    import time
    start = time.monotonic()
    assert Solver(parse_problem(RUNNING_EXAMPLE)).count(50) > 0
    v = Solver(parse_problem(ZERO_OR_TWO_EXAMPLE)).count(50)
    assert v == (1 + math.comb(50, 2)) ** 50
    assert time.monotonic() - start < 60


def test_internal_consistency_guards():
    from fo2mc.engine import _as_count
    from fo2mc.errors import InternalConsistencyError
    from fractions import Fraction
    with pytest.raises(InternalConsistencyError, match="negative"):
        _as_count(-1)
    with pytest.raises(InternalConsistencyError, match="non-integer"):
        _as_count(Fraction(1, 2))
    assert _as_count(Fraction(4, 2)) == 2


def test_spec_operations_through_solver():
    """Scott-form, counting-block, constrained and per-profile counts all
    come from one Solver."""
    exists = Solver(parse_problem("forall x exists y R(x,y)"))
    assert not exists.norm.blocks and exists.count(2) == 9
    counting = Solver(parse_problem("forall x exists{=1} y R(x,y)"))
    assert counting.norm.blocks and counting.count(3) == 27
    constrained = Solver(parse_problem(RUNNING_EXAMPLE + "constraint |A| = 2\n"))
    assert constrained.count(2) == 16
    assert constrained.count(2, constraint=CARD_TRUE) == 48
    assert profile_rows(constrained, 2, ("A",)) == [({"A": 2}, 16)]
    assert sum(value for _, value in profile_rows(running_solver(), 2, ("A",))) == 48
