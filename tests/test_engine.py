import math

import pytest
from fractions import Fraction

from fo2mc.cells import build_cells
from fo2mc.engine import (ProfileEvaluator, Solver, UnsoundCountingPatternWarning,
                          compositions, fomc_universal,
                          witness_deficit_counts, universal_term)
from fo2mc.errors import SemanticError
from fo2mc.logic import CARD_TRUE, CardCompare, LinearExpr, card_conjoin
from fo2mc.normalize import normalize
from fo2mc.oracle import oracle_count, oracle_stratified
from fo2mc.parser import parse_problem

from conftest import ZERO_OR_TWO_EXAMPLE, RUNNING_EXAMPLE


def running_solver():
    return Solver(parse_problem(RUNNING_EXAMPLE))


# -- universal counting ---------------------------------------------------------


def test_worked_census_term_n3():
    """Worked census term: n=3, census (2,0,0,1) contributes
    3 * 4 * 2^2 = 48."""
    solver = running_solver()
    assert universal_term(solver.cells, 3, (2, 0, 0, 1)) == 48


def test_fomc_universal_running():
    solver = running_solver()
    assert fomc_universal(solver.cells, 2) == 48
    assert 48 == 16 + 16 + 8 + 8  # hand sum over |A| strata at n=2


def test_tautology_with_one_unary():
    p = parse_problem("forall x (A(x) | !A(x))")
    s = Solver(p)
    for n in (1, 2, 5, 9):
        assert s.count(n) == 2 ** n


def test_term_validation():
    solver = running_solver()
    with pytest.raises(SemanticError):
        universal_term(solver.cells, 3, (1, 0, 0, 1))


# -- Scott form -----------------------------------------------------------------


def test_forall_exists_closed_form():
    s = Solver(parse_problem("forall x exists y R(x,y)"))
    assert s.count(2) == 9
    assert s.count(3) == 343
    for n in range(1, 9):
        assert s.count(n) == (2 ** n - 1) ** n


def test_no_existentials_equals_universal():
    solver = running_solver()
    assert solver.count(3) == fomc_universal(solver.cells, 3)


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
        assert s.pinned


def test_unpinned_pattern_warns_and_may_disagree():
    """Negative or escapable counting contexts are outside the sound
    fragment: the engine still answers, but warns."""
    p = parse_problem("predicate B/1\npredicate R/2\n"
                      "forall x (B(x) | exists{=1} y R(x,y))")
    s = Solver(p)
    assert not s.pinned
    with pytest.warns(UnsoundCountingPatternWarning):
        s.count(2)


# -- profile machinery ----------------------------------------------------------------


def test_profile_breakdown_running():
    s = running_solver()
    result = s.breakdown(2, ("A",))
    assert result.total == 48
    assert [(cards["A"], value) for cards, value in result.profiles] == \
        [(0, 16), (1, 16), (2, 16)]


def test_breakdown_empty_tracking():
    s = running_solver()
    result = s.breakdown(3, ())
    assert result.profiles == [({}, 1792)]


def test_breakdown_binary_tracking():
    s = running_solver()
    result = s.breakdown(2, ("R",))
    strata = oracle_stratified(s.norm.signature, parse_problem(RUNNING_EXAMPLE).sentence,
                               2, preds=("R",))
    assert {cards["R"]: value for cards, value in result.profiles} == \
        {r: c for (r,), c in strata.items()}
    assert result.total == 48


def test_stratified_census_identity():
    """Per-census engine terms equal oracle 1-type census counts."""
    p = parse_problem(RUNNING_EXAMPLE)
    solver = Solver(p)
    for n in (1, 2, 3):
        census = oracle_stratified(p.signature, p.sentence, n, by_one_types=True)
        for k in compositions(n, 4):
            want = census.get(k, 0)
            assert universal_term(solver.cells, n, k) == want


# -- evaluation strategies agree --------------------------------------------------------


def collapse_both_ways(text, n, tracked=()):
    norm = normalize(parse_problem(text))
    cells = build_cells(norm.signature, norm.matrix)
    ev = ProfileEvaluator(norm, cells, n, tracked)
    if not ev.collapsed_applicable():
        return None
    enum = ev._enumerate_table()
    collapsed = ev._collapsed_table()
    scale = Fraction(1, ev.divisor_scale ** n)
    return ({k: v * scale for k, v in enum.items()},
            {k: v * scale for k, v in collapsed.items()})


@pytest.mark.parametrize("text,tracked", [
    ("forall x exists y R(x,y)", ()),
    ("forall x exists{=1} y R(x,y)", ()),
    (ZERO_OR_TWO_EXAMPLE, ()),
    ("forall x exists{=2} y R(x,y)", ("R",)),
    ("forall x (A(x) -> exists y R(x,y))", ("A",)),
])
def test_enum_equals_collapsed(text, tracked):
    for n in (1, 2, 3, 4, 5):
        pair = collapse_both_ways(text, n, tracked)
        assert pair is not None, "expected a collapsible matrix"
        enum, collapsed = pair
        enum = {k: v for k, v in enum.items() if v}
        collapsed = {k: v for k, v in collapsed.items() if v}
        assert enum == collapsed


def test_running_example_not_collapsible():
    norm = normalize(parse_problem(RUNNING_EXAMPLE))
    cells = build_cells(norm.signature, norm.matrix)
    assert not cells.cross_independent


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
    assert constrained.breakdown(2, ("A",)).profiles == [({"A": 2}, 16)]
    assert running_solver().breakdown(2, ("A",)).total == 48
