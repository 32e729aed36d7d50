import pytest
from fractions import Fraction

from fo2mc.engine import ProfileEvaluator, Solver
from fo2mc.errors import SemanticError
from fo2mc.logic import WNum, weight_value
from fo2mc.oracle import oracle_count, oracle_distribution
from fo2mc.parser import parse_problem, parse_weight_expr
from fo2mc.weights import (count_distribution, distribution_table,
                           wfomc_profile, wfomc_symmetric)

from conftest import RUNNING_EXAMPLE, pinned, profile_rows

COINS = """\
predicate H/1
forall x (H(x) | !H(x))
profileweight 1 + (-1)^|H|
"""


def test_unit_weights_equal_fomc():
    text = RUNNING_EXAMPLE + "weight A 1 1\nweight R 1 1\n"
    p = parse_problem(text)
    s = Solver(p)
    for n in (1, 2, 3):
        assert wfomc_symmetric(s, n) == s.count(n)


def test_single_unary_factor():
    p = parse_problem("predicate A/1\nforall x (A(x) | !A(x))\nweight A 2 1")
    for n in (1, 2, 3, 4, 6):
        assert wfomc_symmetric(p, n) == 3 ** n


def test_symmetric_matches_oracle():
    text = RUNNING_EXAMPLE + "weight A 1 1\nweight R 1 2\n"
    p = parse_problem(text)
    for n in (1, 2, 3):
        want = oracle_count(p.signature, p.sentence, n,
                            symmetric_weights=p.symmetric_weights).weighted_total
        assert wfomc_symmetric(p, n) == want


def test_rational_weights_exact():
    p = parse_problem("predicate A/1\nforall x (A(x) | !A(x))\nweight A 0.5 0.25")
    assert wfomc_symmetric(p, 2) == (Fraction(1, 2) + Fraction(1, 4)) ** 2


#: one problem per way the engine evaluates a count, with its scale at
#: n = 3: the successor encoding with two exact blocks whose A's are
#: disjoint (d_R^9 (1! 2!)^3), with a signed block the matrix does not pin
#: (d_R^9 1!^3), the per-element count of a block and pair tables without a
#: block (d_A^3 d_R^9); A is weighted where it is declared
SCALED = {
    "disjoint_blocks": ("forall x forall y (R(x,y) -> R(y,x)) & "
                        "forall x (exists{=1} y R(x,y) | exists{=2} y R(x,y))", 2 ** 9 * 2 ** 3),
    "signed_block": ("forall x !exists{=1} y (R(x,y) & R(y,x))", 2 ** 9),
    "per_element": ("forall x (A(x) -> exists{=2} y R(x,y))", 10 ** 3 * 2 ** 9),
    "pair_tables": ("forall x forall y (R(x,y) -> (R(y,x) | A(x)))", 10 ** 3 * 2 ** 9),
}


@pytest.mark.parametrize("name", sorted(SCALED))
def test_closed_form_scale(name):
    """Fractional and negative symmetric weights are integers before any
    census: each pair is scaled by the lcm d_p of its denominators, a type
    outside block i's A weighs m_i!, and the count is divided by
    prod_p d_p^(n^arity(p)) prod_i m_i!^n."""
    text, scale = SCALED[name]
    unary = "A(" in text
    p = parse_problem("predicate A/1\n" * unary + "predicate R/2\n" + text +
                      "\nweight A 0.2 -1.5" * unary + "\nweight R 0.5 -3\n")
    solver = Solver(p)
    paths = {"disjoint_blocks": solver.norm.successors and len(solver.norm.blocks) == 2,
             "signed_block": solver.norm.successors and not pinned(solver),
             "per_element": solver.norm.blocks and not solver.norm.successors,
             "pair_tables": not solver.norm.blocks and not solver.cells.directed}
    assert paths[name]
    for n in (1, 2, 3):
        assert wfomc_symmetric(solver, n) == oracle_count(
            p.signature, p.sentence, n, symmetric_weights=p.symmetric_weights).weighted_total
    assert ProfileEvaluator(solver.norm, solver.cells, 3, fold=p.symmetric_weights).scale == scale


def test_missing_weight_rejected():
    p = parse_problem(RUNNING_EXAMPLE + "weight A 1 1\n")
    with pytest.raises(SemanticError, match="missing symmetric weight"):
        wfomc_symmetric(p, 2)


def test_symmetric_on_counting_problem():
    p = parse_problem("predicate R/2\nforall x exists{=1} y R(x,y)\nweight R 3 1")
    for n in (1, 2, 3):
        want = oracle_count(p.signature, p.sentence, n,
                            symmetric_weights=p.symmetric_weights).weighted_total
        assert wfomc_symmetric(p, n) == want


def test_folding_equivalence():
    """The cell-folded symmetric path equals the profile-weighted path
    with the explicit exponent formula."""
    folded = Solver(parse_problem(RUNNING_EXAMPLE + "weight A 3 1\nweight R 1 2\n"))
    bare = Solver(parse_problem(RUNNING_EXAMPLE))
    for n in (1, 2, 3):
        explicit = parse_weight_expr(f"3^|A| * 1^({n} - |A|) * 1^|R| * 2^({n * n} - |R|)",
                                     bare.norm.signature)
        assert wfomc_symmetric(folded, n) == wfomc_profile(bare, n, explicit)


def test_profile_weight_unit_is_fomc():
    p = parse_problem(RUNNING_EXAMPLE)
    s = Solver(p)
    one = WNum(Fraction(1))
    assert wfomc_profile(s, 3, one) == s.count(3)


def test_coins_partition_and_strata():
    p = parse_problem(COINS)
    assert wfomc_profile(p, 4) == 16
    s = Solver(p)
    strata = {cards["H"]: value for cards, value in profile_rows(s, 4, ("H",))}
    assert strata == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    w = p.profile_weight
    assert [weight_value(w, {"H": k}) for k in range(5)] == [2, 0, 2, 0, 2]


def test_coins_distribution_golden_values():
    p = parse_problem(COINS)
    dist = distribution_table(p, 4, ("H",))
    assert dist == {(0,): Fraction(1, 8), (1,): Fraction(0),
                    (2,): Fraction(3, 4), (3,): Fraction(0),
                    (4,): Fraction(1, 8)}
    num, z, q = count_distribution(p, 4, [("H", 2)])
    assert (num, z, q) == (12, 16, Fraction(3, 4))


def test_fairness_weight_matches_oracle():
    text = RUNNING_EXAMPLE + "profileweight (2*|A| - 3)^2\n"
    p = parse_problem(text)
    want = oracle_count(p.signature, p.sentence, 3,
                        profile_weight=p.profile_weight).weighted_total
    assert wfomc_profile(p, 3) == want == 9984


def test_distribution_sums_to_one():
    for text, preds, n in ((COINS, ("H",), 4),
                           (RUNNING_EXAMPLE, ("A",), 3),
                           ("predicate R/2\nforall x exists y R(x,y)", ("R",), 3)):
        p = parse_problem(text)
        dist = distribution_table(p, n, preds)
        assert sum(dist.values()) == 1


def test_uniform_weight_proportional_to_strata():
    p = parse_problem(RUNNING_EXAMPLE)
    num, z, q = count_distribution(p, 2, [("A", 2)])
    assert q == Fraction(16, 48)


def test_distribution_matches_oracle():
    p = parse_problem(COINS)
    want = oracle_distribution(p.signature, p.sentence, 4, p.profile_weight, ("H",))
    got = distribution_table(p, 4, ("H",))
    for key, value in want.items():
        assert got[key] == value


def test_zero_partition_function():
    p = parse_problem("predicate H/1\nforall x (H(x) & !H(x))\nprofileweight 1")
    with pytest.raises(SemanticError, match="partition"):
        count_distribution(p, 2, [("H", 0)])


def test_query_on_definitional_predicate():
    """Count statistics of a compound formula via a defining predicate."""
    text = """\
predicate A/1
predicate B/1
predicate P/1
forall x (P(x) <-> A(x) & B(x))
"""
    p = parse_problem(text)
    dist = distribution_table(p, 2, ("P",))
    # P-count distribution of two independent features on two elements
    assert dist[(2,)] == Fraction(1, 16)
    assert sum(dist.values()) == 1


def test_distribution_under_symmetric_weights():
    """A symmetric weight declaration defines the model distribution
    for count queries too."""
    text = RUNNING_EXAMPLE + "weight A 2 1\nweight R 1 1\n"
    p = parse_problem(text)
    got = distribution_table(p, 2, ("A",))
    want = oracle_distribution(p.signature, p.sentence, 2, None, ("A",),
                               symmetric_weights=p.symmetric_weights)
    assert got == want
    assert sum(got.values()) == 1
    num, z, q = count_distribution(p, 2, [("A", 2)])
    assert q == want[(2,)]


def test_negative_weight_values_allowed():
    p = parse_problem(COINS)
    expr = parse_weight_expr("(-1)^|H|", p.signature)
    total = wfomc_profile(p, 4, expr)
    assert total == 0  # alternating binomial sum
