import io
from fractions import Fraction

import pytest

from fo2mc.cli import run
from fo2mc.engine import Solver
from fo2mc.errors import ParseError, SemanticError
from fo2mc.logic import (And, Atom, CardCompare, Counting, Eq, Exists, Forall,
                         Implies, LinearExpr, Not)
from fo2mc.parser import (format_problem, parse_cardinality, parse_formula,
                          parse_problem, parse_weight_expr)
from fo2mc.oracle import oracle_count

from conftest import RUNNING_EXAMPLE, TWO_PROFILE_WEIGHTS, UNDECLARED_WEIGHT


def test_running_example_ast():
    p = parse_problem("""
    predicate A/1
    predicate R/2
    forall x forall y (A(x) & R(x,y) & x != y -> A(y))
    """)
    expected = Forall("x", Forall("y", Implies(
        And(And(Atom("A", ("x",)), Atom("R", ("x", "y"))), Not(Eq("x", "y"))),
        Atom("A", ("y",)))))
    assert p.sentence == expected


def test_counting_quantifier_ast():
    f = parse_formula("forall x exists{=2} y R(x,y)")
    assert f == Forall("x", Counting("=", 2, "y", Atom("R", ("x", "y"))))
    f = parse_formula("exists{<=1} y R(x,y)")
    assert f.cmp == "<=" and f.count == 1
    f = parse_formula("exists{>=3} y R(x,y)")
    assert f.cmp == ">=" and f.count == 3


def test_quantifier_dot_is_optional():
    """A dot may follow a quantified variable; it changes nothing."""
    assert parse_formula("forall x. exists{=1} y. R(x,y)") == \
        parse_formula("forall x exists{=1} y R(x,y)")


def test_undeclared_predicate_strict():
    with pytest.raises(ParseError, match="undeclared predicate A"):
        parse_problem("predicate R/2\nforall x (A(x))")


def test_lenient_mode_autodeclares():
    p = parse_problem("forall x (A(x))")
    assert p.signature.arity("A") == 1


def test_arity_clash():
    with pytest.raises(ParseError, match="arity"):
        parse_problem("forall x (A(x) & A(x,x))")


def test_free_variable_rejected():
    with pytest.raises(SemanticError, match="free variable"):
        parse_problem("forall x R(x,y)")


def test_rebinding_binds_the_inner_scope():
    """A reused variable binds in the innermost quantifier that names it:
    the inner x ranges over B on its own, so every element is in A and
    some element is in B, 2^n - 1 models."""
    p = parse_problem("predicate A/1\npredicate B/1\nforall x (A(x) & exists x B(x))")
    assert p.sentence == Forall("x", And(Atom("A", ("x",)), Exists("x", Atom("B", ("x",)))))
    solver = Solver(p)
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total == 2 ** n - 1


def test_only_x_y_variables():
    with pytest.raises(ParseError, match="x or y"):
        parse_formula("forall z A(z)")


def test_reserved_synthetic_names():
    with pytest.raises(ParseError, match="reserved"):
        parse_problem("forall x __A1(x)")


def test_tight_quantifier_scope():
    f = parse_formula("forall x A(x) & forall x B(x)")
    assert isinstance(f, And)
    assert isinstance(f.left, Forall) and isinstance(f.right, Forall)


def test_implication_right_associative():
    f = parse_formula("forall x (A(x) -> B(x) -> C(x))")
    body = f.body
    assert isinstance(body, Implies) and isinstance(body.right, Implies)


def test_error_position():
    with pytest.raises(ParseError) as err:
        parse_problem("forall x\n(A(x) &)")
    assert err.value.line == 2


@pytest.mark.parametrize("text,position,message", [
    ("forall x A(x) $ B(x)", (1, 15), "unexpected character '$'"),
    ("predicate A/1\nforall x\n  (A(x) @ A(x))", (3, 9), "unexpected character '@'"),
    ("forall x A(x) # a comment\n  )", (2, 3), "unexpected trailing input ')'"),
    ("# header\nforall x (A(x) & B(x)\n", (3, 1),
     "expected ')', found 'end of input'"),
    (UNDECLARED_WEIGHT, (3, 8), "weight for undeclared predicate Q"),
    (TWO_PROFILE_WEIGHTS, (4, 1), "duplicate profileweight declaration"),
    ("predicate R/3\nforall x R(x,x)", (1, 13), "arity must be 1 or 2"),
    ("predicate x/1\nforall x A(x)", (1, 11), "'x' is a reserved variable name"),
    ("predicate /1\nforall x A(x)", (1, 11), "expected a predicate name"),
    ("forall x exists{<3} y R(x,y)", (1, 17), "expected =, <= or >= in counting quantifier"),
    ("forall x exists{=a} y R(x,y)", (1, 18), "expected a non-negative integer multiplicity"),
    ("forall z A(z)", (1, 8), "quantified variable must be x or y"),
    ("forall x (x < x)", (1, 13), "expected = or != after a variable"),
    ("forall x (x = A)", (1, 15), "equality arguments must be variables"),
    ("forall x A(z)", (1, 12), "terms must be the variables x or y"),
    ("forall x A(x)\nconstraint |A| 3", (2, 16), "expected a comparison operator"),
    ("forall x A(x)\nconstraint |A| <= x", (2, 19), "expected an integer or |predicate|"),
    ("predicate A/1\nforall x A(x)\nweight A x 1", (3, 10), "expected a number"),
    ("predicate A/1\nforall x A(x)\nprofileweight *", (3, 15),
     "expected a number, |predicate| or parenthesized expression"),
    ("predicate A/1\npredicate A/2\nforall x A(x)", (2, 13),
     "predicate A redeclared with arity 2 (was 1)"),
    ("forall x and", (1, 10), "expected a formula, found keyword 'and'"),
], ids=("character-line-1", "character-line-3", "after-comment", "end-of-input",
        "undeclared-weight", "duplicate-profileweight", "arity", "reserved-name",
        "no-predicate-name", "counting-operator", "multiplicity", "quantified-variable",
        "after-variable", "equality-argument", "term", "comparison-operator",
        "constraint-term", "weight-number", "profileweight-term", "redeclared-arity",
        "keyword-as-formula"))
def test_error_line_and_column(text, position, message, capsys):
    """Positions are 1-based; a comment counts as text, and the end of
    input sits after the last character.  Through the command line, with
    or without weights to read, the error exits 1 with its one line on the
    caller's error stream and nothing on sys.stderr."""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.column) == position
    assert str(err.value) == f"{position[0]}:{position[1]}: {message}"
    for command in ("count", "wfomc"):
        out, stream = io.StringIO(), io.StringIO()
        assert run([command, "-n", "2", "-e", text], out=out, err=stream) == 1
        assert (out.getvalue(), stream.getvalue()) == ("", f"error: {err.value}\n")
    assert capsys.readouterr() == ("", "")


def test_constraints():
    p = parse_problem("""
    predicate A/1
    predicate R/2
    forall x (A(x) | !A(x))
    constraint 2*|A| <= |R| + 1
    constraint |A| = 2 or |A| = 0
    """)
    cards = {"A": 2, "R": 3}
    assert p.constraint.holds(cards)
    assert not p.constraint.holds({"A": 1, "R": 5})
    assert not p.constraint.holds({"A": 2, "R": 2})


def test_constraint_undeclared_predicate():
    with pytest.raises(ParseError, match="undeclared"):
        parse_problem("predicate A/1\nforall x A(x)\nconstraint |Z| = 1")


def test_weights():
    p = parse_problem("""
    predicate H/1
    forall x (H(x) | !H(x))
    weight H 0.5 2
    profileweight 1 + (-1)^|H|
    """)
    assert p.symmetric_weights["H"] == (Fraction(1, 2), Fraction(2))
    from fo2mc.logic import weight_value
    assert weight_value(p.profile_weight, {"H": 1}) == 0
    assert weight_value(p.profile_weight, {"H": 2}) == 2


def test_duplicate_weight_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem("predicate H/1\nforall x H(x)\nweight H 1 1\nweight H 2 1")


def test_parse_cardinality_helper():
    p = parse_problem("predicate H/1\nforall x (H(x) | !H(x))")
    c = parse_cardinality("|H| = 2", p.signature)
    assert c == CardCompare("=", LinearExpr.card("H"), LinearExpr.of(2))


def test_parse_weight_expr_helper():
    p = parse_problem("predicate H/1\nforall x (H(x) | !H(x))")
    from fo2mc.logic import weight_value
    w = parse_weight_expr("(|H| - 1)^2", p.signature)
    assert weight_value(w, {"H": 3}) == 4


def test_format_problem_round_trip(running_problem):
    text = format_problem(running_problem)
    again = parse_problem(text)
    assert again.sentence == running_problem.sentence
    assert again.constraint == running_problem.constraint


@pytest.mark.parametrize("constraint", [
    "|A| = 1 or |A| = 3",
    "not (|R| <= 2)",
    "(|A| >= 1) and -|A| + 3 >= 0",
    "not (|A| = 0 or |R| > 4) and |R| - 2*|A| >= -1",
    "-2*|A| + |R| < 0",
    "|A| = 0 or (|A| >= 1 and |R| <= 3)",
])
def test_constraint_connectives_and_signed_terms(constraint):
    """or, not, parentheses and negative or scaled terms: the count obeys
    the constraint, and printing the problem parses back to it."""
    p = parse_problem(f"{RUNNING_EXAMPLE}constraint {constraint}\n")
    solver = Solver(p)
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n,
                                               constraint=p.constraint).total
    assert parse_problem(format_problem(p)).constraint == p.constraint


def test_comments_ignored():
    p = parse_problem("# a problem\npredicate A/1  # unary\nforall x (A(x))")
    assert p.signature.arity("A") == 1
