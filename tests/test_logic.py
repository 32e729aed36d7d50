import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fo2mc import logic
from fo2mc.errors import SemanticError
from fo2mc.logic import (And, Atom, CardAnd, CardCompare, CardNot, CardOr,
                         Counting, Eq, Exists, Forall, Iff, Implies,
                         LinearExpr, Node, Not, Or, Signature, WAdd, WCard,
                         WMul, WNeg, WNum, WPow, WSub, conjuncts, decimal_str,
                         free_vars, one_type_slots, slot_bit, substitute,
                         weight_value, weight_predicates)
from fo2mc.normalize import CountingBlock
from fo2mc.parser import parse_formula


def test_signature_rules():
    sig = Signature()
    sig.declare("A", 1)
    sig.declare("R", 2, synthetic=True)
    assert sig.arity("A") == 1
    assert sig.user_predicates() == ["A"]
    with pytest.raises(SemanticError):
        sig.declare("A", 2)
    with pytest.raises(SemanticError):
        sig.declare("x", 1)
    with pytest.raises(SemanticError):
        sig.arity("missing")


def test_one_type_slot_order():
    sig = Signature()
    sig.declare("R", 2)
    sig.declare("B", 1)
    sig.declare("A", 1)
    assert one_type_slots(sig) == [("A", "unary"), ("B", "unary"),
                                   ("R", "reflexive")]


def test_slot_bit_big_endian():
    # slot 0 is the most significant bit of a packed index
    assert [slot_bit(1, s, 2) for s in (0, 1)] == [0, 1]
    assert [slot_bit(2, s, 2) for s in (0, 1)] == [1, 0]


def test_free_vars_and_substitution():
    f = parse_formula("A(x) & R(x,y) & x != y -> A(y)")
    assert free_vars(f) == {"x", "y"}
    swapped = substitute(f, {"x": "y", "y": "x"})
    assert free_vars(swapped) == {"x", "y"}
    assert substitute(swapped, {"x": "y", "y": "x"}) == f


def test_swap_renames_bound_variables_and_merge_only_free_ones():
    f = parse_formula("R(y,x) & exists y S(x,y)")
    assert substitute(f, {"x": "y", "y": "x"}) == parse_formula("R(x,y) & exists x S(y,x)")
    assert substitute(f, {"y": "x"}) == parse_formula("R(x,x) & exists y S(x,y)")


def test_conjunct_splitting():
    f = parse_formula("A(x) & (B(x) & C(x)) & D(x)")
    names = [c.pred for c in conjuncts(f)]
    assert names == ["A", "B", "C", "D"]


def test_linear_expr_eval():
    e = LinearExpr.of(1, A=2, R=-1)
    assert e.evaluate({"A": 3, "R": 4}) == 3
    assert e.predicates() == {"A", "R"}


def test_constraint_boolean_combinations():
    a2 = CardCompare("=", LinearExpr.card("A"), LinearExpr.of(2))
    a0 = CardCompare("=", LinearExpr.card("A"), LinearExpr.of(0))
    either = CardOr((a2, a0))
    assert either.holds({"A": 0}) and either.holds({"A": 2})
    assert not either.holds({"A": 1})
    assert CardNot(either).holds({"A": 1})


def test_weight_expression_evaluation():
    expr = WAdd(WNum(Fraction(1)), WPow(WNum(Fraction(-1)), WCard("H")))
    assert weight_value(expr, {"H": 3}) == 0
    assert weight_value(expr, {"H": 2}) == 2
    assert weight_predicates(expr) == {"H"}


def test_weight_fractional_exponent_rejected():
    expr = WPow(WNum(Fraction(2)), WNum(Fraction(1, 2)))
    with pytest.raises(SemanticError, match="exponent"):
        weight_value(expr, {})


def test_decimal_str():
    assert decimal_str(Fraction(3)) == "3"
    assert decimal_str(Fraction(1, 8)) == "0.125"
    assert decimal_str(Fraction(-27, 20)) == "-1.35"
    assert decimal_str(Fraction(1, 3)) == "1/3"


def test_formula_repr_round_trips():
    text = "forall x (A(x) -> exists{=2} y (R(x,y) | x = y))"
    f = parse_formula(text)
    assert parse_formula(str(f)) == f


@pytest.mark.parametrize("text,printed", [
    ("A(x) & B(x) & (C(x) & D(x)) & E(x)", "A(x) & B(x) & (C(x) & D(x)) & E(x)"),
    ("(A(x) -> B(x)) -> C(x) -> D(x) -> E(x)", "(A(x) -> B(x)) -> C(x) -> D(x) -> E(x)"),
    ("A(x) <-> (B(x) <-> C(x)) <-> D(x)", "A(x) <-> (B(x) <-> C(x)) <-> D(x)"),
    ("(A(x) | B(x) & C(x) | D(x)) & (E(x) -> A(x))",
     "(A(x) | B(x) & C(x) | D(x)) & (E(x) -> A(x))"),
])
def test_connective_chains_print_as_parsed(text, printed):
    f = parse_formula(text)
    assert str(f) == printed
    assert parse_formula(printed) == f


def test_long_conjunction_prints_without_recursion():
    atoms = [Atom(f"P{i}", ("x",)) for i in range(5000)]
    f = atoms[0]
    for atom in atoms[1:]:
        f = And(f, atom)
    assert str(f) == " & ".join(f"P{i}(x)" for i in range(5000))


A_X = "Atom(pred='A', args=('x',))"
EQ = "Eq(left='x', right='y')"
CARD_A = "LinearExpr(coeffs=(('A', 1),), const=0)"
LE_2 = f"CardCompare(op='<=', left={CARD_A}, right=LinearExpr(coeffs=(), const=2))"
ONE = "WNum(value=Fraction(1, 1))"
H = "WCard(pred='H')"

#: per node class, a function building one node (fresh on every call,
#: children included) and the node's repr in the dataclass format
NODES = {
    "Atom": (lambda: Atom("A", ("x",)), A_X),
    "Eq": (lambda: Eq("x", "y"), EQ),
    "Not": (lambda: Not(Atom("A", ("x",))), f"Not(sub={A_X})"),
    "And": (lambda: And(Atom("A", ("x",)), Eq("x", "y")), f"And(left={A_X}, right={EQ})"),
    "Or": (lambda: Or(Atom("A", ("x",)), Eq("x", "y")), f"Or(left={A_X}, right={EQ})"),
    "Implies": (lambda: Implies(Atom("A", ("x",)), Eq("x", "y")),
                f"Implies(left={A_X}, right={EQ})"),
    "Iff": (lambda: Iff(Atom("A", ("x",)), Eq("x", "y")), f"Iff(left={A_X}, right={EQ})"),
    "Forall": (lambda: Forall("x", Atom("A", ("x",))), f"Forall(var='x', body={A_X})"),
    "Exists": (lambda: Exists("x", Atom("A", ("x",))), f"Exists(var='x', body={A_X})"),
    "Counting": (lambda: Counting("=", 2, "x", Atom("A", ("x",))),
                 f"Counting(cmp='=', count=2, var='x', body={A_X})"),
    "LinearExpr": (lambda: LinearExpr.card("A"), CARD_A),
    "CardCompare": (lambda: CardCompare("<=", LinearExpr.card("A"), LinearExpr.of(2)), LE_2),
    "CardAnd": (lambda: CardAnd((CardCompare("<=", LinearExpr.card("A"), LinearExpr.of(2)),)),
                f"CardAnd(parts=({LE_2},))"),
    "CardOr": (lambda: CardOr((CardCompare("<=", LinearExpr.card("A"), LinearExpr.of(2)),)),
               f"CardOr(parts=({LE_2},))"),
    "CardNot": (lambda: CardNot(CardCompare("<=", LinearExpr.card("A"), LinearExpr.of(2))),
                f"CardNot(sub={LE_2})"),
    "WNum": (lambda: WNum(Fraction(1)), ONE),
    "WCard": (lambda: WCard("H"), H),
    "WNeg": (lambda: WNeg(WCard("H")), f"WNeg(sub={H})"),
    "WAdd": (lambda: WAdd(WNum(Fraction(1)), WCard("H")), f"WAdd(left={ONE}, right={H})"),
    "WSub": (lambda: WSub(WNum(Fraction(1)), WCard("H")), f"WSub(left={ONE}, right={H})"),
    "WMul": (lambda: WMul(WNum(Fraction(1)), WCard("H")), f"WMul(left={ONE}, right={H})"),
    "WPow": (lambda: WPow(WNum(Fraction(1)), WCard("H")), f"WPow(base={ONE}, exponent={H})"),
    "CountingBlock": (lambda: CountingBlock(1, "R", "<=", 2, "__A1"),
                      "CountingBlock(index=1, guard='R', cmp='<=', m=2, a_pred='__A1', "
                      "f_preds=(), indicators=(), sign=None)"),
}


def _node_classes(cls=Node):
    """The names of the concrete node classes: the subclasses of ``cls``
    that have no subclasses themselves."""
    subs = cls.__subclasses__()
    return set().union(*map(_node_classes, subs)) if subs else {cls.__name__}


def test_node_parameters_cover_every_node_class():
    assert _node_classes() == set(NODES)


@pytest.mark.parametrize("name", NODES)
def test_node_semantics(name):
    """The value semantics every node class keeps: equality and hash by
    fields, use as a dict key, the dataclass repr, refused assignment,
    and pickle and copy round trips."""
    build, text = NODES[name]
    node, twin = build(), build()
    assert type(node).__name__ == name
    assert node is not twin and node == twin and not node != twin
    assert hash(node) == hash(twin)
    assert {node: 1}[twin] == 1
    cls, fields = node.__reduce__()
    for k in range(len(fields)):
        assert node != cls(*fields[:k], object(), *fields[k + 1:])
    assert repr(node) == text
    first_field = text[len(name) + 1:].split("=")[0]
    for change in (lambda: setattr(node, first_field, None),
                   lambda: delattr(node, first_field),
                   lambda: setattr(node, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert node == twin
    for copied in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert type(copied) is type(node) and copied == node and hash(copied) == hash(node)


@pytest.mark.parametrize("one,other,fields", [
    (And, Or, (Atom("A", ("x",)), Eq("x", "y"))),
    (WAdd, WMul, (WNum(Fraction(1)), WCard("H"))),
    (CardAnd, CardOr, ((CardCompare("=", LinearExpr.card("A"), LinearExpr.of(2)),),)),
], ids=("And-Or", "WAdd-WMul", "CardAnd-CardOr"))
def test_same_fields_under_another_type_differ(one, other, fields):
    assert one(*fields) != other(*fields) and not one(*fields) == other(*fields)
    assert len({one(*fields), other(*fields)}) == 2


def test_linear_expr_defaults():
    empty = LinearExpr()
    assert (empty.coeffs, empty.const) == ((), 0)
    assert empty == LinearExpr((), 0) == LinearExpr.of()
    assert str(empty) == "0"


def test_import_builds_no_dataclass():
    """Importing the command line, in a fresh interpreter, loads neither
    ``dataclasses`` nor ``inspect``: the node and record classes are
    plain classes."""
    src = str(Path(logic.__file__).resolve().parent.parent)
    code = ("import sys, fo2mc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
