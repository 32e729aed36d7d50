import pytest

from fo2mc.errors import UnsupportedFeatureError
from fo2mc.grounding import ground
from fo2mc.logic import (Atom, CardCompare, Counting, Forall,
                         Implies, LinearExpr, Not, Or, is_quantifier_free)
from fo2mc.normalize import (NameAllocator, dump_normalized,
                             expand_counting_sugar, normalize,
                             successor_encoding, to_scott)
from fo2mc.oracle import oracle_count
from fo2mc.parser import parse_formula, parse_problem

from conftest import ZERO_OR_TWO_EXAMPLE, RUNNING_EXAMPLE


def model_set(signature, sentence, n):
    gf = ground(signature, sentence, n)
    return {a for a in range(1 << len(gf.atoms)) if gf.evaluate(a)}


# -- counting sugar -----------------------------------------------------------


def test_sugar_ge1_is_plain_exists():
    # at-least-1 becomes the negation of the empty-successor case
    f = parse_formula("exists{>=1} y R(x,y)")
    out = expand_counting_sugar(f)
    assert out == Not(Forall("y", Not(Atom("R", ("x", "y")))))


def test_sugar_le1_expansion():
    f = parse_formula("exists{<=1} y R(x,y)")
    out = expand_counting_sugar(f)
    r = Atom("R", ("x", "y"))
    assert out == Or(Forall("y", Not(r)), Counting("=", 1, "y", r))


def test_sugar_ge2_expansion():
    f = parse_formula("exists{>=2} y R(x,y)")
    out = expand_counting_sugar(f)
    r = Atom("R", ("x", "y"))
    assert out == Not(Or(Forall("y", Not(r)), Counting("=", 1, "y", r)))


def test_sugar_eq0_is_universal_negation():
    f = parse_formula("exists{=0} y R(x,y)")
    assert expand_counting_sugar(f) == Forall("y", Not(Atom("R", ("x", "y"))))


@pytest.mark.parametrize("quant", ["exists{<=1}", "exists{>=2}", "exists{<=2}"])
def test_sugar_preserves_models(quant):
    """Oracle-checked model equivalence of the expansion on small domains."""
    text = f"forall x ({quant} y R(x,y))"
    p = parse_problem(text)
    expanded = expand_counting_sugar(p.sentence)
    for n in (1, 2, 3):
        assert model_set(p.signature, p.sentence, n) == \
            model_set(p.signature, expanded, n)


# -- counting encoding ---------------------------------------------------------


def test_zero_or_two_example_encoding():
    norm = successor_encoding(normalize(parse_problem(ZERO_OR_TWO_EXAMPLE)))
    assert len(norm.blocks) == 1
    block = norm.blocks[0]
    assert block.guard == "R" and block.m == 2
    assert block.a_pred == "__A1"
    assert block.f_preds == ("__f1_1", "__f1_2")
    assert block.divisor_base == 2
    assert norm.sign_preds == ("__P1", "__P2")
    assert block.sign is None
    texts = [str(c) for c in norm.matrix]
    assert "!R(x, y) | __A1(x)" in texts
    assert "__A1(x) -> (R(x, y) <-> __f1_1(x, y) | __f1_2(x, y))" in texts
    assert "__f1_1(x, y) -> !__f1_2(x, y)" in texts
    assert "__P1(x) -> !(__A1(x) -> __f1_1(x, y))" in texts
    assert "__P2(x) -> !(__A1(x) -> __f1_2(x, y))" in texts
    ties = norm.tie_constraint()
    assert CardCompare("=", LinearExpr.card("__f1_1"),
                       LinearExpr.card("__A1")) in ties.parts


def test_single_variable_counting_becomes_constraint():
    norm = normalize(parse_problem("predicate A/1\nexists{=1} x A(x)"))
    assert not norm.blocks
    comp = norm.constraint
    assert isinstance(comp, CardCompare) and comp.op == "="
    assert comp.left.coeffs[0][0].startswith("__A")
    assert comp.right.const == 1


def test_m1_block_has_no_disjointness():
    norm = successor_encoding(normalize(parse_problem("forall x exists{=1} y R(x,y)")))
    block = norm.blocks[0]
    assert block.f_preds == ("__f1_1",)
    # no f_i -> !f_j conjunct is generated for a single successor pred
    assert not any("__f1_1(x, y) -> !" in str(c) for c in norm.matrix)


def test_nested_counting_rejected():
    # unreachable through the parser (it forbids rebinding), so build the
    # AST directly: an exactly-1 quantifier inside an exactly-2 body
    from fo2mc.logic import And, Signature
    from fo2mc.normalize import encode_counting
    sig = Signature()
    sig.declare("R", 2)
    sig.declare("S", 2)
    inner = Counting("=", 1, "x", Atom("S", ("x", "y")))
    outer = Forall("x", Counting("=", 2, "y",
                                 And(Atom("R", ("x", "y")), inner)))
    with pytest.raises(UnsupportedFeatureError, match="nested"):
        encode_counting(outer, NameAllocator(sig))


def test_non_toplevel_single_var_counting_rejected():
    with pytest.raises(UnsupportedFeatureError, match="top-level"):
        normalize(parse_problem("predicate A/1\npredicate B/1\n"
                                "forall x (B(x) -> exists{=2} y A(y))"))


# -- Scott reduction -----------------------------------------------------------


def scott_parts(text):
    p = parse_problem(text)
    alloc = NameAllocator(p.signature.copy())
    return to_scott(p.sentence, alloc)


def test_already_snf():
    matrix, psis = scott_parts("forall x exists y R(x,y)")
    assert matrix == []
    assert psis == [Atom("R", ("x", "y"))]


def test_closed_exists():
    matrix, psis = scott_parts("exists x A(x)")
    assert matrix == []
    assert psis == [Atom("A", ("y",))]


def test_guarded_exists_pull():
    matrix, psis = scott_parts("forall x (A(x) -> exists y R(x,y))")
    assert matrix == []
    assert psis == [Implies(Atom("A", ("x",)), Atom("R", ("x", "y")))]


def test_matrix_conjuncts_are_quantifier_free():
    for text in ("forall x forall y (R(x,y) -> R(y,x))",
                 "exists x forall y R(x,y)",
                 "exists x exists y (R(x,y) & !R(y,x))",
                 "forall x (A(x) <-> exists y R(x,y))"):
        norm = normalize(parse_problem(text))
        assert all(is_quantifier_free(c) for c in norm.matrix)


@pytest.mark.parametrize("text", [
    "exists x A(x)",
    "forall x (A(x) -> exists y R(x,y))",
    "exists x forall y R(x,y)",
    "exists x exists y (R(x,y) & !R(y,x))",
    "forall x (A(x) <-> exists y R(x,y))",
    "forall y exists x R(x,y)",
    "(exists x A(x)) | (forall x B(x))",
])
def test_normalization_preserves_count(text):
    """The module's master property: oracle(original) = engine(normalized)
    via the full pipeline."""
    from fo2mc.engine import Solver
    p = parse_problem(text)
    solver = Solver(p)
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total


def test_sign_elimination_pattern():
    norm = normalize(parse_problem("forall x exists y R(x,y)"))
    assert norm.sign_preds == ("__P1",)
    assert [str(c) for c in norm.matrix] == ["__P1(x) -> !R(x, y)"]
    quiet = normalize(parse_problem("forall x forall y R(x,y)"))
    assert quiet.sign_preds == ()
    assert [str(c) for c in quiet.matrix] == ["R(x, y)"]


def test_fresh_name_hygiene():
    p = parse_problem(RUNNING_EXAMPLE + "\n")
    norm = normalize(p)
    user = set(p.signature.arities)
    assert user <= set(norm.signature.arities)
    fresh = set(norm.signature.arities) - user
    assert all(name.startswith("__") for name in fresh)
    assert fresh == set(norm.signature.synthetic)


def test_idempotence_on_matrix():
    norm = normalize(parse_problem(ZERO_OR_TWO_EXAMPLE))
    dumped = dump_normalized(norm)
    again = normalize(parse_problem(dumped, allow_synthetic=True))
    assert again.matrix == norm.matrix


def test_dump_includes_ties():
    dumped = dump_normalized(successor_encoding(normalize(parse_problem(ZERO_OR_TWO_EXAMPLE))))
    assert "constraint |__f1_1| = |__A1|" in dumped
    assert "# signs __P1 __P2" in dumped
