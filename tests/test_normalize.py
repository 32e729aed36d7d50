import itertools
import random

import pytest

from fo2mc.engine import Solver
from fo2mc.errors import UnsupportedFeatureError
from fo2mc.logic import (Atom, CardCompare, Counting, Exists, Forall, Implies,
                         LinearExpr, Not, Signature, is_quantifier_free)
from fo2mc.normalize import (NameAllocator, NormalizedProblem, dump_normalized,
                             encode_counting, normalize, successor_encoding, to_scott)
from fo2mc.oracle import oracle_count
from fo2mc.parser import parse_formula, parse_problem

from conftest import ZERO_OR_TWO_EXAMPLE, RUNNING_EXAMPLE


# -- counting comparisons -----------------------------------------------------


def test_sugar_eq0_is_universal_negation():
    """Exactly 0 (and at most 0) is rewritten where it stands, with no block."""
    for quant in ("exists{=0}", "exists{<=0}"):
        out, blocks = encode_counting(parse_formula(f"{quant} y R(x,y)"),
                                      NameAllocator(Signature({"R": 2})))
        assert out == Forall("y", Not(Atom("R", ("x", "y")))) and blocks == ()


def test_sugar_ge1_is_plain_exists():
    out, blocks = encode_counting(parse_formula("exists{>=1} y R(x,y)"),
                                  NameAllocator(Signature({"R": 2})))
    assert out == Exists("y", Atom("R", ("x", "y"))) and blocks == ()


@pytest.mark.parametrize("quant,span", [("exists{<=1}", (0, 1)), ("exists{>=2}", (0, 1)),
                                        ("exists{<=2}", (0, 2)), ("exists{=3}", (3, 3))])
def test_one_block_per_counting_quantifier(quant, span):
    """Every comparison with m past the degenerate ones is one block, whose
    A reads a span of the guard degree (at-least its complement)."""
    norm = normalize(parse_problem(f"forall x ({quant} y R(x,y))"))
    [block] = norm.blocks
    assert (block.guard, block.cmp + str(block.m), block.span) == ("R", quant[7:-1], span)
    assert [str(c) for c in norm.matrix] == [f"{block.a_pred}(x)"]


@pytest.mark.parametrize("quant", ["exists{<=1}", "exists{>=2}", "exists{<=2}"])
def test_sugar_preserves_models(quant):
    """The per-element count and the successor encoding's, signed where
    the matrix does not pin the block or signed always, match the oracle
    on small domains."""
    p = parse_problem(f"forall x ({quant} y R(x,y))")
    solvers = [Solver(p), Solver(Solver(p).successor_encoding()),
               Solver(successor_encoding(normalize(p), {1}))]
    for n in (1, 2, 3):
        want = oracle_count(p.signature, p.sentence, n).total
        assert [s.count(n) for s in solvers] == [want] * 3


#: the positions of the counting quantifier in the differential
POSITIONS = {"positive": "forall x {q} y R(x,y)",
             "negated": "forall x !({q} y R(x,y))",
             "disjunctive": "forall x (A(x) | {q} y R(x,y))",
             "biconditional": "forall x (A(x) <-> {q} y R(x,y))",
             "existential": "exists x {q} y R(x,y)"}
DIRECTED_ATOMS = ("A(x)", "A(y)", "R(x,x)", "R(x,y)", "x = y")


def comparison_problem(position: str, cmp: str, m: int, symmetric: bool) -> str:
    """The counting quantifier ``exists{cmp m}`` in ``position``, beside a
    seeded random matrix over the x -> y atoms (so directed, unless the
    symmetry of R is added)."""
    rng = random.Random(f"{position}/{cmp}/{m}/{symmetric}")

    def qf(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(DIRECTED_ATOMS)
        op = rng.choice(("&", "|", "->"))
        return f"({qf(depth - 1)} {op} {qf(depth - 1)})"
    conjuncts = [POSITIONS[position].format(q=f"exists{{{cmp}{m}}}")]
    if rng.random() < 0.5:
        conjuncts.append(f"forall x forall y {qf(2)}")
    if symmetric:
        conjuncts.append("forall x forall y (R(x,y) -> R(y,x))")
    return "predicate A/1\npredicate R/2\n" + " & ".join(f"({c})" for c in conjuncts) + "\n"


@pytest.mark.parametrize("symmetric", (False, True), ids=("directed", "symmetric"))
@pytest.mark.parametrize("position", POSITIONS)
def test_comparison_differential(position, symmetric):
    """Each comparison with m = 0..3 matches the oracle at n <= 3, per
    element on directed matrices and in the successor encoding on
    symmetric ones, wherever its table bits are supported."""
    encoded = []
    for cmp, m in itertools.product(("=", "<=", ">="), range(4)):
        p = parse_problem(comparison_problem(position, cmp, m, symmetric))
        try:
            solver = Solver(p)
        except UnsupportedFeatureError:
            assert symmetric and m >= 2
            continue
        for n in (1, 2, 3):
            assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total
        encoded.append(solver.norm.successors)
    assert len(encoded) >= 8 and any(encoded) == symmetric


def test_symmetric_at_least_three_counts():
    """The symmetric matrix with at least 3 R-successors (a loop counts):
    the successor encoding of degrees 0..2, read negated, within 30 table
    bits.  At n = 4, 43 of the 1,024 symmetric relations qualify."""
    p = parse_problem("predicate R/2\nforall x forall y (R(x,y) -> R(y,x)) & "
                      "forall x exists{>=3} y R(x,y)")
    solver = Solver(p)
    assert solver.norm.successors and [b.m for b in solver.norm.blocks] == [0, 1, 2]
    assert 2 * solver.cells.u + solver.cells.b <= 30
    assert [solver.count(n) for n in (1, 2, 3, 4)] == [
        *(oracle_count(p.signature, p.sentence, n).total for n in (1, 2, 3)), 43]


# -- counting encoding ---------------------------------------------------------


def test_zero_or_two_example_encoding():
    norm = successor_encoding(normalize(parse_problem(ZERO_OR_TWO_EXAMPLE)))
    assert len(norm.blocks) == 1
    block = norm.blocks[0]
    assert block.guard == "R" and block.m == 2
    assert block.a_pred == "__A1"
    assert block.f_preds == ("__f1_1", "__f1_2")
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


@pytest.mark.parametrize("text,merged", [
    ("forall x (exists y R(x,y) | exists y S(x,y))", "forall x exists y (R(x,y) | S(x,y))"),
    ("forall x ((forall y R(x,y)) -> exists y S(x,y))",
     "forall x exists y (R(x,y) -> S(x,y))"),
    ("exists x ((forall y R(x,y)) & forall y S(x,y))", "exists x forall y (R(x,y) & S(x,y))"),
], ids=("or-exists", "forall-implies-exists", "and-forall"))
def test_same_variable_quantifiers_merge_before_either_is_pulled(text, merged):
    """Quantifiers over one variable on both sides of a connective merge
    into one before either side is pulled out alone, so the sentence
    normalizes like its merged form: the first two need one sign predicate
    and no definitional one, where pulling one side first took __D1, __P1
    and __P2."""
    header = "predicate R/2\npredicate S/2\n"
    problem = parse_problem(header + text)
    norm = normalize(problem)
    assert dump_normalized(norm) == dump_normalized(normalize(parse_problem(header + merged)))
    if text.startswith("forall"):
        assert norm.sign_preds == ("__P1",)
        assert not [p for p in norm.signature.predicates() if p.startswith("__D")]
    solver = Solver(problem)
    for n in (1, 2):
        assert solver.count(n) == oracle_count(problem.signature, problem.sentence, n).total


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


def test_dump_of_a_long_matrix():
    """A matrix of 2,000 conjuncts is one conjunction; it prints without
    recursing once per conjunct."""
    norm = normalize(parse_problem("forall x forall y (R(x,y) -> R(y,x))"))
    long = NormalizedProblem(norm.signature, norm.matrix * 2000, (), ())
    [line] = [line for line in dump_normalized(long).splitlines() if line.startswith("forall x")]
    assert line.count(" & ") == 1999


def test_dump_includes_ties():
    dumped = dump_normalized(successor_encoding(normalize(parse_problem(ZERO_OR_TWO_EXAMPLE))))
    assert "constraint |__f1_1| = |__A1|" in dumped
    assert "# signs __P1 __P2" in dumped


def test_implicit_degree_zero_drops_the_conjunct_it_makes_true():
    """The occurrence of a pinned block whose span holds 0 reads true in the
    successor encoding, and the conjunct that said it holds is dropped, so
    no cell sweep evaluates a constant; a true conjunct the input wrote
    stays."""
    dumped = dump_normalized(successor_encoding(normalize(parse_problem(
        "predicate R/2\nforall x exists{<=1} y R(x,y)"))))
    assert dumped.splitlines()[4] == (
        "forall x (forall y ((__A1(x) -> (R(x, y) <-> __f1_1(x, y))) & (!__A1(x) -> !R(x, y))"
        " & (__P1(x) -> !(__A1(x) -> __f1_1(x, y)))))")
    written = successor_encoding(normalize(parse_problem(
        "predicate R/2\nforall x forall y x = x & forall x exists{<=1} y R(x,y)")))
    assert written.matrix[0] == parse_formula("x = x")
    assert len(written.matrix) == 4
