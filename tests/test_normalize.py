import itertools
import random
from fractions import Fraction

import pytest

from fo2mc.cells import build_cells
from fo2mc.engine import Solver
from fo2mc.errors import SemanticError, UnsupportedFeatureError
from fo2mc.logic import (And, Atom, CardCompare, Counting, Exists, Forall, Formula, Iff,
                         Implies, LinearExpr, Not, Or, Signature, is_quantifier_free,
                         other_variable, subformulas)
from fo2mc.normalize import (NameAllocator, NormalizedProblem, block_pinned,
                             dump_normalized, normalize, successor_encoding, to_scott)
from fo2mc.oracle import oracle_count
from fo2mc.parser import Problem, parse_formula, parse_problem

from conftest import SYMMETRIC, ZERO_OR_TWO_EXAMPLE, RUNNING_EXAMPLE, random_qf


# -- counting comparisons -----------------------------------------------------


def test_sugar_eq0_is_universal_negation():
    """Exactly 0 (and at most 0) is rewritten where it stands, with no
    block: forall y !R(x,y), whose body is the matrix."""
    for quant in ("exists{=0}", "exists{<=0}"):
        matrix, psis, blocks, _ = to_scott(parse_formula(f"{quant} y R(x,y)"),
                                           NameAllocator(Signature({"R": 2})))
        assert matrix == [Not(Atom("R", ("x", "y")))] and psis == [] and blocks == ()


def test_sugar_ge1_is_plain_exists():
    """At least 1 is exists y R(x,y), whose body is the one Psi."""
    matrix, psis, blocks, _ = to_scott(parse_formula("exists{>=1} y R(x,y)"),
                                       NameAllocator(Signature({"R": 2})))
    assert matrix == [] and psis == [Atom("R", ("x", "y"))] and blocks == ()


@pytest.mark.parametrize("quant,span", [("exists{<=1}", (0, 1)), ("exists{>=2}", (0, 1)),
                                        ("exists{<=2}", (0, 2)), ("exists{=3}", (3, 3))])
def test_one_block_per_counting_quantifier(quant, span):
    """Every comparison with m past the degenerate ones is one block, whose
    A reads a span of the guard degree: at least m is not at most m-1."""
    norm = normalize(parse_problem(f"forall x ({quant} y R(x,y))"))
    [block] = norm.blocks
    at_least = quant.startswith("exists{>=")
    cmp = f"<={span[1]}" if at_least else quant[7:-1]
    assert (block.guard, block.cmp + str(block.m), block.span) == ("R", cmp, span)
    assert [str(c) for c in norm.matrix] == [f"{'!' * at_least}{block.a_pred}(x)"]


def test_negated_at_least_has_no_double_negation():
    """Not at least 2 is at most 1, read as the block's A itself."""
    norm = normalize(parse_problem("forall x !exists{>=2} y R(x,y)"))
    [block] = norm.blocks
    assert (block.cmp, block.m) == ("<=", 1)
    assert [str(c) for c in norm.matrix] == ["__A1(x)"]


def test_double_negations_cancel():
    """A double negation the input writes cancels like one that pushing a
    negation creates: rand009 of the ``small_random`` workload has the sign
    conjunct __P1(x) -> !R(x,y), not __P1(x) -> !!!R(x,y)."""
    norm = normalize(parse_problem("forall x exists y !(!(R(x,y)))"))
    assert [str(c) for c in norm.matrix] == ["__P1(x) -> !R(x, y)"]


def test_literal_weights():
    """A true sign atom weighs -1 and the A of an exact successor block of
    m = 3 successors 1/3!; a per-element block has no literal weight."""
    norm = normalize(parse_problem("forall x exists y R(x,y)"))
    assert norm.literal_weights == {"__P1": (-1, 1)}
    assert normalize(parse_problem("forall x exists{=3} y R(x,y)")).literal_weights == {}
    enc = Solver(parse_problem(f"{SYMMETRIC} & forall x exists{{=3}} y R(x,y)")).norm
    [block] = enc.blocks
    assert len(block.f_preds) == len(enc.sign_preds) == 3
    assert enc.literal_weights == {**dict.fromkeys(enc.sign_preds, (-1, 1)),
                                   block.a_pred: (Fraction(1, 6), 1)}


def test_chain_weights_and_ties():
    """The symmetric ``exists{<=3}`` is one pinned chain of three slots,
    A its first indicator: the j-th indicator weighs 1/j when true, so A
    has no weight, and each slot is tied to its indicator."""
    enc = Solver(parse_problem(f"{SYMMETRIC} & forall x exists{{<=3}} y R(x,y)")).norm
    [block] = enc.blocks
    a, second, third = block.indicators
    assert a == block.a_pred and block.sign is None and len(block.f_preds) == 3
    assert enc.literal_weights == {**dict.fromkeys(enc.sign_preds, (-1, 1)),
                                   second: (Fraction(1, 2), 1), third: (Fraction(1, 3), 1)}
    assert enc.tie_constraint().parts == tuple(
        CardCompare("=", LinearExpr.card(f), LinearExpr.card(i))
        for f, i in zip(block.f_preds, block.indicators))


def test_unpinned_chain_has_a_fresh_first_indicator():
    """An unpinned ``exists{<=2}`` is signed, and its first indicator is a
    fresh predicate of weight 1 that implies A."""
    enc = Solver(parse_problem(f"{SYMMETRIC} & forall x (A(x) <-> exists{{<=2}} y R(x,y))")).norm
    [block] = enc.blocks
    first, second = block.indicators
    assert block.sign and first != block.a_pred
    assert first not in enc.literal_weights and enc.literal_weights[second] == (Fraction(1, 2), 1)
    assert Implies(Atom(first, ("x",)), Atom(block.a_pred, ("x",))) in enc.matrix


@pytest.mark.parametrize("quant", ["exists{<=1}", "exists{>=2}", "exists{<=2}"])
def test_sugar_preserves_models(quant):
    """The per-element count and the successor encoding's, signed where
    the matrix does not pin the block or signed always, match the oracle
    on small domains."""
    p = parse_problem(f"forall x ({quant} y R(x,y))")
    solvers = [Solver(p), Solver(Solver(p).successor_encoding()),
               Solver(successor_encoding(normalize(p)))]
    for n in (1, 2, 3):
        want = oracle_count(p.signature, p.sentence, n).total
        assert [s.count(n) for s in solvers] == [want] * 3


@pytest.mark.parametrize("cmp", ["=1", "<=1"])
def test_successor_encoding_signs_every_block_by_default(cmp):
    """Called without cells, ``successor_encoding`` signs every block,
    so a block the matrix does not pin counts exactly: unsigned, the
    symmetric ``exists{=1}`` read as A counted 3, 18, 170 at n = 1..3."""
    p = parse_problem(f"{SYMMETRIC} & forall x (A(x) <-> exists{{{cmp}}} y R(x,y))")
    solver = Solver(successor_encoding(normalize(p)))
    assert [solver.count(n) for n in (1, 2, 3)] == [
        oracle_count(p.signature, p.sentence, n).total for n in (1, 2, 3)]


def test_every_route_to_an_unpinned_encoding_counts_exactly():
    """The symmetric ``exists{=1}`` read as A is not pinned, so each public
    route to its successor encoding signs the block and counts like the
    oracle.  Encoding an encoding returns it (a second chain counted 2, 32,
    9216), and cells of another normalization, which would decide the
    signs from another signature, are refused, as are cells of a stronger
    matrix, which would pin the block and leave it unsigned."""
    p = parse_problem(f"{SYMMETRIC} & forall x (A(x) <-> exists{{=1}} y R(x,y))")
    norm = normalize(p)
    routes = [successor_encoding(norm),
              successor_encoding(norm, build_cells(norm.signature, norm.matrix)),
              Solver(p).successor_encoding(), Solver(norm).successor_encoding()]
    assert all(enc.blocks[0].sign for enc in routes)
    assert all(successor_encoding(enc) is enc for enc in routes)
    assert [[Solver(enc).count(n) for n in (1, 2, 3)] for enc in routes] == [[2, 8, 64]] * 4
    assert [oracle_count(p.signature, p.sentence, n).total for n in (1, 2, 3)] == [2, 8, 64]
    other = normalize(p)
    with pytest.raises(SemanticError, match="another normal form"):
        successor_encoding(norm, build_cells(other.signature, other.matrix))
    stronger = build_cells(norm.signature, (*norm.matrix, Atom(norm.blocks[0].a_pred, ("x",))))
    assert block_pinned(stronger, norm.blocks[0])
    with pytest.raises(SemanticError, match="another normal form"):
        successor_encoding(norm, stronger)


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
    one signed ``<=2`` block with a chain of two slots, read negated, in 24
    table bits.  At n = 4, 43 of the 1,024 symmetric relations qualify."""
    p = parse_problem("predicate R/2\nforall x forall y (R(x,y) -> R(y,x)) & "
                      "forall x exists{>=3} y R(x,y)")
    solver = Solver(p)
    [block] = solver.norm.blocks
    assert (block.cmp, block.m, len(block.f_preds), bool(block.sign)) == ("<=", 2, 2, True)
    assert 2 * solver.cells.u + solver.cells.b == 24
    assert [solver.count(n) for n in (1, 2, 3, 4)] == [
        *(oracle_count(p.signature, p.sentence, n).total for n in (1, 2, 3)), 43]


# -- counting encoding ---------------------------------------------------------


def test_zero_or_two_example_encoding():
    bare = normalize(parse_problem(ZERO_OR_TWO_EXAMPLE))
    norm = successor_encoding(bare, build_cells(bare.signature, bare.matrix))
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


def test_nested_counting_is_two_blocks():
    """An exactly-1 quantifier inside an exactly-2 body: the inner one is a
    block first, and its A atom is part of the outer block's guard.  Read
    against in-edges, S(x,y), the inner guard is a definitional
    __R(x,y) <-> S(y,x); that matrix is not directed, and its successor
    encoding is refused for table bits.  Read against out-edges, S(y,x),
    the guard is S and the count matches the oracle."""
    inner = Counting("=", 1, "x", Atom("S", ("x", "y")))
    outer = Forall("x", Counting("=", 2, "y", And(Atom("R", ("x", "y")), inner)))
    header = "predicate R/2\npredicate S/2\n"
    text = "forall x exists{=2} y (R(x,y) & exists{=1} x S(x,y))"
    assert parse_formula(text) == outer
    norm = normalize(parse_problem(header + text))
    assert [(b.guard, b.cmp, b.m) for b in norm.blocks] == [("__R1", "=", 1), ("__R2", "=", 2)]
    with pytest.raises(UnsupportedFeatureError, match="table bits"):
        Solver(norm)
    p = parse_problem(header + text.replace("S(x,y)", "S(y,x)"))
    solver = Solver(p)
    assert [(b.guard, b.cmp, b.m) for b in solver.norm.blocks] == [("S", "=", 1), ("__R1", "=", 2)]
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total, n


R, S, A = (lambda a, b: Atom("R", (a, b))), (lambda a, b: Atom("S", (a, b))), (lambda a: Atom("A", (a,)))


@pytest.mark.parametrize("arities, text, sentence", [
    ({"R": 2, "S": 2}, "forall y exists{=1} x (R(y,x) & exists y S(x,y))",
     Forall("y", Counting("=", 1, "x", And(R("y", "x"), Exists("y", S("x", "y")))))),
    ({"A": 1, "R": 2, "S": 2},
     "forall y (A(y) <-> exists{=1} x (R(y,x) & forall y (S(x,y) -> A(y))))",
     Forall("y", Iff(A("y"), Counting("=", 1, "x", And(R("y", "x"),
                                                       Forall("y", Implies(S("x", "y"),
                                                                           A("y")))))))),
], ids=["exists", "forall"])
def test_counting_body_swap_renames_bound_variables(arities, text, sentence):
    """These bodies rebind y under a counting quantifier over x.  The swap
    of x and y renames the bound y too, so the counts match the oracle at
    n = 2 and 3 (where a free-only renaming captured y: 48 / 12,096 and
    336 / 314,560)."""
    assert parse_formula(text) == sentence
    signature = Signature(arities)
    solver = Solver(Problem(signature, sentence))
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(signature, sentence, n).total, n


def test_non_toplevel_single_var_counting_rejected():
    with pytest.raises(UnsupportedFeatureError, match="top-level"):
        normalize(parse_problem("predicate A/1\npredicate B/1\n"
                                "forall x (B(x) -> exists{=2} y A(y))"))


# -- reuse of variables ----------------------------------------------------------


def reuse_sentence(rng: random.Random, depth: int) -> Formula:
    """A sentence over A/1 and R/2 whose quantifiers nest ``depth`` deep on
    alternating variables, so that from depth 3 on it reuses one: each
    level is forall, exists or exists{cmp m} for m <= 2 over a random
    connective of a quantifier-free side and the next level."""
    def level(d: int, v: str) -> Formula:
        w = other_variable(v)
        atoms = [Atom("A", (v,)), Atom("R", (v, v))]
        if d > 1:
            atoms += [Atom("R", (v, w)), Atom("R", (w, v)), Atom("A", (w,))]
        body = random_qf(rng, atoms, 1)
        if d < depth:
            connective = rng.choice([And, Or, Implies, Iff])
            body = connective(*rng.sample([body, level(d + 1, w)], 2))
            if rng.random() < 0.2:
                body = Not(body)
        kind = rng.randrange(4)
        if kind < 2:
            return (Forall, Exists)[kind](v, body)
        return Counting(rng.choice(("=", "<=", ">=")), rng.randrange(3), v, body)
    return level(1, rng.choice("xy"))


def nests_counting(f: Formula, inside: bool = False) -> bool:
    """True when a counting quantifier stands in another's body."""
    if isinstance(f, Counting) and inside:
        return True
    return any(nests_counting(s, inside or isinstance(f, Counting)) for s in subformulas(f))


def test_reuse_differential():
    """160 seeded sentences that reuse a variable, at depth 3 to 5: the
    109 the engine accepts match the oracle at n <= 3, 64 of them with a
    counting quantifier in another's body; the others are refused with
    exit 2, 22 for table bits and 29 for a closed counting quantifier
    under a connective."""
    rng = random.Random(15)
    compared, nested, refused = 0, 0, {}
    for _ in range(160):
        sentence = reuse_sentence(rng, rng.randint(3, 5))
        p = parse_problem(f"predicate A/1\npredicate R/2\n{sentence}")
        assert p.sentence == sentence
        try:
            solver = Solver(p)
        except UnsupportedFeatureError as exc:
            reason = "top-level" if "top-level" in str(exc) else "table bits"
            assert reason in str(exc)
            refused[reason] = refused.get(reason, 0) + 1
            continue
        for n in (1, 2, 3):
            assert solver.count(n) == oracle_count(p.signature, sentence, n).total, (str(sentence), n)
        compared += 1
        nested += nests_counting(sentence)
    assert (compared, nested, refused) == (109, 64, {"table bits": 22, "top-level": 29})


# -- Scott reduction -----------------------------------------------------------


def scott_parts(text):
    p = parse_problem(text)
    alloc = NameAllocator(p.signature.copy())
    matrix, psis, _, _ = to_scott(p.sentence, alloc)
    return matrix, psis


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


def test_pinned_span_drops_the_conjunct_it_makes_true():
    """The occurrence of a pinned block whose span holds 0 reads true in the
    successor encoding, and the conjunct that said it holds is dropped, so
    no cell sweep evaluates a constant; every element's guard edges fill
    the slots, and A is the first indicator.  A true conjunct the input
    wrote stays."""
    bare = normalize(parse_problem("predicate R/2\nforall x exists{<=1} y R(x,y)"))
    dumped = dump_normalized(successor_encoding(bare, build_cells(bare.signature, bare.matrix)))
    assert dumped.splitlines()[4] == (
        "forall x (forall y ((R(x, y) <-> __f1_1(x, y))"
        " & (__P1(x) -> !(__A1(x) -> __f1_1(x, y)))))")
    bare = normalize(parse_problem(
        "predicate R/2\nforall x forall y x = x & forall x exists{<=1} y R(x,y)"))
    written = successor_encoding(bare, build_cells(bare.signature, bare.matrix))
    assert written.matrix[0] == parse_formula("x = x")
    assert len(written.matrix) == 3
