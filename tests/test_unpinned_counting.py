"""Counting quantifiers the matrix does not pin: negated, escapable,
existential and biconditional positions.  Each such block carries an
inclusion-exclusion sign predicate, and its counts are exact."""

import random

import pytest

from fo2mc.engine import Solver
from fo2mc.normalize import normalize
from fo2mc.oracle import oracle_count, oracle_stratified
from fo2mc.parser import parse_problem
from fo2mc.weights import wfomc_symmetric

from conftest import SYM2BLK, pinned, profile_rows

PREAMBLE = "predicate A/1\npredicate B/1\npredicate R/2\n"

#: counting conjuncts whose counted set the matrix does not pin
UNPINNED_SHAPES = ("forall x (A(x) | exists{{={m}}} y R(x,y))",
                   "forall x !(exists{{={m}}} y R(x,y))",
                   "exists x exists{{={m}}} y R(x,y)",
                   "forall x (A(x) <-> exists{{={m}}} y R(x,y))",
                   "forall x (B(x) -> exists{{={m}}} y R(x,y))")

MATRIX_ATOMS = ("A(x)", "A(y)", "B(x)", "B(y)", "R(x,x)", "R(x,y)",
                "R(y,x)", "R(y,y)", "x = y")
EXISTS_ATOMS = ("A(x)", "B(x)", "R(x,y)", "R(y,x)")

#: two or more blocks on a matrix that is not directed: the successor
#: encoding, every block raising its one tie counter
SYMMETRIC = "forall x forall y (R(x,y) -> R(y,x))"
MULTI_BLOCK = {
    "two_guards": SYM2BLK,
    "two_m_one_guard": ("predicate R/2\n" + SYMMETRIC
                        + " & forall x (exists{=1} y R(x,y) | exists{=2} y R(x,y))\n"),
    "two_spans": SYM2BLK.replace("{=1}", "{<=1}"),
    "pinned_and_unpinned": ("predicate A/1\npredicate R/2\npredicate S/2\n" + SYMMETRIC
                            + " & forall x exists{=1} y R(x,y)"
                            " & forall x (A(x) | exists{=1} y S(x,y))\n"),
    "constrained": SYM2BLK + "constraint |R| <= 6\n",
    "weighted": SYM2BLK + "weight R 2 1\nweight S 1 3\n",
}


def random_qf(rng: random.Random, atoms, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(5)
    if kind == 0:
        return f"!({random_qf(rng, atoms, depth - 1)})"
    op = ("&", "|", "->", "<->")[kind - 1]
    left = random_qf(rng, atoms, depth - 1)
    return f"({left} {op} {random_qf(rng, atoms, depth - 1)})"


# -- regression rows ------------------------------------------------------------


def test_escapable_block_closed_form():
    """Each element is in A or has exactly one R-successor:
    (2^n + n)^n models, which the signed block reaches per element."""
    s = Solver(parse_problem("predicate A/1\npredicate R/2\n"
                             "forall x (A(x) | exists{=1} y R(x,y))"))
    assert not pinned(s)
    assert [s.count(n) for n in range(1, 11)] == [(2 ** n + n) ** n for n in range(1, 11)]


def test_negated_block():
    s = Solver(parse_problem("forall x !(exists{=1} y R(x,y))"))
    assert [s.count(n) for n in (1, 2, 3)] == [1, 4, 125]


def test_existential_block():
    p = parse_problem("exists x exists{=2} y R(x,y)")
    s = Solver(p)
    assert [s.count(n) for n in (1, 2, 3, 4)] == [0, 7, 387, 55536]
    assert oracle_count(p.signature, p.sentence, 4).total == 55536


def test_solver_of_normalized_problem_signs_too():
    p = parse_problem("forall x !(exists{=1} y R(x,y))")
    assert Solver(normalize(p)).norm.sign_preds == Solver(p).norm.sign_preds
    assert all(Solver(normalize(p)).count(n) == Solver(p).count(n) for n in (1, 2, 3))


def test_pinned_blocks_get_no_sign():
    s = Solver(parse_problem("forall x (forall y !R(x,y) | exists{=2} y R(x,y))"))
    assert pinned(s) and all(b.sign is None for b in s.norm.blocks)


# -- oracle differential over the unpinned shapes --------------------------------


def unpinned_problem(shape: str, m: int, seed: int) -> str:
    """A random matrix, sometimes a forall-exists conjunct, the counting
    shape, and in turn a cardinality constraint or symmetric weights."""
    rng = random.Random(f"{shape}/{m}/{seed}")
    conjuncts = [f"forall x forall y {random_qf(rng, MATRIX_ATOMS, rng.randrange(1, 4))}",
                 shape.format(m=m)]
    if rng.random() < 0.5:
        conjuncts.append(f"forall x exists y {random_qf(rng, EXISTS_ATOMS, 2)}")
    text = PREAMBLE + " & ".join(f"({c})" for c in conjuncts) + "\n"
    if seed % 3 == 1:
        text += f"constraint |{rng.choice('ABR')}| {rng.choice(('=', '<=', '>='))} 1\n"
    elif seed % 3 == 2:
        text += "weight A 2 1\nweight B 1 3\nweight R 1 2\n"
    return text


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("shape", UNPINNED_SHAPES,
                         ids=("or", "not", "exists", "iff", "implies"))
def test_unpinned_shapes_match_oracle(shape, m, seed):
    p = parse_problem(unpinned_problem(shape, m, seed))
    solver = Solver(p)
    for n in (1, 2, 3):
        if p.symmetric_weights:
            want = oracle_count(p.signature, p.sentence, n,
                                symmetric_weights=p.symmetric_weights).weighted_total
            assert wfomc_symmetric(solver, n) == want
        else:
            want = oracle_count(p.signature, p.sentence, n, constraint=p.constraint)
            assert solver.count(n) == want.total


# -- several blocks in the successor encoding --------------------------------------


@pytest.mark.parametrize("text", MULTI_BLOCK.values(), ids=MULTI_BLOCK)
def test_multi_block_fallback_matches_oracle(text):
    p = parse_problem(text)
    solver = Solver(p)
    assert solver.norm.successors and len(solver.norm.blocks) > 1
    for n in (1, 2, 3):
        want = oracle_count(p.signature, p.sentence, n, constraint=p.constraint,
                            symmetric_weights=p.symmetric_weights or None)
        if p.symmetric_weights:
            assert wfomc_symmetric(solver, n) == want.weighted_total
        else:
            assert solver.count(n) == want.total


def test_pinned_and_unpinned_blocks_together():
    blocks = Solver(parse_problem(MULTI_BLOCK["pinned_and_unpinned"])).norm.blocks
    assert [b.sign is None for b in blocks] == [True, False]


def test_multi_block_fallback_breakdown():
    p = parse_problem(SYM2BLK)
    solver = Solver(p)
    for n in (1, 2, 3):
        want = oracle_stratified(p.signature, p.sentence, n, ("R", "S"))
        rows = profile_rows(solver, n, ("R", "S"))
        assert {(c["R"], c["S"]): v for c, v in rows if v} == {
            k: v for k, v in want.items() if v}
        assert sum(v for _, v in rows) == sum(want.values())
