"""Counting blocks on directed matrices are counted per element, with no
successor predicates, tie counter or divisor; blocks on any other matrix
fall back to the successor encoding."""

import math
import time
from collections import Counter
from functools import cache

import pytest

import fo2mc.engine
from fo2mc.cells import MAX_TABLE_BITS, build_cells
from fo2mc.corpus import load_corpus
from fo2mc.engine import ProfileEvaluator, Solver
from fo2mc.errors import InternalConsistencyError, UnsupportedFeatureError
from fo2mc.normalize import block_pinned, normalize, successor_encoding
from fo2mc.oracle import oracle_count
from fo2mc.parser import parse_problem

from conftest import SYM2BLK, pinned, random_problem

CORPUS = {entry.name: entry for entry in load_corpus()}

#: blocks whose guard couples the two directions of a pair
NOT_DIRECTED = ("forall x exists{=1} y (R(x,y) & R(y,x))",
                "forall x exists{=1} y R(y,x)",
                "forall x !exists{=1} y (R(x,y) & R(y,x))")


def timed_count(solver, n):
    start = time.monotonic()
    value = solver.count(n)
    return value, time.monotonic() - start


# -- closed forms ---------------------------------------------------------------


def test_count_guard_closed_form():
    solver = Solver(CORPUS["count_guard"].problem())
    assert solver.cells.directed

    def closed(n):
        return sum(math.comb(n, a) * (a * 2 ** (n - a)) ** n for a in range(n + 1))
    assert [solver.count(n) for n in range(1, 6)] == [closed(n) for n in range(1, 6)]
    value, seconds = timed_count(solver, 40)
    assert value == closed(40) and seconds < 1


def test_two_blocks_closed_form_at_40():
    value, seconds = timed_count(Solver(CORPUS["two_blocks"].problem()), 40)
    assert value == (40 * (1 + math.comb(40, 2))) ** 40 and seconds < 1


@pytest.mark.parametrize("m,sizes", [(2, range(1, 8)), (3, range(1, 7)),
                                     (12, (1, 11, 12, 13, 14))])
def test_exactly_m_successors(m, sizes):
    """Each element picks m of n successors: C(n, m)^n models.  At m = 12
    the successor encoding would need 78 table bits."""
    solver = Solver(parse_problem(f"forall x exists{{={m}}} y R(x,y)"))
    assert not solver.norm.successors
    assert [solver.count(n) for n in sizes] == [math.comb(n, m) ** n for n in sizes]


def at_most(n, m):
    return sum(math.comb(n, d) for d in range(m + 1))


@pytest.mark.parametrize("op,m,closed", [
    *[("<=", m, lambda n, m=m: at_most(n, m) ** n) for m in range(1, 8)],
    *[(">=", m, lambda n, m=m: (2 ** n - at_most(n, m - 1)) ** n) for m in range(1, 5)]])
def test_counting_sugar_closed_form(op, m, closed):
    """``exists{<=m}`` and ``exists{>=m}`` are one block each, read over a
    span of the guard degree: each element has at most m, or at least m,
    successors (``>=1`` is a plain existential, with no block)."""
    p = parse_problem(f"forall x exists{{{op}{m}}} y R(x,y)")
    solver = Solver(p)
    assert not solver.norm.successors and len(solver.norm.blocks) == (op + str(m) != ">=1")
    sizes = (1, 2, 3, 12)
    assert [solver.count(n) for n in sizes] == [closed(n) for n in sizes]
    for n in (1, 2):
        assert oracle_count(p.signature, p.sentence, n).total == closed(n)


def test_at_most_seven_successors_is_fast():
    """One block reads the R-degree's digits 0..7: one class per valid type."""
    value, seconds = timed_count(Solver(parse_problem("forall x exists{<=7} y R(x,y)")), 10)
    assert value == at_most(10, 7) ** 10 and seconds < 3


def test_at_most_twelve_successors_at_ten():
    """One block, two valid types, Solver included: the twelve exact blocks
    it once expanded into had 8,191."""
    start = time.monotonic()
    solver = Solver(parse_problem("forall x exists{<=12} y R(x,y)"))
    assert solver.count(10) == 2 ** 100 and len(solver.cells.valid) == 2
    assert time.monotonic() - start < 0.05


def test_blocks_on_one_guard_share_its_degree_counter():
    """``exists{<=7}`` is one block on one R-degree counter, its classes
    reading digits 0..7; two blocks on R share that counter, ``>=3`` read as
    not ``<=2``, and a type outside both A's reads a signed sum of digit
    boxes."""
    solver = Solver(parse_problem("forall x exists{<=7} y R(x,y)"))
    ev = ProfileEvaluator(solver.norm, solver.cells, 10)
    assert len(solver.norm.blocks) == 1
    assert len(ev._bounds) - len(ev.key_names) == 1  # counters past the tracked cards
    assert ev._reads == [((0, 7),)] * len(ev.types)
    solver = Solver(parse_problem("forall x (exists{<=1} y R(x,y) | exists{>=3} y R(x,y))"))
    ev = ProfileEvaluator(solver.norm, solver.cells, 10)
    assert [(b.cmp, b.m) for b in solver.norm.blocks] == [("<=", 1), ("<=", 2)]
    assert ev._bounds[len(ev.key_names):] == [(2, 10)]
    assert ev._read_options((1, 1)) == [(((0, 1),), 1)]
    assert ev._read_options((0, 1)) == [(((2, 2),), 1)]
    assert ev._read_options((0, 0)) == [(((),), 1), (((0, 1),), -1), (((2, 2),), -1)]
    assert ev._read_options((1, 0)) == []


def test_at_most_seven_successors_at_forty():
    value, seconds = timed_count(Solver(parse_problem("forall x exists{<=7} y R(x,y)")), 40)
    assert value == at_most(40, 7) ** 40 and seconds < 0.5


def test_non_atom_body_shares_one_guard():
    """A non-atom ``exists{<=5}`` is one block on one definitional guard, so
    its table bits stay small."""
    p = parse_problem("forall x (A(x) -> exists{<=5} y (R(x,y) & A(y)))")
    solver = Solver(p)
    assert len({b.guard for b in solver.norm.blocks}) == 1
    assert solver.count(6) == 4_391_850_536_577
    assert solver.count(2) == oracle_count(p.signature, p.sentence, 2).total


@pytest.mark.parametrize("text,sizes,blocks", [
    ("forall x (exists{=1} y R(x,y) -> exists{=2} y R(x,y))", (1, 2, 3), 2),
    ("forall x (A(x) -> exists{=1} y R(x,y)) & forall x (B(x) -> !exists{=1} y R(x,y))",
     (1, 2, 3), 1),
    ("forall x (A(x) -> exists{<=1} y R(x,y)) & forall x (!A(x) -> exists{>=2} y R(x,y))",
     (1, 2, 3), 1),
    ("forall x (A(x) <-> exists{<=2} y (R(x,y) & !A(y))) & "
     "forall x (!A(x) -> exists{>=2} y (R(x,y) & !A(y)))", (1, 2, 3), 2),
    ("forall x (exists{=1} y R(x,y) -> exists{<=1} y S(x,y)) & "
     "forall x (exists{=2} y S(x,y) | exists{=1} y R(x,y))", (1, 2), 3),
    ("forall x forall y (R(x,y) -> R(y,x)) & "
     "forall x (exists{=1} y R(x,y) | exists{=2} y R(x,y))", (1, 2, 3), 2),
])
def test_blocks_sharing_a_guard_match_the_oracle(text, sizes, blocks):
    """Blocks on one guard: different m's, the same m twice (one block for
    both occurrences), ``<=m`` with ``>=m+1`` (one block, read as A and not
    A), ``<=`` mixed with ``>=``, a non-atom body, two guards, and a matrix
    that is not directed (the successor encoding, one tie counter for every
    block)."""
    p = parse_problem(text)
    solver = Solver(p)
    guards = [b.guard for b in solver.norm.blocks]
    assert len(guards) == blocks and (blocks == 1 or len(set(guards)) < blocks)
    for n in sizes:
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total


#: at most 1 and at least 2 over one body, on a symmetric R: one block
SYM_MIXED = ("forall x forall y (R(x,y) -> R(y,x)) & forall x (A(x) -> exists{<=1} y R(x,y)) & "
             "forall x (!A(x) -> exists{>=2} y R(x,y))")
LITERALS = ("A(x)", "!A(x)", "B(x)", "!B(x)")


@pytest.mark.parametrize("body", ["R(x,y)", "R(x,y) & A(y)", "R(x,y) & !B(y)"])
@pytest.mark.parametrize("left,right", [(a, b) for a in LITERALS for b in LITERALS])
def test_complementary_quantifiers_match_the_oracle(body, left, right):
    """``exists{<=1}`` and ``exists{>=2}`` over one body, each under a
    literal, on a symmetric matrix: one block in the successor encoding."""
    p = parse_problem("predicate A/1\npredicate B/1\npredicate R/2\n"
                      "forall x forall y (R(x,y) -> R(y,x)) & "
                      f"forall x ({left} -> exists{{<=1}} y ({body})) & "
                      f"forall x ({right} -> exists{{>=2}} y ({body}))")
    solver = Solver(p)
    assert len(normalize(p).blocks) == 1 and solver.norm.successors
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total


def test_sym_mixed_is_one_block():
    """At most 1 and at least 2 on one guard are one block, read as A and
    not A: 18 table bits and 14 valid types (two blocks needed 30 and
    212), so an unmentioned unary predicate still fits."""
    assert len(normalize(parse_problem(SYM_MIXED)).blocks) == 1
    solver = Solver(parse_problem(SYM_MIXED))
    assert 2 * solver.cells.u + solver.cells.b == 18 and len(solver.cells.valid) == 14
    p = parse_problem("predicate A/1\npredicate B/1\npredicate R/2\n" + SYM_MIXED)
    solver = Solver(p)
    for n, want in ((1, 4), (2, 32), (3, 512)):
        assert solver.count(n) == want == oracle_count(p.signature, p.sentence, n).total


def test_random_seed_127_is_fast():
    """Seed 127's block sits on a directed matrix that does not factor per
    element, so it enumerates censuses without a tie counter."""
    value, seconds = timed_count(Solver(random_problem(127)), 4)
    assert value >= 0 and seconds < 0.5


# -- the fallback -----------------------------------------------------------------


#: the guards of NOT_DIRECTED counted at most m times (or fewer than m,
#: negated), so every block is pinned and its span holds 0
PINNED_SPANS = [(pre + f"forall x {q} y {guard}")
                for pre, guard in (("", "(R(x,y) & R(y,x))"), ("", "R(y,x)"),
                                   ("forall x forall y (R(x,y) -> R(y,x)) & ", "R(x,y)"))
                for q in ("exists{<=1}", "exists{<=2}", "!exists{>=2}", "!exists{>=3}")]


@pytest.mark.parametrize("text", NOT_DIRECTED + tuple(PINNED_SPANS))
def test_not_directed_blocks_use_successor_encoding(text):
    """A block without a sign reuses its A as the chain's first indicator:
    a pinned block whose span holds 0 has A forced true, so A is free to
    say that the first slot is filled."""
    p = parse_problem(text)
    solver = Solver(p)
    assert not solver.cells.directed
    assert solver.norm.successors
    assert solver.norm.blocks[0].f_preds
    assert all(b.sign or b.indicators[0] == b.a_pred for b in solver.norm.blocks)
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total


def test_pinned_span_reuses_a_as_its_first_indicator():
    """Beside 7 unmentioned unary predicates, ``exists{<=1}`` on a coupled
    guard fits in 30 table bits (2^21 times the bare count at n = 3), and
    the symmetric ``exists{<=2}``, one chain of two slots, needs 20."""
    unary = "".join(f"predicate B{k}/1\n" for k in range(1, 8))
    text = "predicate R/2\nforall x exists{<=1} y (R(x,y) & R(y,x))\n"
    solver = Solver(parse_problem(unary + text))
    assert 2 * solver.cells.u + solver.cells.b == 30
    assert solver.count(3) == 566231040 == 2 ** 21 * Solver(parse_problem(text)).count(3)
    symmetric = Solver(parse_problem(
        "forall x forall y (R(x,y) -> R(y,x)) & forall x exists{<=2} y R(x,y)"))
    assert 2 * symmetric.cells.u + symmetric.cells.b == 20


def test_blocks_share_one_tie_counter():
    """Both blocks of two guards raise one tie counter, bounded by
    (2n, 2n(n+1)), and the census is read at its target: the layout the
    reads receive holds the tracked |R| alone."""
    solver = Solver(parse_problem(SYM2BLK))
    n = 4
    ev = ProfileEvaluator(solver.norm, solver.cells, n, ("R",))
    assert len(solver.norm.blocks) == 2
    assert ev._bounds[len(ev.key_names):] == [(2 * n, 2 * n * (n + 1))]
    assert ev._census()[1].counters == (0,)


def test_chain_tie_bounds():
    """The symmetric ``exists{<=3}``, one chain of three slots, raises the
    tie counter to its target 3n, bounded by (3n, 3n(n+1))."""
    solver = Solver(parse_problem("forall x forall y (R(x,y) -> R(y,x)) & "
                                  "forall x exists{<=3} y R(x,y)"))
    for n in (1, 4):
        ev = ProfileEvaluator(solver.norm, solver.cells, n)
        assert ev._bounds[len(ev.key_names):] == [(3 * n, 3 * n * (n + 1))]


def test_two_blocks_on_two_guards_at_twelve():
    """I(n) n^n models: I(n) = I(n-1) + (n-1) I(n-2) symmetric R with one
    R-successor each (the involutions), n^n S with one S-successor each."""
    involutions = [1, 1]
    for n in range(2, 13):
        involutions.append(involutions[-1] + (n - 1) * involutions[-2])
    solver = Solver(parse_problem(SYM2BLK))
    assert [solver.count(n) for n in (1, 2, 3, 4)] == [
        involutions[n] * n ** n for n in (1, 2, 3, 4)]
    value, seconds = timed_count(solver, 12)
    assert value == involutions[12] * 12 ** 12 == 1249609310023974912 and seconds < 1


def test_per_element_form_on_a_matrix_that_is_not_directed_is_refused():
    """``Solver`` moves such blocks to the successor encoding; built on the
    per-element form directly, the evaluator refuses rather than count 27
    models at n = 3, where there are 54."""
    norm = normalize(parse_problem(NOT_DIRECTED[0]))
    with pytest.raises(InternalConsistencyError, match="directed matrix"):
        ProfileEvaluator(norm, build_cells(norm.signature, norm.matrix), 3)
    assert Solver(norm).count(3) == 54


#: the symmetric relations on n = 1..5 whose every degree lies in the span
#: (a loop adds 1), as ``symmetric_degree_ranges`` counts them
SPAN_COUNTS = {"<=1": [2, 5, 14, 43, 142], "<=2": [2, 8, 45, 315, 2634],
               "<=3": [2, 8, 64, 809, 13846], ">=2": [0, 1, 14, 315, 13846],
               ">=3": [0, 0, 1, 43, 2634], "=2": [0, 1, 4, 18, 112]}


@cache
def symmetric_degree_ranges(n: int) -> Counter:
    """A brute force that shares nothing with the package: the symmetric
    relations on n elements, one bit per pair i <= j, counted by their
    (least, greatest) element degree."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    ranges = Counter()
    for bits in range(1 << len(pairs)):
        degree = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                degree[i] += 1
                if j != i:
                    degree[j] += 1
        ranges[min(degree), max(degree)] += 1
    return ranges


@pytest.mark.parametrize("span", SPAN_COUNTS)
def test_spans_match_a_brute_force(span):
    """Every span is one chain on the symmetric matrix, exact up to n = 5,
    past the oracle's reach."""
    cmp, m = span.rstrip("0123456789"), int(span.lstrip("<>="))
    lo, hi = {"<=": (0, m), ">=": (m, math.inf), "=": (m, m)}[cmp]
    solver = Solver(parse_problem("forall x forall y (R(x,y) -> R(y,x)) & "
                                  f"forall x exists{{{span}}} y R(x,y)"))
    brute = [sum(c for (least, most), c in symmetric_degree_ranges(n).items()
                 if lo <= least and most <= hi) for n in range(1, 6)]
    assert [solver.count(n) for n in range(1, 6)] == brute == SPAN_COUNTS[span]


def test_unpinned_span_matches_the_oracle():
    """An A that may or may not hold outside the span: the signed chain."""
    p = parse_problem("forall x forall y (R(x,y) -> R(y,x)) & "
                      "forall x (A(x) <-> exists{<=2} y R(x,y))")
    solver = Solver(p)
    assert not pinned(solver)
    for n in (1, 2, 3):
        assert solver.count(n) == oracle_count(p.signature, p.sentence, n).total


def test_unpinned_fallback_is_signed():
    solver = Solver(parse_problem(NOT_DIRECTED[2]))
    assert not pinned(solver) and solver.norm.blocks[0].sign


@pytest.mark.parametrize("text,builds", [
    ("forall x forall y R(x,y)", 1),
    ("forall x exists{=2} y R(x,y)", 1),
    (NOT_DIRECTED[0], 2),
    (NOT_DIRECTED[2], 2),
])
def test_cells_built_at_most_twice(monkeypatch, text, builds):
    """Directedness and pinnedness come from the one build without block
    axioms; only the fallback builds the successor encoding, and it
    rewrites that one normalization rather than normalizing again."""
    calls, normalized = [], []

    def counted(*args):
        calls.append(args)
        return build_cells(*args)

    def counted_normalize(problem):
        normalized.append(problem)
        return normalize(problem)
    monkeypatch.setattr(fo2mc.engine, "build_cells", counted)
    monkeypatch.setattr(fo2mc.engine, "normalize", counted_normalize)
    Solver(parse_problem(text)).count(3)
    assert len(calls) == builds
    assert len(normalized) == 1


def test_signing_every_block_is_exact():
    """A sign on a block the matrix pins cancels nothing it should keep:
    the successor encoding with every block signed counts like the
    solver, wherever its table bits are supported."""
    checked = 0
    for problem in [entry.problem() for entry in load_corpus()] + \
            [random_problem(seed) for seed in range(200)]:
        norm = normalize(problem)
        if not norm.blocks:
            continue
        try:
            signed = Solver(successor_encoding(norm))
        except UnsupportedFeatureError:
            continue
        solver = Solver(problem)
        assert [signed.count(n) for n in (1, 2, 3)] == [solver.count(n) for n in (1, 2, 3)]
        checked += 1
    assert checked > 100


def decision_problems():
    yield from (entry.problem() for entry in load_corpus())
    yield from (random_problem(seed) for seed in range(200))
    for shape in ("forall x (A(x) | exists{=1} y R(x,y))",
                  "forall x !(exists{=1} y R(x,y))",
                  "forall x (A(x) <-> exists{=1} y R(x,y))",
                  "forall x (A(x) -> exists{=1} y R(x,y))",
                  "forall x exists{=1} y R(x,y)", *NOT_DIRECTED):
        for quant in ("{=1}", "{=2}", "{<=1}", "{<=2}", "{>=2}"):
            yield parse_problem("predicate A/1\npredicate R/2\n" + shape.replace("{=1}", quant))


def test_block_free_build_decides_like_the_successor_encoding():
    """The block axioms change neither directedness nor pinnedness, so the
    build without them decides the path and the signs of the fallback.  An
    exactly-m block keeps its A in the encoding signed from the per-element
    cells, as ``Solver`` builds it (a pinned one unsigned); any other, whose
    span holds 0, is pinned when no valid type lies outside its A in an
    encoding that signs it, so that its A is not read as the chain's first
    indicator."""
    checked = 0
    for problem in decision_problems():
        bare = normalize(problem)
        if not bare.blocks:
            continue
        cells = build_cells(bare.signature, bare.matrix)
        for evidence in (cells, None):
            try:
                encoded = successor_encoding(bare, evidence)
            except UnsupportedFeatureError:  # past the table-bit limit
                continue
            full = build_cells(encoded.signature, encoded.matrix)
            assert cells.directed == full.directed
            for b in bare.blocks:
                [part] = [e for e in encoded.blocks if e.index == b.index]
                if b.cmp == "=" and evidence is cells:
                    assert block_pinned(cells, b) == block_pinned(full, part)
                elif b.cmp != "=" and part.sign:
                    slot = full.u_slot_index(part.a_pred, "unary")
                    outside = [i for i in full.valid if not full.type_bit(i, slot)]
                    assert block_pinned(cells, b) == (not outside)
            checked += 1
    assert checked > 200


def test_predicted_size_is_the_built_encodings(monkeypatch):
    """``successor_encoding`` predicts its type and table slots from the
    per-element form before building any axiom; signed from the per-element
    cells and signed throughout, the prediction is the built encoding's."""
    predicted = []
    monkeypatch.setitem(successor_encoding.__globals__, "check_table_bits",
                        lambda u, b: predicted.append((u, b)))
    checked = 0
    for problem in decision_problems():
        bare = normalize(problem)
        cells = build_cells(bare.signature, bare.matrix)
        for evidence in (cells, None) if bare.blocks else ():
            encoded = successor_encoding(bare, evidence)
            u, b = predicted.pop()
            if 2 * u + b <= MAX_TABLE_BITS:
                full = build_cells(encoded.signature, encoded.matrix)
                assert (full.u, full.b) == (u, b)
                checked += 1
    assert checked > 200
