import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fo2mc.cells import _split, build_cells, n_ij_csv
from fo2mc.corpus import load_corpus
from fo2mc.engine import ProfileEvaluator, Solver
from fo2mc.errors import UnsupportedFeatureError
from fo2mc.grounding import eval_qf
from fo2mc.logic import (Atom, Eq, Not, Signature, TRUE, atoms_of, conjoin,
                         one_type_slots, slot_bit, substitute, two_table_slots)
from fo2mc.normalize import normalize
from fo2mc.parser import parse_problem

from conftest import RUNNING_EXAMPLE, random_problem, random_qf

GOLDEN_N_IJ = {(0, 0): 4, (0, 1): 4, (0, 2): 2, (0, 3): 2, (1, 1): 4,
              (1, 2): 2, (1, 3): 2, (2, 2): 4, (2, 3): 4, (3, 3): 4}


def running_cells():
    norm = normalize(parse_problem(RUNNING_EXAMPLE))
    return build_cells(norm.signature, norm.matrix)


def test_golden_n_ij_table():
    cells = running_cells()
    assert cells.n_ij == GOLDEN_N_IJ


def test_golden_n_13v_refinement():
    cells = running_cells()
    assert [cells.n_ijv(1, 3, v) for v in range(4)] == [1, 0, 1, 0]
    # and the symmetric access agrees through the swap
    assert [cells.n_ijv(3, 1, v) for v in range(4)] == [1, 1, 0, 0]


def test_slot_conventions():
    cells = running_cells()
    assert cells.u_slots == [("A", "unary"), ("R", "reflexive")]
    assert cells.b_slots == [("R", "xy"), ("R", "yx")]
    assert cells.u == 2 and cells.b == 2


def test_valid_one_types_running():
    cells = running_cells()
    assert cells.valid == [0, 1, 2, 3]


def test_contradictory_matrix_no_valid_types():
    sig = Signature()
    sig.declare("A", 1)
    a = Atom("A", ("x",))
    cells = build_cells(sig, [a, Not(a)])
    assert cells.valid == []


def test_reflexive_requirement_prunes():
    sig = Signature()
    sig.declare("R", 2)
    cells = build_cells(sig, [Atom("R", ("x", "x"))])
    # 1-type 0 has the reflexive slot false
    assert cells.valid == [1]


def test_tautology_table():
    sig = Signature()
    sig.declare("R", 2)
    cells = build_cells(sig, [TRUE])
    assert cells.u == 1 and cells.b == 2
    assert all(cells.n_ij[(i, j)] == 4 for i in range(2) for j in range(i, 2))
    total = sum(cells.n_ijv(i, j, v)
                for i in range(2) for j in range(2) for v in range(4))
    assert total == 2 ** (2 * cells.u + cells.b)


def test_memory_guard():
    sig = Signature()
    for k in range(8):
        sig.declare(f"R{k}", 2)
    with pytest.raises(UnsupportedFeatureError, match="table bits"):
        build_cells(sig, [TRUE])


def test_csv_dump():
    csv = n_ij_csv(running_cells())
    lines = csv.strip().splitlines()
    assert lines[0] == "i,j,n_ij"
    assert len(lines) == 1 + 10
    assert "1,3,2" in lines


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_n_ij_symmetry_random_matrices(seed):
    """n_ij = n_ji for every matrix: the table is built for i <= j, so
    check the swap-based accessor against a direct rebuild."""
    import random
    rng = random.Random(seed)
    sig = Signature()
    sig.declare("A", 1)
    sig.declare("R", 2)
    atoms = [Atom("A", ("x",)), Atom("A", ("y",)), Atom("R", ("x", "x")),
             Atom("R", ("x", "y")), Atom("R", ("y", "x")), Atom("R", ("y", "y")),
             Eq("x", "y")]
    matrix = [random_qf(rng, atoms, 3)]
    cells = build_cells(sig, matrix)
    for i in cells.valid:
        for j in cells.valid:
            nij = sum(cells.n_ijv(i, j, v) for v in range(1 << cells.b))
            nji = sum(cells.n_ijv(j, i, v) for v in range(1 << cells.b))
            assert nij == nji
            if i <= j:
                assert cells.n_ij[(i, j)] == nij


def test_rename_consistency():
    """Renaming predicates permutes slots but preserves the multiset of
    table values."""
    base = parse_problem("forall x forall y (P(x) & S(x,y) & x != y -> P(y))")
    renamed = parse_problem("forall x forall y (A(x) & R(x,y) & x != y -> A(y))")
    c1 = build_cells(normalize(base).signature, normalize(base).matrix)
    c2 = build_cells(normalize(renamed).signature, normalize(renamed).matrix)
    assert sorted(c1.n_ij.values()) == sorted(c2.n_ij.values())


# -- the mask sweep against a brute-force reference ----------------------------


def reference_cells(signature, matrix):
    """The tables by brute force: ``eval_qf`` on every 1-type and on every
    (x type, y type, 2-table) triple, independent of the mask sweep.
    Evaluations are memoized on the values of the atoms the matrix reads,
    so one evaluation serves every triple that agrees on them."""
    formula = conjoin(matrix)
    read = set(atoms_of(formula))
    u_slots, b_slots = one_type_slots(signature), two_table_slots(signature)
    u, b = len(u_slots), len(b_slots)

    def one_type_atoms(var):
        return [Atom(p, (var,) if kind == "unary" else (var, var))
                for p, kind in u_slots]

    diag = substitute(formula, {"y": "x"})
    valid = [i for i in range(1 << u)
             if eval_qf(diag, dict(zip(one_type_atoms("x"),
                                       (slot_bit(i, s, u) for s in range(u)))))]

    def read_values(atoms, index, width):
        return tuple((a, slot_bit(index, s, width))
                     for s, a in enumerate(atoms) if a in read)

    x_atoms, y_atoms = one_type_atoms("x"), one_type_atoms("y")
    pair_atoms = [Atom(p, ("x", "y") if d == "xy" else ("y", "x")) for p, d in b_slots]
    on_pair = [read_values(pair_atoms, v, b) for v in range(1 << b)]
    memo = {}

    def row(i, j):
        """holds(i on x, j on y, v on the pair) for every v."""
        prefix = read_values(x_atoms, i, u) + read_values(y_atoms, j, u)
        if prefix not in memo:
            memo[prefix] = tuple(eval_qf(formula, dict(prefix + pair)) for pair in on_pair)
        return memo[prefix]

    rows = {(i, j): row(i, j) for i in valid for j in valid}
    swap = [sum(slot_bit(v, s ^ 1, b) << (b - 1 - s) for s in range(b)) for v in range(1 << b)]
    pair_vs = {}
    for a_pos, i in enumerate(valid):
        for j in valid[a_pos:]:
            pair_vs[(i, j)] = tuple(v for v in range(1 << b)
                                    if rows[(i, j)][v] and rows[(j, i)][swap[v]])

    npred = b // 2
    out_mask = [sum(slot_bit(v, 2 * k, b) << (npred - 1 - k) for k in range(npred))
                for v in range(1 << b)]

    # the 2-tables of a pair with the type t on the x side, and the
    # out-masks t sends to p in them; the matrix is directed when every
    # pair allows each combination of what its two sides send
    def oriented(t, p):
        return frozenset(v for v in range(1 << b)
                         if rows[(t, p)][v] and rows[(p, t)][swap[v]])

    sends = {(t, p): tuple(sorted({out_mask[v] for v in oriented(t, p)}))
             for t in valid for p in valid}
    directed = all(oriented(t, p) == {v for v in range(1 << b)
                                      if out_mask[v] in sends[(t, p)]
                                      and out_mask[swap[v]] in sends[(p, t)]}
                   for t in valid for p in valid)

    # on a pair that allows nothing, t keeps the out-masks of its own
    # instance (t on the x side) when that holds on some 2-table and p's
    # holds on none; otherwise t sends nothing
    def options(t, p):
        own, other = rows[(t, p)], rows[(p, t)]
        if oriented(t, p) or not any(own) or any(other):
            return sends[(t, p)]
        return tuple(sorted({out_mask[v] for v in range(1 << b) if own[v]}))

    out_options = {(t, p): options(t, p) for t in valid for p in valid} if directed else {}

    # types are interchangeable when their oriented 2-table sets agree
    # against every partner
    classes = {}
    for t in valid:
        classes.setdefault(tuple(oriented(t, p) for p in valid), []).append(t)
    classes = [tuple(members) for members in classes.values()]
    return valid, pair_vs, directed, out_options, classes


def assert_matches_reference(signature, matrix):
    cells = build_cells(signature, matrix)
    valid, pair_vs, directed, out_options, classes = reference_cells(signature, matrix)
    assert cells.valid == valid
    assert list(cells.pair_vs.items()) == list(pair_vs.items())
    assert cells.n_ij == {key: len(vs) for key, vs in pair_vs.items()}
    assert list(cells.n_ij) == list(pair_vs)
    assert cells.directed == directed
    if directed:
        assert {(t, p): cells.sends(t, p) for t in valid for p in valid} == out_options
    assert cells.classes == classes


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e.name)
def test_mask_sweep_matches_reference_on_corpus(entry):
    norm = Solver(entry.problem()).norm
    assert_matches_reference(norm.signature, norm.matrix)


@pytest.mark.parametrize("seed", range(200))
def test_mask_sweep_matches_reference_on_random_problems(seed):
    """Both encodings of each random problem: per element, and the
    successor encoding with its sign predicates."""
    solver = Solver(random_problem(seed))
    for norm in (solver.norm, solver.successor_encoding()):
        assert_matches_reference(norm.signature, norm.matrix)


def test_mask_sweep_matches_reference_on_one_sided_reads():
    """B is read only as B(x), C only where x = y, R's reflexive slot only
    as R(y,y) and S's never, so types that differ in them share one
    memoized pair evaluation on the side that does not read them."""
    norm = normalize(parse_problem(
        "forall x forall y ((B(x) -> R(x,y)) & (x = y -> C(x))"
        " & (R(y,y) -> S(y,x)) & (A(x) & x != y -> A(y)))"))
    assert len(build_cells(norm.signature, norm.matrix).valid) == 8
    assert_matches_reference(norm.signature, norm.matrix)


def test_mask_sweep_matches_reference_with_block_signs():
    norm = Solver(parse_problem("predicate B/1\npredicate R/2\n"
                                "forall x (B(x) -> exists{=2} y R(x,y))")
                  ).successor_encoding()
    assert norm.blocks[0].sign
    assert_matches_reference(norm.signature, norm.matrix)


def test_empty_pair_empties_only_the_failing_side():
    """``exists x A(x)`` becomes P(x) -> !A(y) with a sign predicate P.
    The pair of the P-type and the A-type allows nothing: the matrix fails
    with the P-type on the x side and holds with the A-type there, so only
    the P-type's side is empty, and the A-type sends toward the P-type
    what it sends toward every type."""
    cells = Solver(parse_problem("predicate A/1\nexists x A(x)")).cells
    assert cells.u_slots == [("A", "unary"), ("__P1", "unary")]
    none, p_type, a_type = cells.valid
    assert cells.pair_vs[(p_type, a_type)] == ()
    assert cells.sends(p_type, a_type) == ()
    assert cells.sends(a_type, p_type) == (0,)
    assert all(cells.sends(t, s) == (0,) for t in cells.valid for s in cells.valid
               if (t, s) != (p_type, a_type))
    assert (none, p_type, a_type) == (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_mask_sweep_matches_reference_random_matrices(seed):
    import random
    rng = random.Random(seed)
    sig = Signature()
    sig.declare("A", 1)
    sig.declare("R", 2)
    sig.declare("S", 2)
    atoms = [Atom("A", ("x",)), Atom("A", ("y",)), Atom("R", ("x", "x")),
             Atom("R", ("x", "y")), Atom("R", ("y", "x")), Atom("S", ("y", "y")),
             Atom("S", ("x", "y")), Eq("x", "y")]
    matrix = [random_qf(rng, atoms, 3) for _ in range(rng.randrange(1, 3))]
    assert_matches_reference(sig, matrix)


# -- many types to one read pattern --------------------------------------------


@pytest.mark.parametrize("text", [
    # C, D and E are never read: eight valid types share each pattern
    "predicate A/1\npredicate C/1\npredicate D/1\npredicate E/1\npredicate R/2\n"
    "forall x forall y (A(x) & R(x,y) -> A(y))",
    # B is read only on the x side, C and R's reflexive slot only on the
    # y side, E nowhere: a pattern's x and y parts differ
    "predicate B/1\npredicate C/1\npredicate E/1\npredicate R/2\npredicate S/2\n"
    "forall x forall y ((B(x) -> R(x,y)) & (C(y) -> !S(x,y)) & (R(y,y) -> S(y,x)))",
], ids=("unmentioned", "one_sided"))
def test_mask_sweep_matches_reference_on_shared_patterns(text):
    norm = normalize(parse_problem(text))
    assert_matches_reference(norm.signature, norm.matrix)


@pytest.mark.parametrize("m", [1, 2])
def test_mask_sweep_matches_reference_with_successor_signs(m):
    """The successor encoding's sign predicates are read on the x side
    only, and U never."""
    norm = Solver(parse_problem("predicate U/1\npredicate B/1\npredicate R/2\n"
                                f"forall x (B(x) -> exists{{={m}}} y R(x,y))")
                  ).successor_encoding()
    assert norm.blocks[0].sign and norm.successors
    assert_matches_reference(norm.signature, norm.matrix)


@pytest.mark.parametrize("k", [10, 11])
def test_unmentioned_unary_predicates_cost_nothing_per_pair(k):
    """``forall x exists y R(x,y)`` beside k unary predicates it never
    mentions has 3 * 2^k valid types but two read patterns, so neither the
    tables nor the count build anything per pair of types."""
    text = ("predicate R/2\n" + "".join(f"predicate U{i}/1\n" for i in range(k))
            + "forall x exists y R(x,y)")
    n = 10
    tracemalloc.start()
    try:
        count = Solver(parse_problem(text)).count(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == (2 ** n - 1) ** n * 2 ** (k * n)
    assert peak < 64 << 20


# -- classes of interchangeable types ------------------------------------------


CORPUS = {entry.name: entry for entry in load_corpus()}


@pytest.mark.parametrize("text,types,classes", [
    (RUNNING_EXAMPLE, 4, 2),
    (CORPUS["count_disj"].text, 3, 2),
    (CORPUS["two_blocks"].text, 6, 2),
    ("exists x exists{=2} y R(x,y)", 6, 3),
], ids=("running", "count_disj", "two_blocks", "exists_exists2"))
def test_class_counts(text, types, classes):
    cells = Solver(parse_problem(text)).cells
    assert (len(cells.valid), len(cells.classes)) == (types, classes)


def test_tracked_reflexive_bit_stays_in_class_weight():
    """Tracking R moves the running example's reflexive R bit into the
    packed class weight, so its two classes stay merged."""
    solver = Solver(parse_problem(RUNNING_EXAMPLE))
    assert solver.cells.classes == [(0, 1), (2, 3)]
    assert len(ProfileEvaluator(solver.norm, solver.cells, 3).types) == 2
    assert len(ProfileEvaluator(solver.norm, solver.cells, 3, ("R",)).types) == 2


# -- cross-independence --------------------------------------------------------


@pytest.mark.parametrize("conjunct", ["R(x,y) -> A(x)", "R(y,x) -> A(y)"])
def test_cross_independence_does_not_depend_on_orientation(conjunct):
    """The two spellings of one conjunct count the same closed forms: an
    element sends any R-edges when it is in A and none otherwise."""
    plain = Solver(parse_problem(f"forall x forall y ({conjunct})"))
    counting = Solver(parse_problem(f"forall x forall y ({conjunct})"
                                    " & forall x exists{=2} y R(x,y)"))
    sizes = range(1, 12)
    assert [plain.count(n) for n in sizes] == [(1 + 2 ** n) ** n for n in sizes]
    assert [counting.count(n) for n in sizes] == [math.comb(n, 2) ** n for n in sizes]


@pytest.mark.parametrize("width", [1, 4, 8, 16])
def test_split_matches_shifting(width):
    """A mask's blocks read from its bytes are those a shift per block
    gives, for block counts that do and do not fill the last byte."""
    import random

    rng = random.Random(width)
    ones = (1 << width) - 1
    for count in (1, 2, 3, 7, 8, 9, 64, 257):
        for mask in (0, (1 << width * count) - 1, rng.getrandbits(width * count)):
            assert _split(mask, width, count) == [mask >> k * width & ones for k in range(count)]
