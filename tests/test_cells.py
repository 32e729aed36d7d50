import pytest
from hypothesis import given, settings, strategies as st

from fo2mc.cells import build_cells, n_ij_csv
from fo2mc.errors import UnsupportedFeatureError
from fo2mc.logic import Atom, Eq, Not, Signature, TRUE
from fo2mc.normalize import normalize
from fo2mc.parser import parse_problem

from conftest import RUNNING_EXAMPLE, random_qf

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
