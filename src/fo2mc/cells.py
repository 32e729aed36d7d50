"""Lifted interpretations of a quantifier-free matrix.

A 1-type (index ``i`` or ``j``) is a truth assignment to the ``u``
single-variable atom slots; a 2-table (index ``v``) assigns the ``b``
two-variable slots.  ``n_ijv`` is 1 exactly when the matrix holds on both
elements and on the ordered pair in both directions under those
assignments, with ``x = y`` fixed to false across the pair.  All tables
are independent of the domain size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import UnsupportedFeatureError
from .grounding import _conj, _disj, _neg, compile_lambda
from .logic import (And, Atom, Eq, Formula, Iff, Implies, Not, Or, Signature,
                    one_type_slots, slot_bit, substitute, two_table_slots)

#: table sweep guard: 2u + b beyond this would not fit in memory/time
MAX_TABLE_BITS = 30


def _compile(conjunct_exprs: Iterable[str], args: str):
    return compile_lambda(args, _conj(list(conjunct_exprs)))


def _formula_expr(f: Formula, resolve) -> str:
    """Translate a quantifier-free formula into a Python expression;
    ``resolve`` maps an Atom or Eq node to an expression string."""
    if isinstance(f, (Atom, Eq)):
        return resolve(f)
    if isinstance(f, Not):
        return _neg(_formula_expr(f.sub, resolve))
    if isinstance(f, And):
        return _conj([_formula_expr(f.left, resolve), _formula_expr(f.right, resolve)])
    if isinstance(f, Or):
        return _disj([_formula_expr(f.left, resolve), _formula_expr(f.right, resolve)])
    if isinstance(f, Implies):
        return _disj([_neg(_formula_expr(f.left, resolve)),
                      _formula_expr(f.right, resolve)])
    if isinstance(f, Iff):
        a = _formula_expr(f.left, resolve)
        b = _formula_expr(f.right, resolve)
        if a in ("0", "1") and b in ("0", "1"):
            return "1" if a == b else "0"
        return f"(({a})==({b}))"
    raise UnsupportedFeatureError(f"matrix is not quantifier-free: {f}")


@dataclass
class CellStructure:
    """The n_ij / n_ijv tables of a matrix, plus everything the engine
    needs to iterate them."""

    signature: Signature
    u_slots: list[tuple[str, str]]
    b_slots: list[tuple[str, str]]
    valid: list[int]
    pair_vs: dict[tuple[int, int], tuple[int, ...]]
    n_ij: dict[tuple[int, int], int]
    cross_independent: bool
    out_options: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def u(self) -> int:
        return len(self.u_slots)

    @property
    def b(self) -> int:
        return len(self.b_slots)

    def u_slot_index(self, pred: str, kind: str) -> int:
        return self.u_slots.index((pred, kind))

    def b_slot_index(self, pred: str, direction: str) -> int:
        return self.b_slots.index((pred, direction))

    def type_bit(self, i: int, slot: int) -> int:
        return slot_bit(i, slot, self.u)

    def table_bit(self, v: int, slot: int) -> int:
        return slot_bit(v, slot, self.b)

    def n_ijv(self, i: int, j: int, v: int) -> int:
        a, bb = (i, j) if i <= j else (j, i)
        vv = v if i <= j else self.swap(v)
        return 1 if (a, bb) in self.pair_vs and vv in self.pair_vs[(a, bb)] else 0

    def swap(self, v: int) -> int:
        """Exchange the (x,y) and (y,x) bits of every predicate."""
        out = 0
        width = self.b
        for s in range(0, width, 2):
            xy = slot_bit(v, s, width)
            yx = slot_bit(v, s + 1, width)
            out |= yx << (width - 1 - s)
            out |= xy << (width - 1 - (s + 1))
        return out

    def out_mask(self, v: int) -> int:
        """Project a 2-table onto its x->y bits, one bit per binary
        predicate (big-endian in predicate order)."""
        npred = self.b // 2
        out = 0
        for k in range(npred):
            out |= self.table_bit(v, 2 * k) << (npred - 1 - k)
        return out


def build_cells(signature: Signature, matrix: Iterable[Formula]) -> CellStructure:
    """Materialize the lifted-interpretation tables of a matrix."""
    matrix = list(matrix)
    u_slots = one_type_slots(signature)
    b_slots = two_table_slots(signature)
    u, b = len(u_slots), len(b_slots)
    if 2 * u + b > MAX_TABLE_BITS:
        raise UnsupportedFeatureError(
            f"signature needs 2*{u}+{b} = {2 * u + b} table bits, "
            f"beyond the supported {MAX_TABLE_BITS}; the lifted tables "
            "would not fit")
    u_index = {slot: s for s, slot in enumerate(u_slots)}
    b_index = {slot: s for s, slot in enumerate(b_slots)}

    def diag_resolve(f):
        if isinstance(f, Eq):
            return "1"
        pred = f.pred
        slot = u_index[(pred, "unary" if signature.arity(pred) == 1 else "reflexive")]
        return f"(i>>{u - 1 - slot}&1)"

    def cross_resolve(f):
        if isinstance(f, Eq):
            return "1" if f.left == f.right else "0"
        pred, args = f.pred, f.args
        if signature.arity(pred) == 1:
            side = "i" if args[0] == "x" else "j"
            slot = u_index[(pred, "unary")]
            return f"({side}>>{u - 1 - slot}&1)"
        if args[0] == args[1]:
            side = "i" if args[0] == "x" else "j"
            slot = u_index[(pred, "reflexive")]
            return f"({side}>>{u - 1 - slot}&1)"
        slot = b_index[(pred, "xy" if args == ("x", "y") else "yx")]
        return f"(v>>{b - 1 - slot}&1)"

    diag_fn = _compile(
        (_formula_expr(substitute(c, {"y": "x"}), diag_resolve) for c in matrix), "i")
    cross_fn = _compile(
        (_formula_expr(c, cross_resolve) for c in matrix), "i, j, v")

    valid = [i for i in range(1 << u) if diag_fn(i)]
    cells = CellStructure(signature, u_slots, b_slots, valid, {}, {}, False)

    # One sweep fills the pair tables and settles cross-independence:
    # whether the x->y direction of the matrix depends only on the 1-type
    # of x and the x->y bits (never on y's type or the reverse bits).
    # When it does, n_ijv factorizes per directed edge.
    pair_vs: dict[tuple[int, int], tuple[int, ...]] = {}
    n_ij: dict[tuple[int, int], int] = {}
    all_v = range(1 << b)
    swaps = [cells.swap(v) for v in all_v]
    out_masks = [cells.out_mask(v) for v in all_v]
    independent = True
    seen: dict[int, dict[int, int]] = {i: {} for i in valid}
    for a_pos, i in enumerate(valid):
        seen_i = seen[i]
        for j in valid[a_pos:]:
            seen_j = seen[j]
            vs = []
            for v in all_v:
                sv = swaps[v]
                m_ij = 1 if cross_fn(i, j, v) else 0
                m_ji = 1 if cross_fn(j, i, sv) else 0
                if m_ij and m_ji:
                    vs.append(v)
                if independent:
                    if seen_i.setdefault(out_masks[v], m_ij) != m_ij:
                        independent = False
                    elif seen_j.setdefault(out_masks[sv], m_ji) != m_ji:
                        independent = False
            pair_vs[(i, j)] = tuple(vs)
            n_ij[(i, j)] = len(vs)
    cells.pair_vs = pair_vs
    cells.n_ij = n_ij
    cells.cross_independent = independent
    if independent:
        cells.out_options = {
            i: tuple(sorted(w for w, m in seen[i].items() if m))
            for i in valid}
    return cells


def n_ij_csv(cells: CellStructure) -> str:
    """The aggregated table as CSV (one row per 1-type pair i <= j)."""
    lines = ["i,j,n_ij"]
    for i in range(1 << cells.u):
        for j in range(i, 1 << cells.u):
            lines.append(f"{i},{j},{cells.n_ij.get((i, j), 0)}")
    return "\n".join(lines) + "\n"
