"""Lifted interpretations of a quantifier-free matrix.

A 1-type (index ``i`` or ``j``) is a truth assignment to the ``u``
single-variable atom slots; a 2-table (index ``v``) assigns the ``b``
two-variable slots.  ``n_ijv`` is 1 exactly when the matrix holds on both
elements and on the ordered pair in both directions under those
assignments, with ``x = y`` fixed to false across the pair.  All tables
are independent of the domain size.

A matrix is *directed* when every valid pair of types (i, j) allows
exactly the 2-tables O_ij x O_ji: the x->y bits and the y->x bits are
chosen independently, from the out-edge options O_ij of i toward j and
O_ji of j toward i.  It is *cross-independent* when moreover every pair
allows O_ii x O_jj, so what a type sends does not depend on its
partner.  Both properties read the options, not the matrix's syntax, so
neither depends on which way round a conjunct is written.

Two valid 1-types are interchangeable when they have the same 2-tables,
read with the type on the x side, against every valid type;
``CellStructure.classes`` partitions the valid types by that relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import UnsupportedFeatureError
from .grounding import compile_lambda
from .logic import (And, Atom, Eq, Formula, Iff, Implies, Not, Or, Signature,
                    one_type_slots, slot_bit, substitute,
                    two_table_slots)

#: table sweep guard: 2u + b beyond this would not fit in memory/time
MAX_TABLE_BITS = 30


def _mask_expr(f: Formula, resolve) -> str:
    """Translate a quantifier-free formula into a Python expression over
    bit masks, one bit per interpretation, where ``F`` is the full mask;
    ``resolve`` maps an Atom or Eq node to a mask expression."""
    if isinstance(f, (Atom, Eq)):
        return resolve(f)
    if isinstance(f, Not):
        return f"(F^{_mask_expr(f.sub, resolve)})"
    if isinstance(f, (And, Or, Implies, Iff)):
        a = _mask_expr(f.left, resolve)
        b = _mask_expr(f.right, resolve)
        if isinstance(f, And):
            return f"({a}&{b})"
        if isinstance(f, Or):
            return f"({a}|{b})"
        if isinstance(f, Implies):
            return f"((F^{a})|{b})"
        return f"(F^{a}^{b})"
    raise UnsupportedFeatureError(f"matrix is not quantifier-free: {f}")


def _slot_masks(width: int) -> list[int]:
    """Per slot, the mask over all 2^width indices whose slot bit is set
    (slot 0 is the most significant bit of an index)."""
    everything = (1 << (1 << width)) - 1
    masks = []
    for slot in range(width):
        run = 1 << (width - 1 - slot)  # indices alternate in runs this long
        block = ((1 << run) - 1) << run
        masks.append(block * (everything // ((1 << 2 * run) - 1)))
    return masks


def _bit_positions(mask: int) -> tuple[int, ...]:
    return tuple(k for k, c in enumerate(bin(mask)[:1:-1]) if c == "1")


def _mask_swapper(v_masks: list[int], full: int):
    """The permutation of a mask over all 2-tables that moves bit v to bit
    swap(v): per predicate, indices with the (x,y) bit set and the (y,x)
    bit clear move down by the (y,x) run length, and the reverse up."""
    b = len(v_masks)
    moves = []
    for s in range(0, b, 2):
        down = v_masks[s] & ~v_masks[s + 1]
        up = v_masks[s + 1] & ~v_masks[s]
        moves.append((full ^ down ^ up, down, up, 1 << (b - 2 - s)))

    def swapped(mask: int) -> int:
        for keep, down, up, run in moves:
            mask = (mask & keep) | (mask & down) >> run | (mask & up) << run
        return mask
    return swapped


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
    directed: bool = False
    #: on a directed matrix, O_ij for every ordered pair of valid types:
    #: the out-masks (see ``out_mask``) that i may send to j, ascending
    out_options: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    #: the valid types grouped into classes of interchangeable types,
    #: ordered by their smallest member, members ascending
    classes: list[tuple[int, ...]] = field(default_factory=list)

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
    """Materialize the lifted-interpretation tables of a matrix.

    The matrix is evaluated on bit masks: once over all 2^u 1-types for
    the diagonal, then per pair of valid types over all 2^b 2-tables at
    once, with bit v of a mask standing for 2-table v."""
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

    def unary_slot(pred: str) -> int:
        return u_index[(pred, "unary" if signature.arity(pred) == 1 else "reflexive")]

    def diag_resolve(f):
        return "F" if isinstance(f, Eq) else f"U[{unary_slot(f.pred)}]"

    def cross_resolve(f):
        if isinstance(f, Eq):
            return "F" if f.left == f.right else "0"
        side = "X" if f.args[0] == "x" else "Y"
        if signature.arity(f.pred) == 1 or f.args[0] == f.args[1]:
            return f"{side}[{unary_slot(f.pred)}]"
        direction = "xy" if f.args == ("x", "y") else "yx"
        return f"V[{b_index[(f.pred, direction)]}]"

    diag = compile_lambda(
        "U=U, F=F", "&".join(_mask_expr(substitute(c, {"y": "x"}), diag_resolve)
                             for c in matrix) or "F",
        {"U": _slot_masks(u), "F": (1 << (1 << u)) - 1})()
    valid = list(_bit_positions(diag))
    cells = CellStructure(signature, u_slots, b_slots, valid, {}, {}, False)

    # Per direction, one function of the two types' slot masks (X for the
    # x side, Y for the y side) gives the mask of 2-tables on which the
    # matrix holds; the reverse direction reads 2-table v swapped, so its
    # (x,y) and (y,x) slot masks trade places.
    full = (1 << (1 << b)) - 1
    v_masks = _slot_masks(b)
    cross = "&".join(_mask_expr(c, cross_resolve) for c in matrix) or "F"
    forward = compile_lambda("X, Y, V=V, F=F", cross, {"V": v_masks, "F": full})
    reverse = compile_lambda("X, Y, V=V, F=F", cross,
                             {"V": [v_masks[s ^ 1] for s in range(b)], "F": full})
    sides = {t: tuple(full if slot_bit(t, s, u) else 0 for s in range(u))
             for t in valid}

    pair_vs: dict[tuple[int, int], tuple[int, ...]] = {}
    n_ij: dict[tuple[int, int], int] = {}
    # Per type, the id of its oriented 2-table mask against each partner:
    # the pair's mask for the type on the x side, its swap otherwise.
    # Ids number the distinct masks; each gets swapped once.
    swapped = _mask_swapper(v_masks, full)
    mask_id: dict[int, int] = {}

    def ident(mask: int) -> int:
        return mask_id.setdefault(mask, len(mask_id))

    # per distinct mask: its 2-tables, its id and its swap's id; per id,
    # the out-masks its x side may send
    tables_of: dict[int, tuple[tuple[int, ...], int, int]] = {}
    options: dict[int, tuple[int, ...]] = {}
    directed = True
    rows = {t: [0] * len(valid) for t in valid}
    for a_pos, i in enumerate(valid):
        row_i = rows[i]
        for b_pos, j in enumerate(valid[a_pos:], a_pos):
            m_ij, m_ji = forward(sides[i], sides[j]), reverse(sides[j], sides[i])
            both = m_ij & m_ji
            entry = tables_of.get(both)
            if entry is None:
                entry = tables_of[both] = (_bit_positions(both), ident(both),
                                           ident(swapped(both)))
                sends = tuple(sorted({cells.out_mask(v) for v in entry[0]}))
                gets = tuple(sorted({cells.out_mask(cells.swap(v)) for v in entry[0]}))
                options[entry[1]], options[entry[2]] = sends, gets
                directed = directed and len(entry[0]) == len(sends) * len(gets)
            vs, row_i[b_pos], rows[j][a_pos] = entry
            key = (i, j)
            pair_vs[key] = vs
            n_ij[key] = len(vs)
    cells.pair_vs = pair_vs
    cells.n_ij = n_ij
    cells.directed = directed
    if directed:
        out = cells.out_options = {(i, j): options[rows[i][pos]]
                                   for i in valid for pos, j in enumerate(valid)}
        # every pair allows O_ii x O_jj: what a type sends does not depend
        # on its partner, and a pair that allows nothing has a side that
        # cannot meet its own type
        cells.cross_independent = all(
            (out[i, j], out[j, i]) == (out[i, i], out[j, j]) if vs
            else not (out[i, i] and out[j, j]) for (i, j), vs in pair_vs.items())
    classes: dict[tuple, list[int]] = {}
    for t in valid:
        classes.setdefault(tuple(rows[t]), []).append(t)
    cells.classes = [tuple(members) for members in classes.values()]
    return cells


def n_ij_csv(cells: CellStructure) -> str:
    """The aggregated table as CSV (one row per 1-type pair i <= j)."""
    lines = ["i,j,n_ij"]
    for i in range(1 << cells.u):
        for j in range(i, 1 << cells.u):
            lines.append(f"{i},{j},{cells.n_ij.get((i, j), 0)}")
    return "\n".join(lines) + "\n"
