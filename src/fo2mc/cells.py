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
O_ji of j toward i.  This reads the options, not the matrix's syntax,
so it does not depend on which way round a conjunct is written.  A pair
that allows nothing needs only one empty side for O_ij x O_ji to be
empty: the side whose own instance of the matrix (that type on the x
side) holds on no 2-table gets no options, and the other side keeps the
out-edges of its own instance, so its options can agree with its options
toward other partners; both sides are empty only when both instances
hold somewhere.

The tables are evaluated without a compiler: each conjunct becomes a
tree of closures over bit masks.  The tables of a pair of types depend on
each type only through the type slots the matrix reads on its side, so
they are evaluated once per pattern of those slots.

Two valid 1-types are interchangeable when they have the same 2-tables,
read with the type on the x side, against every valid type;
``CellStructure.classes`` partitions the valid types by that relation.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, Iterable

from .errors import UnsupportedFeatureError
from .logic import (And, Atom, Eq, Formula, Iff, Implies, Not, Or, Signature,
                    one_type_slots, slot_bit, two_table_slots)

#: table sweep guard: 2u + b beyond this would not fit in memory/time
MAX_TABLE_BITS = 30


def _mask_fn(f: Formula, slot) -> Callable[[list[int]], int]:
    """Turn a quantifier-free formula into a function of an environment
    list ``e`` of bit masks, one bit per interpretation, giving the mask on
    which the formula holds; ``e[0]`` is the full mask and ``slot`` maps an
    Atom or Eq node to the index of its mask in ``e``."""
    if isinstance(f, (Atom, Eq)):
        return itemgetter(slot(f))
    if isinstance(f, Not):
        sub = _mask_fn(f.sub, slot)
        return lambda e: e[0] ^ sub(e)
    if isinstance(f, (And, Or, Implies, Iff)):
        a, b = _mask_fn(f.left, slot), _mask_fn(f.right, slot)
        if isinstance(f, And):
            return lambda e: a(e) & b(e)
        if isinstance(f, Or):
            return lambda e: a(e) | b(e)
        if isinstance(f, Implies):
            return lambda e: (e[0] ^ a(e)) | b(e)
        return lambda e: e[0] ^ a(e) ^ b(e)
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


class CellStructure:
    """The n_ij / n_ijv tables of a matrix, plus everything the engine
    needs to iterate them."""

    def __init__(self, signature: Signature, u_slots: list[tuple[str, str]],
                 b_slots: list[tuple[str, str]], valid: list[int],
                 pair_vs: dict[tuple[int, int], tuple[int, ...]],
                 n_ij: dict[tuple[int, int], int], directed: bool = False,
                 out_options: dict[tuple[int, int], tuple[int, ...]] | None = None,
                 classes: list[tuple[int, ...]] | None = None):
        self.signature = signature
        self.u_slots = u_slots
        self.b_slots = b_slots
        self.valid = valid
        self.pair_vs = pair_vs
        self.n_ij = n_ij
        self.directed = directed
        #: on a directed matrix, O_ij for every ordered pair of valid types:
        #: the out-masks that i may send to j, ascending; an out-mask holds
        #: a 2-table's x->y bits, one per binary predicate (big-endian in
        #: predicate order).  On a pair that allows nothing, O_ij is empty
        #: when the matrix with i on the x side holds on no 2-table or when
        #: both sides' instances hold on some; otherwise i keeps the
        #: out-masks of its own instance
        self.out_options = {} if out_options is None else out_options
        #: the valid types grouped into classes of interchangeable types,
        #: ordered by their smallest member, members ascending
        self.classes = [] if classes is None else classes

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


def build_cells(signature: Signature, matrix: Iterable[Formula]) -> CellStructure:
    """Materialize the lifted-interpretation tables of a matrix.

    The matrix is evaluated on bit masks: once over all 2^u 1-types for
    the diagonal, then over all 2^b 2-tables at once, with bit v of a
    mask standing for 2-table v, once per pattern of the type slots it
    reads on each side of a pair of valid types."""
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

    # Both sweeps evaluate the matrix on one environment layout: the full
    # mask, the mask of x = y, the u type slots of the x side, those of
    # the y side, then the b table slots.  Resolving the leaves records
    # which type slots the matrix reads on each side, as bits of a type.
    read_x = read_y = 0

    def slot(f) -> int:
        nonlocal read_x, read_y
        if isinstance(f, Eq):
            return 0 if f.left == f.right else 1
        if signature.arity(f.pred) == 2 and f.args[0] != f.args[1]:
            return 2 + 2 * u + b_index[(f.pred, "xy" if f.args[0] == "x" else "yx")]
        s = unary_slot(f.pred)
        if f.args[0] == "x":
            read_x |= 1 << (u - 1 - s)
            return 2 + s
        read_y |= 1 << (u - 1 - s)
        return 2 + u + s

    conjuncts = [_mask_fn(c, slot) for c in matrix]

    def holds(env: list[int]) -> int:
        mask = env[0]
        for conjunct in conjuncts:
            mask &= conjunct(env)
        return mask

    # on the diagonal both sides are the one element and x = y holds
    full_u, u_masks = (1 << (1 << u)) - 1, _slot_masks(u)
    valid = list(_bit_positions(holds(
        [full_u, full_u, *u_masks, *u_masks,
         *(u_masks[u_index[(p, "reflexive")]] for p, _ in b_slots)])))
    cells = CellStructure(signature, u_slots, b_slots, valid, {}, {})

    full = (1 << (1 << b)) - 1
    v_masks = _slot_masks(b)
    v_swapped = [v_masks[s ^ 1] for s in range(b)]

    @cache
    def directions(x: int, y: int) -> tuple[int, int]:
        """The 2-tables on which the matrix holds with type x on the x side
        and type y on the y side, reading each 2-table as is and swapped;
        called with both types restricted to the slots their side reads."""
        env = [full, 0, *(full if slot_bit(t, s, u) else 0
                          for t in (x, y) for s in range(u))]
        return holds(env + v_masks), holds(env + v_swapped)

    # per out-mask o (one bit per binary predicate, big-endian in
    # predicate order), the 2-tables whose x->y bits spell o
    selectors = [full]
    for s in range(0, b, 2):
        selectors = [sel & m for sel in selectors for m in (full ^ v_masks[s], v_masks[s])]

    def sends(mask: int) -> tuple[int, ...]:
        return tuple(o for o, sel in enumerate(selectors) if mask & sel)

    pair_vs: dict[tuple[int, int], tuple[int, ...]] = {}
    n_ij: dict[tuple[int, int], int] = {}
    # Per type, the id of its oriented 2-table mask against each partner,
    # read with the type on the x side; ids number the distinct masks.
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
        row_i, i_x, i_y = rows[i], i & read_x, i & read_y
        for b_pos, j in enumerate(valid[a_pos:], a_pos):
            f_ij, r_ij = directions(i_x, j & read_y)
            f_ji, r_ji = directions(j & read_x, i_y)
            both = f_ij & r_ji
            entry = tables_of.get(both)
            if entry is None:
                swapped = f_ji & r_ij  # the same 2-tables, j on the x side
                entry = tables_of[both] = (_bit_positions(both), ident(both),
                                           ident(swapped))
                sent, got = sends(both), sends(swapped)
                options[entry[1]], options[entry[2]] = sent, got
                directed = directed and len(entry[0]) == len(sent) * len(got)
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
        # a pair that allows nothing empties only the side whose own
        # instance holds on no 2-table, and the other side keeps what its
        # own instance sends: the pair factor O_ij O_ji stays 0
        for (i, j), vs in pair_vs.items():
            if not vs:
                f_ij = directions(i & read_x, j & read_y)[0]
                f_ji = directions(j & read_x, i & read_y)[0]
                if not (f_ij and f_ji):
                    out[i, j], out[j, i] = sends(f_ij), sends(f_ji)
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
