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
each type only through the type slots the matrix reads on its side, its
*read pattern* there.  One sweep evaluates the matrix over every
(x pattern, y pattern, 2-table), one bit each, as is and with the 2-table
swapped; a valid type's row of 2-table masks against every partner is
then one C-level ``map`` of ANDs per distinct pattern, so types the
matrix cannot tell apart (unmentioned unary predicates, say) cost
nothing per pair.  ``CellStructure.tables`` and ``sends`` answer per
distinct mask; ``pair_vs`` and ``n_ij``, which list every pair of valid
types, are built only when read.

Two valid 1-types are interchangeable when they have the same 2-tables,
read with the type on the x side, against every valid type;
``CellStructure.classes`` partitions the valid types by that relation:
types grouped by pattern, then patterns by row.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable

from .errors import UnsupportedFeatureError
from .logic import (And, Atom, Eq, Formula, Iff, Implies, Not, Or, Signature,
                    one_type_slots, slot_bit, two_table_slots)

#: refuse a signature with more table bits 2u + b than this.  The pair
#: sweep costs |X| |Y| 2^b bits for the X and Y read patterns of its two
#: sides, which is 2^(2u+b) only when each side reads every type slot;
#: the guard judges the signature alone, so it also refuses signatures
#: whose patterns are few
MAX_TABLE_BITS = 30


def check_table_bits(u: int, b: int) -> None:
    """Refuse u type slots and b table slots past ``MAX_TABLE_BITS``."""
    if 2 * u + b > MAX_TABLE_BITS:
        raise UnsupportedFeatureError(
            f"signature needs 2*{u}+{b} = {2 * u + b} table bits, "
            f"beyond the supported {MAX_TABLE_BITS}; the lifted tables "
            "would not fit")


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


def _split(mask: int, width: int, count: int) -> list[int]:
    """The ``count`` blocks of ``width`` bits of a mask, lowest first, read
    from its bytes (8 // width blocks per byte for a width below 8)."""
    if width % 8:
        ones, shifts = (1 << width) - 1, range(0, 8, width)
        raw = mask.to_bytes(-(-count * width // 8), "little")
        return [byte >> k & ones for byte in raw for k in shifts][:count]
    size = width // 8
    raw = mask.to_bytes(size * count, "little")
    return [int.from_bytes(raw[k:k + size], "little") for k in range(0, size * count, size)]


class CellStructure:
    """The cell tables of ``matrix``, answered per distinct table mask.

    A valid type's pattern is its bits on the type slots the matrix reads
    on either side; a pair's two patterns select its mask, and ``tables``
    and ``sends`` decode each distinct mask on its first use.  ``pair_vs``
    and ``n_ij`` list the tables for every pair of valid types, built on
    first read."""

    def __init__(self, signature: Signature, matrix: tuple[Formula, ...],
                 u_slots: list[tuple[str, str]], b_slots: list[tuple[str, str]],
                 valid: list[int], read: int, patterns: dict[int, int],
                 rows: list[list[int]], own: list[list[int]], selectors: list[int]):
        """``read`` masks a type's pattern, numbered by ``patterns`` in the
        order of its first valid type.  ``rows[p][q]`` is the mask of the
        2-tables across a pair of types with patterns p and q, p's type on
        the x side: where that instance of the matrix holds, ``own[p][q]``,
        and the swapped instance ``own[q][p]`` holds too.  ``selectors[o]``
        masks the 2-tables whose x->y bits spell out-mask o."""
        self.signature, self.matrix = signature, matrix
        self.u_slots = u_slots
        self.b_slots = b_slots
        self.valid = valid
        self._read, self._at, self._rows, self._own = read, patterns, rows, own
        self._selectors = selectors
        self._tables: dict[int, tuple[int, ...]] = {}
        self._out: dict[int, tuple[int, ...]] = {}
        # directed when each distinct mask holds as many 2-tables as the
        # out-masks it sends times those its swap sends back
        back = {m: rows[q][p] for p, row in enumerate(rows) for q, m in enumerate(row)}
        self.directed = all(m.bit_count() == len(self._out_masks(m)) * len(self._out_masks(s))
                            for m, s in back.items())
        # types of one pattern share a row, and patterns of one row a class
        rows_seen: dict[tuple[int, ...], int] = {}
        class_of = [rows_seen.setdefault(tuple(row), len(rows_seen)) for row in rows]
        classes: list[list[int]] = [[] for _ in rows_seen]
        for t in valid:
            classes[class_of[patterns[t & read]]].append(t)
        #: the valid types grouped into classes of interchangeable types,
        #: ordered by their smallest member, members ascending
        self.classes = [tuple(members) for members in classes]

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

    def _out_masks(self, mask: int) -> tuple[int, ...]:
        out = self._out.get(mask)
        if out is None:
            out = self._out[mask] = tuple(o for o, sel in enumerate(self._selectors) if mask & sel)
        return out

    def tables(self, i: int, j: int) -> tuple[int, ...]:
        """The 2-tables the matrix allows across valid types i and j, read
        with i on the x side, ascending."""
        mask = self._rows[self._at[i & self._read]][self._at[j & self._read]]
        vs = self._tables.get(mask)
        if vs is None:
            vs = self._tables[mask] = _bit_positions(mask)
        return vs

    def sends(self, i: int, j: int) -> tuple[int, ...]:
        """O_ij, the out-masks valid type i may send to valid type j,
        ascending; an out-mask holds a 2-table's x->y bits, one per binary
        predicate (big-endian in predicate order).  On a pair that allows
        nothing, O_ij is empty when the matrix with i on the x side holds on
        no 2-table or when both sides' instances hold on some; otherwise i
        keeps the out-masks of its own instance."""
        p, q = self._at[i & self._read], self._at[j & self._read]
        mask = self._rows[p][q]
        if not mask and not self._own[q][p]:
            mask = self._own[p][q]
        return self._out_masks(mask)

    @cached_property
    def pair_vs(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """``tables`` of every pair of valid types i <= j."""
        valid = self.valid
        return {(i, j): self.tables(i, j) for a, i in enumerate(valid) for j in valid[a:]}

    @cached_property
    def n_ij(self) -> dict[tuple[int, int], int]:
        """The number of 2-tables of every pair of ``pair_vs``."""
        return {key: len(vs) for key, vs in self.pair_vs.items()}

    def n_ijv(self, i: int, j: int, v: int) -> int:
        return int(i in self.valid and j in self.valid and v in self.tables(i, j))


def build_cells(signature: Signature, matrix: Iterable[Formula]) -> CellStructure:
    """Materialize the lifted-interpretation tables of a matrix.

    The matrix is evaluated on bit masks: once over all 2^u 1-types for
    the diagonal, then once over every (x pattern, y pattern, 2-table) of
    the valid types' read patterns, reading each 2-table as is and once
    swapped."""
    matrix = tuple(matrix)
    u_slots = one_type_slots(signature)
    b_slots = two_table_slots(signature)
    u, b = len(u_slots), len(b_slots)
    check_table_bits(u, b)
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
    if not valid:
        return CellStructure(signature, matrix, u_slots, b_slots, valid, 0, {}, [], [], [])

    # number the valid types' patterns, and the parts each side reads
    read = read_x | read_y
    patterns: dict[int, int] = {}
    for t in valid:
        patterns.setdefault(t & read, len(patterns))
    x_at: dict[int, int] = {}
    y_at: dict[int, int] = {}
    p_x = [x_at.setdefault(p & read_x, len(x_at)) for p in patterns]
    p_y = [y_at.setdefault(p & read_y, len(y_at)) for p in patterns]

    # bit (x |Y| + y) 2^b + v of a sweep mask stands for x pattern x, y
    # pattern y and 2-table v
    width, n_y = 1 << b, len(y_at)
    run = width * n_y  # the bits of one x pattern
    blocks = len(x_at) * n_y
    full = (1 << width * blocks) - 1
    every_table = full // ((1 << width) - 1)  # bit 0 of each 2-table block
    every_run = full // ((1 << run) - 1)

    def side(at: dict[int, int], s: int, length: int) -> int:
        """The runs of ``length`` bits of the patterns in ``at`` with type
        slot s set, spelt out highest pattern first and parsed once."""
        bit = 1 << (u - 1 - s)
        return int("".join(("1" if p & bit else "0") * length for p in reversed(at)), 2)

    v_masks = _slot_masks(b)
    env = [full, 0, *(side(x_at, s, run) for s in range(u)),
           *(side(y_at, s, width) * every_run for s in range(u))]
    as_is = _split(holds(env + [m * every_table for m in v_masks]), width, blocks)
    swapped = _split(holds(env + [v_masks[s ^ 1] * every_table for s in range(b)]),
                     width, blocks)

    # per x pattern, the masks where the matrix holds against each pattern
    # on the y side; per y pattern, those where it holds swapped with each
    # pattern on the x side; a row ANDs the two of its pattern
    forth = [[as_is[x * n_y + y] for y in p_y] for x in range(len(x_at))]
    back = [[swapped[x * n_y + y] for x in p_x] for y in range(n_y)]
    own = [forth[x] for x in p_x]
    rows = [list(map(int.__and__, forth[x], back[y])) for x, y in zip(p_x, p_y)]

    # per out-mask o (one bit per binary predicate, big-endian in
    # predicate order), the 2-tables whose x->y bits spell o
    full_v = (1 << width) - 1
    selectors = [full_v]
    for s in range(0, b, 2):
        selectors = [sel & m for sel in selectors for m in (full_v ^ v_masks[s], v_masks[s])]
    return CellStructure(signature, matrix, u_slots, b_slots, valid, read, patterns,
                         rows, own, selectors)


def n_ij_csv(cells: CellStructure) -> str:
    """The aggregated table as CSV (one row per 1-type pair i <= j)."""
    lines = ["i,j,n_ij"]
    for i in range(1 << cells.u):
        for j in range(i, 1 << cells.u):
            lines.append(f"{i},{j},{cells.n_ij.get((i, j), 0)}")
    return "\n".join(lines) + "\n"
