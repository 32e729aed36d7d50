"""Closed-form model counting over the cell tables.

A count sums, over the censuses of the domain elements among the classes
of valid 1-types (see ``cells``), a multinomial times the class weights
and one factor per pair of elements.  On a directed matrix an element of
class i contributes w_i prod_j g_ij^(k_j - [i = j]), g_ij being the
polynomial of the out-edges i may send to j (van Bremen and Kuzelka's
cell-graph pair factors, split by direction).  A counting block
``A(x) <-> exists{cmp m} y G(x,y)`` reads an A-element's row summed over
the digits of its G-degree in the block's span, one counter for all of
G's blocks, and any other's as its whole row minus that sum (swapped for
at-least); per guard this expands into signed digit boxes, each sign a
class weight.  Classes whose columns g_.j agree form one column group,
and by the multinomial theorem the census runs over the group counts c,
each worth n!/prod_G c_G! prod_G (sum_{i in G} F_i)^c_G: one group is the
n-th power of a per-element polynomial.  Any other matrix,
and the ``successor_encoding`` with its 1/m! divisors, enumerates the
censuses of the classes over 2-table pair factors; there every block
raises one tie counter, and each census key's value is read at its target.
Both censuses are one depth-first walk over the class (group) counts
(``_walk``): the parts raising a tracked unary card go first, the cards'
partial sums are carried down, and no subtree whose cards cannot land in
their box of card ranges is entered.  On pair tables a node keeps, toward
each later class it is asked about, the product of the factors of the
classes placed, so a census costs one power and two products.  ``Solver``
is the one entry point.

Counters, one per tracked predicate (unary ones first) and one per guard
(one tie counter in the successor encoding), are raised by the true atoms of
each 1-type, 2-table and out-edge mask, so every factor is a generating
function in them (Kuzelka, JAIR 2021), evaluated as one Python integer
(Kronecker substitution, ``_Layout``).  Tracked unary cards are census
keys on pair tables; in the group census they split the groups, or stay
digits, by a cost estimate.  Every weight is an integer before any census:
each symmetric weight pair of a predicate p is scaled by the lcm d_p of its
denominators, and in the successor encoding a type outside block i's A
weighs m_i! where one inside would weigh 1/m_i!, so every model is counted
prod_p d_p^(n^arity(p)) prod_i m_i!^n times, a closed-form scale.

A constraint's top-level comparisons give every card a range
(``card_ranges``): its upper bounds cap the digits kept, dropped after
every product like those past the tie counter's target, and a census key
they rule out is never reached.  A table has one read: it decodes each
census key's digits inside the key's box of card ranges once (a key whose
layout packs no card is its own value), keeps the rows the
constraint allows, and adds each row times its profile weight into one
integer per value of some of the cards (none for ``total``), divided by
the scale once per group.  A lower bound on a binary card may be read as
the total without it minus the total under its negation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

from .cells import CellStructure, build_cells
from .errors import InternalConsistencyError, SemanticError
from .logic import (CARD_TRUE, CardAnd, CardCompare, CardConstraint, card_conjoin,
                    constraint_predicates, slot_bit)
from .normalize import CountingBlock, NormalizedProblem, normalize, successor_encoding
from .parser import Problem


#: symmetric (true, false) literal weights per predicate, (1, 1) if absent
Weights = Mapping[str, tuple[Fraction, Fraction]]


# ---------------------------------------------------------------------------
# packed counter polynomials


def _repeat(block: int, run: int, count: int) -> int:
    """``count`` copies of ``block``, one every ``run`` bits, by doubling."""
    out = done = 0
    for bit in bin(count)[2:]:
        out |= out << run * done
        done *= 2
        if bit == "1":
            out |= block << run * done
            done += 1
    return out


def _norm(poly: Sequence[tuple[object, int]]) -> int:
    """|p|, the sum of the absolute values of the coefficients."""
    return sum(abs(w) for _, w in poly)


def _digit_bits(*powers: tuple[int, int]) -> int:
    """Digit width for coefficients of magnitude at most the product of
    base^exp over ``powers``: its bit length plus a sign bit, in whole
    bytes.  The bit length comes from logarithms with a margin above their
    rounding error, so the width is at least the exact bound's and at most
    one byte wider, and no power is built (at n = 100 the bound has about
    16,000 bits).  The bounds passed in hold because |p q| <= |p| |q|,
    truncating or extracting digits never raises |p|, and a nonzero integer
    polynomial has |p| >= 1: a census term is its multinomial times n
    integer class weights w_c times one factor per pair of elements (a
    2-table polynomial, or two out-edge ones), so every partial product of
    a term, and every sum of terms, is at most (sum_c |w_c|)^n * G^pairs by
    the multinomial theorem, for G >= 1 bounding every factor, and one
    element's row at most max_c |w_c| * G^(n-1)."""
    log = 0.0
    for base, exp in powers:
        if exp:
            if not base:
                return 8
            log += exp * math.log2(base)
    return (math.floor(log * (1 + 2 ** -40) + 2 ** -30) + 9) // 8 * 8


def _quotient(value, scale: int):
    """value / scale: an int where it divides, else a Fraction."""
    quotient, rest = divmod(value, scale)
    return Fraction(value, scale) if rest else quotient


def _counter_digits(cap: int, top: int) -> int:
    """The digits ``_Layout`` gives a counter bounded by (cap, top)."""
    return top + 1 if cap >= top else 2 * cap + 1


class _Layout:
    """Counter polynomials packed into one integer (Harvey, J. Symbolic
    Computation 2009): the monomial where counter d has value k_d is
    2^(bits * sum_d k_d * stride_d), a ring map, and coefficients are
    balanced digits in [-2^(bits-1), 2^(bits-1)), which decode exactly
    whatever the signs of the intermediate terms.  A counter bounded by
    (cap, top), the largest value a row keeps and the largest any product
    reaches, with cap < top is 2 cap + 1 digits wide, room for a product
    of two truncated factors, and ``mul`` drops its digits above cap
    (reduction modulo X^(cap+1), a ring map) through a mask on the offset
    digits, or, where only the last counter is cut, so that the kept digits
    are the lowest ones, as the balanced residue modulo 2^(bits * kept);
    with no cap below its top, products are plain ones."""

    def __init__(self, counters: Sequence[int], bounds: Sequence[tuple[int, int]],
                 bits: int):
        self.counters = tuple(counters)  # indices into the evaluator's counters
        self.bits = bits
        self.caps = [min(cap, top) for cap, top in bounds]
        self.widths = [_counter_digits(cap, top) for cap, top in bounds]
        self.strides = [math.prod(self.widths[:d]) for d in range(len(bounds) + 1)]
        self.size = self.strides[-1]
        self.offset = _repeat(1 << bits - 1, bits, self.size)
        self._low = None
        if bounds and bounds[-1][0] < bounds[-1][1] and all(c >= t for c, t in bounds[:-1]):
            kept = bits * self.strides[-2] * (self.caps[-1] + 1)
            self._low = (1 << kept) - 1, 1 << kept - 1, 1 << kept
        elif any(cap < top for cap, top in bounds):
            keep = (1 << bits) - 1
            for cap, s in zip(self.caps, self.strides):
                keep = _repeat(keep, bits * s, cap + 1)
            self._keep = (keep, keep & self.offset)
        else:
            self.mul, self.pow = operator.mul, pow

    def mul(self, a: int, b: int) -> int:
        if self._low:
            mask, half, whole = self._low
            x = a * b & mask
            return x - whole if x >= half else x
        keep, kept_offset = self._keep
        return ((a * b + self.offset) & keep) - kept_offset

    def pow(self, a: int, e: int) -> int:
        if e < 2:
            return a ** e
        half = self.pow(a, e // 2)
        square = self.mul(half, half)
        return self.mul(square, a) if e & 1 else square

    def pack(self, poly, ones: Sequence[int] = ()) -> int:
        """Pack (counts, coefficient) pairs, counts indexed like the
        evaluator's counters and those in ``ones`` taken as 0 (evaluated
        at 1), dropping the terms above the caps."""
        if not self.counters:
            return sum(coef for _, coef in poly)
        total = 0
        for counts, coef in poly:
            key = [0 if d in ones else counts[d] for d in self.counters]
            if all(map(int.__le__, key, self.caps)):
                total += coef << self.bits * sum(map(int.__mul__, key, self.strides))
        return total

    def coefficients(self, x: int, box: Sequence[tuple[int, int]]) -> list[int]:
        """The coefficients of x whose counters lie in their ranges [lo, hi]
        of ``box`` (each within its cap), zeros included, in the order of
        the product of the ranges: x's bytes are laid out once and each
        digit read from them."""
        width, half, read = self.bits // 8, 1 << self.bits - 1, int.from_bytes
        raw = (x + self.offset).to_bytes(width * self.size, "little")
        ats = [0]
        for (lo, hi), s in zip(box, self.strides):
            step = width * s
            ats = [at + k for at in ats for k in range(step * lo, step * (hi + 1), step)]
        return [read(raw[at:at + width], "little") - half for at in ats]

    def digits(self, x: int, box: Sequence[tuple[int, int]]
               ) -> Iterator[tuple[tuple[int, ...], int]]:
        """The nonzero ``coefficients`` of x in ``box``, with the values of
        their counters."""
        keys = product(*(range(lo, hi + 1) for lo, hi in box))
        return ((key, coef) for key, coef in zip(keys, self.coefficients(x, box)) if coef)

    def decode(self, x: int) -> Iterator[tuple[dict[int, int], int]]:
        """The nonzero (counts, coefficient) pairs of x up to the caps,
        counts keyed by the evaluator's counters."""
        for key, coef in self.digits(x, [(0, cap) for cap in self.caps]):
            yield dict(zip(self.counters, key)), coef

    def at(self, x: int, top: Sequence[int]) -> int:
        """x at the values ``top`` of its last counters, packed without
        them: a run of the lower counters' digits (zero past a cap)."""
        lower = len(self.counters) - len(top)
        if any(map(int.__gt__, top, self.caps[lower:])):
            return 0
        ones = (1 << self.bits * self.strides[lower]) - 1
        shift = self.bits * sum(map(int.__mul__, top, self.strides[lower:]))
        return ((x + self.offset) >> shift & ones) - (self.offset & ones)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in lexicographic order."""
    if parts < 2:
        if parts or not total:
            yield (total,) if parts else ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# card ranges from a constraint's comparisons


#: the comparison that holds exactly when one with the key fails
_NEGATED = {"<=": ">", ">=": "<", "<": ">=", ">": "<="}

#: the fixed cost of one evaluation, in products of single packed digits
#: (Karatsuba: d digits cost d^1.585): reading a lower bound from its
#: complement pays once it saves more, which on a 2-core VM happens from
#: n = 10 for |R| >= 2 and for 2|A| <= |R| + 1 on the running example
_EVALUATION_DIGITS = 1200


def _conjuncts(constraint: CardConstraint) -> tuple[list[CardCompare], bool]:
    """The comparisons among a constraint's top-level conjuncts, and whether
    they are the whole constraint."""
    parts = constraint.parts if isinstance(constraint, CardAnd) else (constraint,)
    compares = [part for part in parts if isinstance(part, CardCompare)]
    return compares, len(compares) == len(parts)


def _linear(part: CardCompare) -> tuple[dict[str, int], int, bool]:
    """``part`` as sum_p a_p |p| + c <= 0, or = 0 for an equation: its
    nonzero coefficients a, its constant c and whether it is an equation."""
    coeffs = dict(part.left.coeffs)
    for pred, k in part.right.coeffs:
        coeffs[pred] = coeffs.get(pred, 0) - k
    const = part.left.const - part.right.const
    if part.op in (">=", ">"):
        coeffs, const = {p: -a for p, a in coeffs.items()}, -const
    return ({p: a for p, a in coeffs.items() if a},
            const + (part.op in ("<", ">")), part.op == "=")


def card_ranges(forms: Sequence[tuple[dict[str, int], int, bool]],
                ranges: Mapping[str, tuple[int, int]]) -> dict[str, tuple[int, int]] | None:
    """Each card's range [lo, hi] narrowed by comparisons in their ``_linear``
    ``forms``, in one pass: in sum_p a_p |p| + c <= 0 (or = 0), a_q |q| is at most -c
    minus the least sum the other cards' ranges reach (and, in an
    equation, at least -c minus their greatest), divided by a_q with floor
    or ceil.  A part whose other cards are fixed gets the exact range it
    allows, so a strict op moves the bound by one and an equation leaves
    one value or none.  None when a part cannot hold."""
    out = dict(ranges)
    for coeffs, const, equation in forms:
        spans = {p: sorted((a * out[p][0], a * out[p][1])) for p, a in coeffs.items()}
        low = const + sum(least for least, _ in spans.values())
        high = const + sum(most for _, most in spans.values())
        if low > 0 or equation and high < 0:
            return None
        for p, a in coeffs.items():
            lo, hi = out[p]
            top, bottom = spans[p][0] - low, spans[p][1] - high  # a |p| <= top, >= bottom
            if a > 0:
                hi = min(hi, top // a)
                lo = max(lo, -(-bottom // a)) if equation else lo
            else:
                lo = max(lo, -(-top // a))
                hi = min(hi, bottom // a) if equation else hi
            if lo > hi:
                return None
            out[p] = lo, hi
    return out


# ---------------------------------------------------------------------------
# pinnedness of counting blocks


def block_pinned(cells: CellStructure, block: CountingBlock) -> bool:
    """True when the matrix pins A (its complement for at-least) to the set
    of elements whose guard degree lies in the span: for ``=m``, when it forces
    every guard edge to start in A; for a span holding 0, when no valid type
    reads a degree outside it."""
    a_slot = cells.u_slot_index(block.a_pred, "unary")
    g_refl = cells.u_slot_index(block.guard, "reflexive")
    g_xy = cells.b_slot_index(block.guard, "xy")
    outside = [i for i in cells.valid if cells.type_bit(i, a_slot) == (block.cmp == ">=")]
    if block.cmp != "=":  # an element outside the span may have no guard edge
        return not outside
    if any(cells.type_bit(i, g_refl) for i in outside):
        return False
    # a guard edge from i is an x->y bit of a 2-table with i on the x side,
    # and the members of a class allow the same 2-tables toward every type
    class_of = {t: c for c, members in enumerate(cells.classes) for t in members}
    starts = {class_of[i]: i for i in outside}.values()
    return not any(cells.table_bit(v, g_xy) for i in starts
                   for members in cells.classes for v in cells.tables(i, members[0]))


# ---------------------------------------------------------------------------
# the profile evaluator


class ProfileEvaluator:
    """Signed profile table of a normalized problem at one domain size.

    Keys are cardinality snapshots of the tracked predicates (unary
    first, then binary, each group in the given order); values carry the
    multinomial coefficient, the inclusion-exclusion sign, any symmetric
    weights and the block divisors, with every counting block already
    enforced.  Rows of value zero are left out, and so are the rows the
    cardinality ``constraint`` rules out (over tracked predicates only).
    The table has one read, ranged by ``card_ranges`` over the constraint's
    comparisons: its weighted sums grouped by some of the cards (``read``;
    ``table`` groups by all of them, ``total`` by none), each divided by
    ``scale``, the closed-form over-count of the integer weights."""

    def __init__(self, norm: NormalizedProblem, cells: CellStructure, n: int,
                 tracked: Sequence[str] = (), fold: Weights | None = None,
                 constraint: CardConstraint = CARD_TRUE):
        if n < 1:
            raise SemanticError("domain size must be at least 1")
        self.cells, self.n = cells, n
        tracked = tuple(dict.fromkeys(tracked))
        for pred in tracked:
            if pred not in norm.signature:
                raise SemanticError(f"cannot track undeclared predicate {pred}")
        arity = norm.signature.arity
        # Each symmetric weight pair of p times the lcm d_p of its denominators
        # weighs every model prod_p d_p^(n^arity(p)) times over, d_p once per
        # ground atom.  Under integer weights every row is a whole weighted
        # count, so each must divide by the scale on its own.
        self.fold, self.scale = {}, 1
        for pred, pair in (fold or {}).items():
            if pred in norm.signature:
                d = math.lcm(*(Fraction(w).denominator for w in pair))
                self.fold[pred] = tuple(int(w * d) for w in pair)
                self.scale *= d ** (n ** arity(pred))
        self._rows_divide = self.scale == 1

        # The counters each true atom of a predicate raises: tracked
        # predicates (unary ones first), then one per guard, its degree, or in
        # the successor encoding one tie counter, raised by every f_ij and by
        # m_i per block whose A_i a type lies outside.  Block i's share,
        # sum_j |f_ij| + m_i * |not A_i|, is at least m_i * n on every term
        # the sign predicates leave (each A_i-element has its f_ij successors),
        # so the counter is sum_i m_i * n exactly when every share is tied.
        self.key_names = tuple(sorted(tracked, key=arity))
        self.n_unary = sum(arity(p) == 1 for p in tracked)
        self._ties = norm.successors
        if norm.blocks and not self._ties and not cells.directed:
            raise InternalConsistencyError("per-element blocks need a directed matrix")
        # the census over column groups runs on a directed matrix without a
        # tie counter (one group is the n-th power of one per-element
        # polynomial); the census over pair tables otherwise
        self._directed = cells.directed and not self._ties
        n_keys = len(self.key_names)
        self._guards: dict[str, list[tuple[int, CountingBlock]]] = {}  # guard -> its blocks
        for i, b in enumerate(() if self._ties else norm.blocks):
            self._guards.setdefault(b.guard, []).append((i, b))
        counted = ([tuple(f for b in norm.blocks for f in b.f_preds)] if self._ties
                   else [(g,) for g in self._guards])
        self._raises: dict[str, list[int]] = {}
        for d, preds in enumerate([(p,) for p in self.key_names] + counted):
            for pred in preds:
                self._raises.setdefault(pred, []).append(d)
        # (cap, top) per counter: a card reaches n or n * n but only the
        # values the constraint's comparisons allow are kept, a guard degree
        # n but only its blocks' spans are read; the tie counter only
        # climbs, so nothing past its target matters
        self.constraint = constraint
        parts, self._whole = _conjuncts(constraint)
        self._forms = [_linear(part) for part in parts]
        self._at: dict[tuple[int, ...], dict | None] = {}  # census key -> card ranges
        tops = {p: n ** arity(p) for p in self.key_names}
        ranges = card_ranges(self._forms, {p: (0, top) for p, top in tops.items()})
        caps = {p: hi for p, (_, hi) in ranges.items()} if ranges else dict.fromkeys(tops, 0)
        # the unary cards' box, which the census walk never leaves
        self._box = None if ranges is None else [ranges[p] for p in self.key_names[:self.n_unary]]
        self._bounds = [(caps[p], tops[p]) for p in self.key_names]
        tie = sum(b.m for b in norm.blocks) * n  # the tie counter's target
        self._bounds += ([(tie, tie * (n + 1))] if self._ties
                         else [(max(b.span[1] for _, b in blocks), n)
                               for blocks in self._guards.values()])

        # ``build_cells`` groups interchangeable types, split here into classes
        # by tracked unary key and the digit box read of each guard degree
        # (``_read_options``).  With a tie counter a type outside block i's A
        # weighs m_i! in place of 1/m_i! inside it, every model prod_i m_i!^n
        # times over.  A class carries the sum of its members' signed weights
        # times their counters, exact by the multinomial theorem; zero sums
        # drop out.  The classes raising a tracked unary card come first, the
        # order in which both censuses walk them (``_walk``), then by type.
        sign_slots = [cells.u_slot_index(p, "unary") for p in norm.sign_preds]
        a_slots = [cells.u_slot_index(b.a_pred, "unary") for b in norm.blocks]
        options = {}  # A bits -> their ``_read_options``
        merged: dict[tuple, tuple[int, dict]] = {}
        for c, members in enumerate(cells.classes):
            for t in members:
                counts, w = self._term(cells.u_slots, t)
                in_a = tuple(cells.type_bit(t, s) for s in a_slots)
                w *= (-1) ** sum(cells.type_bit(t, s) for s in sign_slots)
                if self._ties:
                    for block, hit in zip(norm.blocks, in_a):
                        w *= 1 if hit else math.factorial(block.m)
                        counts[n_keys] += 0 if hit else block.m
                if in_a not in options:
                    options[in_a] = self._read_options(in_a)
                key = tuple(counts)
                for reads, sign in options[in_a]:
                    _, weights = merged.setdefault((c, key[:self.n_unary], reads), (t, {}))
                    weights[key] = weights.get(key, 0) + sign * w
        live = sorted((not any(ukey), t, ukey, reads, [(k, w) for k, w in ws.items() if w])
                      for (_, ukey, reads), (t, ws) in merged.items() if any(ws.values()))
        self.types = [t for _, t, _, _, _ in live]
        self._unary_keys = [ukey for _, _, ukey, _, _ in live]
        self._reads = [reads for _, _, _, reads, _ in live]
        self._weights = [w for *_, w in live]
        if self._ties:
            self.scale *= math.prod(math.factorial(b.m) for b in norm.blocks) ** n

    def _read_options(self, in_a: Sequence[int]) -> list[tuple[tuple, int]]:
        """The (digit box read of each guard degree, () for the whole row;
        sign) of the classes a type in the A's ``in_a`` joins.  Per guard,
        the degrees its blocks allow (inside the spans of the A's it is in,
        swapped for at-least, outside the others) form runs between the
        spans' ends: the runs allowed, or the whole row minus the others."""
        per_guard = []
        for blocks in self._guards.values():
            spans = [(b.span, in_a[i] != (b.cmp == ">=")) for i, b in blocks]  # (span, inside?)
            cuts = sorted({0, *(end for (lo, hi), _ in spans for end in (lo, hi + 1))})
            allowed = [all((lo <= d <= hi) == hit for (lo, hi), hit in spans) for d in cuts]
            tail = allowed[-1]  # every degree past the spans
            runs = [(lo, hi - 1) for lo, hi, ok in zip(cuts, cuts[1:], allowed) if ok != tail]
            per_guard.append([((), 1)] * tail + [(run, -1 if tail else 1) for run in runs])
        return [(tuple(box for box, _ in reads), math.prod(sign for _, sign in reads))
                for reads in product(*per_guard)]

    def _term(self, slots: Sequence[tuple[str, str]], index: int):
        """The counter values raised by the true atoms of ``index``, an
        assignment to ``slots`` (a 1-type, a 2-table or an out-edge mask),
        and the product of its atoms' symmetric weights."""
        counts, weight = [0] * len(self._bounds), 1
        for s, (pred, _) in enumerate(slots):
            bit = slot_bit(index, s, len(slots))
            if pred in self.fold:
                weight *= self.fold[pred][0 if bit else 1]
            if bit:
                for d in self._raises.get(pred, ()):
                    counts[d] += 1
        return counts, weight

    def _factors(self, per_element: bool, pairs):
        """The integer factors of the class pairs (pa's out-edges toward pb
        per element, else the 2-tables across pa <= pb), a bound G >= 1 on
        their norms and the census digit width.  Each distinct option tuple,
        and each distinct option, is expanded once."""
        n, cells = self.n, self.cells
        slots, options = cells.b_slots, cells.tables
        if per_element:
            slots = [(p, "xy") for p in cells.signature.binary_predicates()]
            options = cells.sends
        at = {(pa, pb): options(self.types[pa], self.types[pb]) for pa, pb in pairs}
        terms = {v: self._term(slots, v) for v in set().union(*at.values())}
        distinct = {vs: [terms[v] for v in vs] for vs in set(at.values())}
        g = max(1, max(map(_norm, distinct.values()), default=0))
        n_pairs = n * (n - 1) // (1 if per_element else 2)
        return {pair: distinct[vs] for pair, vs in at.items()}, g, _digit_bits(
            (sum(map(_norm, self._weights)), n), (g, n_pairs))

    def _ranges_at(self, key: tuple[int, ...]) -> dict | None:
        """The card ranges the constraint's comparisons allow in a census
        whose unary key is ``key`` (its cards fixed, every other card within
        [0, cap]), or None when they allow none."""
        if key not in self._at:
            start = {p: (0, cap) for p, (cap, _) in zip(self.key_names, self._bounds)}
            start.update((p, (v, v)) for p, v in zip(self.key_names, key))
            self._at[key] = card_ranges(self._forms, start) if self._forms else start
        return self._at[key]

    def _packed_cards(self, layout: _Layout) -> tuple[list[str], bool]:
        """The tracked cards packed in ``layout``, and whether each census
        key's box of card ranges holds exactly the rows the constraint
        allows: every comparison bounds at most one packed card once the
        key is fixed."""
        cards = [self.key_names[d] for d in layout.counters]
        return cards, self._whole and all(len(coeffs.keys() & set(cards)) < 2
                                          for coeffs, _, _ in self._forms)

    def _read(self, packed: dict, layout: _Layout, weight, by: Sequence[str]) -> dict:
        """The read of a census (census key -> value packed in ``layout``):
        each key's digits inside its box of card ranges are decoded once; a
        row the constraint allows adds its digit times ``weight(row)`` (1
        without a weight; the row lists the tracked cards in the order of
        ``key_names``) to the integer of its values of the ``by`` cards, and
        each group is divided by ``scale`` once.  Without a weight, a group
        or a row to check against the constraint, each key's digits are
        summed whole.  With integer symmetric weights every row must divide
        on its own."""
        names, scale = self.key_names, self.scale
        cards, exact = self._packed_cards(layout)
        check = scale != 1 and self._rows_divide
        group = [names.index(p) for p in by]
        whole = group == list(range(len(names)))
        bare = exact and weight is None and not group  # one group, no row needed
        sums: dict[tuple[int, ...], object] = {}
        for key, value in packed.items():
            if cards:
                ranges = self._ranges_at(key)
                box = [ranges[p] for p in cards]
            if bare:
                coefs = layout.coefficients(value, box) if cards else [value]
                if check and any(coef % scale for coef in coefs):
                    raise InternalConsistencyError(
                        f"counting-quantifier division left a non-integer row in census {key}")
                if any(coefs):
                    sums[()] = sums.get((), 0) + sum(coefs)
                continue
            # with no card packed, the value is the one coefficient
            rows = layout.digits(value, box) if cards else [((), value)] if value else []
            for digits, coef in rows:
                row = key + digits
                if not exact and not self.constraint.holds(dict(zip(names, row))):
                    continue
                if check and coef % scale:
                    raise InternalConsistencyError(
                        f"counting-quantifier division left a non-integer row {row}")
                if weight is not None:
                    coef *= weight(row)
                at = row if whole else tuple(map(row.__getitem__, group))
                sums[at] = sums.get(at, 0) + coef
        if scale == 1:
            return sums
        return {at: _quotient(value, scale) for at, value in sums.items()}

    def _walk(self, unary: Sequence[tuple[int, ...]], leaf, grow=None, state=None) -> dict:
        """The census walk: census key (the tracked unary cards) -> the sum of
        its censuses' values, over the counts of the parts (classes, or column
        groups) summing to n, depth first in the parts' order, part i adding
        ``unary[i]`` to the cards per element.  The cards' partial sums are
        carried down, and a part's counts are cut to those that can still
        land every card in its box of card ranges, so no subtree outside the
        box is entered; each key reached is checked against the constraint's
        comparisons.  ``grow(i, left, state, counts)`` yields the counts k of
        part i in the range ``counts``, in order, each with the state passed
        down, and may stop early; ``leaf(counts, state)`` is the value of the
        census ``counts``, the last part taking what is left."""
        n, last, packed = self.n, len(unary) - 1, {}
        if self._box is None or not unary or not unary[0] and self._ranges_at(()) is None:
            return packed
        box = self._box[:len(unary[0])]
        cut = box if self._forms else ()  # with no comparison every census is in the box
        # per part and card, the least and the most a later part adds per element
        later = [[(min(card), max(card)) for card in zip(*unary[i + 1:])] if cut else ()
                 for i in range(last)]
        counts = [0] * len(unary)

        def branch(i: int, left: int, sums: tuple[int, ...], state):
            lo, hi = 0, left
            for (low, high), a, (least, most), s in zip(cut, unary[i], later[i], sums):
                # the card ends at s + k a + r, the later parts adding r within
                # [(left - k) least, (left - k) most]: k c <= r for each (c, r)
                for c, r in ((a - least, high - s - left * least),
                             (most - a, s + left * most - low)):
                    if c > 0:
                        hi = min(hi, r // c)
                    elif c < 0:
                        lo = max(lo, -(r // -c))
                    elif r < 0:
                        return ()
            if lo > hi:
                return ()
            if grow is None:
                return ((k, state) for k in range(lo, hi + 1))
            return grow(i, left, state, range(lo, hi + 1))

        def reach(key: tuple[int, ...], left: int, state) -> None:
            if box:  # the last part takes what is left
                key = tuple([s + left * a for s, a in zip(key, unary[last])])
                if self._forms and self._ranges_at(key) is None:
                    return
            counts[last] = left
            value = leaf(counts, state)
            if value:
                packed[key] = packed.get(key, 0) + value

        sums = (0,) * len(box)
        if not last:
            reach(sums, n, state)
        frames = [(0, n, sums, branch(0, n, sums, state))] if last else []
        while frames:
            i, left, sums, steps = frames[-1]
            for k, down in steps:
                counts[i] = k
                below = tuple([s + k * a for s, a in zip(sums, unary[i])]) if box else sums
                if i + 1 < last:
                    if k < left:
                        frames.append((i + 1, left - k, below, branch(i + 1, left - k, below, down)))
                        break
                    counts[i + 1:] = [0] * (last - i)  # none left: the later parts take 0
                reach(below, left - k, down)
            else:
                frames.pop()
        return packed

    def _enumerate_table(self) -> tuple[dict, _Layout]:
        """The census over pair tables, unread: census key (the tracked unary
        cards) -> value packed in the layout of the tracked binary cards (read
        at the tie counter's target), and that layout.  A census is its
        multinomial times prod_a w_a^k_a f_aa^C(k_a, 2) prod_{a<b} f_ab^(k_a k_b)
        over the classes a, b and their 2-table factors f, walked in the
        classes' order.  Each node of the walk that places k > 0 elements of
        a class a keeps, toward each later class b it is asked about, the
        product prod f_cb^k_c over the classes c placed so far, its parent's
        times f_ab^k, so a census costs one power of it and two products;
        w_a^k f_aa^C(k, 2) and f_ab^k are computed once per classes and k.  A product that is 0 (every digit past a cap)
        stays 0 whatever it is multiplied by, so the walk goes no further."""
        n_unary, end, classes = self.n_unary, len(self.key_names), range(len(self.types))
        polys, _, bits = self._factors(False, [(a, b) for a in classes for b in classes if a <= b])
        layout = _Layout(range(n_unary, len(self._bounds)), self._bounds[n_unary:], bits)
        mul, pow, comb, last = layout.mul, layout.pow, math.comb, len(classes) - 1
        packs = {pair: layout.pack(p) for pair, p in polys.items()}
        powers: dict[tuple[int, int, int], int] = {}

        def power(i: int, b: int, k: int) -> int:  # f_ib^k (i < b), w_i^k f_ii^C(k, 2) for b = i
            if (i, b, k) not in powers:
                powers[i, b, k] = (pow(packs[i, b], k) if i != b else mul(
                    pow(layout.pack(self._weights[i]), k), pow(packs[i, i], k * (k - 1) // 2)))
            return powers[i, b, k]

        def toward(node, b: int) -> int:  # the placed classes' product toward class b
            if node is None:
                return 1
            i, k, parent, kept = node
            if b not in kept:
                kept[b] = mul(toward(parent, b), power(i, b, k))
            return kept[b]

        def grow(i: int, left: int, state, counts: range):
            value, node = state
            base = toward(node, i)
            step = pow(base, counts.start)
            for k in counts:
                if k > counts.start:
                    step = mul(step, base)
                down = value * comb(left, k)
                if k:
                    down = mul(down, mul(power(i, i, k), step))
                if not down:
                    return
                yield k, (down, (i, k, node, {}) if k else node)

        def leaf(counts: list[int], state) -> int:
            (value, node), k = state, counts[-1]
            return mul(value, mul(power(last, last, k), pow(toward(node, last), k))) if k else value

        packed = self._walk(self._unary_keys, leaf, grow, (1, None))
        if self._ties:  # each key's value at the tie counter's target
            packed = {key: layout.at(v, [self._bounds[-1][0]]) for key, v in packed.items()}
        return packed, _Layout(range(n_unary, end), self._bounds[n_unary:end], bits)

    def _groups(self, column: Sequence[int], bits: int) -> tuple[int, list]:
        """The first packed counter and the census groups (unary key or (),
        column, classes), each at its first class, so those raising a tracked
        unary card come first: the classes of each ``column``, split by
        tracked unary key where that beats packing the unary cards by an
        estimate of, per census and group, 1,000 products of 30-bit digits
        plus one of the layout's."""
        def groups(split: bool) -> list:
            out: dict[tuple, list[int]] = {}
            for b, k in enumerate(column):
                out.setdefault((self._unary_keys[b] if split else (), k), []).append(b)
            return [(*key, members) for key, members in out.items()]

        def cost(option: tuple[int, list]) -> float:
            (first, groups), end, n = option, len(self.key_names), self.n
            words = bits / 30 * math.prod(_counter_digits(*b) for b in self._bounds[first:end])
            return math.comb(n + len(groups) - 1, n) * len(groups) * (1000 + words ** 1.585)
        packed = 0, groups(False)
        return min(packed, (self.n_unary, groups(True)), key=cost) if self.n_unary else packed

    def _readings(self, polys: dict, g: int, layout: _Layout, cols) -> tuple:
        """The layout rows are read into, and per class how its element's
        row is computed: (the product and power of the layout it is computed
        in, its factors toward the columns ``cols`` other than 1, by column,
        and its class weight, packed there, and None or that layout and the
        guard degrees of its ``_reads`` box).  A class reading no guard
        degree uses the read layout, the census counters alone; any other the
        one layout that adds every guard degree, each it does not read packed
        at 1 (whole)."""
        n, end = self.n, len(self.key_names)
        base = element = layout
        if self._guards:
            # an element raises a unary card at most once, anything else n times
            tops = [(1, 1) if d < self.n_unary else (min(self._bounds[d][1], n),) * 2
                    for d in layout.counters]
            bits = _digit_bits((max(map(_norm, self._weights), default=0), 1), (g, n - 1))
            base = _Layout(layout.counters, tops, bits)
            element = _Layout(layout.counters + tuple(range(end, len(self._bounds))),
                              tops + self._bounds[end:], bits)
        rows = []
        for pos, reads in enumerate(self._reads):
            space = element if any(reads) else base
            ones = [d for d, box in enumerate(reads, end) if not box]
            factors = [(j, f) for j, r in enumerate(cols) if (f := space.pack(polys[pos, r], ones)) != 1]
            keys = list(product(*(range(box[0], min(box[1], n) + 1) if box else (0,)
                                  for box in reads)))
            rows.append((space.mul, space.pow, factors, space.pack(self._weights[pos], ones),
                         (space, keys) if space is not base else None))
        return base, rows

    def _group_table(self) -> tuple[dict, _Layout]:
        """The census over column groups, unread like ``_enumerate_table``:
        classes whose out-edge columns agree form one column, and a census
        of the groups is its multinomial times prod_G (sum of G's rows)^c_G,
        walked in the groups' order.  A row depends on the column counts
        alone, so the powers of the group sums are kept while the walk's
        column counts stay the same, as they do where several groups share a
        column."""
        n, classes, sends, columns = self.n, range(len(self.types)), self.cells.sends, {}
        column = [columns.setdefault(tuple([sends(t, u) for t in self.types]), len(columns))
                  for u in self.types]  # each class's column
        cols = [column.index(k) for k in range(len(columns))]  # each column's first class
        polys, g, bits = self._factors(True, [(a, r) for a in classes for r in cols])
        first, groups = self._groups(column, bits)
        end = len(self.key_names)
        layout = _Layout(range(first, end), self._bounds[first:end], bits)
        base, rows = self._readings(polys, g, layout, cols)
        convert = self._guards and layout.counters  # rows come in the element layout
        mul, pow, comb = layout.mul, layout.pow, math.comb
        column_of = [k for _, k, _ in groups]
        parts = [[rows[b] for b in members] for _, _, members in groups]
        seen, powers = None, {}  # the column counts, and the powers of group sums kept for them

        def leaf(counts: list[int], _) -> int:
            nonlocal seen, powers
            per_column = [0] * len(cols)
            for k, c in zip(column_of, counts):
                per_column[k] += c
            if per_column != seen:
                seen, powers = per_column, {}
            value, left = 1, n
            for i, c in enumerate(counts):
                if not c:
                    continue
                power = powers.get((i, c))
                if power is None:
                    own, total = column_of[i], 0
                    for smul, spow, factors, row, reads in parts[i]:
                        for j, f in factors:
                            e = per_column[j] - (j == own)
                            if e:
                                row = smul(row, spow(f, e))
                        if reads:  # the guard degrees it reads
                            space, keys = reads
                            row = sum(space.at(row, key) for key in keys)
                        total += layout.pack(base.decode(row)) if convert else row
                    power = powers[i, c] = pow(total, c)
                value, left = mul(value * comb(left, c), power), left - c
            return value

        return self._walk([ukey for ukey, _, _ in groups], leaf), layout

    def _census(self) -> tuple[dict, _Layout]:
        return self._group_table() if self._directed else self._enumerate_table()

    def read(self, weight=None, by: Sequence[str] = ()) -> dict:
        """The weighted sums of the rows the constraint allows, grouped by
        the values of the ``by`` cards: weight(row) times the row's value
        summed over the rows of each group, ``weight`` a function of the
        tracked cards in the order of ``key_names``."""
        return self._read(*self._census(), weight, by)

    def table(self) -> dict:
        """The rows the constraint allows, keyed by the tracked cards."""
        return self.read(by=self.key_names)

    def total(self):
        """The sum of ``table()``: the one group of ``read()``."""
        return self.read().get((), 0)


# ---------------------------------------------------------------------------
# solver front end


class CountResult:
    def __init__(self, total: object, profiles: list[tuple[dict, object]] | None = None):
        self.total = total  # int for pure counting, Fraction for weighted sums
        self.profiles = profiles


def _tracking(tracked: Sequence[str], constraint: CardConstraint) -> tuple[str, ...]:
    """The tracked predicates, then the constraint's own."""
    return tuple(dict.fromkeys(tuple(tracked) + tuple(sorted(constraint_predicates(constraint)))))


def _as_count(total) -> int:
    if isinstance(total, Fraction):
        if total.denominator != 1:
            raise InternalConsistencyError(
                f"counting-quantifier division left a non-integer total {total}")
        total = total.numerator
    if total < 0:
        raise InternalConsistencyError(f"negative model count {total}")
    return int(total)


class Solver:
    """Builds the normalized problem and its cell tables once; answers
    count/weighted-count queries per domain size.  Pure and reusable
    across domain sizes, so benchmarks amortize the table sweep."""

    def __init__(self, problem: Problem | NormalizedProblem):
        norm = problem if isinstance(problem, NormalizedProblem) else normalize(problem)
        self.norm, self.cells = norm, build_cells(norm.signature, norm.matrix)
        if norm.blocks and not norm.successors and not self.cells.directed:
            # fall back to the successor encoding, with a sign predicate on
            # each block the matrix does not pin (freeing the first tables)
            self.norm, self.cells = successor_encoding(norm, self._unpinned()), None
            self.cells = build_cells(self.norm.signature, self.norm.matrix)

    def _unpinned(self) -> set[int]:
        if self.norm.successors:
            return {b.index for b in self.norm.blocks if b.sign}
        return {b.index for b in self.norm.blocks if not block_pinned(self.cells, b)}

    @property
    def pinned(self) -> bool:
        """True when the matrix pins every counting block, so the successor
        encoding needs no sign predicate."""
        return not self._unpinned()

    def successor_encoding(self) -> NormalizedProblem:
        """The problem in the source paper's successor encoding, with a
        sign predicate on each block the matrix does not pin."""
        if self.norm.successors:
            return self.norm
        return successor_encoding(self.norm, self._unpinned())

    # -- profile tables -------------------------------------------------------

    def profile_table(self, n: int, tracked: Sequence[str] = (),
                      fold: Weights | None = None,
                      constraint: CardConstraint = CARD_TRUE
                      ) -> tuple[tuple[str, ...], dict]:
        """Profile table keyed by the tracked predicate cardinalities,
        with every counting block already enforced, holding the rows the
        ``constraint`` over them allows.  Returns (key names, table)."""
        ev = ProfileEvaluator(self.norm, self.cells, n, tracked, fold, constraint)
        return ev.key_names, ev.table()

    # -- counting entry points ---------------------------------------------------

    def _evaluator(self, n: int, tracked: Sequence[str], fold: Weights | None,
                   constraint: CardConstraint | None) -> ProfileEvaluator:
        """The evaluator over the tracked predicates and the constraint's
        own, for the profiles the constraint (the problem's by default)
        allows."""
        if constraint is None:
            constraint = self.norm.constraint
        return ProfileEvaluator(self.norm, self.cells, n, _tracking(tracked, constraint),
                                fold, constraint)

    def _total(self, n: int, tracked: Sequence[str], fold: Weights | None,
               constraint: CardConstraint | None):
        """The sum of the profile table the constraint (the problem's by
        default) allows.  A comparison
        that bounds a binary card from below, which nothing else tracks, is
        read from its narrower side: the sum without the comparison minus
        the sum under its negation, which caps the card at the largest lower
        bound less one, wherever the products of the digits this saves
        outweigh one more evaluation."""
        if constraint is None:
            constraint = self.norm.constraint
        parts, whole = _conjuncts(constraint)
        signature = self.norm.signature
        names = constraint_predicates(constraint)
        if whole and all(p in signature for p in names):
            forms = [_linear(part) for part in parts]
            whole_ranges = {p: (0, n ** signature.arity(p)) for p in names}
            for i, (part, (coeffs, _, equation)) in enumerate(zip(parts, forms)):
                rest = parts[:i] + parts[i + 1:]
                others = set(tracked).union(*(f[0] for f in forms[:i] + forms[i + 1:]))
                for card, a in coeffs.items():
                    if a > 0 or equation or card in others or signature.arity(card) != 2:
                        continue
                    negation = CardCompare(_NEGATED[part.op], part.left, part.right)
                    ranges = card_ranges(forms[:i] + forms[i + 1:] + [_linear(negation)],
                                         whole_ranges)
                    if ranges is None:  # the rest implies the comparison
                        return self._total(n, tracked, fold, card_conjoin(rest))
                    top = n * n
                    saved = (_counter_digits(top, top) ** 1.585
                             - _counter_digits(ranges[card][1], top) ** 1.585)
                    if saved > _EVALUATION_DIGITS:
                        return (self._total(n, tracked, fold, card_conjoin(rest))
                                - self._total(n, tracked, fold, card_conjoin(rest + [negation])))
        return self._evaluator(n, tracked, fold, constraint).total()

    def count(self, n: int, constraint: CardConstraint | None = None) -> int:
        """Exact model count on domain size n, honoring the problem's
        cardinality constraint (or an explicit override)."""
        return _as_count(self._total(n, (), None, constraint))

    def weighted_total(self, n: int, tracked: Sequence[str],
                       fold: Weights | None = None, weight_fn=None,
                       constraint: CardConstraint | None = None):
        """Sum of weight(profile) * F(profile) over profiles satisfying
        the constraint; the symmetric part enters via ``fold`` and the
        profile-dependent part via ``weight_fn(cards) -> int or Fraction``,
        read in one group."""
        if weight_fn is None:
            return Fraction(self._total(n, tracked, fold, constraint))
        ev = self._evaluator(n, tracked, fold, constraint)
        return Fraction(ev.read(lambda row: weight_fn(dict(zip(ev.key_names, row)))).get((), 0))

    def breakdown(self, n: int, tracked: Sequence[str],
                  fold: Weights | None = None,
                  constraint: CardConstraint | None = None) -> CountResult:
        """Per-profile signed terms for the tracked predicates."""
        ev = self._evaluator(n, tracked, fold, constraint)
        by = [p for p in ev.key_names if p in tracked]
        groups = ev.read(by=by)
        profiles = [(dict(zip(by, key)), val) for key, val in sorted(groups.items())]
        return CountResult(total=sum(groups.values()), profiles=profiles)


# ---------------------------------------------------------------------------
# spec-level operations


def fomc_universal(cells: CellStructure, n: int) -> int:
    """Plain universal count: sum over censuses of the multinomial times
    the product of n_ij powers.  Requires no sign predicates or blocks."""
    return _as_count(sum(universal_term_valid(cells, n, k)
                         for k in compositions(n, len(cells.valid))))


def universal_term_valid(cells: CellStructure, n: int, k: Sequence[int]) -> int:
    """One census term, with k indexed over cells.valid."""
    value = math.factorial(n)
    for count in k:
        value //= math.factorial(count)
    occupied = [(t, c) for t, c in zip(cells.valid, k) if c]
    for ia, (ta, ca) in enumerate(occupied):
        for tb, cb in occupied[ia:]:
            value *= cells.n_ij[(ta, tb)] ** (ca * (ca - 1) // 2 if ta == tb else ca * cb)
    return value


def universal_term(cells: CellStructure, n: int, k: Sequence[int]) -> int:
    """One census term with k indexed over the full 1-type range 0..2^u-1
    (zero for censuses that use an invalid 1-type)."""
    if len(k) != 1 << cells.u or sum(k) != n:
        raise SemanticError(f"census must have 2^u entries summing to {n}")
    valid = set(cells.valid)
    if any(c and t not in valid for t, c in enumerate(k)):
        return 0
    packed = [k[t] for t in cells.valid]
    return universal_term_valid(cells, n, packed)


def witness_deficit_counts(problem: Problem | NormalizedProblem, n: int, m: int
                        ) -> tuple[int, int]:
    """Diagnostic for a single forall-exists problem, exposed for tests:
    (p_m, e_m), the matrix models in which a marked set of exactly m
    elements is witness-free (the sign predicate counted as an ordinary
    predicate), and, by an alternating binomial sum over the p_j, those in
    which exactly m elements have no witness."""
    solver = Solver(problem)
    norm = solver.norm
    if len(norm.sign_preds) != 1 or norm.blocks:
        raise SemanticError("diagnostic requires exactly one forall-exists conjunct")
    if m > n:
        raise SemanticError(f"m = {m} exceeds the domain size {n}")
    # weight -1 on the marked types cancels their sign: the marked set is
    # counted like an ordinary predicate
    _, table = solver.profile_table(n, norm.sign_preds, {norm.sign_preds[0]: (-1, 1)})
    p = [table.get((j,), 0) for j in range(n + 1)]
    e_m = sum((-1) ** (j - m) * math.comb(j, m) * p[j] for j in range(m, n + 1))
    return p[m], e_m
