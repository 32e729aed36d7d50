"""Closed-form model counting over the cell tables.

A count sums, over the censuses of the domain elements among the classes
of valid 1-types (see ``cells``), a multinomial times one factor per pair
of elements and one row per element (``_census``; van Bremen and
Kuzelka's cell-graph factors).  On a directed matrix the pair factor is 1
and an element of class i has the row w_i prod_j g_ij^(k_j - [i = j]),
g_ij being the polynomial of the out-edges i may send to column j.  A
counting block ``A(x) <-> exists{cmp m} y G(x,y)`` reads an A-element's
row summed over the digits of its G-degree in the block's span, one
counter for all of G's blocks, and any other's as its whole row minus
that sum; per guard this expands into signed digit boxes, each sign a
class weight.  On any other matrix the pair factor
f_ij is the 2-table polynomial and the row the bare class weight.  In the
``successor_encoding``, with its 1/j indicator weights, every block's chain
raises one tie counter through either kind of factor, and each census key's
value is read at its target.  By the multinomial theorem classes of one column
whose pair factors agree form one group, and the census runs over the
group counts: one group is the n-th power of a per-element polynomial.
The census is one depth-first walk in ``_census``: the groups raising a
tracked unary card go first, the cards' partial sums are carried down,
and no subtree whose cards cannot land in their box of card ranges is
entered.  ``Solver.read`` is the one entry point, and the one place an
evaluator is built.

Counters, one per tracked predicate (unary ones first) and one per guard
(one tie counter in the successor encoding), are raised by the true atoms of
each 1-type, 2-table and out-edge mask, so every factor is a generating
function in them (Kuzelka, JAIR 2021), evaluated as one Python integer
(Kronecker substitution, ``_Layout``).  Tracked unary cards split the
groups as census keys or, under per-element rows, stay digits where a
cost estimate favours that.  Every weight is an integer before any census:
one rule scales each (true, false) weight pair of a predicate p, symmetric
or literal (a sign's -1, a chain's 1/j on its true j-th indicator), by
the lcm d_p of its denominators, so every model is counted
prod_p d_p^(n^arity(p)) times, a closed-form scale.

A constraint's top-level comparisons give every card a range
(``card_ranges``): its upper bounds cap the digits kept, dropped after
every product like those past the tie counter's target, and a census key
they rule out is never reached.  A table has one read: it decodes each
census key's digits inside the key's box of card ranges once (a key whose
layout packs no card is its own value), keeps the rows the
constraint allows, and adds each row times its profile weight into one
integer per value of some of the cards (none for a total), divided by
the scale once per group.  In a total with no profile weight, a lower
bound on a binary card may be read as the total without it minus the
total under its negation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

from .cells import CellStructure, build_cells
from .errors import InternalConsistencyError, SemanticError
from .logic import (CARD_TRUE, CardAnd, CardCompare, CardConstraint, WeightExpr,
                    card_conjoin, constraint_predicates, slot_bit, weight_function,
                    weight_predicates)
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
    integer class weights w_c times a 2-table polynomial per pair of
    elements and an out-edge one per ordered pair, so every partial product
    of a term, and every sum of terms, is at most
    (sum_c |w_c|)^n F^C(n, 2) G^(n(n-1)) by the multinomial theorem, for F
    and G >= 1 bounding the two kinds (1 where one is absent), and one
    element's row at most max_c |w_c| * G^(n-1)."""
    log = 0.0
    for base, exp in powers:
        if exp:
            if not base:
                return 8
            log += exp * math.log2(base)
    return (math.floor(log * (1 + 2 ** -40) + 2 ** -30) + 9) // 8 * 8


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
    digits; with no cap below its top, products are plain ones."""

    def __init__(self, counters: Sequence[int], bounds: Sequence[tuple[int, int]],
                 bits: int):
        self.counters = tuple(counters)  # indices into the evaluator's counters
        self.bits = bits
        self.caps = [min(cap, top) for cap, top in bounds]
        self.widths = [_counter_digits(cap, top) for cap, top in bounds]
        self.strides = [math.prod(self.widths[:d]) for d in range(len(bounds) + 1)]
        self.size = self.strides[-1]
        self.offset = _repeat(1 << bits - 1, bits, self.size)
        if any(cap < top for cap, top in bounds):
            keep = (1 << bits) - 1
            for cap, s in zip(self.caps, self.strides):
                keep = _repeat(keep, bits * s, cap + 1)
            self._keep = (keep, keep & self.offset)
        else:
            self.mul, self.pow = operator.mul, pow

    def mul(self, a: int, b: int) -> int:
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
# the profile evaluator


class ProfileEvaluator:
    """Signed profile table of a normalized problem at one domain size.

    Keys are cardinality snapshots of the tracked predicates (unary
    first, then binary, each group in the given order); values carry the
    multinomial coefficient and the literal weights, symmetric ones and the
    synthetic predicates' (inclusion-exclusion signs, block divisors), with
    every counting block already enforced.  Rows of value zero are left
    out, and so are the rows the cardinality ``constraint`` rules out (over
    tracked predicates only).  The table has one read, ranged by
    ``card_ranges`` over the constraint's comparisons: its weighted sums
    grouped by some of the cards (``read``), each divided by ``scale``, the
    closed-form over-count of the integer weights."""

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
        # Each (true, false) weight pair of p, ``fold`` over the synthetic
        # predicates' ``literal_weights``, times the lcm d_p of its
        # denominators weighs every model prod_p d_p^(n^arity(p)) times over,
        # d_p once per ground atom.  Unless the caller's weights have a
        # denominator every row is a whole weighted count, dividing on its own.
        self.fold, self.scale = {}, 1
        for pred, pair in {**norm.literal_weights, **(fold or {})}.items():
            if pred in norm.signature:
                d = math.lcm(*(Fraction(w).denominator for w in pair))
                self.fold[pred] = tuple(int(w * d) for w in pair)
                self.scale *= d ** (n ** arity(pred))
        self._rows_divide = all(Fraction(w).denominator == 1 for p, pair in (fold or {}).items()
                                if p in norm.signature for w in pair)

        # The counters an atom raises, per predicate and truth value: a true
        # one its tracked predicate's (unary ones first), then one per guard,
        # its degree, or in the successor encoding one tie counter, raised by
        # every true slot and every false indicator.  An element's share in a
        # chain of hi slots is at least hi on every term the sign predicates
        # leave (a true I_j has its f_j successor, the slots disjoint), equal
        # when I_1..I_d hold and its d filled slots hold one successor each.
        self.key_names = tuple(sorted(tracked, key=arity))
        self.n_unary = sum(arity(p) == 1 for p in tracked)
        self._ties = norm.successors
        if norm.blocks and not self._ties and not cells.directed:
            raise InternalConsistencyError("per-element blocks need a directed matrix")
        # per-element rows and no pair factor on a directed matrix, 2-table
        # pair factors and bare class weights otherwise
        self._directed = cells.directed
        self._guards: dict[str, list[tuple[int, CountingBlock]]] = {}  # guard -> its blocks
        for i, b in enumerate(() if self._ties else norm.blocks):
            self._guards.setdefault(b.guard, []).append((i, b))
        counted = ([tuple(f for b in norm.blocks for f in b.f_preds)] if self._ties
                   else [(g,) for g in self._guards])
        self._raises: dict[tuple[str, int], list[int]] = {}
        for d, preds in enumerate([(p,) for p in self.key_names] + counted):
            for pred in preds:
                self._raises.setdefault((pred, 1), []).append(d)
        for pred in (i for b in norm.blocks for i in b.indicators):
            self._raises.setdefault((pred, 0), []).append(len(self.key_names))
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
        tie = sum(len(b.f_preds) for b in norm.blocks) * n  # the tie counter's target
        self._bounds += ([(tie, tie * (n + 1))] if self._ties
                         else [(max(b.span[1] for _, b in blocks), n)
                               for blocks in self._guards.values()])

        # ``build_cells`` groups interchangeable types, split here into classes
        # by tracked unary key and the digit box read of each guard degree
        # (``_read_options``).  A class carries the sum of its members' signed
        # weights times their counters, exact by the multinomial theorem;
        # zero sums drop out.  The classes raising a tracked unary card come
        # first, the order in which the census walks them (``_census``), then
        # by type.
        a_slots = [cells.u_slot_index(b.a_pred, "unary") for b in norm.blocks]
        options = {}  # A bits -> their ``_read_options``
        merged: dict[tuple, tuple[int, dict]] = {}
        for c, members in enumerate(cells.classes):
            for t in members:
                counts, w = self._term(cells.u_slots, t)
                in_a = tuple(cells.type_bit(t, s) for s in a_slots)
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

    def _read_options(self, in_a: Sequence[int]) -> list[tuple[tuple, int]]:
        """The (digit box read of each guard degree, () for the whole row;
        sign) of the classes a type in the A's ``in_a`` joins.  Per guard,
        the degrees its blocks allow (inside the spans of the A's it is in,
        outside the others) form runs between the spans' ends: the runs
        allowed, or the whole row minus the others."""
        per_guard = []
        for blocks in self._guards.values():
            spans = [(b.span, in_a[i]) for i, b in blocks]  # (span, inside?)
            cuts = sorted({0, *(end for (lo, hi), _ in spans for end in (lo, hi + 1))})
            allowed = [all((lo <= d <= hi) == hit for (lo, hi), hit in spans) for d in cuts]
            tail = allowed[-1]  # every degree past the spans
            runs = [(lo, hi - 1) for lo, hi, ok in zip(cuts, cuts[1:], allowed) if ok != tail]
            per_guard.append([((), 1)] * tail + [(run, -1 if tail else 1) for run in runs])
        return [(tuple(box for box, _ in reads), math.prod(sign for _, sign in reads))
                for reads in product(*per_guard)]

    def _term(self, slots: Sequence[tuple[str, str]], index: int):
        """The counter values raised by the atoms of ``index``, an
        assignment to ``slots`` (a 1-type, a 2-table or an out-edge mask),
        and the product of its atoms' integer weights."""
        counts, weight = [0] * len(self._bounds), 1
        for s, (pred, _) in enumerate(slots):
            bit = slot_bit(index, s, len(slots))
            if pred in self.fold:
                weight *= self.fold[pred][1 - bit]
            for d in self._raises.get((pred, bit), ()):
                counts[d] += 1
        return counts, weight

    def _factors(self) -> tuple[dict, list[tuple], list[int], int, int]:
        """The polynomial of each distinct option tuple, the columns (per
        class b, the options of every class a toward it, each distinct
        column once) and each class's column.  On a directed matrix, with or
        without a tie counter, an option is O_ab, asked once per ordered
        class pair, whose factor g is read per element, and the pair factor
        f is 1; otherwise it is the 2-tables of a and b read with a on the x
        side, whose factor is f, and g is 1.  Also a bound G >= 1 on the g's
        norms and the census digit width, for F >= 1 bounding the f's."""
        cells, types = self.cells, self.types
        option, slots = ((cells.sends, [(p, "xy") for p in cells.signature.binary_predicates()])
                         if self._directed else (cells.tables, cells.b_slots))
        columns: dict[tuple, int] = {}
        column = [columns.setdefault(tuple([option(t, u) for t in types]), len(columns))
                  for u in types]
        polys = {vs: [self._term(slots, v) for v in vs] for vs in set().union(*columns)}
        norm, n = max(1, max(map(_norm, polys.values()), default=0)), self.n
        f, g = (1, norm) if self._directed else (norm, 1)
        bits = _digit_bits((sum(map(_norm, self._weights)), n), (f, n * (n - 1) // 2),
                           (g, n * (n - 1)))
        return polys, list(columns), column, g, bits

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
        return {at: Fraction(value, scale) if value % scale else value // scale
                for at, value in sums.items()}

    def _groups(self, keys: Sequence[tuple], bits: int) -> tuple[int, list]:
        """The first packed counter and the census groups (unary key or (),
        classes), each at its first class, so those raising a tracked unary
        card come first: the classes of each of the ``keys``, split by
        tracked unary key, on per-element rows only where that beats packing
        the unary cards by an estimate of, per census and group, 1,000
        products of 30-bit digits plus one of the layout's (calibrated there:
        with pair factors packing can leave a read decoding every row)."""
        def groups(split: bool) -> list:
            out: dict[tuple, list[int]] = {}
            for b, key in enumerate(keys):
                out.setdefault((self._unary_keys[b] if split else (), key), []).append(b)
            return [(ukey, members) for (ukey, _), members in out.items()]

        def cost(option: tuple[int, list]) -> float:
            (first, groups), end, n = option, len(self.key_names), self.n
            words = bits / 30 * math.prod(_counter_digits(*b) for b in self._bounds[first:end])
            return math.comb(n + len(groups) - 1, n) * len(groups) * (1000 + words ** 1.585)
        if not self.n_unary:
            return 0, groups(False)
        split = self.n_unary, groups(True)
        return min((0, groups(False)), split, key=cost) if self._directed else split

    def _readings(self, polys: dict, columns: Sequence[tuple], g: int, layout: _Layout) -> tuple:
        """The layout rows are read into, and per class how its element's
        row is computed: (the product and power of the layout it is computed
        in, its out-edge factors toward the ``columns`` other than 1, by
        column, each distinct option of ``polys`` packed once per layout and
        set of counters at 1, and its class weight, packed there, and None or
        that layout and the guard degrees of its ``_reads`` box).  A class
        reading no guard degree uses the read layout, the census counters
        alone; any other the one layout that adds every guard degree, each it
        does not read packed at 1 (whole)."""
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
        packed: dict[tuple, dict] = {}  # counters at 1 (they fix the layout) -> packed options
        rows = []
        for pos, reads in enumerate(self._reads):
            space = element if any(reads) else base
            ones = tuple(d for d, box in enumerate(reads, end) if not box)
            if columns and ones not in packed:
                packed[ones] = {vs: space.pack(poly, ones) for vs, poly in polys.items()}
            factors = [(j, f) for j, options in enumerate(columns)
                       if (f := packed[ones][options[pos]]) != 1]
            keys = list(product(*(range(box[0], min(box[1], n) + 1) if box else (0,)
                                  for box in reads)))
            rows.append((space.mul, space.pow, factors, space.pack(self._weights[pos], ones),
                         (space, keys) if space is not base else None))
        return base, rows

    def _census(self) -> tuple[dict, _Layout]:
        """The census, unread: census key (the tracked unary cards it fixes)
        -> value packed in the layout of the other tracked cards (read at the
        tie counter's target), and that layout.  A census of the group counts
        k is its multinomial times prod_a f_aa^C(k_a, 2) prod_{a<b} f_ab^(k_a k_b)
        prod_a (sum of a's rows)^k_a, each f packed once per distinct option
        tuple and the groups keyed by column or packed f row, summed over the
        counts summing to n by one depth-first walk in the groups' order on
        an explicit stack of frames.  A frame holds a group, the elements
        left, the unary cards' partial sums, the product of the groups placed
        and its counts cut to those that can still land every card in its box
        of card ranges, so no census outside the box is entered.  k > 0
        elements of group i multiply the product by their multinomial,
        f_ii^C(k, 2), f_ji^(k_j k) for each group j placed and, where no row
        of i reads a column count, its row sum's k-th power, each power
        computed once; a product that is 0 (every digit past a cap) stays 0
        for every larger k, so the frame ends.  The last group takes what is
        left: its key is checked against the constraint's comparisons and the
        other row sums' powers, kept while the column counts stay the same,
        multiplied in."""
        n, end = self.n, len(self.key_names)
        polys, columns, column, g, bits = self._factors()
        top = end + self._ties  # the census counters: the tracked cards and any tie counter
        layout = _Layout(range(self.n_unary, top), self._bounds[self.n_unary:top], bits)
        packed = {} if self._directed else {vs: layout.pack(p) for vs, p in polys.items()}
        packs = [tuple([packed[vs] for vs in columns[j]]) for j in column] if packed else []
        first, groups = self._groups(packs or column, bits)  # packed f rows, or columns
        if first != self.n_unary:  # per-element rows with the unary cards packed
            layout = _Layout(range(first, top), self._bounds[first:top], bits)
        base, rows = self._readings(polys, columns if self._directed else [], g, layout)
        convert = self._guards and layout.counters  # rows come in the element layout
        mul, pow, comb = layout.mul, layout.pow, math.comb

        def row_sum(part: list, per_column: list[int] | None, own: int) -> int:
            total = 0
            for smul, spow, factors, row, reads in part:
                for j, f in factors:
                    e = per_column[j] - (j == own)
                    if e:
                        row = smul(row, spow(f, e))
                if reads:  # the guard degrees it reads
                    space, box = reads
                    row = sum(space.at(row, key) for key in box)
                total += layout.pack(base.decode(row)) if convert else row
            return total

        firsts = [members[0] for _, members in groups]
        column_of = [column[b] for b in firsts]
        parts = [[rows[b] for b in members] for _, members in groups]
        unary = [ukey for ukey, _ in groups]  # what an element of each group adds to the cards
        # each group's row sum where none of its rows reads a column count
        fixed = [None if any(row[2] for row in part) else row_sum(part, None, 0) for part in parts]
        varying = [i for i, row in enumerate(fixed) if row is None]
        last, powers, packed = len(groups) - 1, {}, {}
        seen, row_powers = None, {}  # the column counts, and the powers of row sums kept for them

        def place(i: int, k: int, value: int, placed: tuple) -> int:  # k > 0 of group i
            for j, c in ((i, k), *placed):
                power = powers.get((j, i, c * k))
                if power is None:  # f_ji^(c k), or for j = i (c = k) row^k f_ii^C(k, 2)
                    f = packs[firsts[i]][firsts[j]] if packs else 1  # 1 with no pair factor
                    power = 1 if f == 1 else pow(f, c * k if j != i else k * (k - 1) // 2)
                    power = powers[j, i, c * k] = mul(pow(fixed[i], k), power) if j == i else power
                if power != 1:
                    value = mul(value, power)
            return value

        walk = groups and self._box is not None and (unary[0] or self._ranges_at(()) is not None)
        box = self._box[:len(unary[0])] if walk else []
        cut = box if self._forms else ()  # with no comparison every census is in the box
        # per group and card, the least and the most a later group adds per element
        later = [[(min(card), max(card)) for card in zip(*unary[i + 1:])] if cut else ()
                 for i in range(last)]

        def counts_of(i: int, left: int, sums: tuple[int, ...]) -> Iterator[int]:
            lo, hi = 0, left
            for (low, high), a, (least, most), s in zip(cut, unary[i], later[i], sums):
                # the card ends at s + k a + r, the later groups adding r within
                # [(left - k) least, (left - k) most]: k c <= r for each (c, r)
                for c, r in ((a - least, high - s - left * least),
                             (most - a, s + left * most - low)):
                    if c > 0:
                        hi = min(hi, r // c)
                    elif c < 0:
                        lo = max(lo, -(r // -c))
                    elif r < 0:
                        return iter(())
            return iter(range(lo, hi + 1))

        # a single group places none of its elements before the last step takes them all
        sums = (0,) * len(box)
        frames = [(0, n, sums, 1, (), counts_of(0, n, sums) if last else iter((0,)))] if walk else []
        counts = [0] * len(groups)
        while frames:
            i, left, sums, value, placed, ks = frames[-1]
            for k in ks:
                counts[i], down, rest, placed_k = k, value, left - k, placed
                if k:
                    down = value * comb(left, k)
                    if fixed[i] is not None:  # else the last step multiplies the row sum in
                        down = place(i, k, down, placed)
                        if not down:  # so is every larger count's
                            frames.pop()
                            break
                    if packs:
                        placed_k = placed + ((i, k),)
                key = tuple([s + k * a for s, a in zip(sums, unary[i])]) if box else sums
                if i + 1 < last:
                    if rest:
                        frames.append((i + 1, rest, key, down, placed_k, counts_of(i + 1, rest, key)))
                        break
                    counts[i + 1:] = [0] * (last - i)  # none left: the later groups take 0
                # the last group takes what is left
                if box:
                    key = tuple([s + rest * a for s, a in zip(key, unary[last])])
                    if self._forms and self._ranges_at(key) is None:
                        continue
                counts[last] = rest
                if rest and fixed[last] is not None:
                    down = place(last, rest, down, placed_k)
                if varying and down:
                    per_column = [0] * len(columns)
                    for j, c in zip(column_of, counts):
                        per_column[j] += c
                    if per_column != seen:
                        seen, row_powers = per_column, {}
                    for v in varying:
                        c = counts[v]
                        if c:
                            power = row_powers.get((v, c))
                            if power is None:
                                power = row_powers[v, c] = pow(
                                    row_sum(parts[v], per_column, column_of[v]), c)
                            down = mul(down, power)
                if down:
                    packed[key] = packed.get(key, 0) + down
            else:
                frames.pop()
        if self._ties:  # each key's value at the tie counter's target
            packed = {key: layout.at(v, [self._bounds[end][0]]) for key, v in packed.items()}
            layout = _Layout(range(first, end), self._bounds[first:end], bits)
        return packed, layout

    def read(self, weight=None, by: Sequence[str] = ()) -> dict:
        """The weighted sums of the rows the constraint allows, grouped by
        the values of the ``by`` cards: weight(row) times the row's value
        summed over the rows of each group, ``weight`` a function of the
        tracked cards in the order of ``key_names``."""
        return self._read(*self._census(), weight, by)


# ---------------------------------------------------------------------------
# solver front end


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
    """Builds the normalized problem and its cell tables once and answers
    every query through ``read``, in the successor encoding, signed by the
    first cells, for blocks on a matrix that is not directed.  Only the
    cells are shared across domain sizes: each read builds its own evaluator."""

    def __init__(self, problem: Problem | NormalizedProblem):
        norm = problem if isinstance(problem, NormalizedProblem) else normalize(problem)
        self.norm, self.cells = norm, build_cells(norm.signature, norm.matrix)
        if norm.blocks and not norm.successors and not self.cells.directed:
            # the first tables go before the encoding's are built
            self.norm, self.cells = successor_encoding(norm, self.cells), None
            self.cells = build_cells(self.norm.signature, self.norm.matrix)

    def successor_encoding(self) -> NormalizedProblem:
        """The problem in the source paper's successor encoding, with a
        sign predicate on each block the matrix does not pin."""
        return successor_encoding(self.norm, self.cells)

    def profile_table(self, n: int, tracked: Sequence[str] = (), fold: Weights | None = None,
                      constraint: CardConstraint = CARD_TRUE) -> tuple[tuple[str, ...], dict]:
        """(key names, ``read`` grouped by every tracked card, unary first).
        Nothing in the package calls it; the benchmark harness wraps it."""
        names = tuple(sorted(dict.fromkeys(tracked), key=self.norm.signature.arity))
        return names, self.read(n, names, None, fold, constraint)

    def read(self, n: int, by: Sequence[str] = (), weight: WeightExpr | None = None,
             fold: Weights | None = None, constraint: CardConstraint | None = None) -> dict:
        """The grouped read, the one way into the census sum: the mass of
        each vector of the ``by`` cards that the constraint (the problem's by
        default) allows, the symmetric weights ``fold`` entering the factors
        and the profile ``weight`` each row.  With no group and no weight, a
        comparison that bounds a binary card from below, which nothing else
        tracks, is read from its narrower side: the sum without the
        comparison minus the sum under its negation, which caps the card at
        the largest lower bound less one, wherever the products of the
        digits this saves outweigh one more evaluation."""
        if constraint is None:
            constraint = self.norm.constraint
        parts, whole = _conjuncts(constraint)
        signature = self.norm.signature
        names = constraint_predicates(constraint)
        if not by and weight is None and whole and all(p in signature for p in names):
            forms = [_linear(part) for part in parts]
            whole_ranges = {p: (0, n ** signature.arity(p)) for p in names}
            for i, (part, (coeffs, _, equation)) in enumerate(zip(parts, forms)):
                rest = parts[:i] + parts[i + 1:]
                others = set().union(*(f[0] for f in forms[:i] + forms[i + 1:]))
                for card, a in coeffs.items():
                    if a > 0 or equation or card in others or signature.arity(card) != 2:
                        continue
                    negation = CardCompare(_NEGATED[part.op], part.left, part.right)
                    ranges = card_ranges(forms[:i] + forms[i + 1:] + [_linear(negation)],
                                         whole_ranges)
                    if ranges is None:  # the rest implies the comparison
                        return self.read(n, fold=fold, constraint=card_conjoin(rest))
                    top = n * n
                    saved = (_counter_digits(top, top) ** 1.585
                             - _counter_digits(ranges[card][1], top) ** 1.585)
                    if saved > _EVALUATION_DIGITS:
                        total = (self.read(n, fold=fold, constraint=card_conjoin(rest)).get((), 0)
                                 - self.read(n, fold=fold, constraint=card_conjoin(rest + [negation]))
                                 .get((), 0))
                        return {(): total} if total else {}
        tracked = (*by, *sorted(weight_predicates(weight) if weight is not None else ()),
                   *sorted(names))
        ev = ProfileEvaluator(self.norm, self.cells, n, tracked, fold, constraint)
        return ev.read(None if weight is None else weight_function(weight, ev.key_names.index), by)

    def count(self, n: int, constraint: CardConstraint | None = None) -> int:
        """Exact model count on domain size n, honoring the problem's
        cardinality constraint (or an explicit override)."""
        return _as_count(self.read(n, constraint=constraint).get((), 0))
