"""Closed-form model counting over the cell tables.

A count sums, over the censuses of the domain elements among the classes
of valid 1-types (see ``cells``), a multinomial times the class weights
and one factor per pair of elements.  On a directed matrix an element of
class i contributes w_i prod_j g_ij^(k_j - [i = j]), g_ij being the
polynomial of the out-edges i may send to j (van Bremen and Kuzelka's
cell-graph pair factors, split by direction), and a counting block
``A(x) <-> exists{=m} y G(x,y)`` reads each element's row at its guard
degree m.  Classes whose columns g_.j agree form one column group, and by
the multinomial theorem the census runs over the group counts c, each
worth n!/prod_G c_G! prod_G (sum_{i in G} F_i)^c_G: one group is the n-th
power of a per-element polynomial.  Any other matrix, and the
``successor_encoding`` with its tie counter and 1/m! divisors,
enumerates the censuses of the classes over 2-table pair factors.
``Solver`` is the one entry point.

Counters, one per tracked predicate (unary ones first) and one per block,
are raised by the true atoms of each 1-type, 2-table and out-edge mask,
so every factor is a generating function in them (Kuzelka, JAIR 2021),
evaluated as one Python integer (Kronecker substitution, ``_Layout``).
Tracked unary cards are census keys on pair tables; in the group census
they split the groups, or stay digits, by a cost estimate.  Weights are
scaled to integers, and the scale is divided out once.

A constraint's top-level comparisons give every card a range
(``card_ranges``): its upper bounds cap the digits kept, dropped after
every product like those past a tie counter's target, and a census key
they rule out is skipped.  A table then has two reads.  Its grouped read
decodes each census key's digits inside the key's box of card ranges once,
keeps the rows the constraint allows, and adds each row times its profile
weight into one integer per value of some of the cards, divided by the
scale once per group (``table``, ``breakdown``, distributions, profile
weights).  Its sum (``count``, ``weighted_total`` without a profile weight)
adds, per census key, the digits inside the key's box of card ranges under
a strided mask, without decoding them, wherever each comparison leaves one
packed card once the key is fixed; a lower bound on a binary card may be
read as the sum without it minus the sum under its negation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
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


def _digit_bits(bound: int) -> int:
    """Digit width for coefficients of magnitude at most ``bound``: its
    bit length plus a sign bit, in whole bytes.  The bounds passed in
    hold because |p q| <= |p| |q|, truncating or extracting digits never
    raises |p|, and a nonzero integer polynomial has |p| >= 1: a census
    term is its multinomial times n class weights w_c times one factor
    per pair of elements (a 2-table polynomial, or two out-edge ones), so
    every partial product of a term, and every sum of terms, is at most
    (sum_c |w_c|)^n * G^pairs by the multinomial theorem, for G >= 1
    bounding every factor, and one element's row at most
    max_c |w_c| * G^(n-1)."""
    return (bound.bit_length() + 8) // 8 * 8


def _integral(polys: Mapping[object, list]) -> tuple[dict, int]:
    """Scale lists of (counts, rational weight) to integer weights by
    their common denominator; returns the scaled lists and the scale."""
    den = math.lcm(*(getattr(w, "denominator", 0) or Fraction(w).denominator
                     for poly in polys.values() for _, w in poly))
    return {k: [(c, int(w * den)) for c, w in poly] for k, poly in polys.items()}, den


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
        return self.mul(self.mul(half, half), a if e & 1 else 1)

    def pack(self, poly) -> int:
        """Pack (counts, coefficient) pairs, counts indexed like the
        evaluator's counters, dropping the terms above the caps."""
        total = 0
        for counts, coef in poly:
            key = [counts[d] for d in self.counters]
            if all(map(int.__le__, key, self.caps)):
                total += coef << self.bits * sum(map(int.__mul__, key, self.strides))
        return total

    def digits(self, x: int, box: Sequence[tuple[int, int]]
               ) -> Iterator[tuple[tuple[int, ...], int]]:
        """The nonzero coefficients of x whose counters lie in their ranges
        [lo, hi] of ``box`` (each within its cap), with those counters'
        values: x's bytes are laid out once and each digit read from them."""
        width, half = self.bits // 8, 1 << self.bits - 1
        raw = (x + self.offset).to_bytes(width * self.size, "little")
        for key in product(*(range(lo, hi + 1) for lo, hi in box)):
            at = width * sum(map(int.__mul__, key, self.strides))
            coef = int.from_bytes(raw[at:at + width], "little") - half
            if coef:
                yield key, coef

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

    def sum(self, x: int, box: Sequence[tuple[int, int]]) -> int:
        """The sum of x's coefficients whose counters lie in their ranges
        [lo, hi] of ``box`` (each within its cap): x's digits under a mask
        strided like the counters, read at X = 1 modulo 2^bits - 1 and
        centred.  Exact because the digit width bounds the sum of the
        absolute values of all coefficients below 2^(bits-1)."""
        if any(lo > hi for lo, hi in box):
            return 0
        mask = modulus = (1 << self.bits) - 1
        for (lo, hi), s in zip(box, self.strides):
            mask = _repeat(mask, self.bits * s, hi - lo + 1) << self.bits * s * lo
        value = (((x + self.offset) & mask) - (self.offset & mask)) % modulus
        return value - modulus if 2 * value > modulus else value


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
    """True when the matrix forces every guard edge to start in A, which
    pins A to the set of elements with exactly m guard successors."""
    a_slot = cells.u_slot_index(block.a_pred, "unary")
    g_refl = cells.u_slot_index(block.guard, "reflexive")
    g_xy = cells.b_slot_index(block.guard, "xy")
    g_yx = cells.b_slot_index(block.guard, "yx")
    outside = {i for i in cells.valid if not cells.type_bit(i, a_slot)}
    return not any(cells.type_bit(i, g_refl) for i in outside) and not any(
        i in outside and cells.table_bit(v, g_xy)
        or j in outside and cells.table_bit(v, g_yx)
        for (i, j), vs in cells.pair_vs.items() for v in vs)


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
    The table has two reads, both ranged by ``card_ranges`` over the
    constraint's comparisons: its weighted sums grouped by some of the cards
    (``read``; ``table`` groups by all of them), and its sum (``total``)."""

    def __init__(self, norm: NormalizedProblem, cells: CellStructure, n: int,
                 tracked: Sequence[str] = (), fold: Weights | None = None,
                 constraint: CardConstraint = CARD_TRUE):
        if n < 1:
            raise SemanticError("domain size must be at least 1")
        self.norm, self.cells, self.n, self.fold = norm, cells, n, fold or {}
        tracked = tuple(dict.fromkeys(tracked))
        for pred in tracked:
            if pred not in norm.signature:
                raise SemanticError(f"cannot track undeclared predicate {pred}")
        arity = norm.signature.arity

        # The counters each true atom of a predicate raises: tracked
        # predicates (unary ones first), then one per block, its guard
        # degree, or in the successor encoding the tie counter sum_j |f_j| +
        # m * |not A|, which is m * n exactly on the tied profiles: the sign
        # predicates cancel every profile where an A-element lacks an f_j
        # successor, so |f_j| >= |A| and the sum pins each |f_j|.
        self.key_names = tuple(sorted(tracked, key=arity))
        self.n_unary = sum(arity(p) == 1 for p in tracked)
        self._ties = norm.successors
        # the census over column groups runs on a directed matrix without tie
        # counters (one group is the n-th power of one per-element
        # polynomial); the census over pair tables otherwise
        self._directed = cells.directed and not self._ties
        n_keys = len(self.key_names)
        self._width = n_keys + len(norm.blocks)
        self._raises: dict[str, list[int]] = {}
        for d, preds in enumerate([(p,) for p in self.key_names]
                                  + [b.f_preds or (b.guard,) for b in norm.blocks]):
            for pred in preds:
                self._raises.setdefault(pred, []).append(d)
        # (cap, top) per counter: a card reaches n or n * n but only the
        # values the constraint's comparisons allow are kept, a guard degree
        # n but only digit m is read; a tie counter only climbs, so nothing
        # past its target matters
        self.constraint = constraint
        parts, self._whole = _conjuncts(constraint)
        self._forms = [_linear(part) for part in parts]
        self._at: dict[tuple[int, ...], dict | None] = {}  # census key -> card ranges
        tops = {p: n ** arity(p) for p in self.key_names}
        ranges = card_ranges(self._forms, {p: (0, top) for p, top in tops.items()})
        caps = {p: hi for p, (_, hi) in ranges.items()} if ranges else dict.fromkeys(tops, 0)
        self._bounds = [(caps[p], tops[p]) for p in self.key_names]
        self._bounds += [(b.m * n, b.m * n * (n + 1)) if self._ties else (b.m, n)
                         for b in norm.blocks]

        # ``build_cells`` groups interchangeable types, split here by tracked
        # unary key and block membership into classes.  A class carries the
        # sum of its members' weights (signs included) times their counters,
        # exact by the multinomial theorem; an A-element of a tie-counted
        # block weighs 1/m!.  Classes whose sum is zero drop out.
        sign_slots = [cells.u_slot_index(p, "unary") for p in norm.sign_preds]
        a_slots = [cells.u_slot_index(b.a_pred, "unary") for b in norm.blocks]
        merged: dict[tuple, tuple[int, dict]] = {}
        for c, members in enumerate(cells.classes):
            for t in members:
                counts, w = self._term(cells.u_slots, t)
                in_a = tuple(bool(cells.type_bit(t, s)) for s in a_slots)
                w *= (-1) ** sum(cells.type_bit(t, s) for s in sign_slots)
                for d, (block, hit) in enumerate(zip(norm.blocks, in_a), n_keys):
                    if self._ties:
                        w = Fraction(w, block.divisor_base) if hit else w
                        counts[d] += 0 if hit else block.m
                _, weights = merged.setdefault(
                    (c, tuple(counts[:self.n_unary]), in_a), (t, {}))
                weights[tuple(counts)] = weights.get(tuple(counts), 0) + w
        # in ascending representative order, as pair_vs keys have i <= j
        live = sorted((t, key[1], key[2], [(k, w) for k, w in ws.items() if w])
                      for key, (t, ws) in merged.items() if any(ws.values()))
        self.types = [t for t, _, _, _ in live]
        self._unary_keys = [ukey for _, ukey, _, _ in live]
        self._in_a = [in_a for _, _, in_a, _ in live]
        weights, self._type_scale = _integral(dict(enumerate(w for *_, w in live)))
        self._weights = list(weights.values())

    def _term(self, slots: Sequence[tuple[str, str]], index: int):
        """The counter values raised by the true atoms of ``index``, an
        assignment to ``slots`` (a 1-type, a 2-table or an out-edge mask),
        and the product of its atoms' symmetric weights."""
        counts, weight = [0] * self._width, 1
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
        per element, else the 2-tables across pa <= pb), their scale in a
        census term, a bound G >= 1 on their norms, the census digit width."""
        n, cells = self.n, self.cells
        slots, options = cells.b_slots, cells.pair_vs
        if per_element:
            slots = [(p, "xy") for p in cells.signature.binary_predicates()]
            options = cells.out_options
        polys, den = _integral({(pa, pb): [
            self._term(slots, v) for v in options[self.types[pa], self.types[pb]]]
            for pa, pb in pairs})
        g = max(1, max(map(_norm, polys.values()), default=0))
        n_pairs = n * (n - 1) // (1 if per_element else 2)
        return polys, den ** n_pairs, g, _digit_bits(
            sum(map(_norm, self._weights)) ** n * g ** n_pairs)

    def _integral(self) -> bool:
        """Whether every symmetric weight is an integer, so that every row
        and every sum of them divides by its scale."""
        return all(Fraction(w).denominator == 1 for pair in self.fold.values() for w in pair)

    def _divide(self, value: int, scale: int, what: str):
        """value / scale; with integer symmetric weights it must divide."""
        if value % scale and self._integral():
            raise InternalConsistencyError(
                f"counting-quantifier division left a non-integer {what}")
        return _quotient(value, scale)

    def _ranges_at(self, key: tuple[int, ...]) -> dict | None:
        """The card ranges the constraint's comparisons allow in a census
        whose unary key is ``key`` (its cards fixed, every other card within
        [0, cap]), or None when they allow none."""
        if key not in self._at:
            start = {p: (0, cap) for p, (cap, _) in zip(self.key_names, self._bounds)}
            start.update((p, (v, v)) for p, v in zip(self.key_names, key))
            self._at[key] = card_ranges(self._forms, start)
        return self._at[key]

    def _packed_cards(self, layout: _Layout) -> tuple[list[str], bool]:
        """The tracked cards packed in ``layout``, and whether each census
        key's box of card ranges holds exactly the rows the constraint
        allows: every comparison bounds at most one packed card once the
        key is fixed."""
        cards = [self.key_names[d] for d in layout.counters if d < len(self.key_names)]
        return cards, self._whole and all(len(coeffs.keys() & set(cards)) < 2
                                          for coeffs, _, _ in self._forms)

    def _read(self, packed: dict, layout: _Layout, scale: int, weight, by: Sequence[str]) -> dict:
        """The grouped read of a census (census key -> value packed in
        ``layout``, to divide by ``scale``): each key's digits inside its box
        of card ranges, with every tie counter at its target, are decoded
        once; a row the constraint allows adds its digit times ``weight(row)``
        (1 without a weight; the row lists the tracked cards in the order of
        ``key_names``) to the integer of its values of the ``by`` cards, and
        each group is divided by the scale once.  With integer symmetric
        weights every row must divide on its own."""
        names = self.key_names
        cards, exact = self._packed_cards(layout)
        ties = [(b.m * self.n,) * 2 for b in self.norm.blocks if self._ties]
        scale *= self._type_scale ** self.n
        check = scale != 1 and self._integral()
        group = [names.index(p) for p in by]
        whole = group == list(range(len(names)))
        sums: dict[tuple[int, ...], object] = {}
        for key, value in packed.items():
            ranges = self._ranges_at(key)
            for digits, coef in layout.digits(value, [ranges[p] for p in cards] + ties):
                row = key + digits[:len(cards)]
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

    def _enumerate_table(self) -> tuple[dict, _Layout, int]:
        """The census over pair tables, unread: census key (the tracked unary
        cards) -> value packed in the layout, the layout, and the scale."""
        n, n_unary = self.n, self.n_unary
        classes = range(len(self.types))
        polys, scale, _, bits = self._factors(
            False, [(a, b) for a in classes for b in classes if a <= b])
        layout = _Layout(range(n_unary, self._width), self._bounds[n_unary:], bits)
        factors = {k: layout.pack(p) for k, p in polys.items()}
        weights = [layout.pack(w) for w in self._weights]
        factorial = [math.factorial(k) for k in range(n + 1)]
        packed: dict[tuple[int, ...], int] = {}
        for combo in combinations_with_replacement(classes, n):
            occupied = [(pos, len(tuple(group))) for pos, group in groupby(combo)]
            key = tuple(sum(c * self._unary_keys[pos][d] for pos, c in occupied)
                        for d in range(n_unary))
            if self._ranges_at(key) is None:
                continue
            value = factorial[n]
            for _, count in occupied:
                value //= factorial[count]
            for ia, (pa, ca) in enumerate(occupied):
                value = layout.mul(value, layout.pow(weights[pa], ca))
                for pb, cb in occupied[ia:]:  # the pairs of elements across pa, pb
                    e = ca * (ca - 1) // 2 if pa == pb else ca * cb
                    value = layout.mul(value, layout.pow(factors[pa, pb], e))
            if value:
                packed[key] = packed.get(key, 0) + value
        return packed, layout, scale

    def _groups(self, columns: list[list[int]], bits: int) -> tuple[int, list]:
        """The first packed counter and the census groups (unary key or (),
        column, classes): each column's classes, split by tracked unary key
        where that beats packing the unary cards by an estimate of, per census
        and group, 1,000 products of 30-bit digits plus one of the layout's."""
        def split() -> tuple[int, list]:
            groups: dict[tuple, list[int]] = {}
            for k, members in enumerate(columns):
                for b in members:
                    groups.setdefault((self._unary_keys[b], k), []).append(b)
            return self.n_unary, [(*key, members) for key, members in groups.items()]

        def cost(option: tuple[int, list]) -> float:
            (first, groups), end, n = option, len(self.key_names), self.n
            words = bits / 30 * math.prod(_counter_digits(*b) for b in self._bounds[first:end])
            return math.comb(n + len(groups) - 1, n) * len(groups) * (1000 + words ** 1.585)
        packed = 0, [((), k, members) for k, members in enumerate(columns)]
        return min(packed, split(), key=cost) if self.n_unary else packed

    def _readings(self, polys: dict, g: int, layout: _Layout, first: int, cols) -> list:
        """Per class, the layout its rows decode from and the ways a row is
        read: (sign, layout it is computed in, its factors toward the columns
        ``cols`` and class weight packed there, guard degrees read at digit
        m).  Without blocks: the census layout, as is; else, per flags of the
        kept guard degrees, digit m of each, signed -1 per block the element
        is outside (its row at guard degree 1 minus that digit)."""
        n, end, blocks = self.n, len(self.key_names), self.norm.blocks
        spaces = {(): layout}
        if blocks:
            # an element raises a unary card at most once, anything else n times
            tops = [(1, 1) if d < self.n_unary else (min(top, n),) * 2
                    for d, (_, top) in enumerate(self._bounds[first:end], first)]
            bits = _digit_bits(max(map(_norm, self._weights), default=0) * g ** (n - 1))
            spaces = {kept: _Layout(
                [*range(first, end)] + [d for d, k in enumerate(kept, end) if k],
                tops + [self._bounds[d] for d, k in enumerate(kept, end) if k], bits)
                for kept in product((False, True), repeat=len(blocks))}
        return [(spaces[(False,) * len(blocks)], [
            ((-1) ** (sum(kept) - sum(in_a)), spaces[kept],
             [spaces[kept].pack(polys[pos, r]) for r in cols],
             spaces[kept].pack(self._weights[pos]), [b.m for b, k in zip(blocks, kept) if k])
            for kept in product(*[(True,) if hit else (False, True) for hit in in_a])])
            for pos, in_a in enumerate(self._in_a)]

    @staticmethod
    def _element(readings, exponents: Sequence[int], layout: _Layout) -> int:
        """One element's row in the census ``layout``, read as ``readings``
        says: its class weight times its factors to the ``exponents``."""
        (base, ways), value = readings, 0
        for sign, space, factors, row, top in ways:
            for f, e in zip(factors, exponents):
                if e:
                    row = space.mul(row, space.pow(f, e))
            if space is layout:
                return row
            value += sign * space.at(row, top)
        return layout.pack(base.decode(value)) if layout.counters else value

    def _group_table(self) -> tuple[dict, _Layout, int]:
        """The census over column groups, unread like ``_enumerate_table``:
        classes whose out-edge columns agree form one column, and a census
        of the groups is its multinomial times prod_G (sum of G's rows)^c_G."""
        n, classes, out, columns = self.n, range(len(self.types)), self.cells.out_options, {}
        for b, u in enumerate(self.types):
            columns.setdefault(tuple([out[t, u] for t in self.types]), []).append(b)
        cols = [members[0] for members in columns.values()]
        polys, scale, g, bits = self._factors(True, [(a, r) for a in classes for r in cols])
        first, groups = self._groups(list(columns.values()), bits)
        end = len(self.key_names)
        layout = _Layout(range(first, end), self._bounds[first:end], bits)
        readings = self._readings(polys, g, layout, first, cols)
        last, packed = None, {}
        unary = list(zip(*(ukey for ukey, _, _ in groups)))  # per card, each group's value
        one_per_column = [k for _, k, _ in groups] == list(range(len(cols)))
        for counts in compositions(n, len(groups)):
            key = tuple(sum(c * u for u, c in zip(card, counts)) for card in unary)
            if self._ranges_at(key) is None:
                continue
            per_column = counts if one_per_column else tuple(
                sum(c for (_, k, _), c in zip(groups, counts) if k == j) for j in range(len(cols)))
            if per_column != last:  # rows, and so powers of their sums, depend on these only
                last, powers, sums = per_column, {}, []
                for _, k, members in groups:
                    total = 0
                    if per_column[k]:
                        exponents = [cb - (kb == k) for kb, cb in enumerate(per_column)]
                        for b in members:
                            total += self._element(readings[b], exponents, layout)
                    sums.append(total)
            value, left = 1, n
            for i, c in enumerate(counts):
                if c:
                    power = powers.get((i, c)) or powers.setdefault((i, c), layout.pow(sums[i], c))
                    value, left = layout.mul(value * math.comb(left, c), power), left - c
            if value:
                packed[key] = packed.get(key, 0) + value
        return packed, layout, scale

    def _census(self) -> tuple[dict, _Layout, int]:
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
        """The sum of ``table()``.  When every comparison of the constraint
        bounds at most one packed card once the census key is fixed, each
        census key's value is summed over its box of card ranges (and the
        tie counters' targets) without decoding a digit; else the rows are."""
        packed, layout, scale = self._census()
        cards, exact = self._packed_cards(layout)
        if not exact:
            return self._read(packed, layout, scale, None, ()).get((), 0)
        ties = tuple((b.m * self.n,) * 2 for b in self.norm.blocks if self._ties)
        boxes: dict[tuple, int] = {}
        for key, value in packed.items():
            ranges = self._ranges_at(key)
            box = tuple(ranges[p] for p in cards) + ties
            boxes[box] = boxes.get(box, 0) + value
        total = sum(layout.sum(value, box) for box, value in boxes.items())
        return self._divide(total, scale * self._type_scale ** self.n, "total")


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
