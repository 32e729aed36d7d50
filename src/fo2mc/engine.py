"""Closed-form model counting over the cell tables.

Two evaluation strategies compute the same profile sums:

* k-vector enumeration: iterate the censuses of domain elements over the
  valid 1-types; each census contributes its multinomial coefficient,
  the inclusion-exclusion sign and a product of per-pair factors (plain
  powers of n_ij, or sparse counter polynomials).

* collapsed power: when every cross condition of the matrix depends only
  on the source 1-type and the outgoing edge bits, the sum over censuses
  factorizes into the n-th power of a single per-element polynomial.

Both paths share one counter layout, a map from each predicate to the
counters its true atoms raise: one per tracked predicate (unary ones
first), then one per counting block.  A 1-type, a 2-table and an
out-edge mask are each keyed by the sum over their true atoms, so the
counter polynomials are generating functions in the sense of Kuzelka,
"Weighted First-Order Model Counting in the Two-Variable Fragment With
Counting Quantifiers" (JAIR 2021).  Counters are clamped where their
value stops mattering.

On a directed matrix (see ``cells``) each element picks its out-edges
independently of the others, given the census, so a block
``A(x) <-> exists{=m} y G(x,y)`` constrains each element alone.  Its
counter is the element's guard degree z.  An element of class i
contributes its type key times prod_j g_ij^(k_j - [i = j]), g_ij being
the polynomial of the out-edges i may send to j (van Bremen and
Kuzelka's cell-graph pair factors, split by direction); an A-element
keeps the rows with z = m, any other element the rest, and z is dropped
before the census product.  The collapsed power is the case where g_ij
does not depend on j.  On any other matrix ``Solver`` falls back to the
successor encoding (see ``normalize``), which always enumerates: the
block counter is the tie counter sum_j |f_j| - m|A|, which a census
starts at the sum of its type keys and its pairs raise back to zero,
and each block's 1/m! divisor is folded in per element.

Both paths read the valid types merged into classes: ``build_cells``
groups the types that allow the same 2-tables against every partner,
and the evaluator splits each group by type key and block membership,
keeps one representative per class and gives it the sum of its members'
weights (signs, folded weights and block divisors included), dropping
classes whose sum is zero.  Every census term then depends only on the
class counts, and summing a class's splits among its members is the
multinomial expansion of that summed weight, so the count is unchanged.

Enumeration runs when the matrix does not factorize, or when tracked
unary cards are the only counters and there are at most 20,000
censuses over the classes; otherwise the collapsed power does.

``Solver`` is the one entry point: it builds the cell tables once per
problem (twice for the fallback), and its ``count``, ``weighted_total``
and ``breakdown`` read the same profile rows, filtered once by the
cardinality constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from typing import Iterator, Mapping, Sequence

from .cells import CellStructure, build_cells
from .errors import InternalConsistencyError, SemanticError
from .logic import (CARD_TRUE, CardConstraint, constraint_predicates,
                    slot_bit)
from .normalize import CountingBlock, NormalizedProblem, normalize
from .parser import Problem


# ---------------------------------------------------------------------------
# sparse polynomials over counter vectors

_Poly = dict  # tuple[int, ...] -> int | Fraction


def _poly_mul(p: _Poly, q: _Poly, caps) -> _Poly:
    """p * q with every counter clamped at its cap: a counter that passes
    its cap keeps only the fact that it did."""
    out: _Poly = {}
    get = out.get
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(map(min, map(int.__add__, ka, kb), caps))
            out[key] = get(key, 0) + va * vb
    return out


def _poly_pow(base: _Poly, e: int, caps) -> _Poly:
    """base^e by repeated squaring, clamped like ``_poly_mul``."""
    result: _Poly = {(0,) * len(caps): 1}
    while e:
        if e & 1:
            result = _poly_mul(result, base, caps)
        e >>= 1
        if e:
            base = _poly_mul(base, base, caps)
    return result


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def pair_exponent(ka: int, kb: int, same: bool) -> int:
    """k(i,j): unordered element pairs across (or within) two census
    classes."""
    return ka * (ka - 1) // 2 if same else ka * kb


# ---------------------------------------------------------------------------
# weight folds (symmetric weights enter through the cell values)


@dataclass
class WeightFold:
    """Per-1-type, per-2-table and per-directed-edge multiplicative
    weights; ``None`` components mean weight 1 and keep arithmetic
    integral."""

    type_weight: Mapping[int, Fraction] | None = None
    table_weight: Mapping[int, Fraction] | None = None
    out_weight: Mapping[int, Fraction] | None = None

    def of_type(self, t: int):
        return 1 if self.type_weight is None else self.type_weight[t]

    def of_table(self, v: int):
        return 1 if self.table_weight is None else self.table_weight[v]

    def of_out(self, w: int):
        return 1 if self.out_weight is None else self.out_weight[w]


IDENTITY_FOLD = WeightFold()


def symmetric_fold(cells: CellStructure,
                   weights: Mapping[str, tuple[Fraction, Fraction]]) -> WeightFold:
    """Fold per-literal symmetric weights into the cells: each 1-type
    carries the weights of the atoms it fixes per element, each 2-table
    the weights of the two directed atoms per pair, and each directed
    edge the weights of its own atoms only (so nothing is counted twice).
    Predicates without a declared weight stay at (1, 1)."""
    def w(pred, bit):
        w1, w0 = weights.get(pred, (Fraction(1), Fraction(1)))
        return Fraction(w1) if bit else Fraction(w0)

    type_weight = {}
    for t in range(1 << cells.u):
        value = Fraction(1)
        for slot, (pred, _) in enumerate(cells.u_slots):
            value *= w(pred, slot_bit(t, slot, cells.u))
        type_weight[t] = value
    table_weight = {}
    for v in range(1 << cells.b):
        value = Fraction(1)
        for slot, (pred, _) in enumerate(cells.b_slots):
            value *= w(pred, slot_bit(v, slot, cells.b))
        table_weight[v] = value
    npred = cells.b // 2
    out_weight = {}
    binary_preds = cells.signature.binary_predicates()
    for wmask in range(1 << npred):
        value = Fraction(1)
        for k, pred in enumerate(binary_preds):
            value *= w(pred, slot_bit(wmask, k, npred))
        out_weight[wmask] = value
    return WeightFold(type_weight, table_weight, out_weight)


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
    multinomial coefficient, the inclusion-exclusion sign, any folded
    weights and the block divisors, with every counting block already
    enforced."""

    def __init__(self, norm: NormalizedProblem, cells: CellStructure, n: int,
                 tracked: Sequence[str] = (), fold: WeightFold = IDENTITY_FOLD):
        if n < 1:
            raise SemanticError("domain size must be at least 1")
        self.norm = norm
        self.cells = cells
        self.n = n
        self.fold = fold
        tracked = tuple(dict.fromkeys(tracked))
        for pred in tracked:
            if pred not in norm.signature:
                raise SemanticError(f"cannot track undeclared predicate {pred}")
        arity = norm.signature.arity

        # The counter layout: which counters each true atom of a predicate
        # raises, and by how much.  Tracked predicates come first (unary
        # ones, then binary); then one counter per block: its guard degree,
        # extracted per element, or in the successor encoding the tie
        # counter sum_j |f_j| - m * |A|, which is zero exactly on the tied
        # profiles because the block's sign predicates already cancel every
        # profile where some A-element lacks an f_j successor (so |f_j| >=
        # |A| wherever F != 0, and the sum pins each |f_j| individually).
        # ``dims`` counts the counters a census product carries.
        self.key_names = tuple(sorted(tracked, key=arity))
        self.n_unary = sum(arity(p) == 1 for p in tracked)
        self._ties = norm.successors
        self._per_element = bool(norm.blocks) and not self._ties
        self._width = len(self.key_names) + len(norm.blocks)
        self.dims = len(self.key_names) + len(norm.blocks) * self._ties
        self._raises: dict[str, list[tuple[int, int]]] = {}
        for d, pred in enumerate(self.key_names):
            self._raises.setdefault(pred, []).append((d, 1))
        for d, block in enumerate(norm.blocks, len(self.key_names)):
            for f in block.f_preds or (block.guard,):
                self._raises.setdefault(f, []).append((d, 1))
            if self._ties:
                self._raises.setdefault(block.a_pred, []).append((d, -block.m))
        self.divisor_scale = math.prod(b.divisor_base for b in norm.blocks
                                       if self._ties)
        # caps: a card never exceeds n*n and a guard degree matters up to
        # m + 1; a tie counter starts a census at -n*m or above and only
        # climbs, so a factor past n*m + 1, or a census past 1, cannot
        # bring it back to zero
        self._caps = [n * n] * len(self.key_names) + [
            n * b.m + 1 if self._ties else b.m + 1 for b in norm.blocks]
        self._census_caps = self._caps[:len(self.key_names)] + [1] * (
            self.dims - len(self.key_names))

        # One representative per class of interchangeable types with equal
        # keys and block membership, weighted by the sum of its members'
        # weights (the multinomial theorem makes that exact); classes whose
        # signs cancel drop out.  A tie-counted block scales each element
        # outside its A by m!, so every element carries the same total
        # scale and the fold stays integral.
        sign_slots = [cells.u_slot_index(p, "unary") for p in norm.sign_preds]
        a_slots = [cells.u_slot_index(b.a_pred, "unary") for b in norm.blocks]
        merged: dict[tuple, list] = {}
        for c, members in enumerate(cells.classes):
            for t in members:
                key = self._key(cells.u_slots, t)
                in_a = tuple(bool(cells.type_bit(t, s)) for s in a_slots)
                w = fold.of_type(t) * (-1) ** sum(cells.type_bit(t, s)
                                                  for s in sign_slots)
                for block, hit in zip(norm.blocks, in_a):
                    if self._ties and not hit:
                        w = w * block.divisor_base
                merged.setdefault((c, key, in_a), [t, key, in_a, 0])[3] += w
        # per-class data in ascending representative order, as pair_vs keys
        # have i <= j
        live = sorted(entry for entry in merged.values() if entry[3])
        self.types = [t for t, _, _, _ in live]
        self._type_keys = [key for _, key, _, _ in live]
        self._in_a = [in_a for _, _, in_a, _ in live]
        self._weights = [w for _, _, _, w in live]
        self._out_slots = [(p, "xy") for p in cells.signature.binary_predicates()]
        self._wnij_cache: dict[tuple[int, int], object] = {}
        self._pow_cache: dict[tuple[int, int, int], _Poly] = {}

    # -- per-type data --------------------------------------------------------

    def _key(self, slots: Sequence[tuple[str, str]], index: int) -> tuple[int, ...]:
        """Counters raised by the true atoms of ``index``, an assignment to
        ``slots``: a 1-type, a 2-table or an out-edge mask."""
        key = [0] * self._width
        for s, (pred, _) in enumerate(slots):
            if slot_bit(index, s, len(slots)):
                for d, c in self._raises.get(pred, ()):
                    key[d] += c
        return tuple(key)

    def _project(self, poly: _Poly, targets: Sequence[tuple[int, bool]]) -> _Poly:
        """The rows whose block counters meet their targets, keyed by the
        tracked counters: a target (value, hit) asks its counter to equal
        value exactly when hit is true."""
        tracked = len(self.key_names)
        table: _Poly = {}
        for key, val in poly.items():
            if all((k == v) == hit for k, (v, hit) in zip(key[tracked:], targets)):
                short = key[:tracked]
                table[short] = table.get(short, 0) + val
        return table

    def _element_row(self, pos: int, edges: _Poly) -> _Poly:
        """One element of class ``pos`` given the polynomial of its
        out-edges: its type key times ``edges``, keeping the rows where
        each block's guard degree is m exactly when the element is in the
        block's A, keyed by the tracked counters."""
        row = _poly_mul({self._type_keys[pos]: 1}, edges, self._caps)
        return self._project(row, [(b.m, hit) for b, hit
                                   in zip(self.norm.blocks, self._in_a[pos])])

    def _out_poly(self, a: int, b: int) -> _Poly:
        """Counter polynomial of the out-edges type a may send to type b."""
        g: _Poly = {}
        for w in self.cells.out_options[(a, b)]:
            key = self._key(self._out_slots, w)
            g[key] = g.get(key, 0) + self.fold.of_out(w)
        return g

    def _power(self, pa: int, pb: int, e: int) -> _Poly:
        """The e-th power of a factor between classes pa and pb, cached
        across the whole enumeration: with blocks counted per element,
        pa's out-edge polynomial toward pb; otherwise the counter
        polynomial of one unordered pair, a monomial per satisfying
        2-table."""
        key = (pa, pb, e)
        if key not in self._pow_cache:
            a, b = self.types[pa], self.types[pb]
            if self._per_element:
                base = self._out_poly(a, b)
            else:
                base = {}
                for v in self.cells.pair_vs[(a, b)]:
                    k = self._key(self.cells.b_slots, v)
                    base[k] = base.get(k, 0) + self.fold.of_table(v)
            self._pow_cache[key] = _poly_pow(base, e, self._caps)
        return self._pow_cache[key]

    def _weighted_nij(self, a: int, b: int):
        if (a, b) not in self._wnij_cache:
            self._wnij_cache[(a, b)] = (
                self.cells.n_ij[(a, b)] if self.fold.table_weight is None
                else sum(self.fold.of_table(v) for v in self.cells.pair_vs[(a, b)]))
        return self._wnij_cache[(a, b)]

    # -- k-vector enumeration ---------------------------------------------------

    def _k_table(self, occupied: Sequence[tuple[int, int]]) -> _Poly:
        """One census contribution; ``occupied`` pairs a position into
        self.types with a positive element count."""
        coef = math.factorial(self.n)
        weight = 1
        for pos, count in occupied:
            coef //= math.factorial(count)
            weight = weight * self._weights[pos] ** count
        coef = coef * weight
        if coef == 0:
            return {}
        caps = self._census_caps
        if self._per_element:
            # per element: its out-edges toward every other element
            poly: _Poly = {(0,) * self.dims: coef}
            for pa, ca in occupied:
                edges: _Poly = {(0,) * self._width: 1}
                for pb, cb in occupied:
                    e = cb - (pa == pb)
                    if e:
                        edges = _poly_mul(edges, self._power(pa, pb, e), self._caps)
                row = self._element_row(pa, edges)
                if not row:
                    return {}
                poly = _poly_mul(poly, _poly_pow(row, ca, caps), caps)
            return poly
        # per pair: the counters start at the sum of the type keys; the
        # pairs only raise them, so a tie counter can only climb up to zero
        start = tuple(sum(c * self._type_keys[pos][d] for pos, c in occupied)
                      for d in range(self.dims))
        if any(s > 0 for s in start[len(self.key_names):]):
            return {}
        if self.dims == self.n_unary:
            value = coef
            for ia, (pa, ca) in enumerate(occupied):
                for pb, cb in occupied[ia:]:
                    e = pair_exponent(ca, cb, pa == pb)
                    if not e:
                        continue
                    w = self._weighted_nij(self.types[pa], self.types[pb])
                    if w == 0:
                        return {}
                    value = value * w ** e
            return {start: value}
        poly = {start: coef}
        for ia, (pa, ca) in enumerate(occupied):
            for pb, cb in occupied[ia:]:
                e = pair_exponent(ca, cb, pa == pb)
                if not e:
                    continue
                poly = _poly_mul(poly, self._power(pa, pb, e), caps)
                if not poly:
                    return {}
        return poly

    def _enumerate_table(self) -> _Poly:
        table: _Poly = {}
        for combo in combinations_with_replacement(range(len(self.types)), self.n):
            occupied = [(pos, len(tuple(group))) for pos, group in groupby(combo)]
            for key, val in self._k_table(occupied).items():
                table[key] = table.get(key, 0) + val
        return self._project(table, [(0, True)] * (self.dims - len(self.key_names)))

    # -- collapsed power ----------------------------------------------------------

    def _collapsed_table(self) -> _Poly:
        """The n-th power of the per-element polynomial: the weighted sum
        over the classes of one element's row with the (n-1)-th power of
        its out-edge polynomial."""
        edge_pow_cache: dict[tuple, _Poly] = {}
        per_element: _Poly = {}
        for pos, t in enumerate(self.types):
            g = self._out_poly(t, t)
            gsig = tuple(sorted(g.items()))
            if gsig not in edge_pow_cache:
                edge_pow_cache[gsig] = _poly_pow(g, self.n - 1, self._caps)
            for key, val in self._element_row(pos, edge_pow_cache[gsig]).items():
                per_element[key] = per_element.get(key, 0) + val * self._weights[pos]
        return _poly_pow(per_element, self.n, self._census_caps)

    # -- public ---------------------------------------------------------------

    def table(self) -> _Poly:
        """The collapsed power runs whenever the matrix allows it and no
        block carries a tie counter, except when tracked unary cards are
        the only counters and the censuses are few: then enumeration's
        integer powers are cheaper than a power of a polynomial in the
        unary counters."""
        if not self.types:
            return {}
        use_collapsed = self.cells.cross_independent and not self._ties and not (
            0 < self.n_unary == self._width
            and math.comb(self.n + len(self.types) - 1, len(self.types) - 1) <= 20000)
        raw = self._collapsed_table() if use_collapsed else self._enumerate_table()
        if self.divisor_scale != 1:
            scale = Fraction(1, self.divisor_scale ** self.n)
            raw = {k: v * scale for k, v in raw.items()}
        return raw


# ---------------------------------------------------------------------------
# solver front end


@dataclass
class CountResult:
    total: object  # int for pure counting, Fraction for weighted sums
    profiles: list[tuple[dict, object]] | None = None


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
        if isinstance(problem, NormalizedProblem) and not problem.successors:
            norm = problem
        else:
            norm = normalize(getattr(problem, "source", problem), successors=False)
        cells = build_cells(norm.signature, norm.matrix)
        if norm.blocks and not cells.directed:
            # successors cannot be counted per element: fall back to the
            # successor encoding, with a sign predicate on each block the
            # matrix does not pin, and rebuild (freeing the first tables)
            unpinned = {b.index for b in norm.blocks if not block_pinned(cells, b)}
            del cells
            norm = normalize(norm.source, unpinned)
            cells = build_cells(norm.signature, norm.matrix)
        self.norm = norm
        self.cells = cells

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
        if not self.norm.blocks or self.norm.successors:
            return self.norm
        return normalize(self.norm.source, self._unpinned())

    # -- profile tables -------------------------------------------------------

    def profile_table(self, n: int, tracked: Sequence[str] = (),
                      fold: WeightFold = IDENTITY_FOLD) -> tuple[tuple[str, ...], _Poly]:
        """Profile table keyed by the tracked predicate cardinalities,
        with every counting block already enforced.  Returns (key names,
        table)."""
        ev = ProfileEvaluator(self.norm, self.cells, n, tracked, fold)
        return ev.key_names, ev.table()

    # -- counting entry points ---------------------------------------------------

    def _allowed_rows(self, n: int, tracked: Sequence[str] = (),
                      fold: WeightFold = IDENTITY_FOLD,
                      constraint: CardConstraint | None = None
                      ) -> Iterator[tuple[dict[str, int], object]]:
        """Rows (cards, value) of the profile table over the tracked
        predicates and the constraint's own, for the profiles the
        constraint allows (the problem's constraint by default)."""
        if constraint is None:
            constraint = self.norm.constraint
        track = tuple(dict.fromkeys(
            tuple(tracked) + tuple(sorted(constraint_predicates(constraint)))))
        names, table = self.profile_table(n, track, fold)
        for key, val in table.items():
            cards = dict(zip(names, key))
            if constraint == CARD_TRUE or constraint.holds(cards):
                yield cards, val

    def count(self, n: int, constraint: CardConstraint | None = None) -> int:
        """Exact model count on domain size n, honoring the problem's
        cardinality constraint (or an explicit override)."""
        return _as_count(sum(val for _, val in
                             self._allowed_rows(n, constraint=constraint)))

    def weighted_total(self, n: int, tracked: Sequence[str],
                       fold: WeightFold = IDENTITY_FOLD, weight_fn=None,
                       constraint: CardConstraint | None = None):
        """Sum of weight(profile) * F(profile) over profiles satisfying
        the constraint; the symmetric part enters via ``fold`` and the
        profile-dependent part via ``weight_fn(cards) -> Fraction``."""
        total = Fraction(0)
        for cards, val in self._allowed_rows(n, tracked, fold, constraint):
            w = weight_fn(cards) if weight_fn is not None else 1
            total += Fraction(val) * w
        return total

    def breakdown(self, n: int, tracked: Sequence[str],
                  fold: WeightFold = IDENTITY_FOLD,
                  constraint: CardConstraint | None = None) -> CountResult:
        """Per-profile signed terms for the tracked predicates."""
        wanted = set(tracked)
        projected: dict[tuple, object] = {}
        total = 0
        for cards, val in self._allowed_rows(n, tracked, fold, constraint):
            short = tuple((p, c) for p, c in cards.items() if p in wanted)
            projected[short] = projected.get(short, 0) + val
            total += val
        profiles = [(dict(key), val) for key, val in sorted(projected.items())]
        return CountResult(total=total, profiles=profiles)


# ---------------------------------------------------------------------------
# spec-level operations


def fomc_universal(cells: CellStructure, n: int) -> int:
    """Plain universal count: sum over censuses of the multinomial times
    the product of n_ij powers.  Requires no sign predicates or blocks."""
    total = 0
    for k in compositions(n, len(cells.valid)):
        total += universal_term_valid(cells, n, k)
    return _as_count(total)


def universal_term_valid(cells: CellStructure, n: int, k: Sequence[int]) -> int:
    """One census term, with k indexed over cells.valid."""
    coef = math.factorial(n)
    for count in k:
        coef //= math.factorial(count)
    occupied = [(t, c) for t, c in zip(cells.valid, k) if c]
    value = coef
    for ia, (ta, ca) in enumerate(occupied):
        for tb, cb in occupied[ia:]:
            e = pair_exponent(ca, cb, ta is tb)
            if e:
                value *= cells.n_ij[(ta, tb)] ** e
                if value == 0:
                    return 0
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
    """Diagnostic for a single forall-exists problem.  Returns (p_m, e_m):
    p_m counts the matrix models in which a marked set of exactly m
    elements is witness-free (the sign predicate treated as an ordinary
    predicate with cardinality m); e_m, recovered from the p_j by an
    alternating binomial sum, counts the models in which exactly m
    elements have no witness.  Exposed for tests."""
    solver = Solver(problem)
    norm = solver.norm
    if len(norm.sign_preds) != 1 or norm.blocks:
        raise SemanticError("diagnostic requires exactly one forall-exists conjunct")
    if m > n:
        raise SemanticError(f"m = {m} exceeds the domain size {n}")
    p_pred = norm.sign_preds[0]
    # weight -1 on the marked types cancels their sign, so the marked set
    # is counted like an ordinary predicate
    slot = solver.cells.u_slot_index(p_pred, "unary")
    unsigned = WeightFold(type_weight={t: -1 if solver.cells.type_bit(t, slot) else 1
                                       for t in solver.cells.valid})
    _, table = solver.profile_table(n, (p_pred,), unsigned)
    p = [0] * (n + 1)
    for key, val in table.items():
        p[key[0]] += val
    e_m = sum((-1) ** (j - m) * math.comb(j, m) * p[j] for j in range(m, n + 1))
    return p[m], e_m
