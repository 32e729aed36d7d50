"""Closed-form model counting over the cell tables.

Two evaluation strategies compute the same profile sums:

* k-vector enumeration: iterate the censuses of domain elements over the
  valid 1-types; each census contributes its multinomial coefficient,
  the inclusion-exclusion sign and a product of per-pair factors (plain
  powers of n_ij, or sparse counter polynomials when cardinalities are
  tracked).

* collapsed power: when every cross condition of the matrix depends only
  on the source 1-type and the outgoing edge bits, the sum over censuses
  factorizes into the n-th power of a single per-element polynomial.
  This is what makes large domains tractable for counting blocks, whose
  1-type space is far too large to enumerate censuses over.

Both paths share one counter layout, a map from each predicate to the
counters its true atoms raise: one per tracked predicate (unary ones
first) and one hidden tie counter per counting block, sum_j |f_j| - m|A|,
raised by each f_j atom and lowered by m for each A-element.  A 1-type,
a 2-table and an out-edge mask are each keyed by the sum over their true
atoms, so the counter polynomials are generating functions in the sense
of Kuzelka, "Weighted First-Order Model Counting in the Two-Variable
Fragment With Counting Quantifiers" (JAIR 2021).  Enumeration starts a
census at the sum of its type keys and lets the pairs raise the tie
counters back up to zero; the collapsed power bounds every partial
product by what the remaining elements can still undo.  Both then drop
the rows with a nonzero tie counter, which enforces the cardinality
ties, and key the rest by the tracked counters.  The 1/m! divisor of
each block is folded in per element.

Both paths read the valid types merged into classes: ``build_cells``
groups the types that allow the same 2-tables against every partner,
and the evaluator splits each group by type key, keeps one
representative per class and gives it the sum of its members' weights
(signs, folded weights and block divisors included), dropping classes
whose sum is zero.  Every census term then depends only on the class
counts, and summing a class's splits among its members is the
multinomial expansion of that summed weight, so the count is unchanged.

Enumeration runs when the matrix does not factorize, or when tracked
unary cards are the only counters and there are at most 20,000
censuses over the classes; otherwise the collapsed power does.

A block is exact as encoded when it is "pinned": the matrix forces guard
edges to start inside A, which forces A to be the whole exactly-m set.
``Solver`` re-encodes every other block with an inclusion-exclusion sign
predicate (see ``normalize``), so every count goes through the same
evaluation.

``Solver`` is the one entry point: it builds the cell tables once per
problem, and its ``count``, ``weighted_total`` and ``breakdown`` read the
same profile rows, filtered once by the cardinality constraint.
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


def _poly_mul(p: _Poly, q: _Poly, bounds) -> _Poly:
    """p * q restricted to the keys whose every counter lies within its
    (lo, hi) bound."""
    out: _Poly = {}
    get = out.get
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(map(int.__add__, ka, kb))
            for value, (lo, hi) in zip(key, bounds):
                if value < lo or value > hi:
                    break
            else:
                out[key] = get(key, 0) + va * vb
    return out


def _poly_pow(base: _Poly, e: int, dims: int, window) -> _Poly:
    """base^e with level-aware pruning: ``window(h)`` bounds any product
    of h base factors that can still extend to a useful full product."""
    result: _Poly = {(0,) * dims: 1}
    height = 0
    acc = base
    acc_h = 1
    while e:
        if e & 1:
            height += acc_h
            result = _poly_mul(result, acc, window(height))
        e >>= 1
        if e:
            acc_h *= 2
            acc = _poly_mul(acc, acc, window(acc_h))
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
    for i in cells.valid:
        if cells.type_bit(i, a_slot) == 0 and cells.type_bit(i, g_refl):
            return False
    for (i, j), vs in cells.pair_vs.items():
        i_no_a = cells.type_bit(i, a_slot) == 0
        j_no_a = cells.type_bit(j, a_slot) == 0
        if not (i_no_a or j_no_a):
            continue
        for v in vs:
            if i_no_a and cells.table_bit(v, g_xy):
                return False
            if j_no_a and cells.table_bit(v, g_yx):
                return False
    return True


# ---------------------------------------------------------------------------
# the profile evaluator


class ProfileEvaluator:
    """Signed profile table of a normalized problem at one domain size.

    Keys are cardinality snapshots of the tracked predicates (unary
    first, then binary, each group in the given order); values carry the
    multinomial coefficient, the inclusion-exclusion sign, any folded
    weights and the block divisors, with the block cardinality ties
    already enforced."""

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
        self.sign_slots = [cells.u_slot_index(p, "unary") for p in norm.sign_preds]

        # The counter layout: which counters each true atom of a predicate
        # raises, and by how much.  Tracked predicates come first (unary
        # ones, then binary); then one hidden tie counter per block,
        # sum_j |f_j| - m * |A|, which is zero exactly on the tied profiles
        # because the block's sign predicates already cancel every profile
        # where some A-element lacks an f_j successor (so |f_j| >= |A|
        # wherever F != 0, and the sum pins each |f_j| individually).
        self.key_names = tuple(sorted(tracked, key=arity))
        self.n_unary = sum(arity(p) == 1 for p in tracked)
        self.dims = len(self.key_names) + len(norm.blocks)
        self._raises: dict[str, list[tuple[int, int]]] = {}
        for d, pred in enumerate(self.key_names):
            self._raises.setdefault(pred, []).append((d, 1))
        self.divisor_scale = 1
        for d, block in enumerate(norm.blocks, len(self.key_names)):
            for f in block.f_preds:
                self._raises.setdefault(f, []).append((d, 1))
            self._raises.setdefault(block.a_pred, []).append((d, -block.m))
            self.divisor_scale *= block.divisor_base
        # bounds on what the pairs of a census, or the out-edges of one
        # element, add to the counters: a binary card never exceeds n*n,
        # and a tie counter never starts below -n*m
        self._steps = ([(0, n * n)] * len(self.key_names)
                       + [(0, n * b.m) for b in norm.blocks])

        # One representative per class of interchangeable types with equal
        # keys, weighted by the sum of its members' weights (the multinomial
        # theorem makes that exact); classes whose signs cancel drop out.
        # Blocks with multiplicity above the domain size force A empty.
        dead_a_slots = [cells.u_slot_index(b.a_pred, "unary")
                        for b in norm.blocks if b.m > n]
        merged: dict[tuple, list] = {}
        for c, members in enumerate(cells.classes):
            for t in members:
                if any(cells.type_bit(t, s) for s in dead_a_slots):
                    continue
                key = self._key(cells.u_slots, t)
                merged.setdefault((c, key), [t, key, 0])[2] += self._cell_weight(t)
        # per-class data in ascending representative order, as pair_vs keys
        # have i <= j
        live = sorted(entry for entry in merged.values() if entry[2])
        self.types = [t for t, _, _ in live]
        self._type_keys = [key for _, key, _ in live]
        self._weights = [w for _, _, w in live]
        self._base_cache: dict[tuple[int, int], _Poly] = {}
        self._wnij_cache: dict[tuple[int, int], object] = {}
        self._pow_cache: dict[tuple[int, int, int], _Poly] = {}

    # -- per-type data --------------------------------------------------------

    def _key(self, slots: Sequence[tuple[str, str]], index: int) -> tuple[int, ...]:
        """Counters raised by the true atoms of ``index``, an assignment to
        ``slots``: a 1-type, a 2-table or an out-edge mask."""
        key = [0] * self.dims
        for s, (pred, _) in enumerate(slots):
            if slot_bit(index, s, len(slots)):
                for d, c in self._raises.get(pred, ()):
                    key[d] += c
        return tuple(key)

    def _window(self, h: int) -> list[tuple[int, int]]:
        """Bounds on the counters of h elements (their 1-types and owned
        edges) that n - h more elements can still complete: a tracked
        unary card grows by at most 1 per element, and a tie counter must
        be able to return to zero, each element lowering it by at most m."""
        n, tracked = self.n, len(self.key_names)
        return ([(0, h)] * self.n_unary + [(0, n * n)] * (tracked - self.n_unary)
                + [(-h * b.m, (n - h) * b.m) for b in self.norm.blocks])

    def _project(self, poly: _Poly) -> _Poly:
        """The rows whose tie counters are all zero, keyed by the tracked
        counters."""
        tracked = len(self.key_names)
        table: _Poly = {}
        for key, val in poly.items():
            if not any(key[tracked:]):
                short = key[:tracked]
                table[short] = table.get(short, 0) + val
        return table

    def _type_sign(self, t: int) -> int:
        s = sum(self.cells.type_bit(t, slot) for slot in self.sign_slots)
        return -1 if s % 2 else 1

    def _cell_weight(self, t: int):
        w = self.fold.of_type(t) * self._type_sign(t)
        if self.divisor_scale != 1:
            # scale by m! per element outside A_i so every element carries
            # the same total scale and the fold stays integral
            for block in self.norm.blocks:
                a_slot = self.cells.u_slot_index(block.a_pred, "unary")
                if not self.cells.type_bit(t, a_slot):
                    w = w * block.divisor_base
        return w

    def _pair_base(self, a: int, b: int) -> _Poly:
        """Counter polynomial of one unordered 1-type pair: a monomial per
        satisfying 2-table, graded by its counter contributions."""
        try:
            return self._base_cache[(a, b)]
        except KeyError:
            pass
        base: _Poly = {}
        for v in self.cells.pair_vs[(a, b)]:
            key = self._key(self.cells.b_slots, v)
            base[key] = base.get(key, 0) + self.fold.of_table(v)
        self._base_cache[(a, b)] = base
        return base

    def _pair_power(self, pa: int, pb: int, e: int) -> _Poly:
        """base(a,b)^e under the census-independent step bounds, cached
        across the whole enumeration (the census bounds are tighter and
        get applied by the caller's multiply)."""
        if e == 1:
            return self._pair_base(self.types[pa], self.types[pb])
        key = (pa, pb, e)
        try:
            return self._pow_cache[key]
        except KeyError:
            pass
        base = self._pair_base(self.types[pa], self.types[pb])
        out = _poly_pow(base, e, self.dims, lambda _: self._steps)
        self._pow_cache[key] = out
        return out

    def _weighted_nij(self, a: int, b: int):
        try:
            return self._wnij_cache[(a, b)]
        except KeyError:
            pass
        if self.fold.table_weight is None:
            value = self.cells.n_ij[(a, b)]
        else:
            value = sum(self.fold.of_table(v) for v in self.cells.pair_vs[(a, b)])
        self._wnij_cache[(a, b)] = value
        return value

    # -- k-vector enumeration ---------------------------------------------------

    def _k_table(self, occupied: Sequence[tuple[int, int]], bounds) -> _Poly:
        """One census contribution; ``occupied`` pairs a position into
        self.types with a positive element count.  The counters start at
        the sum of the type keys; the pairs only raise them, so a tie
        counter can only climb back up to zero."""
        coef = math.factorial(self.n)
        weight = 1
        for pos, count in occupied:
            coef //= math.factorial(count)
            weight = weight * self._weights[pos] ** count
        coef = coef * weight
        if coef == 0:
            return {}
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
        poly: _Poly = {start: coef}
        for ia, (pa, ca) in enumerate(occupied):
            for pb, cb in occupied[ia:]:
                e = pair_exponent(ca, cb, pa == pb)
                if not e:
                    continue
                poly = _poly_mul(poly, self._pair_power(pa, pb, e), bounds)
                if not poly:
                    return {}
        return poly

    def _enumerate_table(self) -> _Poly:
        table: _Poly = {}
        bounds = self._window(self.n)
        for combo in combinations_with_replacement(range(len(self.types)), self.n):
            occupied = [(pos, len(tuple(group))) for pos, group in groupby(combo)]
            for key, val in self._k_table(occupied, bounds).items():
                table[key] = table.get(key, 0) + val
        return self._project(table)

    # -- collapsed power ----------------------------------------------------------

    def _collapsed_table(self) -> _Poly:
        """The n-th power of the per-element polynomial: each element's
        type key times the (n-1)-th power of its out-edge polynomial."""
        cells, n = self.cells, self.n
        out_slots = [(p, "xy") for p in cells.signature.binary_predicates()]
        level1 = self._window(1)
        edge_pow_cache: dict[tuple, _Poly] = {}
        per_element: _Poly = {}
        for t, a_t, t_key in zip(self.types, self._weights, self._type_keys):
            g: _Poly = {}
            for w in cells.out_options[t]:
                key = self._key(out_slots, w)
                g[key] = g.get(key, 0) + self.fold.of_out(w)
            gsig = tuple(sorted(g.items()))
            if gsig not in edge_pow_cache:
                edge_pow_cache[gsig] = _poly_pow(g, n - 1, self.dims,
                                                 lambda _: self._steps)
            for key, val in _poly_mul({t_key: a_t}, edge_pow_cache[gsig],
                                      level1).items():
                per_element[key] = per_element.get(key, 0) + val
        return self._project(_poly_pow(per_element, n, self.dims, self._window))

    # -- public ---------------------------------------------------------------

    def table(self) -> _Poly:
        """The collapsed power runs whenever the matrix allows it, except
        when tracked unary cards are the only counters and the censuses
        are few: then enumeration's integer powers are cheaper than a
        power of a polynomial in the unary counters."""
        if not self.types:
            return {}
        use_collapsed = self.cells.cross_independent and not (
            0 < self.n_unary == self.dims
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
        norm = normalize(problem) if isinstance(problem, Problem) else problem
        cells = build_cells(norm.signature, norm.matrix)
        # a block the matrix does not pin is exact only with its sign
        # predicate: re-encode and rebuild (freeing the first tables)
        unpinned = {b.index for b in norm.blocks
                    if b.sign is None and not block_pinned(cells, b)}
        if unpinned:
            del cells
            signed = unpinned | {b.index for b in norm.blocks if b.sign}
            norm = normalize(norm.source, signed)
            cells = build_cells(norm.signature, norm.matrix)
        self.norm = norm
        self.cells = cells

    @property
    def pinned(self) -> bool:
        """True when the matrix pins every counting block, so none needed
        a sign predicate."""
        return all(b.sign is None for b in self.norm.blocks)

    # -- profile tables -------------------------------------------------------

    def profile_table(self, n: int, tracked: Sequence[str] = (),
                      fold: WeightFold = IDENTITY_FOLD) -> tuple[tuple[str, ...], _Poly]:
        """Profile table keyed by the tracked predicate cardinalities,
        with all counting-block machinery (ties, divisor) already
        applied.  Returns (key names, table)."""
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
