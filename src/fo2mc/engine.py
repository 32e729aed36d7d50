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

Counting blocks are handled by hidden difference counters |f| - |A|
(zero exactly on the profiles satisfying the induced cardinality ties)
and a per-element fold of the 1/m! divisor, provided every block is
"pinned": the matrix forces guard edges to start inside A, which
determines |A| on every feasible profile and makes the maximization
directive provably vacuous.  Unpinned blocks fall back to the literal
profile filter and emit a soundness warning.

``Solver`` is the one entry point: it builds the cell tables once per
problem, and its ``count``, ``weighted_total`` and ``breakdown`` read the
same profile rows, filtered once by the cardinality constraint.
"""

from __future__ import annotations

import math
import warnings
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


class UnsoundCountingPatternWarning(UserWarning):
    """The maximization filter for this quantifier pattern operates on
    cardinality profiles only and is not guaranteed faithful; verify
    against the oracle subcommand on small domains."""


# ---------------------------------------------------------------------------
# sparse polynomials over counter vectors

_Poly = dict  # tuple[int, ...] -> int | Fraction


def _within(key, bounds) -> bool:
    for value, (lo, hi) in zip(key, bounds):
        if value < lo or value > hi:
            return False
    return True


def _poly_mul(p: _Poly, q: _Poly, bounds=None) -> _Poly:
    out: _Poly = {}
    get = out.get
    if bounds is None:
        for ka, va in p.items():
            for kb, vb in q.items():
                key = tuple(map(int.__add__, ka, kb))
                out[key] = get(key, 0) + va * vb
        return out
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(map(int.__add__, ka, kb))
            if _within(key, bounds):
                out[key] = get(key, 0) + va * vb
    return out


def _poly_pow(base: _Poly, e: int, dims: int, bounds=None) -> _Poly:
    result: _Poly = {(0,) * dims: 1}
    acc = base
    while e:
        if e & 1:
            result = _poly_mul(result, acc, bounds)
        e >>= 1
        if e:
            acc = _poly_mul(acc, acc, bounds)
    return result


def _poly_pow_leveled(base: _Poly, e: int, dims: int, window) -> _Poly:
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
    pins |A| = |guard|/m on every feasible profile and makes the
    maximization directive vacuous."""
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
    weights, and (unless ``literal_blocks``) the block divisors, with the
    block cardinality ties already enforced."""

    def __init__(self, norm: NormalizedProblem, cells: CellStructure, n: int,
                 tracked: Sequence[str] = (), fold: WeightFold = IDENTITY_FOLD,
                 literal_blocks: bool = False, plain_signs: bool = False):
        if n < 1:
            raise SemanticError("domain size must be at least 1")
        self.norm = norm
        self.cells = cells
        self.n = n
        self.fold = fold
        self.literal_blocks = literal_blocks
        self.tracked = tuple(dict.fromkeys(tracked))
        for pred in self.tracked:
            if pred not in norm.signature:
                raise SemanticError(f"cannot track undeclared predicate {pred}")

        sig = norm.signature
        self.sign_slots = [] if plain_signs else [
            cells.u_slot_index(p, "unary") for p in norm.sign_preds]
        self.unary_tracked = [(p, cells.u_slot_index(p, "unary"))
                              for p in self.tracked if sig.arity(p) == 1]
        self.binary_tracked = [
            (p, cells.u_slot_index(p, "reflexive"),
             cells.b_slot_index(p, "xy"), cells.b_slot_index(p, "yx"))
            for p in self.tracked if sig.arity(p) == 2]
        self.key_names = tuple([p for p, _ in self.unary_tracked]
                               + [p for p, *_ in self.binary_tracked])
        # Hidden tie dimensions, one per block: sum_j |f_j| - m * |A| hits
        # zero exactly on the tied profiles, because the block's sign
        # predicates already cancel every profile where some A-element
        # lacks an f_j successor (so |f_j| >= |A| holds wherever F != 0,
        # and the sum pins each |f_j| individually).
        self.diffs = []
        self.divisor_scale = 1
        if norm.blocks and not literal_blocks:
            for block in norm.blocks:
                a_slot = cells.u_slot_index(block.a_pred, "unary")
                self.diffs.append((
                    block.m, a_slot,
                    tuple(cells.u_slot_index(f, "reflexive") for f in block.f_preds),
                    tuple(cells.b_slot_index(f, "xy") for f in block.f_preds),
                    tuple(cells.b_slot_index(f, "yx") for f in block.f_preds),
                    tuple(block.f_preds)))
                self.divisor_scale *= block.divisor_base
        # blocks with multiplicity above the domain size force A empty
        dead_a_slots = [cells.u_slot_index(b.a_pred, "unary")
                        for b in norm.blocks if b.m > n]
        self.types = [t for t in cells.valid
                      if all(cells.type_bit(t, s) == 0 for s in dead_a_slots)]
        self._base_cache: dict[tuple[int, int], _Poly] = {}
        self._wnij_cache: dict[tuple[int, int], object] = {}
        self._pow_cache: dict[tuple[int, int, int], _Poly] = {}
        # per-type data, aligned with self.types
        self._weights = [self._cell_weight(t) for t in self.types]
        self._unary_bits = [tuple(cells.type_bit(t, slot)
                                  for _, slot in self.unary_tracked)
                            for t in self.types]
        self._bdiag = [self._type_binary_diag(t) for t in self.types]
        self._ddiag = [self._type_diff_diag(t) for t in self.types]

    # -- per-type data --------------------------------------------------------

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

    def _type_binary_diag(self, t: int) -> tuple[int, ...]:
        return tuple(self.cells.type_bit(t, refl)
                     for _, refl, _, _ in self.binary_tracked)

    def _type_diff_diag(self, t: int) -> tuple[int, ...]:
        return tuple(sum(self.cells.type_bit(t, s) for s in frefl)
                     - m * self.cells.type_bit(t, a_slot)
                     for m, a_slot, frefl, _, _, _ in self.diffs)

    def _pair_base(self, a: int, b: int) -> _Poly:
        """Counter polynomial of one unordered 1-type pair: a monomial per
        satisfying 2-table, graded by its counter contributions."""
        try:
            return self._base_cache[(a, b)]
        except KeyError:
            pass
        base: _Poly = {}
        for v in self.cells.pair_vs[(a, b)]:
            key = tuple(self.cells.table_bit(v, xy) + self.cells.table_bit(v, yx)
                        for _, _, xy, yx in self.binary_tracked)
            key += tuple(sum(self.cells.table_bit(v, s) for s in xys)
                         + sum(self.cells.table_bit(v, s) for s in yxs)
                         for _, _, _, xys, yxs, _ in self.diffs)
            base[key] = base.get(key, 0) + self.fold.of_table(v)
        self._base_cache[(a, b)] = base
        return base

    def _pair_power(self, pa: int, pb: int, e: int) -> _Poly:
        """base(a,b)^e under census-independent bounds, cached across the
        whole enumeration (census-specific targets are tighter and get
        applied by the caller's multiply)."""
        key = (pa, pb, e)
        try:
            return self._pow_cache[key]
        except KeyError:
            pass
        nb = len(self.binary_tracked)
        bounds = ([(0, self.n * self.n)] * nb
                  + [(0, self.n * m) for m, *_ in self.diffs])
        base = self._pair_base(self.types[pa], self.types[pb])
        out = _poly_pow(base, e, nb + len(self.diffs), bounds)
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

    @property
    def _dims(self) -> int:
        return len(self.binary_tracked) + len(self.diffs)

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
        nu = len(self.unary_tracked)
        nb = len(self.binary_tracked)
        nd = len(self.diffs)
        unary = tuple(sum(c * self._unary_bits[pos][d] for pos, c in occupied)
                      for d in range(nu))
        if nb == 0 and nd == 0:
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
            return {unary: value}
        diag = [sum(c * self._bdiag[pos][d] for pos, c in occupied)
                for d in range(nb)]
        # difference dimensions must land exactly on m*k(A) minus the
        # diagonal contribution; positive offsets can never be repaired
        targets = [-sum(c * self._ddiag[pos][d] for pos, c in occupied)
                   for d in range(nd)]
        if any(t < 0 for t in targets):
            return {}
        bounds = [(0, self.n * self.n)] * nb + [(0, t) for t in targets]
        poly: _Poly = {(0,) * (nb + nd): coef}
        for ia, (pa, ca) in enumerate(occupied):
            for pb, cb in occupied[ia:]:
                e = pair_exponent(ca, cb, pa == pb)
                if not e:
                    continue
                poly = _poly_mul(poly, self._pair_power(pa, pb, e), bounds)
                if not poly:
                    return {}
        table: _Poly = {}
        for key, val in poly.items():
            if any(key[nb + d] != targets[d] for d in range(nd)):
                continue
            full = unary + tuple(dg + kk for dg, kk in zip(diag, key[:nb]))
            table[full] = table.get(full, 0) + val
        return table

    def _enumerate_table(self) -> _Poly:
        table: _Poly = {}
        for combo in combinations_with_replacement(range(len(self.types)), self.n):
            occupied = [(pos, len(tuple(group))) for pos, group in groupby(combo)]
            for key, val in self._k_table(occupied).items():
                table[key] = table.get(key, 0) + val
        return table

    # -- collapsed power ----------------------------------------------------------

    def collapsed_applicable(self) -> bool:
        return self.cells.cross_independent and not self.literal_blocks

    def _collapsed_table(self) -> _Poly:
        cells, n = self.cells, self.n
        nu = len(self.unary_tracked)
        nb = len(self.binary_tracked)
        nd = len(self.diffs)
        dims = nu + nb + nd
        npred = cells.b // 2
        pred_pos = {p: k for k, p in enumerate(cells.signature.binary_predicates())}

        block_ms = [m for m, *_ in self.diffs]

        def edge_key(w: int) -> tuple[int, ...]:
            key = [0] * dims
            for d, (p, _, _, _) in enumerate(self.binary_tracked):
                key[nu + d] = slot_bit(w, pred_pos[p], npred)
            for d, (_, _, _, _, _, f_preds) in enumerate(self.diffs):
                key[nu + nb + d] = sum(slot_bit(w, pred_pos[f], npred)
                                       for f in f_preds)
            return tuple(key)

        def window(h: int):
            # h element factors, n - h still to come: tracked unary cards
            # grow by at most 1 per element, diff counters must be able to
            # return to zero (each remaining element lowers one by at most
            # m, raises it without that bound)
            remaining = n - h
            bounds = [(0, min(h, n))] * nu
            bounds += [(0, n * n)] * nb
            bounds += [(-h * m, remaining * m) for m in block_ms]
            return bounds

        g_bounds = ([(0, 0)] * nu + [(0, 2 * n)] * nb
                    + [(0, n * m) for m in block_ms])
        edge_pow_cache: dict[tuple, _Poly] = {}
        per_element: _Poly = {}
        for t in self.types:
            g: _Poly = {}
            for w in cells.out_options[t]:
                key = edge_key(w)
                g[key] = g.get(key, 0) + self.fold.of_out(w)
            gsig = tuple(sorted(g.items()))
            if gsig not in edge_pow_cache:
                edge_pow_cache[gsig] = _poly_pow(g, n - 1, dims, g_bounds)
            powered = edge_pow_cache[gsig]
            shift = [0] * dims
            for d, (_, slot) in enumerate(self.unary_tracked):
                shift[d] = cells.type_bit(t, slot)
            for d, val in enumerate(self._type_binary_diag(t)):
                shift[nu + d] = val
            for d, val in enumerate(self._type_diff_diag(t)):
                shift[nu + nb + d] = val
            a_t = self._cell_weight(t)
            level1 = window(1)
            for key, val in powered.items():
                full = tuple(s + kk for s, kk in zip(shift, key))
                if not _within(full, level1):
                    continue
                per_element[full] = per_element.get(full, 0) + a_t * val
        powered = _poly_pow_leveled(per_element, n, dims, window)
        table: _Poly = {}
        for key, val in powered.items():
            if any(key[nu + nb + d] for d in range(nd)):
                continue
            short = key[:nu + nb]
            table[short] = table.get(short, 0) + val
        return table

    # -- public ---------------------------------------------------------------

    def table(self) -> _Poly:
        if not self.types:
            return {}
        use_collapsed = (self.collapsed_applicable()
                         and len(self.types) > 1
                         and (self._dims > 0 or
                              math.comb(self.n + len(self.types) - 1,
                                        len(self.types) - 1) > 20000))
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
        self.norm = normalize(problem) if isinstance(problem, Problem) else problem
        self.cells = build_cells(self.norm.signature, self.norm.matrix)
        self.pinned = all(block_pinned(self.cells, b) for b in self.norm.blocks)

    # -- profile tables -------------------------------------------------------

    def profile_table(self, n: int, tracked: Sequence[str] = (),
                      fold: WeightFold = IDENTITY_FOLD) -> tuple[tuple[str, ...], _Poly]:
        """Profile table keyed by the tracked predicate cardinalities,
        with all counting-block machinery (ties, maximization, divisor)
        already applied.  Returns (key names, table)."""
        if self.norm.blocks and not self.pinned:
            return self._literal_table(n, tracked, fold)
        ev = ProfileEvaluator(self.norm, self.cells, n, tracked, fold)
        return ev.key_names, ev.table()

    def _literal_table(self, n, tracked, fold) -> tuple[tuple[str, ...], _Poly]:
        warnings.warn(
            "this counting-quantifier pattern is not pinned by the matrix; "
            "the profile-level maximization filter may be unfaithful here, "
            "cross-check with the oracle subcommand",
            UnsoundCountingPatternWarning, stacklevel=3)
        norm = self.norm
        full = list(tracked)
        for b in norm.blocks:
            full.extend([b.a_pred, b.guard, *b.f_preds])
        full.extend(norm.sign_preds)
        ev = ProfileEvaluator(norm, self.cells, n, full, fold, literal_blocks=True)
        table = ev.table()
        names = ev.key_names
        idx = {p: i for i, p in enumerate(names)}
        # induced ties |f| = |A|
        table = {key: val for key, val in table.items()
                 if all(key[idx[f]] == key[idx[b.a_pred]]
                        for b in norm.blocks for f in b.f_preds)}
        # per-block maximization, blocks filtered independently: group by
        # every tracked counter except the block's own A and f counters,
        # keep the profiles whose k(A) is maximal among nonzero ones
        keep = set(table)
        for b in norm.blocks:
            drop = {idx[b.a_pred], *(idx[f] for f in b.f_preds)}
            best: dict[tuple, int] = {}
            for key, val in table.items():
                if val == 0:
                    continue
                group = tuple(c for i, c in enumerate(key) if i not in drop)
                a_card = key[idx[b.a_pred]]
                if a_card > best.get(group, -1):
                    best[group] = a_card
            for key in list(keep):
                group = tuple(c for i, c in enumerate(key) if i not in drop)
                if table[key] != 0 and key[idx[b.a_pred]] != best.get(group, -1):
                    keep.discard(key)
        # divisor, then project onto the caller's tracked predicates
        requested = tuple(dict.fromkeys(tracked))
        req_unary = [p for p in requested if norm.signature.arity(p) == 1]
        req_binary = [p for p in requested if norm.signature.arity(p) == 2]
        req_names = tuple(req_unary + req_binary)
        positions = [idx[p] for p in req_names]
        out: _Poly = {}
        for key in keep:
            val = table[key]
            if val == 0:
                continue
            for b in norm.blocks:
                val = val / Fraction(b.divisor_base ** key[idx[b.a_pred]])
            short = tuple(key[i] for i in positions)
            out[short] = out.get(short, 0) + val
        return req_names, out

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
    ev = ProfileEvaluator(norm, solver.cells, n, (p_pred,), plain_signs=True)
    table = ev.table()
    p = [0] * (n + 1)
    for key, val in table.items():
        p[key[0]] += val
    e_m = sum((-1) ** (j - m) * math.comb(j, m) * p[j] for j in range(m, n + 1))
    return p[m], e_m
