"""Brute-force ground reference counter, and the source paper's lemma.

The oracle enumerates every truth assignment over the ground atoms and
evaluates the original, pre-normalization sentence directly (counting
quantifiers by literally counting witnesses).  One weighted sweep,
``_strata``, groups the models the constraint allows by the cards of the
requested predicates and weighs them; ``oracle_count``,
``oracle_stratified`` and ``oracle_distribution`` each read it.  It never
touches the normalizer or the lifted engine, which keeps it independent
enough to arbitrate them.  It is deliberately simple rather than fast.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, repeat
from typing import Mapping, Sequence

from .cells import build_cells
from .errors import OracleCapError, SemanticError
from .grounding import ground
from .logic import (CardConstraint, Formula, Signature, WeightExpr,
                    constraint_predicates, one_type_slots, slot_bit, weight_value)
from .normalize import normalize, successor_encoding
from .parser import Problem

#: default cap on the number of ground atoms (2^28 assignments)
DEFAULT_CAP = 28


class OracleReport:
    def __init__(self, n: int, total: int, models_enumerated: int,
                 weighted_total: Fraction | None = None):
        self.n = n
        self.total = total
        self.models_enumerated = models_enumerated
        self.weighted_total = weighted_total


def _census_sweep(signature: Signature, sentence: Formula, n: int, cap: int,
                  by_one_types: bool = False
                  ) -> tuple[dict[tuple[int, ...], int], int, list[str]]:
    """Count models grouped by the vector of per-predicate cardinalities,
    or by the census of unary 1-types (how many elements realize each
    combination of unary and reflexive-binary atoms, slot 0 the high bit)."""
    gf = ground(signature, sentence, n)
    bits = len(gf.atoms)
    if bits > cap:
        raise OracleCapError(
            f"{bits} ground atoms exceed the oracle cap of {cap} "
            f"(2^{bits} assignments); reduce n or raise --oracle-cap")
    preds = signature.predicates()
    if by_one_types:
        slots = one_type_slots(signature)
        # per element, the atom indices of its 1-type slots
        elements = [[gf.index[(pred, c) if kind == "unary" else (pred, c, c)]
                     for pred, kind in slots] for c in range(n)]

        def key(a: int) -> tuple[int, ...]:
            types = [sum((a >> i & 1) << len(idxs) - 1 - s for s, i in enumerate(idxs))
                     for idxs in elements]
            return tuple(map(types.count, range(1 << len(slots))))
    else:
        masks = [sum(1 << i for atom, i in gf.index.items() if atom[0] == pred)
                 for pred in preds]

        def key(a: int) -> tuple[int, ...]:
            return tuple((a & m).bit_count() for m in masks)
    fn = gf.function()
    census: dict[tuple[int, ...], int] = {}
    for a in range(1 << bits):
        if fn(a):
            k = key(a)
            census[k] = census.get(k, 0) + 1
    return census, 1 << bits, preds


def _strata(signature: Signature, sentence: Formula, n: int, cap: int,
            preds: Sequence[str], constraint: CardConstraint | None = None,
            symmetric_weights: Mapping[str, tuple[Fraction, Fraction]] | None = None,
            profile_weight: WeightExpr | None = None
            ) -> tuple[dict[tuple[int, ...], tuple[int, int | Fraction]], int]:
    """Per vector of the cards of ``preds``, the models the constraint
    allows and their mass under the symmetric and profile weights (1 where
    absent); and the number of assignments enumerated."""
    census, enumerated, all_preds = _census_sweep(signature, sentence, n, cap)
    pos = [all_preds.index(p) for p in preds]
    strata: dict[tuple[int, ...], tuple[int, int | Fraction]] = {}
    for key, cnt in census.items():
        cards = dict(zip(all_preds, key))
        if constraint is not None and not constraint.holds(cards):
            continue
        w = 1 if profile_weight is None else weight_value(profile_weight, cards)
        if symmetric_weights:
            for pred, t in cards.items():
                w1, w0 = symmetric_weights.get(pred, (1, 1))
                w *= Fraction(w1) ** t * Fraction(w0) ** (n ** signature.arity(pred) - t)
        sub = tuple(key[i] for i in pos)
        models, mass = strata.get(sub, (0, 0))
        strata[sub] = models + cnt, mass + cnt * w
    return strata, enumerated


def oracle_count(signature: Signature, sentence: Formula, n: int,
                 constraint: CardConstraint | None = None,
                 symmetric_weights: Mapping[str, tuple[Fraction, Fraction]] | None = None,
                 profile_weight: WeightExpr | None = None,
                 cap: int = DEFAULT_CAP) -> OracleReport:
    """Exact count (optionally weighted) of the models satisfying the
    sentence and the cardinality constraint."""
    strata, enumerated = _strata(signature, sentence, n, cap, (), constraint,
                                 symmetric_weights, profile_weight)
    total, mass = strata.get((), (0, 0))
    weighted = (None if symmetric_weights is None and profile_weight is None
                else Fraction(mass))
    return OracleReport(n=n, total=total, models_enumerated=enumerated,
                        weighted_total=weighted)


def oracle_stratified(signature: Signature, sentence: Formula, n: int,
                      preds: Sequence[str] = (),
                      by_one_types: bool = False,
                      constraint: CardConstraint | None = None,
                      cap: int = DEFAULT_CAP) -> dict:
    """Model counts keyed by requested predicate cardinalities, or by the
    census of unary 1-types (how many elements realize each combination
    of unary and reflexive-binary atoms), which ignores the constraint."""
    if by_one_types:
        return _census_sweep(signature, sentence, n, cap, by_one_types)[0]
    strata, _ = _strata(signature, sentence, n, cap, preds, constraint)
    return {key: models for key, (models, _) in strata.items()}


def oracle_distribution(signature: Signature, sentence: Formula, n: int,
                        profile_weight: WeightExpr | None,
                        query_preds: Sequence[str],
                        constraint: CardConstraint | None = None,
                        symmetric_weights: Mapping[str, tuple[Fraction, Fraction]] | None = None,
                        cap: int = DEFAULT_CAP) -> dict[tuple[int, ...], Fraction]:
    """Probability of each count vector of the query predicates under the
    weighted distribution; weights default to 1.  A zero partition
    function is refused, as the engine refuses it."""
    strata, _ = _strata(signature, sentence, n, cap, query_preds, constraint,
                        symmetric_weights, profile_weight)
    z = Fraction(sum(mass for _, mass in strata.values()))
    if z == 0:
        raise SemanticError("partition function is zero; the distribution "
                            "is undefined")
    return {key: mass / z for key, (_, mass) in strata.items()}


def _times(p: dict, q: dict, top: int) -> dict:
    """p q, keyed by (cards..., tie), without the monomials past tie ``top``."""
    out: dict = {}
    for a, x in p.items():
        for b, y in q.items():
            if a[-1] + b[-1] <= top:
                key = tuple(map(int.__add__, a, b))
                out[key] = out.get(key, 0) + x * y
    return out


def spec_terms(problem: Problem, n: int, constraint: CardConstraint | None = None
               ) -> dict[tuple[int, ...], Fraction]:
    """The source paper's lemma, literally, sharing only the front end up to
    ``build_cells`` with the engine.  On the successor encoding built
    without cells, every block signed (exact whether or not the matrix pins
    it), a census k of the valid 1-types, keyed over 0..2^u-1, has the term
    n!/prod_t k_t! times each element's 1-type polynomial and each pair's
    2-table one: the weights of their atoms (-1 for a true sign atom, else
    the symmetric weight) over the cards of the constraint (the problem's
    unless given, as in ``Solver.count``) and the tie sum_j |f_j|, kept at
    sum_j |I_j| where the constraint allows, over prod_j j^|I_j|."""
    enc = successor_encoding(normalize(problem))
    cells = build_cells(enc.signature, enc.matrix)
    constraint = enc.constraint if constraint is None else constraint
    preds = sorted(constraint_predicates(constraint))
    ties = {f for b in enc.blocks for f in b.f_preds}
    weights = {**enc.symmetric_weights, **dict.fromkeys(enc.sign_preds, (-1, 1))}
    due = {t: [j for b in enc.blocks for j, i in enumerate(b.indicators, 1)
               if cells.type_bit(t, cells.u_slot_index(i, "unary"))] for t in cells.valid}
    top, one = n * max(map(len, due.values()), default=0), (0,) * (len(preds) + 1)

    @cache
    def power(factor: tuple[int, ...], e: int) -> dict:
        """The e-th power of the polynomial of a 1-type (t,) or a pair (i, j)."""
        slots, base = cells.u_slots if len(factor) == 1 else cells.b_slots, {}
        for index in factor if len(factor) == 1 else cells.tables(*factor):
            atoms = [(p, slot_bit(index, s, len(slots))) for s, (p, _) in enumerate(slots)]
            key = (*(sum(b for q, b in atoms if q == p) for p in preds),
                   sum(b for q, b in atoms if q in ties))
            base[key] = base.get(key, 0) + math.prod(weights.get(q, (1, 1))[1 - b]
                                                     for q, b in atoms)
        out = {one: 1}
        for bit in bin(e)[2:]:
            out = _times(out, out, top)
            out = _times(out, base, top) if bit == "1" else out
        return out

    terms = {}
    for k in map(Counter, combinations_with_replacement(cells.valid, n)):
        target = sum(len(due[t]) * c for t, c in k.items())
        poly = {one: math.factorial(n) // math.prod(map(math.factorial, k.values()))}
        census = sorted(k.items())
        for a, (i, c) in enumerate(census):
            poly = _times(poly, power((i,), c), target)
            for j, d in census[a + (c == 1):]:  # one element of a type pairs with no other
                poly = _times(poly, power((i, j), c * (c - 1) // 2 if i == j else c * d), target)
        kept = sum(w for key, w in poly.items()
                   if key[-1] == target and constraint.holds(dict(zip(preds, key))))
        divisor = math.prod(j ** c for t, c in census for j in due[t])
        terms[tuple(map(k.get, range(1 << cells.u), repeat(0)))] = Fraction(kept, divisor)
    return terms


def spec_count(problem: Problem, n: int, constraint: CardConstraint | None = None) -> Fraction:
    """The sum of ``spec_terms``: the exact count, symmetric weights applied."""
    return sum(spec_terms(problem, n, constraint).values(), Fraction(0))
