"""Brute-force ground reference counter.

The oracle enumerates every truth assignment over the ground atoms and
evaluates the original, pre-normalization sentence directly (counting
quantifiers by literally counting witnesses).  It never touches the
normalizer or the lifted engine, which keeps it independent enough to
arbitrate them.  It is deliberately simple rather than fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import OracleCapError
from .grounding import ground
from .logic import (CardConstraint, Formula, Signature, WeightExpr,
                    one_type_slots, weight_value)

#: default cap on the number of ground atoms (2^28 assignments)
DEFAULT_CAP = 28


class OracleReport:
    def __init__(self, n: int, total: int, models_enumerated: int,
                 weighted_total: Fraction | None = None, stratified: dict | None = None):
        self.n = n
        self.total = total
        self.models_enumerated = models_enumerated
        self.weighted_total = weighted_total
        self.stratified = stratified


def _census_sweep(signature: Signature, sentence: Formula, n: int,
                  cap: int) -> tuple[dict[tuple[int, ...], int], int, list[str]]:
    """Count models grouped by the vector of per-predicate cardinalities."""
    gf = ground(signature, sentence, n)
    bits = len(gf.atoms)
    if bits > cap:
        raise OracleCapError(
            f"{bits} ground atoms exceed the oracle cap of {cap} "
            f"(2^{bits} assignments); reduce n or raise --oracle-cap")
    preds = signature.predicates()
    masks = []
    for pred in preds:
        m = 0
        for atom, i in gf.index.items():
            if atom[0] == pred:
                m |= 1 << i
        masks.append(m)
    fn = gf.function()
    census: dict[tuple[int, ...], int] = {}
    for a in range(1 << bits):
        if fn(a):
            key = tuple((a & m).bit_count() for m in masks)
            census[key] = census.get(key, 0) + 1
    return census, 1 << bits, preds


def _filter(census, preds, constraint: CardConstraint | None):
    if constraint is None:
        return census
    out = {}
    for key, cnt in census.items():
        cards = dict(zip(preds, key))
        if constraint.holds(cards):
            out[key] = cnt
    return out


def _symmetric_model_weight(signature: Signature, n: int, cards: Mapping[str, int],
                            weights: Mapping[str, tuple[Fraction, Fraction]]) -> Fraction:
    w = Fraction(1)
    for pred, t in cards.items():
        sites = n ** signature.arity(pred)
        w1, w0 = weights.get(pred, (Fraction(1), Fraction(1)))
        w *= Fraction(w1) ** t * Fraction(w0) ** (sites - t)
    return w


def oracle_count(signature: Signature, sentence: Formula, n: int,
                 constraint: CardConstraint | None = None,
                 symmetric_weights: Mapping[str, tuple[Fraction, Fraction]] | None = None,
                 profile_weight: WeightExpr | None = None,
                 cap: int = DEFAULT_CAP) -> OracleReport:
    """Exact count (optionally weighted) of the models satisfying the
    sentence and the cardinality constraint."""
    census, enumerated, preds = _census_sweep(signature, sentence, n, cap)
    census = _filter(census, preds, constraint)
    total = sum(census.values())
    weighted = None
    if symmetric_weights is not None or profile_weight is not None:
        weighted = Fraction(0)
        for key, cnt in census.items():
            cards = dict(zip(preds, key))
            w = Fraction(1)
            if symmetric_weights is not None:
                w *= _symmetric_model_weight(signature, n, cards, symmetric_weights)
            if profile_weight is not None:
                w *= weight_value(profile_weight, cards)
            weighted += cnt * w
    return OracleReport(n=n, total=total, models_enumerated=enumerated,
                        weighted_total=weighted)


def oracle_stratified(signature: Signature, sentence: Formula, n: int,
                      preds: Sequence[str] = (),
                      by_one_types: bool = False,
                      constraint: CardConstraint | None = None,
                      cap: int = DEFAULT_CAP) -> dict:
    """Model counts keyed by requested predicate cardinalities, or by the
    census of unary 1-types (how many elements realize each combination
    of unary and reflexive-binary atoms)."""
    if by_one_types:
        return _one_type_census(signature, sentence, n, cap)
    census, _, all_preds = _census_sweep(signature, sentence, n, cap)
    census = _filter(census, all_preds, constraint)
    pos = [all_preds.index(p) for p in preds]
    out: dict[tuple[int, ...], int] = {}
    for key, cnt in census.items():
        sub = tuple(key[i] for i in pos)
        out[sub] = out.get(sub, 0) + cnt
    return out


def _one_type_census(signature: Signature, sentence: Formula, n: int,
                     cap: int) -> dict[tuple[int, ...], int]:
    gf = ground(signature, sentence, n)
    bits = len(gf.atoms)
    if bits > cap:
        raise OracleCapError(f"{bits} ground atoms exceed the oracle cap of {cap}")
    slots = one_type_slots(signature)
    u = len(slots)
    # per element, the atom indices of its 1-type slots (slot 0 = high bit)
    elem_bits: list[list[int]] = []
    for c in range(n):
        idxs = []
        for pred, kind in slots:
            atom = (pred, c) if kind == "unary" else (pred, c, c)
            idxs.append(gf.index[atom])
        elem_bits.append(idxs)
    fn = gf.function()
    out: dict[tuple[int, ...], int] = {}
    for a in range(1 << bits):
        if fn(a):
            counts = [0] * (1 << u)
            for idxs in elem_bits:
                t = 0
                for i in idxs:
                    t = (t << 1) | (a >> i & 1)
                counts[t] += 1
            key = tuple(counts)
            out[key] = out.get(key, 0) + 1
    return out


def oracle_distribution(signature: Signature, sentence: Formula, n: int,
                        profile_weight: WeightExpr | None,
                        query_preds: Sequence[str],
                        constraint: CardConstraint | None = None,
                        symmetric_weights: Mapping[str, tuple[Fraction, Fraction]] | None = None,
                        cap: int = DEFAULT_CAP) -> dict[tuple[int, ...], Fraction]:
    """Probability of each count vector of the query predicates under the
    weighted distribution; weights default to 1."""
    census, _, preds = _census_sweep(signature, sentence, n, cap)
    census = _filter(census, preds, constraint)
    pos = [preds.index(p) for p in query_preds]
    num: dict[tuple[int, ...], Fraction] = {}
    z = Fraction(0)
    for key, cnt in census.items():
        cards = dict(zip(preds, key))
        w = Fraction(1)
        if profile_weight is not None:
            w *= weight_value(profile_weight, cards)
        if symmetric_weights is not None:
            w *= _symmetric_model_weight(signature, n, cards, symmetric_weights)
        contrib = cnt * w
        z += contrib
        sub = tuple(key[i] for i in pos)
        num[sub] = num.get(sub, Fraction(0)) + contrib
    if z == 0:
        raise ZeroDivisionError("partition function is zero")
    return {k: v / z for k, v in num.items()}
