"""Formula AST, signatures, cardinality constraints and weight expressions.

The language is the two-variable fragment with equality: the only terms
are the variables ``x`` and ``y``, predicates have arity 1 or 2, equality
is built in, and quantifiers may carry an exact/at-most/at-least count.
All AST nodes are immutable; every operation on them is pure.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .errors import SemanticError

VARIABLES = ("x", "y")

#: name prefix reserved for predicates introduced during normalization
SYNTHETIC_PREFIX = "__"


def other_variable(var: str) -> str:
    return "y" if var == "x" else "x"


# ---------------------------------------------------------------------------
# Immutable nodes

#: sets a field of a node from its ``__init__``, past the refusal below
_set = object.__setattr__


class Node:
    """Base of the immutable nodes: formulas, cardinality constraints,
    weight expressions, linear expressions and counting blocks.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``_set``; the fields of a node are those of its
    classes, base first.  Two nodes are equal when they have the same type
    and equal fields, and a node hashes by its fields.  A node prints as
    its constructor call with keywords (``Atom(pred='A', args=('x',))``),
    refuses assignment, and pickles and copies as that call.  These are
    plain classes, not frozen dataclasses, because every process builds
    them at import: a frozen dataclass takes 0.5-0.9 ms to create, a
    plain slotted class about 0.012 ms (Python 3.11)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        if cls._fields:
            # what equality and hash compare: the one field's value, or
            # the tuple of the values of two or more
            cls._key = staticmethod(operator.attrgetter(*cls._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


# ---------------------------------------------------------------------------
# Formulas


class Formula(Node):
    """Base class of all formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


class Atom(Formula):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[str, ...]):
        _set(self, "pred", pred)
        _set(self, "args", args)


class Eq(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: str, right: str):
        _set(self, "left", left)
        _set(self, "right", right)


class Not(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        _set(self, "sub", sub)


class _Connective(Formula):
    """A binary connective: ``And``, ``Or``, ``Implies`` or ``Iff``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


class Implies(_Connective):
    __slots__ = ()


class Iff(_Connective):
    __slots__ = ()


class _Quantifier(Formula):
    """An unconditional quantifier: ``Forall`` or ``Exists``."""

    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        _set(self, "var", var)
        _set(self, "body", body)


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


class Counting(Formula):
    """A counting quantifier: exactly / at most / at least ``count``
    witnesses of ``var`` satisfy ``body``.  ``cmp`` is '=', '<=' or '>='."""

    __slots__ = ("cmp", "count", "var", "body")

    def __init__(self, cmp: str, count: int, var: str, body: Formula):
        _set(self, "cmp", cmp)
        _set(self, "count", count)
        _set(self, "var", var)
        _set(self, "body", body)


TRUE = Eq("x", "x")
FALSE = Not(TRUE)


def conjoin(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjoin(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def conjuncts(formula: Formula) -> Iterator[Formula]:
    """Yield the conjuncts of a (possibly nested) top level conjunction."""
    if isinstance(formula, And):
        yield from conjuncts(formula.left)
        yield from conjuncts(formula.right)
    else:
        yield formula


def free_vars(formula: Formula) -> frozenset[str]:
    if isinstance(formula, Atom):
        return frozenset(formula.args)
    if isinstance(formula, Eq):
        return frozenset((formula.left, formula.right))
    free = frozenset()
    for sub in subformulas(formula):
        free |= free_vars(sub)
    return free - {formula.var} if isinstance(formula, (Forall, Exists, Counting)) else free


def subformulas(formula: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of a node, left to right.  With
    ``rebuild`` this is the only code that knows each node's children."""
    if isinstance(formula, (Atom, Eq)):
        return ()
    if isinstance(formula, _Connective):
        return (formula.left, formula.right)
    if isinstance(formula, Not):
        return (formula.sub,)
    if isinstance(formula, (_Quantifier, Counting)):
        return (formula.body,)
    raise TypeError(f"not a formula: {formula!r}")


def rebuild(formula: Formula, subs) -> Formula:
    """The node ``formula`` with its immediate subformulas replaced by
    ``subs``; a quantifier keeps its variable (and a counting quantifier
    its comparison and count), a leaf is returned as it is."""
    if isinstance(formula, (Atom, Eq)):
        return formula
    if isinstance(formula, (Not, And, Or, Implies, Iff)):
        return type(formula)(*subs)
    if isinstance(formula, (Forall, Exists)):
        return type(formula)(formula.var, *subs)
    if isinstance(formula, Counting):
        return Counting(formula.cmp, formula.count, formula.var, *subs)
    raise TypeError(f"not a formula: {formula!r}")


def substitute(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Simultaneously rename variables.  A permutation of the variables (the
    swap of x and y) renames the bound ones too, which gives an
    alpha-equivalent formula and cannot capture; any other mapping renames
    free variables only, so a merge of x and y is safe on quantifier-free
    formulas only."""
    if isinstance(formula, Atom):
        return Atom(formula.pred, tuple(mapping.get(a, a) for a in formula.args))
    if isinstance(formula, Eq):
        return Eq(mapping.get(formula.left, formula.left),
                  mapping.get(formula.right, formula.right))
    if isinstance(formula, (Forall, Exists, Counting)):
        if set(mapping) == set(mapping.values()):
            var, body = mapping.get(formula.var, formula.var), substitute(formula.body, mapping)
            return (Counting(formula.cmp, formula.count, var, body)
                    if isinstance(formula, Counting) else type(formula)(var, body))
        mapping = {k: v for k, v in mapping.items() if k != formula.var}
    return rebuild(formula, [substitute(s, mapping) for s in subformulas(formula)])


def is_quantifier_free(formula: Formula) -> bool:
    if isinstance(formula, (Forall, Exists, Counting)):
        return False
    for sub in subformulas(formula):
        if not is_quantifier_free(sub):
            return False
    return True


def atoms_of(formula: Formula) -> Iterator[Atom]:
    if isinstance(formula, Atom):
        yield formula
    else:
        for sub in subformulas(formula):
            yield from atoms_of(sub)


# ---------------------------------------------------------------------------
# Signatures


class Signature:
    """Predicate declarations.  Synthetic predicates are the auxiliaries
    introduced by normalization; user input may never mention them."""

    def __init__(self, arities: dict[str, int] | None = None,
                 synthetic: set[str] | None = None):
        self.arities = {} if arities is None else arities
        self.synthetic = set() if synthetic is None else synthetic

    def declare(self, name: str, arity: int, synthetic: bool = False) -> None:
        if arity not in (1, 2):
            raise SemanticError(f"predicate {name} must have arity 1 or 2, got {arity}")
        if name in self.arities:
            if self.arities[name] != arity:
                raise SemanticError(f"predicate {name} redeclared with arity "
                                    f"{arity} (was {self.arities[name]})")
            return
        if name in VARIABLES:
            raise SemanticError(f"{name!r} is a reserved variable name")
        self.arities[name] = arity
        if synthetic:
            self.synthetic.add(name)

    def arity(self, name: str) -> int:
        try:
            return self.arities[name]
        except KeyError:
            raise SemanticError(f"undeclared predicate {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.arities

    def predicates(self) -> list[str]:
        return sorted(self.arities)

    def unary_predicates(self) -> list[str]:
        return sorted(p for p, a in self.arities.items() if a == 1)

    def binary_predicates(self) -> list[str]:
        return sorted(p for p, a in self.arities.items() if a == 2)

    def user_predicates(self) -> list[str]:
        return sorted(p for p in self.arities if p not in self.synthetic)

    def copy(self) -> "Signature":
        return Signature(dict(self.arities), set(self.synthetic))

    def ground_atom_count(self, n: int) -> int:
        return sum(n ** a for a in self.arities.values())


def one_type_slots(signature: Signature) -> list[tuple[str, str]]:
    """The single-variable atom slots in canonical order: unary predicates
    by name, then reflexive binary atoms by name.  Slot 0 is the most
    significant bit of a 1-type index."""
    return ([(p, "unary") for p in signature.unary_predicates()]
            + [(p, "reflexive") for p in signature.binary_predicates()])


def two_table_slots(signature: Signature) -> list[tuple[str, str]]:
    """The two-variable atom slots: for each binary predicate (by name),
    the (x,y) atom then the (y,x) atom.  Slot 0 is the most significant
    bit of a 2-table index."""
    out = []
    for p in signature.binary_predicates():
        out.append((p, "xy"))
        out.append((p, "yx"))
    return out


def slot_bit(index: int, slot: int, width: int) -> int:
    """Big-endian slot access: slot 0 is the highest bit."""
    return (index >> (width - 1 - slot)) & 1


# ---------------------------------------------------------------------------
# Cardinality constraints


class LinearExpr(Node):
    """Integer-linear expression over predicate cardinalities: a constant
    plus a sum of ``coefficient * |P|`` terms (coeffs sorted by name)."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, int], ...] = (), const: int = 0):
        _set(self, "coeffs", coeffs)
        _set(self, "const", const)

    @staticmethod
    def of(const: int = 0, **preds: int) -> "LinearExpr":
        return LinearExpr(tuple(sorted(preds.items())), const)

    @staticmethod
    def card(pred: str, coefficient: int = 1) -> "LinearExpr":
        return LinearExpr(((pred, coefficient),), 0)

    def evaluate(self, cards: Mapping[str, int]) -> int:
        return self.const + sum(c * cards[p] for p, c in self.coeffs)

    def predicates(self) -> frozenset[str]:
        return frozenset(p for p, _ in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for pred, c in self.coeffs:
            term = f"|{pred}|" if abs(c) == 1 else f"{abs(c)}*|{pred}|"
            parts.append(("-" if c < 0 else "+", term))
        if self.const or not parts:
            parts.append(("-" if self.const < 0 else "+", str(abs(self.const))))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out


class CardConstraint(Node):
    """Boolean combination of comparisons between linear expressions."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_constraint(self)


class CardCompare(CardConstraint):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: LinearExpr, right: LinearExpr):
        _set(self, "op", op)  # one of = <= >= < >
        _set(self, "left", left)
        _set(self, "right", right)

    def holds(self, cards: Mapping[str, int]) -> bool:
        a = self.left.evaluate(cards)
        b = self.right.evaluate(cards)
        return {"=": a == b, "<=": a <= b, ">=": a >= b,
                "<": a < b, ">": a > b}[self.op]


class _CardJunction(CardConstraint):
    """A conjunction or disjunction: ``CardAnd`` or ``CardOr``."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[CardConstraint, ...]):
        _set(self, "parts", parts)


class CardAnd(_CardJunction):
    __slots__ = ()

    def holds(self, cards: Mapping[str, int]) -> bool:
        return all(p.holds(cards) for p in self.parts)


class CardOr(_CardJunction):
    __slots__ = ()

    def holds(self, cards: Mapping[str, int]) -> bool:
        return any(p.holds(cards) for p in self.parts)


class CardNot(CardConstraint):
    __slots__ = ("sub",)

    def __init__(self, sub: CardConstraint):
        _set(self, "sub", sub)

    def holds(self, cards: Mapping[str, int]) -> bool:
        return not self.sub.holds(cards)


CARD_TRUE = CardAnd(())


def card_conjoin(parts) -> CardConstraint:
    flat: list[CardConstraint] = []
    for p in parts:
        if isinstance(p, CardAnd):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return CardAnd(tuple(flat))


def constraint_predicates(constraint: CardConstraint) -> frozenset[str]:
    if isinstance(constraint, CardCompare):
        return constraint.left.predicates() | constraint.right.predicates()
    if isinstance(constraint, (CardAnd, CardOr)):
        out: frozenset[str] = frozenset()
        for p in constraint.parts:
            out |= constraint_predicates(p)
        return out
    if isinstance(constraint, CardNot):
        return constraint_predicates(constraint.sub)
    raise TypeError(f"not a constraint: {constraint!r}")


# ---------------------------------------------------------------------------
# Weight expressions over cardinality counters


class WeightExpr(Node):
    """Arithmetic over ``|P|`` counters, evaluated per profile.  Exponents
    must be integers; bases may be arbitrary rationals (so ``(-1)^|P|``
    works).  Evaluation is exact."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_weight(self)


class WNum(WeightExpr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        _set(self, "value", value)


class WCard(WeightExpr):
    __slots__ = ("pred",)

    def __init__(self, pred: str):
        _set(self, "pred", pred)


class WNeg(WeightExpr):
    __slots__ = ("sub",)

    def __init__(self, sub: WeightExpr):
        _set(self, "sub", sub)


class _WBinary(WeightExpr):
    """A sum, difference or product: ``WAdd``, ``WSub`` or ``WMul``."""

    __slots__ = ("left", "right")

    def __init__(self, left: WeightExpr, right: WeightExpr):
        _set(self, "left", left)
        _set(self, "right", right)


class WAdd(_WBinary):
    __slots__ = ()


class WSub(_WBinary):
    __slots__ = ()


class WMul(_WBinary):
    __slots__ = ()


class WPow(WeightExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: WeightExpr, exponent: WeightExpr):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


#: the arithmetic of the binary weight nodes
_WEIGHT_OPS = {WAdd: operator.add, WSub: operator.sub, WMul: operator.mul}


def weight_function(expr: WeightExpr, slot: Callable[[str], object] | None = None
                    ) -> Callable[[Mapping | Sequence[int]], int | Fraction]:
    """Compile a weight expression into a function of the cards, built of
    one closure per node; ``slot`` maps a predicate to the index of its
    card in the function's argument (by default its name).  Integers stay
    integers: a ``Fraction`` is built only for a non-integral constant or
    a negative exponent."""
    if isinstance(expr, WNum):
        value = expr.value.numerator if expr.value.denominator == 1 else expr.value
        return lambda cards: value
    if isinstance(expr, WCard):
        return operator.itemgetter(expr.pred if slot is None else slot(expr.pred))
    if isinstance(expr, WNeg):
        sub = weight_function(expr.sub, slot)
        return lambda cards: -sub(cards)
    if isinstance(expr, WPow):
        base, exponent = weight_function(expr.base, slot), weight_function(expr.exponent, slot)

        def power(cards):
            b, e = base(cards), exponent(cards)
            if e.denominator != 1:
                raise SemanticError(f"non-integer exponent {e} in weight expression")
            if e >= 0:
                return b ** int(e)
            if b == 0:
                raise SemanticError("0 raised to a negative exponent in weight expression")
            return Fraction(b) ** int(e)
        return power
    if type(expr) in _WEIGHT_OPS:
        op, a, b = (_WEIGHT_OPS[type(expr)], weight_function(expr.left, slot),
                    weight_function(expr.right, slot))
        return lambda cards: op(a(cards), b(cards))
    raise TypeError(f"not a weight expression: {expr!r}")


def weight_value(expr: WeightExpr, cards: Mapping[str, int]) -> Fraction:
    """The weight of one profile, as ``weight_function`` computes it."""
    return Fraction(weight_function(expr)(cards))


def weight_predicates(expr: WeightExpr) -> frozenset[str]:
    if isinstance(expr, WNum):
        return frozenset()
    if isinstance(expr, WCard):
        return frozenset((expr.pred,))
    if isinstance(expr, WNeg):
        return weight_predicates(expr.sub)
    if isinstance(expr, (WAdd, WSub, WMul, WPow)):
        left = expr.base if isinstance(expr, WPow) else expr.left
        right = expr.exponent if isinstance(expr, WPow) else expr.right
        return weight_predicates(left) | weight_predicates(right)
    raise TypeError(f"not a weight expression: {expr!r}")


# ---------------------------------------------------------------------------
# Pretty printing (inverse of the parser, used by ``fo2mc normalize``)

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def format_formula(f: Formula, parent_prec: int = 0) -> str:
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(f.args)})"
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        if isinstance(f.sub, Eq):
            return f"{f.sub.left} != {f.sub.right}"
        return "!" + format_formula(f.sub, _PREC[Not])
    if isinstance(f, (And, Or, Implies, Iff)):
        kind = type(f)
        prec = _PREC[kind]
        op = {And: "&", Or: "|", Implies: "->", Iff: "<->"}[kind]
        # -> is right-associative, the rest chain to the left; a chain of
        # one connective needs no parentheses inside, so it is walked
        # rather than recursed into (a normalized matrix is one And chain
        # of thousands of conjuncts)
        parts = []
        while type(f) is kind:
            inner, f = (f.left, f.right) if kind is Implies else (f.right, f.left)
            parts.append(format_formula(inner, prec))
        parts.append(format_formula(f, prec - 1))
        text = f" {op} ".join(parts if kind is Implies else reversed(parts))
        return f"({text})" if prec <= parent_prec else text
    if isinstance(f, Forall):
        return f"forall {f.var} ({format_formula(f.body)})"
    if isinstance(f, Exists):
        return f"exists {f.var} ({format_formula(f.body)})"
    if isinstance(f, Counting):
        return (f"exists{{{f.cmp}{f.count}}} {f.var} "
                f"({format_formula(f.body)})")
    raise TypeError(f"not a formula: {f!r}")


def format_constraint(c: CardConstraint) -> str:
    if isinstance(c, CardCompare):
        return f"{c.left} {c.op} {c.right}"
    if isinstance(c, CardAnd):
        if not c.parts:
            return "0 = 0"
        return " and ".join(f"({format_constraint(p)})" for p in c.parts)
    if isinstance(c, CardOr):
        if not c.parts:
            return "0 = 1"
        return " or ".join(f"({format_constraint(p)})" for p in c.parts)
    if isinstance(c, CardNot):
        return f"not ({format_constraint(c.sub)})"
    raise TypeError(f"not a constraint: {c!r}")


def decimal_str(v: Fraction) -> str:
    """Exact decimal rendering; falls back to p/q when the denominator
    has a prime factor other than 2 and 5."""
    if v.denominator == 1:
        return str(v.numerator)
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{v.numerator}/{v.denominator}"
    shift = max(twos, fives)
    scaled = abs(v.numerator) * 10 ** shift // v.denominator
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if v < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def format_weight(w: WeightExpr) -> str:
    if isinstance(w, WNum):
        return decimal_str(w.value)
    if isinstance(w, WCard):
        return f"|{w.pred}|"
    if isinstance(w, WNeg):
        return f"-({format_weight(w.sub)})"
    if isinstance(w, WAdd):
        return f"({format_weight(w.left)} + {format_weight(w.right)})"
    if isinstance(w, WSub):
        return f"({format_weight(w.left)} - {format_weight(w.right)})"
    if isinstance(w, WMul):
        return f"({format_weight(w.left)} * {format_weight(w.right)})"
    if isinstance(w, WPow):
        return f"({format_weight(w.base)})^({format_weight(w.exponent)})"
    raise TypeError(f"not a weight expression: {w!r}")
