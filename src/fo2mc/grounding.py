"""Grounding to propositional formulas and quantifier-free evaluation.

Domain elements are the integers ``0..n-1``.  Equality is evaluated
structurally while grounding: reflexive equalities become true, equalities
between distinct elements become false.  For lifted (variable-level)
evaluation, ``eval_qf`` fixes ``x = x`` to 1 and ``x = y`` to 0.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import SemanticError, UnsupportedFeatureError
from .logic import (And, Atom, Counting, Eq, Exists, Forall, Formula, Iff,
                    Implies, Not, Or, Signature)

GroundAtom = tuple  # (pred, elem) or (pred, elem, elem)


def ground_atoms(signature: Signature, n: int) -> list[GroundAtom]:
    """All ground atoms of the signature on domain 0..n-1, in a fixed
    order: by predicate name, then argument tuple."""
    out: list[GroundAtom] = []
    for pred in signature.predicates():
        if signature.arity(pred) == 1:
            out.extend((pred, c) for c in range(n))
        else:
            out.extend((pred, c, d) for c in range(n) for d in range(n))
    return out


# -- propositional expression builder with constant folding ------------------

def _conj(parts: list[str]) -> str:
    live = [p for p in parts if p != "1"]
    if any(p == "0" for p in live):
        return "0"
    if not live:
        return "1"
    if len(live) == 1:
        return live[0]
    return "(" + " and ".join(live) + ")"


def _disj(parts: list[str]) -> str:
    live = [p for p in parts if p != "0"]
    if any(p == "1" for p in live):
        return "1"
    if not live:
        return "0"
    if len(live) == 1:
        return live[0]
    return "(" + " or ".join(live) + ")"


def _neg(part: str) -> str:
    if part == "0":
        return "1"
    if part == "1":
        return "0"
    return f"(1-{part})"


def _count(parts: list[str], cmp: str, m: int) -> str:
    base = sum(1 for p in parts if p == "1")
    live = [p for p in parts if p not in ("0", "1")]
    op = {"=": "==", "<=": "<=", ">=": ">="}[cmp]
    if not live:
        return "1" if eval(f"{base} {op} {m}") else "0"
    total = "+".join(live) + (f"+{base}" if base else "")
    return f"(({total}) {op} {m})"


def compile_lambda(args: str, body: str, env: dict | None = None) -> Callable:
    """Compile a generated expression into a function; ``env`` holds the
    names its default arguments read.  Python's compiler rejects nesting
    beyond its parenthesis limit, which deeply nested formulas reach; that
    is a refusal, not a crash."""
    try:
        return eval(f"lambda {args}: {body}", env or {})
    except SyntaxError:
        raise UnsupportedFeatureError("formula nested too deeply") from None


class GroundFormula:
    """A propositional formula over the ground atoms of a signature.

    ``source`` is a Python expression over the bitmask variable ``a``;
    bit ``i`` of the mask is the truth value of ``atoms[i]``.
    """

    def __init__(self, atoms: list[GroundAtom], source: str, n: int):
        self.atoms = atoms
        self.source = source
        self.n = n
        self.index = {atom: i for i, atom in enumerate(self.atoms)}
        self._fn: Callable[[int], object] = compile_lambda("a", self.source)

    def evaluate(self, assignment) -> bool:
        """Evaluate under a truth assignment: either an int bitmask or a
        mapping from ground atoms to 0/1 (which must be total)."""
        if isinstance(assignment, int):
            return bool(self._fn(assignment))
        mask = 0
        for atom, i in self.index.items():
            try:
                value = assignment[atom]
            except KeyError:
                raise SemanticError(f"assignment misses ground atom {atom}") from None
            if value:
                mask |= 1 << i
        return bool(self._fn(mask))

    def function(self) -> Callable[[int], object]:
        return self._fn


def ground(signature: Signature, sentence: Formula, n: int) -> GroundFormula:
    """Ground a sentence over domain 0..n-1.  Counting quantifiers become
    exact-cardinality tests over their instantiated bodies."""
    if n < 1:
        raise SemanticError("domain size must be at least 1")
    atoms = ground_atoms(signature, n)
    index = {atom: i for i, atom in enumerate(atoms)}

    def translate(f: Formula, env: dict[str, int]) -> str:
        if isinstance(f, Atom):
            key = (f.pred, *(env[v] for v in f.args))
            return f"(a>>{index[key]}&1)"
        if isinstance(f, Eq):
            return "1" if env[f.left] == env[f.right] else "0"
        if isinstance(f, Not):
            return _neg(translate(f.sub, env))
        if isinstance(f, And):
            return _conj([translate(f.left, env), translate(f.right, env)])
        if isinstance(f, Or):
            return _disj([translate(f.left, env), translate(f.right, env)])
        if isinstance(f, Implies):
            return _disj([_neg(translate(f.left, env)), translate(f.right, env)])
        if isinstance(f, Iff):
            a = translate(f.left, env)
            b = translate(f.right, env)
            if a in ("0", "1") and b in ("0", "1"):
                return "1" if a == b else "0"
            if a == "1":
                return b
            if b == "1":
                return a
            if a == "0":
                return _neg(b)
            if b == "0":
                return _neg(a)
            return f"(({a})==({b}))"
        if isinstance(f, Forall):
            return _conj([translate(f.body, {**env, f.var: c}) for c in range(n)])
        if isinstance(f, Exists):
            return _disj([translate(f.body, {**env, f.var: c}) for c in range(n)])
        if isinstance(f, Counting):
            parts = [translate(f.body, {**env, f.var: c}) for c in range(n)]
            return _count(parts, f.cmp, f.count)
        raise TypeError(f"not a formula: {f!r}")

    return GroundFormula(atoms, translate(sentence, {}), n)


def eval_qf(formula: Formula, assignment: Mapping[Atom, int]) -> int:
    """Evaluate a quantifier-free formula under a lifted interpretation.
    Equality is fixed: ``x = x`` is 1 and ``x = y`` is 0."""
    if isinstance(formula, Atom):
        try:
            return 1 if assignment[formula] else 0
        except KeyError:
            raise SemanticError(f"unassigned atom {formula}") from None
    if isinstance(formula, Eq):
        return 1 if formula.left == formula.right else 0
    if isinstance(formula, Not):
        return 1 - eval_qf(formula.sub, assignment)
    if isinstance(formula, And):
        return eval_qf(formula.left, assignment) and eval_qf(formula.right, assignment)
    if isinstance(formula, Or):
        return eval_qf(formula.left, assignment) or eval_qf(formula.right, assignment)
    if isinstance(formula, Implies):
        return max(1 - eval_qf(formula.left, assignment),
                   eval_qf(formula.right, assignment))
    if isinstance(formula, Iff):
        return 1 if (eval_qf(formula.left, assignment)
                     == eval_qf(formula.right, assignment)) else 0
    raise SemanticError(f"formula is not quantifier-free: {formula}")
