"""Rewrites a parsed sentence into the engine's canonical form.

``normalize`` returns the per-element normal form.  Single-variable
counting quantifiers become cardinality constraints on fresh unary
predicates; each two-variable counting quantifier has its at-most /
at-least sugar expanded into exact counts, and each ``exactly-m``
occurrence becomes a block: a fresh unary predicate A standing for the
occurrence, its guard and m, with no axioms, so A means "exactly m guard
successors", which the engine enforces per element on matrices whose
2-tables factor per direction.  The result is brought to Scott normal
form (one universal matrix plus forall-exists conjuncts), and each
exists-conjunct is folded into the matrix through a fresh sign predicate
that drives the inclusion-exclusion sign.

``successor_encoding`` rewrites that form into the source paper's
encoding, the engine's fallback for every other matrix: per block, m
fresh binary predicates f_j with axioms that make A a subset of the
exactly-m set E, a 1/m! divisor per A-element and ties |f_j| = |A|.
Where the matrix does not pin A = E (by forcing every guard edge to start
in A), a block in ``signed`` gets a sign predicate S with S(x) -> A(x)
and each occurrence read as A(w) & !S(w): summing (-1)^|S| over S within
A and A within E leaves exactly the term A = E, so the count is exact in
every position.

Each rewriting walker spells out only the nodes it changes and reaches
every other node through ``logic.subformulas`` and ``logic.rebuild``.
Fresh synthetic predicates come from ``NameAllocator.fresh``.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Collection

from .errors import UnsupportedFeatureError
from .logic import (And, Atom, CARD_TRUE, CardAnd, CardCompare,
                    CardConstraint, Counting, Eq, Exists, Forall, Formula,
                    Iff, Implies, LinearExpr, Node, Not, Or, Signature,
                    card_conjoin, conjoin, disjoin, free_vars,
                    is_quantifier_free, other_variable, rebuild, subformulas,
                    substitute, _set)
from .parser import Problem


class NameAllocator:
    """Deterministic fresh names ``__{kind}{k}``, numbered per kind from one
    past the highest ``__{kind}{k}`` the signature already declares (so
    from 1 unless synthetic names were allowed in the input): __P{l} for
    sign predicates, __A{i} and __f{i}_{j} (kind ``f{i}_``) for counting
    blocks, __R{i} for definitional guards and __D{t} for Scott-reduction
    definitional predicates."""

    def __init__(self, signature: Signature):
        self.signature = signature
        self.counters: dict[str, int] = {}

    def fresh(self, kind: str, arity: int) -> str:
        """Declare and return the next synthetic predicate of ``kind``."""
        if kind not in self.counters:
            prefix = f"__{kind}"
            self.counters[kind] = max((int(p[len(prefix):]) for p in self.signature.predicates()
                                       if p.startswith(prefix) and p[len(prefix):].isdecimal()),
                                      default=0)
        k = self.counters[kind] = self.counters[kind] + 1
        name = f"__{kind}{k}"
        self.signature.declare(name, arity, synthetic=True)
        return name


class CountingBlock(Node):
    """One ``exactly-m successors`` occurrence: A(x) holds exactly when
    x has m guard successors.  ``f_preds`` are its successor predicates
    in the successor encoding (empty when the engine counts successors
    per element), and ``sign`` its inclusion-exclusion sign predicate,
    if it has one."""

    __slots__ = ("index", "guard", "m", "a_pred", "f_preds", "sign")

    def __init__(self, index: int, guard: str, m: int, a_pred: str,
                 f_preds: tuple[str, ...] = (), sign: str | None = None):
        _set(self, "index", index)
        _set(self, "guard", guard)
        _set(self, "m", m)
        _set(self, "a_pred", a_pred)
        _set(self, "f_preds", f_preds)
        _set(self, "sign", sign)

    @property
    def divisor_base(self) -> int:
        return math.factorial(self.m)


class NormalizedProblem:
    """The matrix, signs and counting blocks of a normalized problem, with
    ``constraint`` the user constraint plus the |A| = m constraints from
    single-variable counting, and the problem's weights."""

    def __init__(self, signature: Signature, matrix: tuple[Formula, ...],
                 sign_preds: tuple[str, ...], blocks: tuple[CountingBlock, ...],
                 constraint: CardConstraint = CARD_TRUE,
                 symmetric_weights: dict | None = None, profile_weight: object = None):
        self.signature = signature
        self.matrix = matrix
        self.sign_preds = sign_preds
        self.blocks = blocks
        self.constraint = constraint
        self.symmetric_weights = {} if symmetric_weights is None else symmetric_weights
        self.profile_weight = profile_weight

    @property
    def successors(self) -> bool:
        """True when the counting blocks use the successor encoding."""
        return any(b.f_preds for b in self.blocks)

    def tie_constraint(self) -> CardConstraint:
        """The induced |f_ij| = |A_i| ties of all counting blocks."""
        ties = []
        for b in self.blocks:
            for f in b.f_preds:
                ties.append(CardCompare("=", LinearExpr.card(f),
                                        LinearExpr.card(b.a_pred)))
        return card_conjoin(ties) if ties else CARD_TRUE

    def merged_constraint(self) -> CardConstraint:
        parts = []
        if self.constraint != CARD_TRUE:
            parts.append(self.constraint)
        tie = self.tie_constraint()
        if tie != CARD_TRUE:
            parts.append(tie)
        return card_conjoin(parts) if parts else CARD_TRUE

    def matrix_formula(self) -> Formula:
        return conjoin(self.matrix)


# ---------------------------------------------------------------------------
# Step 1: single-variable counting quantifiers -> cardinality constraints


def _distribute(sentence: Formula) -> list[Formula]:
    """Split into conjuncts, distributing universal quantifiers over
    conjunctions and dropping vacuous ones (the domain is never empty)."""
    if isinstance(sentence, And):
        return _distribute(sentence.left) + _distribute(sentence.right)
    if isinstance(sentence, Forall):
        parts = _distribute(sentence.body)
        return [Forall(sentence.var, p) if sentence.var in free_vars(p) else p
                for p in parts]
    return [sentence]


def extract_single_var_counting(sentence: Formula, alloc: NameAllocator
                                ) -> tuple[Formula, list[CardConstraint], list[Formula]]:
    """Replace top-level conjuncts of the form ``exists{cmp m} v (body(v))``
    by a constraint ``|A| cmp m`` with a fresh defining predicate A."""
    kept: list[Formula] = []
    constraints: list[CardConstraint] = []
    definitions: list[Formula] = []
    for part in _distribute(sentence):
        if (isinstance(part, Counting)
                and free_vars(part.body) <= {part.var}):
            a = alloc.fresh("A", 1)
            v = part.var
            definitions.append(Forall(v, Iff(Atom(a, (v,)), part.body)))
            constraints.append(CardCompare(part.cmp, LinearExpr.card(a),
                                           LinearExpr.of(part.count)))
        else:
            kept.append(part)
    return conjoin(kept) if kept else Forall("x", Eq("x", "x")), constraints, definitions


# ---------------------------------------------------------------------------
# Step 2: encode two-variable counting occurrences as blocks


def expand_counting_sugar(formula: Formula) -> Formula:
    """Rewrite so that only ``exists{=m}`` with m >= 1 remains: at-most
    becomes a disjunction of exact counts, at-least the negation of an
    at-most, and ``exists{=0}`` a universal negation."""
    subs = [expand_counting_sugar(s) for s in subformulas(formula)]
    if not isinstance(formula, Counting):
        return rebuild(formula, subs)
    (body,) = subs
    v, m = formula.var, formula.count
    if formula.cmp == "=":
        if m == 0:
            return Forall(v, Not(body))
        return Counting("=", m, v, body)
    if formula.cmp == "<=":
        return disjoin(expand_counting_sugar(Counting("=", k, v, body))
                       for k in range(m + 1))
    if formula.cmp == ">=":
        if m == 0:
            return Eq(v, v)  # trivially true
        return Not(expand_counting_sugar(Counting("<=", m - 1, v, body)))
    raise TypeError(f"not a formula: {formula!r}")


def encode_counting(sentence: Formula, alloc: NameAllocator
                    ) -> tuple[Formula, tuple[CountingBlock, ...]]:
    """Replace every ``exists{=m} v body(w,v)`` occurrence, m >= 1, with
    A_i(w) for a fresh A_i and the bare block (A_i, guard, m); a counting
    node with other comparisons or m = 0 is expanded into exact ones
    where it stands.  A body other than a guard atom G(w,v) gets a fresh
    definitional guard, whose axiom (w renamed to x, v to y) is
    conjoined."""
    blocks: list[CountingBlock] = []
    axioms: list[Formula] = []

    def walk(f: Formula, inside_counting: bool) -> Formula:
        if not isinstance(f, Counting):
            return rebuild(f, [walk(s, inside_counting) for s in subformulas(f)])
        if f.cmp != "=" or f.count < 1:
            return walk(expand_counting_sugar(f), inside_counting)
        if inside_counting:
            raise UnsupportedFeatureError(
                "nested counting quantifiers are not supported")
        body = walk(f.body, True)
        v = f.var
        w = other_variable(v)
        if free_vars(body) <= {v}:
            raise UnsupportedFeatureError(
                "a counting quantifier over a single-variable formula is "
                "only supported as a top-level conjunct")
        if isinstance(body, Atom) and body.args == (w, v):
            guard = body.pred
        else:
            guard = alloc.fresh("R", 2)
            axioms.append(Forall("x", Forall("y", Iff(
                Atom(guard, ("x", "y")), substitute(body, {w: "x", v: "y"})))))
        blocks.append(CountingBlock(len(blocks) + 1, guard, f.count, alloc.fresh("A", 1)))
        return Atom(blocks[-1].a_pred, (w,))

    replaced = walk(sentence, False)
    return conjoin([replaced, *axioms]), tuple(blocks)


# ---------------------------------------------------------------------------
# Step 3: Scott normal form


def _pull(f: Formula) -> Formula:
    """Pull quantifiers outward through connectives whose other side does
    not mention the bound variable; push negation through quantifiers."""
    if isinstance(f, (Atom, Eq)):
        return f
    if isinstance(f, Not):
        sub = _pull(f.sub)
        if isinstance(sub, Forall):
            return _pull(Exists(sub.var, Not(sub.body)))
        if isinstance(sub, Exists):
            return _pull(Forall(sub.var, Not(sub.body)))
        return Not(sub)
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, _pull(f.body))
    if isinstance(f, (And, Or, Implies)):
        left, right = _pull(f.left), _pull(f.right)
        kind = type(f)
        # right side quantified, left side free of its variable
        if isinstance(right, (Forall, Exists)) and right.var not in free_vars(left):
            inner = kind(left, right.body)
            quant = Forall if isinstance(right, Forall) else Exists
            return _pull(quant(right.var, inner))
        if isinstance(left, (Forall, Exists)) and left.var not in free_vars(right):
            if kind is Implies:
                # (forall v b) -> C  ==  exists v (b -> C), and dually
                quant = Exists if isinstance(left, Forall) else Forall
            else:
                quant = Forall if isinstance(left, Forall) else Exists
            return _pull(quant(left.var, kind(left.body, right)))
        if (kind is Or and isinstance(left, Exists) and isinstance(right, Exists)
                and left.var == right.var):
            return _pull(Exists(left.var, Or(left.body, right.body)))
        if (kind is And and isinstance(left, Forall) and isinstance(right, Forall)
                and left.var == right.var):
            return _pull(Forall(left.var, And(left.body, right.body)))
        return kind(left, right)
    if isinstance(f, Iff):
        return Iff(_pull(f.left), _pull(f.right))
    raise TypeError(f"not a formula: {f!r}")


def _strip_prefix(f: Formula) -> tuple[tuple[str, ...], Formula]:
    prefix: list[str] = []
    while isinstance(f, Forall):
        prefix.append(f.var)
        f = f.body
    return tuple(dict.fromkeys(prefix)), f


def _innermost_quantified(f: Formula, in_scope: tuple[str, ...]
                          ) -> tuple[Formula, tuple[str, ...]] | None:
    """Find a quantified subformula whose body is quantifier-free,
    together with the variables bound around its position."""
    if isinstance(f, (Forall, Exists)):
        deeper = _innermost_quantified(f.body, in_scope + (f.var,))
        if deeper is None and is_quantifier_free(f.body):
            return f, in_scope
        return deeper
    for sub in subformulas(f):
        found = _innermost_quantified(sub, in_scope)
        if found is not None:
            return found
    return None


def _replace_once(f: Formula, target: Formula, replacement: Formula) -> Formula:
    """Replace the node object ``target`` (every occurrence of that one
    object) by ``replacement``: a definitional predicate stands for one
    subformula wherever it occurs."""
    if f is target:
        return replacement
    return rebuild(f, [_replace_once(s, target, replacement)
                       for s in subformulas(f)])


def to_scott(sentence: Formula, alloc: NameAllocator
             ) -> tuple[list[Formula], list[Formula]]:
    """Reduce to Scott normal form: a list of quantifier-free matrix
    conjuncts plus a list of quantifier-free Psi_i, one per forall-exists
    conjunct (canonicalized so x is the universal variable)."""
    matrix: list[Formula] = []
    psis: list[Formula] = []
    pending = _distribute(sentence)
    while pending:
        conjunct = _pull(pending.pop(0))
        pending_split = _distribute(conjunct)
        if len(pending_split) > 1:
            pending = pending_split + pending
            continue
        prefix, core = _strip_prefix(conjunct)
        if is_quantifier_free(core):
            matrix.append(core)
            continue
        if isinstance(core, Iff) and not is_quantifier_free(core):
            rebuilt_a: Formula = Implies(core.left, core.right)
            rebuilt_b: Formula = Implies(core.right, core.left)
            for var in reversed(prefix):
                rebuilt_a = Forall(var, rebuilt_a)
                rebuilt_b = Forall(var, rebuilt_b)
            pending = [rebuilt_a, rebuilt_b] + pending
            continue
        if isinstance(core, Exists) and is_quantifier_free(core.body):
            v = core.var
            w = other_variable(v)
            if set(prefix) <= {w}:
                body = substitute(core.body, {w: "x", v: "y"})
                psis.append(body)
                continue
        # eliminate one innermost quantified subformula definitionally
        found = _innermost_quantified(core, prefix)
        if found is None:
            raise UnsupportedFeatureError(
                f"irreducible quantifier pattern in: {conjunct}")
        sub, scope = found
        v = sub.var
        w = other_variable(v)
        fv = free_vars(sub)
        carrier = next(iter(fv), None)
        if carrier is None:
            # closed subformula: the definitional predicate is constant
            # (its definition does not mention its argument)
            carrier = scope[0] if scope else w
        d = alloc.fresh("D", 1)
        d_atom = Atom(d, (carrier,))
        replaced = _replace_once(core, sub, d_atom)
        for var in reversed(prefix):
            replaced = Forall(var, replaced)
        for var in free_vars(replaced):
            replaced = Forall(var, replaced)
        # definition axioms, oriented with the defined variable as x
        def_var = carrier if fv else w
        d_x = Atom(d, (def_var,))
        body = sub.body
        if isinstance(sub, Exists):
            forward = Forall(def_var, Exists(v, Or(Not(d_x), body)))
            backward = Forall(def_var, Forall(v, Implies(body, d_x)))
        else:
            forward = Forall(def_var, Forall(v, Or(Not(d_x), body)))
            backward = Forall(def_var, Exists(v, Or(Not(body), d_x)))
        pending = [replaced, forward, backward] + pending
    return matrix, psis


# ---------------------------------------------------------------------------
# Step 4: sign predicates for the forall-exists conjuncts


def eliminate_existentials(matrix: list[Formula], psis: list[Formula],
                           alloc: NameAllocator
                           ) -> tuple[list[Formula], tuple[str, ...]]:
    """Fold each forall-exists conjunct into the matrix via a fresh sign
    predicate P_l with the conjunct P_l(x) -> !Psi_l(x,y)."""
    out = list(matrix)
    signs = []
    for psi in psis:
        p = alloc.fresh("P", 1)
        signs.append(p)
        out.append(Implies(Atom(p, ("x",)), Not(psi)))
    return out, tuple(signs)


# ---------------------------------------------------------------------------
# Full pipeline


def normalize(problem: Problem) -> NormalizedProblem:
    """Normalize a problem to the per-element normal form, with bare
    (A, guard, m) counting blocks."""
    signature = problem.signature.copy()
    alloc = NameAllocator(signature)
    sentence, single_constraints, definitions = extract_single_var_counting(
        problem.sentence, alloc)
    sentence, blocks = encode_counting(conjoin([sentence, *definitions]), alloc)
    matrix, psis = to_scott(sentence, alloc)
    matrix, signs = eliminate_existentials(matrix, psis, alloc)
    for conjunct in matrix:
        if not is_quantifier_free(conjunct):
            raise UnsupportedFeatureError(f"matrix conjunct not reduced: {conjunct}")
    constraint = card_conjoin([problem.constraint, *single_constraints])
    if isinstance(constraint, CardAnd) and not constraint.parts:
        constraint = CARD_TRUE
    return NormalizedProblem(
        signature=signature,
        matrix=tuple(matrix),
        sign_preds=signs,
        blocks=blocks,
        constraint=constraint,
        symmetric_weights=dict(problem.symmetric_weights),
        profile_weight=problem.profile_weight,
    )


def successor_encoding(norm: NormalizedProblem, signed: Collection[int] = ()
                       ) -> NormalizedProblem:
    """The source paper's successor encoding of the per-element normal form
    ``norm``, one block at a time: m fresh binary predicates f_j with
    A(x) -> (G(x,y) <-> f_1 | ... | f_m), pairwise disjointness and the
    forall-exists conjuncts A(x) -> f_j(x,y), signed like the problem's
    own.  A block whose index is in ``signed`` also gets a sign predicate
    S with S(x) -> A(x), and each matrix occurrence A(t) becomes
    A(t) & !S(t).  The block signs take the lowest __P numbers, the
    problem's own signs the next ones."""
    old = set(norm.sign_preds)
    signature = Signature({p: a for p, a in norm.signature.arities.items() if p not in old},
                          norm.signature.synthetic - old)
    alloc = NameAllocator(signature)
    signs = {b.a_pred: alloc.fresh("P", 1) for b in norm.blocks if b.index in signed}
    renamed = {p: alloc.fresh("P", 1) for p in norm.sign_preds}

    def rewrite(f: Formula) -> Formula:
        if isinstance(f, Atom) and f.pred in signs:
            return And(f, Not(Atom(signs[f.pred], f.args)))
        if isinstance(f, Atom) and f.pred in renamed:
            return Atom(renamed[f.pred], f.args)
        return rebuild(f, [rewrite(s) for s in subformulas(f)])

    matrix, psis, blocks = [rewrite(c) for c in norm.matrix], [], []
    for b in norm.blocks:
        fs = tuple(alloc.fresh(f"f{b.index}_", 2) for _ in range(b.m))
        f_atoms = [Atom(name, ("x", "y")) for name in fs]
        a_x = Atom(b.a_pred, ("x",))
        matrix.append(Implies(a_x, Iff(Atom(b.guard, ("x", "y")), disjoin(f_atoms))))
        matrix += [Implies(p, Not(q)) for p, q in combinations(f_atoms, 2)]
        psis += [Implies(a_x, fa) for fa in f_atoms]
        sign = signs.get(b.a_pred)
        if sign:
            matrix.append(Implies(Atom(sign, ("x",)), a_x))
        blocks.append(CountingBlock(b.index, b.guard, b.m, b.a_pred, fs, sign))
    matrix, f_signs = eliminate_existentials(matrix, psis, alloc)
    return NormalizedProblem(
        signature=signature,
        matrix=tuple(matrix),
        sign_preds=(*signs.values(), *renamed.values(), *f_signs),
        blocks=tuple(blocks),
        constraint=norm.constraint,
        symmetric_weights=norm.symmetric_weights,
        profile_weight=norm.profile_weight,
    )


def dump_normalized(norm: NormalizedProblem) -> str:
    """Render the normalized problem in the input grammar (synthetic
    predicates included); the sign predicates become a comment."""
    lines = []
    for name in norm.signature.predicates():
        mark = "  # synthetic" if name in norm.signature.synthetic else ""
        lines.append(f"predicate {name}/{norm.signature.arity(name)}{mark}")
    body = norm.matrix_formula()
    lines.append(str(Forall("x", Forall("y", body))))
    merged = norm.merged_constraint()
    if merged != CARD_TRUE:
        parts = merged.parts if isinstance(merged, CardAnd) else (merged,)
        for part in parts:
            lines.append(f"constraint {part}")
    if norm.sign_preds:
        lines.append(f"# signs {' '.join(norm.sign_preds)}")
    return "\n".join(lines) + "\n"
