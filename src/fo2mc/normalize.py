"""Rewrites a parsed sentence into the engine's canonical form.

``normalize`` returns the per-element normal form.  Single-variable
counting quantifiers become cardinality constraints on fresh unary
predicates; any other ``exists{cmp m}`` becomes a block, a fresh unary
predicate A standing for the occurrence, its guard, cmp and m, with no
axioms: A means "the guard degree lies in the block's span" (outside it
for at-least), which the engine enforces per element on matrices whose
2-tables factor per direction.  ``=0``, ``<=0``, ``>=1`` and ``>=0`` are
rewritten where they stand.  The result is brought to Scott normal form
(one universal matrix plus forall-exists conjuncts), and each
exists-conjunct is folded into the matrix through a fresh sign predicate.

``successor_encoding`` rewrites that form into the source paper's
encoding, the engine's fallback for every other matrix: per degree k of a
block's span, k fresh binary predicates f_j with axioms that make A_k a
subset of the exactly-k set E_k, a 1/k! divisor per A_k-element and ties
|f_j| = |A_k|; the union of the A_k stands for A.  Where the matrix does
not pin it to the union of the E_k, a block in ``signed`` gets a sign
predicate S with S(x) -> union(x), each occurrence read as
union(w) & !S(w): summing (-1)^|S| over S within the union and each A_k
within E_k leaves exactly the union of the E_k, so the count is exact.
A pinned block whose span holds 0 leaves A_0 implicit: the elements
outside every other A_k have no guard edge, every element's degree is in
the span, and its occurrences, which the matrix forces, read true (false
for at-least).

Each rewriting walker spells out only the nodes it changes and reaches
every other node through ``logic.subformulas`` and ``logic.rebuild``.
Fresh synthetic predicates come from ``NameAllocator.fresh``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection

from .cells import check_table_bits
from .errors import UnsupportedFeatureError
from .logic import (FALSE, TRUE, And, Atom, CARD_TRUE, CardAnd, CardCompare,
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
    """One ``exists{cmp m}`` occurrence: A(x) holds exactly when x's guard
    degree lies in ``span`` (outside it for ``>=``); in the successor
    encoding, the exact block of one degree of occurrence ``index``, with its
    successor predicates ``f_preds`` and the occurrence's ``sign``, if any."""

    __slots__ = ("index", "guard", "cmp", "m", "a_pred", "f_preds", "sign")

    def __init__(self, index: int, guard: str, cmp: str, m: int, a_pred: str,
                 f_preds: tuple[str, ...] = (), sign: str | None = None):
        _set(self, "index", index)
        _set(self, "guard", guard)
        _set(self, "cmp", cmp)
        _set(self, "m", m)
        _set(self, "a_pred", a_pred)
        _set(self, "f_preds", f_preds)
        _set(self, "sign", sign)

    @property
    def span(self) -> tuple[int, int]:
        """The degrees lo..hi A reads: m, 0..m for at-most, 0..m-1 for at-least."""
        return (self.m, self.m) if self.cmp == "=" else (0, self.m - (self.cmp == ">="))


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
        return card_conjoin([CardCompare("=", LinearExpr.card(f), LinearExpr.card(b.a_pred))
                             for b in self.blocks for f in b.f_preds])

    def merged_constraint(self) -> CardConstraint:
        return card_conjoin([self.constraint, self.tie_constraint()])

    def matrix_formula(self) -> Formula:
        return conjoin(self.matrix)


# ---------------------------------------------------------------------------
# Step 1: single-variable counting quantifiers -> cardinality constraints


def _distribute(sentence: Formula, bound: tuple[str, ...] = ()) -> list[Formula]:
    """Split into conjuncts, distributing universal quantifiers (``bound``
    around the sentence, outermost first) over conjunctions and dropping
    vacuous ones (the domain is never empty)."""
    if isinstance(sentence, And):
        return _distribute(sentence.left, bound) + _distribute(sentence.right, bound)
    if isinstance(sentence, Forall):
        return _distribute(sentence.body, bound + (sentence.var,))
    free = free_vars(sentence) if bound else ()
    for var in reversed(bound):
        if var in free:
            sentence, free = Forall(var, sentence), free - {var}
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


def encode_counting(sentence: Formula, alloc: NameAllocator
                    ) -> tuple[Formula, tuple[CountingBlock, ...]]:
    """Replace every ``exists{cmp m} v body(w,v)`` occurrence with A_i(w)
    for a fresh A_i and the bare block (A_i, guard, cmp, m), but ``=0`` and
    ``<=0`` by ``forall v !body``, ``>=1`` by ``exists v body`` and ``>=0``
    by true.  A body other than a guard atom G(w,v) gets a definitional
    guard, whose axiom (w renamed to x, v to y) is conjoined: one per
    distinct body so renamed, so that occurrences counting the same body
    share a guard degree."""
    blocks: list[CountingBlock] = []
    guards: dict[Formula, str] = {}

    def walk(f: Formula, inside_counting: bool) -> Formula:
        if not isinstance(f, Counting):
            return rebuild(f, [walk(s, inside_counting) for s in subformulas(f)])
        v = f.var
        if f.count == 0 and f.cmp != ">=":
            return Forall(v, Not(walk(f.body, inside_counting)))
        if f.cmp == ">=" and f.count < 2:
            return Exists(v, walk(f.body, inside_counting)) if f.count else Eq(v, v)
        if inside_counting:
            raise UnsupportedFeatureError(
                "nested counting quantifiers are not supported")
        body = walk(f.body, True)
        w = other_variable(v)
        if free_vars(body) <= {v}:
            raise UnsupportedFeatureError(
                "a counting quantifier over a single-variable formula is "
                "only supported as a top-level conjunct")
        if isinstance(body, Atom) and body.args == (w, v):
            guard = body.pred
        else:
            renamed = substitute(body, {w: "x", v: "y"})
            guard = guards.get(renamed) or guards.setdefault(renamed, alloc.fresh("R", 2))
        blocks.append(CountingBlock(len(blocks) + 1, guard, f.cmp, f.count, alloc.fresh("A", 1)))
        return Atom(blocks[-1].a_pred, (w,))

    replaced = walk(sentence, False)
    return conjoin([replaced, *(Forall("x", Forall("y", Iff(Atom(g, ("x", "y")), body)))
                                for body, g in guards.items())]), tuple(blocks)


# ---------------------------------------------------------------------------
# Step 3: Scott normal form


#: (connective, left quantifier, right quantifier) -> the one quantifier
#: their same-variable sides merge into
_MERGES = {(Or, Exists, Exists): Exists, (And, Forall, Forall): Forall,
           (Implies, Forall, Exists): Exists}


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
        # both sides quantifying one variable merge: exists over |, forall
        # over &, and (forall v a) -> (exists v b) as exists v (a -> b)
        merged = _MERGES.get((kind, type(left), type(right)))
        if merged and left.var == right.var:
            return _pull(merged(left.var, kind(left.body, right.body)))
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
        # pulling keeps the connective under the universal prefix, so a
        # conjunct ``_distribute`` left whole needs no second split
        conjunct = _pull(pending.pop(0))
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
    (A, guard, cmp, m) counting blocks."""
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
    return NormalizedProblem(
        signature=signature,
        matrix=tuple(matrix),
        sign_preds=signs,
        blocks=blocks,
        constraint=card_conjoin([problem.constraint, *single_constraints]),
        symmetric_weights=dict(problem.symmetric_weights),
        profile_weight=problem.profile_weight,
    )


def successor_encoding(norm: NormalizedProblem, signed: Collection[int] = ()
                       ) -> NormalizedProblem:
    """The source paper's successor encoding of the per-element normal form
    ``norm``, per degree k of each block's span: k fresh binary predicates
    f_j with A_k(x) -> (G(x,y) <-> f_1 | ... | f_k), pairwise disjointness
    and the forall-exists conjuncts A_k(x) -> f_j(x,y), signed like the
    problem's own; A_k is A for the highest k, else fresh.  A block whose
    index is in ``signed`` also gets a sign predicate S with S(x) -> A_k(x)
    for some k.  Each occurrence A(t) reads the union of the A_k (and !S(t)),
    negated for at-least.  A block not in ``signed`` whose span holds 0 has
    no A_0 but the axiom !(A_1 | ... | A_hi)(x) -> !G(x,y), and its
    occurrences read true (false for at-least): a conjunct that this makes
    true is dropped.  The block signs take the lowest __P numbers, the
    problem's own signs the next ones.  Oversize encodings are refused
    before any axiom is built: each f_j adds a type slot, two table slots
    and an existence sign."""
    implicit = {b.a_pred for b in norm.blocks if b.index not in signed and b.span[0] == 0}
    u, b = len(norm.signature.arities), 2 * len(norm.signature.binary_predicates())
    for block in norm.blocks:
        lo, hi = block.span
        fs = (lo + hi) * (hi - lo + 1) // 2
        u += 2 * fs + hi - lo + (block.index in signed) - (block.a_pred in implicit)
        b += 2 * fs
    check_table_bits(u, b)
    old = set(norm.sign_preds)
    signature = Signature({p: a for p, a in norm.signature.arities.items() if p not in old},
                          norm.signature.synthetic - old)
    alloc = NameAllocator(signature)
    signs = {b.a_pred: alloc.fresh("P", 1) for b in norm.blocks if b.index in signed}
    renamed = {p: alloc.fresh("P", 1) for p in norm.sign_preds}
    first = {b.a_pred: b.span[0] + (b.a_pred in implicit) for b in norm.blocks}
    unions = {b.a_pred: [*(alloc.fresh("A", 1) for _ in range(first[b.a_pred], b.span[1])),
                         b.a_pred] for b in norm.blocks}
    at_least = {b.a_pred for b in norm.blocks if b.cmp == ">="}

    def rewrite(f: Formula) -> Formula:
        if isinstance(f, Atom) and f.pred in implicit:
            return FALSE if f.pred in at_least else TRUE
        if isinstance(f, Atom) and f.pred in unions:
            seen = disjoin(Atom(a, f.args) for a in unions[f.pred])
            if f.pred in signs:
                seen = And(seen, Not(Atom(signs[f.pred], f.args)))
            return Not(seen) if f.pred in at_least else seen
        if isinstance(f, Atom) and f.pred in renamed:
            return Atom(renamed[f.pred], f.args)
        return rebuild(f, [rewrite(s) for s in subformulas(f)])

    # a conjunct the rewrite makes true goes; one the input wrote as true stays
    matrix = [r for c in norm.matrix if (r := rewrite(c)) != TRUE or c == TRUE]
    psis, blocks = [], []
    for b in norm.blocks:
        guard, sign, union = Atom(b.guard, ("x", "y")), signs.get(b.a_pred), unions[b.a_pred]
        for k, a_pred in enumerate(union, first[b.a_pred]):
            fs = tuple(alloc.fresh(f"f{b.index}_", 2) for _ in range(k))
            f_atoms = [Atom(name, ("x", "y")) for name in fs]
            a_x = Atom(a_pred, ("x",))
            matrix.append(Implies(a_x, Iff(guard, disjoin(f_atoms)) if fs else Not(guard)))
            matrix += [Implies(p, Not(q)) for p, q in combinations(f_atoms, 2)]
            psis += [Implies(a_x, fa) for fa in f_atoms]
            blocks.append(CountingBlock(b.index, b.guard, "=", k, a_pred, fs, sign))
        if b.a_pred in implicit:
            matrix.append(Implies(Not(disjoin(Atom(a, ("x",)) for a in union)), Not(guard)))
        if sign:
            matrix.append(Implies(Atom(sign, ("x",)), disjoin(Atom(a, ("x",)) for a in union)))
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
    for part in merged.parts if isinstance(merged, CardAnd) else (merged,):
        lines.append(f"constraint {part}")
    if norm.sign_preds:
        lines.append(f"# signs {' '.join(norm.sign_preds)}")
    return "\n".join(lines) + "\n"
