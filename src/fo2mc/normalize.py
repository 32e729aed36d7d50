"""Rewrites a parsed sentence into the engine's canonical form.

``normalize`` returns the per-element normal form.  ``to_scott`` brings
the sentence to Scott normal form (one universal matrix plus
forall-exists conjuncts) in one loop that replaces an innermost
quantified subformula per step by a fresh unary predicate, one per
distinct subformula: ``exists`` and ``forall`` by a definitional D, and
``exists{cmp m}`` by a block, a fresh unary predicate A standing for the
occurrence, its guard, cmp and m, with no axioms: A means "the guard
degree lies in the block's span", which the engine enforces per element
on matrices whose 2-tables factor per direction.  ``=0``, ``<=0``,
``>=1`` and ``>=0`` are rewritten where they stand, ``>=m`` as
``!<=m-1`` (at least m and at most m-1 share one block), and a closed
counting quantifier that is a whole top-level conjunct becomes a
cardinality constraint on a fresh unary predicate.
Innermost first, a quantifier in a counting body, one that reuses a
variable included, is replaced before the body is read.
``eliminate_existentials`` then folds each exists-conjunct into the
matrix through a fresh sign predicate, whose true atoms weigh -1
(``NormalizedProblem.literal_weights``, the synthetic predicates' weights).

``successor_encoding`` rewrites that form into the source paper's
encoding, the engine's fallback for every other matrix: per block of span
lo..hi one chain of hi fresh binary slots f_j, which split an A-element's
guard edges, and nested unary indicators I_j, true when f_j is filled,
weighing 1/j each and tied by |f_j| = |I_j|: an element of degree d fills
d slots in d! orders and weighs 1/d!.  I_j is A itself for j <= lo (an
exact block is the paper's encoding, with 1/m! on A).  Where the matrix
does not pin A (``block_pinned``), a block gets a sign predicate S with
S(x) -> A(x), each occurrence read as A(w) & !S(w): summing (-1)^|S| over
S within A and the chain within the span leaves exactly the elements
whose degree lies in the span, so the count is exact.  A pinned block
whose span holds 0 has A forced true: A serves as I_1, every element's
guard edges fill the slots, and its occurrences read true.

Each rewriting walker spells out only the nodes it changes and reaches
every other node through ``logic.subformulas`` and ``logic.rebuild``.
Fresh synthetic predicates come from ``NameAllocator.fresh``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .cells import CellStructure, check_table_bits
from .errors import SemanticError, UnsupportedFeatureError
from .logic import (TRUE, And, Atom, CARD_TRUE, CardAnd, CardCompare,
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
    """One ``exists{cmp m}`` occurrence, cmp ``=`` or ``<=``: A(x) holds
    exactly when x's guard degree lies in ``span``; in the successor
    encoding, with its slots ``f_preds``, their ``indicators`` (A for the
    slots up to lo) and its ``sign``, if any."""

    __slots__ = ("index", "guard", "cmp", "m", "a_pred", "f_preds", "indicators", "sign")

    def __init__(self, index: int, guard: str, cmp: str, m: int, a_pred: str,
                 f_preds: tuple[str, ...] = (), indicators: tuple[str, ...] = (),
                 sign: str | None = None):
        _set(self, "index", index)
        _set(self, "guard", guard)
        _set(self, "cmp", cmp)
        _set(self, "m", m)
        _set(self, "a_pred", a_pred)
        _set(self, "f_preds", f_preds)
        _set(self, "indicators", indicators)
        _set(self, "sign", sign)

    @property
    def span(self) -> tuple[int, int]:
        """The degrees lo..hi A reads: m, or 0..m for at-most."""
        return (self.m, self.m) if self.cmp == "=" else (0, self.m)


class NormalizedProblem:
    """The matrix, signs and counting blocks of a normalized problem, with
    ``constraint`` the user constraint plus the |A| = m constraints from
    single-variable counting, the problem's weights and ``literal_weights``."""

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
    def literal_weights(self) -> dict[str, tuple[Fraction, Fraction]]:
        """The synthetic predicates' (true, false) weights: -1 for a sign, and
        1/j for the j-th indicator of a chain (1/m! on an exact block's A)."""
        weights, divisors = dict.fromkeys(self.sign_preds, (-1, 1)), {}
        for b in self.blocks:
            for j, pred in enumerate(b.indicators, 1):
                divisors[pred] = divisors.get(pred, 1) * j
        weights.update((p, (Fraction(1, d), 1)) for p, d in divisors.items() if d > 1)
        return weights

    @property
    def successors(self) -> bool:
        """True when the counting blocks use the successor encoding."""
        return any(b.f_preds for b in self.blocks)

    def tie_constraint(self) -> CardConstraint:
        """The induced |f_j| = |I_j| ties of every chain's slots."""
        return card_conjoin([CardCompare("=", LinearExpr.card(f), LinearExpr.card(i))
                             for b in self.blocks for f, i in zip(b.f_preds, b.indicators)])

    def merged_constraint(self) -> CardConstraint:
        return card_conjoin([self.constraint, self.tie_constraint()])

    def matrix_formula(self) -> Formula:
        return conjoin(self.matrix)


# ---------------------------------------------------------------------------
# Step 1: Scott normal form, with counting blocks


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


#: (connective, left quantifier, right quantifier) -> the one quantifier
#: their same-variable sides merge into
_MERGES = {(Or, Exists, Exists): Exists, (And, Forall, Forall): Forall,
           (Implies, Forall, Exists): Exists}


def _pull(f: Formula) -> Formula:
    """Pull quantifiers outward through connectives whose other side does
    not mention the bound variable; push negation through quantifiers and
    drop double negations.  A counting quantifier stays where it stands,
    but ``=0`` and ``<=0`` become ``forall v !body``, ``>=1`` ``exists v
    body``, ``>=0`` true and ``>=m`` ``!<=m-1``: every block counts = or <=."""
    if isinstance(f, (Atom, Eq)):
        return f
    if isinstance(f, Not):
        sub = _pull(f.sub)
        if isinstance(sub, Not):
            return sub.sub
        if isinstance(sub, Forall):
            return _pull(Exists(sub.var, Not(sub.body)))
        if isinstance(sub, Exists):
            return _pull(Forall(sub.var, Not(sub.body)))
        return Not(sub)
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, _pull(f.body))
    if isinstance(f, Counting):
        if f.count == 0 and f.cmp != ">=":
            return _pull(Forall(f.var, Not(f.body)))
        if f.cmp == ">=" and f.count < 2:
            return _pull(Exists(f.var, f.body)) if f.count else Eq(f.var, f.var)
        if f.cmp == ">=":
            return Not(Counting("<=", f.count - 1, f.var, _pull(f.body)))
        return rebuild(f, [_pull(f.body)])
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
    """Find a quantified (or counting) subformula whose body is
    quantifier-free, together with the variables bound around its position."""
    if isinstance(f, (Forall, Exists, Counting)):
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
             ) -> tuple[list[Formula], list[Formula], tuple[CountingBlock, ...],
                        list[CardConstraint]]:
    """Reduce to Scott normal form: quantifier-free matrix conjuncts, one
    quantifier-free Psi_i per forall-exists conjunct (canonicalized so x is
    the universal variable), the counting blocks and the constraints of
    single-variable counting.

    One loop eliminates an innermost quantified subformula per step, each
    distinct one (renamed so that its free variable is x) for one fresh
    unary predicate: ``exists`` and ``forall`` a definitional D, with its
    two axioms, and ``exists{cmp m} v body(w,v)`` an A for the block
    (A, guard, cmp, m).  The guard is G for the body G(w,v), else one
    definitional __R per distinct body (w renamed x, v renamed y), so
    that occurrences counting the same body share a guard degree.  A
    closed counting quantifier is a constraint |A| cmp m with A(v) <-> body
    when it is a whole top-level conjunct, and refused anywhere else."""
    matrix: list[Formula] = []
    psis: list[Formula] = []
    blocks: list[CountingBlock] = []
    constraints: list[CardConstraint] = []
    defined: dict[Formula, str] = {}
    guards: dict[Formula, str] = {}
    pending = _distribute(sentence)
    while pending:
        conjunct = pending.pop(0)
        if isinstance(conjunct, Counting) and not free_vars(conjunct):
            a, v = alloc.fresh("A", 1), conjunct.var
            constraints.append(CardCompare(conjunct.cmp, LinearExpr.card(a),
                                           LinearExpr.of(conjunct.count)))
            pending.append(Forall(v, Iff(Atom(a, (v,)), conjunct.body)))
            continue
        # pulling keeps the connective under the universal prefix, so a
        # conjunct ``_distribute`` left whole needs no second split
        conjunct = _pull(conjunct)
        prefix, core = _strip_prefix(conjunct)
        if is_quantifier_free(core):
            matrix.append(core)
            continue
        if isinstance(core, Iff):
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
        found = _innermost_quantified(core, prefix)
        if found is None:
            raise UnsupportedFeatureError(
                f"irreducible quantifier pattern in: {conjunct}")
        sub, scope = found
        v = sub.var
        w = other_variable(v)
        fv = free_vars(sub)
        if isinstance(sub, Counting) and not fv:
            raise UnsupportedFeatureError(
                "a counting quantifier over a single-variable formula is "
                "only supported as a top-level conjunct")
        carrier = next(iter(fv), None)
        if carrier is None:
            # closed subformula: the definitional predicate is constant
            # (its definition does not mention its argument)
            carrier = scope[0] if scope else w
        key = substitute(sub, {"x": "y", "y": "x"}) if fv == {"y"} else sub
        axioms: list[Formula] = []
        if key not in defined:
            d = defined[key] = alloc.fresh("A" if isinstance(sub, Counting) else "D", 1)
            body = sub.body
            if isinstance(sub, Counting):
                if isinstance(body, Atom) and body.args == (w, v):
                    guard = body.pred
                else:
                    renamed = substitute(body, {w: "x", v: "y"})
                    if renamed not in guards:
                        guards[renamed] = alloc.fresh("R", 2)
                        pending.append(Forall("x", Forall("y", Iff(
                            Atom(guards[renamed], ("x", "y")), renamed))))
                    guard = guards[renamed]
                blocks.append(CountingBlock(len(blocks) + 1, guard, sub.cmp, sub.count, d))
            else:
                # definition axioms, oriented with the defined variable as x
                def_var = carrier if fv else w
                d_x = Atom(d, (def_var,))
                if isinstance(sub, Exists):
                    axioms = [Forall(def_var, Exists(v, Or(Not(d_x), body))),
                              Forall(def_var, Forall(v, Implies(body, d_x)))]
                else:
                    axioms = [Forall(def_var, Forall(v, Or(Not(d_x), body))),
                              Forall(def_var, Exists(v, Or(Not(body), d_x)))]
        replaced = _replace_once(core, sub, Atom(defined[key], (carrier,)))
        for var in reversed(prefix):
            replaced = Forall(var, replaced)
        pending = [replaced, *axioms] + pending
    return matrix, psis, tuple(blocks), constraints


# ---------------------------------------------------------------------------
# Step 2: sign predicates for the forall-exists conjuncts


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
    matrix, psis, blocks, constraints = to_scott(problem.sentence, alloc)
    matrix, signs = eliminate_existentials(matrix, psis, alloc)
    for conjunct in matrix:
        if not is_quantifier_free(conjunct):
            raise UnsupportedFeatureError(f"matrix conjunct not reduced: {conjunct}")
    return NormalizedProblem(
        signature=signature,
        matrix=tuple(matrix),
        sign_preds=signs,
        blocks=blocks,
        constraint=card_conjoin([problem.constraint, *constraints]),
        symmetric_weights=dict(problem.symmetric_weights),
        profile_weight=problem.profile_weight,
    )


def block_pinned(cells: CellStructure, block: CountingBlock) -> bool:
    """True when the matrix of ``cells`` pins A to the elements whose guard
    degree lies in the span: for ``=m``, when it forces every guard edge to
    start in A; for a span holding 0, when no valid type lies outside A."""
    a_slot = cells.u_slot_index(block.a_pred, "unary")
    g_refl = cells.u_slot_index(block.guard, "reflexive")
    g_xy = cells.b_slot_index(block.guard, "xy")
    outside = [i for i in cells.valid if not cells.type_bit(i, a_slot)]
    if block.cmp != "=":  # an element outside the span may have no guard edge
        return not outside
    if any(cells.type_bit(i, g_refl) for i in outside):
        return False
    # a guard edge from i is an x->y bit of a 2-table with i on the x side,
    # and the members of a class allow the same 2-tables toward every type
    class_of = {t: c for c, members in enumerate(cells.classes) for t in members}
    starts = {class_of[i]: i for i in outside}.values()
    return not any(cells.table_bit(v, g_xy) for i in starts
                   for members in cells.classes for v in cells.tables(i, members[0]))


def successor_encoding(norm: NormalizedProblem, cells: CellStructure | None = None
                       ) -> NormalizedProblem:
    """The source paper's successor encoding of the per-element normal form
    ``norm``, one chain per block of span lo..hi: hi fresh binary slots f_j,
    pairwise disjoint, with A(x) -> (G(x,y) <-> f_1 | ... | f_hi), and
    indicators I_j with the forall-exists conjuncts I_j(x) -> f_j(x,y),
    signed like the problem's own, I_{j+1} -> I_j and I_1 -> A; I_j is A
    for j <= lo.  A block that ``cells``, ``norm``'s per-element cells, do
    not pin (``block_pinned``), or any block without cells, gets a sign
    predicate S with S(x) -> A(x), and each occurrence A(t) reads
    A(t) & !S(t): a sign is exact whether or not A is pinned, and costs
    table bits.  A pinned block whose span holds 0 has A forced true by the
    matrix: A serves as I_1, G <-> f_1 | ... | f_hi holds for every x, and
    its occurrences read true (a conjunct this makes true is dropped).
    Cells of another signature or matrix are refused; an encoded ``norm``
    is its own encoding.  Oversize encodings are refused before any axiom
    is built: each f_j adds a type slot, two table slots and an existence sign."""
    if cells is not None and (cells.signature, cells.matrix) != (norm.signature, norm.matrix):
        raise SemanticError("cells built for another normal form")
    if norm.successors:
        return norm
    signed = {b.index for b in norm.blocks if cells is None or not block_pinned(cells, b)}
    forced = {b.a_pred for b in norm.blocks if b.index not in signed and b.span[0] == 0}
    u, b = len(norm.signature.arities), 2 * len(norm.signature.binary_predicates())
    for block in norm.blocks:
        lo, hi = block.span
        u += 3 * hi - lo + (block.index in signed) - (block.a_pred in forced)
        b += 2 * hi
    check_table_bits(u, b)
    signature = norm.signature.copy()
    alloc = NameAllocator(signature)
    signs = {b.a_pred: alloc.fresh("P", 1) for b in norm.blocks if b.index in signed}

    def rewrite(f: Formula) -> Formula:
        if isinstance(f, Atom) and f.pred in forced:
            return TRUE
        if isinstance(f, Atom) and f.pred in signs:
            return And(f, Not(Atom(signs[f.pred], f.args)))
        return rebuild(f, [rewrite(s) for s in subformulas(f)])

    # a conjunct the rewrite makes true goes; one the input wrote as true stays
    matrix = [r for c in norm.matrix if (r := rewrite(c)) != TRUE or c == TRUE]
    psis, blocks = [], []
    for b in norm.blocks:
        guard, sign, a_x = Atom(b.guard, ("x", "y")), signs.get(b.a_pred), Atom(b.a_pred, ("x",))
        lo, hi = b.span
        fs = tuple(alloc.fresh(f"f{b.index}_", 2) for _ in range(hi))
        own = max(lo, b.a_pred in forced)  # the slots whose indicator is A
        indicators = (b.a_pred,) * own + tuple(alloc.fresh("A", 1) for _ in range(own, hi))
        f_atoms = [Atom(name, ("x", "y")) for name in fs]
        i_atoms = [Atom(name, ("x",)) for name in indicators]
        split = Iff(guard, disjoin(f_atoms))
        matrix.append(split if b.a_pred in forced else Implies(a_x, split))
        matrix += [Implies(p, Not(q)) for p, q in combinations(f_atoms, 2)]
        matrix += [Implies(p, q) for p, q in zip(i_atoms, [a_x, *i_atoms]) if p != q]
        psis += map(Implies, i_atoms, f_atoms)
        if sign:
            matrix.append(Implies(Atom(sign, ("x",)), a_x))
        blocks.append(CountingBlock(b.index, b.guard, b.cmp, b.m, b.a_pred, fs, indicators, sign))
    matrix, f_signs = eliminate_existentials(matrix, psis, alloc)
    return NormalizedProblem(
        signature=signature,
        matrix=tuple(matrix),
        sign_preds=(*norm.sign_preds, *signs.values(), *f_signs),
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
