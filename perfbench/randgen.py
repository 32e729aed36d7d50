"""Seeded random problems for the ``small_random`` workload.

The shapes follow the repository's property-test generator
(``tests/conftest.py``): a universal matrix over two unary predicates and
one binary predicate, optionally a forall-exists conjunct, a counting
conjunct in a shape the matrix pins, and a cardinality constraint.  On top
of those, a fixed share of problems carries an *unpinned* counting
conjunct (the counted set is not forced by the matrix) and a fixed share
carries symmetric weights and is asked as ``wfomc``.

Problems are emitted as problem-file text written by this module, so the
program under test sees only its documented input format.  The problems'
shapes and formulas come from a fixed design seed; the run's seed draws
the constraint bounds and weight values, which leave a query's cost
unchanged.  Per-problem cost is heavy-tailed (a counting conjunct with
multiplicity 2 on the unpinned path can cost a hundred times a plain
matrix), so with seeded formulas the cost of a pass varied by a third
from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PREAMBLE = "predicate A/1\npredicate B/1\npredicate R/2\n"

MATRIX_ATOMS = ("A(x)", "A(y)", "B(x)", "B(y)", "R(x,x)", "R(x,y)",
                "R(y,x)", "R(y,y)", "x = y")
EXISTS_ATOMS = ("A(x)", "B(x)", "R(x,y)", "R(y,x)")

#: counting conjuncts the matrix pins (every guard edge starts in the
#: counted set), as emitted by the property-test generator
PINNED_SHAPES = ("forall x exists{{={m}}} y R(x,y)",
                 "forall x (forall y !R(x,y) | exists{{={m}}} y R(x,y))")

#: counting conjuncts whose counted set is not pinned by the matrix
UNPINNED_SHAPES = ("forall x (A(x) | exists{{={m}}} y R(x,y))",
                   "forall x !(exists{{={m}}} y R(x,y))",
                   "exists x exists{{={m}}} y R(x,y)",
                   "forall x (A(x) <-> exists{{={m}}} y R(x,y))",
                   "forall x (B(x) -> exists{{={m}}} y R(x,y))")

WEIGHT_VALUES = ("1", "2", "3", "0.5")


@dataclass(frozen=True)
class RandomProblem:
    name: str
    text: str
    weighted: bool
    unpinned: bool


def random_qf(rng: random.Random, atoms, depth: int) -> str:
    """A fully parenthesized quantifier-free formula over ``atoms``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(5)
    if kind == 0:
        return f"!({random_qf(rng, atoms, depth - 1)})"
    left = random_qf(rng, atoms, depth - 1)
    right = random_qf(rng, atoms, depth - 1)
    op = ("&", "|", "->", "<->")[kind - 1]
    return f"({left} {op} {right})"


def _quota(rng: random.Random, count: int, share: float) -> list[bool]:
    hits = round(count * share)
    flags = [True] * hits + [False] * (count - hits)
    rng.shuffle(flags)
    return flags


#: seed of the fixed problem design
DESIGN_SEED = 0


def random_problems(seed: int, count: int = 200, unpinned_share: float = 0.2,
                    weighted_share: float = 0.25) -> list[RandomProblem]:
    design = random.Random(DESIGN_SEED)
    unpinned = _quota(design, count, unpinned_share)
    weighted = _quota(design, count, weighted_share)
    exists = _quota(design, count, 0.5)
    counting = _quota(design, count, 0.5)
    constrained = _quota(design, count, 0.4)
    rng = random.Random(seed)
    problems = []
    for k in range(count):
        conjuncts = [f"forall x forall y {random_qf(design, MATRIX_ATOMS, design.randrange(1, 4))}"]
        if exists[k]:
            conjuncts.append(f"forall x exists y {random_qf(design, EXISTS_ATOMS, 2)}")
        m = design.choice((1, 1, 2))
        if unpinned[k]:
            conjuncts.append(design.choice(UNPINNED_SHAPES).format(m=m))
        elif counting[k]:
            conjuncts.append(design.choice(PINNED_SHAPES).format(m=m))
        lines = [PREAMBLE + " & ".join(f"({c})" for c in conjuncts)]
        if constrained[k]:
            pred = design.choice("ABR")
            op = design.choice(("=", "<=", ">="))
            lines.append(f"constraint |{pred}| {op} {rng.randrange(0, 5)}")
        if weighted[k]:
            for pred in "ABR":
                w1, w0 = rng.choice(WEIGHT_VALUES), rng.choice(WEIGHT_VALUES)
                lines.append(f"weight {pred} {w1} {w0}")
        problems.append(RandomProblem(f"rand{k:03d}", "\n".join(lines) + "\n",
                                      weighted[k], unpinned[k]))
    return problems
