"""The benchmark's workloads: queries generated from a seed, each with an
exact reference answer and its provenance.

A query is one problem at one domain size, asked the way a user would
ask it: ``fo2mc count|wfomc|dist -n N -e TEXT --format json``.  Problem
texts are written out here rather than read from the program's corpus
directory.  Every ladder problem has a closed form, derived by hand from
the sentence and checked against the corpus goldens by
``test_perfbench.py``; ``small_random`` problems are checked against the
brute-force oracle, which the atom cap allows at n <= 2.  Where the
oracle's cap allows it, ladder answers are cross-checked against the
oracle as well.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

from randgen import random_problems

#: ground-atom cap for oracle cross-checks (2^16 assignments per check)
ORACLE_ATOMS = 16

@dataclass(frozen=True)
class Query:
    qid: int
    problem: str
    mode: str                 # count | wfomc | dist
    text: str
    n: int
    expected: Fraction | None  # exact reference; None when only the oracle checks it
    provenance: str
    oracle: bool              # cross-check against the ground oracle
    #: for ``dist`` queries, the queried predicate and its cardinality
    dist: tuple[str, int] | None = None
    #: failure reasons that are a known defect for this query, and why
    known: frozenset = field(default_factory=frozenset)
    known_why: str = ""

    def argv(self) -> list[str]:
        argv = [self.mode, "-n", str(self.n), "-e", self.text, "--format", "json"]
        if self.dist:
            argv += ["--query", f"|{self.dist[0]}| = {self.dist[1]}"]
        return argv

    def label(self) -> str:
        return f"{self.problem} n={self.n}"


# ---------------------------------------------------------------------------
# problem texts and closed forms


RUNNING = "forall x forall y (A(x) & R(x,y) & x != y -> A(y))"


def _running_free(n: int, k: int) -> int:
    """R-atoms left free by the running matrix when |A| = k: every pair
    from A to its complement is forced false."""
    return n * n - k * (n - k)


LADDER = {
    # name: (mode, text, closed form n -> int, provenance)
    "running": ("count", f"predicate A/1\npredicate R/2\n{RUNNING}\n",
                lambda n: sum(comb(n, k) * 2 ** _running_free(n, k) for k in range(n + 1)),
                "sum_k C(n,k) 2^(n^2-k(n-k))"),
    "running_cardA": ("count", f"predicate A/1\npredicate R/2\n{RUNNING}\nconstraint |A| = 2\n",
                      lambda n: comb(n, 2) * 2 ** _running_free(n, 2),
                      "C(n,2) 2^(n^2-2(n-2))"),
    "count_single": ("count",
                     "predicate A/1\npredicate R/2\nexists{=2} x A(x) & "
                     "forall x forall y (A(x) & A(y) -> (R(x,y) <-> R(y,x)))\n",
                     lambda n: comb(n, 2) * 2 ** (n * n - 1),
                     "C(n,2) 2^(n^2-1)"),
    "fairness_profile": ("wfomc",
                         f"predicate A/1\npredicate R/2\n{RUNNING}\n"
                         "profileweight (2*|A| - 3)^2\n",
                         lambda n: sum(comb(n, k) * 2 ** _running_free(n, k) * (2 * k - 3) ** 2
                                       for k in range(n + 1)),
                         "sum_k C(n,k) 2^(n^2-k(n-k)) (2k-3)^2"),
    "weighted_running": ("wfomc",
                         f"predicate A/1\npredicate R/2\n{RUNNING}\n"
                         "weight A 1 1\nweight R 1 2\n",
                         lambda n: sum(comb(n, k) * 3 ** _running_free(n, k)
                                       * 2 ** (k * (n - k)) for k in range(n + 1)),
                         "sum_k C(n,k) 3^(n^2-k(n-k)) 2^(k(n-k))"),
    "cond_exists": ("count", "predicate A/1\npredicate R/2\nforall x (A(x) -> exists y R(x,y))\n",
                    lambda n: (2 ** (n + 1) - 1) ** n, "(2^(n+1)-1)^n"),
    "exists_closed": ("count", "predicate A/1\nexists x A(x)\n",
                      lambda n: 2 ** n - 1, "2^n-1"),
    "asymmetric_offdiag": ("count",
                           "predicate R/2\nforall x forall y (x != y -> (R(x,y) -> !R(y,x)))\n",
                           lambda n: 2 ** n * 3 ** comb(n, 2), "2^n 3^C(n,2)"),
    "symmetric": ("count", "predicate R/2\nforall x forall y (R(x,y) -> R(y,x))\n",
                  lambda n: 2 ** (n * (n + 1) // 2), "2^(n(n+1)/2)"),
    "identity_rel": ("count", "predicate S/2\nforall x forall y (S(x,y) <-> x = y)\n",
                     lambda n: 1, "1"),
    "count_eq1": ("count", "predicate R/2\nforall x exists{=1} y R(x,y)\n",
                  lambda n: n ** n, "n^n"),
    "count_eq2": ("count", "predicate R/2\nforall x exists{=2} y R(x,y)\n",
                  lambda n: comb(n, 2) ** n, "C(n,2)^n"),
    "count_disj": ("count", "predicate R/2\nforall x (forall y !R(x,y) | exists{=2} y R(x,y))\n",
                   lambda n: (1 + comb(n, 2)) ** n, "(1+C(n,2))^n"),
    "count_le1": ("count", "predicate R/2\nforall x (forall y !R(x,y) | exists{=1} y R(x,y))\n",
                  lambda n: (n + 1) ** n, "(n+1)^n"),
    "count_le_sugar": ("count", "predicate R/2\nforall x exists{<=1} y R(x,y)\n",
                       lambda n: (n + 1) ** n, "(n+1)^n"),
    "mixed_exists_eq1": ("count",
                         "predicate R/2\npredicate S/2\n"
                         "forall x exists y S(x,y) & forall x exists{=1} y R(x,y)\n",
                         lambda n: (2 ** n - 1) ** n * n ** n, "(2^n-1)^n n^n"),
    "weighted_eq1": ("wfomc", "predicate R/2\nforall x exists{=1} y R(x,y)\nweight R 3 1\n",
                     lambda n: (3 * n) ** n, "(3n)^n"),
    "forall_exists": ("count", "predicate R/2\nforall x exists y R(x,y)\n",
                      lambda n: (2 ** n - 1) ** n, "(2^n-1)^n"),
    "unary_exclusion": ("count", "predicate A/1\npredicate B/1\nforall x (A(x) -> !B(x))\n",
                        lambda n: 3 ** n, "3^n"),
    "two_exists": ("count",
                   "predicate R/2\npredicate S/2\n"
                   "forall x exists y R(x,y) & forall x exists y S(x,y)\n",
                   lambda n: (2 ** n - 1) ** (2 * n), "(2^n-1)^(2n)"),
    "two_blocks": ("count",
                   "predicate R/2\npredicate S/2\nforall x exists{=1} y R(x,y) & "
                   "forall x (forall y !S(x,y) | exists{=2} y S(x,y))\n",
                   lambda n: n ** n * (1 + comb(n, 2)) ** n, "n^n (1+C(n,2))^n"),
}

COINS = "predicate H/1\nforall x (H(x) | !H(x))\nprofileweight 1 + (-1)^|H|\n"


def coins_probability(n: int, k: int) -> Fraction:
    """P(|H| = k) under weight 1 + (-1)^|H|: the partition function is
    sum_j C(n,j)(1+(-1)^j) = 2^n."""
    return Fraction(comb(n, k) * (1 + (-1) ** k), 2 ** n)


# Profile counts F(cards) of the tracked_cards matrices, keyed by the
# cardinalities a constraint can mention.  A constrained count is the sum
# of F over the profiles the constraint admits.

def running_profiles(n: int):
    """|A| = k, |R| = r: choose A, then r of the free R-atoms."""
    for k in range(n + 1):
        free = _running_free(n, k)
        for r in range(free + 1):
            yield {"A": k, "R": r}, comb(n, k) * comb(free, r)


def guard_profiles(n: int):
    """forall x exists{=1} y (R(x,y) & A(y)): each row picks one R-edge
    into A (k ways) and leaves its n-k edges outside A free."""
    for k in range(1, n + 1):
        for extra in range(n * (n - k) + 1):
            yield {"A": k, "R": n + extra}, comb(n, k) * k ** n * comb(n * (n - k), extra)


def disj_profiles(n: int):
    """forall x (forall y !R(x,y) | exists{=2} y R(x,y)): j rows with two
    R-edges each, the rest empty."""
    for j in range(n + 1):
        yield {"R": 2 * j}, comb(n, j) * comb(n, 2) ** j


def exists_profiles(n: int):
    """forall x exists y R(x,y): inclusion-exclusion over empty rows."""
    for r in range(n * n + 1):
        yield {"R": r}, sum((-1) ** j * comb(n, j) * comb(n * (n - j), r)
                            for j in range(n + 1))


@dataclass(frozen=True)
class Constraint:
    text: str
    holds: Callable[[dict], bool]


def cmp(pred: str, op: str, value: int) -> Constraint:
    test = {"=": lambda c: c[pred] == value, "<=": lambda c: c[pred] <= value,
            ">=": lambda c: c[pred] >= value}[op]
    return Constraint(f"|{pred}| {op} {value}", test)


def linear(c: int) -> Constraint:
    return Constraint(f"2*|A| <= |R| + {c}", lambda cards: 2 * cards["A"] <= cards["R"] + c)


def conj(*parts: Constraint) -> Constraint:
    return Constraint(" and ".join(p.text for p in parts),
                      lambda cards: all(p.holds(cards) for p in parts))


def constrained_total(profiles, constraint: Constraint, weight=lambda cards: 1):
    return sum(count * weight(cards) for cards, count in profiles if constraint.holds(cards))


# ---------------------------------------------------------------------------
# workloads


def _digit_limit_defect(expected: Fraction) -> tuple[frozenset, str]:
    """Printing an integer of more decimal digits than the interpreter's
    int-to-string limit raises, a known defect of the command line."""
    limit = sys.get_int_max_str_digits()
    if limit and max(abs(expected.numerator), expected.denominator) >= 10 ** limit:
        return (frozenset({"output", "refused"}),
                "answer exceeds the interpreter's int-to-string digit limit")
    return frozenset(), ""


def atom_count(text: str, n: int) -> int:
    """Ground atoms of a problem text's declared predicates."""
    total = 0
    for line in text.splitlines():
        if line.startswith("predicate "):
            arity = int(line.rsplit("/", 1)[1])
            total += n ** arity
    return total


class _QueryList:
    def __init__(self):
        self.queries: list[Query] = []

    def add(self, problem, mode, text, n, expected, provenance, dist=None,
            known=frozenset(), known_why=""):
        if expected is not None:
            expected = Fraction(expected)
            if not known:
                known, known_why = _digit_limit_defect(expected)
        self.queries.append(Query(
            qid=len(self.queries), problem=problem, mode=mode, text=text, n=n,
            expected=expected, provenance=provenance,
            oracle=atom_count(text, n) <= ORACLE_ATOMS, dist=dist, known=known,
            known_why=known_why))

    def ladder(self, names, sizes):
        for name in names:
            mode, text, closed, how = LADDER[name]
            for n in sizes:
                self.add(name, mode, text, n, closed(n), f"closed form {how}")


def _shuffled(queries: list[Query], rng: random.Random) -> list[Query]:
    rng.shuffle(queries)
    return [dataclasses.replace(q, qid=pos) for pos, q in enumerate(queries)]


ENUM_PROBLEMS = ("running", "running_cardA", "count_single", "fairness_profile",
                 "weighted_running", "cond_exists", "exists_closed",
                 "asymmetric_offdiag", "symmetric", "identity_rel")
#: cond_exists has 5 valid 1-types, so C(n+4, 4) passes the engine's
#: 20,000-census switch between n = 20 and n = 24
ENUM_SIZES = range(4, 41, 4)

#: two_exists's answer passes the interpreter's int-to-string digit limit
#: at n = 90
COLLAPSED_PROBLEMS = ("count_eq1", "count_eq2", "count_disj", "count_le1",
                      "count_le_sugar", "mixed_exists_eq1", "weighted_eq1",
                      "forall_exists", "unary_exclusion", "two_exists")
COLLAPSED_SIZES = range(10, 101, 10)

TRACKED_SIZES = range(2, 9)
#: count_guard with a tracked |R| costs 0.3 s at n = 5, 1.8 s at n = 6
#: and 90 s at n = 9 on a 2-core x86 box, so its |R| variant stops at 5
GUARD_R_SIZES = range(2, 6)


def enum_ladder(rng: random.Random) -> list[Query]:
    b = _QueryList()
    b.ladder(ENUM_PROBLEMS, ENUM_SIZES)
    return b.queries


def collapsed_ladder(rng: random.Random) -> list[Query]:
    b = _QueryList()
    b.ladder(COLLAPSED_PROBLEMS, COLLAPSED_SIZES)
    for n in COLLAPSED_SIZES:
        k = rng.randrange(n + 1)
        b.add("coins", "dist", COINS, n, coins_probability(n, k),
              "closed form C(n,k)(1+(-1)^k)/2^n", dist=("H", k))
    return b.queries


def tracked_cards(rng: random.Random) -> list[Query]:
    b = _QueryList()
    run_text = f"predicate A/1\npredicate R/2\n{RUNNING}\n"
    guard_text = "predicate A/1\npredicate R/2\nforall x exists{=1} y (R(x,y) & A(y))\n"
    disj_text = "predicate R/2\nforall x (forall y !R(x,y) | exists{=2} y R(x,y))\n"
    exists_text = "predicate R/2\nforall x exists y R(x,y)\n"
    families = (
        # (problem, matrix text, profiles, sizes, constraint for size n)
        ("running_cardAR", run_text, running_profiles, TRACKED_SIZES,
         lambda n: conj(cmp("A", "=", 2), cmp("R", "=", 2))),
        ("linear_card", run_text, running_profiles, TRACKED_SIZES, lambda n: linear(1)),
        ("count_disj_card", disj_text, disj_profiles, TRACKED_SIZES, lambda n: cmp("R", "=", 4)),
        ("count_guard", guard_text, guard_profiles, TRACKED_SIZES, None),
        ("exists_card", exists_text, exists_profiles, TRACKED_SIZES, lambda n: cmp("R", "=", 3)),
        ("running|R|=r", run_text, running_profiles, TRACKED_SIZES,
         lambda n: cmp("R", "=", rng.randrange(n * n + 1))),
        ("running|R|<=r", run_text, running_profiles, TRACKED_SIZES,
         lambda n: cmp("R", "<=", rng.randrange(n * n + 1))),
        ("count_guard|A|<=a", guard_text, guard_profiles, TRACKED_SIZES,
         lambda n: cmp("A", "<=", rng.randrange(1, n + 1))),
        ("count_guard|R|<=r", guard_text, guard_profiles, GUARD_R_SIZES,
         lambda n: cmp("R", "<=", rng.randrange(n, n * n + 1))),
        ("count_disj|R|=r", disj_text, disj_profiles, TRACKED_SIZES,
         lambda n: cmp("R", "=", 2 * rng.randrange(n + 1))),
        ("count_disj|R|<=r", disj_text, disj_profiles, TRACKED_SIZES,
         lambda n: cmp("R", "<=", rng.randrange(2 * n + 1))),
        ("count_disj|R|>=r", disj_text, disj_profiles, TRACKED_SIZES,
         lambda n: cmp("R", ">=", rng.randrange(2 * n + 1))),
        ("exists|R|=r", exists_text, exists_profiles, TRACKED_SIZES,
         lambda n: cmp("R", "=", rng.randrange(n, n * n + 1))),
        ("exists|R|>=r", exists_text, exists_profiles, TRACKED_SIZES,
         lambda n: cmp("R", ">=", rng.randrange(n, n * n + 1))),
        ("exists|R|<=r", exists_text, exists_profiles, TRACKED_SIZES,
         lambda n: cmp("R", "<=", rng.randrange(n, n * n + 1))),
        ("linear_card+c", run_text, running_profiles, TRACKED_SIZES,
         lambda n: linear(rng.randrange(n + 1))),
    )
    for name, text, profiles, sizes, make in families:
        for n in sizes:
            if make is None:
                constraint = Constraint("", lambda cards: True)
            else:
                constraint = make(n)
            body = text + (f"constraint {constraint.text}\n" if constraint.text else "")
            b.add(name, "count", body, n, constrained_total(profiles(n), constraint),
                  f"closed-form profile counts of {profiles.__name__} "
                  f"summed under '{constraint.text or 'true'}'")
    # symmetric weights on top of a tracked |R| bound: w(A) = (a1, a0),
    # w(R) = (2, 1) contribute a1^k a0^(n-k) 2^r per model
    for n in TRACKED_SIZES:
        a1, a0 = rng.choice((1, 2, 3)), rng.choice((1, 2))
        constraint = cmp("R", "<=", rng.randrange(n * n + 1))
        text = (run_text + f"constraint {constraint.text}\n"
                f"weight A {a1} {a0}\nweight R 2 1\n")
        weight = lambda cards, n=n, a1=a1, a0=a0: (a1 ** cards["A"] * a0 ** (n - cards["A"])
                                                   * 2 ** cards["R"])
        b.add("weighted_running|R|<=r", "wfomc", text, n,
              constrained_total(running_profiles(n), constraint, weight),
              f"closed-form running profile counts weighted a1^|A| a0^(n-|A|) 2^|R| "
              f"under '{constraint.text}'")
    return b.queries


def small_random(rng: random.Random) -> list[Query]:
    b = _QueryList()
    for prob in random_problems(rng.randrange(2 ** 32)):
        for n in (1, 2):
            known = (frozenset({"mismatch", "internal", "refused"}) if prob.unpinned
                     else frozenset())
            b.add(prob.name, "wfomc" if prob.weighted else "count", prob.text, n,
                  None, "ground oracle", known=known,
                  known_why="unpinned counting quantifier" if prob.unpinned else "")
    mode, text, closed, how = LADDER["two_blocks"]
    for n in (1, 2):
        b.add("two_blocks", mode, text, n, closed(n), f"closed form {how}")
    return b.queries


WORKLOADS = {
    "enum_ladder": enum_ladder,
    "collapsed_ladder": collapsed_ladder,
    "tracked_cards": tracked_cards,
    "small_random": small_random,
}

#: seconds one untraced pass typically takes on a 2-core x86 box; a run
#: makes --seconds / this many passes, the same number on every version of
#: the program
NOMINAL_PASS_S = {
    "enum_ladder": 7.0,
    "collapsed_ladder": 6.7,
    "tracked_cards": 7.3,
    "small_random": 12.3,
}


def build(workload: str, seed: int) -> list[Query]:
    """The workload's queries for ``seed``, in the order they are run."""
    rng = random.Random(f"{workload}:{seed}")
    queries = WORKLOADS[workload](rng)
    for q in queries:
        if q.expected is None and not q.oracle:
            raise RuntimeError(f"{q.label()} has no reference answer")
    return _shuffled(queries, rng)
