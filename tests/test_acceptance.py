"""Acceptance suite: one test per criterion, each at its stated
tolerance (exact unless noted).  Run with ``pytest -v -s
tests/test_acceptance.py`` to see one pass line per criterion."""

import math
import time

from fractions import Fraction

from fo2mc.cells import build_cells
from fo2mc.corpus import load_corpus, verify_entry
from fo2mc.engine import Solver, compositions, witness_deficit_counts, universal_term
from fo2mc.normalize import normalize
from fo2mc.oracle import oracle_stratified
from fo2mc.parser import parse_problem
from fo2mc.weights import distribution_table

from conftest import ZERO_OR_TWO_EXAMPLE, RUNNING_EXAMPLE, random_problem

GOLDEN_N_IJ = (4, 4, 2, 2, 4, 2, 2, 4, 4, 4)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_n_ij_table():
    start = time.monotonic()
    norm = normalize(parse_problem(RUNNING_EXAMPLE))
    cells = build_cells(norm.signature, norm.matrix)
    table = tuple(cells.n_ij[(i, j)] for i in range(4) for j in range(i, 4))
    assert table == GOLDEN_N_IJ
    assert tuple(cells.n_ijv(1, 3, v) for v in range(4)) == (1, 0, 1, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"n_ij table and n_13v refinement match the goldens "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_census_term():
    solver = Solver(parse_problem(RUNNING_EXAMPLE))
    term = universal_term(solver.cells, 3, (2, 0, 0, 1))
    assert term == 48
    report(2, "census (2,0,0,1) term at n=3 equals 48 exactly")


def test_criterion_3_coins_distribution():
    start = time.monotonic()
    coins = parse_problem("predicate H/1\nforall x (H(x) | !H(x))\n"
                          "profileweight 1 + (-1)^|H|")
    dist = distribution_table(coins, 4, ("H",))
    expected = {(0,): Fraction(1, 8), (1,): Fraction(0), (2,): Fraction(3, 4),
                (3,): Fraction(0), (4,): Fraction(1, 8)}
    assert dist == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(3, f"coin distribution is exactly (1/8, 0, 3/4, 0, 1/8) "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_4_oracle_differential_suite():
    start = time.monotonic()
    checks = 0
    for entry in load_corpus():
        assert entry.oracle_eligible
        rep = verify_entry(entry, max_n=4, oracle_cap=20)
        assert rep.ok, rep.failures
        checks += rep.checks
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(4, f"{checks} engine/golden/oracle checks across "
              f"{len(load_corpus())} corpus entries agree exactly "
              f"({elapsed:.1f} s)")


def test_criterion_5_derived_closed_forms():
    exists = Solver(parse_problem("forall x exists y R(x,y)"))
    functional = Solver(parse_problem("forall x exists{=1} y R(x,y)"))
    symmetric = Solver(parse_problem("forall x forall y (R(x,y) -> R(y,x))"))
    for n in range(1, 9):
        assert exists.count(n) == (2 ** n - 1) ** n
        assert functional.count(n) == n ** n
        assert symmetric.count(n) == 2 ** (n + n * (n - 1) // 2)
    report(5, "closed forms (2^n-1)^n, n^n and 2^(n+n(n-1)/2) hold for n <= 8")


def test_criterion_6_stratified_identity():
    problem = parse_problem(RUNNING_EXAMPLE)
    solver = Solver(problem)
    checks = 0
    for n in (1, 2, 3):
        census = oracle_stratified(problem.signature, problem.sentence, n,
                                   by_one_types=True)
        for k in compositions(n, 4):
            assert universal_term(solver.cells, n, k) == census.get(k, 0)
            checks += 1
    report(6, f"{checks} per-census terms equal the oracle 1-type census")


def test_criterion_7_witness_deficit_identity():
    texts = {
        "forall_exists": "forall x exists y R(x,y)",
        "cond_exists": ("predicate A/1\npredicate R/2\n"
                        "forall x (A(x) -> exists y R(x,y))"),
        "exists_closed": "predicate A/1\nexists x A(x)",
    }
    for name, text in texts.items():
        problem = parse_problem(text)
        solver = Solver(problem)
        for n in (1, 2, 3, 4):
            total = 0
            for m in range(1, n + 1):
                _, e_m = witness_deficit_counts(problem, n, m)
                assert e_m >= 0, (name, n, m)
                total += e_m
            p_0, _ = witness_deficit_counts(problem, n, 0)
            assert total == p_0 - solver.count(n), (name, n)
    report(7, "sum of e_m equals p_0 - fomc and every e_m >= 0 on the "
              "forall-exists entries, n <= 4")


def _fit_exponent(samples):
    # least-squares slope of log(time) against log(n)
    xs = [math.log(n) for n, _ in samples]
    ys = [math.log(t) for _, t in samples]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def test_criterion_8_scaling():
    sizes = range(10, 51, 5)
    budget_start = time.monotonic()
    exponents = {}
    for label, text in (("running", RUNNING_EXAMPLE), ("exists-eq2", ZERO_OR_TWO_EXAMPLE)):
        solver = Solver(parse_problem(text))
        samples = []
        for n in sizes:
            start = time.monotonic()
            value = solver.count(n)
            samples.append((n, max(time.monotonic() - start, 1e-5)))
            assert value > 0
        exponents[label] = _fit_exponent(samples)
    elapsed = time.monotonic() - budget_start
    assert elapsed < 60, f"n=50 sweep took {elapsed:.1f}s"
    # the oracle is infeasible at this size (far beyond its atom cap)
    problem = parse_problem(RUNNING_EXAMPLE)
    assert problem.signature.ground_atom_count(50) > 28
    for label, exponent in exponents.items():
        assert exponent < 8, (label, exponent)
    report(8, "n in 10..50 completes in "
              f"{elapsed:.1f} s with fitted exponents "
              + ", ".join(f"{k}={v:.1f}" for k, v in exponents.items()))


def test_criterion_9_integrality_and_sign():
    """Across 200 seeded random small-signature problems, every count is
    a non-negative integer and every counting-quantifier division is
    exact (Solver.count raises otherwise)."""
    failures = []
    for seed in range(200):
        problem = random_problem(seed)
        solver = Solver(problem)
        for n in (1, 2, 3, 4):
            try:
                value = solver.count(n)
            except Exception as exc:  # noqa: BLE001 - the criterion forbids any
                failures.append((seed, n, repr(exc)))
                continue
            if not isinstance(value, int) or value < 0:
                failures.append((seed, n, value))
    assert not failures, failures[:5]
    report(9, "200 seeded random problems at n <= 4: all counts are "
              "non-negative integers, all divisions exact")
