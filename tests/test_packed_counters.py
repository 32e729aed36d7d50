"""Counters packed into integers: closed forms for tracked binary cards
at sizes the sparse counter polynomials could not reach, and the
truncated and signed cases against the ground oracle."""

import math
import random
import time
from fractions import Fraction

import pytest

from fo2mc.corpus import load_corpus
from fo2mc.engine import ProfileEvaluator, Solver, _digit_bits, _Layout
from fo2mc.errors import InternalConsistencyError
from fo2mc.oracle import oracle_count, oracle_distribution
from fo2mc.parser import parse_cardinality, parse_problem, parse_weight_expr
from fo2mc.weights import count_distribution, distribution_table, wfomc_profile

from conftest import RUNNING_EXAMPLE, evaluator, random_problem, witness_deficit_counts

CORPUS = {entry.name: entry for entry in load_corpus()}


def timed_count(name, n):
    solver = Solver(CORPUS[name].problem())
    start = time.monotonic()
    value = solver.count(n)
    return value, time.monotonic() - start


# -- closed forms (each bound is about ten times the measured time) -----------


def test_running_card_ar_at_40():
    """|A| = 2 and |R| = 2: A closed under R, so R avoids the 2(n-2)
    edges from A to its complement, and the loops are free."""
    n = 40
    value, seconds = timed_count("running_cardAR", n)
    assert value == math.comb(n, 2) * math.comb(n * n - 2 * n + 4, 2) == 905_210_280
    assert seconds < 0.05


def test_linear_card_at_20():
    """2|A| <= |R| + 1: with |A| = k, R picks r of the n^2 - k(n-k) edges
    that do not leave A."""
    n = 20
    want = sum(math.comb(n, k) * math.comb(n * n - k * (n - k), r)
               for k in range(n + 1)
               for r in range(max(0, 2 * k - 1), n * n - k * (n - k) + 1))
    value, seconds = timed_count("linear_card", n)
    assert value == want
    assert seconds < 1


def test_linear_card_at_30():
    """The same at n = 30, read as the count without the constraint minus
    the count under its negation 2|A| > |R| + 1, which caps |R| at 2n - 2
    rather than n^2."""
    n = 30
    want = sum(math.comb(n, k) * math.comb(n * n - k * (n - k), r)
               for k in range(n + 1)
               for r in range(max(0, 2 * k - 1), n * n - k * (n - k) + 1))
    value, seconds = timed_count("linear_card", n)
    assert value == want
    assert seconds < 2


def test_count_disj_card_at_40():
    """|R| = 4 with 0 or 2 successors per element: two elements with two
    successors each."""
    value, seconds = timed_count("count_disj_card", 40)
    assert value == math.comb(40, 2) ** 3 == 474_552_000
    assert seconds < 0.05


def test_two_blocks_at_100():
    """One R successor and none or two S successors per element: each
    row keeps its guard degrees only up to m, not at all n + 1 values."""
    n = 100
    value, seconds = timed_count("two_blocks", n)
    assert value == (n * (1 + math.comb(n, 2))) ** n
    assert seconds < 0.05


def test_coins_distribution_at_400():
    """1 + (-1)^|H| on a free H: the partition function is 2^n and
    |H| = k has probability C(n,k)(1 + (-1)^k)/2^n."""
    n = 400
    solver = Solver(CORPUS["coins"].problem())
    start = time.monotonic()
    table = distribution_table(solver, n, ("H",))
    seconds = time.monotonic() - start
    assert table == {(k,): Fraction(math.comb(n, k) * (1 + (-1) ** k), 2 ** n)
                     for k in range(n + 1)}
    assert seconds < 0.1


def test_running_fairness_weight_at_100():
    """(2|A| - 3)^2 on the running example: with |A| = k, R avoids the
    k(n-k) edges that leave A."""
    n = 100
    solver = Solver(parse_problem(RUNNING_EXAMPLE + "profileweight (2*|A| - 3)^2\n"))
    start = time.monotonic()
    value = wfomc_profile(solver, n)
    seconds = time.monotonic() - start
    assert value == sum(math.comb(n, k) * 2 ** (n * n - k * (n - k)) * (2 * k - 3) ** 2
                        for k in range(n + 1))
    assert seconds < 0.07


# -- truncation and signs against the oracle -------------------------------------


def assert_oracle(text, sizes):
    problem = parse_problem(text)
    solver = Solver(problem)
    for n in sizes:
        report = oracle_count(problem.signature, problem.sentence, n,
                              constraint=problem.constraint,
                              symmetric_weights=problem.symmetric_weights or None)
        if problem.symmetric_weights:
            assert wfomc_profile(solver, n) == report.weighted_total, (text, n)
        else:
            assert solver.count(n) == report.total, (text, n)


@pytest.mark.parametrize("text", [
    RUNNING_EXAMPLE + "constraint |R| <= 2\nweight A -3 2\nweight R 0.5 -1\n",
    RUNNING_EXAMPLE + "constraint |A| < 2 and |R| = 3\nweight A 0.25 1\nweight R 2 -1.5\n",
    "predicate R/2\nforall x exists{=1} y R(x,y)\nconstraint |R| <= 2\nweight R -2 3\n",
    # at n = 1 a non-B element's row sums to 127, the largest coefficient
    # its 8-bit digits hold
    "predicate B/1\npredicate R/2\nforall x (B(x) <-> exists{=1} y R(x,y))\n"
    "weight B 1 1\nweight R 63 64\n",
], ids=("running_neg_frac", "running_two_caps", "count_eq1_signed", "digit_bound"))
def test_weighted_truncated_cards_match_oracle(text):
    assert_oracle(text, (1, 2, 3))


@pytest.mark.parametrize("text", [
    "predicate R/2\nforall x exists y R(x,y)\nconstraint |R| <= 3\n",
    "predicate A/1\npredicate R/2\nforall x (A(x) -> exists y R(x,y))\n"
    "constraint |R| < 2\n",
], ids=("forall_exists", "cond_exists"))
def test_sign_predicate_with_truncated_card_matches_oracle(text):
    solver = Solver(parse_problem(text))
    assert solver.norm.sign_preds
    assert_oracle(text, (1, 2, 3))


@pytest.mark.parametrize("text", [
    CORPUS["two_blocks"].text + "constraint |R| <= 2 and |S| <= 2\n",
    "predicate R/2\npredicate S/2\nforall x forall y (S(x,y) -> S(y,x))\n"
    "constraint |R| <= 1 and |S| <= 2\n",
], ids=("two_blocks", "symmetric_S"))
def test_two_truncated_counters_match_oracle(text):
    """In the second case R is free, so a product of two truncated |R|
    factors reaches twice the cap, just below the |S| digits."""
    assert_oracle(text, (1, 2))


@pytest.mark.parametrize("text,sizes", [
    ("predicate A/1\npredicate B/1\npredicate R/2\n"
     "forall x (A(x) <-> exists{=1} y R(x,y)) & forall x (B(x) <-> exists{=2} y R(x,y))\n",
     (1, 2, 3)),
    ("predicate A/1\npredicate B/1\npredicate R/2\npredicate S/2\n"
     "forall x (A(x) <-> exists{=2} y R(x,y)) & forall x (B(x) <-> exists{=1} y S(x,y))\n"
     "constraint |S| <= 3\nweight A -2 1\nweight B 1 1\nweight R 0.5 -1\nweight S 3 -1\n",
     (1, 2)),
], ids=("shared_guard", "weighted_capped"))
def test_truncated_guard_degrees_match_oracle(text, sizes):
    """Two blocks counted per element, each guard degree truncated above
    its m: an element outside A and B combines four rows."""
    assert not Solver(parse_problem(text)).norm.successors
    assert_oracle(text, sizes)


@pytest.mark.parametrize("text,no_witness", [
    ("predicate R/2\nforall x exists y R(x,y)", "forall y !R(x,y)"),
    ("predicate A/1\npredicate R/2\nforall x (A(x) -> exists y R(x,y))",
     "A(x) & forall y !R(x,y)"),
])
def test_witness_deficit_counts_match_oracle(text, no_witness):
    """e_m counts the matrix models with exactly m witness-free elements:
    the oracle counts them through W(x) <-> no witness, |W| = m."""
    problem = parse_problem(text)
    matrix = "\n".join(line for line in text.splitlines()
                       if line.startswith("predicate"))
    marked = parse_problem(f"{matrix}\npredicate W/1\n"
                           f"forall x (W(x) <-> ({no_witness}))\n")
    for n in (1, 2, 3):
        for m in range(n + 1):
            _, e_m = witness_deficit_counts(problem, n, m)
            report = oracle_count(marked.signature, marked.sentence, n,
                                  constraint=parse_cardinality(f"|W| = {m}",
                                                               marked.signature))
            assert e_m == report.total, (text, n, m)


def test_dist_with_profile_weight_matches_oracle():
    problem = parse_problem(RUNNING_EXAMPLE + "constraint |R| <= 3\n")
    weight = parse_weight_expr("2^|R| * (-0.5)^|A|", problem.signature)
    for n in (2, 3):
        want = oracle_distribution(problem.signature, problem.sentence, n, weight,
                                   ["A"], constraint=problem.constraint)
        for k in range(n + 1):
            _, _, prob = count_distribution(problem, n, [("A", k)], weight)
            assert prob == want.get((k,), Fraction(0)), (n, k)


# -- exact division --------------------------------------------------------------


#: exactly two successors along a guard that couples both directions:
#: the successor encoding, with 1/2! per element in A
SUCCESSORS_M2 = "forall x exists{=2} y (R(x,y) & R(y,x))"


def test_integer_problems_keep_int_rows():
    """The successor encoding's 1/m! per element is divided out of each
    row exactly, so its rows stay integers."""
    solver = Solver(parse_problem(SUCCESSORS_M2))
    assert solver.norm.successors
    table = solver.read(3, ("R",))
    assert table and all(type(value) is int for value in table.values())


def test_indivisible_row_with_integer_weights_is_an_internal_error():
    solver = Solver(parse_problem(SUCCESSORS_M2))
    ev = ProfileEvaluator(solver.norm, solver.cells, 2)
    ev.scale *= 3
    with pytest.raises(InternalConsistencyError, match="non-integer row"):
        ev.read(by=ev.key_names)


# -- digit widths --------------------------------------------------------------


def exact_width(bound: int) -> int:
    """The bit length of ``bound`` plus a sign bit, in whole bytes."""
    return (bound.bit_length() + 8) // 8 * 8


def test_digit_width_from_logarithms():
    """The width read from logarithms is at least the exact bound's and at
    most one byte wider: on powers of 2 and their neighbours, where the
    bit length steps, and on random bases and exponents."""
    rng = random.Random(3)
    cases = [((2, e),) for e in range(200)] + [((0, 0),), ((0, 5),), ((1, 10 ** 6),)]
    cases += [((2 ** k + d, e), (3, f)) for k in (1, 7, 30, 64) for d in (-1, 0, 1)
              for e in (1, 2, 59) for f in (0, 1, 1770)]
    cases += [((rng.randint(1, 9), rng.randint(0, 3600)),
               (rng.getrandbits(rng.randint(1, 200)) + 1, rng.randint(0, 300)))
              for _ in range(500)]
    for powers in cases:
        exact = exact_width(math.prod(base ** exp for base, exp in powers))
        assert exact <= _digit_bits(*powers) <= exact + 8, powers


def test_census_digit_widths_against_the_exact_bounds():
    """The widths of the census, (sum_c |w_c|)^n F^C(n,2) G^(n(n-1)), and of
    one element's row, max_c |w_c| G^(n-1), on the corpus and the random
    problems at n <= 60: one of F and G is 1, the other bounds the 2-table
    or the out-edge factors."""
    problems = [entry.problem() for entry in CORPUS.values()]
    problems += [random_problem(seed) for seed in range(200)]
    for index, problem in enumerate(problems):
        solver = Solver(problem)
        for n in (1, 2, 3, 7, 20, 60)[index % 2::2]:
            ev = evaluator(solver, n)
            polys, _, _, g, bits = ev._factors()
            tables, sends = ({}, polys) if ev._directed else (polys, {})
            f = max([1] + [sum(abs(w) for _, w in poly) for poly in tables.values()])
            assert g == max([1] + [sum(abs(w) for _, w in poly) for poly in sends.values()])
            norms = [sum(abs(w) for _, w in weights) for weights in ev._weights]
            exact = exact_width(sum(norms) ** n * f ** (n * (n - 1) // 2) * g ** (n * (n - 1)))
            assert exact <= bits <= exact + 8, (index, n)
            row = exact_width(max(norms, default=0) * g ** (n - 1))
            assert row <= _digit_bits((max(norms, default=0), 1), (g, n - 1)) <= row + 8


# -- truncated products ---------------------------------------------------------


def truncated_product(p: dict, q: dict, caps) -> dict:
    """p q over dict polynomials (counts -> coefficient), without the terms
    past a cap and those of coefficient 0."""
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            counts = tuple(map(int.__add__, a, b))
            if all(map(int.__le__, counts, caps)):
                out[counts] = out.get(counts, 0) + x * y
    return {counts: coef for counts, coef in out.items() if coef}


@pytest.mark.parametrize("capped", ("last", "two", "none"))
def test_layout_mul_against_dict_polynomials(capped):
    """``_Layout.mul`` of two packed polynomials decodes to their product
    truncated at the caps, on seeded random layouts: the last counter cut
    below its top, two counters cut, or none.  A factor's terms past a cap
    are dropped when it is packed; an uncut counter's terms stay within its
    top in every product."""
    rng = random.Random(f"mul {capped}")
    for _ in range(200):
        dims = rng.randint(2, 3)
        tops = [rng.randint(1, 9) for _ in range(dims)]
        cut = {"last": [dims - 1], "two": rng.sample(range(dims), 2), "none": []}[capped]
        bounds = [(rng.randrange(top), top) if d in cut else (top + rng.randrange(3), top)
                  for d, top in enumerate(tops)]
        layout = _Layout(range(dims), bounds, 16)
        caps = [min(bound) for bound in bounds]

        def poly(part: int) -> dict:
            # an uncut counter's two factors share its top
            highs = [top if d in cut else (top + part) // 2 for d, top in enumerate(tops)]
            return {tuple(rng.randint(0, high) for high in highs): rng.randint(-9, 9)
                    for _ in range(rng.randint(1, 6))}
        p, q = poly(0), poly(1)
        got = {tuple(counts[d] for d in range(dims)): coef
               for counts, coef in layout.decode(layout.mul(layout.pack(p.items()),
                                                            layout.pack(q.items())))}
        assert got == truncated_product(p, q, caps), (bounds, p, q)


def test_layout_at_past_a_cap_is_zero():
    """``_Layout.at`` reads the run of the lower counters' digits at values
    of the last ones, and 0 at a value past that counter's cap."""
    layout = _Layout((0, 1), [(3, 3), (1, 4)], 16)  # counter 1 kept up to 1 of 4
    x = layout.pack([((1, 0), 5), ((2, 1), 7)])
    assert layout.at(x, (0,)) == 5 << 16
    assert layout.at(x, (1,)) == 7 << 32
    assert [layout.at(x, (k,)) for k in (2, 3, 4)] == [0, 0, 0]
