"""Property and randomized differential tests."""

import random

from hypothesis import given, settings, strategies as st

from fo2mc.engine import Solver
from fo2mc.grounding import eval_qf
from fo2mc.logic import Atom, Eq, substitute
from fo2mc.oracle import oracle_count
from fo2mc.parser import format_problem, parse_problem

from conftest import random_problem, random_qf


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_eval_qf_variable_swap_invariance(seed):
    """Evaluating the matrix of Phi({x,y}) is invariant under exchanging
    x and y in both the formula and the assignment."""
    rng = random.Random(seed)
    atoms = [Atom("A", ("x",)), Atom("A", ("y",)), Atom("R", ("x", "x")),
             Atom("R", ("x", "y")), Atom("R", ("y", "x")), Atom("R", ("y", "y")),
             Eq("x", "y"), Eq("x", "x")]
    f = random_qf(rng, atoms, 3)
    swap = {"x": "y", "y": "x"}
    # the full matrix of the two-element expansion is swap-symmetric
    from fo2mc.logic import And
    matrix = And(f, substitute(f, swap))
    tau = {a: rng.randrange(2) for a in atoms if isinstance(a, Atom)}
    tau_swapped = {substitute(a, swap): v for a, v in tau.items()}
    assert eval_qf(matrix, tau) == eval_qf(substitute(matrix, swap), tau_swapped)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_parse_print_round_trip(seed):
    problem = random_problem(seed)
    text = format_problem(problem)
    again = parse_problem(text)
    assert again.sentence == problem.sentence
    assert again.constraint == problem.constraint


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_problem_engine_equals_oracle(seed):
    problem = random_problem(seed)
    solver = Solver(problem)
    for n in (1, 2, 3):
        want = oracle_count(problem.signature, problem.sentence, n,
                            constraint=problem.constraint).total
        assert solver.count(n) == want


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_symmetric_weights_match_oracle(seed):
    from fractions import Fraction
    from fo2mc.weights import wfomc_symmetric
    rng = random.Random(seed ^ 0x5EED)
    problem = random_problem(seed)
    weights = {p: (Fraction(rng.randrange(0, 4)), Fraction(rng.randrange(1, 4)))
               for p in problem.signature.user_predicates()}
    solver = Solver(problem)
    for n in (1, 2):
        got = wfomc_symmetric(solver, n, weights)
        want = oracle_count(problem.signature, problem.sentence, n,
                            constraint=problem.constraint,
                            symmetric_weights=weights).weighted_total
        assert got == want


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_folding_equals_explicit_exponents(seed):
    """The cell-folded symmetric path equals the profile-weighted path
    with explicit (k,h)(P) exponents, on random signatures."""
    from fractions import Fraction
    from fo2mc.parser import parse_weight_expr
    from fo2mc.weights import wfomc_profile
    rng = random.Random(seed ^ 0xF01D)
    problem = random_problem(seed)
    weights = {p: (Fraction(rng.randrange(1, 4)), Fraction(rng.randrange(1, 4)))
               for p in problem.signature.user_predicates()}
    solver = Solver(problem)
    n = rng.choice((1, 2, 3))
    folded = solver.read(n, fold=weights).get((), 0)
    explicit = " * ".join(f"{w1}^|{pred}| * {w0}^({n ** problem.signature.arity(pred)} - |{pred}|)"
                          for pred, (w1, w0) in sorted(weights.items()))
    assert folded == wfomc_profile(solver, n, parse_weight_expr(explicit, problem.signature))

