"""Tests of the benchmark itself: seeded inputs, reference answers and
failure accounting.  Run with ``python3 -m pytest perfbench`` from the
repository root."""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from randgen import random_problems  # noqa: E402

GOLDEN_DIR = ROOT / "src" / "fo2mc" / "corpus" / "problems"


@pytest.fixture(scope="module")
def mods():
    return harness.Modules.load()


def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.expected.json").read_text())["expected"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    assert first == again
    assert len(first) >= 100


def test_seed_changes_the_random_problems():
    texts = lambda seed: [p.text for p in random_problems(seed)]
    assert texts(1) != texts(2)
    problems = random_problems(3)
    assert sum(p.unpinned for p in problems) == 40
    assert sum(p.weighted for p in problems) == 50


@pytest.mark.parametrize("name", sorted(workloads.LADDER))
def test_ladder_closed_forms_match_the_corpus_goldens(name):
    mode, text, closed, _ = workloads.LADDER[name]
    for n, entry in _golden(name).items():
        assert Fraction(closed(int(n))) == Fraction(entry["count"]), (name, n)


def test_coins_closed_form_matches_the_golden():
    for n, entry in _golden("coins").items():
        for k, want in entry["distribution"].items():
            assert workloads.coins_probability(int(n), int(k)) == Fraction(want)


@pytest.mark.parametrize("name, profiles, constraint", [
    ("running_cardAR", workloads.running_profiles,
     workloads.conj(workloads.cmp("A", "=", 2), workloads.cmp("R", "=", 2))),
    ("linear_card", workloads.running_profiles, workloads.linear(1)),
    ("count_disj_card", workloads.disj_profiles, workloads.cmp("R", "=", 4)),
    ("count_guard", workloads.guard_profiles, workloads.Constraint("", lambda c: True)),
    ("exists_card", workloads.exists_profiles, workloads.cmp("R", "=", 3)),
])
def test_profile_closed_forms_match_the_corpus_goldens(name, profiles, constraint):
    for n, entry in _golden(name).items():
        got = workloads.constrained_total(profiles(int(n)), constraint)
        assert got == int(entry["count"]), (name, n)


@pytest.mark.parametrize("text, profiles", [
    ("predicate A/1\npredicate R/2\n" + workloads.RUNNING, workloads.running_profiles),
    ("predicate A/1\npredicate R/2\nforall x exists{=1} y (R(x,y) & A(y))",
     workloads.guard_profiles),
])
def test_profile_closed_forms_match_the_oracle(mods, text, profiles):
    problem = mods.parser.parse_problem(text)
    for n in (2, 3):
        table = mods.oracle.oracle_stratified(problem.signature, problem.sentence, n,
                                              ("A", "R"))
        want = {k: v for k, v in table.items() if v}
        got = {}
        for cards, count in profiles(n):
            if count:
                key = (cards["A"], cards["R"])
                got[key] = got.get(key, 0) + count
        assert got == want


def _run_and_check(mods, queries):
    timer = harness.Timer(float("inf"))
    attempts = harness.run_plain(mods, queries, timer, harness.Speed())
    oracle, _ = harness.oracle_answers(mods, queries)
    harness.check(queries, attempts, oracle)
    return attempts


def test_corrupted_reference_is_reported_as_a_mismatch(mods):
    queries = [q for q in workloads.build("tracked_cards", 1) if q.n <= 3][:6]
    bad = queries[2]
    queries[2] = dataclasses.replace(bad, expected=bad.expected + 1, oracle=False)
    attempts = _run_and_check(mods, queries)
    assert [a.reason for a in attempts] == [None, None, "mismatch", None, None, None]
    [failure] = harness.failures(queries, attempts)
    assert failure.query.qid == bad.qid and not failure.known


def test_known_defects_are_named_and_unexpected_ones_are_not(mods):
    queries = [q for q in workloads.build("collapsed_ladder", 1)
               if q.problem == "two_exists" and q.n >= 80]
    attempts = _run_and_check(mods, queries)
    by_n = {f.query.n: f for f in harness.failures(queries, attempts)}
    assert sorted(by_n) == [90, 100]
    assert all(f.reason == "output" and f.known for f in by_n.values())


def test_timeout_is_a_failure_not_a_dropped_case(mods, monkeypatch):
    monkeypatch.setattr(harness, "QUERY_TIMEOUT_S", 0.001)
    query = next(q for q in workloads.build("enum_ladder", 1)
                 if q.problem == "running" and q.n == 40)
    [attempt] = harness.run_plain(mods, [query], harness.Timer(float("inf")),
                                  harness.Speed())
    assert attempt.reason == "timeout" and attempt.ms is not None


def test_failure_accounting():
    q = workloads.build("small_random", 5)[:4]
    attempts = [harness.Attempt(q[0].qid, 1.0, None),
                harness.Attempt(q[1].qid, 1.0, "mismatch"),
                harness.Attempt(q[1].qid, 1.0, "mismatch"),
                harness.Attempt(q[2].qid, None, "timeout"),
                harness.Attempt(q[3].qid, 1.0, "refused")]
    assert harness.failed_frac(attempts) == 4 / 5
    counts = harness.fail_counts(attempts)
    assert (counts["mismatch"], counts["timeout"], counts["refused"], counts["parse"]) \
        == (2, 1, 1, 0)
    grouped = harness.failures(q, attempts)
    assert sum(f.attempts for f in grouped) == 4 and len(grouped) == 3


def test_traced_pass_agrees_with_the_untraced_pass(mods):
    queries = [q for q in workloads.build("collapsed_ladder", 2) if q.n <= 20]
    timer, speed = harness.Timer(float("inf")), harness.Speed()
    plain = harness.run_plain(mods, queries, timer, speed)
    tracer = harness.Tracer()
    traced = harness.run_traced(mods, queries, timer, speed, tracer)
    assert [(a.reason, a.value) for a in plain] == [(a.reason, a.value) for a in traced]
    self_times = tracer.self_times_ms()
    for a in traced:
        assert sum(self_times[a.qid].values()) == pytest.approx(a.ms)
    assert set().union(*self_times.values()) <= set(harness.SPAN_METRIC)
    assert mods.engine.Solver.profile_table.__name__ == "profile_table"


def test_pass_count_depends_on_the_arguments_only():
    import run
    for workload, nominal in workloads.NOMINAL_PASS_S.items():
        assert run.pass_count(workload, 10 * nominal, False) == 10
        assert run.pass_count(workload, 0.1, False) == 1
        assert run.pass_count(workload, 0.1, True) == 2


def test_median_reference_time_per_query():
    import run
    passes = [{"attempts": [harness.Attempt(0, 5.0, None, scale=2.0),
                            harness.Attempt(1, 2.0, None)]},
              {"attempts": [harness.Attempt(0, 3.0, None),
                            harness.Attempt(1, None, "timeout")]}]
    assert run.median_ms(passes) == {0: 6.5, 1: 2.0}


def test_speed_scale_uses_the_samples_around_the_work():
    speed = harness.Speed()
    speed.samples = [harness.SPEED_REF_MS, 4 * harness.SPEED_REF_MS]
    assert speed.scale(0) == pytest.approx(0.5)
    with pytest.raises(IndexError):
        speed.scale(1)


def test_harrell_davis_quantile():
    import run
    values = list(range(1, 111))
    assert run.quantile(values, 0.5) == pytest.approx(55.5)
    assert 99 < run.quantile(values, 0.9) < 100
    assert run.quantile([7.0] * 20, 0.9) == pytest.approx(7.0)
