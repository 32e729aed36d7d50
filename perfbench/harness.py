"""Running, tracing and checking queries.

An untraced pass answers every query through ``fo2mc.cli.run`` exactly as
the command line would, timing each call.  A traced pass answers the same
queries by calling the program's public functions one after another, the
way ``cli.run`` does, and records one span per call; the program itself is
not changed.  Both collect garbage before each query, outside the timed
region, so that every query starts from the same collector state.

The machine's speed drifts by tens of percent over seconds, even in a
process that has it to itself (see ``Speed``), so every time is also
scaled to a reference machine speed measured between queries.  Answers
are checked after the passes, outside the timed region: against the
query's exact reference and, where the atom cap allows, against the
brute-force ground oracle.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import math
import signal
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from workloads import ORACLE_ATOMS, Query

#: no query comes near this at the seed; a slower one is a failure
QUERY_TIMEOUT_S = 10.0

FAIL_REASONS = ("parse", "refused", "internal", "output", "mismatch", "timeout")

#: span name -> per-layer time metric its self time is added to
SPAN_METRIC = {
    "cli.build_parser+parse_args": "cli.args_ms",
    "parser.parse_problem": "parser.parse_ms",
    "cli._parse_query": "parser.parse_ms",
    "normalize.normalize": "normalize.normalize_ms",
    "engine.Solver": "cells.build_ms",
    "engine.Solver.profile_table": "engine.profile_table_ms",
    "engine.Solver.count": "engine.filter_ms",
    "engine.Solver.weighted_total": "engine.filter_ms",
    "weights.wfomc_symmetric": "weights.total_ms",
    "weights.wfomc_profile": "weights.total_ms",
    "weights.count_distribution": "weights.total_ms",
    "cli.output": "cli.output_ms",
}
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))
COUNT_METRICS = ("cells.valid_types", "cells.sweep_cells", "cells.fill",
                 "engine.censuses", "engine.enum_evals", "engine.collapsed_evals",
                 "engine.profile_terms", "engine.result_bits",
                 "engine.unsound_warnings")


#: ms that one run of ``speed_kernel`` takes at the reference speed, the
#: typical speed of a 2-core x86 box; scaled times are at that speed
SPEED_REF_MS = 1.04
#: a speed sample is taken between queries once this long has passed
SPEED_EVERY_S = 0.25


def speed_kernel() -> int:
    """A fixed pure-Python loop; its time tracks the machine's speed."""
    acc = 0
    for i in range(10_000):
        acc = (acc + i * i) % 1_000_003
    return acc


class Speed:
    """The machine's speed, sampled between queries.  A sample is the
    fastest of three runs of ``speed_kernel``.  A query timed between
    samples ``i`` and ``i + 1`` is scaled by ``SPEED_REF_MS`` over the
    geometric mean of the two, which removes most of the drift: on a
    2-core x86 VM it cut the spread of quarter-second chunks of work from
    0.25 to 0.08 (IQR over median)."""

    def __init__(self):
        self.samples: list[float] = []
        self.taken = -math.inf
        self.sample()

    def sample(self) -> int:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            speed_kernel()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best * 1000)
        self.taken = time.perf_counter()
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the sample before the work that follows, taken afresh
        when the last one is older than ``SPEED_EVERY_S``."""
        if time.perf_counter() - self.taken > SPEED_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor from measured to reference-speed time for work done
        after sample ``index``; the sample after it must exist."""
        return SPEED_REF_MS / math.sqrt(self.samples[index] * self.samples[index + 1])


class QueryTimeout(BaseException):
    """Raised by the interval timer inside a query that ran too long.
    A BaseException, so no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


@dataclass
class Modules:
    """The program's modules, imported afresh by each set-up."""
    cli: object
    parser: object
    normalize: object
    engine: object
    weights: object
    logic: object
    oracle: object
    errors: object

    @classmethod
    def load(cls) -> "Modules":
        for name in [m for m in sys.modules if m == "fo2mc" or m.startswith("fo2mc.")]:
            del sys.modules[name]
        return cls(*(importlib.import_module(f"fo2mc.{name}") for name in
                     ("cli", "parser", "normalize", "engine", "weights",
                      "logic", "oracle", "errors")))


@dataclass
class Attempt:
    qid: int
    ms: float | None          # None when the run's deadline passed first
    reason: str | None        # None, or one of FAIL_REASONS
    value: Fraction | None = None
    detail: str = ""
    #: measured to reference-speed time, from the speed samples around it
    scale: float = 1.0

    @property
    def ref_ms(self) -> float | None:
        return None if self.ms is None else self.ms * self.scale


def classify(exc: BaseException) -> tuple[str, str]:
    """Failure reason of an exception that escaped a query."""
    if isinstance(exc, QueryTimeout):
        return "timeout", f"over {QUERY_TIMEOUT_S:g} s"
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        return "output", f"ValueError: {exc}"
    return "internal", f"uncaught {type(exc).__name__}: {exc}"


EXIT_REASON = {1: "parse", 2: "refused", 3: "internal"}


def parse_answer(query: Query, line: str) -> Fraction:
    payload = json.loads(line)
    if query.mode == "dist":
        return Fraction(payload["fraction"])
    return Fraction(payload["count"])


class Timer:
    """Per-query timeout through the interval timer, capped by the run's
    hard deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        signal.signal(signal.SIGALRM, _on_alarm)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    @contextmanager
    def limit(self):
        signal.setitimer(signal.ITIMER_REAL, min(QUERY_TIMEOUT_S, self.remaining()))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def _late(query: Query) -> Attempt:
    return Attempt(query.qid, None, "timeout", detail="run deadline passed before the query")


def _scale(attempts: list[Attempt], marks: list[int], speed: Speed) -> None:
    """Set each attempt's scale from the samples around it, taking the
    sample after the last query now."""
    speed.sample()
    for a, index in zip(attempts, marks):
        a.scale = speed.scale(index)


def run_plain(mods: Modules, queries: list[Query], timer: Timer,
              speed: Speed) -> list[Attempt]:
    """One untraced pass through ``fo2mc.cli.run``."""
    run = mods.cli.run
    attempts, marks = [], []
    for q in queries:
        marks.append(speed.mark())
        if timer.remaining() <= 0:
            attempts.append(_late(q))
            continue
        argv = q.argv()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        rc = reason = None
        detail = ""
        start = time.perf_counter()
        try:
            with timer.limit():
                rc = run(argv, out, err)
        except BaseException as exc:  # noqa: BLE001 - every escape is a failure
            if isinstance(exc, KeyboardInterrupt):
                raise
            reason, detail = classify(exc)
        ms = (time.perf_counter() - start) * 1000
        attempts.append(_finish(q, ms, rc, reason, detail, out.getvalue(), err.getvalue()))
    _scale(attempts, marks, speed)
    return attempts


def _finish(q, ms, rc, reason, detail, stdout, stderr) -> Attempt:
    if reason is None and rc != 0:
        reason, detail = EXIT_REASON.get(rc, "internal"), f"exit {rc}: {stderr.strip()}"
    if reason is not None:
        return Attempt(q.qid, ms, reason, detail=detail)
    try:
        return Attempt(q.qid, ms, None, parse_answer(q, stdout.strip().splitlines()[-1]))
    except (IndexError, KeyError, ValueError) as exc:
        return Attempt(q.qid, ms, "output", detail=f"unreadable result line: {exc!r}")


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: [name, query id, start ns, end ns, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.qid = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, self.qid, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self.stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_times_ms(self) -> dict[int, Counter]:
        """Self time per query and span name: duration minus the
        children's.  A query's self times add up to its traced latency."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        out: dict[int, Counter] = {}
        for s, ns in zip(self.spans, own):
            out.setdefault(s[1], Counter())[s[0]] += ns / 1e6
        return out


@contextmanager
def instrumented(mods: Modules, tracer: Tracer):
    """Wrap the engine's public entry points in spans for one traced pass,
    and count the evaluations per path.  The census count per enumeration
    is C(n+T-1, T-1) over the evaluator's T valid types.  A method the
    engine no longer has is left alone, and its counts stay zero."""
    solver_cls = mods.engine.Solver
    evaluator_cls = mods.engine.ProfileEvaluator
    saved = []

    def patch(cls, attr, make):
        original = getattr(cls, attr, None)
        if original is not None:
            saved.append((cls, attr, original))
            setattr(cls, attr, make(original))

    def spanned(name):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def profile_table(original):
        def wrapper(*args, **kwargs):
            with tracer.span("engine.Solver.profile_table"):
                names, table = original(*args, **kwargs)
            tracer.counts["engine.profile_terms"] += len(table)
            return names, table
        return wrapper

    def enumerate_table(original):
        def wrapper(self):
            tracer.counts["engine.enum_evals"] += 1
            types = len(self.types)
            tracer.counts["engine.censuses"] += comb(self.n + types - 1, types - 1)
            return original(self)
        return wrapper

    def collapsed_table(original):
        def wrapper(self):
            tracer.counts["engine.collapsed_evals"] += 1
            return original(self)
        return wrapper

    patch(solver_cls, "profile_table", profile_table)
    patch(solver_cls, "count", spanned("engine.Solver.count"))
    patch(solver_cls, "weighted_total", spanned("engine.Solver.weighted_total"))
    patch(evaluator_cls, "_enumerate_table", enumerate_table)
    patch(evaluator_cls, "_collapsed_table", collapsed_table)
    try:
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def _cli_payload(mods: Modules, q: Query, value) -> str:
    """The JSON result line, with the payload the command line builds."""
    decimal_str = mods.logic.decimal_str
    if q.mode == "count":
        payload = {"n": q.n, "count": str(value), "mode": "fomc", "runtime_ms": 0}
    elif q.mode == "wfomc":
        payload = {"n": q.n, "count": decimal_str(value), "mode": "wfomc", "runtime_ms": 0}
    else:
        numerator, partition, prob = value
        payload = {"n": q.n, "mode": "dist", "runtime_ms": 0,
                   "count": f"{float(prob):.12g}",
                   "fraction": f"{prob.numerator}/{prob.denominator}",
                   "numerator": decimal_str(numerator),
                   "partition": decimal_str(partition)}
    return mods.cli._emit_json(payload)


def _result_bits(value) -> int:
    parts = value if isinstance(value, tuple) else (value,)
    bits = 0
    for part in parts:
        part = Fraction(part)
        bits += part.numerator.bit_length() + part.denominator.bit_length()
    return bits


def _traced_query(mods: Modules, tr: Tracer, q: Query) -> str:
    """Answer one query layer by layer, as ``cli.run`` would."""
    cli, errors = mods.cli, mods.errors
    args = tr.call("cli.build_parser+parse_args",
                   lambda argv: cli.build_parser().parse_args(argv), q.argv())
    problem = tr.call("parser.parse_problem", mods.parser.parse_problem, args.inline)
    norm = tr.call("normalize.normalize", mods.normalize.normalize, problem)
    solver = tr.call("engine.Solver", mods.engine.Solver, norm)
    cells = solver.cells
    tr.counts["cells.valid_types"] += len(cells.valid)
    tr.counts["cells.sweep_cells"] += len(cells.pair_vs) << cells.b
    tr.counts["cells.fill"] += sum(cells.n_ij.values())
    weights = mods.weights
    if q.mode == "count":
        value = solver.count(q.n)
    elif q.mode == "wfomc":
        if problem.symmetric_weights:
            value = tr.call("weights.wfomc_symmetric", weights.wfomc_symmetric, solver, q.n)
        elif problem.profile_weight is not None:
            value = tr.call("weights.wfomc_profile", weights.wfomc_profile, solver, q.n)
        else:
            raise errors.SemanticError("wfomc needs weight declarations")
    else:
        query = tr.call("cli._parse_query", cli._parse_query,
                        args.query, solver.norm.signature)
        value = tr.call("weights.count_distribution", weights.count_distribution,
                        solver, q.n, query)
    tr.counts["engine.result_bits"] += _result_bits(value)
    return tr.call("cli.output", _cli_payload, mods, q, value)


def run_traced(mods: Modules, queries: list[Query], timer: Timer,
               speed: Speed, tracer: Tracer) -> list[Attempt]:
    """One traced pass; spans and counts accumulate in ``tracer``.  An
    attempt's time is the sum of its query's self times."""
    errors = mods.errors
    attempts, answered, marks = [], [], []
    with instrumented(mods, tracer):
        for q in queries:
            marks.append(speed.mark())
            if timer.remaining() <= 0:
                attempts.append(_late(q))
                continue
            tracer.qid = q.qid
            rc, reason, detail, line = 0, None, "", ""
            gc.collect()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    with timer.limit():
                        line = _traced_query(mods, tracer, q)
                except (errors.ParseError, errors.SemanticError) as exc:
                    rc, detail = 1, str(exc)
                except errors.UnsupportedFeatureError as exc:
                    rc, detail = 2, str(exc)
                except errors.InternalConsistencyError as exc:
                    rc, detail = 3, str(exc)
                except BaseException as exc:  # noqa: BLE001 - every escape is a failure
                    if isinstance(exc, KeyboardInterrupt):
                        raise
                    reason, detail = classify(exc)
            tracer.stack.clear()
            tracer.counts["engine.unsound_warnings"] += sum(
                type(w.message).__name__ == "UnsoundCountingPatternWarning" for w in caught)
            attempt = _finish(q, None, rc, reason, detail, line, detail)
            attempts.append(attempt)
            answered.append(attempt)
    self_times = tracer.self_times_ms()
    for a in answered:
        a.ms = sum(self_times.get(a.qid, {}).values())
    _scale(attempts, marks, speed)
    return attempts


# ---------------------------------------------------------------------------
# checking


@dataclass
class OracleStats:
    check_ms: float = 0.0
    assignments: int = 0


def oracle_answers(mods: Modules, queries: list[Query]) -> tuple[dict, OracleStats]:
    """Ground-oracle answers of the eligible queries, timed."""
    stats = OracleStats()
    answers = {}
    oracle = mods.oracle
    for q in queries:
        if not q.oracle:
            continue
        start = time.perf_counter()
        problem = mods.parser.parse_problem(q.text)
        sig, sentence = problem.signature, problem.sentence
        sym = problem.symmetric_weights or None
        if q.mode == "dist":
            pred, k = q.dist
            dist = oracle.oracle_distribution(sig, sentence, q.n, problem.profile_weight,
                                              [pred], constraint=problem.constraint,
                                              symmetric_weights=sym, cap=ORACLE_ATOMS)
            answers[q.qid] = dist.get((k,), Fraction(0))
            stats.assignments += 2 ** sig.ground_atom_count(q.n)
        else:
            report = oracle.oracle_count(sig, sentence, q.n, constraint=problem.constraint,
                                         symmetric_weights=sym,
                                         profile_weight=problem.profile_weight,
                                         cap=ORACLE_ATOMS)
            weighted = q.mode == "wfomc"
            answers[q.qid] = Fraction(report.weighted_total if weighted else report.total)
            stats.assignments += report.models_enumerated
        stats.check_ms += (time.perf_counter() - start) * 1000
    return answers, stats


def short(value: Fraction) -> str:
    if abs(value.numerator) < 10 ** 40 and value.denominator < 10 ** 40:
        return str(value)
    return f"<{value.numerator.bit_length()}-bit value>"


def check(queries: list[Query], attempts: list[Attempt], oracle: dict) -> None:
    """Mark each answered attempt whose value differs from a reference."""
    by_id = {q.qid: q for q in queries}
    for a in attempts:
        if a.reason is not None:
            continue
        q = by_id[a.qid]
        refs = []
        if q.expected is not None:
            refs.append((q.expected, q.provenance))
        if a.qid in oracle:
            refs.append((oracle[a.qid], "ground oracle"))
        for want, source in refs:
            if a.value != want:
                a.reason = "mismatch"
                a.detail = f"got {short(a.value)}, want {short(want)} ({source})"
                break


@dataclass
class Failure:
    query: Query
    reason: str
    detail: str
    attempts: int

    @property
    def known(self) -> bool:
        return self.reason in self.query.known


def failures(queries: list[Query], attempts: list[Attempt]) -> list[Failure]:
    """Failed attempts grouped by query and reason, in query order."""
    by_id = {q.qid: q for q in queries}
    grouped: dict[tuple[int, str], Failure] = {}
    for a in attempts:
        if a.reason is None:
            continue
        key = (a.qid, a.reason)
        if key in grouped:
            grouped[key].attempts += 1
        else:
            grouped[key] = Failure(by_id[a.qid], a.reason, a.detail, 1)
    return sorted(grouped.values(),
                  key=lambda f: (f.query.problem, f.query.n, f.reason))


def fail_counts(attempts: list[Attempt]) -> Counter:
    counts = Counter({reason: 0 for reason in FAIL_REASONS})
    counts.update(a.reason for a in attempts if a.reason is not None)
    return counts


def failed_frac(attempts: list[Attempt]) -> float:
    """Failed attempts over attempts, a deadline-skipped query included."""
    return sum(a.reason is not None for a in attempts) / len(attempts)
