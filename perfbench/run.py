"""fo2mc benchmark: answers one workload's queries in a fixed number of
passes and prints every metric, then one JSON result line.

    python3 perfbench/run.py --workload enum_ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in this one process, one query at a time,
with no worker pool.  A run makes a fixed number of whole passes over the
workload's queries, set by ``--seconds``, and times each query at a
reference machine speed (``harness.Speed``).  ``--trace 0`` reports the
end-to-end metrics from untraced passes; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.
``NOTES.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import harness  # noqa: E402  (sibling modules, found through sys.path[0])
import workloads  # noqa: E402

SETUP_REPEATS = 15
#: a run stops making passes once it has taken this many times its
#: nominal length
OVERRUN = 1.3
#: past this many seconds into the run, queries not yet started count as
#: timeouts, so a run always ends well inside three minutes
HARD_LIMIT_S = 150.0
WARMUP_ARGV = ["count", "-n", "2", "-e",
               "predicate A/1\npredicate R/2\nforall x (A(x) -> exists y R(x,y))\n",
               "--format", "json"]

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "query_ms.p50": "ms",
                    "query_ms.p90": "ms", "peak_rss_mb": "MB"}


def calibrate_ms() -> float:
    """``machine.calib_ms``: 40 runs of the speed kernel, one timing."""
    start = time.perf_counter()
    for _ in range(40):
        harness.speed_kernel()
    return (time.perf_counter() - start) * 1000


def setup(workload: str, seed: int):
    """Import the program, generate the inputs and references, warm up."""
    start = time.perf_counter()
    mods = harness.Modules.load()
    queries = workloads.build(workload, seed)
    try:
        mods.cli.run(WARMUP_ARGV, io.StringIO(), io.StringIO())
    except Exception:  # noqa: BLE001 - the warm-up answer is not checked
        pass
    return (time.perf_counter() - start) * 1000, mods, queries


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each
    1/n-wide slice of [0, 1].  It averages the few values next to the
    quantile, where a single order statistic carries all of one query's
    timing noise."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200 * n
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Whole passes in a run: ``seconds`` over the workload's nominal pass
    time, so the count depends on the arguments alone and is the same on
    every version of the program.  A traced run makes at least one
    untraced and one traced pass."""
    return max(1 + trace, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def measure(mods, queries, passes: int, nominal_s: float, trace: bool,
            timer, speed) -> list[dict]:
    """``passes`` whole passes; with ``trace`` they alternate untraced and
    traced, untraced first.  Passes stop early only once the run has taken
    ``OVERRUN`` times its nominal length ``nominal_s``, which bounds a much
    slower program's run time."""
    start = time.perf_counter()
    done = []
    for k in range(passes):
        if done and time.perf_counter() - start > OVERRUN * nominal_s:
            break
        traced = trace and k % 2 == 1
        tracer = harness.Tracer() if traced else None
        if traced:
            attempts = harness.run_traced(mods, queries, timer, speed, tracer)
        else:
            attempts = harness.run_plain(mods, queries, timer, speed)
        done.append({"traced": traced, "attempts": attempts, "tracer": tracer})
    return done


def median_ms(passes) -> dict[int, float]:
    """Per query, the median of its reference-speed times over ``passes``."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for a in p["attempts"]:
            if a.ms is not None:
                times.setdefault(a.qid, []).append(a.ref_ms)
    return {qid: statistics.median(ms) for qid, ms in times.items()}


def layer_times_ms(traced) -> dict[str, float]:
    """Per layer, its reference-speed self time per query as the median
    over the traced passes, summed over the queries.  The layers add up
    to the traced counterpart of ``solve_s``."""
    per_query: dict[tuple[int, str], list[float]] = {}
    for p in traced:
        scale = {a.qid: a.scale for a in p["attempts"]}
        for qid, spans in p["tracer"].self_times_ms().items():
            layers = Counter()
            for name, ms in spans.items():
                layers[harness.SPAN_METRIC[name]] += ms * scale[qid]
            for layer, ms in layers.items():
                per_query.setdefault((qid, layer), []).append(ms)
    times = dict.fromkeys(harness.TIME_METRICS, 0.0)
    for (_, layer), ms in per_query.items():
        times[layer] += statistics.median(ms)
    return times


def layer_metrics(passes, oracle_stats, all_attempts, calib, solve_s) -> dict:
    """Per-layer metrics.  Counts are per traced pass and repeat exactly."""
    traced = [p for p in passes if p["traced"]]
    times = layer_times_ms(traced)
    metrics = {name: (ms, "ms") for name, ms in times.items()}
    counts = traced[0]["tracer"].counts
    for name in harness.COUNT_METRICS:
        if name != "cells.fill":
            metrics[name] = (counts[name], "count")
    sweep = counts["cells.sweep_cells"]
    metrics["cells.fill_ratio"] = (counts["cells.fill"] / sweep if sweep else 0.0, "ratio")
    metrics["oracle.check_ms"] = (oracle_stats.check_ms, "ms")
    metrics["oracle.assignments"] = (oracle_stats.assignments, "count")
    fail_rows = [harness.fail_counts(p["attempts"]) for p in passes]
    for reason in harness.FAIL_REASONS:
        metrics[f"fail.{reason}"] = (max(r[reason] for r in fail_rows), "count")
    metrics["failed_frac"] = (harness.failed_frac(all_attempts), "ratio")
    metrics["machine.calib_ms"] = (statistics.mean(calib), "ms")
    traced_total = sum(times.values()) / 1000
    metrics["trace.overhead_frac"] = (traced_total / solve_s - 1, "ratio")
    return metrics


def write_trace(workload, seed, passes, meta, metrics, queries) -> Path:
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    doc = {"meta": meta,
           "queries": {q.qid: q.label() for q in queries},
           "span_fields": ["name", "query", "start_ns", "end_ns", "parent"],
           "passes": [p["tracer"].spans for p in passes if p["traced"]],
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path.write_text(json.dumps(doc))
    return path


def write_attempts(workload, seed, passes, meta) -> None:
    """Every attempt's measured and reference-speed time in ms, pass by
    pass, for offline analysis."""
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    doc = {"meta": meta,
           "fields": ["query", "ms", "ref_ms", "reason"],
           "passes": [{"traced": p["traced"],
                       "attempts": [[a.qid, a.ms, a.ref_ms, a.reason]
                                    for a in p["attempts"]]}
                      for p in passes]}
    (out_dir / f"attempts-{workload}-seed{seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fo2mc" / "__init__.py").is_file():
        print(f"error: no fo2mc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("FO2MC_THREADS", None)
    sys.path.insert(0, str(SRC))
    timer = harness.Timer(time.perf_counter() + HARD_LIMIT_S)

    calib = [calibrate_ms()]
    speed = harness.Speed()
    setup_ms = []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        elapsed, mods, queries = setup(args.workload, args.seed)
        speed.sample()
        setup_ms.append(elapsed * speed.scale(mark))
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: fo2mc was imported from {mods.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # the collector leaves the benchmark's own objects alone from here on,
    # as it would in a command-line process that holds only the program
    gc.collect()
    gc.freeze()
    passes = pass_count(args.workload, args.seconds, bool(args.trace))
    done = measure(mods, queries, passes, passes * workloads.NOMINAL_PASS_S[args.workload],
                   bool(args.trace), timer, speed)
    all_attempts = [a for p in done for a in p["attempts"]]
    oracle, oracle_stats = harness.oracle_answers(mods, queries)
    harness.check(queries, all_attempts, oracle)
    calib.append(calibrate_ms())

    plain = [p for p in done if not p["traced"]]
    samples = list(median_ms(plain).values())
    solve_s = sum(samples) / 1000
    wall_s = statistics.median(
        sum(a.ms for a in p["attempts"] if a.ms is not None) for p in plain) / 1000
    failures = harness.failures(queries, all_attempts)
    failed = sum(a.reason is not None for a in all_attempts)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "commit": commit_id(), "src_sha256": source_digest(),
            "cores": os.cpu_count(), "python": sys.version.split()[0],
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "queries_per_pass": len(queries), "passes_planned": passes,
            "untraced_passes": len(plain), "traced_passes": len(done) - len(plain),
            "latency_samples": len(samples),
            "untraced_pass_wall_s": round(wall_s, 4),
            "speed_ms": round(statistics.median(speed.samples), 4),
            "calib_ms": [round(c, 3) for c in calib]}

    write_attempts(args.workload, args.seed, done, meta)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    if args.trace:
        metrics = layer_metrics(done, oracle_stats, all_attempts, calib, solve_s)
        traced_total = sum(metrics[k][0] for k in harness.TIME_METRICS) / 1000
        path = write_trace(args.workload, args.seed, done, meta, metrics, queries)
        print(f"# untraced solve_s {solve_s:.4f} s, traced self-time total "
              f"{traced_total:.4f} s (each the sum over queries of the median "
              f"reference-speed time); spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_ms) / 1000,
            "solve_s": solve_s,
            "query_ms.p50": quantile(samples, 0.5),
            "query_ms.p90": quantile(samples, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        print(f"# latency: median of {len(plain)} untraced attempts per query at the "
              f"reference speed; p90 over {len(samples)} samples "
              f"({len(samples) // 10} beyond it)")
    metrics.setdefault("failed_frac", (harness.failed_frac(all_attempts), "ratio"))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# {failed} of {len(all_attempts)} attempts failed")
    for f in failures:
        tag = f"known defect: {f.query.known_why}" if f.known else "UNEXPECTED"
        print(f"FAIL {args.workload} {f.query.problem} n={f.query.n} {f.reason} "
              f"x{f.attempts} [{tag}] {f.detail[:160]}")
    result = {"correct": all(f.known for f in failures),
              "attempted": len(all_attempts), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                          if args.trace or k in END_TO_END_UNITS}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
