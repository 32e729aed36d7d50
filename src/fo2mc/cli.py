"""Command line front end.

Subcommands: count, wfomc, dist, oracle, normalize, cells, bench; every
counting subcommand answers through one ``Solver``.
Exit codes: 0 success, 1 parse/semantic error, 2 unsupported feature
(including formulas nested too deeply to parse), 3 internal consistency
violation.  All diagnostics go to stderr; results go to stdout, with
counts printed in full however many digits they have.  JSON output is
byte-stable for fixed inputs and flags, except for the runtime_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from .cells import n_ij_csv
from .engine import Solver
from .errors import (InternalConsistencyError, ParseError, SemanticError,
                     UnsupportedFeatureError)
from .logic import CardAnd, CardCompare, decimal_str
from .normalize import dump_normalized
from .oracle import DEFAULT_CAP, oracle_count, oracle_distribution
from .parser import (parse_cardinality, parse_problem, parse_weight_expr)
from .weights import count_distribution, wfomc_profile, wfomc_symmetric

SUBCOMMANDS = ("count", "wfomc", "dist", "oracle", "normalize", "cells", "bench")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fo2mc",
        description="Exact lifted model counting for two-variable logic with "
                    "equality, cardinality constraints and counting quantifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file", nargs="?", help="problem file (.fo2 by convention)")
        p.add_argument("-e", "--inline", help="inline problem text instead of a file")
        p.add_argument("-n", "--n", "--domain-size", dest="domain_size",
                       type=int, help="domain size")
        p.add_argument("--n-range", help="domain size range A..B (bench)")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--track", help="comma separated predicates to track")
        p.add_argument("--profiles", action="store_true",
                       help="emit the per-profile breakdown")
        p.add_argument("--dump-normalized", action="store_true",
                       help="emit the normalized problem")
        p.add_argument("--dump-cells", action="store_true",
                       help="emit the n_ij table as CSV")
        p.add_argument("--weight", help="profile weight expression over |P| counters")
        p.add_argument("--query", help="count query, e.g. '|H| = 2'")
        p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                       help="maximum ground atoms the oracle accepts")
    return parser


def _load_problem(args):
    if bool(args.file) == bool(args.inline):
        raise SemanticError("provide exactly one of: a problem file, or -e TEXT")
    if args.inline:
        return parse_problem(args.inline)
    with open(args.file, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _need_n(args) -> int:
    if args.domain_size is None:
        raise SemanticError("-n/--domain-size is required for this subcommand")
    if args.domain_size < 1:
        raise SemanticError("domain size must be at least 1")
    return args.domain_size


def _parse_range(args) -> range:
    if not args.n_range:
        raise SemanticError("--n-range A..B is required for bench")
    try:
        lo, hi = args.n_range.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SemanticError("--n-range must look like 2..50") from None
    if lo < 1 or hi < lo:
        raise SemanticError("--n-range bounds must satisfy 1 <= A <= B")
    return range(lo, hi + 1)


def _parse_query(text, signature) -> list[tuple[str, int]]:
    constraint = parse_cardinality(text, signature)
    parts = constraint.parts if isinstance(constraint, CardAnd) else (constraint,)
    query = []
    for part in parts:
        ok = (isinstance(part, CardCompare) and part.op == "="
              and len(part.left.coeffs) == 1 and part.left.coeffs[0][1] == 1
              and part.left.const == 0 and not part.right.coeffs)
        if not ok:
            raise SemanticError(
                "--query must be a conjunction of |P| = k comparisons")
        query.append((part.left.coeffs[0][0], part.right.const))
    return query


@contextmanager
def _exact_digits():
    """Lift the interpreter's int-to-str digit limit while a result is
    formatted, so counts of any length print in full; the limit of the
    calling process is restored afterwards."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python < 3.10.7: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _profiles_payload(result):
    return [{"cards": cards, "value": decimal_str(Fraction(value))}
            for cards, value in result.profiles]


def _maybe_dumps(args, solver, out, err):
    if args.dump_normalized:
        target = out if args.format == "text" else err
        target.write(dump_normalized(solver.norm))
    if args.dump_cells:
        target = out if args.format == "text" else err
        target.write(n_ij_csv(solver.cells))


def _count_sizes(args):
    if args.n_range and args.domain_size is None:
        return list(_parse_range(args))
    return [_need_n(args)]


def _run_count(args, out, err) -> int:
    problem = _load_problem(args)
    sizes = _count_sizes(args)
    solver = Solver(problem)
    _maybe_dumps(args, solver, out, err)
    if args.format == "csv":
        out.write("n,count\n")
    tracked = args.track.split(",") if args.track else []
    for n in sizes:
        start = time.monotonic()
        value = solver.count(n)
        elapsed = int((time.monotonic() - start) * 1000)
        result = solver.breakdown(n, tracked) if args.profiles else None
        with _exact_digits():
            payload = {"n": n, "count": str(value), "mode": "fomc",
                       "runtime_ms": elapsed}
            if result is not None:
                payload["profiles"] = _profiles_payload(result)
        if args.format == "json":
            out.write(_emit_json(payload) + "\n")
        elif args.format == "csv":
            out.write(f"{n},{payload['count']}\n")
        else:
            out.write(f"{payload['count']}\n")
            for entry in payload.get("profiles", ()):
                out.write(f"  {entry['cards']}: {entry['value']}\n")
    return 0


def _run_wfomc(args, out, err) -> int:
    problem = _load_problem(args)
    n = _need_n(args)
    solver = Solver(problem)
    _maybe_dumps(args, solver, out, err)
    start = time.monotonic()
    if args.weight:
        expr = parse_weight_expr(args.weight, solver.norm.signature)
        value = wfomc_profile(solver, n, expr)
    elif problem.symmetric_weights:
        value = wfomc_symmetric(solver, n)
    elif problem.profile_weight is not None:
        value = wfomc_profile(solver, n)
    else:
        raise SemanticError("wfomc needs weight declarations in the problem "
                            "file or a --weight expression")
    elapsed = int((time.monotonic() - start) * 1000)
    with _exact_digits():
        payload = {"n": n, "count": decimal_str(value), "mode": "wfomc",
                   "runtime_ms": elapsed}
    if args.format == "json":
        out.write(_emit_json(payload) + "\n")
    elif args.format == "csv":
        out.write(f"n,count\n{n},{payload['count']}\n")
    else:
        out.write(payload["count"] + "\n")
    return 0


def _run_dist(args, out, err) -> int:
    problem = _load_problem(args)
    n = _need_n(args)
    solver = Solver(problem)
    _maybe_dumps(args, solver, out, err)
    if not args.query:
        raise SemanticError("dist requires --query, e.g. --query '|H| = 2'")
    query = _parse_query(args.query, solver.norm.signature)
    weight = None
    if args.weight:
        weight = parse_weight_expr(args.weight, solver.norm.signature)
    start = time.monotonic()
    numerator, partition, prob = count_distribution(solver, n, query, weight)
    elapsed = int((time.monotonic() - start) * 1000)
    with _exact_digits():
        payload = {
            "n": n, "mode": "dist", "runtime_ms": elapsed,
            "count": f"{float(prob):.12g}",
            "fraction": f"{prob.numerator}/{prob.denominator}",
            "numerator": decimal_str(numerator),
            "partition": decimal_str(partition),
        }
    if args.format == "json":
        out.write(_emit_json(payload) + "\n")
    else:
        out.write(f"{payload['fraction']} = {payload['count']}\n")
    return 0


def _run_oracle(args, out, err) -> int:
    problem = _load_problem(args)
    n = _need_n(args)
    cap = args.oracle_cap
    if problem.symmetric_weights:
        missing = [p for p in problem.signature.predicates()
                   if p not in problem.symmetric_weights]
        if missing:
            raise SemanticError("missing symmetric weight for predicate(s): "
                                + ", ".join(missing))
    start = time.monotonic()
    if args.query:
        query = _parse_query(args.query, problem.signature)
        weight = (parse_weight_expr(args.weight, problem.signature)
                  if args.weight else problem.profile_weight)
        dist = oracle_distribution(problem.signature, problem.sentence, n,
                                   weight, [p for p, _ in query],
                                   constraint=problem.constraint,
                                   symmetric_weights=problem.symmetric_weights or None,
                                   cap=cap)
        prob = dist.get(tuple(c for _, c in query), Fraction(0))
        elapsed = int((time.monotonic() - start) * 1000)
        with _exact_digits():
            payload = {"n": n, "mode": "dist", "runtime_ms": elapsed,
                       "count": f"{float(prob):.12g}",
                       "fraction": f"{prob.numerator}/{prob.denominator}"}
    else:
        weight_expr = (parse_weight_expr(args.weight, problem.signature)
                       if args.weight else problem.profile_weight)
        report = oracle_count(problem.signature, problem.sentence, n,
                              constraint=problem.constraint,
                              symmetric_weights=problem.symmetric_weights or None,
                              profile_weight=weight_expr, cap=cap)
        elapsed = int((time.monotonic() - start) * 1000)
        with _exact_digits():
            if report.weighted_total is not None:
                payload = {"n": n, "mode": "wfomc", "runtime_ms": elapsed,
                           "count": decimal_str(report.weighted_total)}
            else:
                payload = {"n": n, "mode": "fomc", "runtime_ms": elapsed,
                           "count": str(report.total)}
    if args.format == "json":
        out.write(_emit_json(payload) + "\n")
    else:
        line = payload.get("fraction", payload["count"])
        out.write(f"{line}\n")
    return 0


def _run_normalize(args, out, err) -> int:
    problem = _load_problem(args)
    solver = Solver(problem)
    out.write(dump_normalized(solver.norm))
    return 0


def _run_cells(args, out, err) -> int:
    problem = _load_problem(args)
    solver = Solver(problem)
    out.write(n_ij_csv(solver.cells))
    return 0


def _run_bench(args, out, err) -> int:
    problem = _load_problem(args)
    sizes = _parse_range(args)
    solver = Solver(problem)
    out.write("n,lifted_ms,oracle_ms\n")
    for n in sizes:
        start = time.monotonic()
        lifted = solver.count(n)
        lifted_ms = (time.monotonic() - start) * 1000
        atoms = problem.signature.ground_atom_count(n)
        if atoms <= args.oracle_cap:
            start = time.monotonic()
            report = oracle_count(problem.signature, problem.sentence, n,
                                  constraint=problem.constraint,
                                  cap=args.oracle_cap)
            oracle_ms = f"{(time.monotonic() - start) * 1000:.3f}"
            if report.total != lifted:
                raise InternalConsistencyError(
                    f"bench mismatch at n={n}: lifted {lifted} vs oracle "
                    f"{report.total}")
        else:
            oracle_ms = "skipped"
        out.write(f"{n},{lifted_ms:.3f},{oracle_ms}\n")
        out.flush()
    return 0


_RUNNERS = {
    "count": _run_count,
    "wfomc": _run_wfomc,
    "dist": _run_dist,
    "oracle": _run_oracle,
    "normalize": _run_normalize,
    "cells": _run_cells,
    "bench": _run_bench,
}


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args, out, err)
    except RecursionError:
        err.write("unsupported: formula nested too deeply\n")
        return 2
    except (ParseError, SemanticError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except UnsupportedFeatureError as exc:  # includes OracleCapError
        err.write(f"unsupported: {exc}\n")
        return 2
    except InternalConsistencyError as exc:
        err.write(f"internal consistency violation: {exc}\n")
        return 3
    except (OSError, UnicodeDecodeError) as exc:  # unreadable problem file
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
