"""Command line front end.

Subcommands: count, wfomc, dist, oracle, normalize, cells, bench; every
counting subcommand answers through one ``Solver``.
Exit codes: 0 success, 1 parse/semantic error, 2 unsupported feature
(including formulas nested too deeply to parse and counts that run out
of memory), 3 internal consistency violation.  All diagnostics go to
stderr; results go to stdout, with counts printed in full however many
digits they have.  JSON output is byte-stable for fixed inputs and flags, except for the runtime_ms field.
Each subcommand takes only the flags its runner reads (``COMMANDS``).
A usage error (a bad flag or choice, a flag the subcommand does not
take, a missing or unknown subcommand) is a parse error like any other:
``error: ...`` on stderr and exit 1.

The argument parser is built once per process.  Building it makes 41
``add_argument`` calls, each of which creates a help formatter that
probes the terminal size: about 1.6 ms (Python 3.11, 2-core VM), against
under 0.1 ms to parse one argv with a parser already built.
``parse_args`` keeps no state between calls, so every in-process caller
of ``run`` can share it.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from .cells import n_ij_csv
from .engine import Solver, _as_count
from .errors import (InternalConsistencyError, ParseError, SemanticError,
                     UnsupportedFeatureError)
from .logic import CardAnd, CardCompare, decimal_str
from .normalize import dump_normalized
from .oracle import DEFAULT_CAP, oracle_count, oracle_distribution
from .parser import (parse_cardinality, parse_problem, parse_weight_expr)
from .weights import count_distribution, wfomc_profile

#: every flag a subcommand may take besides the problem source and
#: --format: its spellings and its ``add_argument`` keywords
_FLAGS = {
    "-n": (("-n", "--n", "--domain-size"),
           dict(dest="domain_size", type=int, help="domain size")),
    "--n-range": (("--n-range",), dict(help="domain size range A..B")),
    "--track": (("--track",), dict(help="comma separated predicates to track")),
    "--profiles": (("--profiles",), dict(action="store_true",
                                         help="emit the per-profile breakdown")),
    "--weight": (("--weight",),
                 dict(help="profile weight expression over |P| counters")),
    "--query": (("--query",), dict(help="count query, e.g. '|H| = 2'")),
    "--oracle-cap": (("--oracle-cap",),
                     dict(type=int, default=DEFAULT_CAP,
                          help="maximum ground atoms the oracle accepts")),
}

#: per subcommand, the flags its runner reads besides the problem source,
#: and its --format choices (no --format flag when empty); -n and
#: --n-range exclude each other
COMMANDS = {
    "count": (("-n", "--n-range", "--track", "--profiles"), ("text", "json", "csv")),
    "wfomc": (("-n", "--weight"), ("text", "json", "csv")),
    "dist": (("-n", "--weight", "--query"), ("text", "json")),
    "oracle": (("-n", "--weight", "--query", "--oracle-cap"), ("text", "json")),
    "normalize": ((), ()),
    "cells": ((), ()),
    "bench": (("--n-range", "--oracle-cap"), ()),
}

SUBCOMMANDS = tuple(COMMANDS)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage and exiting with 2,
    so ``run`` reports them on its own error stream with exit 1.  The
    subcommand parsers are of this class too (``parser_class``)."""

    def error(self, message):
        raise SemanticError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every caller: do not modify it.
    Each subcommand takes only the flags ``COMMANDS`` lists for it, spelled
    in full, so any other flag or abbreviation is an unrecognized argument."""
    parser = _Parser(
        prog="fo2mc", allow_abbrev=False,
        description="Exact lifted model counting for two-variable logic with "
                    "equality, cardinality constraints and counting quantifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, formats) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("file", nargs="?", help="problem file (.fo2 by convention)")
        p.add_argument("-e", "--inline", help="inline problem text instead of a file")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        sizes = p.add_mutually_exclusive_group()
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            (sizes if flag in ("-n", "--n-range") else p).add_argument(*names, **kwargs)
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


#: rounds to 12 significant digits at any exponent
_TWELVE_DIGITS = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _rounded(value: Fraction) -> str:
    """value to 12 significant digits: as ``%.12g`` prints its float
    wherever that is a normal float, else (where the float would overflow
    or lose digits) in the same notation, rounded from the exact value."""
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf
    if not value or sys.float_info.min <= abs(approx) < math.inf:
        return f"{approx:.12g}"
    exact = _TWELVE_DIGITS.divide(decimal.Decimal(value.numerator),
                                  decimal.Decimal(value.denominator))
    return f"{_TWELVE_DIGITS.normalize(exact):.12g}"


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _profiles_payload(result):
    return [{"cards": cards, "value": decimal_str(Fraction(value))}
            for cards, value in result.profiles]


def _count_sizes(args):
    if args.n_range:
        return list(_parse_range(args))
    return [_need_n(args)]


def _run_count(args, out, err) -> int:
    if args.profiles and args.format == "csv":
        raise SemanticError("--profiles cannot be printed as csv; "
                            "use --format text or json")
    problem = _load_problem(args)
    sizes = _count_sizes(args)
    solver = Solver(problem)
    tracked = args.track.split(",") if args.track else []
    for pred in tracked:
        if pred not in solver.norm.signature:
            raise SemanticError(f"cannot track undeclared predicate {pred}")
    if args.format == "csv":
        out.write("n,count\n")
    for n in sizes:
        start = time.monotonic()
        if args.profiles:
            result = solver.breakdown(n, tracked)
            value = _as_count(result.total)
        else:
            result, value = None, solver.count(n)
        elapsed = int((time.monotonic() - start) * 1000)
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
    weight = (parse_weight_expr(args.weight, solver.norm.signature)
              if args.weight else None)
    if (weight is None and not problem.symmetric_weights
            and problem.profile_weight is None):
        raise SemanticError("wfomc needs weight declarations in the problem "
                            "file or a --weight expression")
    start = time.monotonic()
    value = wfomc_profile(solver, n, weight)
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
            "count": _rounded(prob),
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
                       "count": _rounded(prob),
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
    out.write(dump_normalized(solver.successor_encoding()))
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
    try:
        args = build_parser().parse_args(argv)
        return _RUNNERS[args.command](args, out, err)
    except RecursionError:
        err.write("unsupported: formula nested too deeply\n")
        return 2
    except MemoryError:
        err.write("unsupported: out of memory\n")
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
