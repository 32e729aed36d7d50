"""Curated problems with golden expectations.

Each entry is a ``.fo2`` problem next to a ``.expected.json`` file with
feature tags, per-n expected values and a provenance marker.  Verifying
compares each value with the engine and, where eligible, a fresh oracle
run (nothing is regenerated), so no drift hides behind a stale golden.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources

from ..engine import Solver
from ..logic import decimal_str
from ..oracle import DEFAULT_CAP, oracle_count, oracle_distribution
from ..parser import Problem, parse_problem
from ..weights import distribution_table, wfomc_profile


@dataclass
class CorpusEntry:
    name: str
    text: str
    tags: tuple[str, ...]
    mode: str  # fomc | wfomc | dist
    oracle_eligible: bool
    expected: dict  # str(n) -> {"count": ...} or {"distribution": ...}
    query_pred: str | None = None
    n_ij_golden: dict | None = None

    def problem(self) -> Problem:
        return parse_problem(self.text)

    def sizes(self) -> list[int]:
        return sorted(int(n) for n in self.expected)


@dataclass
class EntryReport:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _problem_dir():
    return resources.files(__package__) / "problems"


def load_corpus() -> list[CorpusEntry]:
    entries = []
    base = _problem_dir()
    for item in sorted(base.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".fo2"):
            continue
        name = item.name[:-len(".fo2")]
        meta = json.loads((base / f"{name}.expected.json").read_text())
        entries.append(CorpusEntry(
            name=name,
            text=item.read_text(),
            tags=tuple(meta["tags"]),
            mode=meta["mode"],
            oracle_eligible=meta["oracle_eligible"],
            expected=meta["expected"],
            query_pred=meta.get("query_pred"),
            n_ij_golden=meta.get("n_ij"),
        ))
    if not entries:
        raise RuntimeError("corpus problems are missing from the package")
    return entries


def _distribution(dist: dict, n: int) -> dict[str, str]:
    """A distribution keyed by the query card, its values as exact strings,
    with every card 0..n present."""
    out = {str(k): f"{v.numerator}/{v.denominator}" if v.denominator != 1
           else str(v.numerator) for (k,), v in dist.items()}
    for k in range(n + 1):
        out.setdefault(str(k), "0")
    return out


def _engine_value(entry: CorpusEntry, solver: Solver, n: int):
    if entry.mode == "fomc":
        return str(solver.count(n))
    if entry.mode == "wfomc":
        return decimal_str(wfomc_profile(solver, n))
    return _distribution(distribution_table(solver, n, (entry.query_pred,)), n)


def _oracle_value(entry: CorpusEntry, problem: Problem, n: int, cap: int):
    """The oracle's answer on the entry, weighed as ``fo2mc oracle`` weighs it."""
    ground = problem.signature, problem.sentence, n
    given = dict(constraint=problem.constraint, cap=cap,
                 symmetric_weights=problem.symmetric_weights or None)
    if entry.mode == "dist":
        return _distribution(oracle_distribution(*ground, problem.profile_weight,
                                                 (entry.query_pred,), **given), n)
    rep = oracle_count(*ground, profile_weight=problem.profile_weight, **given)
    return str(rep.total) if entry.mode == "fomc" else decimal_str(rep.weighted_total)


def verify_entry(entry: CorpusEntry, max_n: int | None = None,
                 oracle_cap: int = DEFAULT_CAP) -> EntryReport:
    """Check engine == golden == oracle for every recorded domain size."""
    report = EntryReport(entry.name)
    problem = entry.problem()
    solver = Solver(problem)
    for n in entry.sizes():
        if max_n is not None and n > max_n:
            continue
        golden = entry.expected[str(n)]
        want = golden.get("count", golden.get("distribution"))
        repro = f"fo2mc {entry.mode if entry.mode != 'fomc' else 'count'} " \
                f"-n {n} problems/{entry.name}.fo2"
        got = _engine_value(entry, solver, n)
        report.checks += 1
        if got != want:
            report.failures.append(
                f"{entry.name} n={n}: engine {got!r} != golden {want!r} "
                f"(reproduce: {repro})")
            continue
        if (entry.oracle_eligible
                and problem.signature.ground_atom_count(n) <= oracle_cap):
            from_oracle = _oracle_value(entry, problem, n, oracle_cap)
            report.checks += 1
            if from_oracle != want:
                report.failures.append(
                    f"{entry.name} n={n}: oracle {from_oracle!r} != golden "
                    f"{want!r} (reproduce: {repro} vs fo2mc oracle)")
    return report


def verify_corpus(max_n: int | None = None,
                  oracle_cap: int = DEFAULT_CAP) -> list[EntryReport]:
    return [verify_entry(entry, max_n, oracle_cap) for entry in load_corpus()]


def main() -> None:
    """CI entry point: verify every corpus entry and print a report."""
    import argparse
    parser = argparse.ArgumentParser(prog="fo2mc-verify-corpus")
    parser.add_argument("--max-n", type=int, default=None)
    parser.add_argument("--oracle-cap", type=int, default=22,
                        help="skip oracle cross-checks above this many atoms")
    args = parser.parse_args()
    reports = verify_corpus(args.max_n, args.oracle_cap)
    failed = 0
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(f"{status:4} {report.name} ({report.checks} checks)")
        for failure in report.failures:
            failed += 1
            print(f"     {failure}")
    if failed:
        print(f"{failed} failure(s)")
        sys.exit(1)
    print(f"{len(reports)} entries verified")


if __name__ == "__main__":
    main()
