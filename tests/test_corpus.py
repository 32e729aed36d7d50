"""Corpus integrity: every entry agrees with its golden and, where
eligible, with a fresh oracle run; a golden is compared, never regenerated."""

import dataclasses

import pytest

import fo2mc.corpus
from fo2mc.corpus import CorpusEntry, load_corpus, verify_entry

ENTRIES = {entry.name: entry for entry in load_corpus()}

#: oracle re-derivation stays below this many ground atoms in CI
ORACLE_BITS = 20

REQUIRED_TAGS = ("universal", "equality", "existential", "cardinality",
                 "counting", "weighted", "mixed")


def test_tag_coverage():
    for tag in REQUIRED_TAGS:
        entries = [e for e in ENTRIES.values() if tag in e.tags]
        assert len(entries) >= 3, f"tag {tag} has fewer than 3 corpus entries"


def test_every_entry_is_oracle_eligible():
    assert all(entry.oracle_eligible for entry in ENTRIES.values())


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry(name):
    report = verify_entry(ENTRIES[name], oracle_cap=ORACLE_BITS)
    assert report.ok, report.failures
    assert report.checks > 0


def test_running_entry_golden_values():
    entry = ENTRIES["running"]
    assert entry.expected["2"]["count"] == "48"
    assert entry.n_ij_golden["table"]["1,3"] == 2
    assert entry.n_ij_golden["n_13v"] == [1, 0, 1, 0]


def test_coins_entry_distribution():
    entry = ENTRIES["coins"]
    assert entry.expected["4"]["distribution"] == {
        "0": "1/8", "1": "0", "2": "3/4", "3": "0", "4": "1/8"}
    assert entry.expected["4"]["provenance"] == "PINNED"


def test_weighted_dist_entry_against_the_oracle():
    """A dist entry's weight lines weigh the oracle's distribution as they
    weigh the engine's: unweighted, it would read 1/8, 3/8, 3/8, 1/8."""
    entry = CorpusEntry(
        name="weighted_coins", text="predicate H/1\nforall x (H(x) | !H(x))\nweight H 1 2\n",
        tags=("weighted",), mode="dist", oracle_eligible=True, query_pred="H",
        expected={"3": {"distribution": {"0": "8/27", "1": "4/9", "2": "2/9", "3": "1/27"}}})
    report = verify_entry(entry)
    assert report.ok and report.checks == 2, report.failures


def test_a_doctored_golden_is_one_failure():
    """The engine against a wrong golden: one failure, naming the size and
    the command that reproduces it, and no oracle check at that size."""
    entry = ENTRIES["running"]
    doctored = dataclasses.replace(entry, expected={**entry.expected, "2": {"count": "49"}})
    report = verify_entry(doctored, max_n=2)
    assert report.failures == ["running n=2: engine '48' != golden '49' "
                               "(reproduce: fo2mc count -n 2 problems/running.fo2)"]
    assert report.checks == 3


def test_an_oracle_that_drifts_is_one_failure(monkeypatch):
    """The oracle against the golden the engine agrees with."""
    monkeypatch.setattr(fo2mc.corpus, "_oracle_value", lambda entry, problem, n, cap: "0")
    report = verify_entry(ENTRIES["running"], max_n=1)
    assert report.failures == ["running n=1: oracle '0' != golden '4' "
                               "(reproduce: fo2mc count -n 1 problems/running.fo2 vs fo2mc oracle)"]
    assert report.checks == 2


def test_max_n_below_every_size_checks_nothing():
    entry = ENTRIES["running"]
    report = verify_entry(entry, max_n=min(entry.sizes()) - 1)
    assert report.ok and report.checks == 0


def test_corpus_files_round_trip():
    """print-parse identity across the whole corpus."""
    from fo2mc.parser import format_problem, parse_problem
    for entry in ENTRIES.values():
        problem = entry.problem()
        again = parse_problem(format_problem(problem))
        assert again.sentence == problem.sentence, entry.name
        assert again.constraint == problem.constraint, entry.name
        assert again.symmetric_weights == problem.symmetric_weights, entry.name
        assert again.profile_weight == problem.profile_weight, entry.name


def test_oracle_is_normalization_free():
    """The ground oracle must never consult the normalizer, the cell tables
    or the engine.  Its module imports no engine, and of its functions only
    ``spec_terms``, the lemma's reference, reads a name imported from the
    normalizer or the cells: it shares that front end with the engine."""
    import ast
    from pathlib import Path
    import fo2mc.oracle as oracle_module
    tree = ast.parse(Path(oracle_module.__file__).read_text())
    imported, front_end = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            if "normalize" in node.module or "cells" in node.module:
                front_end.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("engine" in mod for mod in imported), imported
    readers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               and front_end & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}}
    assert front_end and readers == {"spec_terms"}, readers
