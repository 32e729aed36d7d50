"""Argument parsing, argv by argv.  Every expected value below was
recorded from the argparse parser (Python 3.11) that the command line
used before it read argv straight from its table; the texts of usage
errors are those argparse printed, on any Python version."""

import io
import shlex

import pytest

from fo2mc.cli import build_parser, run

T = "forall x A(x)"
COMMANDS = (" (choose from 'count', 'wfomc', 'dist', 'oracle', 'normalize', "
            "'cells', 'bench')")
FORMATS = " (choose from 'text', 'json', 'csv')"

#: each subcommand's slots when it is given alone
DEFAULTS = {
    "count": {"file": None, "inline": None, "format": "text", "domain_size": None,
              "n_range": None, "track": None, "profiles": False},
    "wfomc": {"file": None, "inline": None, "format": "text", "domain_size": None,
              "weight": None},
    "dist": {"file": None, "inline": None, "format": "text", "domain_size": None,
             "weight": None, "query": None},
    "oracle": {"file": None, "inline": None, "format": "text", "domain_size": None,
               "weight": None, "query": None, "oracle_cap": 28},
    "normalize": {"file": None, "inline": None},
    "cells": {"file": None, "inline": None},
    "bench": {"file": None, "inline": None, "n_range": None, "oracle_cap": 28},
}

#: argv, and the slots in which it differs from its subcommand's
#: DEFAULTS, or the usage error it gives
ARGVS = [
    # before the subcommand
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'" + COMMANDS),
    (["cou"], "argument command: invalid choice: 'cou'" + COMMANDS),
    (["--bogus"], "the following arguments are required: command"),
    (["--bogus", "count", "-n", "2"], "unrecognized arguments: --bogus"),
    (["-n", "3", "count"], "argument command: invalid choice: '3'" + COMMANDS),
    (["--", "count"], "argument command: invalid choice: '--'" + COMMANDS),
    (["count", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    (["count", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    # count: every form of every flag
    (["count", "-n", "3", "-e", T], {"inline": T, "domain_size": 3}),
    (["count", "-n3", "-e" + T], {"inline": T, "domain_size": 3}),
    (["count", "--n", "3", "running.fo2"], {"file": "running.fo2", "domain_size": 3}),
    (["count", "--domain-size=3", "--inline=" + T], {"inline": T, "domain_size": 3}),
    (["count", "-n=3", "-e=" + T], {"inline": T, "domain_size": 3}),
    (["count", "running.fo2", "-n", "3"], {"file": "running.fo2", "domain_size": 3}),
    (["count", "-n", "1", "-n", "2", "--domain-size", "5", "-e", T],
     {"inline": T, "domain_size": 5}),
    (["count", "--n-range", "1..4", "--track", "A,B", "--profiles", "--format", "json",
      "running.fo2"],
     {"file": "running.fo2", "format": "json", "n_range": "1..4", "track": "A,B",
      "profiles": True}),
    (["count", "--n-range=2..3", "--track=A", "--format=csv", "-e", T],
     {"inline": T, "format": "csv", "n_range": "2..3", "track": "A"}),
    (["count", "-e", T, "--track", "A", "--track", "B", "--format", "json",
      "--format", "text"],
     {"inline": T, "track": "B"}),
    (["count", "-n", "-1", "-e", "-5"], {"inline": "-5", "domain_size": -1}),
    (["count", "-n", " 7 ", "-e", "--not a flag"],
     {"inline": "--not a flag", "domain_size": 7}),
    (["count", "-e", ""], {"inline": ""}),
    (["count", "-"], {"file": "-"}),
    # --
    (["count", "-n", "2", "--", "-weird.fo2"], {"file": "-weird.fo2", "domain_size": 2}),
    (["count", "-n", "2", "running.fo2", "--"],
     {"file": "running.fo2", "domain_size": 2}),
    (["count", "-n", "2", "--"], {"domain_size": 2}),
    (["count", "--", "running.fo2", "-n", "2"], "unrecognized arguments: -n 2"),
    (["count", "running.fo2", "-n", "2", "--"], "unrecognized arguments: --"),
    (["count", "--", "--", "x"], "unrecognized arguments: x"),
    # count: usage errors
    (["count", "-e", "-x"], "argument -e/--inline: expected one argument"),
    (["count", "-n"], "argument -n/--n/--domain-size: expected one argument"),
    (["count", "-n", "2", "-e"], "argument -e/--inline: expected one argument"),
    (["count", "--profiles=x"], "argument --profiles: ignored explicit argument 'x'"),
    (["count", "--format", "xml"], "argument --format: invalid choice: 'xml'" + FORMATS),
    (["count", "--format=xml"], "argument --format: invalid choice: 'xml'" + FORMATS),
    (["count", "-n", "abc"], "argument -n/--n/--domain-size: invalid int value: 'abc'"),
    (["count", "-nabc"], "argument -n/--n/--domain-size: invalid int value: 'abc'"),
    (["count", "--bogus"], "unrecognized arguments: --bogus"),
    (["count", "--prof"], "unrecognized arguments: --prof"),
    (["count", "--form", "json"], "unrecognized arguments: --form"),
    (["count", "-n", "3", "--n-range", "1..4"],
     "argument --n-range: not allowed with argument -n/--n/--domain-size"),
    (["count", "--n-range", "1..4", "-n", "3"],
     "argument -n/--n/--domain-size: not allowed with argument --n-range"),
    (["count", "a.fo2", "b.fo2"], "unrecognized arguments: b.fo2"),
    (["count", "--weight", "1"], "unrecognized arguments: --weight"),
    (["count", "running.fo2", "--bogus", "x", "-n", "2"],
     "unrecognized arguments: --bogus x"),
    (["count", "--bogus", "-n", "abc"],
     "argument -n/--n/--domain-size: invalid int value: 'abc'"),
    # the other subcommands
    (["wfomc", "-n", "4", "weighted.fo2", "--weight", "1+|H|", "--format", "csv"],
     {"file": "weighted.fo2", "format": "csv", "domain_size": 4, "weight": "1+|H|"}),
    (["wfomc", "--weight=2^|R|", "-n4", "-e" + T],
     {"inline": T, "domain_size": 4, "weight": "2^|R|"}),
    (["wfomc", "--query", "|H| = 1"], "unrecognized arguments: --query"),
    (["dist", "-n", "4", "-e", T, "--weight", "1+(-1)^|H|", "--query", "|H| = 2"],
     {"inline": T, "domain_size": 4, "weight": "1+(-1)^|H|", "query": "|H| = 2"}),
    (["dist", "--query=|H| = 2", "--format=json", "coins.fo2", "--domain-size", "2"],
     {"file": "coins.fo2", "format": "json", "domain_size": 2, "query": "|H| = 2"}),
    (["dist", "--format", "csv"],
     "argument --format: invalid choice: 'csv' (choose from 'text', 'json')"),
    (["oracle", "-n", "3", "running.fo2", "--oracle-cap", "20", "--weight", "2",
      "--query", "|A| = 1", "--format", "json"],
     {"file": "running.fo2", "format": "json", "domain_size": 3, "weight": "2",
      "query": "|A| = 1", "oracle_cap": 20}),
    (["oracle", "--oracle-cap=abc"], "argument --oracle-cap: invalid int value: 'abc'"),
    (["oracle", "--oracle-cap", "-5", "--oracle-cap=6", "-e", T],
     {"inline": T, "oracle_cap": 6}),
    (["normalize", "-e", T], {"inline": T}),
    (["normalize", "--inline=" + T], {"inline": T}),
    (["normalize", "-n", "3", "running.fo2"], "unrecognized arguments: -n running.fo2"),
    (["normalize", "--format", "json"], "unrecognized arguments: --format"),
    (["cells", "running.fo2"], {"file": "running.fo2"}),
    (["cells", "running.fo2", "other.fo2"], "unrecognized arguments: other.fo2"),
    (["bench", "running.fo2", "--n-range", "2..50", "--oracle-cap", "100"],
     {"file": "running.fo2", "n_range": "2..50", "oracle_cap": 100}),
    (["bench", "--n-range=2..5", "--oracle-cap=7", "-e" + T],
     {"inline": T, "n_range": "2..5", "oracle_cap": 7}),
    (["bench", "--n", "4"], "unrecognized arguments: --n"),
    (["bench", "-n3"], "unrecognized arguments: -n3"),
]

@pytest.mark.parametrize("command", DEFAULTS)
def test_slots_of_a_bare_subcommand(command):
    assert vars(build_parser().parse_args([command])) == {"command": command,
                                                           **DEFAULTS[command]}


@pytest.mark.parametrize("argv,want", ARGVS,
                         ids=[shlex.join(argv) or "(none)" for argv, _ in ARGVS])
def test_argv_reads_as_recorded(argv, want):
    if isinstance(want, dict):
        args = build_parser().parse_args(argv)
        assert vars(args) == {"command": argv[0], **DEFAULTS[argv[0]], **want}
    else:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out=out, err=err) == 1
        assert (out.getvalue(), err.getvalue()) == ("", f"error: {want}\n")
