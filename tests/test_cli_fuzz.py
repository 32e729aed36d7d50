"""Fuzz the command line: any argv ends in an exit code 0-3, never in a
Python traceback or a SystemExit."""

import contextlib
import io
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import fo2mc.corpus
from fo2mc.cli import SUBCOMMANDS, run

from conftest import RUNNING_EXAMPLE, ZERO_OR_TWO_EXAMPLE

PROBLEM_DIR = Path(fo2mc.corpus.__file__).parent / "problems"
DEEP = "predicate A/1\nforall x " + "!" * 3000 + "A(x)"

# inline problems over at most one unary and one binary predicate, so
# the oracle and bench stay within 12 ground atoms at n <= 3
PROBLEMS = [
    RUNNING_EXAMPLE,
    ZERO_OR_TWO_EXAMPLE,
    "forall x exists y R(x,y)",
    "predicate H/1\nforall x (H(x) | !H(x))\nweight H 1 2",
    "predicate H/1\nforall x (H(x) | !H(x))\nprofileweight 1 + (-1)^|H|",
    "predicate A/1\nforall x A(x)\nconstraint |A| = 2",
    "predicate B/1\npredicate R/2\nforall x (B(x) | exists{=1} y R(x,y))",
    "forall x !(exists{=1} y R(x,y))",
    "forall x exists y (R(x,y) & exists x R(y,x))",
    "forall x exists{=1} y (R(x,y) & exists{=1} x R(y,x))",
    "forall x (A(x) | exists{=1} x A(x))",
    "predicate A/1\nforall x " + "!" * 250 + "A(x)",
    DEEP,
    "forall x (",
    "predicate R/2\nforall x Q(x)",
    "",
]

SOURCES = ([["-e", text] for text in PROBLEMS]
           + [[str(PROBLEM_DIR / "running.fo2")], [str(PROBLEM_DIR)],
              [str(PROBLEM_DIR / "missing.fo2")], []])

SIZES = [["-n", "1"], ["-n", "2"], ["-n", "3"], ["-n", "0"], ["-n", "-1"],
         ["-n", "abc"], []]

FLAGS = [
    ["--format", "json"], ["--format", "csv"], ["--format", "xml"],
    ["--profiles"], ["--track", "A"], ["--track", "R,H"], ["--track", "Q"],
    ["--dump-normalized"], ["--dump-cells"],
    ["--weight", "1+|H|"], ["--weight", "2^|R|"], ["--weight", "|"],
    ["--query", "|H| = 1"], ["--query", "|R| = 2"], ["--query", "|H| > 1"],
    ["--n-range", "1..3"], ["--n-range", "3..1"], ["--n-range", "x"],
    ["--oracle-cap", "4"], ["--oracle-cap", "-1"],
    ["--threads", "2"], ["--bogus"],
    ["--format=json"], ["--n=2"], ["-n2"], ["-e" + RUNNING_EXAMPLE], ["-h"],
]


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(SUBCOMMANDS))]
    argv += draw(st.sampled_from(SIZES))
    argv += draw(st.sampled_from(SOURCES))
    for flags in draw(st.lists(st.sampled_from(FLAGS), max_size=3)):
        argv += flags
    return argv


def run_cli(argv):
    """Exit code and everything written to ``err``.  Usage errors are
    reported there like any other, and -h writes to ``out``, so nothing
    reaches sys.stdout or sys.stderr."""
    out, err, stray = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stray), contextlib.redirect_stdout(stray):
        try:
            code = run(argv, out=out, err=err)
        except SystemExit as exc:
            raise AssertionError(f"SystemExit({exc.code!r})") from None
    assert stray.getvalue() == ""
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(argvs())
@example(["count", "-n", "100", str(PROBLEM_DIR / "two_exists.fo2")])
@example(["count", "-n", "2", "-e", DEEP])
@example(["count", "-n", "2", "--threads", "abc", "-e", RUNNING_EXAMPLE])
@example(["dist", "-n", "3", "-e", "predicate H/1\nforall x (H(x) | !H(x))",
          "--weight", "(-1)^|H| + 0." + "0" * 399 + "1", "--query", "|H| = 0"])
@example(["oracle", "-n", "2", "-e", "predicate H/1\nforall x (H(x) | !H(x))",
          "--weight", "0", "--query", "|H| = 1"])
def test_every_argv_ends_in_an_exit_code(argv):
    code, stderr = run_cli(argv)
    assert code in (0, 1, 2, 3), (code, stderr)
    assert "Traceback" not in stderr


def test_closed_counting_under_a_connective_exits_2():
    """A closed counting quantifier counts only as a whole top-level
    conjunct; under a connective it is refused with exit 2."""
    code, stderr = run_cli(["count", "-n", "2", "-e", "forall x (A(x) | exists{=1} x A(x))"])
    assert code == 2 and "top-level conjunct" in stderr, (code, stderr)
