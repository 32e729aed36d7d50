import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import fo2mc
import fo2mc.corpus
from fo2mc import cli, engine
from fo2mc.cli import build_parser, run
from fo2mc.engine import Solver
from fo2mc.errors import InternalConsistencyError
from fo2mc.parser import parse_problem

from conftest import (RUNNING_EXAMPLE, TWO_PROFILE_WEIGHTS, UNDECLARED_WEIGHT,
                      ZERO_OR_TWO_EXAMPLE)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def running_file(tmp_path):
    path = tmp_path / "running.fo2"
    path.write_text(RUNNING_EXAMPLE)
    return str(path)


def test_count_text(running_file):
    code, out, err = invoke("count", "-n", "2", running_file)
    assert code == 0
    assert out.strip() == "48"


def test_count_json_schema(running_file):
    code, out, _ = invoke("count", "-n", "3", running_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "1792"
    assert payload["mode"] == "fomc"
    assert payload["n"] == 3
    assert isinstance(payload["runtime_ms"], int)


def test_json_byte_stable(running_file):
    _, out1, _ = invoke("count", "-n", "3", running_file, "--format", "json")
    _, out2, _ = invoke("count", "-n", "3", running_file, "--format", "json")
    strip = lambda s: json.dumps(
        {k: v for k, v in json.loads(s).items() if k != "runtime_ms"},
        sort_keys=True)
    assert strip(out1) == strip(out2)
    # frozen golden, modulo the runtime field
    assert strip(out1) == '{"count": "1792", "mode": "fomc", "n": 3}'


def test_count_over_a_range(running_file):
    code, out, _ = invoke("count", "--n-range", "1..4", running_file,
                          "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,count", "1,4", "2,48", "3,1792", "4,221184"]


def test_count_vs_oracle_differential(running_file):
    _, lifted, _ = invoke("count", "-n", "2", running_file)
    _, brute, _ = invoke("oracle", "-n", "2", running_file)
    assert lifted == brute == "48\n"


def test_inline_formula():
    code, out, _ = invoke("count", "-n", "3", "-e", ZERO_OR_TWO_EXAMPLE)
    assert code == 0 and out.strip() == "64"


def test_profiles_output(running_file):
    code, out, _ = invoke("count", "-n", "2", running_file, "--track", "A",
                          "--profiles", "--format", "json")
    payload = json.loads(out)
    assert [e["value"] for e in payload["profiles"]] == ["16", "16", "16"]


def test_dist_subcommand():
    coins = "predicate H/1\nforall x (H(x) | !H(x))"
    code, out, _ = invoke("dist", "-n", "4", "-e", coins,
                          "--weight", "1+(-1)^|H|", "--query", "|H| = 2",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fraction"] == "3/4"
    assert payload["numerator"] == "12"
    assert payload["partition"] == "16"
    assert payload["mode"] == "dist"


def test_zero_partition_is_refused_by_dist_and_oracle():
    """A weighting whose partition function is zero has no distribution:
    the engine and the ground oracle refuse it alike."""
    argv = ("-n", "2", "-e", "predicate H/1\nforall x (H(x) | !H(x))",
            "--weight", "0", "--query", "|H| = 1")
    refused = (1, "", "error: partition function is zero; the distribution is undefined\n")
    assert invoke("dist", *argv) == invoke("oracle", *argv) == refused


#: a weight whose distribution has a probability of about 1.25e399, past
#: the largest float
TINY_WEIGHT = "(-1)^|H| + 0." + "0" * 399 + "1"


@pytest.mark.parametrize("command", ["dist", "oracle"])
def test_probability_beyond_float_range(command):
    """z = 8 * 10^-400 and the mass of |H| = 0 is 1 + 10^-400: the
    probability is printed to 12 significant digits from the exact
    fraction, not through a float."""
    coins = "predicate H/1\nforall x (H(x) | !H(x))"
    code, out, err = invoke(command, "-n", "3", "-e", coins, "--weight", TINY_WEIGHT,
                            "--query", "|H| = 0", "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["fraction"] == f"{10 ** 400 + 1}/8"
    assert payload["count"] == "1.25e+399"


def test_wfomc_subcommand(tmp_path):
    path = tmp_path / "w.fo2"
    path.write_text(RUNNING_EXAMPLE + "weight A 1 1\nweight R 1 2\n")
    code, out, _ = invoke("wfomc", "-n", "2", str(path))
    assert code == 0 and out.strip() == "270"


MIXED_WEIGHTS = ("predicate A/1\npredicate R/2\nforall x exists y R(x,y)\n"
                 "weight A 2 1\nweight R 3 1\n")


@pytest.mark.parametrize("text,flags", [
    (MIXED_WEIGHTS + "profileweight |A| + 1\n", ()),
    (MIXED_WEIGHTS, ("--weight", "|A| + 1")),
])
def test_wfomc_multiplies_symmetric_and_profile_weights(text, flags):
    """A file's weight lines and a profile weight, declared or passed,
    weight every model by their product, as the oracle does."""
    code, out, _ = invoke("wfomc", "-n", "2", "-e", text, *flags)
    _, brute, _ = invoke("oracle", "-n", "2", "-e", text, *flags)
    assert code == 0 and out == brute == "4725\n"


@pytest.mark.parametrize("text,line", [
    (UNDECLARED_WEIGHT, "error: 3:8: weight for undeclared predicate Q"),
    (TWO_PROFILE_WEIGHTS, "error: 4:1: duplicate profileweight declaration"),
], ids=("undeclared-weight", "duplicate-profileweight"))
def test_weight_line_errors_exit_one(text, line):
    assert invoke("count", "-n", "2", "-e", text) == (1, "", line + "\n")


def test_normalize_dump():
    code, out, _ = invoke("normalize", "-e", ZERO_OR_TWO_EXAMPLE)
    assert code == 0
    assert "constraint |__f1_1| = |__A1|" in out
    assert "# signs __P1 __P2" in out


def test_normalize_dump_of_a_pinned_span():
    """The symmetric ``exists{<=2}``: one chain of two slots that every
    element's R-edges fill, A (__A1) the first indicator, __A2 the second."""
    code, out, err = invoke("normalize", "-e", "predicate R/2\nforall x forall y (R(x,y) -> R(y,x))"
                            " & forall x exists{<=2} y R(x,y)")
    assert (code, err) == (0, "")
    assert out == (
        "predicate R/2\n"
        "predicate __A1/1  # synthetic\n"
        "predicate __A2/1  # synthetic\n"
        "predicate __P1/1  # synthetic\n"
        "predicate __P2/1  # synthetic\n"
        "predicate __f1_1/2  # synthetic\n"
        "predicate __f1_2/2  # synthetic\n"
        "forall x (forall y ((R(x, y) -> R(y, x)) & (R(x, y) <-> __f1_1(x, y) | __f1_2(x, y))"
        " & (__f1_1(x, y) -> !__f1_2(x, y)) & (__A2(x) -> __A1(x))"
        " & (__P1(x) -> !(__A1(x) -> __f1_1(x, y))) & (__P2(x) -> !(__A2(x) -> __f1_2(x, y)))))\n"
        "constraint |__f1_1| = |__A1|\n"
        "constraint |__f1_2| = |__A2|\n"
        "# signs __P1 __P2\n")


@pytest.mark.parametrize("body,bits", [("R(x,y)", "2*4002+4002 = 12006"),
                                       ("(R(x,y) & R(y,x))", "2*4003+4004 = 12010")])
def test_normalize_refuses_an_oversize_encoding(body, bits):
    """2000 successors, counted per element on a directed matrix or not at
    all: the encoding ``normalize`` prints is refused from its predicted
    size, before its 2000 * 1999 / 2 disjointness axioms are built."""
    start = time.monotonic()
    code, out, err = invoke("normalize", "-e", f"predicate R/2\nforall x exists{{=2000}} y {body}")
    assert code == 2 and out == ""
    assert f"signature needs {bits} table bits, beyond the supported 30" in err
    assert time.monotonic() - start < 1


def test_count_at_most_a_thousand_successors():
    """One block, read over the digits 0..3 of the R-degree at n = 3."""
    assert invoke("count", "-n", "3", "-e", "predicate R/2\nforall x exists{<=1000} y R(x,y)") \
        == (0, "512\n", "")


def test_cells_dump(running_file):
    code, out, _ = invoke("cells", running_file)
    assert code == 0
    assert out.splitlines()[0] == "i,j,n_ij"
    assert "0,0,4" in out


def test_bench_csv(running_file):
    code, out, _ = invoke("bench", running_file, "--n-range", "2..4",
                          "--oracle-cap", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lifted_ms,oracle_ms"
    assert len(lines) == 4
    assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 3, 4]
    # n=2 (6 atoms) and n=3 (12 atoms) fit under the cap, n=4 (20) does not
    assert not lines[1].endswith("skipped")
    assert not lines[2].endswith("skipped")
    assert lines[3].endswith("skipped")


def test_bench_oracle_mismatch_exits_3(running_file, monkeypatch):
    """A lifted count the oracle disputes is an internal consistency
    violation, exit 3, after the rows already checked were written."""
    count = Solver.count
    monkeypatch.setattr(Solver, "count", lambda self, n, constraint=None:
                        count(self, n, constraint) + (n >= 2))
    code, out, err = invoke("bench", running_file, "--n-range", "1..3")
    truth = count(Solver(parse_problem(RUNNING_EXAMPLE)), 2)
    assert code == 3
    assert err == (f"internal consistency violation: bench mismatch at n=2: "
                   f"lifted {truth + 1} vs oracle {truth}\n")
    header, row = out.splitlines()
    assert header == "n,lifted_ms,oracle_ms" and row.startswith("1,")


def test_exit_code_parse_error():
    code, _, err = invoke("count", "-n", "2", "-e", "forall x (")
    assert code == 1 and "error" in err


def test_exit_code_semantic_error():
    code, _, err = invoke("count", "-n", "2", "-e",
                          "predicate R/2\nforall x Q(x)")
    assert code == 1


@pytest.mark.parametrize("flags", [(), ("--profiles",)], ids=("count", "profiles"))
def test_track_undeclared_predicate(flags):
    """--track names are checked against the signature before counting,
    with or without --profiles."""
    code, out, err = invoke("count", "-n", "2", "-e", RUNNING_EXAMPLE,
                            "--track", "Q", *flags)
    assert code == 1 and out == ""
    assert "cannot track undeclared predicate Q" in err


def test_track_refuses_synthetic_names():
    """A sign predicate's profiles are inclusion-exclusion terms, not
    model counts, so --track refuses reserved names like --weight does."""
    code, out, err = invoke("count", "-n", "2", "-e", "forall x exists y R(x,y)",
                            "--track", "__P1", "--profiles")
    assert code == 1 and out == ""
    assert "names starting with '__' are reserved" in err


def test_track_names_are_stripped():
    """Spaces around a --track name are not part of it."""
    _, want, _ = invoke("count", "-n", "2", "-e", RUNNING_EXAMPLE, "--track", "A,R", "--profiles")
    code, out, err = invoke("count", "-n", "2", "-e", RUNNING_EXAMPLE,
                            "--track", " A, R ", "--profiles")
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("names", ["A,,R", "A,", " , R"])
def test_track_refuses_an_empty_name(names):
    code, out, err = invoke("count", "-n", "2", "-e", RUNNING_EXAMPLE, "--track", names)
    assert code == 1 and out == ""
    assert f"--track names an empty predicate: {names!r}" in err


@pytest.mark.parametrize("argv", [
    ["count", "-n", "3", "-e", RUNNING_EXAMPLE],
    ["wfomc", "-n", "3", "-e", RUNNING_EXAMPLE + "weight A 2 1\nweight R 1 3\n"],
    ["wfomc", "-n", "3", "-e", RUNNING_EXAMPLE, "--weight", "2^|A| + |R|"],
    ["dist", "-n", "3", "-e", RUNNING_EXAMPLE, "--query", "|A| = 1"],
    ["count", "-n", "3", "-e", RUNNING_EXAMPLE, "--track", "R,A", "--profiles"],
], ids=["count", "wfomc-symmetric", "wfomc-profile", "dist", "profiles"])
def test_one_evaluator_per_answer(argv, monkeypatch):
    """``Solver.read`` builds the one evaluator of each answer."""
    built = []

    def counted(*args, evaluator=engine.ProfileEvaluator):
        built.append(args)
        return evaluator(*args)
    monkeypatch.setattr(engine, "ProfileEvaluator", counted)
    code, _, err = invoke(*argv)
    assert (code, err, len(built)) == (0, "", 1)


def test_evaluator_is_built_in_one_place():
    src = Path(fo2mc.__file__).parent
    sites = [(path.name, line) for path in sorted(src.rglob("*.py"))
             for line in path.read_text().splitlines() if "ProfileEvaluator(" in line]
    assert len(sites) == 1 and sites[0][0] == "engine.py", sites


REMOVED_NAMES = ("CountResult", "witness_deficit_counts", "weighted_total", "breakdown")


def test_public_api():
    """Every exported name resolves, and none of the removed ones is
    exported or left on ``Solver``."""
    for name in fo2mc.__all__:
        assert getattr(fo2mc, name) is not None, name
    assert not set(REMOVED_NAMES) & set(fo2mc.__all__)
    assert not [name for name in REMOVED_NAMES if hasattr(Solver, name) or hasattr(fo2mc, name)]
    assert not hasattr(fo2mc.weights, "_grouped")


def test_exit_code_unsupported():
    code, _, err = invoke("count", "-n", "2", "-e",
                          "predicate A/1\npredicate B/1\n"
                          "forall x (B(x) -> exists{=2} y A(y))")
    assert code == 2 and "unsupported" in err


def test_exit_code_unsupported_successor_encoding():
    """Exactly 7 successors along a guard that couples both directions
    falls back to the successor encoding, which needs too many table
    bits: a refusal, not a count."""
    code, out, err = invoke("count", "-n", "8", "-e",
                            "forall x exists{=7} y (R(x,y) & R(y,x))")
    assert code == 2 and out == "" and "table bits" in err


def test_oversize_successor_encoding_is_refused_before_it_is_built():
    """2000 successors need 12010 table bits: refused from the size of the
    encoded signature, before its 2000 * 1999 / 2 disjointness axioms are
    built."""
    start = time.monotonic()
    code, out, err = invoke("count", "-n", "3", "-e",
                            "predicate R/2\nforall x exists{=2000} y (R(x,y) & R(y,x))")
    assert code == 2 and out == ""
    assert "signature needs 2*4003+4004 = 12010 table bits, beyond the supported 30" in err
    assert time.monotonic() - start < 1


def test_exit_code_oracle_cap():
    code, _, err = invoke("oracle", "-n", "6", "-e", "forall x exists y R(x,y)")
    assert code == 2 and "cap" in err


def test_missing_input():
    code, _, err = invoke("count", "-n", "2")
    assert code == 1


def test_conflicting_input(running_file):
    code, _, err = invoke("count", "-n", "2", running_file, "-e", "forall x A(x)")
    assert code == 1


def test_unreadable_problem_file(tmp_path):
    binary = tmp_path / "binary.fo2"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        code, _, err = invoke("count", "-n", "2", str(path))
        assert code == 1 and err.startswith("error: ")


def test_missing_n(running_file):
    code, _, err = invoke("count", running_file)
    assert code == 1 and "domain-size" in err


def test_counts_beyond_the_digit_limit_print_in_full():
    """two_exists at n = 100 has over 4,300 digits, the interpreter's
    default int-to-str limit; the command line prints it exactly and
    leaves the caller's limit as it was."""
    path = Path(fo2mc.corpus.__file__).parent / "problems" / "two_exists.fo2"
    limit = sys.get_int_max_str_digits()
    want = Solver(parse_problem(path.read_text())).count(100)
    assert want > 10 ** 4300
    code, out, err = invoke("count", "-n", "100", str(path))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert out.strip() == str(want)
        code, out, _ = invoke("count", "-n", "100", str(path), "--profiles",
                              "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == payload["profiles"][0]["value"] == str(want)
    finally:
        sys.set_int_max_str_digits(limit)


def nested(depth):
    """``depth`` negations around A(x), with a conjunct that makes the
    parity show: the count at n = 2 is 1 when it is even and 0 when odd."""
    return "predicate A/1\n(forall x " + "!" * depth + "A(x)) & exists x A(x)"


@pytest.mark.parametrize("depth", [250, 251])
def test_deep_nesting_counts_like_shallow(depth):
    """The cell tables are evaluated without a compiler, so ``count``
    answers 250 negations as it answers 0 or 1 of the same parity."""
    code, out, err = invoke("count", "-n", "2", "-e", nested(depth))
    assert (code, err) == (0, "")
    assert out == invoke("count", "-n", "2", "-e", nested(depth % 2))[1]
    assert out == ("1\n", "0\n")[depth % 2]


def test_deep_parentheses_count_like_none():
    """Each parenthesis level costs the parser three frames, so 250
    parentheses around an atom stay within the recursion limit."""
    deep = "predicate A/1\n(forall x " + "(" * 250 + "A(x)" + ")" * 250 + ") & exists x A(x)"
    code, out, err = invoke("count", "-n", "2", "-e", deep)
    assert (code, err) == (0, "")
    assert out == invoke("count", "-n", "2", "-e", nested(0))[1] == "1\n"


@pytest.mark.parametrize("depth,commands", [(250, ("oracle",)),
                                            (3000, ("count", "oracle"))],
                         ids=("250", "3000"))
def test_deep_nesting_is_refused(depth, commands):
    """250 negations exceed the compiler's nesting limit for the oracle's
    ground formula; 3,000 exceed the recursion limit in every command."""
    for command in commands:
        code, out, err = invoke(command, "-n", "2", "-e", nested(depth))
        assert (code, out) == (2, "")
        assert err == "unsupported: formula nested too deeply\n"


def test_out_of_memory_is_refused(monkeypatch):
    """A count whose tables outgrow memory is refused like any other
    unsupported input: one line on stderr, exit 2, no traceback."""
    def exhausted(self, *args):
        raise MemoryError()

    monkeypatch.setattr(Solver, "count", exhausted)
    code, out, err = invoke("count", "-n", "100000", "-e", "forall x exists y R(x,y)")
    assert (code, out, err) == (2, "", "unsupported: out of memory\n")


def test_internal_consistency_violation_exits_3(monkeypatch):
    """A violated internal check is reported on one stderr line with exit
    3, and nothing is printed as a count."""
    def violated(self, *args):
        raise InternalConsistencyError("negative model count -1")

    monkeypatch.setattr(Solver, "count", violated)
    code, out, err = invoke("count", "-n", "2", "-e", "forall x exists y R(x,y)")
    assert (code, out, err) == (3, "", "internal consistency violation: negative model count -1\n")


@pytest.mark.parametrize("argv,message", [
    (["count", "--bogus"], "unrecognized arguments: --bogus"),
    (["count", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["count", "-n", "abc"], "invalid int value: 'abc'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["count", "-n", "3", "--n-range", "1..4", "-e", RUNNING_EXAMPLE],
     "argument --n-range: not allowed with argument -n/--n/--domain-size"),
    (["count", "-n", "2", "-e", RUNNING_EXAMPLE, "--track", "A", "--profiles",
      "--format", "csv"], "--profiles cannot be printed as csv"),
], ids=("flag", "choice", "int", "subcommand", "no-subcommand", "n-and-n-range",
        "profiles-as-csv"))
def test_usage_error_exits_1_on_err(argv, message, capsys):
    """Usage errors are parse errors: exit 1 with ``error: ...`` on the
    caller's error stream, no usage text on sys.stderr, no SystemExit."""
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err
    assert capsys.readouterr() == ("", "")


RUNNER_PROBLEM = "predicate A/1\npredicate R/2\nforall x exists y R(x,y)"


@pytest.mark.parametrize("argv,line", [
    (["bench"], "error: --n-range A..B is required for bench"),
    (["bench", "--n-range", "5"], "error: --n-range must look like 2..50"),
    (["bench", "--n-range", "0..3"], "error: --n-range bounds must satisfy 1 <= A <= B"),
    (["bench", "--n-range", "4..2"], "error: --n-range bounds must satisfy 1 <= A <= B"),
    (["count", "-n", "0"], "error: domain size must be at least 1"),
    (["dist", "-n", "2"], "error: dist requires --query, e.g. --query '|H| = 2'"),
    (["dist", "-n", "2", "--query", "|A| <= 1"],
     "error: --query must be a conjunction of |P| = k comparisons"),
    (["wfomc", "-n", "2"],
     "error: wfomc needs weight declarations in the problem file or a --weight expression"),
], ids=("bench-no-range", "bench-range-shape", "bench-range-zero", "bench-range-reversed",
        "count-n-zero", "dist-no-query", "dist-query-shape", "wfomc-no-weight"))
def test_runner_refusal_exits_1_with_one_line(argv, line, capsys):
    """A runner refuses its arguments with exit 1 and one line on the
    caller's error stream, nothing on sys.stderr."""
    assert invoke(*argv, "-e", RUNNER_PROBLEM) == (1, "", line + "\n")
    assert capsys.readouterr() == ("", "")


def test_usage_error_exit_code_of_the_process():
    src = str(Path(fo2mc.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "fo2mc.cli", "count", "--bogus"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert proc.stderr == "error: unrecognized arguments: --bogus\n"


def test_one_count_imports_no_argparse():
    """Answering a query neither imports argparse nor builds a parser twice."""
    src = str(Path(fo2mc.__file__).resolve().parent.parent)
    argv = ["count", "-n", "2", "-e", RUNNING_EXAMPLE]
    script = ("import io, sys\n"
              "from fo2mc import cli\n"
              "out = io.StringIO()\n"
              f"code = cli.run({argv!r}, out, sys.stderr)\n"
              "assert (code, out.getvalue()) == (0, '48\\n')\n"
              "assert cli.build_parser() is cli.build_parser()\n"
              "print('argparse' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--bogus", "-h", "count"],
                                  ["-h", "frobnicate"]])
def test_help_of_the_program(argv, capsys):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: fo2mc {count,wfomc,dist,oracle,normalize,cells,bench}")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_of_each_subcommand_names_its_flags(command, capsys):
    code, out, err = invoke(command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: fo2mc {command} ")
    flags, formats = cli.COMMANDS[command]
    spellings = {"-h", "--help", "-e", "--inline", *(("--format",) if formats else ()),
                 *(spelling for flag in flags for spelling in cli._FLAGS[flag][0])}
    named = {word.strip(",") for word in out.split() if word.startswith("-")}
    assert named == spellings
    assert invoke(command, "-h") == (0, out, "")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv,code", [
    (["count", "--bogus", "-h"], 0),
    (["count", "-n", "3", "-h", "-n", "abc"], 0),
    (["count", "-hn3"], 0),
    (["count", "-n", "abc", "-h"], 1),
    (["count", "-hn"], 1),
], ids=("after-unrecognized", "before-bad-value", "joined", "after-bad-value",
        "joined-without-value"))
def test_help_is_read_in_turn(argv, code):
    """-h answers as soon as it is read: an error in an earlier argument
    comes first, a later argument is not read."""
    got, out, err = invoke(*argv)
    assert got == code
    assert out.startswith("usage: fo2mc count ") if code == 0 else err.startswith("error: ")


def test_help_exit_code_of_the_process():
    src = str(Path(fo2mc.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "fo2mc.cli", "normalize", "-h"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: fo2mc normalize ")


def test_parser_keeps_no_state_between_calls(running_file):
    code, out, _ = invoke("count", "-n", "2", running_file, "--profiles",
                          "--track", "A", "--format", "json")
    assert code == 0 and "profiles" in json.loads(out)
    assert invoke("count", "--bogus")[0] == 1
    assert invoke("count", "-n", "2", running_file) == (0, "48\n", "")


#: every ``fo2mc ...`` line of the README's Command line section, and the
#: command, file, inline text and domain size it parses to
README_ARGVS = {
    "fo2mc count -n 30 running.fo2 --format json":
        ("count", "running.fo2", None, 30),
    'fo2mc count -n 3 -e "forall x exists{=2} y R(x,y)"':
        ("count", None, "forall x exists{=2} y R(x,y)", 3),
    "fo2mc wfomc -n 4 weighted.fo2": ("wfomc", "weighted.fo2", None, 4),
    'fo2mc dist -n 4 coins.fo2 --weight "1+(-1)^|H|" --query "|H| = 2"':
        ("dist", "coins.fo2", None, 4),
    "fo2mc oracle -n 3 running.fo2": ("oracle", "running.fo2", None, 3),
    'fo2mc normalize -e "forall x (forall y !R(x,y) | exists{=2} y R(x,y))"':
        ("normalize", None, "forall x (forall y !R(x,y) | exists{=2} y R(x,y))",
         None),
    "fo2mc cells running.fo2": ("cells", "running.fo2", None, None),
    "fo2mc bench running.fo2 --n-range 2..50": ("bench", "running.fo2", None, None),
}

#: the file before -n, and the long spellings of -n
OTHER_ARGVS = {
    "fo2mc count running.fo2 -n 30": ("count", "running.fo2", None, 30),
    "fo2mc count --n 30 running.fo2": ("count", "running.fo2", None, 30),
    "fo2mc count --domain-size 30 running.fo2": ("count", "running.fo2", None, 30),
}


def test_readme_argvs_are_listed():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.join(shlex.split(line, comments=True))
             for line in block.splitlines()]
    assert lines == [shlex.join(shlex.split(line)) for line in README_ARGVS]


@pytest.mark.parametrize("line,want", [*README_ARGVS.items(), *OTHER_ARGVS.items()])
def test_documented_argv_shapes_parse(line, want):
    args = build_parser().parse_args(shlex.split(line)[1:])
    # normalize, cells and bench take no domain size
    assert (args.command, args.file, args.inline, vars(args).get("domain_size")) == want
    if "--n-range" in line:
        assert args.n_range == "2..50"


# -- one flag set per subcommand -----------------------------------------------


#: every flag each subcommand once took besides the problem source, with
#: a value for it
OLD_FLAGS = {"-n": ["2"], "--n-range": ["1..2"], "--format": ["json"],
             "--track": ["A"], "--profiles": [], "--dump-normalized": [],
             "--dump-cells": [], "--weight": ["1+|A|"], "--query": ["|A| = 1"],
             "--oracle-cap": ["20"]}

#: the flags each subcommand takes besides the problem source
TAKES = {
    "count": ("-n", "--n-range", "--format", "--track", "--profiles"),
    "wfomc": ("-n", "--format", "--weight"),
    "dist": ("-n", "--format", "--weight", "--query"),
    "oracle": ("-n", "--format", "--weight", "--query", "--oracle-cap"),
    "normalize": (),
    "cells": (),
    "bench": ("--n-range", "--oracle-cap"),
}

REFUSED = [(command, flag) for command, flags in TAKES.items()
           for flag in OLD_FLAGS if flag not in flags]


def test_flag_slots():
    """Each subcommand's settable slots: the problem source and its flags."""
    slots = [set(vars(build_parser().parse_args([command]))) - {"command"}
             for command in TAKES]
    assert sum(map(len, slots)) == 33
    assert len(REFUSED) == 51


@pytest.mark.parametrize("command,flag", REFUSED)
def test_flag_the_command_does_not_read_is_refused(command, flag, capsys):
    code, out, err = invoke(command, "-e", RUNNING_EXAMPLE, flag, *OLD_FLAGS[flag])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"unrecognized arguments: {flag}" in err
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv,flag", [
    (["bench", "--n", "4", "-e", "forall x A(x)"], "--n"),
    (["count", "-n", "2", "-e", "forall x A(x)", "--prof"], "--prof"),
    (["count", "-n", "2", "-e", "forall x A(x)", "--form", "json"], "--form"),
], ids=("n-range", "profiles", "format"))
def test_abbreviated_flag_is_refused(argv, flag):
    """A prefix of a flag is not that flag: only the spellings in
    ``_FLAGS`` are accepted (``--n`` is one for -n, not for --n-range)."""
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"unrecognized arguments: {flag}" in err


#: argvs that together take every branch of each runner that reads a flag
RUNNER_ARGVS = {
    "count": [["-n", "2", "--track", "A", "--profiles"],
              ["--n-range", "1..2", "--format", "csv"]],
    "wfomc": [["-n", "2", "--weight", "1+|A|", "--format", "json"]],
    "dist": [["-n", "2", "--weight", "1+|A|", "--query", "|A| = 1"]],
    "oracle": [["-n", "2", "--weight", "1+|A|", "--query", "|A| = 1",
                "--oracle-cap", "20", "--format", "json"]],
    "normalize": [[]],
    "cells": [[]],
    "bench": [["--n-range", "1..2", "--oracle-cap", "20"]],
}


class RecordingArgs(SimpleNamespace):
    """Parsed arguments that record which of them are read."""

    def __init__(self, args):
        super().__init__(**vars(args))
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command", TAKES)
def test_each_command_takes_exactly_the_flags_its_runner_reads(command):
    parser = build_parser()
    for flag in TAKES[command]:
        parser.parse_args([command, flag, *OLD_FLAGS[flag]])
    declared = set(vars(parser.parse_args([command]))) - {"command"}
    read = set()
    for flags in RUNNER_ARGVS[command]:
        args = RecordingArgs(parser.parse_args([command, "-e", RUNNING_EXAMPLE, *flags]))
        assert cli._RUNNERS[command](args, io.StringIO(), io.StringIO()) == 0
        read |= args._read
    assert read == declared
