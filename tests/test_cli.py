import io
import json
import sys
from pathlib import Path

import pytest

import fo2mc.corpus
from fo2mc.cli import run
from fo2mc.engine import Solver
from fo2mc.parser import parse_problem

from conftest import ZERO_OR_TWO_EXAMPLE, RUNNING_EXAMPLE


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


def test_wfomc_subcommand(tmp_path):
    path = tmp_path / "w.fo2"
    path.write_text(RUNNING_EXAMPLE + "weight A 1 1\nweight R 1 2\n")
    code, out, _ = invoke("wfomc", "-n", "2", str(path))
    assert code == 0 and out.strip() == "270"


def test_normalize_dump():
    code, out, _ = invoke("normalize", "-e", ZERO_OR_TWO_EXAMPLE)
    assert code == 0
    assert "constraint |__f1_1| = |__A1|" in out
    assert "# maximize __A1 __f1_1 __f1_2" in out


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


def test_exit_code_parse_error():
    code, _, err = invoke("count", "-n", "2", "-e", "forall x (")
    assert code == 1 and "error" in err


def test_exit_code_semantic_error():
    code, _, err = invoke("count", "-n", "2", "-e",
                          "predicate R/2\nforall x Q(x)")
    assert code == 1


def test_exit_code_unsupported():
    code, _, err = invoke("count", "-n", "2", "-e",
                          "predicate A/1\npredicate B/1\n"
                          "forall x (B(x) -> exists{=2} y A(y))")
    assert code == 2 and "unsupported" in err


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


@pytest.mark.parametrize("depth", [250, 3000])
def test_deep_nesting_is_refused(depth):
    """250 negations pass the parser but exceed the compiler's nesting
    limit for the cell tables; 3,000 exceed the recursion limit."""
    text = "predicate A/1\nforall x " + "!" * depth + "A(x)"
    for command in ("count", "oracle"):
        code, out, err = invoke(command, "-n", "2", "-e", text)
        assert (code, out) == (2, "")
        assert err == "unsupported: formula nested too deeply\n"
