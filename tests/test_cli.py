"""The command-line interface, driven in process through main()."""

import contextlib
import gc
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import species
from species import cli, semantics
from species.cli import main
from species.expr import RESERVED, PrimitiveKind, print_expr
from species.parser import MAX_NESTING
from species.series import CountSeries

from strategies import grammar_exprs


@pytest.fixture
def defs_file(tmp_path):
    path = tmp_path / "defs.species"
    path.write_text("A = X*E(A)\nB = 1 + X*B^2\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, isolated from the environment, imports the CLI
    from this checkout without either module, each a few milliseconds of
    every command's start-up."""
    src = Path(species.__file__).resolve().parent.parent
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import species.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


class TestCount:
    def test_partitions_of_eight(self, capsys):
        code, out, _ = run(capsys, "count", "Part", "8")
        assert code == 0
        assert out == "4140\n"

    def test_defs_are_loaded(self, capsys, defs_file):
        code, out, _ = run(capsys, "count", "A", "7", "--defs", defs_file)
        assert code == 0
        assert out == "117649\n"

    def test_explicit_labels(self, capsys):
        code, out, _ = run(capsys, "count", "E(C)", "a,b,c,d")
        assert code == 0
        assert out == "24\n"

    def test_empty_label_set(self, capsys):
        code, out, _ = run(capsys, "count", "E", "")
        assert code == 0
        assert out == "1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "S", "4", "--json")
        assert code == 0
        assert json.loads(out) == {"n": 4, "count": 24}

    def test_long_definition_chain(self, capsys, tmp_path):
        # N0 = X^1500, reached through 1 500 names in one chain.
        path = tmp_path / "chain.species"
        lines = [f"N{i} = X*N{i + 1}" for i in range(1499)] + ["N1499 = X"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "count", "N0", "1", "--defs", str(path))
        assert (code, out) == (0, "0\n")


class TestSeries:
    def test_text_rows(self, capsys):
        code, out, _ = run(capsys, "series", "C", "--order", "4")
        assert code == 0
        assert out.splitlines() == [
            "0 0 0", "1 1 1", "2 1 1/2", "3 2 1/3", "4 6 1/4",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "series", "E", "--order", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 3
        assert payload["counts"] == [1, 1, 1, 1]
        assert payload["coefficients"] == ["1", "1", "1/2", "1/6"]


class TestEnumerate:
    def test_text_listing_ends_with_the_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "Part", "a,b,c")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "5"
        assert "{{a},{b},{c}}" in lines

    def test_final_line_agrees_with_count(self, capsys):
        _, listing, _ = run(capsys, "enumerate", "Inv", "4")
        _, counted, _ = run(capsys, "count", "Inv", "4")
        assert listing.splitlines()[-1] == counted.strip() == "10"

    def test_json_array(self, capsys):
        code, out, _ = run(capsys, "enumerate", "Part", "a,b,c", "--json")
        assert code == 0
        items = json.loads(out)
        assert len(items) == 5
        assert all(item["kind"] == "partition" for item in items)

    def test_star_is_ascii_in_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "C'", "1", "--json")
        assert code == 0
        assert "\\u2605" in out


class TestTransport:
    def test_inline_structure(self, capsys):
        code, out, _ = run(
            capsys, "transport", "P", "1->a,2->b,3->c",
            '{"kind": "subset", "members": ["1", "3"], "rest": ["2"]}',
        )
        assert code == 0
        assert out == "{a,c}\n"

    def test_stdin_structure(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"kind": "cycle", "labels": ["1", "3", "2"]}'),
        )
        # conjugating (1 3 2) by the transposition of 1 and 2 flips it
        code, out, _ = run(capsys, "transport", "C", "1->2,2->1,3->3")
        assert code == 0
        assert out == "(1 2 3)\n"

    def test_domain_mismatch_is_exit_4(self, capsys):
        code, _, err = run(
            capsys, "transport", "P", "1->a,2->b",
            '{"kind": "subset", "members": ["1", "3"], "rest": ["2"]}',
        )
        assert code == 4
        assert "error:" in err

    def test_malformed_json_is_exit_1(self, capsys):
        code, _, err = run(capsys, "transport", "P", "1->a", "{not json")
        assert code == 1
        assert "JSON" in err

    def test_bad_bijection_string(self, capsys):
        code, _, err = run(capsys, "transport", "P", "1->a,2=>b", "{}")
        assert code == 1

    def test_a_structure_of_another_species_is_refused(self, capsys):
        # X has no structure on two labels, so no list of two is one of its
        code, out, err = run(
            capsys, "transport", "X", "1->2,2->1",
            '{"kind": "list", "labels": ["1", "2"]}',
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "not one of X" in err

    def test_a_member_still_transports(self, capsys):
        code, out, _ = run(
            capsys, "transport", "L", "1->2,2->1",
            '{"kind": "list", "labels": ["1", "2"]}', "--json",
        )
        assert code == 0
        assert json.loads(out) == {"kind": "list", "labels": ["2", "1"]}

    def test_a_member_on_the_wrong_labels_is_still_exit_4(self, capsys):
        # A subset on three labels, moved by a bijection that misses one.
        code, out, err = run(
            capsys, "transport", "P", "a->x,b->y",
            '{"kind": "subset", "members": ["a"], "rest": ["b", "c"]}',
        )
        assert code == 4
        assert out == ""
        assert "bijection domain" in err

    def test_the_membership_check_keeps_the_budget(self, capsys):
        # Gro has 2^25 structures on five labels, more than the default
        # budget, so the check is refused before it lists them.
        labels = ["1", "2", "3", "4", "5"]
        code, out, err = run(
            capsys, "transport", "Gro", ",".join(f"{a}->{a}" for a in labels),
            json.dumps({"kind": "digraph", "vertices": labels, "arcs": []}),
        )
        assert code == 3
        assert out == ""
        assert "budget" in err


class TestSolve:
    def test_series_of_a_defined_name(self, capsys, defs_file):
        code, out, _ = run(
            capsys, "solve", "B", "--defs", defs_file, "--order", "4"
        )
        assert code == 0
        counts = [int(line.split()[1]) for line in out.splitlines()]
        assert counts == [1, 1, 4, 30, 336]

    def test_rejects_builtins(self, capsys, defs_file):
        code, _, err = run(capsys, "solve", "E", "--defs", defs_file)
        assert code == 1
        assert "built-in" in err

    def test_rejects_undefined_names(self, capsys, defs_file):
        code, _, err = run(capsys, "solve", "Q", "--defs", defs_file)
        assert code == 1

    def test_ill_founded_system(self, capsys, tmp_path):
        path = tmp_path / "bad.species"
        path.write_text("F = F\n", encoding="utf-8")
        code, _, err = run(capsys, "solve", "F", "--defs", str(path))
        assert code == 1
        assert "fixed point" in err


class TestVerify:
    def test_single_case(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "C'=L")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert "counts" in lines[0]
        assert "pass  C'=L" in lines
        assert lines[-1] == "1 passed, 0 failed"

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "no-such-case")
        assert code == 1
        assert "no such case" in err

    def test_json_output_is_byte_stable(self, capsys):
        code1, first, _ = run(capsys, "verify", "--order", "3", "--json")
        code2, second, _ = run(capsys, "verify", "--order", "3", "--json")
        assert code1 == code2 == 0
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is True
        assert all(case["status"] == "pass" for case in payload["cases"])

    def test_failure_is_exit_1_with_a_witness(self, capsys, monkeypatch):
        real = semantics._SERIES_BUILDERS[PrimitiveKind.DERANGEMENT]

        def perturbed(order, param=None):
            series = real(order, param)
            coeffs = list(series.coefficients())
            if len(coeffs) > 4:
                coeffs[4] += Fraction(1, 24)
            return CountSeries.from_coefficients(coeffs)

        monkeypatch.setitem(
            semantics._SERIES_BUILDERS, PrimitiveKind.DERANGEMENT, perturbed
        )
        code, out, _ = run(capsys, "verify", "--case", "counts-Der")
        assert code == 1
        assert "FAIL  counts-Der" in out
        assert "n=4" in out
        assert out.splitlines()[-1] == "0 passed, 1 failed"


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "count", "E(", "3")
        assert code == 1 and "error:" in err

    def test_budget(self, capsys):
        code, _, err = run(capsys, "enumerate", "Gro", "4", "--budget", "10")
        assert code == 3 and "budget" in err

    def test_missing_defs_file(self, capsys):
        code, _, err = run(capsys, "count", "A", "3", "--defs", "/no/such/file")
        assert code == 1

    def test_usage_error_is_exit_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "count" in out and "verify" in out


def _captured(call, argv):
    """(exit code, stdout, stderr) of call(argv); a SystemExit from argparse
    gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestOneSubcommandParser:
    """main builds only the subparser of the subcommand it runs; its exit
    codes, output and messages are those of the full parser."""

    @pytest.mark.parametrize("argv, code", [
        ([], 1),
        (["--help"], 0),
        (["bogus"], 1),
        (["count", "--help"], 0),
        (["count", "X"], 1),
        (["count", "X", "3", "--bogus"], 1),
        (["enumerate", "X", "1", "--budget", "many"], 1),
        (["verify", "--order", "-1"], 1),
    ])
    def test_same_as_the_full_parser(self, argv, code):
        full = _captured(cli._build_parser().parse_args, argv)
        got = _captured(main, argv)
        assert got[0] == code
        assert got[1:] == full[1:]
        if code == 0:
            assert got[1].startswith("usage: species ")
        else:
            assert got[1] == "" and "error:" in got[2]

    def test_help_of_a_subcommand(self):
        code, out, _ = _captured(main, ["count", "--help"])
        assert code == 0
        assert out.startswith("usage: species count [-h] ")
        assert "--defs FILE" in out and "--json" in out

    def test_only_the_named_subparser_is_built(self):
        sub = cli._build_parser("series")._subparsers._group_actions[0]
        assert list(sub.choices) == ["series"]
        full = cli._build_parser()._subparsers._group_actions[0]
        assert list(full.choices) == list(cli._COMMANDS)


class TestCollectorAroundTheListing:
    """enumerate keeps the cyclic collector paused through its output and
    leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        collecting = gc.isenabled()
        yield
        if collecting:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("as_json", [["--json"], []])
    def test_paused_while_writing_and_restored(self, collecting, as_json):
        out = _Recording()
        if collecting:
            gc.enable()
        else:
            gc.disable()
        with contextlib.redirect_stdout(out):
            code = main(["enumerate", "Part", "4", *as_json])
        assert code == 0
        assert out.getvalue().endswith("\n")
        assert out.collecting == {False}
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("on", ["write", "flush"])
    def test_restored_on_a_closed_pipe(self, on):
        gc.enable()
        with contextlib.redirect_stdout(_ClosedPipe(on)), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["enumerate", "Part", "5", "--json"]) == 0
        assert gc.isenabled()


class _Recording(io.StringIO):
    """A stdout that notes whether the collector was on at each write."""

    def __init__(self):
        super().__init__()
        self.collecting = set()

    def write(self, text):
        self.collecting.add(gc.isenabled())
        return super().write(text)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, failing on write or on flush."""

    def __init__(self, on):
        super().__init__()
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    @pytest.mark.parametrize("on", ["write", "flush"])
    @pytest.mark.parametrize("argv", [
        ["enumerate", "Part", "5", "--json"],
        ["enumerate", "Part", "5"],
        ["count", "Part", "8"],
    ])
    def test_a_closed_reader_is_exit_0_and_quiet(self, argv, on):
        err = io.StringIO()
        with contextlib.redirect_stdout(_ClosedPipe(on)), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0
        assert err.getvalue() == ""

    def test_missing_defs_file_is_still_exit_1(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "A", "3", "--defs", "/no/such/file"
        )
        assert code == 1
        assert out == ""
        assert "error:" in err and "/no/such/file" in err


class TestNegativeOrder:
    @pytest.mark.parametrize("argv", [
        ["series", "E", "--order", "-1"],
        ["solve", "A", "--order", "-1"],
        ["verify", "--order", "-1"],
    ])
    def test_is_exit_1_with_an_error_line(self, capsys, defs_file, argv):
        code, out, err = run(capsys, *argv, "--defs", defs_file)
        assert code == 1
        assert out == ""
        assert "error:" in err and "nonnegative" in err
        assert "Traceback" not in err


def _refused_as_too_deep(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestNestingLimit:
    def test_a_deep_power_names_the_limit(self, capsys):
        code, out, err = run(capsys, "count", "X^5000", "1")
        _refused_as_too_deep(code, out, err)
        assert f"nests deeper than {MAX_NESTING} levels" in err

    def test_deep_brackets_name_the_limit(self, capsys):
        text = "(" * 3000 + "X" + ")" * 3000
        code, out, err = run(capsys, "count", text, "1")
        _refused_as_too_deep(code, out, err)
        assert f"nests deeper than {MAX_NESTING} levels" in err

    @pytest.mark.parametrize(
        "text",
        [
            f"X^{MAX_NESTING}",
            "+".join(["X"] * MAX_NESTING),
            "(" * MAX_NESTING + "X" + ")" * MAX_NESTING,
            "pt(" * (MAX_NESTING - 1) + "X" + ")" * (MAX_NESTING - 1),
            "C(" * (MAX_NESTING - 1) + "X" + ")" * (MAX_NESTING - 1),
            "E" + "'" * (MAX_NESTING - 1),
        ],
        ids=["power", "sum", "brackets", "pt", "substitution", "derivative"],
    )
    def test_the_limit_is_reached_and_not_passed(self, capsys, text):
        for argv in (["count", text, "1"], ["enumerate", text, "1"]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, "")
        deeper = "pt(" + text + ")"
        code, out, err = run(capsys, "count", deeper, "1")
        _refused_as_too_deep(code, out, err)
        assert f"nests deeper than {MAX_NESTING} levels" in err

    def test_a_long_chain_of_names_enumerated(self, capsys, tmp_path):
        path = tmp_path / "chain.species"
        lines = [f"N{i} = X + N{i + 1}" for i in range(1499)] + ["N1499 = X"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["N0", "1", "--defs", str(path)]
        assert run(capsys, "count", *argv) == (0, "1500\n", "")
        code, out, err = run(capsys, "enumerate", *argv)
        _refused_as_too_deep(code, out, err)
        assert "recursion limit" in err

    def test_a_deeply_nested_structure(self, capsys):
        text = "[" * 5000 + "]" * 5000
        code, out, err = run(capsys, "transport", "X", "1->1", text)
        _refused_as_too_deep(code, out, err)
        assert "recursion limit" in err


# Short count and series inputs over the grammar's alphabet: token runs,
# nearly all refused, and printed well-formed expressions.
_TOKENS = sorted(RESERVED) + list("0123456789()+*^'[]") + ["[2]"]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join),
    grammar_exprs(include_names=False, max_leaves=4).map(print_expr),
)


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(
        _TEXTS,
        st.integers(min_value=0, max_value=6),
        st.booleans(),
        st.booleans(),
    )
    def test_count_and_series_exit_with_a_contract_code(
        self, text, order, as_series, as_json
    ):
        if as_series:
            argv = ["series", text, "--order", str(order)]
        else:
            argv = ["count", text, str(order)]
        code, err = _quiet_main(argv + (["--json"] if as_json else []))
        assert code in {0, 1, 2, 3, 4}
        assert "Traceback" not in err


# -- series output ------------------------------------------------------------

class TestCoefficientText:
    """Each printed coefficient is str(series.coefficient(n)), written
    without a Fraction per coefficient."""

    @pytest.mark.parametrize("text,order", [
        ("1", 0), ("E", 0), ("X", 1), ("L", 12), ("P", 20), ("End", 16),
        ("Part", 54), ("Der", 160), ("A", 30), ("B", 38), ("pt(A)", 15),
    ])
    def test_json_and_text_forms(self, capsys, defs_file, text, order):
        env = species.parse_defs(Path(defs_file).read_text(encoding="utf-8"))
        series = species.egf_of(species.parse_expr(text), env, order=order)
        want = [str(series.coefficient(n)) for n in range(order + 1)]
        argv = ["series", text, "--order", str(order), "--defs", defs_file]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["coefficients"] == want
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            f"{n} {series.count(n)} {want[n]}" for n in range(order + 1)
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.one_of(st.integers(0, 10**6), st.integers(0, 40).map(factorial)),
        max_size=25,
    ))
    def test_each_text_is_the_fraction_text(self, counts):
        want = [str(Fraction(c, factorial(n))) for n, c in enumerate(counts)]
        assert cli._coefficient_texts(counts) == want


@pytest.fixture
def int_digits():
    """The interpreter's int-to-str digit limit, restored after the test."""
    limit = sys.get_int_max_str_digits()
    yield limit
    sys.set_int_max_str_digits(limit)


class TestExactOutputPastTheDigitLimit:
    """Counts with more digits than CPython converts by default (4 300)
    print in full, and main hands its caller the limit it found."""

    def test_count_prints_every_digit(self, capsys, int_digits):
        code, out, err = run(capsys, "count", "S", "2000")
        assert (code, err) == (0, "")
        sys.set_int_max_str_digits(0)
        want = str(factorial(2000))
        assert len(want) == 5736
        assert out == want + "\n"

    def test_series_json_parses(self, capsys, int_digits):
        code, out, err = run(capsys, "series", "L", "--order", "3000",
                             "--json")
        assert (code, err) == (0, "")
        sys.set_int_max_str_digits(0)
        got = json.loads(out)
        assert got["order"] == 3000
        assert got["counts"][3000] == factorial(3000)
        assert got["coefficients"][3000] == "1"

    @pytest.mark.parametrize("argv", [
        ["count", "S", "5"],
        ["count", "S", "2000", "--json"],
        ["count", "X*", "3"],
        ["enumerate", "Part", "9", "--budget", "1"],
    ])
    def test_the_callers_limit_is_restored(self, capsys, int_digits, argv):
        sys.set_int_max_str_digits(5000)
        main(argv)
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == 5000
