"""The command-line interface, driven in process through main()."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from species import semantics
from species.cli import main
from species.expr import PrimitiveKind
from species.series import CountSeries


@pytest.fixture
def defs_file(tmp_path):
    path = tmp_path / "defs.species"
    path.write_text("A = X*E(A)\nB = 1 + X*B^2\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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
