"""The command-line interface, driven in process through main()."""

import contextlib
import gc
import io
import json
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import species
from species import cli, identities, primitives, series
from species.cli import main
from species.errors import (
    BudgetExceeded,
    DomainMismatch,
    NonIntegerCount,
    SpeciesError,
)
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


#: Modules that no count, series or solve call loads, each a millisecond
#: or more of start-up: rationals (fractions, and decimal with it), made
#: only for a count that is not integral, and json, which only verify and
#: transport read and write with.
_LAZY = ("fractions", "decimal", "json")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, isolated from the environment, imports the CLI
    from this checkout without either module, each a few milliseconds of
    every command's start-up, and without any of _LAZY."""
    src = Path(species.__file__).resolve().parent.parent
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import species.cli; "
        "print(sorted({'dataclasses', 'inspect', *sys.argv[2:]}"
        " & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src), *_LAZY],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


def test_importing_the_cli_without_site_loads_no_pathlib():
    """Without site, which loads pathlib itself, importing the CLI loads
    no pathlib: only a --defs file is read, and open() reads it."""
    src = Path(species.__file__).resolve().parent.parent
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import species.cli; print('pathlib' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"


_COUNTING_CALLS = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    from species import cli, structures
    for line in sys.stdin.read().splitlines():
        assert cli.main(line.split()) == 0, line
    loaded = sorted(set(sys.argv[2:]) & set(sys.modules))
    print(loaded, "_text" in structures.SumTerm.__dict__)
""")


def test_counting_calls_load_no_rationals_json_or_writers(tmp_path):
    """count, series and solve, --json included, run in a fresh isolated
    interpreter through main, load none of _LAZY and compile no term
    writer."""
    defs = tmp_path / "mutual.species"
    defs.write_text("T = X*E(U)\nU = X*L(T)\n", encoding="utf-8")
    lines = [
        "count Part 6 --json", "count T 5 --defs DEFS --json",
        "series Part --order 5 --json", "series Der --order 9",
        "solve U --order 6 --defs DEFS --json", "count C 4",
    ]
    src = Path(species.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-I", "-c", _COUNTING_CALLS, str(src), *_LAZY],
        input="\n".join(lines).replace("DEFS", str(defs)),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[] False"
    assert done.stdout.splitlines()[0] == '{"n": 6, "count": 203}'


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

    @pytest.mark.parametrize("text, labels, bijection", [
        ("E(C)+L'*X", "1,2,3", "1->3,2->1,3->2"),
        ("C'", "é,b", "é->b,b->é"),
        ("Gra", "1,2,3", "1->a,2->b,3->c"),
    ])
    def test_json_bytes_equal_json_dumps(self, capsys, text, labels,
                                         bijection):
        """--json writes the moved structure with the compiled writer:
        json.dumps of its to_json() tree, stars and non-ASCII escaped."""
        expr = species.parse_expr(text)
        moving = cli._parse_bijection(bijection)
        found = species.enumerate_structures(expr, None,
                                             cli._parse_labels(labels))
        for structure in found:
            code, out, _ = run(capsys, "transport", text, bijection,
                               json.dumps(structure.to_json()), "--json")
            moved = species.transport(expr, None, structure, moving)
            assert code == 0
            assert out == json.dumps(moved.to_json()) + "\n"

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

    @pytest.mark.parametrize("size", ["0", "1"])
    def test_ill_founded_system_is_refused_at_every_size(self, capsys,
                                                         tmp_path, size):
        path = tmp_path / "bad.species"
        path.write_text("F = F\n", encoding="utf-8")
        code, out, err = run(capsys, "count", "F", size, "--defs", str(path))
        assert (code, out) == (1, "")
        assert "admits more than one fixed point" in err


class TestDerivativeCycles:
    """A cycle through a derivative is decided through its reach, past the
    order asked for, so every order gives the same decision and counts."""

    @staticmethod
    def _defs(tmp_path, text):
        path = tmp_path / "cycle.species"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_a_count_that_reads_past_its_size(self, capsys, tmp_path):
        # F_3 = G_5 = C(5, 4) * 4! * F_1.
        defs = self._defs(tmp_path, "F = X + G''\nG = X^4*F\n")
        assert run(capsys, "count", "F", "3", "--defs", defs) == (
            0, "120\n", ""
        )

    def test_a_cycle_that_reads_an_outside_name(self, capsys, tmp_path):
        # f = x + x^2 f' e^x: f_n = [n = 1] + n(n - 1) g_(n-2), where
        # g = f' e^x has g_m = sum_k C(m, k) f_(k+1).
        want = [0, 1]
        for n in range(2, 7):
            g = sum(comb(n - 2, k) * want[k + 1] for k in range(n - 1))
            want.append(n * (n - 1) * g)
        defs = self._defs(tmp_path, "F = X + X^2*F'*H\nH = E\n")
        code, out, err = run(capsys, "series", "F", "--order", "6",
                             "--defs", defs)
        assert (code, err) == (0, "")
        assert [int(line.split()[1]) for line in out.splitlines()] == want
        assert want[3:] == [18, 276, 6740, 238830]

    @pytest.mark.parametrize("size", ["0", "1", "4"])
    def test_a_same_size_cycle_is_refused_at_every_order(
            self, capsys, tmp_path, size):
        # H_2 = 2 * H_2: size 2 lies within the reach of every order.
        defs = self._defs(tmp_path, "H = X + X^2*H''\n")
        code, out, err = run(capsys, "count", "H", size, "--defs", defs)
        assert (code, out) == (1, "")
        assert "the system does not determine H" in err


class TestDivergentSystems:
    """A system whose counts grow on every pass is refused within a few
    passes, before its counts square their way past the machine's memory.
    Each call runs apart, under a 2 GB address-space limit."""

    @staticmethod
    def _refusal(tmp_path, defs, argv):
        """Run the CLI on defs in a fresh interpreter under the limit:
        (seconds taken, the finished process)."""
        path = tmp_path / "divergent.species"
        path.write_text(defs + "\n", encoding="utf-8")
        src = Path(species.__file__).resolve().parent.parent
        probe = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "sys.path.insert(0, sys.argv[1]); "
            "from species.cli import main; sys.exit(main(sys.argv[2:]))"
        )
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-I", "-c", probe, str(src), *argv,
             "--defs", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        return time.perf_counter() - started, done

    @pytest.mark.parametrize("defs, argv, size", [
        ("F = 1 + F*F", ["count", "F", "12"], 0),
        ("F = 1 + F*F", ["count", "F", "14"], 0),
        ("F = 1 + F*F*F", ["count", "F", "10"], 0),
        ("F = X + F(F)", ["count", "F", "14"], 1),
    ])
    def test_exits_1_within_two_seconds(self, tmp_path, defs, argv, size):
        elapsed, done = self._refusal(tmp_path, defs, argv)
        assert elapsed < 2.0
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: equation {defs} has no fixed point: the system does not "
            f"determine F, whose count at size {size} depends on itself\n"
        )

    @pytest.mark.parametrize("defs, argv, refused", [
        ("F = G(X)*F\nG = G(F)'", ["count", "F", "5"], None),
        ("F = (G + G)*E\nG = 1*G(F)", ["count", "F", "7"], "G = 1*G(F)"),
    ])
    def test_the_cross_check_run_is_watched_too(self, tmp_path, defs, argv,
                                                refused):
        """Two systems that a second solver run, from a nonzero start, once
        decided.  Each is now decided from its equations, alike once they
        are swapped and F and G renamed into each other, and each run ends
        within the bound.  The first is counted, all zeros, since every
        factor is 0 at its least solution; the second is refused, since its
        equation refused reads its own count at size 0."""
        swap = str.maketrans("FG", "GF")
        swapped = "\n".join(reversed(defs.translate(swap).split("\n")))
        renamed = refused and refused.translate(swap)
        for defs, argv, refused in (
            (defs, argv, refused),
            (swapped, [argv[0], "G", argv[2]], renamed),
        ):
            elapsed, done = self._refusal(tmp_path, defs, argv)
            assert elapsed < 2.0
            if refused is None:
                assert (done.returncode, done.stdout, done.stderr) == (
                    0, "0\n", "")
            else:
                assert (done.returncode, done.stdout) == (1, "")
                assert done.stderr == (
                    f"error: equation {refused} admits more than one fixed "
                    f"point: the system does not determine {refused[0]}, "
                    "whose count at size 0 depends on itself\n"
                )


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
        real, listing = primitives.ROWS[PrimitiveKind.DERANGEMENT]

        def perturbed(order, param=None):
            series = real(order, param)
            coeffs = list(series.coefficients())
            if len(coeffs) > 4:
                coeffs[4] += Fraction(1, 24)
            return CountSeries.from_coefficients(coeffs)

        monkeypatch.setitem(
            primitives.ROWS, PrimitiveKind.DERANGEMENT, (perturbed, listing)
        )
        code, out, _ = run(capsys, "verify", "--case", "counts-Der")
        assert code == 1
        assert "FAIL  counts-Der" in out
        assert "n=4" in out
        assert out.splitlines()[-1] == "0 passed, 1 failed"

    def test_an_unknown_case_is_refused_before_any_case_runs(
        self, capsys, monkeypatch
    ):
        def ran(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(identities._Case, "run", ran)
        code, out, err = run(capsys, "verify", "--case", "counts-Gro",
                             "--case", "nope")
        assert (code, out, err) == (1, "", "error: no such case: nope\n")

    def test_a_clash_is_reported_before_an_unknown_case(self, capsys,
                                                         tmp_path):
        path = tmp_path / "clash.species"
        path.write_text("V = X\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--case", "counts-X",
                             "--case", "nope", "--defs", str(path))
        assert (code, out, err) == (1, "", "error: 'V' is defined twice\n")


def _error_classes(cls=SpeciesError):
    """cls and every class derived from it."""
    return [cls, *(found for sub in cls.__subclasses__()
                   for found in _error_classes(sub))]


#: The exit codes the cli module documents other than 1, by error class.
_DOCUMENTED_CODES = {NonIntegerCount: 2, BudgetExceeded: 3, DomainMismatch: 4}


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

    def test_out_of_memory_is_exit_3_with_one_error_line(self, capsys,
                                                         monkeypatch):
        def exhausted(g, order, known=()):
            raise MemoryError

        monkeypatch.setattr(series, "_exp", exhausted)
        code, out, err = run(capsys, "series", "Part", "--order", "5")
        assert (code, out) == (3, "")
        assert err == "error: the call ran out of memory\n"

    def test_usage_error_is_exit_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "count" in out and "verify" in out

    @pytest.mark.parametrize("error", _error_classes(),
                             ids=lambda cls: cls.__name__)
    def test_every_error_class_exits_with_its_documented_code(
            self, capsys, monkeypatch, error):
        def refuse(*args, **kwargs):
            raise error("refused")

        monkeypatch.setattr(cli, "egf_of", refuse)
        code, out, err = run(capsys, "count", "X", "1")
        assert (code, out, err) == (
            _DOCUMENTED_CODES.get(error, 1), "", "error: refused\n")


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
    """A line that main leaves to argparse (help, a usage error) prints
    the argparse parser's output and messages, its usage error exiting 1."""

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

    @pytest.mark.parametrize("argv, stdout", [
        (["count", "T+T", "0"], "0\n"),
        (["solve", "F", "--order", "3"], "0 0 0\n1 1 1\n2 0 0\n3 0 0\n"),
    ], ids=["equal-towers", "decided-tower"])
    def test_stacked_powers_take_time_linear_in_their_height(
            self, tmp_path, argv, stdout):
        """Every F^k shares one base, so X^2^...^2 has 2^k paths through a
        few dozen nodes.  Comparing two such towers and deciding an
        equation over one each visit every distinct node once: T is 40
        powers of X and F = X + X*F^2^...^2 60 powers deep, and each call
        prints within seconds, where one visit per path would take
        forever."""
        path = tmp_path / "tower.species"
        path.write_text("F = X + X*F" + "^2" * 60 + "\n", encoding="utf-8")
        argv = [arg.replace("T", "X" + "^2" * 40) for arg in argv]
        src = Path(species.__file__).resolve().parent.parent
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from species.cli import main; sys.exit(main(sys.argv[2:]))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", probe, str(src), *argv,
             "--defs", str(path)],
            capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, stdout, "")

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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit before CPython 3.10.7")
def test_main_in_threads_hands_back_the_callers_limit(int_digits):
    """One thread prints 3000! twenty times while two others count X on
    one label until it ends, with threads switching every 10 us: no call
    raises, and the limit the caller set before them is the limit after
    them."""
    sys.set_int_max_str_digits(5000)
    big_done = threading.Event()
    codes, raised = [], []

    def big():
        try:
            for _ in range(20):
                codes.append(main(["count", "S", "3000"]))
        except BaseException as exc:
            raised.append(exc)
        finally:
            big_done.set()

    def small():
        try:
            while not big_done.is_set():
                codes.append(main(["count", "X", "1"]))
        except BaseException as exc:
            raised.append(exc)

    threads = [threading.Thread(target=f) for f in (big, small, small)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert raised == [] and set(codes) == {0}
    assert sys.get_int_max_str_digits() == 5000


# -- argument reading ---------------------------------------------------------

_USAGE = (
    "usage: species [-h] {count,series,enumerate,transport,solve,verify} ...\n"
)

_HELP = {
    (): _USAGE + """
Count, list, and relabel the structures of a species expression.

positional arguments:
  {count,series,enumerate,transport,solve,verify}
    count               number of structures on a label set
    series              counting series of an expression
    enumerate           list every structure on a label set
    transport           relabel a structure along a bijection
    solve               series of a name from a definitions file
    verify              run the built-in identity suite

options:
  -h, --help            show this help message and exit
""",
    ("count",): """\
usage: species count [-h] [--defs FILE] [--json] expr labels

positional arguments:
  expr
  labels       a size n (labels 1..n) or a comma list

options:
  -h, --help   show this help message and exit
  --defs FILE  definitions file of name = expression lines
  --json       machine-readable output
""",
    ("series",): """\
usage: species series [-h] [--defs FILE] [--order ORDER] [--json] expr

positional arguments:
  expr

options:
  -h, --help     show this help message and exit
  --defs FILE    definitions file of name = expression lines
  --order ORDER  truncation order
  --json         machine-readable output
""",
    ("enumerate",): """\
usage: species enumerate [-h] [--budget BUDGET] [--defs FILE] [--json]
                         expr labels

positional arguments:
  expr
  labels           a size n (labels 1..n) or a comma list

options:
  -h, --help       show this help message and exit
  --budget BUDGET  refuse to list more than this many structures
  --defs FILE      definitions file of name = expression lines
  --json           machine-readable output
""",
    ("transport",): """\
usage: species transport [-h] [--defs FILE] [--json]
                         expr bijection [structure]

positional arguments:
  expr
  bijection    comma list of a->b entries
  structure    structure as JSON (read from stdin when omitted)

options:
  -h, --help   show this help message and exit
  --defs FILE  definitions file of name = expression lines
  --json       machine-readable output
""",
    ("solve",): """\
usage: species solve [-h] [--defs FILE] [--order ORDER] [--json] name

positional arguments:
  name

options:
  -h, --help     show this help message and exit
  --defs FILE    definitions file of name = expression lines
  --order ORDER  truncation order
  --json         machine-readable output
""",
    ("verify",): """\
usage: species verify [-h] [--case NAME] [--order ORDER] [--defs FILE]
                      [--json]

options:
  -h, --help     show this help message and exit
  --case NAME    run only this case (repeatable)
  --order ORDER  cap both series order and enumeration size
  --defs FILE    definitions file of name = expression lines
  --json         machine-readable output
""",
}

_USAGE_ERRORS = [
    ([], _USAGE + "species: error: the following arguments are required: "
     "command\n"),
    (["bogus"], _USAGE + "species: error: argument command: invalid choice: "
     "'bogus' (choose from 'count', 'series', 'enumerate', 'transport', "
     "'solve', 'verify')\n"),
    (["count", "X"],
     "usage: species count [-h] [--defs FILE] [--json] expr labels\n"
     "species count: error: the following arguments are required: labels\n"),
    (["count", "X", "3", "--bogus"],
     _USAGE + "species: error: unrecognized arguments: --bogus\n"),
    (["series", "X", "--order", "-1"],
     "usage: species series [-h] [--defs FILE] [--order ORDER] [--json] "
     "expr\n"
     "species series: error: argument --order: order must be nonnegative, "
     "got -1\n"),
    (["enumerate", "X", "1", "--budget", "many"],
     "usage: species enumerate [-h] [--budget BUDGET] [--defs FILE] "
     "[--json]\n"
     "                         expr labels\n"
     "species enumerate: error: argument --budget: invalid int value: "
     "'many'\n"),
    (["verify", "--order", "x"],
     "usage: species verify [-h] [--case NAME] [--order ORDER] [--defs FILE]\n"
     "                      [--json]\n"
     "species verify: error: argument --order: 'x' is not an integer\n"),
    (["transport", "P"],
     "usage: species transport [-h] [--defs FILE] [--json]\n"
     "                         expr bijection [structure]\n"
     "species transport: error: the following arguments are required: "
     "bijection\n"),
    (["count", "X", "3", "--json", "extra"],
     _USAGE + "species: error: unrecognized arguments: extra\n"),
    # The optional positional is matched, empty, before the option, so the
    # structure after it is left over.
    (["transport", "P", "a->b", "--json", "{}"],
     _USAGE + "species: error: unrecognized arguments: {}\n"),
]


class TestPinnedParserBytes:
    """The bytes and exit codes of help and of usage errors, at 80 columns."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", sorted(_HELP))
    def test_help(self, command):
        got = _captured(main, [*command, "--help"])
        assert got == (0, _HELP[command], "")

    @pytest.mark.parametrize("argv, err", _USAGE_ERRORS)
    def test_usage_error(self, argv, err):
        assert _captured(main, argv) == (1, "", err)


_READER_VALUES = ["", " 3 ", "3", "1,2", "a->b", "{}", "X*E(X)", "bogus",
                  "-", "-1"]
_READER_OPTIONS = [
    "--defs", "--order", "--json", "--budget", "--case",
    "--de", "--ord", "--js", "--bud", "--ca",
    "--defs=F", "--order=5", "--json=1", "--budget=3", "--case=counts-X",
    "-h", "--help", "--",
]
_READER_TOKENS = st.sampled_from(
    [*cli._COMMANDS, *_READER_VALUES, *_READER_OPTIONS])

@st.composite
def _near_well_formed(draw):
    """A subcommand's line as its row of cli._COMMANDS shapes it, with its
    positionals drawn from the values and its option values from all the
    tokens, and half the time one token put in or over one of its own."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, positionals, options, _ = cli._COMMANDS[command]
    least = sum(1 for _, optional, _ in positionals if not optional)
    argv = [command, *draw(st.lists(st.sampled_from(_READER_VALUES),
                                    min_size=least,
                                    max_size=len(positionals)))]
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        argv.append(option[0])
        if option[2] != "store_true":
            argv.append(draw(_READER_TOKENS))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(argv)))
        token = draw(_READER_TOKENS)
        if at < len(argv) and draw(st.booleans()):
            argv[at] = token
        else:
            argv.insert(at, token)
    return argv


_READER_ARGVS = st.one_of(st.lists(_READER_TOKENS, max_size=8),
                          _near_well_formed())


class TestDirectReader:
    """A well-formed line is read without argparse, into the attributes
    argparse would give it; any other line is left to argparse."""

    @pytest.fixture(scope="class")
    def parser(self):
        """One argparse parser for every example: parse_args leaves it as
        it was."""
        return cli._build_parser()

    @settings(max_examples=400, deadline=None)
    @given(_READER_ARGVS)
    def test_declines_or_agrees_with_argparse(self, parser, argv):
        read = cli._read(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                parsed = parser.parse_args(argv)
            except SystemExit:
                parsed = None
        if parsed is None:
            assert read is None
        elif read is not None:
            assert vars(read) == vars(parsed)

    @pytest.mark.parametrize("argv, attributes", [
        (["transport", "P", "a->b"],
         {"expr": "P", "bijection": "a->b", "structure": None,
          "defs": None, "json": False}),
        (["verify", "--case", "a", "--order", "3", "--case", "b",
          "--order", " 4 "],
         {"case": ["a", "b"], "order": 4, "defs": None, "json": False}),
        (["enumerate", "X", "", "--budget", "7", "--json", "--json"],
         {"expr": "X", "labels": "", "budget": 7, "defs": None,
          "json": True}),
    ])
    def test_reads_a_well_formed_line(self, argv, attributes):
        read = vars(cli._read(argv))
        assert read.pop("command") == argv[0]
        assert read.pop("func") is cli._COMMANDS[argv[0]][3]
        assert read == attributes

    def test_each_call_gets_its_own_case_list(self):
        first = cli._read(["verify", "--case", "a"])
        first.case.append("b")
        assert cli._read(["verify", "--case", "a"]).case == ["a"]


def _refuse_to_build():
    raise AssertionError("a well-formed line built a parser")


class TestNoParserOnWellFormedCalls:
    """Every argv form the benchmark issues runs without building a
    parser."""

    @pytest.fixture(autouse=True)
    def no_parser(self, monkeypatch):
        monkeypatch.setattr(cli, "_build_parser", _refuse_to_build)

    @pytest.mark.parametrize("argv, out", [
        (["count", "A", "4", "--defs", None, "--json"],
         '{"n": 4, "count": 64}\n'),
        (["series", "B", "--order", "3", "--defs", None, "--json"],
         '{"order": 3, "counts": [1, 1, 4, 30], '
         '"coefficients": ["1", "1", "2", "5"]}\n'),
        (["solve", "A", "--order", "2", "--defs", None, "--json"],
         '{"order": 2, "counts": [0, 1, 2], '
         '"coefficients": ["0", "1", "1"]}\n'),
        (["enumerate", "E", "a,b", "--json"],
         '[{"kind": "set", "labels": ["a", "b"]}]\n'),
        (["enumerate", "X", "1", "--json", "--defs", None],
         '[{"kind": "set", "labels": ["1"]}]\n'),
        (["transport", "E", "a->b", '{"kind": "set", "labels": ["a"]}',
          "--defs", None],
         "{b}\n"),
    ])
    def test_runs(self, capsys, defs_file, argv, out):
        argv = [defs_file if token is None else token for token in argv]
        assert run(capsys, *argv) == (0, out, "")

    def test_verify_case(self, capsys, tmp_path):
        path = tmp_path / "unused.species"
        path.write_text("Fresh = X*L(Fresh)\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--case", "counts-X",
                             "--json", "--defs", str(path))
        assert (code, err) == (0, "")
        assert [case["name"] for case in json.loads(out)["cases"]] == [
            "counts-X"]


class TestJsonLinesEqualJsonDumps:
    """count, series and solve write their --json line without json: the
    bytes are json.dumps's of the payload, past the digit limit too."""

    @pytest.mark.parametrize("argv, payload", [
        (["count", "Gra", "200", "--json"],
         {"n": 200, "count": 2 ** comb(200, 2)}),
        (["series", "Part", "--order", "0", "--json"],
         {"order": 0, "counts": [1], "coefficients": ["1"]}),
        (["count", "0", "3", "--json"], {"n": 3, "count": 0}),
    ])
    def test_fixed_payload(self, capsys, int_digits, argv, payload):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        sys.set_int_max_str_digits(0)
        assert out == json.dumps(payload) + "\n"
        if argv[1] == "Gra":
            assert len(str(payload["count"])) > 4300

    def test_solve_on_a_mutual_system(self, capsys, tmp_path):
        defs = tmp_path / "mutual.species"
        defs.write_text("T = X*E(U)\nU = X*L(T)\n", encoding="utf-8")
        code, out, err = run(capsys, "solve", "U", "--order", "9",
                             "--defs", str(defs), "--json")
        assert (code, err) == (0, "")
        env = species.parse_defs(defs.read_text(encoding="utf-8"))
        counts = species.egf_of(species.parse_expr("U"), env, order=9).counts()
        assert any(count % factorial(n) for n, count in enumerate(counts))
        payload = {
            "order": 9,
            "counts": counts,
            "coefficients": [
                str(Fraction(count, factorial(n)))
                for n, count in enumerate(counts)
            ],
        }
        assert out == json.dumps(payload) + "\n"


def test_importing_the_cli_loads_neither_argparse_nor_gettext():
    """argparse, and gettext with it, is imported only when a line needs a
    parser: help, a usage error, or a spelling the direct reader declines;
    and none of _LAZY is imported with the CLI."""
    src = Path(species.__file__).resolve().parent.parent
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import species.cli; "
        "print(sorted({'argparse', 'gettext', *sys.argv[2:]}"
        " & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src), *_LAZY],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


class TestRepeatedLabels:
    """A comma list names each label once; "1" and "01" are one label."""

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    @pytest.mark.parametrize("labels, shown", [
        ("1,01", "[1, 1]"),
        ("a,b,a", "['a', 'b', 'a']"),
    ])
    def test_is_exit_1(self, capsys, command, labels, shown):
        code, out, err = run(capsys, command, "E", labels)
        assert (code, out) == (1, "")
        assert err == f"error: duplicate label in {shown}\n"


class TestLabelSetBound:
    """A label set larger than cli.MAX_LABELS is refused with exit 3, naming
    the bound, before any label list is built."""

    @pytest.mark.parametrize("argv", [
        ["count", "E", "99999999999999999999"],
        ["enumerate", "X", "99999999999999999999"],
        ["count", "E", "9999999999"],
    ])
    def test_an_oversized_size_exits_3_at_once(self, argv):
        src = Path(species.__file__).resolve().parent.parent
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from species.cli import main; sys.exit(main(sys.argv[2:]))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", probe, str(src), *argv],
            capture_output=True, text=True, timeout=30,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.startswith("error: ")
        assert str(cli.MAX_LABELS) in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("size", [
        "99999999999999999999", "9999999999", "1" + "0" * 100_000,
    ], ids=["20-digits", "10-digits", "100001-digits"])
    def test_the_refusal_takes_under_a_second(self, capsys, size):
        started = time.perf_counter()
        code, out, err = run(capsys, "count", "E", size)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, "")
        assert f"limit of {cli.MAX_LABELS} labels" in err

    def test_the_bound_itself_is_taken(self, capsys):
        size = str(cli.MAX_LABELS)
        assert run(capsys, "count", "E", size) == (0, "1\n", "")
        assert run(capsys, "count", "E", "000" + size) == (0, "1\n", "")
        code, _, err = run(capsys, "count", "E", str(cli.MAX_LABELS + 1))
        assert code == 3 and "error:" in err

    def test_a_comma_list_past_the_bound_exits_3(self, capsys):
        labels = ",".join(map(str, range(1, cli.MAX_LABELS + 2)))
        code, out, err = run(capsys, "count", "E", labels)
        assert (code, out) == (3, "")
        assert f"limit of {cli.MAX_LABELS} labels" in err

    def test_count_s_2000_still_prints_2000_factorial(self, capsys, int_digits):
        code, out, err = run(capsys, "count", "S", "2000")
        assert (code, err) == (0, "")
        sys.set_int_max_str_digits(0)
        assert out == f"{factorial(2000)}\n"


class TestOrderBound:
    """An --order above cli.MAX_ORDER is refused with exit 3, naming the
    bound, before any series is computed."""

    @staticmethod
    def _run_apart(*argv):
        src = Path(species.__file__).resolve().parent.parent
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from species.cli import main; sys.exit(main(sys.argv[2:]))"
        )
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-I", "-c", probe, str(src), *argv],
            capture_output=True, text=True, timeout=60,
        )
        return done, time.perf_counter() - started

    @pytest.mark.parametrize("order", ["100000", "99999999999999999999"])
    def test_a_large_order_exits_3_within_a_second(self, order):
        done, seconds = self._run_apart("series", "E", "--order", order)
        assert seconds < 1.0
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: order {order} exceeds the limit of {cli.MAX_ORDER}\n"
        )
        assert "Traceback" not in done.stderr

    def test_series_l_at_order_3000_still_prints(self, int_digits):
        done, _ = self._run_apart("series", "L", "--order", "3000")
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert len(lines) == 3001
        sys.set_int_max_str_digits(0)
        assert lines[-1] == f"3000 {factorial(3000)} 1"

    @pytest.mark.parametrize("argv", [
        ["series", "X", "--order", "10001"],
        ["series", "X", "--order=10001"],
        ["series", "X", "--order", "1" + "0" * 100_000],
        ["solve", "A", "--order", "10001"],
        ["verify", "--order", "10001"],
        ["verify", "--case", "counts-X", "--order", "00010001"],
    ], ids=["series", "series-argparse", "100001-digits", "solve", "verify",
            "verify-zeros"])
    def test_every_order_option_is_bounded(self, capsys, defs_file,
                                           monkeypatch, argv):
        def computed(*args, **kwargs):
            raise AssertionError("a series was computed")

        monkeypatch.setattr(cli, "egf_of", computed)
        monkeypatch.setattr(cli, "run_suite", computed)
        started = time.perf_counter()
        code, out, err = run(capsys, *argv, "--defs", defs_file)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("error: order ")
        assert err.endswith(f" exceeds the limit of {cli.MAX_ORDER}\n")

    def test_the_bound_itself_is_taken(self):
        assert cli._order(str(cli.MAX_ORDER)) == cli.MAX_ORDER
        assert cli._order(" 000" + str(cli.MAX_ORDER)) == cli.MAX_ORDER
        with pytest.raises(BudgetExceeded, match="limit of 10000"):
            cli._order(str(cli.MAX_ORDER + 1))
