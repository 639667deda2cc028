"""Command-line interface tests: exit codes, output contracts, JSON
schemas, and byte-for-byte determinism."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coxlinks
from coxlinks import cli, coxeter, spectra
from coxlinks.analysis import VerificationSummary
from coxlinks.cli import main
from coxlinks.exact import IntMatrix
from coxlinks.fixtures import fixture_names, fixture_text
from coxlinks.graphs import parse_graph

TRIANGLE = """\
vertex a +
vertex b -
vertex c +
edge a b
edge b c
edge c a
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_five_vertex_fixture_prints_polynomials(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "paper-5")
        assert code == 0
        assert "coxeter polynomial: t^5 + 10t^4 + 27t^3 + 27t^2 + 10t + 1" in out
        assert "alexander polynomial: t^5 - 10t^4 + 27t^3 - 27t^2 + 10t - 1" in out

    def test_a2_radius_enclosure(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "a2")
        assert code == 0
        assert "spectral radius in [2.61803398" in out

    def test_triangle_rejected_without_classical(self, capsys, tmp_path):
        path = tmp_path / "triangle.graph"
        path.write_text(TRIANGLE)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert out == ""
        assert "not alternating-sign" in err

    def test_classical_fixture_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "e10-classical")
        assert code == 3
        assert "not alternating-sign" in err

    def test_classical_flag_reduced_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "e10-classical", "--classical")
        assert code == 0
        assert "classical signs" in out
        assert "max real root in [1.17628" in out
        assert "trapezoidal" not in out

    def test_classical_flag_harmless_on_alternating(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "a2", "--classical")
        assert code == 0
        assert "alternating signs" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "a2.graph"
        path.write_text(fixture_text("a2"))
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "2 vertices, 1 edge," in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(fixture_text("p5")))
        code, out, _ = run_cli(capsys, "analyze", "-")
        assert code == 0
        assert "5 vertices, 4 edges" in out

    def test_unknown_source_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-thing")
        assert code == 2
        assert "no such file or built-in example" in err

    def test_unreadable_input_is_parse_error(self, capsys, tmp_path):
        latin1 = tmp_path / "latin1.graph"
        latin1.write_bytes("vertex \xe9 +\n".encode("latin-1"))
        for spec, fragment in ((str(tmp_path), "cannot read"),
                               (str(latin1), "not UTF-8")):
            code, out, err = run_cli(capsys, "analyze", spec)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and fragment in err
            assert err.count("\n") == 1

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("vertex a +\nvertex b\nedge a b\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2" in err

    def test_zero_epsilon_is_contract_violation(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "a2", "--epsilon", "0")
        assert code == 3
        assert "epsilon" in err

    def test_non_rational_epsilon_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "a2", "--epsilon", "tiny"])
        assert exc.value.code == 2
        assert "not a rational number" in capsys.readouterr().err

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "paper-5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"graph", "polynomials", "flags",
                            "spectral_radius", "max_real_root"}
        assert doc["graph"] == {"n": 5, "edges": 5, "alternating": True}
        assert doc["polynomials"]["coxeter"] == [1, 10, 27, 27, 10, 1]
        assert doc["polynomials"]["alexander"] == [-1, 10, -27, 27, -10, 1]
        assert doc["flags"]["real_stable"] is True
        lo = Fraction(doc["spectral_radius"]["lo"])
        hi = Fraction(doc["spectral_radius"]["hi"])
        assert lo < hi
        assert hi - lo <= Fraction(1, 10**9)

    def test_json_classical_nulls(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "e10-classical",
                               "--classical", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["flags"] is None
        assert doc["polynomials"]["alexander"] is None
        assert doc["spectral_radius"] is None
        assert doc["max_real_root"] is not None


class TestCompareCommand:
    def test_extension_pair(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "a2", "p3-alt")
        assert code == 0
        assert "vertex extension: yes" in out
        assert "coxeter interlacing: yes" in out
        assert "alexander interlacing: yes" in out

    def test_non_interlacing_pair(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "p5", "k33")
        assert code == 0
        assert "vertex extension: no" in out
        assert "coxeter interlacing: no" in out
        assert "alexander interlacing: no" in out

    @pytest.mark.parametrize("small,large", [("a2", "p3-alt"), ("p5", "k33")])
    def test_one_interlacing_per_pair(self, capsys, monkeypatch, small, large):
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return spectra.interlace_check(p, q)

        monkeypatch.setattr(cli, "interlace_check", counting)
        code, out, _ = run_cli(capsys, "compare", small, large)
        assert code == 0 and len(calls) == 1
        lines = out.splitlines()
        assert lines[1].split(": ")[1] == lines[2].split(": ")[1]

    def test_alexander_contract_checked_after_interlacing(self, capsys, tmp_path):
        single = tmp_path / "single.txt"
        single.write_text("vertex v0 +\n")
        code, out, err = run_cli(capsys, "compare", str(single), "a2")
        assert code == 3 and out == ""
        assert "alexander_polynomial needs at least two vertices" in err
        # real-rooted Coxeter polynomials, but classical signs
        path = tmp_path / "path.txt"
        path.write_text("vertex a +\nvertex b -\nvertex c -\nedge a b\nedge b c\n")
        code, out, err = run_cli(capsys, "compare", "a2", str(path))
        assert code == 3 and out == ""
        assert "alexander_polynomial needs an alternating-sign graph" in err

    def test_classical_pair_refused_before_interlacing(self, capsys, tmp_path):
        # all-plus paths: c is not real-rooted, so an interlacing test
        # run first would fail with a message about real roots
        small = tmp_path / "small.txt"
        small.write_text("vertex a +\nvertex b +\nedge a b\n")
        large = tmp_path / "large.txt"
        large.write_text("vertex a +\nvertex b +\nvertex c +\nedge a b\nedge b c\n")
        code, out, err = run_cli(capsys, "compare", str(small), str(large))
        assert code == 3 and out == ""
        assert err == "error: alexander_polynomial needs an alternating-sign graph\n"

    def test_size_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "compare", "a2", "a2")
        assert code == 3
        assert "differ by one" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "a2", "p3-alt", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"vertex_extension": True,
                       "coxeter_interlacing": True,
                       "alexander_interlacing": True}


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--nmax", "4",
                                 "--trials", "5", "--seed", "1")
        assert code == 0
        assert "no counterexamples" in out
        assert "wall time:" in err
        assert "wall time:" not in out

    def test_nmax_too_small(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--nmax", "1")
        assert code == 3
        assert "at least 2" in err

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        failing = VerificationSummary(
            n_max=2, extension_trials=0, seed=0, dedup=False,
            graphs_examined=1,
            counters=(("symmetry", 0, 1),),
            counterexample="# failed check: symmetry\nvertex a +",
            wall_time_seconds=0.0)
        monkeypatch.setattr("coxlinks.cli.verify_theorems",
                            lambda *a, **k: failing)
        code, out, _ = run_cli(capsys, "verify", "--nmax", "2")
        assert code == 1
        assert "FIRST COUNTEREXAMPLE" in out
        assert "# failed check: symmetry" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "3",
                               "--trials", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["counterexample"] is None
        assert doc["n_max"] == 3
        for counts in doc["counters"].values():
            assert counts["fail"] == 0
            assert counts["pass"] > 0


class TestExitCodes:
    """Exit 1 only for a certified violation; any other runtime failure
    is an internal error, exit 4, on one line."""

    def test_certified_violation_exits_1(self, capsys, monkeypatch):
        real = coxeter.bipartite_factors
        monkeypatch.setattr(coxeter, "bipartite_factors",
                            lambda g: (IntMatrix([[-1, -1], [0, -1]]), real(g)[1]))
        code, out, err = run_cli(capsys, "analyze", "a2")
        assert (code, out) == (1, "")
        assert err.startswith("error: C+ is not an involution\n")

    def test_failed_monodromy_identity_exits_1(self, capsys, monkeypatch):
        real = coxeter.bipartite_factors
        monkeypatch.setattr(coxeter, "bipartite_factors",
                            lambda g: (IntMatrix.identity(g.n), real(g)[1]))
        code, out, err = run_cli(capsys, "analyze", "a2")
        assert (code, out) == (1, "")
        assert err.startswith("error: monodromy identity M^T M = -C- C+ failed\n")

    @pytest.mark.parametrize("error", [RuntimeError("stuck\nsecond line"),
                                       RecursionError("maximum recursion depth exceeded"),
                                       RuntimeError()])
    def test_other_runtime_errors_exit_4(self, capsys, monkeypatch, error):
        def fail(*_):
            raise error

        monkeypatch.setattr(cli, "analyze", fail)
        code, out, err = run_cli(capsys, "analyze", "a2")
        assert (code, out) == (4, "")
        detail = str(error).partition("\n")[0] or type(error).__name__
        assert err == f"error: internal error: {detail}\n"


class TestMinSearchCommand:
    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "min-search", "--nmax", "3")
        assert code == 0
        assert "enclosure: [2.61803398" in out
        assert "attained by:" in out
        assert "vertex v0 +" in out
        assert "wall time:" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "min-search", "--nmax", "4",
                               "--dedup", "--json")
        assert code == 0
        doc = json.loads(out)
        lo = Fraction(doc["enclosure"]["lo"])
        hi = Fraction(doc["enclosure"]["hi"])
        # contains (3 + sqrt 5)/2 iff (2*lo - 3)^2 <= 5 <= (2*hi - 3)^2
        assert lo > Fraction(3, 2)
        assert (2 * lo - 3) ** 2 <= 5 <= (2 * hi - 3) ** 2
        assert hi - lo <= Fraction(1, 10**9)
        attained = parse_graph(doc["graph"])
        assert attained.n == 2
        assert doc["trees_examined"] < doc["trees_examined"] + doc["trees_pruned"] + 1

    def test_nmax_too_small(self, capsys):
        code, _, err = run_cli(capsys, "min-search", "--nmax", "0")
        assert code == 3
        assert "at least 2" in err


class TestExampleCommand:
    @pytest.mark.parametrize("name", fixture_names())
    def test_verbatim_fixture(self, capsys, name):
        code, out, _ = run_cli(capsys, "example", name)
        assert code == 0
        assert out == fixture_text(name)

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "example", "borromean")
        assert code == 2
        assert "valid names" in err
        for name in fixture_names():
            assert name in err

    @pytest.mark.parametrize("name", fixture_names())
    def test_round_trip_into_analyze(self, capsys, monkeypatch, name):
        code, out, _ = run_cli(capsys, "example", name)
        assert code == 0
        argv = ["analyze", "-"]
        if name == "e10-classical":
            argv.append("--classical")
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "coxeter polynomial:" in out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("analyze", "paper-5"),
        ("analyze", "paper-5", "--json"),
        ("analyze", "e10-classical", "--classical", "--json"),
        ("compare", "p5", "k33", "--json"),
        ("verify", "--nmax", "4", "--trials", "5", "--seed", "7"),
        ("verify", "--nmax", "4", "--trials", "5", "--seed", "7", "--json"),
        ("min-search", "--nmax", "4", "--json"),
        ("example", "k33"),
    ])
    def test_identical_invocations_identical_stdout(self, capsys, argv):
        first_code, first, _ = run_cli(capsys, *argv)
        second_code, second, _ = run_cli(capsys, *argv)
        assert first_code == second_code
        assert first == second

    def test_dedup_changes_counts_not_verdict(self, capsys):
        _, full, _ = run_cli(capsys, "verify", "--nmax", "4", "--trials", "3")
        code, deduped, _ = run_cli(capsys, "verify", "--nmax", "4",
                                   "--trials", "3", "--dedup")
        assert code == 0
        assert "no counterexamples" in full
        assert "no counterexamples" in deduped
        assert full != deduped


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, expected stdout) for each `$ coxlinks ...` line in a fenced
    block of README.md; the output runs to the end of the block."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", README.read_text(encoding="utf-8"),
                            flags=re.S | re.M):
        lines = block.splitlines()
        if lines and lines[0].startswith("$ coxlinks "):
            argv = shlex.split(lines[0])[2:]
            examples.append(pytest.param(argv, "\n".join(lines[1:]) + "\n",
                                         id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv,expected", readme_examples())
def test_readme_example_output_is_byte_identical(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


# `analyze` text stdout, byte for byte, on every fixture: the benchmark
# digests pin only the --json output
ANALYZE_TEXT = {
    ("a2",): (
        "graph: 2 vertices, 1 edge, alternating signs\n"
        "coxeter polynomial: t^2 + 3t + 1\n"
        "alexander polynomial: t^2 - 3t + 1\n"
        "spectral radius in [2.618033988401, 2.618033989332]\n"
        "real stable (all alexander roots real and positive): yes\n"
        "sign alternating: yes\n"
        "trapezoidal: yes (plateau k = 1)\n"
        "log-concave (strict): yes\n"
        "bi-orderable implied (all monodromy eigenvalues real positive): yes\n"
        "proof identities: ok\n"
    ),
    ("p3-alt",): (
        "graph: 3 vertices, 2 edges, alternating signs\n"
        "coxeter polynomial: t^3 + 5t^2 + 5t + 1\n"
        "alexander polynomial: t^3 - 5t^2 + 5t - 1\n"
        "spectral radius in [3.732050807215, 3.732050808146]\n"
        "real stable (all alexander roots real and positive): yes\n"
        "sign alternating: yes\n"
        "trapezoidal: yes (plateau k = 1)\n"
        "log-concave (strict): yes\n"
        "bi-orderable implied (all monodromy eigenvalues real positive): yes\n"
        "proof identities: ok\n"
    ),
    ("paper-5",): (
        "graph: 5 vertices, 5 edges, alternating signs\n"
        "coxeter polynomial: t^5 + 10t^4 + 27t^3 + 27t^2 + 10t + 1\n"
        "alexander polynomial: t^5 - 10t^4 + 27t^3 - 27t^2 + 10t - 1\n"
        "spectral radius in [6.405435399756, 6.405435400520]\n"
        "real stable (all alexander roots real and positive): yes\n"
        "sign alternating: yes\n"
        "trapezoidal: yes (plateau k = 2)\n"
        "log-concave (strict): yes\n"
        "bi-orderable implied (all monodromy eigenvalues real positive): yes\n"
        "proof identities: ok\n"
    ),
    ("p5",): (
        "graph: 5 vertices, 4 edges, alternating signs\n"
        "coxeter polynomial: t^5 + 9t^4 + 25t^3 + 25t^2 + 9t + 1\n"
        "alexander polynomial: t^5 - 9t^4 + 25t^3 - 25t^2 + 9t - 1\n"
        "spectral radius in [4.791287847168, 4.791287847874]\n"
        "real stable (all alexander roots real and positive): yes\n"
        "sign alternating: yes\n"
        "trapezoidal: yes (plateau k = 2)\n"
        "log-concave (strict): yes\n"
        "bi-orderable implied (all monodromy eigenvalues real positive): yes\n"
        "proof identities: ok\n"
    ),
    ("k33",): (
        "graph: 6 vertices, 9 edges, alternating signs\n"
        "coxeter polynomial: t^6 + 15t^5 + 51t^4 + 74t^3 + 51t^2 + 15t + 1\n"
        "alexander polynomial: t^6 - 15t^5 + 51t^4 - 74t^3 + 51t^2 - 15t + 1\n"
        "spectral radius in [10.908326912343, 10.908326913224]\n"
        "real stable (all alexander roots real and positive): yes\n"
        "sign alternating: yes\n"
        "trapezoidal: yes (plateau k = 3)\n"
        "log-concave (strict): yes\n"
        "bi-orderable implied (all monodromy eigenvalues real positive): yes\n"
        "proof identities: ok\n"
    ),
    ("e10-classical", "--classical"): (
        "graph: 10 vertices, 9 edges, classical signs\n"
        "coxeter polynomial: t^10 + t^9 - t^7 - t^6 - t^5 - t^4 - t^3 + t + 1\n"
        "max real root in [1.176280817948, 1.176280818879]\n"
        "classical signs: alternating-sign certifications omitted\n"
    ),
    ("paper-5", "--epsilon", "1/1024"): (
        "graph: 5 vertices, 5 edges, alternating signs\n"
        "coxeter polynomial: t^5 + 10t^4 + 27t^3 + 27t^2 + 10t + 1\n"
        "alexander polynomial: t^5 - 10t^4 + 27t^3 - 27t^2 + 10t - 1\n"
        "spectral radius in [6.404685974121, 6.405487060546]\n"
        "real stable (all alexander roots real and positive): yes\n"
        "sign alternating: yes\n"
        "trapezoidal: yes (plateau k = 2)\n"
        "log-concave (strict): yes\n"
        "bi-orderable implied (all monodromy eigenvalues real positive): yes\n"
        "proof identities: ok\n"
    ),
}


@pytest.mark.parametrize("argv", ANALYZE_TEXT, ids=" ".join)
def test_analyze_text_report_is_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, "analyze", *argv)
    assert code == 0
    assert out == ANALYZE_TEXT[argv]


def test_readme_has_examples():
    assert len(readme_examples()) >= 3


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(coxlinks.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coxlinks", "example", "a2"],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout == fixture_text("a2")


def test_console_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("analyze", "compare", "verify", "min-search", "example"):
        assert name in out
