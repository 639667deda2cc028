"""Command-line interface tests: exit codes, output contracts, JSON
schemas, and byte-for-byte determinism."""

import argparse
import ast
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
from coxlinks import analysis, cli, coxeter, spectra
from coxlinks.analysis import VerificationSummary
from coxlinks.cli import main
from coxlinks.exact import IntMatrix, IntPolynomial
from coxlinks.fixtures import fixture_names, fixture_text
from coxlinks.graphs import parse_graph

from matrix_oracles import identity
from test_gram_roots import TEST_GRAPHS

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

    def test_disconnected_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "two.graph"
        path.write_text("vertex a +\nvertex b -\n")
        for argv in (["analyze", str(path)], ["compare", "a2", str(path)]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", "error: graph is not connected\n")

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

    # the Gram polynomials with their roots at 0 divided out: a2 y - 1 and
    # p3-alt y - 2, of equal degree, so one check of (y - 1, y (y - 2));
    # p5 y^2 - 4y + 3 and k33 y - 9 (q = y^2 (y - 9)), one degree less,
    # which decides "no" with no check
    GRAM_CHECKS = {("a2", "p3-alt"): [(IntPolynomial([-1, 1]), IntPolynomial([0, -2, 1]))],
                   ("p5", "k33"): []}

    @pytest.mark.parametrize("small,large", list(GRAM_CHECKS))
    def test_one_interlacing_per_pair(self, capsys, monkeypatch, small, large):
        expected = self.GRAM_CHECKS[small, large]
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return spectra.interlace_check(p, q)

        monkeypatch.setattr(cli, "interlace_check", counting)
        code, out, _ = run_cli(capsys, "compare", small, large)
        assert code == 0 and calls == expected
        lines = out.splitlines()
        assert lines[1].split(": ")[1] == lines[2].split(": ")[1]

    def test_alexander_contract_checked_before_interlacing(self, capsys, tmp_path):
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
                            lambda g: (identity(g.n), real(g)[1]))
        code, out, err = run_cli(capsys, "analyze", "a2")
        assert (code, out) == (1, "")
        assert err.startswith("error: monodromy identity M^T M = -C- C+ failed\n")

    # verify's tree battery reads the factors under its own name
    def test_verify_certified_violation_exits_1(self, capsys, monkeypatch):
        real = coxeter.bipartite_factors
        monkeypatch.setattr(analysis, "bipartite_factors",
                            lambda g: (IntMatrix([[-1, -1], [0, -1]]), real(g)[1]))
        code, out, err = run_cli(capsys, "verify", "--nmax", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: C+ is not an involution\n")

    def test_verify_failed_monodromy_identity_exits_1(self, capsys, monkeypatch):
        real = coxeter.bipartite_factors
        monkeypatch.setattr(analysis, "bipartite_factors",
                            lambda g: (identity(g.n), real(g)[1]))
        code, out, err = run_cli(capsys, "verify", "--nmax", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: monodromy identity M^T M = -C- C+ failed\n")

    def test_corrupt_sturm_chain_exits_4(self, capsys, monkeypatch):
        class Swapped(spectra._SturmChain):
            # M_i and g_i trade places, so a reading divides inexactly
            def __init__(self, sf):
                super().__init__(sf)
                self.steps = [(q, g, m, drop) for q, m, g, drop in self.steps]

        monkeypatch.setattr(spectra, "_SturmChain", Swapped)
        code, out, err = run_cli(capsys, "analyze", "paper-5")
        assert (code, out) == (4, "")
        assert err == "error: internal error: inexact Sturm-chain recurrence: inconsistent Sturm chain\n"

    def test_rootless_comparison_cell_exits_4(self, capsys, monkeypatch):
        # every mu_max cell moved to [100, 101], where no Gram polynomial of
        # a small tree has a root: min-search ranks the path on 3 vertices
        # against the best, both cells halving towards 101.  One such cell
        # would part from a true one before the halving bound
        real = spectra.mu_max_cell
        rootless = spectra.RationalInterval(Fraction(100), Fraction(101))
        monkeypatch.setattr(analysis, "mu_max_cell", lambda q: (real(q)[0], rootless))
        code, out, err = run_cli(capsys, "min-search", "--nmax", "4")
        assert (code, out) == (4, "")
        assert err == ("error: internal error: root comparison exceeded its halving bound: "
                       "a cell holds no root of its polynomial\n")

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


# Graphs at the edge cases of counting Coxeter roots on the chain of
# sf(q): on the all-plus star K(1,4), q = y + 4 (mu = -4) and c = (t+1)^3
# (t-1)^2; on the alternating 4-cycle and k33, n = 2s and q(0) = 0; on
# e10-classical, Lehmer's polynomial, q has a root mu < -4.  Text and
# --json stdout, byte for byte; the k33 and e10-classical text reports
# are in ANALYZE_TEXT, and the star and the 4-cycle in TEST_GRAPHS.
EDGE_CASE_REPORTS = {
    ("star-k14", "--classical"): (
        "graph: 5 vertices, 4 edges, classical signs\n"
        "coxeter polynomial: t^5 + t^4 - 2t^3 - 2t^2 + t + 1\n"
        "max real root in [1.000000000000, 1.000000000000]\n"
        "classical signs: alternating-sign certifications omitted\n"
    ),
    ("star-k14", "--classical", "--json"): (
        '{"graph": {"n": 5, "edges": 4, "alternating": false}, "polynomials": '
        '{"coxeter": [1, 1, -2, -2, 1, 1], "alexander": null}, "flags": null, '
        '"spectral_radius": null, "max_real_root": {"lo": "1/1", "hi": "1/1"}}\n'
    ),
    ("cycle-4",): (
        "graph: 4 vertices, 4 edges, alternating signs\n"
        "coxeter polynomial: t^4 + 8t^3 + 14t^2 + 8t + 1\n"
        "alexander polynomial: t^4 - 8t^3 + 14t^2 - 8t + 1\n"
        "spectral radius in [5.828427124593, 5.828427125117]\n"
        "real stable (all alexander roots real and positive): yes\n"
        "sign alternating: yes\n"
        "trapezoidal: yes (plateau k = 2)\n"
        "log-concave (strict): yes\n"
        "bi-orderable implied (all monodromy eigenvalues real positive): yes\n"
        "proof identities: ok\n"
    ),
    ("cycle-4", "--json"): (
        '{"graph": {"n": 4, "edges": 4, "alternating": true}, "polynomials": '
        '{"coxeter": [1, 8, 14, 8, 1], "alexander": [1, -8, 14, -8, 1]}, "flags": '
        '{"real_stable": true, "sign_alternating": true, "trapezoidal": true, "plateau_k": 2, '
        '"log_concave": true, "biorderable_implied": true, "proof_identities_ok": true}, '
        '"spectral_radius": {"lo": "100131615549/17179869184", "hi": "50065807779/8589934592"}, '
        '"max_real_root": {"lo": "-184224973/1073741824", "hi": "-46056243/268435456"}}\n'
    ),
    ("k33", "--json"): (
        '{"graph": {"n": 6, "edges": 9, "alternating": true}, "polynomials": '
        '{"coxeter": [1, 15, 51, 74, 51, 15, 1], "alexander": [1, -15, 51, -74, 51, -15, 1]}, '
        '"flags": {"real_stable": true, "sign_alternating": true, "trapezoidal": true, '
        '"plateau_k": 3, "log_concave": true, "biorderable_implied": true, '
        '"proof_identities_ok": true}, "spectral_radius": {"lo": "1499229034963/137438953472", '
        '"hi": "374807258771/34359738368"}, "max_real_root": {"lo": "-393732911/4294967296", '
        '"hi": "-1574931631/17179869184"}}\n'
    ),
    ("e10-classical", "--classical", "--json"): (
        '{"graph": {"n": 10, "edges": 9, "alternating": false}, "polynomials": '
        '{"coxeter": [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], "alexander": null}, "flags": null, '
        '"spectral_radius": null, "max_real_root": {"lo": "1263021911/1073741824", '
        '"hi": "157877739/134217728"}}\n'
    ),
}


@pytest.mark.parametrize("argv", EDGE_CASE_REPORTS, ids=" ".join)
def test_gram_count_edge_cases_are_byte_identical(capsys, tmp_path, argv):
    source = argv[0]
    if source in TEST_GRAPHS:
        path = tmp_path / f"{source}.txt"
        path.write_text(TEST_GRAPHS[source])
        source = str(path)
    code, out, _ = run_cli(capsys, "analyze", source, *argv[1:])
    assert code == 0
    assert out == EDGE_CASE_REPORTS[argv]


# --json documents of the sweep reports, key order included.
SWEEP_JSON = {
    ("verify", "--nmax", "4", "--trials", "5", "--seed", "7", "--json"): (
        '{"n_max": 4, "extension_trials": 5, "seed": 7, "dedup": false, '
        '"graphs_examined": 80, "counters": {'
        '"symmetry": {"pass": 20, "fail": 0}, '
        '"real-negative-spectrum": {"pass": 20, "fail": 0}, '
        '"proof-identities": {"pass": 20, "fail": 0}, '
        '"monodromy-charpoly": {"pass": 20, "fail": 0}, '
        '"reciprocality": {"pass": 20, "fail": 0}, '
        '"real-stability": {"pass": 20, "fail": 0}, '
        '"sign-alternation": {"pass": 20, "fail": 0}, '
        '"trapezoidality": {"pass": 20, "fail": 0}, '
        '"log-concavity": {"pass": 20, "fail": 0}, '
        '"coxeter-interlacing": {"pass": 15, "fail": 0}, '
        '"alexander-interlacing": {"pass": 15, "fail": 0}, '
        '"radius-monotonicity": {"pass": 15, "fail": 0}}, '
        '"counterexample": null, "ok": true}\n'
    ),
    ("min-search", "--nmax", "6", "--dedup", "--json"): (
        '{"n_max": 6, "enclosure": {"lo": "1405546295/536870912", '
        '"hi": "2811092591/1073741824"}, "trees_examined": 13, "trees_pruned": 12, '
        '"graph": "vertex v0 +\\nvertex v1 -\\nedge v0 v1\\n"}\n'
    ),
}


@pytest.mark.parametrize("argv", SWEEP_JSON, ids=" ".join)
def test_sweep_json_is_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == SWEEP_JSON[argv]


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


class TestReusedParser:
    """main parses every call with one parser, built on first use; no
    call may leave state behind that changes the next."""

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        assert run_cli(capsys, "example", "a2")[0] == 0
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli(capsys, "compare", "a2", "p3-alt")[0] == 0
        assert run_cli(capsys, "example", "a2")[0] == 0
        assert built == []

    def test_json_flag_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "p5", "--json")
        assert code == 0 and json.loads(out)
        code, out, _ = run_cli(capsys, "analyze", "p5")
        assert code == 0
        assert out == analysis.analyze(parse_graph(fixture_text("p5"))).render_text() + "\n"

    def test_epsilon_does_not_carry_over(self, capsys):
        g = parse_graph(fixture_text("p5"))
        code, out, _ = run_cli(capsys, "analyze", "p5", "--epsilon", "1/10")
        assert code == 0
        assert out == analysis.analyze(g, Fraction(1, 10)).render_text() + "\n"
        code, out, _ = run_cli(capsys, "analyze", "p5")
        assert code == 0
        assert out == analysis.analyze(g).render_text() + "\n"

    def test_good_command_after_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "p5", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, "compare", "a2", "p3-alt")
        assert (code, err) == (0, "")
        assert out == ("vertex extension: yes\ncoxeter interlacing: yes\n"
                       "alexander interlacing: yes\n")

    def test_example_after_verify(self, capsys):
        assert run_cli(capsys, "verify", "--nmax", "3")[0] == 0
        code, out, _ = run_cli(capsys, "example", "a2")
        assert (code, out) == (0, fixture_text("a2"))


def test_console_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("analyze", "compare", "verify", "min-search", "example"):
        assert name in out


def readme_library():
    """The Library section of README.md and the names its python block
    imports from coxlinks."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section, flags=re.S | re.M).group(1)
    names = [alias.name for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "coxlinks"
             for alias in node.names]
    return section, block, names


def test_readme_library_block_runs_on_exported_names():
    _, block, names = readme_library()
    assert names and set(names) <= set(coxlinks.__all__)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_library_section_names_every_export():
    section, _, names = readme_library()
    assert {name for name in coxlinks.__all__ if f"`{name}`" not in section} <= set(names)
