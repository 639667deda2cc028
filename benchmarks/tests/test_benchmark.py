"""Tests of the benchmark's own machinery.

Run from the root of the repository:

    python3 benchmarks/tests/test_benchmark.py    (or: python3 -m pytest benchmarks/tests)
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _span(log: tracing.SpanLog, nid: int, start: float, end: float, parent: int) -> int:
    log.calls[nid] += 1
    log.span_name.append(nid)
    log.parent.append(parent)
    log.op_id.append(0)
    log.start.append(start)
    log.end.append(end)
    return len(log) - 1


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        log = tracing.SpanLog()
        main = log.register("cli.main", "cli", None)
        gcd = log.register("exact.poly_gcd", "exact", "exact.gcd")
        inter = log.register("spectra.interlace_check", "spectra", "spectra.interlace")
        root = _span(log, main, 0.0, 10.0, -1)
        a = _span(log, gcd, 1.0, 4.0, root)
        _span(log, inter, 3.0, 6.0, root)     # overlaps a: together they cover [1, 6]
        _span(log, gcd, 2.0, 3.0, a)          # same category nested inside a
        _span(log, main, 20.0, 21.0, -1)      # a second root without children

        self.assertEqual(tracing.self_times(log), [5.0, 2.0, 3.0, 1.0, 1.0])
        layer_self, cat = tracing.summarize(log)
        self.assertEqual(layer_self["cli"], 6.0)
        self.assertEqual(layer_self["exact"], 3.0)
        self.assertEqual(layer_self["spectra"], 3.0)
        self.assertEqual(cat["exact.gcd"], 3.0)  # the nested span counts once
        self.assertEqual(cat["spectra.interlace"], 3.0)


class FakeCli:
    """Stands in for coxlinks.cli: prints a fixed stdout, returns a code."""

    def __init__(self, out: str, code: int = 0, error: Exception | None = None):
        self.out, self.code, self.error = out, code, error

    def main(self, argv):
        if self.error:
            raise self.error
        sys.stdout.write(self.out)
        return self.code


GOOD_COMPARE = json.dumps({"vertex_extension": True, "coxeter_interlacing": True,
                           "alexander_interlacing": True}) + "\n"


def verify_output(nmax: int, dedup: bool, seed: int, trials: int) -> dict:
    graphs, passes = inputs.verify_expectation(nmax, dedup, trials)
    return {"n_max": nmax, "extension_trials": trials, "seed": seed,
            "dedup": dedup, "graphs_examined": graphs,
            "counters": {k: {"pass": v, "fail": 0} for k, v in passes.items()},
            "counterexample": None, "ok": True}


class FailureCountingTest(unittest.TestCase):
    def op(self, digest=None):
        return run.Op(["compare", "a", "b", "--json"], 2, checks.check_compare, digest)

    def failures(self, cli, op) -> int:
        tally = run.Tally([op])
        tally.run_cycle(cli)
        self.assertEqual(tally.attempted, 1)
        return tally.failed

    def test_correct_output_passes(self):
        good = self.op(checks.digest(GOOD_COMPARE))
        self.assertEqual(self.failures(FakeCli(GOOD_COMPARE), good), 0)

    def test_corrupted_stdout_fails(self):
        wrong = GOOD_COMPARE.replace("true}", "false}")
        self.assertEqual(self.failures(FakeCli(wrong), self.op()), 1)
        self.assertEqual(self.failures(FakeCli("not json"), self.op()), 1)
        self.assertEqual(self.failures(FakeCli(" " + GOOD_COMPARE),
                                       self.op(checks.digest(GOOD_COMPARE))), 1)

    def test_exit_code_and_exception_fail(self):
        self.assertEqual(self.failures(FakeCli(GOOD_COMPARE, code=1), self.op()), 1)
        self.assertEqual(self.failures(FakeCli("", error=RuntimeError("boom")), self.op()), 1)

    def test_failed_commands_certify_no_graphs(self):
        tally = run.Tally([self.op(), self.op("0" * 64)])
        tally.run_cycle(FakeCli(GOOD_COMPARE))
        tally.run_cycle(FakeCli(GOOD_COMPARE))
        self.assertEqual((tally.attempted, tally.failed, tally.certified_graphs()), (4, 2, 2))
        self.assertEqual([len(v) for v in tally.latencies], [2, 2])

    def test_wrong_verify_counter_fails(self):
        def problems(report):
            return checks.check_verify(json.dumps(report), 6, False, 4, 10)

        report = verify_output(6, False, 4, 10)
        self.assertEqual(problems(report), [])
        report["counters"]["extra-check"] = {"pass": 1, "fail": 0}  # extra counters are fine
        self.assertEqual(problems(report), [])
        report["counters"]["log-concavity"]["pass"] -= 1
        self.assertTrue(problems(report))
        report = verify_output(6, False, 4, 10)
        report["graphs_examined"] += 1
        self.assertTrue(problems(report))

    def test_min_search_containment(self):
        good = {"enclosure": {"lo": "1405546295/536870912", "hi": "2811092591/1073741824"},
                "trees_examined": 47, "graph": "vertex v0 +\nvertex v1 -\nedge v0 v1\n"}
        self.assertEqual(checks.check_min_search(json.dumps(good), 8), [])
        self.assertTrue(checks.check_min_search(json.dumps(good), 7))  # 24 trees at n <= 7
        good["enclosure"]["hi"] = "2811092590/1073741824"
        self.assertTrue(checks.check_min_search(json.dumps(good), 8))


class InputFilesTest(unittest.TestCase):
    def files(self, workload: str, seed: int) -> dict[str, bytes]:
        (HERE / ".work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
            run.WORKLOADS[workload](seed, Path(tmp), run.load_digests())
            return {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}

    def test_same_seed_same_files_other_seed_other_files(self):
        for workload in ("analyze-large", "compare-pairs"):
            first = self.files(workload, 5)
            self.assertTrue(first)
            self.assertEqual(first, self.files(workload, 5))
            other = self.files(workload, 6)
            self.assertEqual(first.keys(), other.keys())
            self.assertNotEqual(first, other)

    def test_graphs_are_alternating_and_connected(self):
        pairs = inputs.compare_inputs(2)
        for g in inputs.analyze_inputs(2) + [small for small, _ in pairs]:
            if g.kind != "classical":
                self.assertTrue(all(g.signs[i] != g.signs[j] for i, j in g.edges))
            self.assertEqual(len(g.edges) > g.n - 1, g.kind == "cycle")
        for small, large in pairs:
            self.assertEqual(large.n, small.n + 1)
            self.assertTrue(set(small.edges) < set(large.edges))
            self.assertTrue(all(large.signs[i] != large.signs[j] for i, j in large.edges))


class TracerTest(unittest.TestCase):
    def test_install_trace_and_restore(self):
        cli = run.fresh_cli()
        exact = sys.modules["coxlinks.exact"]
        original = exact.poly_gcd
        log = tracing.SpanLog()
        tracer = tracing.Tracer(log)
        tracing.TRACED["exact.no_such_function"] = "exact.gcd"
        try:
            tracer.install()
            with redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["analyze", "paper-5", "--json"]), 0)
        finally:
            tracer.uninstall()
            del tracing.TRACED["exact.no_such_function"]
        self.assertIs(exact.poly_gcd, original)
        self.assertEqual(tracer.skipped, ["exact.no_such_function"])
        self.assertEqual(tracer.calls("exact.IntMatrix.charpoly"), 3)
        self.assertGreater(tracer.calls("exact.IntPolynomial.eval_sign"), 0)
        self.assertEqual(log.names[log.span_name[0]], "cli.main")
        layer_self, cat = tracing.summarize(log)
        self.assertGreater(cat["exact.charpoly"], 0)
        total = log.end[0] - log.start[0]
        # the spans of one command tile its root span exactly
        self.assertAlmostEqual(sum(tracing.self_times(log)), total, places=6)


if __name__ == "__main__":
    unittest.main()
