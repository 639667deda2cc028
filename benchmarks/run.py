#!/usr/bin/env python3
"""End-to-end benchmark of the coxlinks command line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload analyze-large --seed 0 --seconds 28 --trace 0

Each workload drives ``coxlinks.cli.main(argv)`` in this process with one
client in a closed loop: the next command starts when the previous one
returns.  Inputs are generated from --seed and written to graph files
during set-up; every output is checked.  With --trace 0 the end-to-end
metrics are reported; with --trace 1 the same commands run once untraced
and once with span tracing of the package's layers, and the per-layer
metrics are reported.  The last line of standard output is one JSON
object; the lines before it give every metric by name with its unit, and
a report with the inputs and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import SpanLog, Tracer, summarize  # noqa: E402

DEFAULT_SEED = 0
# Fastest time of reference_seconds() on the host the bounds were set on
# (2-CPU x86-64, Python 3.11).  That host is shared and its speed drifts by
# a fifth over minutes; the reference loop, timed in the same run, follows
# part of the drift, and end-to-end times are scaled by it.  Over ten seeds
# per workload this halved the spread of the sweep and analyze metrics and
# left compare-pairs about as it was.
REFERENCE_MS = 3.0
SETUP_REPEATS = 5
MIN_CYCLES = 3
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, by name, as
    BENCHMARK.json at the root of the checkout declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


END_TO_END_UNITS, PER_LAYER_UNITS = _metric_units()
# fail_ratio is printed with the metrics but is not a BENCHMARK.json
# metric: it is 0 on a correct program, and the result line carries
# attempted and failed.
FAIL_RATIO_UNIT = "ratio"


@dataclass
class Op:
    """One command: argv for coxlinks.cli.main and how to check its output."""
    argv: list[str]
    graphs: int
    check: Callable[[str], list[str]]
    digest: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    inputs: dict = field(default_factory=dict)


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def _size_record(graphs: list[inputs.Graph]) -> dict:
    per_n: dict[int, int] = {}
    kinds: dict[str, int] = {}
    for g in graphs:
        per_n[g.n] = per_n.get(g.n, 0) + 1
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    return {"graphs_per_n": dict(sorted(per_n.items())),
            "shares": {k: v / len(graphs) for k, v in sorted(kinds.items())}}


def _verify_op(nmax: int, dedup: bool, seed: int, trials: int) -> Op:
    argv = ["verify", "--nmax", str(nmax), "--seed", str(seed), "--trials", str(trials),
            "--json"]
    if dedup:
        argv.append("--dedup")
    graphs, _ = inputs.verify_expectation(nmax, dedup, trials)
    return Op(argv, graphs, lambda out: checks.check_verify(out, nmax, dedup, seed, trials))


def _sweep_record(nmax: int, dedup: bool, trials: int) -> dict:
    trees = {n: inputs.tree_count(n, dedup) for n in range(2, nmax + 1)}
    total, _ = inputs.verify_expectation(nmax, dedup, trials)
    return {"trees_per_n": trees, "random_pair_graphs_per_n": 4 * trials,
            "shares": {"tree": sum(trees.values()) / total,
                       "random_pair": 1 - sum(trees.values()) / total}}


# Command sizes: on a shared host the speed of one command varies by a
# fifth or more, and the fastest of many short executions varies far less
# than one long one, so each command here takes under a second and a run
# repeats it ten times or more.
SWEEP_DEDUP = (7, 2)     # nmax, trials: enumeration and dedup are most of the time
SWEEP_LABELED = (5, 10)  # nmax, trials: the per-graph battery is most of the time


def sweep_dedup(seed: int, workdir: Path, digests: dict) -> Workload:
    nmax, trials = SWEEP_DEDUP
    search = Op(["min-search", "--nmax", str(nmax), "--dedup", "--json"],
                checks.min_search_trees(nmax),
                lambda out: checks.check_min_search(out, nmax), digests["min-search"])
    warm = [_verify_op(4, True, seed, 1),
            Op(["min-search", "--nmax", "4", "--dedup", "--json"], 0, lambda out: [])]
    return Workload([_verify_op(nmax, True, seed, trials), search], warm,
                    {"verify": _sweep_record(nmax, True, trials),
                     "min_search_trees": checks.min_search_trees(nmax)})


def sweep_labeled(seed: int, workdir: Path, digests: dict) -> Workload:
    nmax, trials = SWEEP_LABELED
    return Workload([_verify_op(nmax, False, seed, trials)], [_verify_op(4, False, seed, 1)],
                    {"verify": _sweep_record(nmax, False, trials)})


def analyze_large(seed: int, workdir: Path, digests: dict) -> Workload:
    graphs = inputs.analyze_inputs(seed)
    ops = []
    for k, (g, want) in enumerate(zip(graphs, digests["analyze-large"])):
        argv = ["analyze", inputs.write_graph(workdir, f"analyze-{k:02d}", g), "--json"]
        if g.kind == "classical":
            argv.append("--classical")
        ops.append(Op(argv, 1, lambda out, g=g: checks.check_analyze(out, g), want))
    smallest = min(range(len(ops)), key=lambda k: graphs[k].n)
    return Workload(ops, [ops[smallest]], _size_record(graphs))


def compare_pairs(seed: int, workdir: Path, digests: dict) -> Workload:
    pairs = inputs.compare_inputs(seed)
    ops = []
    for k, ((small, large), want) in enumerate(zip(pairs, digests["compare-pairs"])):
        argv = ["compare", inputs.write_graph(workdir, f"compare-{k:02d}-small", small),
                inputs.write_graph(workdir, f"compare-{k:02d}-large", large), "--json"]
        ops.append(Op(argv, 2, checks.check_compare, want))
    smallest = min(range(len(ops)), key=lambda k: pairs[k][0].n)
    record = _size_record([s for s, _ in pairs])
    record["extension_sizes"] = sorted({large.n for _, large in pairs})
    return Workload(ops, [ops[smallest]], record)


WORKLOADS = {
    "sweep-dedup": sweep_dedup,
    "sweep-labeled": sweep_labeled,
    "analyze-large": analyze_large,
    "compare-pairs": compare_pairs,
}


def fresh_cli():
    """Import coxlinks.cli from this checkout's src/, dropping any copy
    already loaded so that import time is measured each set-up."""
    for name in [m for m in sys.modules if m == "coxlinks" or m.startswith("coxlinks.")]:
        del sys.modules[name]
    cli = importlib.import_module("coxlinks.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"coxlinks was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op: Op) -> tuple[float, list[str], str]:
    """(latency in seconds, problems, stdout) of one command.  A nonzero
    exit, an exception or a failed output check is a problem."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit) as e:  # the benchmark keeps going and counts it
        return time.perf_counter() - started, [f"raised {type(e).__name__}: {e}"], ""
    elapsed = time.perf_counter() - started
    text = out.getvalue()
    if code != 0:
        return elapsed, [f"exit code {code}: {err.getvalue().strip()[:200]}"], text
    problems = []
    if op.digest is not None and checks.digest(text) != op.digest:
        problems.append("stdout digest differs from the stored one")
    try:
        problems += op.check(text)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        problems.append(f"unreadable output: {type(e).__name__}: {e}")
    return elapsed, problems, text


@dataclass
class Tally:
    """Closed-loop results: every latency of every command, by command."""
    ops: list[Op]
    latencies: list[list[float]] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    outputs: list[tuple[Op, str]] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        self.latencies = [[] for _ in self.ops]
        self.ok = [True] * len(self.ops)

    def run_cycle(self, cli, log: SpanLog | None = None) -> None:
        """Run every command once; spans in `log` get the execution's id."""
        started = time.perf_counter()
        for k, op in enumerate(self.ops):
            if log is not None:
                log.op = self.attempted
            elapsed, problems, text = run_op(cli, op)
            self.attempted += 1
            self.latencies[k].append(elapsed)
            if problems:
                self.failed += 1
                self.ok[k] = False
                print(f"FAILED {' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
            else:
                self.outputs.append((op, text))
        self.cycles += 1
        self.seconds += time.perf_counter() - started

    def best(self) -> list[float]:
        """Each command's fastest execution: the run repeats every command,
        and the minimum is the one least disturbed by other load on the host."""
        return [min(v) for v in self.latencies]

    def certified_graphs(self) -> int:
        return sum(op.graphs for op, ok in zip(self.ops, self.ok) if ok)


def closed_loop(cli, seconds: float, tally: Tally, min_cycles: int = MIN_CYCLES) -> None:
    """Run whole cycles over the commands until at least `seconds` have
    passed and every command has run `min_cycles` times."""
    started = time.perf_counter()
    while tally.cycles < min_cycles or time.perf_counter() - started < seconds:
        tally.run_cycle(cli)
        tally.reference.append(min(reference_seconds() for _ in range(3)))


def reference_seconds() -> float:
    """Time of a fixed pure-Python computation (integer matrix-vector
    products and Fraction sums) that does not touch coxlinks; it measures
    the host's speed during the run."""
    started = time.perf_counter()
    n = 24
    m = [[(i * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]
    v = [1] * n
    for _ in range(60):
        v = [sum(a * b for a, b in zip(row, v)) % 1000003 for row in m]
    f = Fraction(0)
    for k in range(1, 300):
        f += Fraction(k, k + 1)
    return time.perf_counter() - started


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_PERCENTILES
    that has at least ten samples beyond it (nearest rank), or the
    maximum (percentile 100) when no listed percentile has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in reversed(TAIL_PERCENTILES):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def environment() -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without
    starting git; None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end_metrics(tally: Tally, setup_s: float) -> tuple[dict, dict]:
    """Times are multiplied by REFERENCE_MS over the reference loop's
    fastest time in the run, and graphs_per_s is divided by that ratio.
    The unscaled values are kept in the detail."""
    best = tally.best()
    p, tail = tail_latency(best)
    reference_ms = min(tally.reference) * 1000
    raw = {
        "graphs_per_s": tally.certified_graphs() / sum(best),
        "op_ms_p50": statistics.median(best) * 1000,
        "op_ms_tail": tail * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    scale = {"graphs_per_s": reference_ms / REFERENCE_MS, "op_ms_p50": REFERENCE_MS / reference_ms,
             "op_ms_tail": REFERENCE_MS / reference_ms, "setup_s": REFERENCE_MS / reference_ms}
    values = {name: value * scale.get(name, 1.0) for name, value in raw.items()}
    detail = {"op_ms_tail_percentile": p, "commands": len(best),
              "executions_per_command": tally.cycles, "measured_s": tally.seconds,
              "host_reference_ms": reference_ms, "unscaled": raw}
    return values, detail


def per_layer_metrics(cli, seconds: float, untraced: Tally, traced: Tally,
                      trace_path: Path) -> tuple[dict, dict]:
    """Run the commands untraced for half the time, then the same number of
    cycles traced; per-layer totals come from the traced cycles."""
    closed_loop(cli, seconds / 2, untraced, min_cycles=1)
    log = SpanLog()
    tracer = Tracer(log)
    tracer.install()
    try:
        while traced.cycles < untraced.cycles:
            traced.run_cycle(cli, log)
    finally:
        tracer.uninstall()
    layer_self, cat = summarize(log)
    log.write(trace_path)

    graphs = traced.certified_graphs() * traced.cycles
    examined = pruned = 0
    for op, text in traced.outputs:
        if op.argv[0] == "min-search":
            report = json.loads(text)
            examined += report["trees_examined"]
            pruned += report["trees_pruned"]
    keys = tracer.calls("graphs.tree_canonical_key")
    yielded = tracer.yields("graphs.enumerate_alternating_trees")
    charpolys = tracer.calls("exact.IntMatrix.charpoly")
    m = {
        "graphs.enum_s": cat["graphs.enum"],
        "graphs.trees_yielded": yielded,
        "graphs.keys_computed": keys,
        "graphs.dedup_keep_ratio": yielded / keys if keys else 1.0,
        "graphs.parse_s": cat["graphs.parse"],
        "exact.charpoly_s": cat["exact.charpoly"],
        "exact.charpoly_calls": charpolys,
        "exact.charpoly_calls_per_graph": charpolys / graphs if graphs else 0.0,
        "exact.charpoly_n4_sum": tracer.charpoly_n4,
        "exact.matmul_s": cat["exact.matmul"],
        "exact.inverse_s": cat["exact.inverse"],
        "exact.squarefree_s": cat["exact.squarefree"],
        "exact.gcd_s": cat["exact.gcd"],
        "exact.divexact_s": cat["exact.divexact"],
        "exact.eval_sign_calls": tracer.calls("exact.IntPolynomial.eval_sign"),
        "exact.max_coeff_bits": tracer.max_coeff_bits,
        "coxeter.build_s": cat["coxeter.build"],
        "coxeter.identities_s": cat["coxeter.identities"],
        "coxeter.monodromy_s": cat["coxeter.monodromy"],
        "spectra.real_rooted_s": cat["spectra.real_rooted"],
        "spectra.radius_s": cat["spectra.radius"],
        "spectra.max_root_s": cat["spectra.max_root"],
        "spectra.isolate_s": cat["spectra.isolate"],
        "spectra.interlace_s": cat["spectra.interlace"],
        "spectra.compare_s": cat["spectra.compare"],
        "spectra.compare_calls": tracer.calls("spectra.compare_isolated_roots"),
        "analysis.shape_s": cat["analysis.shape"],
        "analysis.pruned_ratio": pruned / examined if examined else 0.0,
        "cli.render_s": cat["cli.render"],
        "trace.overhead_ratio": sum(traced.best()) / sum(untraced.best()),
        "trace.skipped_names": len(tracer.skipped),
    }
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    detail = {"skipped_names": tracer.skipped, "spans": len(log), "cycles": traced.cycles,
              "untraced_s": untraced.seconds, "traced_s": traced.seconds}
    return {name: m[name] for name in PER_LAYER_UNITS}, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "coxlinks" / "cli.py").is_file():
        print(f"error: no coxlinks sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    digests = load_digests()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = HERE / ".out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            cli = fresh_cli()
            work = WORKLOADS[args.workload](args.seed, workdir, digests)
            for op in work.warmup:
                run_op(cli, op)
            setups.append(time.perf_counter() - started)
        setup_s = statistics.median(setups)

        tally = Tally(work.ops)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            traced = Tally(work.ops)
            metrics, detail = per_layer_metrics(cli, args.seconds, tally, traced,
                                                outdir / f"{stem}-spans.tsv.gz")
            units = PER_LAYER_UNITS
            tally.attempted += traced.attempted
            tally.failed += traced.failed
        else:
            closed_loop(cli, args.seconds, tally)
            metrics, detail = end_to_end_metrics(tally, setup_s)
            units = END_TO_END_UNITS
            if args.workload == "analyze-large":
                c_bits = [max(abs(c).bit_length() for c in
                              json.loads(text)["polynomials"]["coxeter"])
                          for _, text in tally.outputs]
                work.inputs["max_coeff_bits"] = max(c_bits, default=0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = tally.failed / tally.attempted
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric fail_ratio {fail_ratio:.6g} {FAIL_RATIO_UNIT}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, one client thread, one process",
        "setup_s_samples": setups, "inputs": work.inputs, "detail": detail,
        "fail_ratio": fail_ratio, "environment": environment(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (outdir / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n", encoding="utf-8")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
