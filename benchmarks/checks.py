"""Output checks, done in the benchmark's own code.

Each check takes a command's standard output and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from inputs import PAIR_CHECKS, TREE_CHECKS, Graph, tree_count, verify_expectation

EPSILON = Fraction(1, 10 ** 9)  # the CLI's default enclosure width


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _interval(obj) -> tuple[Fraction, Fraction]:
    return Fraction(obj["lo"]), Fraction(obj["hi"])


def check_analyze(out: str, g: Graph) -> list[str]:
    report = json.loads(out)
    problems = []
    info = report["graph"]
    if (info["n"], info["edges"]) != (g.n, len(g.edges)):
        problems.append("graph size differs from the input")
    c = report["polynomials"]["coxeter"]
    if len(c) != g.n + 1:
        problems.append("coxeter polynomial has the wrong degree")
    if c != c[::-1]:
        problems.append("coxeter polynomial is not palindromic")
    mrr = report["max_real_root"]
    if mrr is not None:
        lo, hi = _interval(mrr)
        if not 0 <= hi - lo <= EPSILON:
            problems.append("max real root enclosure too wide")
    if g.kind == "classical":
        if info["alternating"] or report["flags"] is not None:
            problems.append("classical graph reported as alternating")
        return problems
    flags = report["flags"] or {}
    for name in ("real_stable", "sign_alternating", "trapezoidal", "log_concave",
                 "biorderable_implied", "proof_identities_ok"):
        if flags.get(name) is not True:
            problems.append(f"flag {name} is not true")
    alex = report["polynomials"]["alexander"] or []
    n = g.n
    if alex != [c[k] if (n + k) % 2 == 0 else -c[k] for k in range(len(c))]:
        problems.append("alexander polynomial is not (-1)^n c(-t)")
    radius = report["spectral_radius"]
    if radius is None:
        problems.append("no spectral radius")
    else:
        lo, hi = _interval(radius)
        if not 0 <= hi - lo <= EPSILON:
            problems.append("spectral radius enclosure too wide")
    return problems


def check_compare(out: str) -> list[str]:
    report = json.loads(out)
    return [f"{key} is not yes" for key in
            ("vertex_extension", "coxeter_interlacing", "alexander_interlacing")
            if report.get(key) is not True]


def check_verify(out: str, nmax: int, dedup: bool, seed: int, trials: int) -> list[str]:
    """Verdict, graph count and the pass counts of the twelve checks.
    Counters beyond these twelve are allowed."""
    report = json.loads(out)
    graphs, passes = verify_expectation(nmax, dedup, trials)
    problems = []
    if report.get("ok") is not True or report.get("counterexample") is not None:
        problems.append("sweep did not pass")
    if report.get("graphs_examined") != graphs:
        problems.append(f"graphs_examined {report.get('graphs_examined')} != {graphs}")
    if ((report.get("n_max"), report.get("dedup"), report.get("seed"),
         report.get("extension_trials")) != (nmax, dedup, seed, trials)):
        problems.append("sweep parameters differ from the command")
    counters = report.get("counters", {})
    for name in TREE_CHECKS + PAIR_CHECKS:
        if counters.get(name) != {"pass": passes[name], "fail": 0}:
            problems.append(f"counter {name} is {counters.get(name)}")
    return problems


def contains_golden_ratio_squared(lo: Fraction, hi: Fraction) -> bool:
    # (3 + sqrt 5)/2 lies in [lo, hi] iff (2lo - 3)^2 <= 5 <= (2hi - 3)^2,
    # valid when both endpoints are above 3/2
    return lo > Fraction(3, 2) and (2 * lo - 3) ** 2 <= 5 <= (2 * hi - 3) ** 2


def min_search_trees(nmax: int) -> int:
    """Trees `min-search --dedup` examines: one per isomorphism class."""
    return sum(tree_count(n, True) for n in range(2, nmax + 1))


def check_min_search(out: str, nmax: int) -> list[str]:
    report = json.loads(out)
    lo, hi = _interval(report["enclosure"])
    problems = []
    if not 0 <= hi - lo <= EPSILON:
        problems.append("enclosure too wide")
    if not contains_golden_ratio_squared(lo, hi):
        problems.append("enclosure misses the golden ratio squared")
    if report.get("trees_examined") != min_search_trees(nmax):
        problems.append(f"trees_examined {report.get('trees_examined')} != "
                        f"{min_search_trees(nmax)}")
    if report.get("graph") != "vertex v0 +\nvertex v1 -\nedge v0 v1\n":
        problems.append("minimiser is not the 2-vertex tree")
    return problems
