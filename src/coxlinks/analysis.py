"""Coefficient certifications, per-graph reports, and exhaustive sweeps.

Everything here consumes the exact machinery of the lower layers: a report
is a bundle of certified yes/no answers plus rational enclosures, a sweep
is the same battery applied to every alternating tree up to a size bound
together with seeded randomized extension and inclusion pairs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import (
    CertificationError,
    _alexander_from_coxeter,
    _gram_polynomial,
    _proof_identities,
    bipartite_factors,
    coxeter_polynomial,
    verify_proof_identities,
)
from .exact import IntPolynomial, _coxeter_from_gram, fraction_to_decimal
from .graphs import (
    MixedSignCoxeterGraph,
    enumerate_alternating_trees,
    graph_to_text,
    is_alternating_sign,
    random_alternating_tree,
    random_edge_augmentation,
    random_vertex_extension,
    remove_vertex,
)
from .spectra import (
    DEFAULT_EPSILON,
    RationalInterval,
    _Roots,
    compare_isolated_roots,
    interlace_check,
)

def sign_alternation_check(p: IntPolynomial) -> bool:
    """True iff every coefficient is nonzero and consecutive signs differ."""
    if p.is_zero:
        raise ValueError("sign alternation needs a nonzero polynomial")
    cs = p.coeffs
    if any(c == 0 for c in cs):
        return False
    return all((a > 0) != (b > 0) for a, b in zip(cs, cs[1:]))


def trapezoidal_check(p: IntPolynomial) -> tuple[bool, int | None]:
    """Coefficient magnitudes strictly rise to index k, stay flat through
    deg - k, then strictly fall.  Returns (ok, least such k)."""
    if p.is_zero:
        raise ValueError("trapezoid shape needs a nonzero polynomial")
    mags = [abs(c) for c in p.coeffs]
    if any(m == 0 for m in mags):
        return False, None
    d = len(mags) - 1
    for k in range(d // 2 + 1):
        if (all(mags[i] < mags[i + 1] for i in range(k))
                and all(mags[i] == mags[k] for i in range(k, d - k + 1))
                and all(mags[i] > mags[i + 1] for i in range(d - k, d))):
            return True, k
    return False, None


def log_concavity_check(p: IntPolynomial) -> bool:
    """Strict log-concavity of the coefficient magnitudes,
    |a_i|^2 > |a_{i-1}| |a_{i+1}| at every interior index."""
    if p.is_zero:
        raise ValueError("log-concavity needs a nonzero polynomial")
    m = [abs(c) for c in p.coeffs]
    return all(m[i] * m[i] > m[i - 1] * m[i + 1] for i in range(1, len(m) - 1))


_WITNESS_EPS = Fraction(1, 1 << 10)


def _graph_roots(g: MixedSignCoxeterGraph) -> _Roots:
    return _Roots.of_gram(_gram_polynomial(g), g.n)


def _graph_spectrum(g: MixedSignCoxeterGraph) -> tuple[IntPolynomial, _Roots]:
    """c and its _Roots, both from one Gram polynomial q of g."""
    q = _gram_polynomial(g)
    return _coxeter_from_gram(q, g.n), _Roots.of_gram(q, g.n)


def _radius_leq(small: _Roots, big: _Roots) -> bool:
    return compare_isolated_roots(*small.radius_cell(_WITNESS_EPS),
                                  *big.radius_cell(_WITNESS_EPS)) <= 0


def _interval_json(iv: RationalInterval | None) -> dict | None:
    if iv is None:
        return None
    return {"lo": f"{iv.lo.numerator}/{iv.lo.denominator}",
            "hi": f"{iv.hi.numerator}/{iv.hi.denominator}"}


def _fmt_interval(iv: RationalInterval) -> str:
    return f"[{fraction_to_decimal(iv.lo)}, {fraction_to_decimal(iv.hi)}]"


@dataclass(frozen=True)
class AnalysisReport:
    """Certified facts about one graph.

    Alternating-sign graphs get the full battery.  Other (classical)
    graphs get the reduced report: the Coxeter polynomial and its largest
    real root, with every alternating-only field None.
    """

    graph: MixedSignCoxeterGraph
    alternating: bool
    coxeter: IntPolynomial
    alexander: IntPolynomial | None
    real_stable: bool | None
    sign_alternating: bool | None
    trapezoidal: bool | None
    plateau_k: int | None
    log_concave: bool | None
    biorderable_implied: bool | None
    proof_identities_ok: bool | None
    spectral_radius: RationalInterval | None
    max_real_root: RationalInterval | None

    def to_json_dict(self) -> dict:
        flags = None
        if self.alternating:
            flags = {
                "real_stable": self.real_stable,
                "sign_alternating": self.sign_alternating,
                "trapezoidal": self.trapezoidal,
                "plateau_k": self.plateau_k,
                "log_concave": self.log_concave,
                "biorderable_implied": self.biorderable_implied,
                "proof_identities_ok": self.proof_identities_ok,
            }
        alex = list(self.alexander.coeffs) if self.alexander is not None else None
        return {
            "graph": {
                "n": self.graph.n,
                "edges": self.graph.edge_count,
                "alternating": self.alternating,
            },
            "polynomials": {
                "coxeter": list(self.coxeter.coeffs),
                "alexander": alex,
            },
            "flags": flags,
            "spectral_radius": _interval_json(self.spectral_radius),
            "max_real_root": _interval_json(self.max_real_root),
        }

    def render_text(self) -> str:
        kind = "alternating" if self.alternating else "classical"
        m = self.graph.edge_count
        lines = [
            f"graph: {self.graph.n} vertices, {m} edge{'' if m == 1 else 's'}, {kind} signs",
            f"coxeter polynomial: {self.coxeter.pretty()}",
        ]
        if not self.alternating:
            if self.max_real_root is None:
                lines.append("max real root: none (no real eigenvalues)")
            else:
                lines.append(f"max real root in {_fmt_interval(self.max_real_root)}")
            lines.append("classical signs: alternating-sign certifications omitted")
            return "\n".join(lines)

        def yn(v: bool | None) -> str:
            return "yes" if v else "no"

        assert self.alexander is not None
        lines.append(f"alexander polynomial: {self.alexander.pretty()}")
        if self.spectral_radius is not None:
            lines.append(f"spectral radius in {_fmt_interval(self.spectral_radius)}")
        trap = yn(self.trapezoidal)
        if self.trapezoidal:
            trap += f" (plateau k = {self.plateau_k})"
        lines += [
            f"real stable (all alexander roots real and positive): {yn(self.real_stable)}",
            f"sign alternating: {yn(self.sign_alternating)}",
            f"trapezoidal: {trap}",
            f"log-concave (strict): {yn(self.log_concave)}",
            f"bi-orderable implied (all monodromy eigenvalues real positive): "
            f"{yn(self.biorderable_implied)}",
            f"proof identities: {'ok' if self.proof_identities_ok else 'FAILED'}",
        ]
        return "\n".join(lines)


def analyze(g: MixedSignCoxeterGraph,
            eps: Fraction = DEFAULT_EPSILON) -> AnalysisReport:
    """Full certification bundle for an alternating-sign graph, reduced
    report for any other two-colorable sign assignment.

    verify_proof_identities is the one matrix certificate: it certifies
    the monodromy M^T M = -C- C+, whose characteristic polynomial is
    therefore Delta.  c comes from the Gram polynomial q, so no graph runs
    an n x n characteristic polynomial, and every root answer from the
    spectra._Roots.of_gram of q, which counts on the Sturm chain of sf(q).
    """
    if g.n < 2:
        raise ValueError("analysis needs at least 2 vertices")
    if eps <= 0:
        raise ValueError("epsilon must be positive")

    c, roots = _graph_spectrum(g)
    mrr = roots.max_root_cell(eps)
    if not is_alternating_sign(g):
        return AnalysisReport(
            graph=g, alternating=False, coxeter=c, alexander=None,
            real_stable=None, sign_alternating=None, trapezoidal=None,
            plateau_k=None, log_concave=None, biorderable_implied=None,
            proof_identities_ok=None, spectral_radius=None, max_real_root=mrr)

    delta = _alexander_from_coxeter(c)
    # Delta = +-c(-t) is real stable iff every root of c is negative
    real_stable = roots.all_negative
    sign_alt = sign_alternation_check(delta)
    trap, plateau_k = trapezoidal_check(delta)
    log_conc = log_concavity_check(delta)
    identities_ok = bool(verify_proof_identities(g))
    # c(0) = +-1, so unlike spectral_radius_enclosure this needs no clamp
    radius = roots.radius_cell(eps)[1] if roots.real_rooted else None

    if real_stable and not (trap and log_conc):
        raise CertificationError(
            "report inconsistency: real-stable polynomial failed a "
            "coefficient-shape check\n" + graph_to_text(g))

    return AnalysisReport(
        graph=g, alternating=True, coxeter=c, alexander=delta,
        real_stable=real_stable, sign_alternating=sign_alt, trapezoidal=trap,
        plateau_k=plateau_k, log_concave=log_conc,
        biorderable_implied=real_stable, proof_identities_ok=identities_ok,
        spectral_radius=radius, max_real_root=mrr)


_TREE_CHECKS = (
    "symmetry",
    "real-negative-spectrum",
    "proof-identities",
    "monodromy-charpoly",
    "reciprocality",
    "real-stability",
    "sign-alternation",
    "trapezoidality",
    "log-concavity",
)
_PAIR_CHECKS = (
    "coxeter-interlacing",
    "alexander-interlacing",
    "radius-monotonicity",
)


@dataclass(frozen=True)
class VerificationSummary:
    """Outcome of one theorem sweep.

    counters holds (check name, passed, failed) in a fixed order; the
    counterexample is the first failing graph in enumeration order,
    serialized in the graph file format.
    """

    n_max: int
    extension_trials: int
    seed: int
    dedup: bool
    graphs_examined: int
    counters: tuple[tuple[str, int, int], ...]
    counterexample: str | None
    wall_time_seconds: float

    @property
    def ok(self) -> bool:
        return all(failed == 0 for _, _, failed in self.counters)

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "extension_trials": self.extension_trials,
            "seed": self.seed,
            "dedup": self.dedup,
            "graphs_examined": self.graphs_examined,
            "counters": {name: {"pass": p, "fail": f}
                         for name, p, f in self.counters},
            "counterexample": self.counterexample,
            "ok": self.ok,
        }

    def render_text(self) -> str:
        dd = "on" if self.dedup else "off"
        lines = [
            f"alternating trees with 2..{self.n_max} vertices, "
            f"{self.extension_trials} trials per size, seed {self.seed}, dedup {dd}",
            f"graphs examined: {self.graphs_examined}",
        ]
        for name, passed, failed in self.counters:
            lines.append(f"  {name}: {passed} pass, {failed} fail")
        if self.counterexample is None:
            lines.append("no counterexamples")
        else:
            lines.append("FIRST COUNTEREXAMPLE")
            lines.append(self.counterexample.rstrip("\n"))
        return "\n".join(lines)


def verify_theorems(n_max: int, extension_trials: int = 50, seed: int = 0,
                    dedup: bool = False) -> VerificationSummary:
    """Run every certified check over all alternating trees with at most
    n_max vertices, plus seeded random extension and inclusion pairs.
    As in analyze, each tree takes c and Delta from one Gram polynomial q
    and real stability from the spectra._Roots.of_gram of q; one n x n
    Berkowitz run on C+- = C+ C- is the slow check.  Each tree certifies
    one factorization (C+, C-) as verify_proof_identities does, which
    makes the monodromy C+ (-C+-) C+, so that one run covers it too.

    dedup generates one tree per isomorphism class directly (Wright,
    Richmond, Odlyzko and McKay) instead of walking every labeled tree;
    every check depends only on the isomorphism class, so the verdict is
    unchanged while the tree count drops from Cayley to the unlabeled
    census.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if extension_trials < 0:
        raise ValueError("extension_trials must be nonnegative")

    t0 = time.perf_counter()
    counts: dict[str, list[int]] = {name: [0, 0] for name in _TREE_CHECKS + _PAIR_CHECKS}
    counterexample: str | None = None
    graphs = 0

    def record(name: str, ok: bool, g: MixedSignCoxeterGraph) -> None:
        nonlocal counterexample
        counts[name][0 if ok else 1] += 1
        if not ok and counterexample is None:
            counterexample = f"# failed check: {name}\n{graph_to_text(g)}"

    rng = random.Random(seed)
    for n in range(2, n_max + 1):
        for g in enumerate_alternating_trees(n, dedup=dedup):
            graphs += 1
            c_plus, c_minus = bipartite_factors(g)
            c_bipartite = c_plus @ c_minus
            c, roots = _graph_spectrum(g)
            delta = _alexander_from_coxeter(c)
            # Delta = +-c(-t): every root of c real and negative iff Delta
            # is real stable, so one count serves both checks
            real_stable = roots.all_negative
            record("symmetry", c_bipartite.is_symmetric(), g)
            record("real-negative-spectrum", real_stable, g)
            record("proof-identities", bool(_proof_identities(g, c_plus, c_minus)), g)
            # c = det(tI - C+-) is the claim.  _proof_identities raised unless
            # C+ C+ = I and M^T M = -C- C+, so the monodromy is C+ (-C+-) C+,
            # of characteristic polynomial det(tI + C+-) = (-1)^n c(-t) = Delta
            record("monodromy-charpoly", c_bipartite.charpoly() == c, g)
            record("reciprocality", c.coeffs == tuple(reversed(c.coeffs)), g)
            record("real-stability", real_stable, g)
            record("sign-alternation", sign_alternation_check(delta), g)
            record("trapezoidality", trapezoidal_check(delta)[0], g)
            record("log-concavity", log_concavity_check(delta), g)

        for _ in range(extension_trials):
            base = random_alternating_tree(n, rng)
            ext = random_vertex_extension(base, rng)
            graphs += 2
            # Delta = +-c(-t), so the Coxeter verdict is also the
            # Alexander one (see interlace_check)
            try:
                interlaced = interlace_check(coxeter_polynomial(base),
                                             coxeter_polynomial(ext))
            except ValueError:
                interlaced = False
            record("coxeter-interlacing", interlaced, ext)
            record("alexander-interlacing", interlaced, ext)

            small = random_alternating_tree(n, rng)
            large = random_edge_augmentation(small, rng)
            if large.edge_count == small.edge_count:
                large = random_vertex_extension(small, rng)
            graphs += 2
            record("radius-monotonicity",
                   _radius_leq(_graph_roots(small), _graph_roots(large)),
                   large)

    counters = tuple((name, counts[name][0], counts[name][1])
                     for name in _TREE_CHECKS + _PAIR_CHECKS)
    return VerificationSummary(
        n_max=n_max, extension_trials=extension_trials, seed=seed, dedup=dedup,
        graphs_examined=graphs, counters=counters, counterexample=counterexample,
        wall_time_seconds=time.perf_counter() - t0)


@dataclass(frozen=True)
class MinSearchResult:
    n_max: int
    enclosure: RationalInterval
    graph: MixedSignCoxeterGraph
    trees_examined: int
    trees_pruned: int
    wall_time_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "enclosure": _interval_json(self.enclosure),
            "trees_examined": self.trees_examined,
            "trees_pruned": self.trees_pruned,
            "graph": graph_to_text(self.graph),
        }

    def render_text(self) -> str:
        lines = [
            f"minimum spectral radius over alternating trees with "
            f"2..{self.n_max} vertices",
            f"enclosure: {_fmt_interval(self.enclosure)}",
            f"trees examined: {self.trees_examined} "
            f"(pruned without full enclosure: {self.trees_pruned})",
            "attained by:",
            graph_to_text(self.graph).rstrip("\n"),
        ]
        return "\n".join(lines)


_SPOT_ASSERTS_PER_SIZE = 5


def min_dilatation_search(n_max: int, eps: Fraction = DEFAULT_EPSILON,
                          dedup: bool = False) -> MinSearchResult:
    """Exhaustive minimum of the spectral radius over alternating trees
    with 2..n_max vertices.

    Ties keep the earliest tree in enumeration order.  Each tree gets one
    spectra._Roots.of_gram.  A tree with a root of modulus at least hi, the
    upper end of the best enclosure, cannot beat the best and is pruned
    by its count of roots r >= hi or r < -hi.  A root at exactly -hi is
    missed, which only skips the shortcut: such a tree at best ties, and
    a tie never replaces the best.  Survivors descend on the same chain
    and are compared exactly, so overlapping enclosures never misrank
    candidates.  Along the way a few leaf-removal pairs per size
    spot-check radius monotonicity and raise on any violation.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if eps <= 0:
        raise ValueError("epsilon must be positive")

    t0 = time.perf_counter()
    best: tuple[IntPolynomial, RationalInterval, MixedSignCoxeterGraph] | None = None
    examined = pruned = 0
    for n in range(2, n_max + 1):
        spot_left = _SPOT_ASSERTS_PER_SIZE if n > 2 else 0
        for g in enumerate_alternating_trees(n, dedup=dedup):
            examined += 1
            roots = _graph_roots(g)
            if best is not None and roots.outside(best[1].hi) >= 1:
                pruned += 1
            else:
                folded, iv = roots.radius_cell(eps)
                if best is None or compare_isolated_roots(
                        folded, iv, best[0], best[1]) < 0:
                    best = (folded, iv, g)
            if spot_left > 0:
                spot_left -= 1
                leaf = next(i for i in range(g.n) if len(g.neighbors[i]) == 1)
                sub = remove_vertex(g, leaf)
                if not _radius_leq(_graph_roots(sub), roots):
                    raise CertificationError(
                        "radius monotonicity violated by leaf removal\n"
                        + graph_to_text(g))

    assert best is not None
    return MinSearchResult(
        n_max=n_max, enclosure=best[1], graph=best[2], trees_examined=examined,
        trees_pruned=pruned, wall_time_seconds=time.perf_counter() - t0)
