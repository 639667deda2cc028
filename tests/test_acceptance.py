"""Acceptance gate.

One test per shipped guarantee, so `pytest -v` prints one pass/fail line
for each:

1. exact reproduction of the 5-vertex worked example (matrices and both
   characteristic polynomials), under one second;
2. the minimum spectral radius over alternating trees with 2..8 vertices
   is the square of the golden ratio, attained by the 2-vertex tree,
   certified by an enclosure of width <= 1e-9, under five minutes;
3. the all-plus (2,3,7) star-like tree has max real Coxeter root within
   1e-6 of Lehmer's number, under one second;
4. the 5-path and K(3,3) adjacency spectra are exactly
   {-sqrt 3, -1, 0, 1, sqrt 3} and {-3, 0, 0, 0, 0, 3} and do not
   interlace;
5. the full theorem sweep through 8 vertices reports zero
   counterexamples across all twelve certified checks;
6. every CLI command is byte-identical across repeated runs.
"""

import time
from fractions import Fraction

import pytest

from coxlinks import (
    DEFAULT_EPSILON,
    IntMatrix,
    IntPolynomial,
    adjacency_matrix,
    alexander_polynomial,
    bipartite_factors,
    coxeter_polynomial,
    coxeter_transformation,
    fixture_graph,
    interlace_check,
    max_real_root,
    min_dilatation_search,
    poly_divexact,
    verify_theorems,
)
from coxlinks.cli import main

from matrix_oracles import berkowitz
from root_oracles import isolate_real_roots


def P(*coeffs):
    return IntPolynomial(coeffs)


def contains_golden_ratio_squared(lo: Fraction, hi: Fraction) -> bool:
    # (3 + sqrt 5)/2 lies in [lo, hi] iff (2*lo - 3)^2 <= 5 <= (2*hi - 3)^2,
    # valid because both endpoints sit well above 3/2
    assert lo > Fraction(3, 2)
    return (2 * lo - 3) ** 2 <= 5 <= (2 * hi - 3) ** 2


def test_1_five_vertex_example_reproduced_exactly():
    started = time.perf_counter()
    g = fixture_graph("paper-5")
    c_plus, c_minus = bipartite_factors(g)
    c_bipartite = coxeter_transformation(g)
    c = coxeter_polynomial(g)
    delta = alexander_polynomial(g)
    elapsed = time.perf_counter() - started

    assert c_plus == IntMatrix([
        [-1, 0, 0, 1, 1],
        [0, -1, 0, 1, 1],
        [0, 0, -1, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ])
    assert c_minus == IntMatrix([
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [-1, -1, 0, -1, 0],
        [-1, -1, -1, 0, -1],
    ])
    assert c_bipartite == IntMatrix([
        [-3, -2, -1, -1, -1],
        [-2, -3, -1, -1, -1],
        [-1, -1, -2, 0, -1],
        [-1, -1, 0, -1, 0],
        [-1, -1, -1, 0, -1],
    ])
    assert c == P(1, 10, 27, 27, 10, 1)
    assert delta == P(-1, 10, -27, 27, -10, 1)
    assert elapsed < 1.0


def test_2_minimum_radius_is_golden_ratio_squared_through_eight_vertices():
    started = time.perf_counter()
    result = min_dilatation_search(8, dedup=True)
    elapsed = time.perf_counter() - started

    lo, hi = result.enclosure.lo, result.enclosure.hi
    assert hi - lo <= Fraction(1, 10**9)
    assert contains_golden_ratio_squared(lo, hi)
    assert lo <= Fraction("2.6180339887") <= hi
    assert result.graph.n == 2
    assert result.graph.edge_count == 1
    assert elapsed < 300.0


def test_3_all_plus_star_tree_max_root_near_lehmer_number():
    started = time.perf_counter()
    g = fixture_graph("e10-classical")
    root = max_real_root(coxeter_polynomial(g), DEFAULT_EPSILON)
    elapsed = time.perf_counter() - started

    target = Fraction("1.176281")
    tolerance = Fraction(1, 10**6)
    assert target - tolerance <= root.lo
    assert root.hi <= target + tolerance
    assert elapsed < 1.0


def test_4_path_and_k33_adjacency_spectra_exact_and_non_interlacing():
    t = P(0, 1)
    p5 = berkowitz(adjacency_matrix(fixture_graph("p5")))
    k33 = berkowitz(adjacency_matrix(fixture_graph("k33")))

    assert p5 == P(0, 3, 0, -4, 0, 1)
    assert k33 == P(0, 0, 0, 0, -9, 0, 1)
    # spectra {-sqrt 3, -1, 0, 1, sqrt 3} and {-3, 0 (x4), 3} exactly
    assert poly_divexact(p5, t * (t * t - P(1))) == t * t - P(3)
    assert poly_divexact(k33, t * t * t * t) == t * t - P(9)

    assert [m for _, m in isolate_real_roots(p5, DEFAULT_EPSILON).roots] == [1] * 5
    assert [m for _, m in isolate_real_roots(k33, DEFAULT_EPSILON).roots] == [1, 4, 1]
    assert interlace_check(p5, k33) is False


def test_5_theorem_sweep_through_eight_vertices_no_counterexamples():
    summary = verify_theorems(8, extension_trials=50, seed=1, dedup=True)

    assert summary.ok
    assert summary.counterexample is None
    counters = dict((name, (passed, failed))
                    for name, passed, failed in summary.counters)
    # 47 = number of alternating trees with 2..8 vertices up to isomorphism
    per_tree = 47
    per_pair = 7 * 50
    tree_checks = (
        "symmetry", "real-negative-spectrum", "proof-identities",
        "monodromy-charpoly", "reciprocality", "real-stability",
        "sign-alternation", "trapezoidality", "log-concavity",
    )
    pair_checks = (
        "coxeter-interlacing", "alexander-interlacing", "radius-monotonicity",
    )
    assert set(counters) == set(tree_checks) | set(pair_checks)
    for name in tree_checks:
        assert counters[name] == (per_tree, 0), name
    for name in pair_checks:
        assert counters[name] == (per_pair, 0), name


@pytest.mark.parametrize("argv", [
    ("analyze", "paper-5"),
    ("analyze", "paper-5", "--json"),
    ("analyze", "e10-classical", "--classical"),
    ("compare", "a2", "p3-alt"),
    ("compare", "p5", "k33", "--json"),
    ("verify", "--nmax", "5", "--trials", "10", "--seed", "3"),
    ("verify", "--nmax", "5", "--trials", "10", "--seed", "3", "--json"),
    ("min-search", "--nmax", "5"),
    ("min-search", "--nmax", "5", "--dedup", "--json"),
    ("example", "paper-5"),
], ids=lambda argv: " ".join(argv))
def test_6_every_command_is_deterministic(capsys, argv):
    first_code = main(list(argv))
    first = capsys.readouterr().out
    second_code = main(list(argv))
    second = capsys.readouterr().out
    assert first_code == second_code == 0
    assert first == second
