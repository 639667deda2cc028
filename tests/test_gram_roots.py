"""Counts of a graph's Coxeter roots read on the Sturm chain of sf(q),
the squarefree part of its half-size Gram polynomial (spectra._Roots.of_gram),
against counts on the Sturm chain of m = sf(-t) (spectra._Roots of c)."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from coxlinks import spectra
from coxlinks.analysis import analyze, min_dilatation_search, verify_theorems
from coxlinks.coxeter import _gram_polynomial, coxeter_polynomial
from coxlinks.exact import IntPolynomial, squarefree_part
from coxlinks.fixtures import fixture_graph, fixture_names
from coxlinks.graphs import (MINUS, PLUS, MixedSignCoxeterGraph, enumerate_alternating_trees,
                             parse_graph, random_alternating_tree)
from coxlinks.spectra import _Roots, cauchy_bound

from graph_strategies import connected_random_sign_graphs

F = Fraction

# The all-plus star K(1,4): q = y + 4, so mu = -4 and c = (t+1)^3 (t-1)^2.
STAR_K14 = ("vertex c +\nvertex a +\nvertex b +\nvertex d +\nvertex e +\n"
            "edge c a\nedge c b\nedge c d\nedge c e\n")
# The alternating 4-cycle: n = 2s and q(0) = 0, as on k33.
CYCLE_4 = ("vertex a +\nvertex b -\nvertex c +\nvertex d -\n"
           "edge a b\nedge b c\nedge c d\nedge a d\n")

# Points on all four branches of phi(x) = (x - 1)^2 / x, at its turning
# points -1, 0 and 1, next to them, and on both sides of phi^2, the
# radius of a2.  The only rational roots of m are -1 and 1: x + 1/x =
# mu + 2 is an integer for an integer mu, and that makes x = +-1.
POINTS = sorted({F(k, 4) for k in range(-12, 13)}
                | {s * F(k, 8) for s in (1, -1) for k in (1, 7, 9)}
                | {F(2618033988, 10 ** 9), F(2618033989, 10 ** 9), F(-1, 1 << 30), F(1, 1 << 30),
                   F(1) - F(1, 1 << 30), F(1) + F(1, 1 << 30)})


# graphs for the tests only: fixture names appear in the help text
TEST_GRAPHS = {"star-k14": STAR_K14, "cycle-4": CYCLE_4}


def named_graph(name: str) -> MixedSignCoxeterGraph:
    text = TEST_GRAPHS.get(name)
    return parse_graph(text) if text else fixture_graph(name)


def assert_gram_counts_match(g: MixedSignCoxeterGraph) -> None:
    c = coxeter_polynomial(g)
    ref, fast = _Roots(c), _Roots.of_gram(_gram_polynomial(g), g.n)
    assert fast.poly == ref.poly == squarefree_part(c)
    assert fast.chain.poly == ref.chain.poly
    assert (fast.bound, fast.min_width) == (ref.bound, ref.min_width)
    far = cauchy_bound(ref.poly * ref.chain.poly)  # where the radius descent starts
    points = sorted(POINTS + [ref.bound, -ref.bound, far, -far])
    for lo, hi in combinations(points, 2):
        assert fast.chain.count(lo, hi) == ref.chain.count(lo, hi), (lo, hi)
    for x in points:
        assert fast.chain.is_root(x) == ref.chain.is_root(x) == (ref.chain.poly.eval_sign(x) == 0), x
        assert fast.is_root(x) == (fast.poly.eval_sign(x) == 0), x


def atlas_graphs() -> list[MixedSignCoxeterGraph]:
    """Every connected bipartite graph with 2 to 7 vertices in the atlas of
    networkx, with alternating signs and with all signs plus."""
    nx = pytest.importorskip("networkx")
    graphs = []
    for h in nx.graph_atlas_g():
        if 2 <= h.number_of_nodes() <= 7 and nx.is_connected(h) and nx.is_bipartite(h):
            colour = nx.bipartite.color(h)
            names = tuple(f"v{i}" for i in range(h.number_of_nodes()))
            edges = tuple(sorted((min(e), max(e)) for e in h.edges))
            for signs in (tuple(PLUS if colour[i] else MINUS for i in range(len(names))),
                          (PLUS,) * len(names)):
                graphs.append(MixedSignCoxeterGraph(names, signs, edges))
    return graphs


class TestGramCountsAgainstTheMirrorChain:
    @pytest.mark.parametrize("name", fixture_names() + tuple(TEST_GRAPHS))
    def test_fixtures_and_edge_cases(self, name):
        assert_gram_counts_match(named_graph(name))

    def test_edge_case_polynomials(self):
        plus, minus = IntPolynomial([1, 1]), IntPolynomial([-1, 1])
        assert coxeter_polynomial(named_graph("star-k14")) == plus * plus * plus * minus * minus
        assert _gram_polynomial(named_graph("star-k14")) == IntPolynomial([4, 1])
        for name in ("cycle-4", "k33"):
            g = named_graph(name)
            q = _gram_polynomial(g)
            assert 2 * q.degree == g.n and q.coeffs[0] == 0
        q = _gram_polynomial(named_graph("e10-classical"))  # Lehmer's: mu = -4.026...
        assert spectra._SturmChain(squarefree_part(q)).count(-cauchy_bound(q), F(-4)) == 1

    def test_every_tree_class_up_to_ten_vertices(self):
        trees = [g for n in range(2, 11) for g in enumerate_alternating_trees(n, dedup=True)]
        assert len(trees) == 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106
        for g in trees:
            assert_gram_counts_match(g)

    def test_connected_bipartite_atlas_graphs(self):
        graphs = atlas_graphs()
        assert len(graphs) == 2 * 71
        for g in graphs:
            assert_gram_counts_match(g)

    @given(connected_random_sign_graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_sign_graphs(self, g):
        assert_gram_counts_match(g)


class TestOneReadingPerPoint:
    def test_dyadic_root_at_a_midpoint(self):
        sf = IntPolynomial([-1, 2]) * IntPolynomial([3, 1])  # (2t - 1)(t + 3)
        chain = spectra._SturmChain(sf)
        for x in (F(-4), F(-3), F(0), F(1, 2), F(1, 2) + F(1, 1 << 40), F(5)):
            assert chain.is_root(x) == (sf.eval_sign(x) == 0), x
        # the first midpoint of (-4, 5] is the root 1/2, found on the
        # readings the counts make
        assert spectra._top_cell(chain, F(-4), F(5)) == spectra.RationalInterval(F(1, 2), F(1, 2))
        assert chain.count(F(-4), F(1, 2)) == 2 and chain.count(F(1, 2), F(5)) == 0

    def test_descents_evaluate_nothing_above_the_gram_degree(self, monkeypatch):
        g = random_alternating_tree(40, random.Random(3))
        q = _gram_polynomial(g)
        d, s = squarefree_part(q).degree, q.degree
        roots = _Roots.of_gram(q, g.n)
        assert (s, d, roots.poly.degree) == (19, 18, 35)
        degrees = []
        real_eval_sign = IntPolynomial.eval_sign

        def counting(p, x):
            degrees.append(p.degree)
            return real_eval_sign(p, x)

        monkeypatch.setattr(IntPolynomial, "eval_sign", counting)
        assert spectra._top_cell(roots, -roots.bound, roots.bound) is not None
        far = cauchy_bound(roots.poly * roots.chain.poly)
        assert spectra._top_cell(roots.chain, F(0), far) is not None
        assert degrees and max(degrees) <= d


def spy_on_degrees(monkeypatch) -> list[int]:
    """Degrees of every squarefree part taken and every Sturm chain built
    in spectra from now on."""
    degrees = []
    real_part = spectra.squarefree_part

    def counting(p):
        degrees.append(p.degree)
        return real_part(p)

    class SpyChain(spectra._SturmChain):
        def __init__(self, sf):
            degrees.append(sf.degree)
            super().__init__(sf)

    monkeypatch.setattr(spectra, "squarefree_part", counting)
    monkeypatch.setattr(spectra, "_SturmChain", SpyChain)
    return degrees


class TestNothingAboveTheGramDegree:
    """analyze, min-search and verify's tree battery take no squarefree
    part and build no Sturm chain of degree above s, the degree of q."""

    @pytest.mark.parametrize("name", fixture_names() + tuple(TEST_GRAPHS))
    def test_analyze(self, monkeypatch, name):
        g = named_graph(name)
        s = _gram_polynomial(g).degree
        degrees = spy_on_degrees(monkeypatch)
        analyze(g)
        assert degrees and max(degrees) <= s

    @pytest.mark.parametrize("n_max,dedup", [(5, False), (8, True)])
    def test_min_search(self, monkeypatch, n_max, dedup):
        degrees = spy_on_degrees(monkeypatch)
        min_dilatation_search(n_max, dedup=dedup)
        assert degrees and max(degrees) <= n_max // 2

    @pytest.mark.parametrize("n_max,dedup", [(5, False), (8, True)])
    def test_verify_tree_battery(self, monkeypatch, n_max, dedup):
        degrees = spy_on_degrees(monkeypatch)
        assert verify_theorems(n_max, extension_trials=0, dedup=dedup).ok
        assert degrees and max(degrees) <= n_max // 2
