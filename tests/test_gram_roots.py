"""Counts of a graph's Coxeter roots read on the Sturm chain of sf(q),
the squarefree part of its half-size Gram polynomial (spectra._Roots.of_gram),
against counts on the Sturm chain of m = sf(-t) (spectra._Roots of c); and
the two pair checks, interlacing and radius order, decided on q against
the same checks on c."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlinks import analysis, spectra
from coxlinks.analysis import analyze, min_dilatation_search, verify_theorems
from coxlinks.coxeter import _gram_polynomial, coxeter_polynomial, gram_interlacing_pair
from coxlinks.exact import IntPolynomial, squarefree_part
from coxlinks.fixtures import fixture_graph, fixture_names
from coxlinks.graphs import (MINUS, PLUS, MixedSignCoxeterGraph, add_edge,
                             enumerate_alternating_trees, is_vertex_extension, parse_graph,
                             random_alternating_tree, vertex_extension)
from coxlinks.spectra import (_Roots, cauchy_bound, compare_isolated_roots, interlace_check,
                              mu_max_cell)

from graph_strategies import connected_alternating_graphs, connected_random_sign_graphs
from root_oracles import (HornerChain, gram_sequence_heads, isolate_real_roots, point, sign,
                          spy_on_remainder_sequences)

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
    assert (fast.bound, fast.depth) == (ref.bound, ref.depth)
    far = cauchy_bound(ref.poly * ref.chain.poly)  # where the radius descent starts
    points = sorted(POINTS + [ref.bound, -ref.bound, far, -far])
    for lo, hi in combinations(points, 2):
        assert fast.chain.count(point(lo), point(hi)) == ref.chain.count(point(lo), point(hi)), (lo, hi)
    for x in points:
        assert fast.chain.is_root(point(x)) == ref.chain.is_root(point(x)) == \
            (sign(ref.chain.poly, x) == 0), x
        assert fast.is_root(point(x)) == (sign(fast.poly, x) == 0), x
    assert_descent_readings_match_horner(ref, fast, points)


def assert_descent_readings_match_horner(ref: _Roots, fast: _Roots, points) -> None:
    """Both descents run on the Gram chain; then every point that m's
    chain or r's chain read, all in lowest terms, gives the entries that
    Horner's rule gives."""
    fast.max_root_cell(spectra.DEFAULT_EPSILON)
    if fast.real_rooted:
        fast.radius_cell(spectra.DEFAULT_EPSILON)
    for chain, keys in ((ref.chain, {point(x) for x in points}),
                        (fast.chain.gram, set(fast.chain.gram._memo))):
        assert all(b > 0 and gcd(a, b) == 1 for a, b in keys | set(fast.chain._places))
        oracle = HornerChain(chain.poly)
        for a, b in keys:
            assert chain.values((a, b)) == oracle.values(F(a, b)), (a, b)


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
        assert spectra._SturmChain(squarefree_part(q)).count(point(-cauchy_bound(q)), (-4, 1)) == 1

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


def poly_from_factors(*factors) -> IntPolynomial:
    out = IntPolynomial([1])
    for f in factors:
        out = out * IntPolynomial(f)
    return out


class TestStabilityOnTheGramChain:
    """_Roots.stable_of(q) and _Roots.stable, two readings on the chain of
    sf(q), against _Roots.all_negative, the count on the chain of c's
    squarefree part."""

    @staticmethod
    def assert_readings_agree(q: IntPolynomial, n: int) -> bool:
        roots = _Roots.of_gram(q, n)
        assert _Roots.stable_of(q) == roots.stable == roots.all_negative, (q, n)
        return roots.all_negative

    def test_every_tree_class_up_to_eleven_vertices(self):
        # G = B B^T is positive semidefinite on a tree: all True
        trees = [g for n in range(2, 12) for g in enumerate_alternating_trees(n, dedup=True)]
        assert len(trees) == 435
        for g in trees:
            assert self.assert_readings_agree(_gram_polynomial(g), g.n)

    def test_signed_graphs(self):
        # other signs make G indefinite, with roots of q below 0 as well
        trees = [g for n in range(2, 7) for g in enumerate_alternating_trees(n, dedup=True)]
        graphs = [MixedSignCoxeterGraph(g.names, signs, g.edges) for g in trees
                  for signs in ((PLUS,) * g.n, tuple(PLUS if i % 3 else MINUS for i in range(g.n)))]
        graphs += atlas_graphs() + [named_graph(name) for name in fixture_names() + tuple(TEST_GRAPHS)]
        verdicts = [self.assert_readings_agree(_gram_polynomial(g), g.n) for g in graphs]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("factors,stable", [
        ([(0, 1)], True),                      # mu = 0
        ([(0, 1), (-2, 1)], True),
        ([(0, 1), (0, 1), (-5, 1)], True),     # a double root at 0
        ([(-1, 1), (-1, 1), (-3, 1)], True),
        ([(-1, 3)], True),                     # mu = 1/3 in (0, 1)
        ([(1, -5, 1)], True),                  # two irrational mu > 0
        ([(4, 1)], False),                     # mu = -4: c has +1
        ([(4, 1), (-1, 1)], False),
        ([(1, 1)], False),                     # mu in (-4, 0)
        ([(1, 2)], False),                     # mu = -1/2 in (-1, 0)
        ([(0, 1), (3, 1)], False),
        ([(6, 1)], False),                     # mu < -4: positive roots
        ([(-2, 0, 1)], False),                 # mu = +-sqrt 2
        ([(1, 0, 1)], False),                  # mu = +-i
        ([(5, -2, 1), (-1, 1)], False),        # mu = 1 +- 2i
    ], ids=["zero", "zero-two", "double-zero", "double-one", "third", "irrational", "minus-four",
            "minus-four-one", "minus-one", "minus-half", "zero-minus-three", "minus-six",
            "plus-minus-root-two", "plus-minus-i", "complex-pair"])
    def test_constructed_gram_polynomials(self, factors, stable):
        q = poly_from_factors(*factors)
        assert _Roots.stable_of(q) is stable
        for n in (2 * q.degree, 2 * q.degree + 1):
            assert self.assert_readings_agree(q, n) is stable

    def test_seeded_polynomials(self):
        # products of y - mu over mu in a fixed set, some shifted by a
        # constant and some with the complex pair 1 +- i
        rng = random.Random(32)
        seen = set()
        for _ in range(600):
            mus = [rng.choice((-6, -4, -3, -1, 0, 1, 2, 3, 5)) for _ in range(rng.randint(1, 5))]
            q = poly_from_factors(*[(-mu, 1) for mu in mus])
            kind = rng.choice(("roots", "roots", "shifted", "complex"))
            if kind == "shifted":
                q = q + IntPolynomial([rng.choice((-3, -2, -1, 1, 2, 3))])
            elif kind == "complex":
                q = q * IntPolynomial([2, -2, 1])
            verdict = self.assert_readings_agree(q, 2 * q.degree + rng.randint(0, 2))
            if kind != "shifted":
                assert verdict is (kind == "roots" and min(mus) >= 0), mus
            seen.add((kind, verdict))
        assert {("roots", True), ("roots", False), ("shifted", True), ("shifted", False)} <= seen


class TestOneReadingPerPoint:
    def test_dyadic_root_at_a_midpoint(self):
        sf = IntPolynomial([-1, 2]) * IntPolynomial([3, 1])  # (2t - 1)(t + 3)
        chain = spectra._SturmChain(sf)
        for x in (F(-4), F(-3), F(0), F(1, 2), F(1, 2) + F(1, 1 << 40), F(5)):
            assert chain.is_root(point(x)) == (sign(sf, x) == 0), x
        # the first midpoint of (-4, 5] is the root 1/2, found on the
        # readings the counts make
        a, b, d = spectra._top_cell(chain, -4, 5, 1)
        assert F(a, d) == F(b, d) == F(1, 2)
        assert chain.count((-4, 1), (1, 2)) == 2 and chain.count((1, 2), (5, 1)) == 0

    def test_descents_evaluate_nothing_above_the_gram_degree(self, monkeypatch):
        g = random_alternating_tree(40, random.Random(3))
        q = _gram_polynomial(g)
        d, s = squarefree_part(q).degree, q.degree
        roots = _Roots.of_gram(q, g.n)
        assert (s, d, roots.poly.degree) == (19, 18, 35)
        degrees = []
        real_values = spectra._SturmChain.values

        def counting(chain, x):
            degrees.append(chain.poly.degree)
            return real_values(chain, x)

        monkeypatch.setattr(spectra._SturmChain, "values", counting)
        bound = roots.bound
        assert spectra._top_cell(roots, -bound.numerator, bound.numerator, bound.denominator) is not None
        far = cauchy_bound(roots.poly * roots.chain.poly)
        assert spectra._top_cell(roots.chain, 0, far.numerator, far.denominator) is not None
        assert degrees and max(degrees) <= d


def assert_fused_chain_matches(q: IntPolynomial) -> None:
    """_SturmChain(q) against the chain of squarefree_part(q)."""
    fused, ref = spectra._SturmChain(q), spectra._SturmChain(squarefree_part(q))
    assert (fused.poly, fused.head, fused.steps, fused.depth) == (ref.poly, ref.head, ref.steps, ref.depth), q


Y = IntPolynomial([0, 1])


def linear(root: int) -> IntPolynomial:
    return IntPolynomial([-root, 1])


class TestSquarefreeChainFromOneSequence:
    """_SturmChain(q) builds the chain of sf(q) from the remainder sequence
    of q.primitive() and its derivative, and runs a second sequence only
    when q is not squarefree."""

    def test_every_tree_class_up_to_ten_vertices(self):
        qs = [_gram_polynomial(g) for n in range(2, 11) for g in enumerate_alternating_trees(n, dedup=True)]
        for q in qs:
            assert_fused_chain_matches(q)
        # both routes: 24 of the 200 Gram polynomials are not squarefree
        assert len(qs) == 200 and sum(squarefree_part(q) != q.primitive() for q in qs) == 24

    @given(connected_random_sign_graphs())
    @settings(max_examples=100, deadline=None)
    def test_random_sign_graphs(self, g):
        assert_fused_chain_matches(_gram_polynomial(g))

    def test_synthetic_polynomials(self, monkeypatch):
        cube = linear(1) * linear(1) * linear(1)
        # (y - 1)^3: the sequence stops at q' = 3 (y - 1)^2, whose content 3
        # the division must drop, and a second sequence builds the chain
        heads = spy_on_remainder_sequences(monkeypatch)
        chain = spectra._SturmChain(cube)
        assert heads == [cube, linear(1)] and chain.poly == linear(1) and chain.steps == []
        paper5 = _gram_polynomial(named_graph("paper-5"))
        for q in (cube, Y * Y * linear(2), 6 * paper5, -6 * paper5, 6 * cube * linear(-4),
                  IntPolynomial([5]), IntPolynomial([-3]), 2 * Y, linear(7) * linear(7)):
            expected = gram_sequence_heads(q)
            del heads[:]
            spectra._SturmChain(q)
            assert heads == expected, q
            assert_fused_chain_matches(q)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            spectra._SturmChain(IntPolynomial())

    def test_mu_max_cell_on_a_non_primitive_q(self):
        # 6 y (y - 2)^2 (y - 5): content 6, a double root and a root at 0
        for q in (6 * Y * linear(2) * linear(2) * linear(5), -6 * Y * linear(2) * linear(2) * linear(5)):
            f, cell = mu_max_cell(q)
            # the cell holds the full isolation's largest root and meets no other
            roots = [iv for iv, _ in isolate_real_roots(q).roots]
            assert cell.lo <= roots[-1].lo and roots[-1].hi <= cell.hi
            assert all(iv.hi < cell.lo or cell.hi < iv.lo for iv in roots[:-1])
            assert f == linear(2) * linear(5) and cell.contains(F(5))

    @pytest.mark.parametrize("q", [IntPolynomial(), Y * Y, linear(-1) * linear(-2) * linear(-2),
                                   IntPolynomial([7])], ids=["zero", "y^2", "negative-roots", "constant"])
    def test_mu_max_cell_without_a_positive_root_raises(self, q):
        with pytest.raises(ValueError):
            mu_max_cell(q)


def spy_on_degrees(monkeypatch) -> list[int]:
    """Degrees of the polynomials that every Sturm chain built in spectra
    from now on takes its squarefree part of."""
    degrees = []

    class SpyChain(spectra._SturmChain):
        def __init__(self, p):
            degrees.append(p.degree)
            super().__init__(p)

    monkeypatch.setattr(spectra, "_SturmChain", SpyChain)
    return degrees


class TestNothingAboveTheGramDegree:
    """analyze, min-search and verify's tree battery take no squarefree
    part and build no Sturm chain of degree above s, the degree of q, and
    verify's pair checks none above s + 1."""

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

    def test_verify_pair_checks(self, monkeypatch):
        # the pairs have up to 9 vertices, so q has degree 4 at most: the
        # interlacing check takes y h, of degree 5 at most, and the radius
        # order compares roots of sf(q)
        degrees = spy_on_degrees(monkeypatch)
        for name in ("interlace_check", "compare_isolated_roots"):
            def spy(*args, real=getattr(analysis, name)):
                degrees.extend(a.degree for a in args if isinstance(a, IntPolynomial))
                return real(*args)

            monkeypatch.setattr(analysis, name, spy)
        assert verify_theorems(8, extension_trials=20, dedup=True).ok
        assert degrees and max(degrees) <= 5


def positive_roots(q: IntPolynomial) -> int:
    """The degree of q with its roots at 0 divided out."""
    return q.degree - next(k for k, c in enumerate(q.coeffs) if c)


class PairRoutes:
    """Both pair checks on one set of graphs, each polynomial, cell and
    chain taken once per graph: the Gram routes of compare, verify and
    min-search, and the routes on c that they replaced."""

    def __init__(self):
        self.memo: dict[MixedSignCoxeterGraph, tuple] = {}

    def of(self, g: MixedSignCoxeterGraph) -> tuple:
        got = self.memo.get(g)
        if got is None:
            c = coxeter_polynomial(g)
            got = self.memo[g] = c, _Roots(c).radius_cell(F(1, 1 << 10)), mu_max_cell(_gram_polynomial(g))
        return got

    def interlacing(self, small: MixedSignCoxeterGraph, large: MixedSignCoxeterGraph) -> bool:
        pair = gram_interlacing_pair(small, large)
        return pair is not None and interlace_check(*pair)

    def interlacing_on_c(self, small: MixedSignCoxeterGraph, large: MixedSignCoxeterGraph) -> bool:
        return interlace_check(self.of(small)[0], self.of(large)[0])

    def radius_order(self, a: MixedSignCoxeterGraph, b: MixedSignCoxeterGraph) -> int:
        return compare_isolated_roots(*self.of(a)[2], *self.of(b)[2])

    def radius_order_on_c(self, a: MixedSignCoxeterGraph, b: MixedSignCoxeterGraph) -> int:
        return compare_isolated_roots(*self.of(a)[1], *self.of(b)[1])

    def assert_routes_agree(self, small: MixedSignCoxeterGraph, large: MixedSignCoxeterGraph) -> tuple[bool, int]:
        """The interlacing verdict and radius order of (small, large), after
        checking each against its route on c, the order in both orders."""
        verdict = self.interlacing(small, large)
        assert verdict == self.interlacing_on_c(small, large), (small, large)
        order = self.radius_order(small, large)
        assert order == self.radius_order_on_c(small, large), (small, large)
        assert self.radius_order(large, small) == self.radius_order_on_c(large, small) == -order
        return verdict, order


@st.composite
def alternating_pairs_with_cycles(draw):
    """(small, large) with n and n + 1 vertices: small an alternating graph
    with up to four edges past a tree, large a vertex extension of it,
    and in half the draws with one more opposite-sign edge among the old
    vertices, which makes it no extension."""
    small = draw(connected_alternating_graphs())
    sign = draw(st.sampled_from((PLUS, MINUS)))
    others = [v for v in range(small.n) if small.signs[v] != sign]
    large = vertex_extension(small, sign, draw(st.lists(st.sampled_from(others), min_size=1,
                                                        max_size=3, unique=True)))
    non_edges = [(i, j) for i in range(small.n) for j in range(i + 1, small.n)
                 if small.signs[i] != small.signs[j] and not small.has_edge(i, j)]
    if non_edges and draw(st.booleans()):
        large = add_edge(large, *draw(st.sampled_from(non_edges)))
    return small, large


class TestPairChecksOnTheGramPolynomials:
    """gram_interlacing_pair with one interlace_check, and mu_max_cell with
    one compare_isolated_roots, against interlace_check on the Coxeter
    polynomials and the comparison of their radius_cell enclosures."""

    def test_every_pair_of_tree_classes_up_to_nine_vertices(self):
        routes, verdicts, orders, gaps = PairRoutes(), set(), set(), set()
        classes = {n: list(enumerate_alternating_trees(n, dedup=True)) for n in range(2, 10)}
        for n in range(2, 9):
            for small in classes[n]:
                for large in classes[n + 1]:
                    verdict, order = routes.assert_routes_agree(small, large)
                    verdicts.add((verdict, is_vertex_extension(small, large)))
                    orders.add(order)
                    p, p_large = (positive_roots(_gram_polynomial(g)) for g in (small, large))
                    gaps.add(p_large - p)
        assert sum(len(classes[n]) * len(classes[n + 1]) for n in range(2, 9)) == 1427
        # both verdicts, ties of radius, and nonzero Gram degrees p and p'
        # with p' - p outside 0 and 1, which decide "no" unchecked
        assert {(True, False), (False, False)} <= verdicts and orders == {-1, 0, 1}
        assert {-1, 0, 1, 2} <= gaps

    def test_same_size_radius_ties_and_orders(self):
        routes = PairRoutes()
        trees = list(enumerate_alternating_trees(8, dedup=True))
        orders = [routes.radius_order(a, b) for a, b in combinations(trees, 2)]
        assert orders == [routes.radius_order_on_c(a, b) for a, b in combinations(trees, 2)]
        assert set(orders) == {-1, 0, 1}

    @given(alternating_pairs_with_cycles())
    @settings(max_examples=150, deadline=None)
    def test_alternating_graphs_with_cycles(self, pair):
        PairRoutes().assert_routes_agree(*pair)

    def test_zero_roots_and_full_matching(self):
        # k33: q = y^2 (y - 9), so p' = 1 after the zero roots go; cycle-4
        # q = y (y - 4); the pairs reach both degree cases and a root at 0
        routes = PairRoutes()
        for small, large in (("p5", "k33"), ("cycle-4", "p5"), ("a2", "p3-alt"),
                             ("p3-alt", "cycle-4"), ("cycle-4", "paper-5")):
            routes.assert_routes_agree(named_graph(small), named_graph(large))
