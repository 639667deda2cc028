"""Reflections, Coxeter transformations, Seifert data, proof identities."""

import itertools
import random

import pytest
from hypothesis import given, settings

from coxlinks import coxeter
from coxlinks.coxeter import (
    CertificationError,
    IdentityMismatch,
    _gram_polynomial,
    _tree_charpoly,
    alexander_polynomial,
    bipartite_factors,
    correspondence_check,
    coxeter_polynomial,
    coxeter_transformation,
    homological_monodromy,
    reflection,
    seifert_matrix,
    verify_proof_identities,
)
from coxlinks.exact import IntMatrix, IntPolynomial
from coxlinks.fixtures import fixture_graph, fixture_names
from coxlinks.graphs import (
    MINUS,
    PLUS,
    MixedSignCoxeterGraph,
    NotAlternatingError,
    NotBipartiteError,
    adjacency_matrix,
    enumerate_alternating_trees,
    parse_graph,
    random_alternating_tree,
    random_edge_augmentation,
    random_vertex_extension,
    sign_bipartition,
    two_coloring,
)

from graph_strategies import connected_alternating_graphs, connected_random_sign_graphs
from matrix_oracles import inverse_unimodular

# printed matrices for the 5-vertex fixture, vertex order p1 p2 p3 n1 n2
C_PLUS_5 = IntMatrix([
    [-1, 0, 0, 1, 1],
    [0, -1, 0, 1, 1],
    [0, 0, -1, 0, 1],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
])
C_MINUS_5 = IntMatrix([
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [-1, -1, 0, -1, 0],
    [-1, -1, -1, 0, -1],
])
C_BIPARTITE_5 = -1 * IntMatrix([
    [3, 2, 1, 1, 1],
    [2, 3, 1, 1, 1],
    [1, 1, 2, 0, 1],
    [1, 1, 0, 1, 0],
    [1, 1, 1, 0, 1],
])

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)

ALTERNATING_FIXTURES = ("a2", "p3-alt", "paper-5", "p5", "k33")


def seeded_graphs_with_cycles(count: int = 60, seed: int = 2015):
    """Alternating graphs with at least one cycle and 3 <= n <= 17: random
    trees with random opposite-sign edges added, half of them then
    extended by a vertex."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_edge_augmentation(random_alternating_tree(rng.randint(3, 16), rng), rng)
        if rng.random() < 0.5:
            g = random_vertex_extension(g, rng)
        if g.edge_count >= g.n:
            out.append(g)
    return out


class TestBilinearAndReflections:
    def test_reflection_rows(self):
        g = fixture_graph("a2")
        assert reflection(g, 0).rows == ((-1, 1), (0, 1))   # sign +
        assert reflection(g, 1).rows == ((1, 0), (-1, -1))  # sign -

    def test_reflections_are_involutions(self):
        for name in ("a2", "p3-alt", "paper-5", "k33", "e10-classical"):
            g = fixture_graph(name)
            for i in range(g.n):
                r = reflection(g, i)
                assert r @ r == IntMatrix.identity(g.n)


class TestBipartiteFactors:
    def test_five_vertex_factor_matrices_exact(self):
        g = fixture_graph("paper-5")
        c_plus, c_minus = bipartite_factors(g)
        assert c_plus == C_PLUS_5
        assert c_minus == C_MINUS_5
        assert c_plus @ c_minus == C_BIPARTITE_5

    def test_factors_equal_reflection_products_in_any_order(self):
        g = fixture_graph("paper-5")
        bip = sign_bipartition(g)
        c_plus, c_minus = bipartite_factors(g)
        for part, expect in ((bip.part_plus, c_plus), (bip.part_minus, c_minus)):
            for order in itertools.permutations(sorted(part)):
                prod = IntMatrix.identity(g.n)
                for i in order:
                    prod = prod @ reflection(g, i)
                assert prod == expect

    def test_factors_are_involutions(self):
        for name in ("a2", "p3-alt", "paper-5", "k33"):
            g = fixture_graph(name)
            c_plus, c_minus = bipartite_factors(g)
            ident = IntMatrix.identity(g.n)
            assert c_plus @ c_plus == ident
            assert c_minus @ c_minus == ident

    def test_transformation_symmetric_for_alternating(self):
        for name in ("a2", "p3-alt", "paper-5", "p5", "k33"):
            assert coxeter_transformation(fixture_graph(name)).is_symmetric()


class TestPolynomials:
    def test_five_vertex_coxeter_polynomial(self):
        assert coxeter_polynomial(fixture_graph("paper-5")).coeffs == \
            (1, 10, 27, 27, 10, 1)

    def test_five_vertex_alexander_polynomial(self):
        assert alexander_polynomial(fixture_graph("paper-5")).coeffs == \
            (-1, 10, -27, 27, -10, 1)

    def test_small_fixtures(self):
        assert coxeter_polynomial(fixture_graph("a2")).coeffs == (1, 3, 1)
        assert alexander_polynomial(fixture_graph("a2")).coeffs == (1, -3, 1)
        assert coxeter_polynomial(fixture_graph("p3-alt")).coeffs == (1, 5, 5, 1)

    def test_polynomial_independent_of_vertex_order(self):
        g = fixture_graph("paper-5")
        reordered = parse_graph(
            "vertex n2 -\nvertex p3 +\nvertex n1 -\nvertex p1 +\nvertex p2 +\n"
            "edge p1 n1\nedge p1 n2\nedge p2 n1\nedge p2 n2\nedge p3 n2\n")
        assert coxeter_polynomial(reordered) == coxeter_polynomial(g)

    def test_polynomial_invariant_under_global_sign_flip(self):
        g = fixture_graph("p3-alt")
        flipped = parse_graph("vertex a -\nvertex b +\nvertex c -\nedge a b\nedge b c\n")
        assert coxeter_polynomial(flipped) == coxeter_polynomial(g)

    def test_lehmer_polynomial_from_classical_e10(self):
        c = coxeter_polynomial(fixture_graph("e10-classical"))
        assert c.coeffs == LEHMER

    def test_classical_a2(self):
        g = parse_graph("vertex a +\nvertex b +\nedge a b\n")
        assert coxeter_polynomial(g).coeffs == (1, 1, 1)


class TestSeifertData:
    def test_seifert_matrix_is_minus_c_plus(self):
        g = fixture_graph("paper-5")
        assert seifert_matrix(g) == -1 * C_PLUS_5

    def test_c_minus_is_minus_inverse_transpose_of_c_plus(self):
        for name in ("a2", "p3-alt", "paper-5", "k33"):
            g = fixture_graph(name)
            c_plus, c_minus = bipartite_factors(g)
            assert c_minus == -1 * inverse_unimodular(c_plus.transpose())

    def test_transformation_factors_through_seifert_matrix(self):
        for name in ("a2", "paper-5", "k33"):
            g = fixture_graph(name)
            m = seifert_matrix(g)
            c = coxeter_transformation(g)
            assert -1 * (m @ inverse_unimodular(m.transpose())) == c

    def test_monodromy_charpoly_is_alexander_polynomial(self):
        for name in ("a2", "p3-alt", "paper-5", "p5", "k33"):
            g = fixture_graph(name)
            assert homological_monodromy(g).charpoly() == alexander_polynomial(g)

    def test_monodromy_agrees_with_gauss_jordan_inverse(self):
        # the monodromy is M^T M because C+ is an involution; check it
        # against (M^T)^-1 M with the inverse taken by Gauss-Jordan
        graphs = [fixture_graph(name) for name in ("a2", "p3-alt", "paper-5", "p5", "k33")]
        graphs += [g for n in range(2, 7) for g in enumerate_alternating_trees(n)]
        graphs += list(enumerate_alternating_trees(7, dedup=True))
        for g in graphs:
            m = seifert_matrix(g)
            assert homological_monodromy(g) == inverse_unimodular(m.transpose()) @ m

    def test_monodromy_refuses_a_non_involution(self, monkeypatch):
        g = fixture_graph("a2")
        monkeypatch.setattr(coxeter, "seifert_matrix", lambda _: IntMatrix([[1, 1], [0, 1]]))
        with pytest.raises(RuntimeError, match="involution"):
            homological_monodromy(g)
        with pytest.raises(CertificationError):
            homological_monodromy(g)

    def test_seifert_requires_alternating(self):
        g = fixture_graph("e10-classical")
        with pytest.raises(NotAlternatingError):
            seifert_matrix(g)
        with pytest.raises(NotAlternatingError):
            alexander_polynomial(g)
        # the contract is checked before c: an odd cycle has no 2-coloring
        odd = parse_graph("vertex a +\nvertex b -\nvertex c +\n"
                          "edge a b\nedge b c\nedge a c\n")
        with pytest.raises(NotAlternatingError):
            alexander_polynomial(odd)


class TestProofIdentities:
    def test_identities_hold_on_fixtures(self):
        for name in ("a2", "p3-alt", "paper-5", "p5", "k33"):
            assert verify_proof_identities(fixture_graph(name)) is True

    @given(connected_alternating_graphs())
    @settings(max_examples=100, deadline=None)
    def test_implied_identities_hold(self, g):
        # the checks the certificate implies instead of making them
        assert verify_proof_identities(g) is True
        c_plus, c_minus = bipartite_factors(g)
        s = c_plus + c_minus
        assert homological_monodromy(g) == -(c_minus @ c_plus)
        assert s @ s == 2 * IntMatrix.identity(g.n) + c_plus @ c_minus + c_minus @ c_plus
        assert (c_plus @ c_minus) @ (c_minus @ c_plus) == IntMatrix.identity(g.n)

    def test_mismatch_is_falsy(self):
        m = IdentityMismatch("x", IntMatrix.identity(1), IntMatrix.identity(1))
        assert not m
        assert m.identity == "x"

    def test_identities_require_alternating(self):
        with pytest.raises(NotAlternatingError):
            verify_proof_identities(fixture_graph("e10-classical"))


class TestCorrespondence:
    """correspondence_check: the fast route to c and to chi_A against
    Berkowitz on C+ C- and on A."""

    def test_fixtures(self):
        for name in ALTERNATING_FIXTURES:
            assert correspondence_check(fixture_graph(name)) is True

    def test_exhaustive_small_trees(self):
        for n in range(2, 6):
            for g in enumerate_alternating_trees(n):
                assert correspondence_check(g) is True

    def test_every_tree_class_through_eight_vertices(self):
        for n in range(2, 9):
            for g in enumerate_alternating_trees(n, dedup=True):
                assert correspondence_check(g) is True

    def test_seeded_graphs_with_cycles(self):
        graphs = seeded_graphs_with_cycles()
        assert max(g.n for g in graphs) == 17
        for g in graphs:
            assert correspondence_check(g) is True

    def test_any_wrong_coxeter_coefficient_fails(self, monkeypatch):
        g = fixture_graph("paper-5")
        coeffs = list(coxeter_polynomial(g).coeffs)
        for k in range(len(coeffs)):
            wrong = IntPolynomial(coeffs[:k] + [coeffs[k] + 1] + coeffs[k + 1:])
            monkeypatch.setattr(coxeter, "coxeter_polynomial", lambda _, p=wrong: p)
            assert correspondence_check(g) is False

    def test_contract(self):
        with pytest.raises(NotAlternatingError):
            correspondence_check(fixture_graph("e10-classical"))
        with pytest.raises(ValueError):
            correspondence_check(parse_graph("vertex a +\n"))


class TestFastCoxeterPolynomial:
    """coxeter_polynomial of an alternating graph, from its Gram
    polynomial q, against Berkowitz on C+ C-; TestCorrespondence makes
    the same comparison on the fixtures and the seeded graphs with
    cycles."""

    @staticmethod
    def assert_both_routes_agree(graphs):
        for g in graphs:
            assert coxeter_polynomial(g) == coxeter_transformation(g).charpoly(), g

    def test_every_tree_class_through_ten_vertices(self):
        self.assert_both_routes_agree(
            g for n in range(2, 11) for g in enumerate_alternating_trees(n, dedup=True))

    def test_labeled_trees_through_six_vertices(self):
        self.assert_both_routes_agree(
            g for n in range(2, 7) for g in enumerate_alternating_trees(n))

    @given(connected_alternating_graphs())
    @settings(max_examples=150, deadline=None)
    def test_connected_alternating_graphs(self, g):
        self.assert_both_routes_agree([g])

    def test_single_vertex(self):
        for sign in "+-":
            g = parse_graph(f"vertex a {sign}\n")
            assert coxeter_polynomial(g) == coxeter_transformation(g).charpoly() == \
                IntPolynomial([1, 1])

    def test_long_path_needs_no_recursion(self):
        # chi of a path obeys p_n = x p_(n-1) - p_(n-2); the tree walk
        # is iterative, so a path past the recursion limit is fine
        n = 1100
        path = parse_graph("".join(f"vertex v{i} {'+-'[i % 2]}\n" for i in range(n))
                           + "".join(f"edge v{i} v{i + 1}\n" for i in range(n - 1)))
        prev, cur = IntPolynomial([1]), IntPolynomial([0, 1])
        for _ in range(n - 1):
            prev, cur = cur, IntPolynomial([0, 1]) * cur - prev
        assert _tree_charpoly(path) == cur

    def test_gram_polynomial_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        graphs = [fixture_graph(name) for name in ALTERNATING_FIXTURES]
        graphs += list(enumerate_alternating_trees(9, dedup=True))
        graphs += seeded_graphs_with_cycles()
        for g in graphs:
            bip = sign_bipartition(g)
            small, large = sorted((sorted(bip.part_plus), sorted(bip.part_minus)), key=len)
            b = sympy.Matrix([[int(g.has_edge(i, j)) for j in large] for i in small])
            expect = (b * b.T).charpoly().all_coeffs()
            assert _gram_polynomial(g).coeffs == tuple(int(x) for x in reversed(expect))


def resigned(g, signs):
    return MixedSignCoxeterGraph(g.names, tuple(signs), g.edges)


def signed_graphs_with_cycles(seed: int = 2015):
    """The seeded graphs with cycles with all-plus signs and with random
    signs: two-colourable but not alternating."""
    rng = random.Random(seed)
    graphs = seeded_graphs_with_cycles()
    return ([resigned(g, [PLUS] * g.n) for g in graphs]
            + [resigned(g, [rng.choice((PLUS, MINUS)) for _ in range(g.n)]) for g in graphs])


class TestSignedCoxeterPolynomial:
    """coxeter_polynomial of a graph with any signs, by the Gram route
    with G = -D_S B D_R B^T, against Berkowitz on C+ C-."""

    def test_every_sign_pattern_on_every_tree_class_through_six_vertices(self):
        TestFastCoxeterPolynomial.assert_both_routes_agree(
            resigned(g, signs) for n in range(2, 7)
            for g in enumerate_alternating_trees(n, dedup=True)
            for signs in itertools.product((PLUS, MINUS), repeat=n))

    def test_all_plus_and_random_sign_graphs_with_cycles(self):
        TestFastCoxeterPolynomial.assert_both_routes_agree(signed_graphs_with_cycles())

    @given(connected_random_sign_graphs())
    @settings(max_examples=150, deadline=None)
    def test_connected_random_sign_graphs(self, g):
        TestFastCoxeterPolynomial.assert_both_routes_agree([g])

    def test_odd_cycle_raises_not_bipartite(self):
        triangle = parse_graph("vertex a +\nvertex b -\nvertex c +\n"
                               "edge a b\nedge b c\nedge a c\n")
        with pytest.raises(NotBipartiteError, match="odd cycle"):
            coxeter_polynomial(triangle)

    @pytest.mark.parametrize("name", fixture_names())
    def test_no_n_by_n_route_on_any_fixture(self, monkeypatch, name):
        def forbidden(_):
            raise AssertionError("coxeter_transformation inside coxeter_polynomial")

        sizes = []
        real_charpoly = IntMatrix.charpoly

        def counting(m):
            sizes.append(m.n)
            return real_charpoly(m)

        monkeypatch.setattr(coxeter, "coxeter_transformation", forbidden)
        monkeypatch.setattr(IntMatrix, "charpoly", counting)
        g = fixture_graph(name)
        coxeter_polynomial(g)
        assert all(2 * k <= g.n for k in sizes)

    def test_signed_gram_polynomial_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for g in signed_graphs_with_cycles()[::4]:
            bip = two_coloring(g)
            small, large = sorted((sorted(bip.part_plus), sorted(bip.part_minus)), key=len)
            b = sympy.Matrix([[int(g.has_edge(i, j)) for j in large] for i in small])
            d_s = sympy.diag(*[g.signs[i] for i in small])
            d_r = sympy.diag(*[g.signs[j] for j in large])
            expect = (-d_s * b * d_r * b.T).charpoly().all_coeffs()
            assert _gram_polynomial(g).coeffs == tuple(int(x) for x in reversed(expect))


class TestCharpolyAgainstSympy:
    """Berkowitz against sympy's Matrix.charpoly on every matrix whose
    characteristic polynomial the package certifies."""

    def test_berkowitz_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        graphs = [fixture_graph(name) for name in ALTERNATING_FIXTURES]
        for g in graphs + seeded_graphs_with_cycles():
            bip = sign_bipartition(g)
            small, large = sorted((sorted(bip.part_plus), sorted(bip.part_minus)), key=len)
            b = sympy.Matrix([[int(g.has_edge(i, j)) for j in large] for i in small])
            c_plus, c_minus = bipartite_factors(g)
            for m in (adjacency_matrix(g), c_plus, c_minus,
                      c_plus @ c_minus, homological_monodromy(g),
                      IntMatrix((b * b.T).tolist())):
                expect = sympy.Matrix(m.rows).charpoly().all_coeffs()
                assert m.charpoly().coeffs == tuple(int(x) for x in reversed(expect))
