"""Reflections, Coxeter transformations, Seifert data, proof identities."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxlinks import coxeter
from coxlinks.analysis import analyze
from coxlinks.cli import main
from coxlinks.coxeter import (
    CertificationError,
    IdentityMismatch,
    _factor_charpoly,
    _gram_polynomial,
    _require_involution,
    alexander_polynomial,
    bipartite_factors,
    coxeter_polynomial,
    coxeter_transformation,
    homological_monodromy,
    seifert_matrix,
    verify_proof_identities,
)
from coxlinks.exact import IntMatrix, IntPolynomial, _coxeter_from_gram, _sparse_det
from coxlinks.fixtures import fixture_graph, fixture_names
from coxlinks.graphs import (
    MINUS,
    PLUS,
    MixedSignCoxeterGraph,
    NotAlternatingError,
    NotBipartiteError,
    adjacency_matrix,
    enumerate_alternating_trees,
    is_alternating_sign,
    parse_graph,
    random_alternating_tree,
    random_edge_augmentation,
    random_vertex_extension,
    sign_bipartition,
    two_coloring,
)

from graph_strategies import (connected_alternating_graphs, connected_random_sign_graphs,
                              signed_trees)
from matrix_oracles import (berkowitz, correspondence_check, coxeter_from_gram, dense_add,
                            dense_matmul, dense_neg, gram_matrix, identity, inverse_unimodular,
                            reflection, tree_gram)

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
C_BIPARTITE_5 = -IntMatrix([
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
                assert r @ r == identity(g.n)


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
                prod = identity(g.n)
                for i in order:
                    prod = prod @ reflection(g, i)
                assert prod == expect

    def test_factors_are_involutions(self):
        for name in ("a2", "p3-alt", "paper-5", "k33"):
            g = fixture_graph(name)
            c_plus, c_minus = bipartite_factors(g)
            ident = identity(g.n)
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
        assert seifert_matrix(g) == -C_PLUS_5

    def test_c_minus_is_minus_inverse_transpose_of_c_plus(self):
        for name in ("a2", "p3-alt", "paper-5", "k33"):
            g = fixture_graph(name)
            c_plus, c_minus = bipartite_factors(g)
            assert c_minus == -inverse_unimodular(c_plus.transpose())

    def test_transformation_factors_through_seifert_matrix(self):
        for name in ("a2", "paper-5", "k33"):
            g = fixture_graph(name)
            m = seifert_matrix(g)
            c = coxeter_transformation(g)
            assert -(m @ inverse_unimodular(m.transpose())) == c

    def test_monodromy_charpoly_is_alexander_polynomial(self):
        for name in ("a2", "p3-alt", "paper-5", "p5", "k33"):
            g = fixture_graph(name)
            assert berkowitz(homological_monodromy(g)) == alexander_polynomial(g)

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

    # m m = I is tested entry by entry: a wrong diagonal entry, or a
    # nonzero one above or below it, each fails it alone
    @pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    def test_involution_check_reads_every_entry(self, rows):
        with pytest.raises(CertificationError, match=r"C\+ is not an involution"):
            _require_involution(fixture_graph("a2"), IntMatrix(rows))

    def test_involution_check_passes_the_factors(self):
        for name in ("a2", "p3-alt", "paper-5", "k33"):
            g = fixture_graph(name)
            for factor in bipartite_factors(g):
                _require_involution(g, factor)
            _require_involution(g, identity(g.n))

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
        assert s @ s == identity(g.n) + identity(g.n) + c_plus @ c_minus + c_minus @ c_plus
        assert (c_plus @ c_minus) @ (c_minus @ c_plus) == identity(g.n)

    # (I, -I) passes checks 1 and 2, and (C+ + C-)^2 = 0 is not -A^2
    @staticmethod
    def inject_plus_and_minus_identity(monkeypatch):
        monkeypatch.setattr(coxeter, "bipartite_factors",
                            lambda g: (identity(g.n), dense_neg(identity(g.n))))

    def test_third_identity_failure_returns_the_mismatch(self, monkeypatch):
        self.inject_plus_and_minus_identity(monkeypatch)
        result = verify_proof_identities(fixture_graph("a2"))
        assert isinstance(result, IdentityMismatch) and not result
        assert result.identity == "(C+ + C-)^2 = -A^2"
        s = dense_add(identity(2), dense_neg(identity(2)))
        a = adjacency_matrix(fixture_graph("a2"))
        assert result.lhs == dense_matmul(s, s) == IntMatrix([[0, 0], [0, 0]])
        assert result.rhs == dense_neg(dense_matmul(a, a)) == IntMatrix([[-1, 0], [0, -1]])

    def test_third_identity_failure_in_analyze(self, monkeypatch):
        self.inject_plus_and_minus_identity(monkeypatch)
        assert analyze(fixture_graph("a2")).proof_identities_ok is False

    def test_third_identity_failure_in_the_cli(self, monkeypatch, capsys):
        self.inject_plus_and_minus_identity(monkeypatch)
        assert main(["analyze", "a2"]) == 0
        assert "\nproof identities: FAILED\n" in capsys.readouterr().out

    def test_mismatch_is_falsy(self):
        m = IdentityMismatch("x", identity(1), identity(1))
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
            assert coxeter_polynomial(g) == berkowitz(coxeter_transformation(g)), g

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
            assert coxeter_polynomial(g) == berkowitz(coxeter_transformation(g)) == \
                IntPolynomial([1, 1])

    def test_long_path_needs_no_recursion(self):
        # chi of a path obeys p_n = x p_(n-1) - p_(n-2), and q is every
        # other coefficient of chi; the tree walk is iterative, so a path
        # past the recursion limit is fine
        n = 1100
        path = parse_graph("".join(f"vertex v{i} {'+-'[i % 2]}\n" for i in range(n))
                           + "".join(f"edge v{i} v{i + 1}\n" for i in range(n - 1)))
        prev, cur = IntPolynomial([1]), IntPolynomial([0, 1])
        for _ in range(n - 1):
            prev, cur = cur, IntPolynomial([0, 1]) * cur - prev
        assert _gram_polynomial(path) == IntPolynomial(cur.coeffs[n % 2::2])

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


class TestKroneckerKernels:
    """_gram_polynomial on trees and _coxeter_from_gram, which run at z =
    2^b on single integers, against the IntPolynomial recursion and the
    IntPolynomial Horner substitution of tests/matrix_oracles.py."""

    @staticmethod
    def assert_kernels_match_oracles(g):
        q = _gram_polynomial(g)
        if g.edge_count == g.n - 1:
            assert q == tree_gram(g), g
        assert _coxeter_from_gram(q, g.n) == coxeter_from_gram(q, g.n), g

    def test_every_tree_class_through_ten_vertices(self):
        rng = random.Random(21)
        for n in range(1, 11):
            for g in enumerate_alternating_trees(n, dedup=True):
                for signs in (g.signs, [PLUS] * n, [rng.choice((PLUS, MINUS)) for _ in range(n)]):
                    self.assert_kernels_match_oracles(resigned(g, signs))
                assert n == 1 or correspondence_check(g) is True

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        g = fixture_graph(name)
        self.assert_kernels_match_oracles(g)
        if name in ALTERNATING_FIXTURES:
            assert correspondence_check(g) is True

    @given(signed_trees(60))
    @settings(max_examples=150, deadline=None)
    def test_trees_up_to_sixty_vertices(self, g):
        self.assert_kernels_match_oracles(g)
        if g.n > 1 and is_alternating_sign(g):
            assert correspondence_check(g) is True

    def test_gram_polynomials_of_graphs_with_cycles(self):
        for g in seeded_graphs_with_cycles() + signed_graphs_with_cycles():
            self.assert_kernels_match_oracles(g)

    @given(st.lists(st.integers(-(1 << 260), 1 << 260), max_size=12),
           st.integers(200, 260), st.sampled_from((1, -1)), st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    @example([], 200, 1, 1)
    @example([(1 << 259) - 1, -(1 << 259) + 1, 0], 259, -1, 1)
    def test_synthetic_gram_polynomials_with_wide_coefficients(self, low, bits, sign, extra):
        # q of degree s = len(low) with leading coefficient +-2^bits, n > 2s
        q = IntPolynomial(low + [sign << bits])
        n = 2 * q.degree + extra
        assert _coxeter_from_gram(q, n) == coxeter_from_gram(q, n)


def bipartite_graph(s, t, edges, signs):
    """The graph on S = 0..s-1 and R = s..s+t-1 with the edges (i, w) of
    S x R given as (i, w - s)."""
    return MixedSignCoxeterGraph(tuple(f"v{i}" for i in range(s + t)), tuple(signs),
                                 tuple((i, s + w) for i, w in edges))


def relabelled(g, perm):
    """g with vertex i renamed perm[i], names and signs moved along."""
    names, signs = [None] * g.n, [None] * g.n
    for i, k in enumerate(perm):
        names[k], signs[k] = g.names[i], g.signs[i]
    return MixedSignCoxeterGraph(tuple(names), tuple(signs),
                                 tuple(tuple(sorted((perm[i], perm[j]))) for i, j in g.edges))


def dense_bipartite_graphs(seed: int = 27):
    """Complete K_(s,t) for 2 <= s, t <= 8, and connected random subgraphs
    of them with at least half the edges, each with alternating, all-plus
    and random signs, so mixed signs inside a colour class too."""
    rng = random.Random(seed)
    out = []
    for s in range(2, 9):
        for t in range(2, 9):
            complete = [(i, w) for i in range(s) for w in range(t)]
            subsets = [complete]
            while len(subsets) < 3:
                edges = [e for e in complete if rng.random() < rng.uniform(0.5, 0.9)]
                if len(edges) >= s + t and len({i for i, _ in edges}) == s \
                        and len({w for _, w in edges}) == t:
                    subsets.append(edges)
            for edges in subsets:
                for signs in ([PLUS] * s + [MINUS] * t, [PLUS] * (s + t),
                              [rng.choice((PLUS, MINUS)) for _ in range(s + t)]):
                    try:
                        out.append(bipartite_graph(s, t, edges, signs))
                    except ValueError:  # not connected
                        pass
    return out


class TestGramDeterminant:
    """The Gram polynomial of a graph with a cycle, q(2^b) = det(2^b I - G)
    by the sparse fraction-free elimination _sparse_det, against Berkowitz
    on the explicitly built G of tests/matrix_oracles.py."""

    @staticmethod
    def assert_matches_oracle(g):
        assert g.edge_count >= g.n, "a tree takes the matching route"
        assert _gram_polynomial(g) == berkowitz(gram_matrix(g)), g

    def test_seeded_graphs_with_cycles(self):
        for g in seeded_graphs_with_cycles() + signed_graphs_with_cycles():
            self.assert_matches_oracle(g)

    @pytest.mark.parametrize("name", ["k33", "paper-5"])
    def test_fixtures(self, name):
        self.assert_matches_oracle(fixture_graph(name))

    def test_complete_and_dense_bipartite_graphs(self):
        graphs = dense_bipartite_graphs()
        assert len(graphs) > 3 * 49
        for g in graphs:
            self.assert_matches_oracle(g)

    def test_mixed_signs_inside_a_colour_class(self):
        # K_(2,2) with R signed + and -: the two vertices of S share both
        # neighbours and every entry of G cancels to 0; K_(3,3) and a
        # 6-cycle with a chord have mixed signs in both classes
        cases = [bipartite_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], [PLUS, PLUS, PLUS, MINUS]),
                 bipartite_graph(3, 3, [(i, w) for i in range(3) for w in range(3)],
                                 [PLUS, MINUS, PLUS, PLUS, PLUS, MINUS]),
                 bipartite_graph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (0, 1)],
                                 [MINUS, PLUS, PLUS, MINUS, MINUS, PLUS])]
        assert gram_matrix(cases[0]).rows == ((0, 0), (0, 0))
        for g in cases:
            assert not is_alternating_sign(g)
            self.assert_matches_oracle(g)

    @given(st.one_of(connected_alternating_graphs(), connected_random_sign_graphs())
           .filter(lambda g: g.edge_count >= g.n))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs_with_cycles(self, g):
        self.assert_matches_oracle(g)

    def test_relabelling_invariance(self):
        # relabelling reorders the rows, and with them the pivot order:
        # ties in the count of nonzeros go to the lower index
        rng = random.Random(27)
        for g in seeded_graphs_with_cycles() + dense_bipartite_graphs()[::7]:
            q = _gram_polynomial(g)
            perms = [list(range(g.n))[::-1]] + [rng.sample(range(g.n), g.n) for _ in range(3)]
            for perm in perms:
                assert _gram_polynomial(relabelled(g, perm)) == q, (g, perm)

    @given(st.integers(1, 9).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, -1, 3, -7)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=150, deadline=None)
    def test_sparse_det_on_diagonally_dominant_matrices(self, rows):
        # strict diagonal dominance makes every principal minor nonzero, as
        # _sparse_det needs; these rows need not share a pattern
        n = len(rows)
        for i, row in enumerate(rows):
            row[i] = sum(map(abs, row)) - abs(row[i]) + 1 + i % 2
        a = IntMatrix(rows)
        expected = (-1) ** n * berkowitz(a).coefficient(0)
        assert _sparse_det([{j: x for j, x in enumerate(row) if x} for row in rows]) == expected

    def test_no_matrix_and_no_berkowitz(self, monkeypatch):
        def forbidden(*_):
            raise AssertionError("a matrix on the Gram route")

        # Berkowitz lives in tests/matrix_oracles.py only
        assert not hasattr(IntMatrix, "charpoly")
        monkeypatch.setattr(IntMatrix, "_of", forbidden)
        for g in seeded_graphs_with_cycles():
            _gram_polynomial(g)


class TestFactorCharpoly:
    """det(tI - C+ C-) from one sparse determinant of tC+ - C-, verify's
    slow check on c, against Berkowitz on the product C+ C- in
    tests/matrix_oracles.py."""

    @staticmethod
    def assert_matches_oracle(g):
        c_plus, c_minus = bipartite_factors(g)
        assert _factor_charpoly(c_plus, c_minus) == berkowitz(c_plus @ c_minus), g

    def test_every_tree_class_through_ten_vertices(self):
        trees = [g for n in range(2, 11) for g in enumerate_alternating_trees(n, dedup=True)]
        assert len(trees) == 200
        for g in trees:
            self.assert_matches_oracle(g)

    def test_labeled_trees_through_six_vertices(self):
        # every labeling, so plus classes of each size and every vertex order
        for n in range(2, 7):
            for g in enumerate_alternating_trees(n):
                self.assert_matches_oracle(g)

    @pytest.mark.parametrize("n", [12, 20, 40, 80])
    def test_random_trees(self, n):
        self.assert_matches_oracle(random_alternating_tree(n, random.Random(n)))

    def test_alternating_graphs_with_cycles(self):
        # the bound and the pivot argument need no tree
        for g in [fixture_graph(name) for name in ALTERNATING_FIXTURES] + seeded_graphs_with_cycles()[::3]:
            assert is_alternating_sign(g)
            self.assert_matches_oracle(g)

    def test_sign_of_det_c_plus(self):
        # the path on 3 vertices has one plus vertex or two, by its signs
        for text in ("vertex a +\nvertex b -\nvertex c +\nedge a b\nedge b c\n",
                     "vertex a -\nvertex b +\nvertex c -\nedge a b\nedge b c\n"):
            g = parse_graph(text)
            c_plus, c_minus = bipartite_factors(g)
            assert _factor_charpoly(c_plus, c_minus) == coxeter_polynomial(g) == IntPolynomial([1, 5, 5, 1])


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

        # the one determinant on the route, of 2^b I - G, has s <= n/2 rows
        sizes = []
        real_det = coxeter._sparse_det

        def counting(rows):
            sizes.append(len(rows))
            return real_det(rows)

        monkeypatch.setattr(coxeter, "coxeter_transformation", forbidden)
        monkeypatch.setattr(coxeter, "_sparse_det", counting)
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
                assert berkowitz(m).coeffs == tuple(int(x) for x in reversed(expect))
