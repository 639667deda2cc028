"""Reports, coefficient certifications, sweeps, minimum search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from coxlinks import analysis, coxeter, spectra
from coxlinks.analysis import (
    analyze,
    log_concavity_check,
    min_dilatation_search,
    sign_alternation_check,
    trapezoidal_check,
    verify_theorems,
)
from coxlinks.coxeter import (
    CertificationError,
    alexander_polynomial,
    bipartite_factors,
    coxeter_polynomial,
    homological_monodromy,
)
from coxlinks.exact import IntMatrix, IntPolynomial
from coxlinks.fixtures import fixture_graph, fixture_names
from coxlinks.graphs import enumerate_alternating_trees, is_alternating_sign, parse_graph
from coxlinks.spectra import (RationalInterval, cauchy_bound, is_real_stable, max_real_root,
                              spectral_radius_enclosure)

from graph_strategies import connected_alternating_graphs, connected_random_sign_graphs
from matrix_oracles import identity
from root_oracles import sturm_count

F = Fraction


def P(*coeffs):
    return IntPolynomial(coeffs)


class TestSignAlternation:
    def test_examples(self):
        assert sign_alternation_check(P(-1, 10, -27, 27, -10, 1)) is True
        assert sign_alternation_check(P(1, -3, 1)) is True
        assert sign_alternation_check(P(1, 0, 1)) is False
        assert sign_alternation_check(P(1, 3, 1)) is False

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sign_alternation_check(P())


class TestTrapezoidal:
    def test_examples(self):
        assert trapezoidal_check(P(1, 10, 27, 27, 10, 1)) == (True, 2)
        assert trapezoidal_check(P(1, 3, 1)) == (True, 1)
        assert trapezoidal_check(P(1, 2, 1, 2, 1)) == (False, None)

    def test_signs_are_ignored(self):
        assert trapezoidal_check(P(-1, 10, -27, 27, -10, 1)) == (True, 2)

    def test_zero_coefficient_fails(self):
        assert trapezoidal_check(P(1, 0, 1)) == (False, None)

    def test_plateau_must_be_symmetric(self):
        assert trapezoidal_check(P(1, 2, 2, 2, 1)) == (True, 1)
        assert trapezoidal_check(P(1, 2, 2, 1, 1)) == (False, None)

    def test_constant_and_flat(self):
        assert trapezoidal_check(P(5)) == (True, 0)
        assert trapezoidal_check(P(2, 2)) == (True, 0)


class TestLogConcavity:
    def test_examples(self):
        assert log_concavity_check(P(-1, 10, -27, 27, -10, 1)) is True
        assert log_concavity_check(P(1, -3, 1)) is True
        assert log_concavity_check(P(1, 1, 1)) is False


class TestAnalyzeAlternating:
    def test_five_vertex_fixture_report(self):
        rep = analyze(fixture_graph("paper-5"))
        assert rep.alternating is True
        assert rep.coxeter.coeffs == (1, 10, 27, 27, 10, 1)
        assert rep.alexander.coeffs == (-1, 10, -27, 27, -10, 1)
        assert rep.real_stable and rep.sign_alternating
        assert rep.trapezoidal and rep.plateau_k == 2
        assert rep.log_concave and rep.biorderable_implied
        assert rep.proof_identities_ok
        assert rep.spectral_radius.width <= F(1, 10**9)
        assert abs(float(rep.spectral_radius.midpoint) - 6.40543540040998) < 1e-8

    def test_a2_report(self):
        rep = analyze(fixture_graph("a2"))
        assert rep.biorderable_implied is True
        lo, hi = rep.spectral_radius.lo, rep.spectral_radius.hi
        y, z = 2 * lo - 3, 2 * hi - 3
        assert (y <= 0 or y * y <= 5) and (z >= 0 and z * z >= 5)

    def test_epsilon_controls_width(self):
        rep = analyze(fixture_graph("a2"), eps=F(1, 100))
        assert rep.spectral_radius.width <= F(1, 100)

    def test_json_schema(self):
        d = analyze(fixture_graph("paper-5")).to_json_dict()
        assert d["graph"] == {"n": 5, "edges": 5, "alternating": True}
        assert d["polynomials"]["coxeter"] == [1, 10, 27, 27, 10, 1]
        assert d["polynomials"]["alexander"] == [-1, 10, -27, 27, -10, 1]
        assert set(d["flags"]) == {
            "real_stable", "sign_alternating", "trapezoidal", "plateau_k",
            "log_concave", "biorderable_implied", "proof_identities_ok"}
        assert all(d["flags"][k] for k in d["flags"] if k != "plateau_k")
        assert d["flags"]["plateau_k"] == 2
        for bound in ("lo", "hi"):
            num, den = d["spectral_radius"][bound].split("/")
            int(num), int(den)

    def test_text_report_mentions_radius(self):
        text = analyze(fixture_graph("a2")).render_text()
        assert "spectral radius in [2.61803398" in text
        assert "trapezoidal: yes (plateau k = 1)" in text


class TestAnalyzeClassical:
    def test_e10_reduced_report(self):
        rep = analyze(fixture_graph("e10-classical"))
        assert rep.alternating is False
        assert rep.alexander is None and rep.spectral_radius is None
        assert rep.real_stable is None and rep.proof_identities_ok is None
        mid = rep.max_real_root.midpoint
        assert abs(mid - F("1.176281")) < F(1, 10**6)

    def test_classical_without_real_roots(self):
        g = parse_graph("vertex a +\nvertex b +\nedge a b\n")
        rep = analyze(g)
        assert rep.coxeter.coeffs == (1, 1, 1)
        assert rep.max_real_root is None

    def test_classical_json(self):
        d = analyze(fixture_graph("e10-classical")).to_json_dict()
        assert d["graph"]["alternating"] is False
        assert d["polynomials"]["alexander"] is None
        assert d["flags"] is None
        assert d["spectral_radius"] is None
        assert d["max_real_root"] is not None

    def test_contract_checks(self):
        single = parse_graph("vertex a +\n")
        with pytest.raises(ValueError):
            analyze(single)
        with pytest.raises(ValueError):
            analyze(fixture_graph("a2"), eps=F(0))


class TestVerifyTheorems:
    def test_exhaustive_small_sweep(self):
        s = verify_theorems(5, extension_trials=10, seed=3)
        assert s.ok and s.counterexample is None
        counters = dict((name, (p, f)) for name, p, f in s.counters)
        trees = 1 + 3 + 16 + 125
        for name in ("symmetry", "real-negative-spectrum", "proof-identities",
                     "monodromy-charpoly", "reciprocality", "real-stability",
                     "sign-alternation", "trapezoidality", "log-concavity"):
            assert counters[name] == (trees, 0)
        for name in ("coxeter-interlacing", "alexander-interlacing",
                     "radius-monotonicity"):
            assert counters[name] == (4 * 10, 0)

    def test_dedup_reaches_same_verdict(self):
        s = verify_theorems(6, extension_trials=5, seed=3, dedup=True)
        assert s.ok
        counters = dict((name, (p, f)) for name, p, f in s.counters)
        assert counters["symmetry"] == (1 + 1 + 2 + 3 + 6, 0)

    def test_vacuous_trials(self):
        s = verify_theorems(2, extension_trials=0, seed=0)
        counters = dict((name, (p, f)) for name, p, f in s.counters)
        assert counters["symmetry"] == (1, 0)
        assert counters["coxeter-interlacing"] == (0, 0)
        assert s.ok

    def test_seed_reproducibility(self):
        a = verify_theorems(4, extension_trials=8, seed=42)
        b = verify_theorems(4, extension_trials=8, seed=42)
        assert a.render_text() == b.render_text()
        assert a.graphs_examined == b.graphs_examined

    def test_one_interlacing_per_extension_trial(self, monkeypatch):
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return spectra.interlace_check(p, q)

        monkeypatch.setattr(analysis, "interlace_check", counting)
        s = verify_theorems(4, extension_trials=3, seed=5)
        assert len(calls) == 3 * 3
        counters = dict((name, (p, f)) for name, p, f in s.counters)
        assert counters["coxeter-interlacing"] == counters["alexander-interlacing"] == (9, 0)

    def test_slow_route_on_every_tree(self, monkeypatch):
        # c comes from the fast route; the monodromy-charpoly check runs
        # one n x n Berkowitz on each tree, of C+-, and the certified
        # conjugation carries it to the monodromy
        sizes = []
        real_charpoly = IntMatrix.charpoly

        def counting(m):
            sizes.append(m.n)
            return real_charpoly(m)

        monkeypatch.setattr(IntMatrix, "charpoly", counting)
        verify_theorems(5, extension_trials=0)
        assert sorted(sizes) == [2] + [3] * 3 + [4] * 16 + [5] * 125

    def test_four_products_per_tree(self, monkeypatch):
        # C+ C-, and C+ C+, (C+ + C-)^2 and A^2 of the certificate
        count = [0]
        real_matmul = IntMatrix.__matmul__

        def counting(a, b):
            count[0] += 1
            return real_matmul(a, b)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        verify_theorems(5, extension_trials=0)
        assert count[0] == 4 * (1 + 3 + 16 + 125)

    @pytest.mark.parametrize("fault", ["fast c", "slow charpoly"])
    def test_slow_check_catches_either_side(self, monkeypatch, fault):
        # c from the Gram route with a t term added, or a Berkowitz result
        # off by one: either way every tree fails monodromy-charpoly first
        if fault == "fast c":
            real = analysis._graph_spectrum

            def wrong(g):
                c, roots = real(g)
                return c + P(0, 1), roots

            monkeypatch.setattr(analysis, "_graph_spectrum", wrong)
        else:
            real_charpoly = IntMatrix.charpoly
            monkeypatch.setattr(IntMatrix, "charpoly", lambda m: real_charpoly(m) + P(1))
        s = verify_theorems(5, extension_trials=0)
        counters = dict((name, (p, f)) for name, p, f in s.counters)
        assert counters["monodromy-charpoly"] == (0, 1 + 3 + 16 + 125)
        assert s.counterexample.startswith("# failed check: monodromy-charpoly\n")

    def test_one_factorization_per_tree(self, monkeypatch):
        # both names are counted, so a second factorization through
        # coxeter's public functions would show as well
        calls = []
        real = coxeter.bipartite_factors

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(analysis, "bipartite_factors", counting)
        monkeypatch.setattr(coxeter, "bipartite_factors", counting)
        verify_theorems(8, extension_trials=0, dedup=True)
        assert len(calls) == 47

    def test_contract_checks(self):
        with pytest.raises(ValueError):
            verify_theorems(1)
        with pytest.raises(ValueError):
            verify_theorems(3, extension_trials=-1)


class TestMonodromyCertificate:
    @pytest.mark.parametrize("name", ["paper-5", "k33", "e10-classical"])
    def test_one_characteristic_polynomial_per_analyze(self, monkeypatch, name):
        # a graph with a cycle runs Berkowitz on its s x s Gram matrix;
        # a tree, classical or not, runs none
        sizes = []
        real_charpoly = IntMatrix.charpoly

        def counting(m):
            sizes.append(m.n)
            return real_charpoly(m)

        monkeypatch.setattr(IntMatrix, "charpoly", counting)
        analyze(fixture_graph(name))
        assert sizes == {"paper-5": [2], "k33": [3], "e10-classical": []}[name]

    def test_no_characteristic_polynomial_on_a_tree(self, monkeypatch):
        def forbidden(_):
            raise AssertionError("charpoly on a tree")

        monkeypatch.setattr(IntMatrix, "charpoly", forbidden)
        for g in [fixture_graph("p5")] + list(enumerate_alternating_trees(8, dedup=True)):
            analyze(g)

    @pytest.mark.parametrize("name,products", [("paper-5", 3), ("k33", 3), ("e10-classical", 0),
                                               ("p5", 3)])
    def test_matrix_products_per_analyze(self, monkeypatch, name, products):
        # C+ C+, (C+ + C-)^2 and A^2 for the certificate of an alternating
        # graph; a classical graph has no certificate and c needs no product
        count = [0]
        real_matmul = IntMatrix.__matmul__

        def counting(a, b):
            count[0] += 1
            return real_matmul(a, b)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        analyze(fixture_graph(name))
        assert count[0] == products

    @given(connected_alternating_graphs())
    @settings(max_examples=150, deadline=None)
    def test_identity_and_verdict_against_the_slow_route(self, g):
        assert is_alternating_sign(g)
        c_plus, c_minus = bipartite_factors(g)
        monodromy = homological_monodromy(g)
        slow = monodromy.charpoly()
        rep = analyze(g)
        assert monodromy == -(c_minus @ c_plus)
        assert slow == rep.alexander == alexander_polynomial(g)
        assert rep.biorderable_implied == is_real_stable(slow)


class TestOneChainPerAnalyze:
    """analyze answers every root question on one Sturm chain, of sf(q)
    for q the Gram polynomial; see also tests/test_gram_roots.py."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_one_squarefree_part_and_one_chain(self, monkeypatch, name):
        parts, chains = [], []
        real_part = spectra.squarefree_part

        def counting(p):
            parts.append(p)
            return real_part(p)

        class SpyChain(spectra._SturmChain):
            def __init__(self, sf):
                chains.append(sf)
                super().__init__(sf)

        monkeypatch.setattr(spectra, "squarefree_part", counting)
        monkeypatch.setattr(spectra, "_SturmChain", SpyChain)
        analyze(fixture_graph(name))
        assert (len(parts), len(chains)) == (1, 1)

    @given(connected_random_sign_graphs())
    @settings(max_examples=100, deadline=None)
    def test_answers_match_the_public_routes(self, g):
        eps = F(1, 1 << 20)
        c = coxeter_polynomial(g)
        rep = analyze(g, eps)
        try:
            assert rep.max_real_root == max_real_root(c, eps)
        except ValueError:  # no real root
            assert rep.max_real_root is None
        if rep.alternating:
            assert rep.real_stable == is_real_stable(rep.alexander)
            assert rep.spectral_radius == spectral_radius_enclosure(c, eps)


class TestCertificationErrors:
    """The theorem-failure sites raise CertificationError, a RuntimeError."""

    def test_report_inconsistency(self, monkeypatch):
        monkeypatch.setattr(analysis, "trapezoidal_check", lambda _: (False, None))
        with pytest.raises(CertificationError, match="report inconsistency"):
            analyze(fixture_graph("paper-5"))

    def test_monodromy_identity(self, monkeypatch):
        real = coxeter.bipartite_factors
        monkeypatch.setattr(coxeter, "bipartite_factors",
                            lambda g: (identity(g.n), real(g)[1]))
        with pytest.raises(CertificationError, match=r"M\^T M = -C- C\+"):
            analyze(fixture_graph("a2"))

    def test_non_involution_with_matching_transpose(self, monkeypatch):
        # C+^T = -C- holds and (C+ + C-)^2 = 0 only fails the last
        # identity, so only the involution check raises here
        c_plus = IntMatrix([[2, 0], [0, 1]])
        monkeypatch.setattr(coxeter, "bipartite_factors", lambda _: (c_plus, -c_plus.transpose()))
        with pytest.raises(CertificationError, match=r"C\+ is not an involution"):
            analyze(fixture_graph("a2"))

    # verify's tree battery reads the factors under its own name and reads
    # the monodromy off them, which is sound only once they are certified
    def test_monodromy_identity_in_verify(self, monkeypatch):
        real = coxeter.bipartite_factors
        monkeypatch.setattr(analysis, "bipartite_factors",
                            lambda g: (identity(g.n), real(g)[1]))
        with pytest.raises(CertificationError, match=r"M\^T M = -C- C\+"):
            verify_theorems(3, extension_trials=0)

    def test_non_involution_in_verify(self, monkeypatch):
        c_plus = IntMatrix([[2, 0], [0, 1]])
        monkeypatch.setattr(analysis, "bipartite_factors", lambda _: (c_plus, -c_plus.transpose()))
        with pytest.raises(CertificationError, match=r"C\+ is not an involution"):
            verify_theorems(3, extension_trials=0)

    def test_leaf_removal_monotonicity(self, monkeypatch):
        monkeypatch.setattr(analysis, "compare_isolated_roots", lambda *_: 1)
        with pytest.raises(CertificationError, match="leaf removal"):
            min_dilatation_search(4)
        assert issubclass(CertificationError, RuntimeError)


class TestMinSearch:
    def test_minimum_is_golden_ratio_squared_at_a2(self):
        r = min_dilatation_search(6)
        assert r.graph.n == 2
        assert r.enclosure.width <= F(1, 10**9)
        y, z = 2 * r.enclosure.lo - 3, 2 * r.enclosure.hi - 3
        assert (y <= 0 or y * y <= 5) and (z >= 0 and z * z >= 5)
        assert r.trees_examined == 1 + 3 + 16 + 125 + 1296

    def test_dedup_finds_same_enclosure(self):
        a = min_dilatation_search(5)
        b = min_dilatation_search(5, dedup=True)
        assert a.enclosure == b.enclosure
        assert b.trees_examined == 1 + 1 + 2 + 3

    @pytest.mark.parametrize("dedup", [False, True])
    def test_one_squarefree_part_per_tree(self, monkeypatch, dedup):
        # every examined tree, and every leaf-removal subtree of the
        # spot checks, takes one squarefree part, not one per step
        calls = []
        real_part = spectra.squarefree_part

        def counting(p):
            calls.append(p)
            return real_part(p)

        monkeypatch.setattr(spectra, "squarefree_part", counting)
        monkeypatch.setattr(analysis, "squarefree_part", counting, raising=False)
        r = min_dilatation_search(6, dedup=dedup)
        spot_subtrees = sum(min(5, sum(1 for _ in enumerate_alternating_trees(n, dedup=dedup)))
                            for n in range(3, 7))
        assert r.trees_pruned > 0
        assert len(calls) == r.trees_examined + spot_subtrees
        assert not hasattr(analysis, "_radius_at_least")

    @pytest.mark.parametrize("eps", [F(8), F(1, 10**9)])
    def test_prunes_exactly_the_trees_that_cannot_win(self, eps):
        # the 2-vertex tree is the minimum and comes first, so hi is fixed;
        # at eps = 8 it is 4, above the radius of a few trees, which must
        # then be kept
        r = min_dilatation_search(5, eps=eps)
        hi = r.enclosure.hi
        expected = 0
        trees = [g for n in range(2, 6) for g in enumerate_alternating_trees(n)]
        for g in trees[1:]:
            c = coxeter_polynomial(g)
            assert c.eval(hi) != 0 and c.eval(-hi) != 0
            b = cauchy_bound(c)
            expected += (sturm_count(c, RationalInterval(-b, -hi))
                         + sturm_count(c, RationalInterval(hi, b))) > 0
        assert r.trees_pruned == expected
        if eps > 1:
            assert expected < len(trees) - 1

    def test_n2_baseline(self):
        r = min_dilatation_search(2)
        assert r.graph.n == 2 and r.trees_examined == 1

    def test_contract_checks(self):
        with pytest.raises(ValueError):
            min_dilatation_search(1)
        with pytest.raises(ValueError):
            min_dilatation_search(4, eps=F(-1))

    def test_render_mentions_attaining_graph(self):
        text = min_dilatation_search(4).render_text()
        assert "vertex v0 +" in text
        assert "2.6180339" in text
