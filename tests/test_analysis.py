"""Reports, coefficient certifications, sweeps, minimum search."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from coxlinks import analysis, coxeter, spectra
from coxlinks.analysis import (
    MinSearchResult,
    analyze,
    log_concavity_check,
    min_dilatation_search,
    sign_alternation_check,
    trapezoidal_check,
    verify_theorems,
)
from coxlinks.cli import main
from coxlinks.coxeter import (
    CertificationError,
    _gram_polynomial,
    alexander_polynomial,
    bipartite_factors,
    coxeter_polynomial,
    homological_monodromy,
)
from coxlinks.exact import IntMatrix, IntPolynomial
from coxlinks.fixtures import fixture_graph, fixture_names
from coxlinks.graphs import (MixedSignCoxeterGraph, enumerate_alternating_trees, graph_to_text,
                             is_alternating_sign, parse_graph, random_alternating_tree,
                             random_edge_augmentation, random_vertex_extension)
from coxlinks.spectra import (DEFAULT_EPSILON, RationalInterval, cauchy_bound,
                              compare_isolated_roots, is_real_stable, max_real_root,
                              spectral_radius_enclosure)

from graph_strategies import connected_alternating_graphs, connected_random_sign_graphs
from matrix_oracles import berkowitz, identity
from root_oracles import gram_sequence_heads, spy_on_remainder_sequences, sturm_count

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

    def test_one_interlacing_per_distinct_pair(self, monkeypatch):
        # within one size each (f, Q) of gram_interlacing_pair is checked
        # once, the first time it is drawn, and the rest are looked up
        drawn, checked = [], []
        real_pair = coxeter.gram_interlacing_pair

        def drawing(small, large):
            pair = real_pair(small, large)
            drawn.append((small.n, pair[0].coeffs, pair[1].coeffs))
            return pair

        def counting(p, q):
            checked.append((p.coeffs, q.coeffs))
            return spectra.interlace_check(p, q)

        monkeypatch.setattr(analysis, "gram_interlacing_pair", drawing)
        monkeypatch.setattr(analysis, "interlace_check", counting)
        s = verify_theorems(4, extension_trials=3, seed=5)
        assert len(drawn) == 3 * 3
        firsts = [key[1:] for key in dict.fromkeys(drawn)]
        assert checked == firsts and len(checked) == 1 + 2 + 2
        counters = dict((name, (p, f)) for name, p, f in s.counters)
        assert counters["coxeter-interlacing"] == counters["alexander-interlacing"] == (9, 0)

    def test_slow_route_on_every_tree(self, monkeypatch):
        # c comes from the fast route; the monodromy-charpoly check runs
        # one n x n determinant of tC+ - C- on each tree, and the certified
        # conjugation carries it to the monodromy
        sizes = []
        real = coxeter._factor_charpoly

        def counting(c_plus, c_minus):
            sizes.append(c_plus.n)
            return real(c_plus, c_minus)

        monkeypatch.setattr(analysis, "_factor_charpoly", counting)
        verify_theorems(5, extension_trials=0)
        assert sorted(sizes) == [2] + [3] * 3 + [4] * 16 + [5] * 125
        assert not hasattr(IntMatrix, "charpoly")

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
        # c from the Gram route with a t term added, or the determinant of
        # the factors off by one: either way every tree fails
        # monodromy-charpoly first
        if fault == "fast c":
            real = analysis._coxeter_from_gram
            monkeypatch.setattr(analysis, "_coxeter_from_gram", lambda q, n: real(q, n) + P(0, 1))
        else:
            real = analysis._factor_charpoly
            monkeypatch.setattr(analysis, "_factor_charpoly", lambda a, b: real(a, b) + P(1))
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


class TestVerifyLookups:
    """Inside one verify_theorems call, each verdict that is a function of
    polynomials alone is computed once per distinct input of the call,
    and recorded for every tree or pair with that input."""

    @pytest.fixture
    def spectra_built(self, monkeypatch) -> list[tuple[int, ...]]:
        # the real-stability verdict of q, read on q's chain; verify builds
        # no _Roots of c at all
        calls = []
        real = spectra._Roots.stable_of

        def counting(q):
            calls.append(q.coeffs)
            return real(q)

        def forbidden(cls, q, n):
            raise AssertionError("_Roots.of_gram in verify")

        monkeypatch.setattr(spectra._Roots, "stable_of", staticmethod(counting))
        monkeypatch.setattr(spectra._Roots, "of_gram", classmethod(forbidden))
        return calls

    def test_one_spectrum_per_distinct_gram_polynomial(self, spectra_built):
        # the 1 + 3 + 16 + 125 labeled trees have 1 + 1 + 2 + 3 distinct q
        verify_theorems(5, extension_trials=0)
        assert len(spectra_built) == len(set(spectra_built)) == 1 + 1 + 2 + 3

    def test_one_spectrum_per_dedup_tree(self, spectra_built):
        # isomorphism classes have distinct q here, so every lookup misses
        verify_theorems(8, extension_trials=0, dedup=True)
        assert len(spectra_built) == 47

    def test_no_lookup_outlives_a_call(self, spectra_built):
        verify_theorems(5, extension_trials=4, seed=2)
        first = list(spectra_built)
        del spectra_built[:]
        verify_theorems(5, extension_trials=4, seed=2)
        assert spectra_built == first and len(first) == 1 + 1 + 2 + 3

    def test_a_failing_verdict_counts_every_tree_with_its_polynomial(self, monkeypatch):
        # log-concavity made to fail on the Alexander polynomial of the fork
        # on 5 vertices, whose q has the degree of the path's
        fork = next(g for g in enumerate_alternating_trees(5, dedup=True)
                    if sorted(map(len, g.neighbors)) == [1, 1, 1, 2, 3])
        target = alexander_polynomial(fork)
        real = analysis.log_concavity_check
        monkeypatch.setattr(analysis, "log_concavity_check",
                            lambda delta: delta != target and real(delta))
        q = _gram_polynomial(fork)
        hits = [g for n in range(2, 6) for g in enumerate_alternating_trees(n)
                if _gram_polynomial(g) == q]
        assert 0 < len(hits) < 125
        s = verify_theorems(5, extension_trials=3, seed=1)
        trees = 1 + 3 + 16 + 125
        for name, passed, failed in s.counters:
            if name == "log-concavity":
                assert (passed, failed) == (trees - len(hits), len(hits))
            else:
                assert failed == 0
        assert s.counterexample == "# failed check: log-concavity\n" + graph_to_text(hits[0])

    def test_a_failing_interlacing_counts_every_trial_with_its_pair(self, monkeypatch):
        # the fault is on one (f, Q) whose f another pair of its size shares
        drawn = []
        real_pair = coxeter.gram_interlacing_pair

        def drawing(small, large):
            pair = real_pair(small, large)
            drawn.append(((small.n, pair[0].coeffs, pair[1].coeffs), large))
            return pair

        monkeypatch.setattr(analysis, "gram_interlacing_pair", drawing)
        verify_theorems(5, extension_trials=10, seed=1)
        keys = list(dict.fromkeys(key for key, _ in drawn))
        target = next(k for k in keys if any(j[:2] == k[:2] and j != k for j in keys))
        hits = [large for key, large in drawn if key == target]
        real = spectra.interlace_check
        monkeypatch.setattr(analysis, "interlace_check",
                            lambda f, q: (f.coeffs, q.coeffs) != target[1:] and real(f, q))
        del drawn[:]
        s = verify_theorems(5, extension_trials=10, seed=1)
        counters = dict((name, (p, f)) for name, p, f in s.counters)
        for name in ("coxeter-interlacing", "alexander-interlacing"):
            assert counters[name] == (4 * 10 - len(hits), len(hits))
        assert s.counterexample == "# failed check: coxeter-interlacing\n" + graph_to_text(hits[0])

    def test_one_radius_order_per_distinct_pair(self, monkeypatch):
        # the seeded draws of verify_theorems, replayed: per size and trial
        # an extension pair, then a radius pair (small, large)
        rng = random.Random(4)
        drawn = []
        for n in range(2, 6):
            for _ in range(10):
                random_vertex_extension(random_alternating_tree(n, rng), rng)
                small = random_alternating_tree(n, rng)
                large = random_edge_augmentation(small, rng)
                if large.edge_count == small.edge_count:
                    large = random_vertex_extension(small, rng)
                drawn.append((n, _gram_polynomial(small).coeffs, _gram_polynomial(large).coeffs))
        cells, compared = [], []
        real, real_compare = spectra.mu_max_cell, spectra.compare_isolated_roots

        def counting(q):
            cells.append(q.coeffs)
            return real(q)

        def comparing(*args):
            compared.append(args)
            return real_compare(*args)

        monkeypatch.setattr(analysis, "mu_max_cell", counting)
        monkeypatch.setattr(analysis, "compare_isolated_roots", comparing)
        s = verify_theorems(5, extension_trials=10, seed=4)
        firsts = [key[1:] for key in dict.fromkeys(drawn)]
        assert len(compared) == len(firsts) < len(drawn)
        # one mu_max cell per distinct q of the whole call, in order of need:
        # 12 here, against 19 with one table per size and 2 * 14 per pair
        assert cells == list(dict.fromkeys(q for pair in firsts for q in pair))
        assert (len(cells), len(firsts)) == (12, 14)
        assert ("radius-monotonicity", 4 * 10, 0) in s.counters


class TestMonodromyCertificate:
    @pytest.mark.parametrize("name", fixture_names())
    def test_one_characteristic_polynomial_per_analyze(self, monkeypatch, name):
        # no graph runs Berkowitz, which only tests/matrix_oracles.py has: a
        # tree reads q off the matching recursion and a graph with a cycle
        # (paper-5, k33) off one sparse determinant of s = deg q rows, both
        # at a Kronecker point
        assert not hasattr(IntMatrix, "charpoly")
        g = fixture_graph(name)
        s = _gram_polynomial(g).degree
        sizes = []
        real_det = coxeter._sparse_det

        def counting(rows):
            sizes.append(len(rows))
            return real_det(rows)

        monkeypatch.setattr(coxeter, "_sparse_det", counting)
        analyze(g)
        assert sizes == ([] if g.edge_count == g.n - 1 else [s])

    def test_no_characteristic_polynomial_on_a_tree(self, monkeypatch):
        def forbidden(_):
            raise AssertionError("a determinant on a tree")

        assert not hasattr(IntMatrix, "charpoly")
        monkeypatch.setattr(coxeter, "_sparse_det", forbidden)
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
        slow = berkowitz(monodromy)
        rep = analyze(g)
        assert monodromy == -(c_minus @ c_plus)
        assert slow == rep.alexander == alexander_polynomial(g)
        assert rep.biorderable_implied == is_real_stable(slow)


class TestOneChainPerAnalyze:
    """analyze answers every root question on one Sturm chain, of sf(q)
    for q the Gram polynomial; see also tests/test_gram_roots.py."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_one_squarefree_part_and_one_chain(self, monkeypatch, name):
        # sf(q) and its chain take one remainder sequence when q is
        # squarefree (all fixtures but k33) and two otherwise, so a second
        # chain or squarefree part shows as one sequence too many
        g = fixture_graph(name)
        expected = gram_sequence_heads(_gram_polynomial(g))
        heads = spy_on_remainder_sequences(monkeypatch)
        analyze(g)
        assert heads == expected
        assert len(heads) == (2 if name == "k33" else 1)

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
        # every examined tree takes sf(q) and its chain once, not once per
        # step, and a leaf-removal subtree of the spot checks none: one
        # remainder sequence when q is squarefree and two otherwise.  The
        # dedup sweep goes to 8 vertices, where three trees have a q that
        # is not squarefree.  The gcds of root comparisons are not counted.
        n_max = 8 if dedup else 6
        heads = spy_on_remainder_sequences(monkeypatch)

        def uncounted(*args, real=analysis.compare_isolated_roots):
            start = len(heads)
            try:
                return real(*args)
            finally:
                del heads[start:]

        monkeypatch.setattr(analysis, "compare_isolated_roots", uncounted)
        r = min_dilatation_search(n_max, dedup=dedup)
        seen = Counter(heads)
        trees = [g for n in range(2, n_max + 1) for g in enumerate_alternating_trees(n, dedup=dedup)]
        # one chain per distinct q of the search (q fixes the size, as
        # -q_(s-1) = n - 1), looked up for every later tree with that q
        # and for the spot checks' subtrees, and one more per new best,
        # whose _Roots.of_gram builds its own: at this eps the 2-vertex
        # tree, the first, is the only one
        distinct = {_gram_polynomial(g).coeffs: g for g in reversed(trees)}.values()
        expected = [h for g in [*distinct, trees[0]]
                    for h in gram_sequence_heads(_gram_polynomial(g))]
        assert r.trees_pruned == len(trees) - 1 and r.trees_examined == len(trees)
        if dedup:
            assert len(expected) > len(distinct) + 1
        else:
            assert len(distinct) == 1 + 1 + 2 + 3 + 6
        assert seen == Counter(expected)
        assert not hasattr(analysis, "_radius_at_least")

    @pytest.fixture
    def spectra_built(self, monkeypatch) -> list[tuple[tuple[int, ...], int]]:
        calls = []
        real = spectra._Roots.of_gram

        def counting(cls, q, n):
            calls.append((q.coeffs, n))
            return real(q, n)

        monkeypatch.setattr(spectra._Roots, "of_gram", classmethod(counting))
        return calls

    @pytest.fixture
    def cells_built(self, monkeypatch) -> list[tuple[int, ...]]:
        calls = []
        real = spectra.mu_max_cell

        def counting(q):
            calls.append(q.coeffs)
            return real(q)

        monkeypatch.setattr(analysis, "mu_max_cell", counting)
        return calls

    @staticmethod
    def cell_queries(n_max: int, dedup: bool) -> list[tuple[int, ...]]:
        """The q that min-search asks mu_max_cell about, in order: each
        distinct q of the whole search at its first tree, and none for a
        leaf-removal subtree of the spot checks, whose q came before."""
        return list(dict.fromkeys(_gram_polynomial(g).coeffs for n in range(2, n_max + 1)
                                  for g in enumerate_alternating_trees(n, dedup=dedup)))

    @staticmethod
    def reference(trees: list[MixedSignCoxeterGraph], eps: Fraction) -> tuple:
        """(enclosure, graph, examined, pruned) of min-search over trees in
        the given order, by the route it replaced: every tree ranked by its
        radius cell on c's side, exactly, the earliest of a tie kept, and
        counted as pruned iff c has a root outside [-hi, hi) for the hi of
        the best before it."""
        best, pruned = None, 0
        for g in trees:
            if best is not None:
                hi, c = best[1].hi, coxeter_polynomial(g)
                assert c.eval(hi) != 0 and c.eval(-hi) != 0
                b = cauchy_bound(c)
                pruned += (sturm_count(c, RationalInterval(-b, -hi))
                           + sturm_count(c, RationalInterval(hi, b))) > 0
            witness, cell = spectra._Roots.of_gram(_gram_polynomial(g), g.n).radius_cell(eps)
            if best is None or compare_isolated_roots(witness, cell, *best[:2]) < 0:
                best = witness, cell, g
        return best[1], best[2], len(trees), pruned

    @pytest.mark.parametrize("n_max,dedup,pruned", [(6, False, (974, 8, 8, 965)),
                                                    (9, True, (86, 47, 50, 86))])
    def test_largest_trees_first_rank_as_radius_cells(self, monkeypatch, n_max, dedup, pruned):
        # the sizes walked from n_max down, so the best is replaced and hi
        # moves, and a spot check's subtree, whose size now comes after its
        # tree's, misses the cache and is isolated then
        real = analysis.enumerate_alternating_trees
        monkeypatch.setattr(analysis, "enumerate_alternating_trees",
                            lambda n, dedup: real(n_max + 2 - n, dedup=dedup))
        trees = [g for n in range(n_max, 1, -1) for g in real(n, dedup=dedup)]
        for eps, expected in zip([DEFAULT_EPSILON, F(8), F(3), F(1, 3)], pruned):
            r = min_dilatation_search(n_max, eps=eps, dedup=dedup)
            got = r.enclosure, r.graph, r.trees_examined, r.trees_pruned
            assert got == self.reference(trees, eps)
            assert r.graph.n == 2 and r.trees_pruned == expected

    # the only new best, at the default eps, and so the only _Roots.of_gram
    A2 = ((-1, 1), 2)

    @pytest.mark.parametrize("n_max,dedup", [(6, False), (8, True)])
    def test_one_spectrum_per_distinct_gram_polynomial(self, spectra_built, cells_built, n_max,
                                                        dedup):
        min_dilatation_search(n_max, dedup=dedup)
        queries = self.cell_queries(n_max, dedup)
        assert cells_built == queries
        assert spectra_built == [self.A2]
        if not dedup:
            assert len(queries) == 1 + 1 + 2 + 3 + 6

    @pytest.mark.parametrize("n_max", range(2, 7))
    def test_labeled_stdout_equals_the_per_tree_route(self, capsys, n_max):
        # the per-tree route is the reference above, in enumeration order
        trees = [g for n in range(2, n_max + 1) for g in enumerate_alternating_trees(n)]
        expected = MinSearchResult(n_max, *self.reference(trees, DEFAULT_EPSILON), 0.0)
        for flags, out in [((), expected.render_text()),
                           (("--json",), json.dumps(expected.to_json_dict()))]:
            assert main(["min-search", "--nmax", str(n_max), *flags]) == 0
            assert capsys.readouterr().out == out + "\n"

    def test_no_lookup_outlives_a_call(self, spectra_built, cells_built):
        min_dilatation_search(5)
        first = list(cells_built)
        del cells_built[:]
        min_dilatation_search(5)
        queries = self.cell_queries(5, False)
        assert cells_built == first == queries and len(queries) == 1 + 1 + 2 + 3
        assert spectra_built == [self.A2] * 2
        # neither a table nor a cache wrapper at module level
        assert not [name for name, v in vars(analysis).items()
                    if (isinstance(v, dict) or hasattr(v, "cache_info"))
                    and not name.startswith("__")]

    @pytest.mark.parametrize("eps", [F(8), F(1, 10**9), F(3), F(1, 3)])
    def test_prunes_exactly_the_trees_that_cannot_win(self, eps):
        # the 2-vertex tree is the minimum and comes first, so hi is fixed;
        # at eps = 8 and 3 it is 4, above the radius of a few trees, which
        # must then be kept
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

    def test_spot_check_reads_the_tree_s_own_cell(self, monkeypatch):
        # the path on 4 vertices made to report mu_max = 1, below the 2 of
        # its leaf-removal subtree, the path on 3: the spot check compares
        # against the tree's stored cell, so it raises on that tree
        p4 = next(g for g in enumerate_alternating_trees(4, dedup=True)
                  if max(map(len, g.neighbors)) == 2)
        target = _gram_polynomial(p4).coeffs
        real = spectra.mu_max_cell
        monkeypatch.setattr(analysis, "mu_max_cell", lambda q: (
            (P(-1, 1), RationalInterval(F(1), F(1))) if q.coeffs == target else real(q)))
        with pytest.raises(CertificationError) as info:
            min_dilatation_search(4, dedup=True)
        assert str(info.value) == "radius monotonicity violated by leaf removal\n" + graph_to_text(p4)

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
