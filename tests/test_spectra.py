"""Sturm chains, root isolation, interlacing, spectral enclosures."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlinks import spectra
from coxlinks.coxeter import alexander_polynomial, coxeter_polynomial
from coxlinks.exact import (IntPolynomial, _pseudo_rem_positive, poly_divexact, poly_gcd,
                            squarefree_part)
from coxlinks.fixtures import fixture_graph, fixture_names
from coxlinks.graphs import (adjacency_matrix, enumerate_alternating_trees,
                             random_alternating_tree, random_edge_augmentation,
                             random_vertex_extension)
from coxlinks.spectra import (
    DEFAULT_EPSILON,
    RationalInterval,
    _Roots,
    cauchy_bound,
    compare_isolated_roots,
    interlace_check,
    is_real_rooted,
    is_real_stable,
    max_real_root,
    spectral_radius_enclosure,
)

from root_oracles import (isolate_real_roots, isolate_squarefree, root_in, separate,
                          squarefree_decomposition, sturm_count)
from test_coxeter import seeded_graphs_with_cycles

F = Fraction


def P(*coeffs):
    return IntPolynomial(coeffs)


def contains_golden_ratio_squared(iv: RationalInterval) -> bool:
    """Exact test that (3 + sqrt 5)/2 lies in [iv.lo, iv.hi]."""
    lo_ok = (y := 2 * iv.lo - 3) <= 0 or y * y <= 5
    hi_ok = (z := 2 * iv.hi - 3) >= 0 and z * z >= 5
    return lo_ok and hi_ok


class TestSturmCount:
    def test_distinct_roots_in_interval(self):
        assert sturm_count(P(1, -3, 1), RationalInterval(F(0), F(3))) == 2
        assert sturm_count(P(1, -3, 1), RationalInterval(F(0), F(1))) == 1
        assert sturm_count(P(1, 0, 1), RationalInterval(F(-10), F(10))) == 0

    def test_counts_distinct_not_multiplicity(self):
        assert sturm_count(P(1, -2, 1), RationalInterval(F(0), F(2))) == 1

    def test_half_open_endpoints(self):
        p = P(-1, 1)   # root 1
        assert sturm_count(p, RationalInterval(F(0), F(1))) == 1   # (0, 1]
        assert sturm_count(p, RationalInterval(F(1), F(2))) == 0   # (1, 2]

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            sturm_count(P(), RationalInterval(F(0), F(1)))


class TestCauchyBound:
    def test_bounds_all_real_roots(self):
        for p in (P(1, -3, 1), P(-6, 1, 1), P(1, 10, 27, 27, 10, 1)):
            b = cauchy_bound(p)
            assert sturm_count(p, RationalInterval(-b, b)) == \
                len(isolate_real_roots(p, F(1)).roots)


class TestIsolation:
    def test_quadratic(self):
        iso = isolate_real_roots(P(1, 3, 1), F(1, 10**6))
        assert [m for _, m in iso.roots] == [1, 1]
        (l1, _), (l2, _) = iso.roots
        assert abs(float(l1.midpoint) - (-2.618033988749895)) < 2e-6
        assert abs(float(l2.midpoint) - (-0.3819660112501051)) < 2e-6
        assert l1.width <= F(1, 10**6) and l2.width <= F(1, 10**6)

    def test_intervals_ascending_and_disjoint(self):
        iso = isolate_real_roots(P(1, 10, 27, 27, 10, 1), F(1, 10**6))
        ivs = [iv for iv, _ in iso.roots]
        assert len(ivs) == 5
        assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))

    def test_rational_root_hit_exactly(self):
        # -1 is a root of the 5-vertex fixture polynomial
        c5 = P(1, 10, 27, 27, 10, 1)
        assert c5.eval(-1) == 0
        iso = isolate_real_roots(c5, F(1, 10**6))
        assert any(iv.contains(F(-1)) for iv, _ in iso.roots)
        assert all(iv.hi < 0 for iv, _ in iso.roots)

    def test_multiplicities(self):
        iso = isolate_real_roots(P(0, 0, 0, 0, -9, 0, 1), F(1, 100))
        assert [m for _, m in iso.roots] == [1, 4, 1]
        assert iso.roots[1][0].contains(F(0))
        assert iso.total_multiplicity == 6

    def test_no_real_roots(self):
        assert isolate_real_roots(P(1, 0, 1), F(1, 100)).roots == ()

    def test_point_roots_reported_as_points(self):
        iso = isolate_real_roots(P(-2, 1), F(1, 100))
        ((iv, m),) = iso.roots
        assert m == 1 and iv.contains(F(2))


@contextmanager
def within_seconds(seconds):
    """Fail, by SIGALRM, a block that runs longer than seconds."""
    def hung(*_):
        raise AssertionError(f"no error within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestHalvingBound:
    """The bisection and gap-search loops stop at a width derived from
    Mahler's root-separation bound."""

    def test_close_roots_stay_inside_the_bound(self):
        k = 1 << 40
        iso = isolate_real_roots(P(-k, k) * P(-k - 1, k), F(1, 1 << 50))
        assert [iv.contains(F(1)) for iv, _ in iso.roots] == [True, False]
        # three roots around a midpoint root: the gap search goes to 2^-50
        iso = isolate_real_roots(P(0, -1, 0, 1 << 100))
        assert len(iso.roots) == 3 and iso.roots[1][0] == RationalInterval(F(0), F(0))

    def test_wrong_chain_raises_instead_of_hanging(self, monkeypatch):
        def unsigned_remainders(a, b):
            # _signed_remainders with the remainder sign flipped
            seq = [a, b]
            while not seq[-1].is_zero and seq[-1].degree > 0:
                rem = _pseudo_rem_positive(seq[-2], seq[-1])
                if rem.is_zero:
                    break
                g = rem.content()
                seq.append(IntPolynomial(c // g for c in rem.coeffs))
            if seq[-1].is_zero:
                seq.pop()
            return seq

        monkeypatch.setattr(spectra, "_signed_remainders", unsigned_remainders)
        lehmer = coxeter_polynomial(fixture_graph("e10-classical"))
        gap_case = prod((P(-r, 1) for r in (0, 6, -2, 1, -1)), start=P(1, 0, 1))
        with within_seconds(20):
            for call in (lambda: isolate_real_roots(lehmer), lambda: max_real_root(lehmer),
                         lambda: isolate_real_roots(gap_case)):
                with pytest.raises(RuntimeError, match="halving bound"):
                    call()


class TestRealRootedAndStable:
    def test_real_rooted(self):
        assert is_real_rooted(P(1, -3, 1))
        assert is_real_rooted(P(1, 3, 1))
        assert is_real_rooted(P(1, -2, 1))
        assert not is_real_rooted(P(1, 1, 1))
        assert not is_real_rooted(P(1, 0, 1))

    def test_real_stable_requires_positive_roots(self):
        assert is_real_stable(P(1, -3, 1))     # both roots positive
        assert not is_real_stable(P(1, 3, 1))  # both roots negative
        assert not is_real_stable(P(1, 0, 1))  # complex
        assert not is_real_stable(P(0, 1))     # root 0 is not positive
        assert is_real_stable(P(1, -2, 1))     # double root 1

    def test_alternating_fixture_polynomials(self):
        for name in ("a2", "p3-alt", "paper-5", "p5", "k33"):
            g = fixture_graph(name)
            assert is_real_stable(alexander_polynomial(g))
            assert not is_real_stable(coxeter_polynomial(g))


class TestMaxRootAndRadius:
    def test_max_real_root(self):
        mr = max_real_root(P(1, -3, 1), F(1, 10**9))
        assert abs(float(mr.midpoint) - 2.618033988749895) < 1e-8
        assert mr.width <= F(1, 10**9)
        assert max_real_root(P(5, 1), F(1, 10**6)).contains(F(-5))
        with pytest.raises(ValueError):
            max_real_root(P(1, 0, 1))

    def test_lehmer_root(self):
        c = coxeter_polynomial(fixture_graph("e10-classical"))
        mr = max_real_root(c, F(1, 10**12))
        assert abs(float(mr.midpoint) - 1.176280818259917506544) < 1e-11

    def test_radius_golden_exact_containment(self):
        r = spectral_radius_enclosure(P(1, 3, 1), F(1, 10**9))
        assert r.width <= F(1, 10**9)
        assert contains_golden_ratio_squared(r)

    def test_radius_of_linear(self):
        r = spectral_radius_enclosure(P(-1, 1), F(1, 10**6))
        assert r.contains(F(1))

    def test_radius_of_five_vertex_fixture(self):
        c5 = coxeter_polynomial(fixture_graph("paper-5"))
        r = spectral_radius_enclosure(c5, F(1, 10**9))
        assert abs(float(r.midpoint) - 6.40543540040998) < 1e-8

    def test_radius_needs_real_rooted_input(self):
        with pytest.raises(ValueError):
            spectral_radius_enclosure(P(1, 0, 1))

    def test_min_root_interval(self):
        iv, _ = isolate_real_roots(P(1, 3, 1), F(1, 10**6)).roots[0]
        assert abs(float(iv.midpoint) - (-2.618033988749895)) < 2e-6


def full_isolation_max_root(p, eps):
    """Reference for max_real_root: isolate every root, refine the top one."""
    sf = squarefree_part(p)
    intervals = isolate_squarefree(spectra._SturmChain(sf))
    if not intervals:
        raise ValueError("polynomial has no real roots")
    return spectra._refine(sf, intervals[-1], eps)


def fold_witness(p, eps):
    """Reference radius witness: the top root of sf(t) * sf(-t), isolated
    in full."""
    sf = squarefree_part(p)
    folded = squarefree_part(sf * sf.mirror())
    return folded, full_isolation_max_root(folded, eps)


def fold_radius_enclosure(p, eps):
    """Reference for spectral_radius_enclosure: the fold route."""
    if not is_real_rooted(p):
        raise ValueError("spectral radius enclosure needs a real-rooted polynomial")
    sf = squarefree_part(p)
    iv = full_isolation_max_root(sf * sf.mirror(), eps)
    return RationalInterval(max(F(0), iv.lo), max(F(0), iv.hi))


def own_chain_top_cell(p, eps):
    """Reference for the read of sf(-t)'s chain as one of sf: the descent
    on sf's own chain, which max_real_root ran before."""
    sf = squarefree_part(p)
    bound = cauchy_bound(sf)
    cell = spectra._top_cell(spectra._SturmChain(sf), -bound, bound)
    return None if cell is None else spectra._refine(sf, cell, eps)


def dyadic_product(factors):
    """Product of (2^k t - a) over (a, k): real-rooted, roots a / 2^k."""
    p = P(1)
    for a, k in factors:
        p = p * P(-a, 1 << k)
    return p


DYADIC_FACTORS = st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 3)),
                          min_size=1, max_size=6)
EPSILONS = st.sampled_from([F(1, 2), F(1, 1 << 10), F(1, 3), DEFAULT_EPSILON])


def sample_coxeter_polynomials():
    """Alternating trees with n <= 8, one per class, and seeded random
    graphs with cycles and vertex extensions up to n = 14."""
    polys = [coxeter_polynomial(g) for n in range(2, 9)
             for g in enumerate_alternating_trees(n, dedup=True)]
    rng = random.Random(2015)
    for _ in range(30):
        g = random_alternating_tree(rng.randint(3, 12), rng)
        g = random_edge_augmentation(g, rng)
        if rng.random() < 0.5:
            g = random_vertex_extension(random_edge_augmentation(g, rng), rng)
        polys.append(coxeter_polynomial(g))
    return polys


class TestFastPathsAgainstOracles:
    """The top-down descent and the half-degree radius route against the
    full-isolation routes they replace."""

    @given(DYADIC_FACTORS, st.sampled_from([P(1), P(1, 0, 1), P(-2, 0, 1), P(1, 3, 1)]),
           EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_descent_matches_full_isolation_on_dyadic_products(self, factors, extra, eps):
        # dyadic roots land on bisection midpoints, so the branch that
        # steps around a midpoint root runs as well
        p = dyadic_product(factors) * extra
        assert max_real_root(p, eps) == full_isolation_max_root(p, eps)
        witness, cell = _Roots(p).radius_cell(eps)
        folded, fold_cell = fold_witness(p, eps)
        if is_real_rooted(p):
            assert cell == fold_cell
            assert spectral_radius_enclosure(p, eps) == fold_radius_enclosure(p, eps)
        else:
            # complex roots shared by sf(t) and sf(-t) change the fold's
            # root bound, so only the enclosed root is the same
            assert compare_isolated_roots(witness, cell, folded, fold_cell) == 0
            with pytest.raises(ValueError):
                spectral_radius_enclosure(p, eps)

    @given(DYADIC_FACTORS, st.sampled_from([P(1), P(1, 0, 1), P(-2, 0, 1), P(1, 3, 1)]),
           EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_mirrored_read_matches_own_chain_on_dyadic_products(self, factors, extra, eps):
        # midpoint roots on both sides of 0 run the step around a root
        p = dyadic_product(factors) * extra
        for q in (p, p.mirror(), P(1, 0, 1)):
            assert _Roots(q).max_root_cell(eps) == own_chain_top_cell(q, eps)

    def test_mirrored_read_matches_own_chain_on_coxeter_polynomials(self):
        # c has negative roots and its mirror, +-Delta, positive ones
        polys = [coxeter_polynomial(fixture_graph(name)) for name in fixture_names()]
        for c in polys + sample_coxeter_polynomials():
            for q in (c, c.mirror()):
                for eps in (DEFAULT_EPSILON, F(1, 4), F(8)):
                    cell = _Roots(q).max_root_cell(eps)
                    assert cell == own_chain_top_cell(q, eps)

    def test_max_real_root_matches_full_isolation_on_fixtures(self):
        polys = [coxeter_polynomial(fixture_graph(name)) for name in fixture_names()]
        polys += [P(0, 1), P(0, -1, 0, 1), P(-1, 1) * P(-1, 1) * P(0, 1)]
        for p in polys:
            for eps in (DEFAULT_EPSILON, F(1, 4), F(8)):
                assert max_real_root(p, eps) == full_isolation_max_root(p, eps)
        with pytest.raises(ValueError):
            max_real_root(P(7))

    def test_radius_matches_fold_on_graphs(self):
        for c in sample_coxeter_polynomials():
            for eps in (DEFAULT_EPSILON, F(1, 1 << 10)):
                assert spectral_radius_enclosure(c, eps) == fold_radius_enclosure(c, eps)
                witness, cell = _Roots(c).radius_cell(eps)
                assert cell == fold_witness(c, eps)[1]
                assert root_in(witness, cell)

    def test_radius_with_nonnegative_roots_keeps_fold(self):
        for p in (P(-1, 1), P(0, 1), P(0, 0, 1), P(-4, 0, 1), P(1, 3, 1) * P(0, 1),
                  P(-3, 1) * P(5, 1) * P(2, 1)):
            for eps in (DEFAULT_EPSILON, F(1, 2), F(4)):
                assert spectral_radius_enclosure(p, eps) == fold_radius_enclosure(p, eps)
                assert _Roots(p).radius_cell(eps) == fold_witness(p, eps)

    def test_negative_spectrum_radius_builds_no_double_degree_chain(self, monkeypatch):
        degrees = []

        class SpyChain(spectra._SturmChain):
            def __init__(self, sf):
                degrees.append(sf.degree)
                super().__init__(sf)

        monkeypatch.setattr(spectra, "_SturmChain", SpyChain)
        for c in [P(1, 3, 1), P(2, 1) * P(3, 1) * P(5, 1)] + [
                coxeter_polynomial(fixture_graph(name))
                for name in ("a2", "p3-alt", "paper-5", "p5", "k33")]:
            degrees.clear()
            spectral_radius_enclosure(c, DEFAULT_EPSILON)
            assert degrees and max(degrees) <= c.degree


def yun_loop_real_rooted(p):
    """Reference for is_real_rooted: one Sturm chain per Yun factor."""
    for f, _ in squarefree_decomposition(p):
        b = cauchy_bound(f)
        if spectra._SturmChain(f).count(-b, b) != f.degree:
            return False
    return True


def yun_loop_real_stable(p):
    """Reference for is_real_stable: one Sturm chain per Yun factor."""
    for f, _ in squarefree_decomposition(p):
        if spectra._SturmChain(f).count(F(0), cauchy_bound(f)) != f.degree:
            return False
    return True


# factors without real roots, or with irrational ones, of degree 0 or 2
EXTRA_FACTORS = (P(1), P(1, 0, 1), P(1, 1, 1), P(5, -2, 1), P(-2, 0, 1), P(1, 3, 1))


@st.composite
def polynomials_with_repeats(draw):
    """Dyadic products (repeated roots are common) times factors with
    complex or irrational roots."""
    p = dyadic_product(draw(DYADIC_FACTORS))
    for extra in draw(st.lists(st.sampled_from(EXTRA_FACTORS), max_size=2)):
        p = p * extra
    return p


@st.composite
def interlacing_candidates(draw):
    """(p, q) with deg q = deg p + 1, often interlacing.  Either p has
    repeated and complex roots and q is p times one more dyadic root, or
    the roots of q are drawn in eighths, each root of p from between two
    neighbouring roots of q, a root of p may be moved outside, and both
    sides may pick up factors of equal degree with complex or irrational
    roots."""
    if draw(st.booleans()):
        p = draw(polynomials_with_repeats())
        return p, p * dyadic_product([draw(st.tuples(st.integers(-12, 12), st.integers(0, 3)))])
    q_roots = sorted(draw(st.lists(st.integers(-24, 24), min_size=1, max_size=6)))
    p_roots = [draw(st.integers(a, b)) for a, b in zip(q_roots, q_roots[1:])]
    if p_roots and draw(st.booleans()):
        p_roots[draw(st.integers(0, len(p_roots) - 1))] = draw(st.integers(-30, 30))
    p = dyadic_product((r, 3) for r in p_roots)
    q = dyadic_product((r, 3) for r in q_roots)
    extra = draw(st.sampled_from(EXTRA_FACTORS))
    return p * extra, q * draw(st.sampled_from([e for e in EXTRA_FACTORS
                                                if e.degree == extra.degree]))


def interlace_outcome(p, q):
    try:
        return interlace_check(p, q)
    except ValueError as e:
        return str(e)


class TestOneDecisionPerRootQuestion:
    """Real-rootedness, real stability and interlacing decided once, on
    one squarefree part per polynomial, against the Yun-loop routes and
    the mirrored pair."""

    @given(polynomials_with_repeats())
    @settings(max_examples=200, deadline=None)
    def test_real_rooted_and_stable_match_yun_loop(self, p):
        for r in (p, p.mirror(), -p):
            assert is_real_rooted(r) == yun_loop_real_rooted(r)
            assert is_real_stable(r) == yun_loop_real_stable(r)

    def test_real_rooted_and_stable_match_yun_loop_on_graphs(self):
        polys = sample_coxeter_polynomials()
        polys += [alexander_polynomial(g) for g in seeded_graphs_with_cycles()]
        polys += [coxeter_polynomial(fixture_graph(name)) for name in fixture_names()]
        for p in polys + [P(3), P(0, 1), P(0, 0, 1, 1)]:
            assert is_real_rooted(p) == yun_loop_real_rooted(p)
            assert is_real_stable(p) == yun_loop_real_stable(p)

    @given(interlacing_candidates())
    @settings(max_examples=200, deadline=None)
    def test_mirrored_pair_gives_same_verdict(self, pair):
        p, q = pair
        outcome = interlace_outcome(p, q)
        assert interlace_outcome(p.mirror(), q.mirror()) == outcome
        assert interlace_outcome(-p.mirror(), q.mirror()) == outcome
        if outcome in (True, False):
            assert is_real_rooted(p) and is_real_rooted(q)
        else:
            assert outcome == "interlacing is defined for real-rooted polynomials"
            assert not (is_real_rooted(p) and is_real_rooted(q))

    def test_coxeter_and_alexander_verdicts_agree_on_extensions(self):
        rng = random.Random(7)
        verdicts = set()
        for g in seeded_graphs_with_cycles():
            ext = random_vertex_extension(g, rng)
            outcome = interlace_outcome(coxeter_polynomial(g), coxeter_polynomial(ext))
            assert interlace_outcome(alexander_polynomial(g),
                                     alexander_polynomial(ext)) == outcome
            verdicts.add(outcome)
        assert verdicts == {True}

    def test_interlace_check_isolates_no_root(self, monkeypatch):
        chains = []

        class SpyChain(spectra._SturmChain):
            def __init__(self, sf):
                chains.append(sf)
                super().__init__(sf)

        monkeypatch.setattr(spectra, "_SturmChain", SpyChain)
        # the isolation routes live in tests/root_oracles.py, out of reach
        assert not hasattr(spectra, "squarefree_decomposition")
        assert not hasattr(spectra, "_isolate_squarefree")
        p5 = adjacency_matrix(fixture_graph("p5")).charpoly()
        k33 = adjacency_matrix(fixture_graph("k33")).charpoly()
        pairs = [(coxeter_polynomial(fixture_graph("a2")),
                  coxeter_polynomial(fixture_graph("p3-alt"))),
                 (p5, k33), (P(1, -2, 1), P(0, 1, -2, 1)), (P(1, 0, 1), P(1, 1, 0, 1))]
        outcomes = []
        for p, q in pairs:
            chains.clear()
            outcomes.append(interlace_outcome(p, q))
            if outcomes[-1] is True:
                # at most one chain, on the mirrored squarefree part of the gcd
                assert chains in ([], [squarefree_part(poly_gcd(p, q)).mirror()])
        assert outcomes == [True, False, True,
                            "interlacing is defined for real-rooted polynomials"]


def roots_outside(p, h):
    """Reference for _Roots.outside: the distinct real roots r of p with
    r >= h or r < -h, read off the full isolation."""
    iso = isolate_real_roots(p)
    sf = iso.squarefree

    def at_least(iv, x):
        # the root in iv is >= x; a non-point cell's ends are not roots
        if iv.is_point:
            return iv.lo >= x
        if not iv.lo < x < iv.hi:
            return x <= iv.lo
        s = sf.eval_sign(x)
        return s == 0 or s != sf.eval_sign(iv.hi)

    return sum(at_least(iv, h) or not at_least(iv, -h) for iv, _ in iso.roots)


class TestPruneCount:
    """The min-search prune count, _Roots(p).outside(h), against the
    full isolation."""

    def test_prune_count_at_and_between_roots(self):
        p = P(-1, 1) * P(2, 1) * P(-3, 2) * P(5, 4) * P(1, 0, 1)  # 1, -2, 3/2, -5/4
        cases = {F(1): 4, F(2): 0, F(3, 2): 2, F(5, 4): 2, F(9, 8): 3,
                 F(7, 4): 1, F(5, 2): 0, F(1, 2): 4}
        for h, expected in cases.items():
            assert _Roots(p).outside(h) == roots_outside(p, h) == expected

    @given(DYADIC_FACTORS, st.sampled_from(EXTRA_FACTORS))
    @settings(max_examples=100, deadline=None)
    def test_prune_count_on_dyadic_products(self, factors, extra):
        # h at a root, at the negative of one, between their moduli and
        # past them all
        p = dyadic_product(factors) * extra
        moduli = sorted({abs(F(a, 1 << k)) for a, k in factors} - {0}) or [F(1)]
        hs = moduli + [(x + y) / 2 for x, y in zip(moduli, moduli[1:])]
        for h in hs + [F(1, 3), moduli[-1] + 1]:
            assert _Roots(p).outside(h) == roots_outside(p, h)

    def test_prune_count_on_fixtures(self):
        # c has negative roots, among them -1 when n > 2s, and its mirror
        # positive ones
        for name in fixture_names():
            c = coxeter_polynomial(fixture_graph(name))
            for q in (c, c.mirror()):
                for h in (F(1, 2), F(1), F(2), F(2618, 1000), F(2619, 1000), F(3), F(4)):
                    assert _Roots(q).outside(h) == roots_outside(q, h)


def merged_isolation_interlace(p, q):
    """Reference for interlace_check: isolate every root of
    sf(p) * sf(q) / gcd by bisection and compare the two root lists,
    repeated per multiplicity, as indices into the merged cells."""
    if p.is_zero or q.is_zero:
        raise ValueError("interlacing needs nonzero polynomials")
    if q.degree != p.degree + 1:
        raise ValueError("degree mismatch: expected deg q = deg p + 1")
    dec_p, dec_q = squarefree_decomposition(p), squarefree_decomposition(q)
    sfp = prod((f for f, _ in dec_p), start=P(1))
    sfq = prod((f for f, _ in dec_q), start=P(1))
    union = sfp * poly_divexact(sfq, poly_gcd(sfp, sfq))
    intervals = separate(union, isolate_squarefree(spectra._SturmChain(union)))
    alpha, beta = [], []
    for idx, iv in enumerate(intervals):
        for sf, dec, roots in ((sfp, dec_p, alpha), (sfq, dec_q, beta)):
            if root_in(sf, iv):
                roots.extend([idx] * next(m for f, m in dec if root_in(f, iv)))
    if len(alpha) != p.degree or len(beta) != q.degree:
        raise ValueError("interlacing is defined for real-rooted polynomials")
    return all(beta[i] <= alpha[i] <= beta[i + 1] for i in range(len(alpha)))


def reference_outcome(p, q):
    try:
        return merged_isolation_interlace(p, q)
    except ValueError as e:
        return str(e)


class TestInterlacingAgainstMergedIsolation:
    """The gcd and Sturm-Sylvester verdict against the merged-product
    isolation it replaced: same verdict or the same ValueError."""

    @given(interlacing_candidates())
    @settings(max_examples=300, deadline=None)
    def test_candidate_pairs_and_mirrors(self, pair):
        p, q = pair
        for a, b in ((p, q), (p.mirror(), q.mirror()), (-p, q), (p, -q.mirror())):
            assert interlace_outcome(a, b) == reference_outcome(a, b)

    def test_contract_errors(self):
        for p, q in ((P(), P(0, 1)), (P(1), P()), (P(1, 3, 1), P(1, 3, 1)), (P(0, 1), P(1))):
            assert interlace_outcome(p, q) == reference_outcome(p, q)
            assert isinstance(interlace_outcome(p, q), str)

    def test_graph_extension_pairs(self):
        rng = random.Random(11)
        pairs = [(g, random_vertex_extension(g, rng)) for g in seeded_graphs_with_cycles()]
        pairs += [(g, random_vertex_extension(g, rng)) for n in range(2, 11)
                  for g in enumerate_alternating_trees(n, dedup=True)]
        outcomes = set()
        for small, large in pairs:
            p, q = coxeter_polynomial(small), coxeter_polynomial(large)
            outcome = interlace_outcome(p, q)
            assert outcome == reference_outcome(p, q)
            outcomes.add(outcome)
        assert outcomes == {True}

    def test_unrelated_tree_pairs(self):
        rng = random.Random(12)
        outcomes = []
        for _ in range(240):
            n = rng.randint(2, 12)
            p = coxeter_polynomial(random_alternating_tree(n, rng))
            q = coxeter_polynomial(random_alternating_tree(n + 1, rng))
            outcomes.append(interlace_outcome(p, q))
            assert outcomes[-1] == reference_outcome(p, q)
        # both verdicts occur, so the comparison is not vacuous
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


class TestRootCountsAgainstSympy:
    """Distinct real-root counts from Sturm chains and full isolation
    against sympy's Poly.count_roots and real_roots."""

    def test_counts_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        polys = [f(fixture_graph(name)) for name in ("a2", "p3-alt", "paper-5", "p5", "k33")
                 for f in (coxeter_polynomial, alexander_polynomial)]
        polys.append(coxeter_polynomial(fixture_graph("e10-classical")))
        for g in seeded_graphs_with_cycles(20):
            polys += [coxeter_polynomial(g), alexander_polynomial(g)]
        polys += [P(0, 0, 0, 0, -9, 0, 1), P(1, -2, 1) * P(1, 0, 1) * P(2, 1)]
        for p in polys:
            ref = sympy.Poly(list(reversed(p.coeffs)), t)
            b = cauchy_bound(p)
            for hi in (-1, b):
                # (-b, hi] holds the same roots as the closed [-b, hi]
                assert sturm_count(p, RationalInterval(-b, F(hi))) == \
                    ref.count_roots(sympy.Rational(-b), sympy.Rational(hi))
            iso = isolate_real_roots(p, F(1, 1 << 10))
            assert len(iso.roots) == ref.count_roots()
            assert iso.total_multiplicity == len(sympy.real_roots(ref))
            # sympy's own isolating cells, as narrow as ours: the k-th
            # cells of the two must meet and carry the same multiplicity
            cells = ref.intervals(eps=sympy.Rational(1, 1 << 10))
            assert [m for _, m in iso.roots] == [m for _, m in cells]
            for (iv, _), ((a, b), _) in zip(iso.roots, cells):
                assert F(int(a.p), int(a.q)) <= iv.hi and iv.lo <= F(int(b.p), int(b.q))


class TestInterlacing:
    def test_fixture_extensions_interlace(self):
        a2, p3 = fixture_graph("a2"), fixture_graph("p3-alt")
        assert interlace_check(coxeter_polynomial(a2), coxeter_polynomial(p3)) is True
        assert interlace_check(alexander_polynomial(a2), alexander_polynomial(p3)) is True

    def test_adjacency_remark_pair_does_not_interlace(self):
        p5 = adjacency_matrix(fixture_graph("p5")).charpoly()
        k33 = adjacency_matrix(fixture_graph("k33")).charpoly()
        assert interlace_check(p5, k33) is False

    def test_shared_root_allowed(self):
        assert interlace_check(P(-1, 1), P(3, -4, 1)) is True        # 1 vs {1, 3}
        assert interlace_check(P(1, -2, 1), P(0, 1, -2, 1)) is True  # (t-1)^2 vs t(t-1)^2

    def test_violations_detected(self):
        assert interlace_check(P(2, -3, 1), P(0, 0, -5, 1)) is False

    def test_degree_contract(self):
        with pytest.raises(ValueError, match="degree"):
            interlace_check(P(1, 3, 1), P(1, 3, 1))

    def test_complex_roots_rejected(self):
        with pytest.raises(ValueError):
            interlace_check(P(1, 0, 1), P(1, 1, 0, 1))
        # a shared factor without real roots leaves a full index on the
        # quotients, so only the check on the gcd rejects these
        for g in (P(1, 0, 1), P(1, 1, 1) * P(1, 1, 1), P(5, -2, 1) * P(-1, 1)):
            for p, q in ((g, g * P(-1, 1)), (g * P(3, 1), g * P(2, 1) * P(4, 1))):
                with pytest.raises(ValueError, match="real-rooted"):
                    interlace_check(p, q)


class TestCompareIsolatedRoots:
    def test_orders_distinct_roots(self):
        sf1, i1 = P(1, -3, 1), max_real_root(P(1, -3, 1), F(1, 100))
        sf2, i2 = P(-1, 1), max_real_root(P(-1, 1), F(1, 100))
        assert compare_isolated_roots(sf1, i1, sf2, i2) == 1
        assert compare_isolated_roots(sf2, i2, sf1, i1) == -1

    def test_same_root_same_polynomial(self):
        sf, iv = P(1, -3, 1), max_real_root(P(1, -3, 1), F(1, 100))
        assert compare_isolated_roots(sf, iv, sf, iv) == 0

    def test_equal_roots_across_polynomials(self):
        sf3, i3 = P(-2, 1), max_real_root(P(-2, 1), F(1, 4))
        sf4, i4 = P(-6, 1, 1), max_real_root(P(-6, 1, 1), F(1, 4))
        assert compare_isolated_roots(sf3, i3, sf4, i4) == 0

    def test_close_but_unequal_roots(self):
        # sqrt(2) vs 141421356/10**8: closer than the initial enclosures
        a = P(-2, 0, 1)
        b = P(-141421356, 10**8)
        ia = max_real_root(a, F(1, 4))
        ib = max_real_root(b, F(1, 4))
        assert compare_isolated_roots(a, ia, b, ib) == 1
        # sqrt(2) - 7071/5000 is 1.4e-5, below the halving floor 2^-9 of
        # x^2 - 2 alone: the floor is the lcm's, not the larger chain's
        b = P(-7071, 5000)
        ib = max_real_root(b, F(1, 4))
        assert not (ia.is_point or ib.is_point)
        assert spectra._SturmChain(a).min_width == F(1, 1 << 9)
        assert compare_isolated_roots(a, ia, b, ib) == 1
        assert compare_isolated_roots(b, ib, a, ia) == -1

    def test_rootless_cells_raise_instead_of_hanging(self):
        # neither x^2 - 2 nor x - 5 has a root in [3, 4]
        cell = RationalInterval(F(3), F(4))
        with within_seconds(20):
            with pytest.raises(RuntimeError, match="halving bound"):
                compare_isolated_roots(P(-2, 0, 1), cell, P(-5, 1), cell)


class TestRationalInterval:
    def test_basic_properties(self):
        iv = RationalInterval(F(1, 2), F(3, 4))
        assert iv.width == F(1, 4)
        assert iv.midpoint == F(5, 8)
        assert not iv.is_point
        assert iv.contains(F(2, 3))
        assert not iv.contains(F(1))
        assert RationalInterval(F(1), F(1)).is_point
