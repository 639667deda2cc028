"""Sturm chains, root isolation, interlacing, spectral enclosures."""

import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlinks import exact, spectra
from coxlinks.analysis import analyze, min_dilatation_search
from coxlinks.coxeter import alexander_polynomial, coxeter_polynomial
from coxlinks.exact import (IntPolynomial, _pseudo_division, poly_divexact, poly_gcd,
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

from root_oracles import (HornerChain, as_cell, as_interval, compare_by_fractions,
                          gram_sequence_heads, isolate_real_roots, isolate_squarefree, point,
                          refine_by_fractions, root_in, separate, sign, spy_on_remainder_sequences,
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
        def unsigned_steps(a, b, quotients=True):
            # _remainder_steps with the remainder sign flipped, in the
            # entries and in the recurrence that reads them
            while b.degree > 0:
                q, m, rem = _pseudo_division(a, b)
                if rem.is_zero:
                    return
                g = rem.content()
                a, b = b, IntPolynomial(c // g for c in rem.coeffs)
                yield q, m, -g, b

        # every chain takes its entries from here: spectra's, and the
        # oracle's through exact._signed_remainders
        monkeypatch.setattr(spectra, "_remainder_steps", unsigned_steps)
        monkeypatch.setattr(exact, "_remainder_steps", unsigned_steps)
        lehmer = coxeter_polynomial(fixture_graph("e10-classical"))
        gap_case = prod((P(-r, 1) for r in (0, 6, -2, 1, -1)), start=P(1, 0, 1))
        with within_seconds(20):
            for call in (lambda: isolate_real_roots(lehmer), lambda: max_real_root(lehmer),
                         lambda: isolate_real_roots(gap_case)):
                with pytest.raises(RuntimeError, match="halving bound"):
                    call()


INT_POLYS = st.lists(st.integers(-50, 50), min_size=1, max_size=9).map(IntPolynomial)
# dyadic points, 0, and rationals with odd denominators
READ_POINTS = [F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(5, 1 << 20), F(-7, 3), F(2, 9),
               F(1234567, 1 << 30), F(10 ** 6, 7)]


def assert_readings_match_horner(chain, points):
    """Every entry of every reading, by the quotient recurrence, against
    the Horner oracle, and the memoized reading against its summary."""
    oracle = HornerChain(chain.poly)
    for x in points:
        values = chain.values(point(x))
        assert values == oracle.values(x), x
        nonzero = [v > 0 for v in values if v]
        assert chain._reading(point(x)) == (sum(a != b for a, b in zip(nonzero, nonzero[1:])),
                                            values[0] == 0)


class TestQuotientRecurrence:
    """_SturmChain reads every entry past sf' by g_i V_(i+1) b^(drop) =
    Q_i(a, b) V_i - M_i V_(i-1); exact.IntPolynomial.eval by Horner's rule
    is the oracle."""

    @given(INT_POLYS.filter(lambda p: p.degree > 0))
    @settings(max_examples=200, deadline=None)
    def test_pseudo_quotient_identity(self, p):
        # step i divides a = p_(i-1) by b = p_i with remainder R = -g p_(i+1)
        sf = squarefree_part(p)
        chain, entries = spectra._SturmChain(sf), HornerChain(sf).entries
        assert len(entries) == len(chain.steps) + 2
        for (q, m, g, drop), (a, b, p) in zip(chain.steps, zip(entries, entries[1:], entries[2:])):
            d = a.degree - b.degree
            assert m == abs(b.lead) ** (d + 1) > 0 and g > 0
            assert q.degree == d and drop == a.degree - p.degree and p.degree < b.degree
            assert m * a == q * b - g * p

    @given(INT_POLYS, INT_POLYS.filter(lambda b: not b.is_zero))
    @settings(max_examples=200, deadline=None)
    def test_pseudo_division_reads_the_quotient(self, a, b):
        # m a = q b + r with m = |lc|^e, e = max(d + 1, 0), and deg r < deg b:
        # as m > 0, r is a positive multiple of the true remainder
        q, m, rem = _pseudo_division(a, b)
        e = max(a.degree - b.degree + 1, 0)
        assert m == abs(b.lead) ** e and rem.degree < b.degree and q.degree == e - 1
        assert m * a == q * b + rem

    @given(INT_POLYS, INT_POLYS.filter(lambda b: not b.is_zero))
    @settings(max_examples=200, deadline=None)
    def test_remainders_alone_are_the_chain_entries(self, a, b):
        # poly_gcd, squarefree_part and interlace_check build no quotient,
        # and take the entries and contents that the Sturm chain takes
        full = list(exact._remainder_steps(a, b))
        bare = list(exact._remainder_steps(a, b, quotients=False))
        assert [(g, p) for _, _, g, p in bare] == [(g, p) for _, _, g, p in full]
        assert all(q is None and m is None for q, m, _, _ in bare)

    @given(INT_POLYS.filter(lambda p: p.degree > 0))
    @settings(max_examples=150, deadline=None)
    def test_readings_match_horner(self, p):
        sf = squarefree_part(p)
        assert_readings_match_horner(spectra._SturmChain(sf), READ_POINTS)

    def test_points_where_an_entry_vanishes(self):
        # t^3 - t: p_0 vanishes at -1, 0, 1 and p_2 = t at 0.  (t + 4)(t + 1)
        # (t - 4): p_1 = (3t + 8)(t - 2) vanishes at -8/3 and 2
        for sf, zeros in ((P(0, -1, 0, 1), [F(-1), F(0), F(1)]),
                          (P(-16, -16, 1, 1), [F(-8, 3), F(2), F(-4), F(-1), F(4)])):
            assert all(any(e.eval(x) == 0 for e in HornerChain(sf).entries) for x in zeros)
            assert_readings_match_horner(spectra._SturmChain(sf), READ_POINTS + zeros)
        assert spectra._SturmChain(P(0, -1, 0, 1)).values((0, 1)) == [0, -1, 0, 1]
        assert spectra._SturmChain(P(-16, -16, 1, 1)).values((-8, 3))[1] == 0

    def test_degree_drops_by_more_than_one(self):
        for sf in (P(1, 0, 0, 0, 1), P(0, -1, 0, 0, 0, 1), P(1, 0, 0, 0, 0, 0, 0, 1) * P(2, 1)):
            chain = spectra._SturmChain(sf)
            assert max(drop for *_, drop in chain.steps) > 2
            assert_readings_match_horner(chain, READ_POINTS)

    def test_inexact_recurrence_raises(self):
        chain = spectra._SturmChain(P(0, -1, 0, 1))
        q, m, g, drop = chain.steps[0]
        chain.steps[0] = q, g, m, drop
        with pytest.raises(RuntimeError, match="inexact Sturm-chain recurrence"):
            chain.values((1, 3))

    def test_point_keys_are_in_lowest_terms(self):
        for name in fixture_names():
            roots = _Roots(coxeter_polynomial(fixture_graph(name)))
            roots.max_root_cell(DEFAULT_EPSILON)
            roots.radius_cell(DEFAULT_EPSILON)
            keys = list(roots.chain._memo)
            assert keys and all(b > 0 and gcd(a, b) == 1 for a, b in keys), name


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

    def test_fold_route_takes_one_squarefree_part_of_the_fold(self, monkeypatch):
        degrees = []

        class SpyChain(spectra._SturmChain):
            def __init__(self, p):
                degrees.append(p.degree)
                super().__init__(p)

        monkeypatch.setattr(spectra, "_SturmChain", SpyChain)
        # (t - 3)(t + 5)(t + 2) has a root >= 0, so the radius folds
        r = spectral_radius_enclosure(P(-30, -11, 4, 1))
        assert degrees == [3, 6]
        assert r == RationalInterval(F(1374389534689, 274877906944),
                                     F(5497558139657, 1099511627776))

    def test_radius_needs_real_rooted_input(self):
        with pytest.raises(ValueError):
            spectral_radius_enclosure(P(1, 0, 1))

    def test_epsilon_must_be_positive(self):
        # checked before any other work: t^2 + 1 has no real root and 7 no
        # root at all, but the width is what is refused
        for eps in (F(0), F(-1)):
            for p in (P(-2, 1), P(1, 0, 1)):
                with pytest.raises(ValueError, match="epsilon must be positive"):
                    max_real_root(p, eps)
            for p in (P(-2, 1), P(7)):
                with pytest.raises(ValueError, match="epsilon must be positive"):
                    spectral_radius_enclosure(p, eps)

    def test_min_root_interval(self):
        iv, _ = isolate_real_roots(P(1, 3, 1), F(1, 10**6)).roots[0]
        assert abs(float(iv.midpoint) - (-2.618033988749895)) < 2e-6


def full_isolation_max_root(p, eps):
    """Reference for max_real_root: isolate every root, refine the top one."""
    sf = squarefree_part(p)
    intervals = isolate_squarefree(sf)
    if not intervals:
        raise ValueError("polynomial has no real roots")
    return spectra._refine(sf, as_cell(intervals[-1]), eps)


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
    top = spectra._top_cell(spectra._SturmChain(sf), -bound.numerator, bound.numerator,
                            bound.denominator)
    return None if top is None else spectra._refine(sf, top, eps)


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


SMALL_POLYS = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(IntPolynomial)


@st.composite
def products_with_squares(draw):
    """k f g^2 for nonzero f, g of degree <= 4 and a content k of either
    sign: repeated roots, negative leading coefficients, odd and even
    degrees and constants."""
    f = draw(SMALL_POLYS.filter(lambda p: not p.is_zero))
    g = draw(SMALL_POLYS.filter(lambda p: not p.is_zero))
    return draw(st.sampled_from([1, -1, 2, -6, 12])) * f * g * g


def outcome(f, *args):
    """f(*args), or ValueError when it raises one."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


def assert_roots_match_two_step_route(p, points, eps):
    """_Roots(p) against squarefree_part(p) followed by a chain: the same
    squarefree part, counts and enclosures, from one remainder sequence
    when p is squarefree and two otherwise."""
    with pytest.MonkeyPatch.context() as mp:
        heads = spy_on_remainder_sequences(mp)
        roots = _Roots(p)
    assert heads == gram_sequence_heads(p.mirror()), p
    sf = squarefree_part(p)
    assert roots.poly == sf and roots.chain.poly == sf.mirror().primitive(), p
    ref = HornerChain(sf.mirror())
    for x in points:
        assert roots.chain.is_root(point(x)) == ref.is_root(x), (p, x)
    for lo, hi in combinations(sorted(points), 2):
        assert roots.chain.count(point(lo), point(hi)) == ref.count(lo, hi), (p, lo, hi)
    assert outcome(max_real_root, p, eps) == outcome(full_isolation_max_root, p, eps), p
    if p.degree > 0:
        assert outcome(spectral_radius_enclosure, p, eps) == outcome(fold_radius_enclosure, p, eps), p


class TestRootsOfAnyPolynomial:
    """_Roots(p) builds the chain of sf(p(-t)) straight from p, with no
    squarefree part taken first."""

    @given(products_with_squares(), st.lists(st.fractions(-12, 12, max_denominator=12), max_size=6),
           EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_products_with_squares(self, p, points, eps):
        bound = cauchy_bound(p)
        assert_roots_match_two_step_route(p, READ_POINTS + points + [bound, -bound], eps)

    def test_synthetic_polynomials(self):
        cube = P(-1, 1) * P(-1, 1) * P(-1, 1)
        for p in (cube, -6 * cube, 6 * cube * P(4, 1), P(-2, 0, 1) * P(3, 1) * P(3, 1),
                  -3 * P(0, 1) * P(1, 0, 1) * P(1, 0, 1), P(-30, -11, 4, 1), P(5), P(-3), -2 * P(0, 1)):
            assert_roots_match_two_step_route(p, READ_POINTS + [F(1), F(3), F(-3), F(4)], F(1, 1 << 10))


def yun_loop_real_rooted(p):
    """Reference for is_real_rooted: one Sturm chain per Yun factor."""
    for f, _ in squarefree_decomposition(p):
        b = cauchy_bound(f)
        if HornerChain(f).count(-b, b) != f.degree:
            return False
    return True


def yun_loop_real_stable(p):
    """Reference for is_real_stable: one Sturm chain per Yun factor."""
    for f, _ in squarefree_decomposition(p):
        if HornerChain(f).count(F(0), cauchy_bound(f)) != f.degree:
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
            def __init__(self, p):
                super().__init__(p)
                chains.append(self.poly)

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
                # at most one chain, of the mirrored squarefree part of the gcd
                assert chains in ([], [squarefree_part(poly_gcd(p, q)).mirror().primitive()])
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
        s = sign(sf, x)
        return s == 0 or s != sign(sf, iv.hi)

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
    intervals = separate(union, isolate_squarefree(union))
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
        assert spectra._SturmChain(a).depth == 9
        assert compare_isolated_roots(a, ia, b, ib) == 1
        assert compare_isolated_roots(b, ib, a, ia) == -1

    def test_rootless_cells_raise_instead_of_hanging(self):
        # neither x^2 - 2 nor x - 5 has a root in [3, 4], sqrt(2) is
        # outside [2/3, 6/5], and 1 / sqrt(5) and 3/7 are outside
        # [1/3, 2/5]; the Fraction oracle raises on each as well
        for p_sf, q_sf, cell in ((P(-2, 0, 1), P(-5, 1), RationalInterval(F(3), F(4))),
                                 (P(-2, 0, 1), P(-2, 0, 1) * P(-7, 1),
                                  RationalInterval(F(2, 3), F(6, 5))),
                                 (P(-1, 0, 5), P(-3, 7), RationalInterval(F(1, 3), F(2, 5)))):
            for compare in (compare_isolated_roots, compare_by_fractions):
                with within_seconds(20):
                    with pytest.raises(RuntimeError, match="halving bound"):
                        compare(p_sf, cell, q_sf, cell)


def refine_checked_against_fractions(monkeypatch) -> list[tuple[tuple[int, int, int], Fraction]]:
    """Route every spectra._refine call through a check against the
    Fraction loop of the oracle; returns each call's (cell, eps)."""
    calls = []
    real = spectra._refine

    def checked(sf, cell, eps):
        out = real(sf, cell, eps)
        assert out == refine_by_fractions(sf, as_interval(cell), eps), (sf, cell, eps)
        calls.append((cell, eps))
        return out

    monkeypatch.setattr(spectra, "_refine", checked)
    return calls


def compare_halvings_checked_against_fractions(monkeypatch) -> list[tuple[int, int, int]]:
    """Route every spectra._halve call through a check against one halving
    of the oracle's Fraction loop; returns the cells that
    compare_isolated_roots halved."""
    calls = []
    real = spectra._halve

    def checked(sf, a, b, d, slo):
        out = real(sf, a, b, d, slo)
        iv = as_interval((a, b, d))
        assert as_interval((*out, 2 * d)) == refine_by_fractions(sf, iv, iv.width / 2), (sf, a, b, d)
        if sys._getframe(1).f_code.co_name == "compare_isolated_roots":
            calls.append((a, b, d))
        return out

    monkeypatch.setattr(spectra, "_halve", checked)
    return calls


class TestIntegerRefine:
    """_refine halves over one denominator and finds its stopping level
    once from eps; every cell must be the one the Fraction loop gives."""

    @pytest.mark.parametrize("eps", [DEFAULT_EPSILON, F(1, 10), F(2, 3)])
    def test_every_fixture(self, monkeypatch, eps):
        calls = refine_checked_against_fractions(monkeypatch)
        for name in fixture_names():
            analyze(fixture_graph(name), eps)
        assert len(calls) >= len(fixture_names())

    def test_every_tree_class_up_to_eight_vertices(self, monkeypatch):
        calls = refine_checked_against_fractions(monkeypatch)
        trees = [g for n in range(2, 9) for g in enumerate_alternating_trees(n, dedup=True)]
        for g in trees:
            analyze(g)
        assert len(calls) >= len(trees)

    def test_root_at_a_midpoint(self):
        sf = P(-1, 2) * P(3, 1)  # (2t - 1)(t + 3)
        half = RationalInterval(F(1, 2), F(1, 2))
        for lo, hi, halvings in ((0, 1, 1), (-1, 1, 2), (F(1, 4), F(5, 4), 2), (F(1, 3), 1, 2)):
            iv = RationalInterval(F(lo), F(hi))
            for eps in (iv.width / (1 << (halvings - 1)), iv.width / (1 << halvings),
                        iv.width / (1 << halvings) - F(1, 10 ** 6), F(1, 10 ** 9)):
                expected = refine_by_fractions(sf, iv, eps)
                assert spectra._refine(sf, as_cell(iv), eps) == expected
                assert (expected == half) == (eps < iv.width / (1 << (halvings - 1))), (iv, eps)

    def test_stopping_level_at_and_next_to_each_width(self):
        # x^2 - 2 on cells with unlike denominators around sqrt 2, no
        # midpoint a root; eps on, just above and just below width / 2^j
        sf = P(-2, 0, 1)
        for b in range(1, 13):
            for d in range(1, 13):
                iv = RationalInterval(F(isqrt(2 * b * b), b), F(isqrt(2 * d * d) + 1, d))
                for j in range(8):
                    at = iv.width / (1 << j)
                    for eps in (at, at + F(1, 10 ** 12), at - F(1, 10 ** 12), at / 3):
                        assert spectra._refine(sf, as_cell(iv), eps) == refine_by_fractions(sf, iv, eps)

    def test_one_halving_calls_of_compare_isolated_roots(self, monkeypatch):
        halvings = compare_halvings_checked_against_fractions(monkeypatch)
        a, b = P(-2, 0, 1), P(-7071, 5000)
        assert compare_isolated_roots(a, max_real_root(a, F(1, 4)), b, max_real_root(b, F(1, 4))) == 1
        min_dilatation_search(8, dedup=True)
        assert len(halvings) >= 10


def assert_compare_matches_fractions(p_sf, ip, q_sf, iq):
    """Both orders of one comparison against the Fraction oracle; returns
    the verdict."""
    verdict = compare_isolated_roots(p_sf, ip, q_sf, iq)
    assert verdict == compare_by_fractions(p_sf, ip, q_sf, iq), (p_sf, ip, q_sf, iq)
    assert compare_isolated_roots(q_sf, iq, p_sf, ip) == -verdict
    return verdict


class TestCompareAgainstFractionOracle:
    """compare_isolated_roots on integer cells over one denominator
    against the Fraction loop it replaced (root_oracles.compare_by_fractions)."""

    def test_radius_cells_of_every_tree_class_up_to_nine_vertices(self):
        trees = [g for n in range(2, 10) for g in enumerate_alternating_trees(n, dedup=True)]
        assert len(trees) == 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47
        cells = [_Roots(coxeter_polynomial(g)).radius_cell(F(1, 4)) for g in trees]
        verdicts = [assert_compare_matches_fractions(*cells[i], *cells[j])
                    for i in range(len(cells)) for j in range(i, len(cells))]
        # every pair in both orders, and the path on two vertices, first,
        # attains the least radius, phi^2
        assert {-1, 0, 1} == set(verdicts)
        assert max(verdicts[:len(cells)]) == 0

    def test_point_cells_on_both_sides(self):
        sf, p = P(-1, 2), RationalInterval(F(1, 2), F(1, 2))  # the root 1/2 as a point
        for q_sf, lo, hi, expected in (
                (P(-3, 1) * P(1, 1), F(2), F(4), -1),      # 3; the point left of the cell
                (P(-1, 4) * P(5, 1), F(0), F(1, 2), 1),    # 1/4; the point on its right end
                (P(-1, 2) * P(-5, 1), F(1, 3), F(1), 0),   # inside, and the same root
                (P(-2, 0, 9), F(1, 3), F(1), 1),           # sqrt(2) / 3 = 0.471..
                (P(-1, 0, 3), F(1, 3), F(1), -1),          # 1 / sqrt(3) = 0.577..
                (P(-1, 0, 5), F(1, 3), F(2, 3), 1)):       # 1 / sqrt(5) = 0.447..
            iq = RationalInterval(lo, hi)
            assert assert_compare_matches_fractions(sf, p, q_sf, iq) == expected, (q_sf, iq)
        for q_sf, x, expected in ((P(-2, 3), F(2, 3), -1), (P(-2, 4), F(1, 2), 0),
                                  (P(1, 5), F(-1, 5), 1)):
            iq = RationalInterval(x, x)
            assert assert_compare_matches_fractions(sf, p, q_sf, iq) == expected
        # the midpoint root 3/4 turns a cell into a point while both halve
        ip, iq = RationalInterval(F(0), F(1)), RationalInterval(F(1, 2), F(1))
        assert assert_compare_matches_fractions(P(-3, 4) * P(5, 1), ip, P(-3, 0, 5), iq) == -1

    def test_equal_roots_through_the_gcd_chain(self):
        calls = 0
        for g, others in ((P(-2, 0, 1), (P(5, 1), P(-1, 1), P(1, 1, 1))),
                          (P(-1, -1, 1), (P(0, 1), P(1, 0, 1))),
                          (P(-1, 3, 0, -1), (P(7, 2), P(2, -1, 1)))):
            for other in others:
                q = squarefree_part(g * other)
                for eps in (F(1, 2), F(1, 3), F(1, 10)):
                    ip, iq = max_real_root(g, eps), max_real_root(q, eps)
                    # the same irrational root in both: overlapping cells
                    assert not (ip.is_point or iq.is_point or ip.hi <= iq.lo or iq.hi <= ip.lo)
                    assert assert_compare_matches_fractions(g, ip, q, iq) == 0
                    calls += 1
        assert calls == 21

    def test_cells_whose_denominators_are_not_powers_of_two(self):
        cases = (
            (P(-1, 0, 5), (F(1, 3), F(1, 2)), P(-3, 7), (F(2, 5), F(4, 9)), 1),  # 0.447 > 3/7
            (P(-1, 0, 5), (F(1, 3), F(1, 2)), P(-1, 0, 5) * P(1, 1), (F(2, 5), F(5, 11)), 0),
            (P(-2, 0, 1), (F(4, 3), F(3, 2)), P(-99, 70), (F(7, 5), F(10, 7)), -1),  # < 99/70
            (P(-10, 0, 7), (F(7, 6), F(6, 5)), P(-13, 0, 9), (F(11, 10), F(5, 4)), -1),
        )
        for p_sf, (a, b), q_sf, (c, e), expected in cases:
            ip, iq = RationalInterval(a, b), RationalInterval(c, e)
            assert root_in(p_sf, ip) and root_in(q_sf, iq)
            assert not (b <= c or e <= a)
            assert assert_compare_matches_fractions(p_sf, ip, q_sf, iq) == expected

    @given(DYADIC_FACTORS, st.sampled_from(EXTRA_FACTORS), st.sampled_from(EXTRA_FACTORS),
           st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(1, 7)]))
    @settings(max_examples=100, deadline=None)
    def test_top_roots_of_related_products(self, factors, extra_p, extra_q, eps):
        # products sharing factors: ties, near ties and disjoint cells
        base = dyadic_product(factors)
        p, q = squarefree_part(base * extra_p), squarefree_part(base * extra_q * P(-1, 3))
        ip, iq = max_real_root(p, eps), max_real_root(q, eps)
        assert_compare_matches_fractions(p, ip, q, iq)


class TestRationalInterval:
    def test_basic_properties(self):
        iv = RationalInterval(F(1, 2), F(3, 4))
        assert iv.width == F(1, 4)
        assert iv.midpoint == F(5, 8)
        assert not iv.is_point
        assert iv.contains(F(2, 3))
        assert not iv.contains(F(1))
        assert RationalInterval(F(1), F(1)).is_point
