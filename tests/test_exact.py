"""Exact integer polynomial and matrix core."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxlinks import coxeter
from coxlinks.exact import (
    IntMatrix,
    IntPolynomial,
    _kronecker_digits,
    fraction_to_decimal,
    poly_divexact,
    poly_gcd,
    squarefree_part,
)

from matrix_oracles import (dense_add, dense_is_symmetric, dense_matmul, dense_neg,
                            dense_transpose, det, identity, inverse_unimodular, trace)
from root_oracles import squarefree_decomposition
from test_coxeter import seeded_graphs_with_cycles


def P(*coeffs):
    return IntPolynomial(coeffs)


def rational_quotient(a, b):
    """Reference for poly_divexact: long division over Fraction; the
    quotient when it is exact and integral, else None."""
    if a.is_zero:
        return IntPolynomial()
    dq = a.degree - b.degree
    if dq < 0:
        return None
    num = [Fraction(c) for c in a.coeffs]
    out = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        out[k] = num[k + b.degree] / b.lead
        for i, bc in enumerate(b.coeffs):
            num[k + i] -= out[k] * bc
    if any(num) or any(c.denominator != 1 for c in out):
        return None
    return IntPolynomial(int(c) for c in out)


class TestIntPolynomial:
    def test_normalization_drops_leading_zeros(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()
        assert P().is_zero

    def test_entries_must_be_integers(self):
        assert P(True, False, 3).coeffs == (1, 0, 3)
        for bad in (1.9, 2.0, Fraction(7, 2), Fraction(2)):
            with pytest.raises(TypeError):
                P(1, bad)

    def test_degree_and_lead(self):
        assert P(1, 2, 3).degree == 2
        assert P(1, 2, 3).lead == 3
        assert P().degree == -1
        assert P(7).degree == 0

    def test_arithmetic(self):
        p, q = P(1, 1), P(-1, 1)
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - q).coeffs == (2,)
        assert (3 * p).coeffs == (3, 3)
        assert (-p).coeffs == (-1, -1)

    def test_eval_int_and_fraction(self):
        p = P(1, -3, 1)
        assert p.eval(0) == 1
        assert p.eval(3) == 1
        assert p.eval(Fraction(1, 2)) == Fraction(-1, 4)

    def test_sign_at_matches_eval(self):
        p = P(-2, 0, 1)
        for x in (Fraction(-3), Fraction(0), Fraction(7, 5), Fraction(141421356, 10**8)):
            v = p.eval(x)
            s = (v > 0) - (v < 0)
            assert p.sign_at(x.numerator, x.denominator) == s

    def test_derivative(self):
        assert P(5, 3, 0, 2).derivative().coeffs == (3, 0, 6)
        assert P(5).derivative().is_zero

    def test_mirror_is_substitution_of_minus_t(self):
        p = P(1, 2, 3, 4)
        for x in (-2, -1, 0, 1, 2):
            assert p.mirror().eval(x) == p.eval(-x)

    def test_pretty(self):
        assert P(1, 10, 27, 27, 10, 1).pretty() == \
            "t^5 + 10t^4 + 27t^3 + 27t^2 + 10t + 1"
        assert P(-1, 10, -27, 27, -10, 1).pretty() == \
            "t^5 - 10t^4 + 27t^3 - 27t^2 + 10t - 1"
        assert P(0, -1).pretty() == "-t"
        assert P().pretty() == "0"

    def test_primitive_and_content(self):
        assert P(2, 4, 6).content() == 2
        assert P(2, 4, 6).primitive().coeffs == (1, 2, 3)
        assert P(-2, -4, -6).primitive().coeffs == (1, 2, 3)
        assert P(2, -4).primitive().coeffs == (-1, 2)


def kronecker_value(digits, b):
    return sum(d << (b * i) for i, d in enumerate(digits))


class TestKroneckerDigits:
    """_kronecker_digits reads the balanced base-2^b digits of one
    integer, and refuses a value that has no count such digits."""

    @pytest.mark.parametrize("b", [8, 16, 64, 256, 1008])
    def test_round_trip_at_the_extreme_digits_and_zero(self, b):
        top = (1 << (b - 1)) - 1
        for digits in ([0], [top], [-top], [-top - 1], [0] * 5, [top] * 5, [-top] * 5,
                       [top, -top, 0, -top, top], [0, 0, top, 0, 0], [-top, 0, 0, 0, 1],
                       [top, 0, 0, -top, 0], [1, -1, 1, -1, 0, 0]):
            assert _kronecker_digits(kronecker_value(digits, b), b, len(digits)) == digits

    @given(st.integers(1, 8).flatmap(lambda w: st.tuples(
        st.just(8 * w), st.lists(st.integers(-(1 << (8 * w - 1)), (1 << (8 * w - 1)) - 1),
                                 min_size=1, max_size=20))))
    def test_round_trip(self, case):
        b, digits = case
        assert _kronecker_digits(kronecker_value(digits, b), b, len(digits)) == digits

    @pytest.mark.parametrize("b,count", [(8, 1), (8, 4), (64, 3), (1008, 2)])
    def test_value_out_of_range_raises(self, b, count):
        top = (1 << (b - 1)) - 1
        hi = kronecker_value([top] * count, b)
        lo = kronecker_value([-top - 1] * count, b)
        assert _kronecker_digits(hi, b, count) == [top] * count
        assert _kronecker_digits(lo, b, count) == [-top - 1] * count
        for v in (hi + 1, lo - 1, hi << b, -(hi << b), 1 << (b * count)):
            with pytest.raises(RuntimeError, match="out of range"):
                _kronecker_digits(v, b, count)


class TestPolyGcd:
    def test_gcd_is_primitive_positive_lc(self):
        p = P(-1, 0, 1) * P(3, 3)          # (t^2-1) * 3(t+1)
        q = P(-2, 2) * P(1, 1)             # 2(t-1) * (t+1)
        g = poly_gcd(p, q)
        assert g.coeffs == (-1, 0, 1)      # (t-1)(t+1), monic

    def test_gcd_with_zero(self):
        assert poly_gcd(P(), P(-2, -2)).coeffs == (1, 1)
        assert poly_gcd(P(4, 8), P()).coeffs == (1, 2)
        with pytest.raises(ValueError):
            poly_gcd(P(), P())

    def test_gcd_of_coprime(self):
        assert poly_gcd(P(1, 0, 1), P(-1, 1)).coeffs == (1,)

    @given(st.lists(st.integers(-6, 6), max_size=5),
           st.lists(st.integers(-6, 6), max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    @example([], [0, 4], [2, 2])        # a zero input
    @example([3], [1, 2, 1], [1])       # a constant against a square
    @example([6], [], [1])              # a constant against zero
    @example([1, 1], [0, 1, 1], [1, 0, 1])  # deg p < deg q, shared factor
    @settings(max_examples=150, deadline=None)
    def test_gcd_matches_sympy(self, a, b, c):
        # one remainder sequence, its inputs in the given order, whichever
        # has the higher degree
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        p, q = P(*a) * P(*c), P(*b) * P(*c)
        if p.is_zero and q.is_zero:
            return
        ref = sympy.Poly(list(reversed(p.coeffs)) or [0], t).gcd(
            sympy.Poly(list(reversed(q.coeffs)) or [0], t))
        coeffs = [int(x) for x in reversed(ref.primitive()[1].all_coeffs())]
        assert poly_gcd(p, q) == P(*coeffs).primitive()

    def test_divexact(self):
        p = P(-1, 0, 1)
        assert poly_divexact(p, P(1, 1)).coeffs == (-1, 1)
        with pytest.raises(ValueError):
            poly_divexact(P(1, 0, 1), P(1, 1))

    def test_divexact_rejects_lead_that_does_not_divide(self):
        with pytest.raises(ValueError):
            poly_divexact(P(1, 2), P(1, 3))        # quotient 2/3
        with pytest.raises(ValueError):
            poly_divexact(P(3, 2, 0, 1), P(1, -2))
        assert poly_divexact(P(6, -4, -2), P(-3, -1)).coeffs == (-2, 2)
        with pytest.raises(ZeroDivisionError):
            poly_divexact(P(1), P())

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=4),
           st.lists(st.integers(-3, 3), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_divexact_matches_rational_division(self, a, b, r):
        dividend, divisor = IntPolynomial(a) * IntPolynomial(b), IntPolynomial(b)
        dividend = dividend + IntPolynomial(r)
        if divisor.is_zero:
            return
        expected = rational_quotient(dividend, divisor)
        if expected is None:
            with pytest.raises(ValueError):
                poly_divexact(dividend, divisor)
        else:
            assert poly_divexact(dividend, divisor) == expected

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
           st.lists(st.integers(-6, 6), min_size=1, max_size=5),
           st.lists(st.integers(-6, 6), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_and_catches_common_factor(self, a, b, c):
        p, q, r = IntPolynomial(a), IntPolynomial(b), IntPolynomial(c)
        if (p * r).is_zero and (q * r).is_zero:
            with pytest.raises(ValueError):
                poly_gcd(p * r, q * r)
            return
        g = poly_gcd(p * r, q * r)
        poly_divexact(p * r, g)
        poly_divexact(q * r, g)
        if not r.is_zero and not (p.is_zero and q.is_zero):
            # the shared factor r must divide the gcd
            poly_divexact(g, r.primitive())


class TestSquarefree:
    def test_decomposition(self):
        p = P(-1, 1) * P(-1, 1) * P(2, 1)
        dec = squarefree_decomposition(p)
        assert dec == [(P(2, 1), 1), (P(-1, 1), 2)]

    def test_squarefree_part(self):
        p = P(-1, 1) * P(-1, 1) * P(0, 1) * P(0, 1) * P(0, 1)
        assert squarefree_part(p).coeffs == (0, -1, 1)

    def test_squarefree_input_unchanged(self):
        assert squarefree_part(P(1, 3, 1)).coeffs == (1, 3, 1)

    def test_decomposition_reassembles(self):
        p = P(1, 1) * P(1, 1) * P(-3, 1) * P(2, 0, 1)
        prod = IntPolynomial((1,))
        for factor, mult in squarefree_decomposition(p):
            for _ in range(mult):
                prod = prod * factor
        assert prod.coeffs == p.primitive().coeffs


def M(rows):
    return IntMatrix(rows)


def assert_charpoly_matches_det(a: IntMatrix) -> None:
    """charpoly against the Bareiss determinant det(tI - A) at the n + 1
    points t = 0..n, which fix a polynomial of degree n."""
    c = a.charpoly()
    assert (c.degree, c.lead) == (a.n, 1)
    for t in range(a.n + 1):
        shifted = IntMatrix([[t * (i == j) - x for j, x in enumerate(row)]
                             for i, row in enumerate(a.rows)])
        assert c.eval(t) == det(shifted), (a, t)


@st.composite
def sparse_matrices(draw):
    """Integer matrices of size 0 to 9 with 0 to 90% of their entries
    set to zero."""
    n = draw(st.integers(0, 9))
    zero_tenths = draw(st.integers(0, 9))
    cells = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(-9, 9)),
                          min_size=n * n, max_size=n * n))
    flat = [0 if u < zero_tenths else x for u, x in cells]
    return IntMatrix([flat[i * n:(i + 1) * n] for i in range(n)])


class TestSparseCharpoly:
    """Berkowitz runs over the nonzero entries of each row only; every
    coefficient must stay the determinant's."""

    @given(sparse_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_det_on_sparse_matrices(self, a):
        assert_charpoly_matches_det(a)

    @given(sparse_matrices().filter(lambda a: a.n > 0), st.data())
    @settings(max_examples=80, deadline=None)
    def test_zero_rows_and_columns(self, a, data):
        i = data.draw(st.integers(0, a.n - 1))
        j = data.draw(st.integers(0, a.n - 1))
        rows = [list(r) for r in a.rows]
        rows[i] = [0] * a.n
        assert_charpoly_matches_det(IntMatrix(rows))
        for r in rows:
            r[j] = 0
        assert_charpoly_matches_det(IntMatrix(rows))
        assert_charpoly_matches_det(IntMatrix([[0 if k == j else x for k, x in enumerate(r)]
                                               for r in a.rows]))

    @given(sparse_matrices(), st.integers(0, 9).flatmap(lambda n: st.permutations(range(n))))
    @settings(max_examples=80, deadline=None)
    def test_strictly_triangular_and_permutation_matrices(self, a, perm):
        upper = IntMatrix([[x if j > i else 0 for j, x in enumerate(r)]
                           for i, r in enumerate(a.rows)])
        for m in (upper, upper.transpose()):
            assert m.charpoly() == IntPolynomial([0] * m.n + [1])
            assert_charpoly_matches_det(m)
        n = len(perm)
        pm = IntMatrix([[int(perm[i] == j) for j in range(n)] for i in range(n)])
        expected, seen = IntPolynomial([1]), set()
        for start in range(n):
            length, k = 0, start
            while k not in seen:
                seen.add(k)
                k, length = perm[k], length + 1
            if length:
                expected = expected * IntPolynomial([-1] + [0] * (length - 1) + [1])
        assert pm.charpoly() == expected
        assert_charpoly_matches_det(pm)

    def test_gram_matrices_of_graphs_with_cycles(self, monkeypatch):
        seen = []
        real = IntMatrix.charpoly

        def recording(a):
            seen.append(a)
            return real(a)

        monkeypatch.setattr(IntMatrix, "charpoly", recording)
        for g in seeded_graphs_with_cycles():
            coxeter._gram_polynomial(g)
        monkeypatch.undo()
        assert len(seen) == 60
        for a in seen:
            assert_charpoly_matches_det(a)


@st.composite
def cancelling_pairs(draw):
    """(a, b) of one size 0 to 7 with up to two zero rows each, where
    a + b and a @ b cancel: b is -a, or b's row k2 is minus its row k1
    while a's column k2 equals its column k1, so the terms of every
    product entry through k1 and k2 sum to 0, or b is unrelated to a."""
    n = draw(st.integers(0, 7))
    cell = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    a = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]
    b = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]
    for rows in (a, b):
        for i in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
            rows[i] = [0] * n
    kind = draw(st.sampled_from(("negated", "cancelling", "unrelated")))
    if kind == "negated":
        b = [[-x for x in row] for row in a]
    elif kind == "cancelling" and n >= 2:
        k1, k2 = draw(st.permutations(range(n)))[:2]
        only = draw(st.booleans())  # then every entry of a @ b cancels
        for row in a:
            row[k2] = row[k1]
            if only:
                row[:] = [x if k in (k1, k2) else 0 for k, x in enumerate(row)]
        b[k2] = [-x for x in b[k1]]
    return IntMatrix(a), IntMatrix(b)


class TestSparseAgainstDense:
    """Every IntMatrix operation runs over the nonzero entries of each row
    and drops the entries that cancel; against the dense oracles, a result
    must equal, and hash as, the matrix built from its dense rows."""

    @staticmethod
    def assert_same(result, expected):
        assert result == expected
        assert hash(result) == hash(expected)
        assert result.rows == expected.rows
        assert result == IntMatrix(result.rows)

    @given(cancelling_pairs())
    @settings(max_examples=300, deadline=None)
    def test_every_operation_matches_the_dense_oracle(self, pair):
        a, b = pair
        self.assert_same(a + b, dense_add(a, b))
        self.assert_same(a @ b, dense_matmul(a, b))
        self.assert_same(-a, dense_neg(a))
        self.assert_same(a + -a, IntMatrix([[0] * a.n] * a.n))
        self.assert_same(a.transpose(), dense_transpose(a))
        assert a.is_symmetric() == dense_is_symmetric(a)
        assert (a + b.transpose()).is_symmetric() == dense_is_symmetric(dense_add(a, dense_transpose(b)))
        assert (a + a.transpose()).is_symmetric()
        assert (a == b) == (a.rows == b.rows)

    def test_hash_reads_no_dense_view(self, monkeypatch):
        # a product's entries come in another order than its dense rows give
        # them; hashing reads the per-row maps, never the n x n view
        a, b = M([[0, 1, 2], [3, 0, 0], [0, 4, 5]]), M([[1, 0, 1], [0, 2, 0], [6, 0, 0]])
        expected = hash(dense_matmul(a, b))

        def dense(_):
            raise AssertionError("hash built the dense view")

        monkeypatch.setattr(IntMatrix, "rows", property(dense))
        assert hash(a @ b) == expected


class TestIntMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]])

    @pytest.mark.parametrize("op", [operator.add, operator.matmul])
    def test_sizes_must_match(self, op):
        a = M([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match=r"^matrix sizes differ: 2 and 3$"):
            op(a, identity(3))
        with pytest.raises(ValueError, match=r"^matrix sizes differ: 3 and 2$"):
            op(identity(3), a)

    def test_entries_must_be_integers(self):
        assert M([[True, 0], [False, 1]]).rows == ((1, 0), (0, 1))
        for bad in (2.7, 2.0, Fraction(5, 2), Fraction(2)):
            with pytest.raises(TypeError):
                M([[bad, 0], [0, 1]])

    def test_matmul_and_identity(self):
        a = M([[1, 2], [3, 4]])
        i = identity(2)
        assert a @ i == a
        assert (a @ a).rows == ((7, 10), (15, 22))

    def test_det_known(self):
        assert det(M([[1, 2], [3, 4]])) == -2
        assert det(M([[2, 0, 1], [0, 3, 0], [1, 0, 2]])) == 9
        assert det(identity(4)) == 1

    def test_det_with_pivoting(self):
        assert det(M([[0, 1], [1, 0]])) == -1
        assert det(M([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1

    def test_charpoly_known(self):
        assert M([[0, 1], [1, 0]]).charpoly().coeffs == (-1, 0, 1)
        assert identity(3).charpoly().coeffs == (-1, 3, -3, 1)
        assert M([[2]]).charpoly().coeffs == (-2, 1)

    def test_charpoly_trace_and_det(self):
        a = M([[3, 1, 0], [2, -1, 4], [0, 5, 2]])
        c = a.charpoly()
        assert c.lead == 1
        assert c.coefficient(2) == -trace(a)
        assert c.coefficient(0) == -det(a)   # (-1)^n det, n = 3

    def test_inverse_unimodular(self):
        u = M([[1, 1], [0, 1]])
        assert inverse_unimodular(u) == M([[1, -1], [0, 1]])
        with pytest.raises(ValueError):
            inverse_unimodular(M([[2, 0], [0, 1]]))

    def test_transpose_and_symmetry(self):
        a = M([[1, 2], [3, 4]])
        assert a.transpose() == M([[1, 3], [2, 4]])
        assert not a.is_symmetric()
        assert (a + a.transpose()).is_symmetric()

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.integers(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_charpoly_agrees_with_bareiss_det(self, rows, x):
        a = IntMatrix(rows)
        shifted = IntMatrix([[x * (1 if i == j else 0) - rows[i][j]
                              for j in range(3)] for i in range(3)])
        assert a.charpoly().eval(x) == det(shifted)

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                    min_size=2, max_size=2),
           st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                    min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_charpoly_of_block_diagonal_multiplies(self, ra, rb):
        a, b = IntMatrix(ra), IntMatrix(rb)
        block = IntMatrix([
            [ra[0][0], ra[0][1], 0, 0],
            [ra[1][0], ra[1][1], 0, 0],
            [0, 0, rb[0][0], rb[0][1]],
            [0, 0, rb[1][0], rb[1][1]],
        ])
        assert block.charpoly() == a.charpoly() * b.charpoly()

    @given(st.integers(0, 7).flatmap(lambda n: st.tuples(*(
        st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -7)), min_size=n, max_size=n),
                 min_size=n, max_size=n) for _ in range(2)))))
    @settings(max_examples=150, deadline=None)
    def test_matmul_matches_dense_product(self, pair):
        # mostly zero entries, as in C+ and C-, which the product skips
        a, b = IntMatrix(pair[0]), IntMatrix(pair[1])
        assert a @ b == dense_matmul(a, b)

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_det_multiplicative(self, rows):
        a = IntMatrix(rows)
        assert det(a @ a) == det(a) ** 2


class TestFractionToDecimal:
    def test_rounding_and_padding(self):
        assert fraction_to_decimal(Fraction(1, 2), 3) == "0.500"
        assert fraction_to_decimal(Fraction(-1, 3), 4) == "-0.3333"
        assert fraction_to_decimal(Fraction(2), 2) == "2.00"

    def test_default_digits_deterministic(self):
        x = Fraction(880356337875, 137438953472)
        assert fraction_to_decimal(x) == fraction_to_decimal(x)
        assert fraction_to_decimal(x).startswith("6.405435")
