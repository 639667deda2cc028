"""Certified real-root machinery: Sturm chains, isolation, interlacing.

All enclosures are closed intervals with exact rational endpoints.  A
returned interval either has zero width (the root is that rational) or
its endpoints are non-roots with the unique root strictly inside, so
interval comparisons decide root comparisons exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .exact import (IntPolynomial, _coxeter_from_gram, _remainder_steps, _signed_remainders,
                    poly_divexact, poly_gcd)

_ZERO = Fraction(0)
DEFAULT_EPSILON = Fraction(1, 10 ** 9)


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """1 + max|a_i| / |a_deg|; every real root lies strictly inside
    (-bound, bound)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root bound")
    if p.degree == 0:
        return Fraction(1)
    lead = abs(p.lead)
    biggest = max(abs(c) for c in p.coeffs[:-1])
    return 1 + Fraction(biggest, lead)


def _sign_changes(values) -> int:
    """Sign variations in a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _halving_depth(sf: IntPolynomial) -> int:
    """A halving count K past which no correct bisection between the roots
    of the squarefree sf goes: w / d is too narrow iff w << K < d."""
    # Mahler (1964): distinct roots of a squarefree integer polynomial
    # of degree d >= 2 are more than sep = sqrt(3) d^(-(d+2)/2)
    # ||f||_2^(1-d) apart.  With log2 d <= d.bit_length() and
    # log2 ||f||_2 <= norm2.bit_length() / 2, sep > 2^-k0 for k0 below.
    # A cell is only bisected while it holds two roots, so it is at
    # least sep wide, and the gap search stops by its first w < sep,
    # so a correct run never tests a width below sep / 2 > 2^-(k0+1).
    # K = k0 + 1 + deg: deg more halvings as margin.
    d = max(sf.degree, 2)
    norm2 = sum(c * c for c in sf.coeffs)
    k0 = ((d + 2) * d.bit_length() + (d - 1) * norm2.bit_length() + 1) // 2
    return k0 + 1 + d


def _point(num: int, den: int) -> tuple[int, int]:
    """num / den, den > 0, in lowest terms: the key of a chain's readings."""
    g = gcd(num, den)
    return num // g, den // g


class _SturmChain:
    """Sturm chain p_0 = sf, p_1 = sf', ... of sf = squarefree_part(p), for
    any nonzero p, read once per point (a, b): the reading, memoized, holds
    the chain's sign variations at a / b and whether sf vanishes there.

    One remainder sequence for a squarefree p, two otherwise.  Let f =
    p.primitive() and L the last entry of the sequence of (f, f'): it
    stops at a constant or where the next remainder is 0, so L is gcd(f,
    f') up to a constant factor.  If deg L <= 0, f is squarefree and equals
    squarefree_part(p), primitive with positive leading coefficient, so
    that sequence is the chain wanted.  Else L.primitive() = poly_gcd(f,
    f'): poly_gcd runs the sequence of (f, f'.primitive()), and a positive
    multiple c f' of f' leaves the next entry as it is, since the
    pseudo-remainders by f' and by c f' are both positive multiples of the
    one true remainder, and each entry is the negated remainder over its
    content.  From there on both sequences agree.  So squarefree_part(p) =
    f / L.primitive(), primitive with positive leading coefficient by
    Gauss's lemma, and a second sequence builds its chain.  Without
    .primitive() the division is inexact when L = f' has content, as f' =
    3(y - 1)^2 for f = (y - 1)^3.

    Quotient recurrence.  For delta_i = deg p_(i-1) - deg p_i, M_i =
    |lc(p_i)|^(delta_i + 1) and Q_i the pseudo-quotient of p_(i-1) by p_i
    times sign(lc(p_i)^(delta_i + 1)), _remainder_steps gives (Q_i, M_i,
    g_i, p_(i+1)) with g_i p_(i+1) = Q_i p_i - M_i p_(i-1), g_i > 0.
    V_i = b^(deg p_i) p_i(a / b) is an integer of p_i's sign at a / b, as
    b > 0, and times b^(deg p_(i-1))
        g_i b^(deg p_(i-1) - deg p_(i+1)) V_(i+1) = b^delta_i Q_i(a / b) V_i - M_i V_(i-1).
    So Horner's rule reads p_0 and p_1 only, and each later entry costs
    O(delta_i) products and one division, exact as V_(i+1) is an integer:
    a remainder means a corrupt chain, and raises."""

    def __init__(self, p: IntPolynomial):
        if p.is_zero:
            raise ValueError("zero polynomial has no squarefree part")
        sf = p.primitive()
        while True:
            self.head = a, b = sf, sf.derivative()
            self.steps = []
            for q, m, g, r in _remainder_steps(a, b):
                self.steps.append((q, m, g, a.degree - r.degree))
                a, b = b, r
            if b.degree <= 0:  # b, the sequence's last entry, is gcd(sf, sf') up to a constant
                break
            sf = poly_divexact(sf, b.primitive())
        self.poly = sf
        self.depth = _halving_depth(sf)
        self._memo: dict[tuple[int, int], tuple[int, bool]] = {}

    def values(self, x: tuple[int, int]) -> list[int]:
        """V_i = b^(deg p_i) p_i(a / b) at x = (a, b), by the recurrence."""
        a, b = x
        out = [p.homogeneous_at(a, b) for p in self.head]
        for q, m, g, drop in self.steps:
            v, rem = divmod(q.homogeneous_at(a, b) * out[-1] - m * out[-2], g * b ** drop)
            if rem:
                raise RuntimeError("inexact Sturm-chain recurrence: inconsistent Sturm chain")
            out.append(v)
        return out

    def _reading(self, x: tuple[int, int]) -> tuple[int, bool]:
        v = self._memo.get(x)
        if v is None:
            values = self.values(x)
            v = self._memo[x] = _sign_changes(values), values[0] == 0
        return v

    def is_root(self, x: tuple[int, int]) -> bool:
        return self._reading(x)[1]

    def count(self, lo: tuple[int, int], hi: tuple[int, int]) -> int:
        """Distinct roots in the half-open interval (lo, hi]."""
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return 0
        return self._reading(lo)[0] - self._reading(hi)[0]


def _check_width(chain: _SturmChain | _GramChain | _Roots, w: int, d: int) -> None:
    """Raise when a bisection width w / d is below 2^-chain.depth, which a
    correct chain never reaches: halving loops end in an error, not a hang."""
    if w << chain.depth < d:
        raise RuntimeError("root isolation exceeded its halving bound: "
                           "inconsistent Sturm chain")


def _root_gap(chain: _SturmChain | _GramChain | _Roots, a: int, b: int, m: int, d: int) -> tuple[int, int, int]:
    """(m', w, e) with m' / e = m / d, the root, and w / e <= (b - a) / 4d:
    [m' - w, m' + w] / e holds no other root, and its ends are not roots."""
    m, w, e = 4 * m, b - a, 4 * d
    while True:
        lo, hi = _point(m - w, e), _point(m + w, e)
        if chain.count(lo, hi) == 1 and not chain.is_root(lo) and not chain.is_root(hi):
            return m, w, e
        m, e = 2 * m, 2 * e
        _check_width(chain, w, e)


def _top_cell(chain: _SturmChain | _GramChain | _Roots, a: int, b: int, d: int) -> tuple[int, int, int] | None:
    """The cell (a', b', d') of the largest root in (a / d, b / d], meaning
    [a' / d', b' / d'], or None when there is no root there.  Follows the
    full isolation's bisection in integers, but keeps only the sub-cell
    holding the largest root, so from (-bound, bound] it gives exactly the
    last interval that isolation returns (isolate_squarefree in
    tests/root_oracles.py, and the tests that compare the two)."""
    cnt = chain.count(_point(a, d), _point(b, d))
    if cnt == 0:
        return None
    while cnt > 1:
        _check_width(chain, b - a, d)
        a, m, b, d = 2 * a, a + b, 2 * b, 2 * d
        if chain.is_root(_point(m, d)):
            m, w, e = _root_gap(chain, a, b, m, d)
            a, b, d = m + w, b * (e // d), e
            cnt = chain.count(_point(a, d), _point(b, d))
            if cnt == 0:
                return m, m, d
        else:
            right = chain.count(_point(m, d), _point(b, d))
            if right == 0:
                b = m
            else:
                a, cnt = m, right
    return a, b, d


def _halve(sf: IntPolynomial, a: int, b: int, d: int, slo: int) -> tuple[int, int]:
    """The half [a', b'] / 2d of the cell [a, b] / d that holds sf's root,
    its left end of sf's sign slo there as well, or the point [m, m] when
    the midpoint m / 2d is the root; a point cell stays the point [2a, 2a]."""
    m = a + b
    s = sf.sign_at(m, 2 * d) if a < b else 0
    if s == 0:
        return m, m
    return (m, 2 * b) if s == slo else (2 * a, m)


def _refine(sf: IntPolynomial, cell: tuple[int, int, int], eps: Fraction) -> RationalInterval:
    """Shrink the isolating cell (a, b, d), meaning [a / d, b / d], to an
    interval of width <= eps by sign bisection.  After l halvings the cell
    is [a', b'] / (d 2^l) with b' - a' = b - a or 0, wider than eps until
    the least level j with (b - a) eps.den <= eps.num d 2^j, which is the
    bit-length difference of the two sides or one more."""
    a, b, d = cell
    big, small = (b - a) * eps.denominator, eps.numerator * d
    j = max(0, big.bit_length() - small.bit_length())
    j += (small << j) < big
    slo = sf.sign_at(a, d)
    for _ in range(j):
        (a, b), d = _halve(sf, a, b, d, slo), 2 * d
    return RationalInterval(Fraction(a, d), Fraction(b, d))


def _fujiwara_exponent(r: IntPolynomial) -> int:
    """k with every root of r of modulus below 2^k.  Every root has |z| <=
    2 max_j |a_(d-j) / a_d|^(1/j) (Fujiwara, Tohoku Math. J. 10, 1916) and
    |a_(d-j) / a_d| < 2^e_j for e_j = bitlen(a_(d-j)) - bitlen(a_d) + 1,
    so k = 1 + max(0, ceil(e_j / j)) will do.  2^k <= max(2, 16 d R), R
    the largest modulus, where cauchy_bound(r) grows with r's largest
    coefficient."""
    lead = abs(r.lead).bit_length()
    return 1 + max([0] + [-((lead - 1 - abs(c).bit_length()) // j)
                          for j, c in enumerate(reversed(r.coeffs[:-1]), 1) if c])


class _GramChain:
    """m = sf(-t)'s distinct real roots, sf the squarefree part of the
    Coxeter polynomial c of an n-vertex graph, counted on the Sturm chain
    of r = sf(q), q its Gram polynomial of degree s <= n/2.

    Factorization.  With q = prod_k (y - mu_k), t^s q(-(t+1)^2 / t) =
    (-1)^s prod_k ((t+1)^2 + mu_k t), so coxeter_polynomial's c is
    (t+1)^(n-2s) prod_k (t^2 + (2 + mu_k) t + 1), whose factor of mu
    vanishes at t = -x iff phi(x) = (x - 1)^2 / x = mu.  Real x come from
    real mu outside (-4, 0): x > 1 > 1/x > 0 from mu > 0, x < -1 < 1/x < 0
    from mu < -4, x = 1 from mu = 0 or n > 2s, and x = -1 from mu = -4.

    Monotone map.  phi'(x) = 1 - 1/x^2, so phi rises on (-inf, -1] onto
    (-inf, -4] and on [1, inf) onto [0, inf), and falls on [-1, 0) onto
    (-inf, -4] and on (0, 1] onto [0, inf): on each branch x' <= x iff
    phi(x') <= phi(x) where phi rises, >= where it falls.  Let A(u) count
    r's roots above u, read up to top = 2^k above every root modulus, T =
    A(-top), Z(u) = [r(u) = 0], e = [n > 2s or r(0) = 0] and neg = 2T -
    2A(-4) - Z(-4), m's negative roots.  Adding the branches to the left,
    N(x) = #{m's roots <= x} is, for phi = phi(x),
        x <= -1: T - A(phi)      -1 < x < 0: neg - T + A(phi) + Z(phi)
        0 <= x < 1: neg + A(phi) + Z(phi), neg at x = 0 (phi(0) = inf)
        x >= 1: neg + 2A(0) + e - A(phi)
    A count on (lo, hi] is N(hi) - N(lo): r's chain at phi(lo), phi(hi),
    and at -top, -4 and 0 for the offsets only when the branches differ.
    top = 2^k for k the _fujiwara_exponent of r.
    """

    def __init__(self, gram: _SturmChain, e: bool, m: IntPolynomial):
        self.poly = m
        self.depth = _halving_depth(m)
        self.gram = gram
        self.k = _fujiwara_exponent(gram.poly)
        self.top = 1 << self.k, 1
        self.e = e
        self._places: dict[tuple[int, int], tuple[int, int, bool]] = {}

    def _above(self, u: tuple[int, int]) -> int:
        return self.gram.count(u, self.top)

    @cached_property
    def _offsets(self) -> tuple[int, int, int, int]:
        t = self._above((-self.top[0], 1))
        neg = 2 * t - 2 * self._above((-4, 1)) - self.gram.is_root((-4, 1))
        return t, neg - t, neg, neg + 2 * self._above((0, 1)) + self.e

    def _place(self, x: tuple[int, int]) -> tuple[int, int, bool]:
        """(branch of x, N(x) less the branch's offset, m(x) = 0), memoized."""
        place = self._places.get(x)
        if place is None:
            a, b = x
            falls, num, den = -b < a < b, (a - b) ** 2, a * b  # phi(x) = num / den
            if a == 0:
                place = 2, 0, False  # m(0) != 0 as c(0) = +-1
            else:
                if num >= abs(den) << self.k:  # |phi(x)| >= top: no root of r from there out
                    above, root = 0 if a > 0 else self._above((-self.top[0], 1)), False
                else:
                    # a point: a - b is prime to a and to b, so num / den is in lowest terms
                    mu = (num, den) if den > 0 else (-num, -den)
                    # m(1) = 0 iff e, else m(x) = 0 iff r(mu) = 0
                    above, root = self._above(mu), self.e if num == 0 else self.gram.is_root(mu)
                    above += falls and root
                place = (2 if a > 0 else 1, above, root) if falls else (3 if a > 0 else 0, -above, root)
            self._places[x] = place
        return place

    def is_root(self, x: tuple[int, int]) -> bool:
        return self._place(x)[2]

    def count(self, lo: tuple[int, int], hi: tuple[int, int]) -> int:
        """m's distinct roots in the half-open interval (lo, hi]."""
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return 0
        (i, below, _), (j, upto, _) = self._place(lo), self._place(hi)
        return upto - below + (self._offsets[j] - self._offsets[i] if i != j else 0)


def _stable(gram: _SturmChain) -> bool:
    """Whether every root of the Coxeter polynomial c of a graph is real
    and negative, in two readings of the chain of its Gram polynomial q.

    By _GramChain's factorization, c's roots are -1 and, for each root mu
    of q, those of t^2 + (2 + mu) t + 1, of product 1, sum -(2 + mu) and
    discriminant mu (mu + 4).  So mu > 0 gives -x and -1/x, x > 0; mu = 0
    and (t+1)^(n-2s) give -1; mu = -4 gives 1, mu < -4 positive roots, and
    mu in (-4, 0) non-real ones, as does a non-real mu, since a real root
    t makes mu = -(t + 1/t) - 2 real.  So it is yes iff the deg r distinct
    roots of r = sf(q) all lie in [0, 2^k), k the _fujiwara_exponent of r.
    """
    r = gram.poly
    return gram.count((0, 1), (1 << _fujiwara_exponent(r), 1)) + gram.is_root((0, 1)) == r.degree


class _Roots:
    """Every root question about p, answered on one chain of m = sf(-t),
    for sf the squarefree part of p: its Sturm chain, or the _GramChain
    of a graph's Coxeter polynomial (of_gram).  count and is_root read it
    as a chain of sf, so _top_cell and _root_gap take a _Roots for one."""

    def __init__(self, p: IntPolynomial):
        self.chain = _SturmChain(p.mirror())
        self.poly = sf = self.chain.poly.mirror().primitive()
        self.bound = cauchy_bound(sf)  # m's as well
        self.depth = self.chain.depth

    @classmethod
    def of_gram(cls, q: IntPolynomial, n: int) -> _Roots:
        """The _Roots of the Coxeter polynomial c of an n-vertex graph with
        Gram polynomial q, with no squarefree part or chain above deg q.

        sf identity.  By _GramChain's factorization, c's distinct roots are
        -1 iff e, 1 iff r(-4) = 0, and the roots of t^2 + (2 + mu) t + 1
        for r's other roots mu: simple (discriminant mu (mu + 4)), apart
        for distinct mu (mu = -(t + 1/t) - 2).  For r' = r less y and y + 4,
        of degree d', the substitution of degree 2d' + e is lc(r') (t+1)^e
        prod_(r'(mu) = 0) (t^2 + (2 + mu) t + 1).  Times t - 1 iff r(-4) =
        0, it is squarefree with c's roots: sf, once primitive.
        """
        gram = _SturmChain(q)
        r = rest = gram.poly
        e = r.coeffs[0] == 0 or n > 2 * q.degree
        if r.coeffs[0] == 0:
            rest = IntPolynomial(r.coeffs[1:])
        four = rest.sign_at(-4, 1) == 0
        if four:
            rest = poly_divexact(rest, IntPolynomial([4, 1]))
        sf = _coxeter_from_gram(rest, 2 * rest.degree + e)
        roots = cls.__new__(cls)
        roots.poly = sf = (sf * IntPolynomial([-1, 1]) if four else sf).primitive()
        roots.chain = _GramChain(gram, e, sf.mirror().primitive())
        roots.bound = cauchy_bound(sf)
        roots.depth = roots.chain.depth
        return roots

    def count(self, lo: tuple[int, int], hi: tuple[int, int]) -> int:
        """sf's distinct roots in [lo, hi), m's in (-hi, -lo]: those in
        (lo, hi] when neither end is a root, which _top_cell and _root_gap
        ask of is_root on the same readings."""
        return self.chain.count((-hi[0], hi[1]), (-lo[0], lo[1]))

    def is_root(self, x: tuple[int, int]) -> bool:
        return self.chain.is_root((-x[0], x[1]))

    def _between(self, lo: Fraction, hi: Fraction) -> int:
        return self.count(lo.as_integer_ratio(), hi.as_integer_ratio())

    @property
    def real_rooted(self) -> bool:
        return self._between(-self.bound, self.bound) == self.poly.degree

    @property
    def all_negative(self) -> bool:
        """Every root real and in [-bound, 0), so a root at 0 fails."""
        return self._between(-self.bound, _ZERO) == self.poly.degree

    @property
    def stable(self) -> bool:
        """all_negative of an of_gram _Roots, on its chain of q (_stable)."""
        return _stable(self.chain.gram)

    @staticmethod
    def stable_of(q: IntPolynomial) -> bool:
        """stable on a new chain of q, with no sf(c) or _GramChain."""
        return _stable(_SturmChain(q))

    def max_root_cell(self, eps: Fraction) -> RationalInterval | None:
        """The cell, width <= eps, of the largest real root, or None."""
        cell = _top_cell(self, -self.bound.numerator, *self.bound.as_integer_ratio())
        return None if cell is None else _refine(self.poly, cell, eps)

    def radius_cell(self, eps: Fraction) -> tuple[IntPolynomial, RationalInterval]:
        """(g, cell), g squarefree and cell, of width <= eps, isolating its
        largest real root, which is max |real root| of sf: a pair for
        compare_isolated_roots.

        When sf has no root >= 0, g is m and the cell comes from the
        descent on m's chain from (0, bound], bound that of sf * m.  For a
        real-rooted sf that is exactly the cell max_real_root gives on
        sf(t) * sf(-t), at half the degree: that isolation bisects at 0
        first, the product's positive roots are m's, and sf keeps one sign
        on [0, bound].
        """
        m = self.chain.poly
        bound = cauchy_bound(self.poly * m)
        if self._between(_ZERO, bound) == 0:
            cell = _top_cell(self.chain, 0, *bound.as_integer_ratio())
            if cell is None:
                raise ValueError("polynomial has no real roots")
            return m, _refine(m, cell, eps)
        folded = _Roots(m.mirror() * m)
        return folded.poly, folded.max_root_cell(eps)


def is_real_rooted(p: IntPolynomial) -> bool:
    """True when every complex root of p is real.  Only distinct roots
    matter, so one chain of the squarefree part decides it."""
    return _Roots(p).real_rooted


def is_real_stable(p: IntPolynomial) -> bool:
    """True when every root of p is real and strictly positive, that is,
    every root of p(-t) real and strictly negative."""
    return _Roots(p.mirror()).all_negative


def max_real_root(p: IntPolynomial, eps: Fraction = DEFAULT_EPSILON) -> RationalInterval:
    """Enclosure of the largest real root, width <= eps."""
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    cell = _Roots(p).max_root_cell(eps)
    if cell is None:
        raise ValueError("polynomial has no real roots")
    return cell


def spectral_radius_enclosure(p: IntPolynomial,
                              eps: Fraction = DEFAULT_EPSILON) -> RationalInterval:
    """Enclosure of max |root| for a real-rooted polynomial.

    The radius is the largest real root of sf(t) * sf(-t), which
    sidesteps any need to break ties between the extreme roots of p;
    when every root is negative it is found on sf(-t) alone.
    """
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if p.is_zero or p.degree < 1:
        raise ValueError("spectral radius needs a nonconstant polynomial")
    roots = _Roots(p)
    if not roots.real_rooted:
        raise ValueError("spectral radius enclosure needs a real-rooted polynomial")
    _, iv = roots.radius_cell(eps)
    return RationalInterval(max(_ZERO, iv.lo), max(_ZERO, iv.hi))


def interlace_check(p: IntPolynomial, q: IntPolynomial) -> bool:
    """Non-strict interlacing of the root multisets: with deg q = deg p + 1,
    checks beta_1 <= alpha_1 <= beta_2 <= ... <= alpha_s <= beta_{s+1}
    without isolating a root.  Both must be real-rooted, else ValueError.

    Gcd lemma.  For real-rooted p and q let D(x) = #{i : beta_i <= x} -
    #{i : alpha_i <= x}.  beta_i <= alpha_i for all i says D >= 0
    everywhere, and alpha_i <= beta_{i+1} for all i says D <= 1.  D jumps
    by mult_q(r) - mult_p(r) at each root r, and dividing p and q by
    g = gcd(p, q) lowers both multiplicities by the same amount.  So p, q
    interlace iff f = p/g and h = q/g do.  These are coprime, so D jumps
    up by mult_h at roots of h and down by mult_f at roots of f; going
    from D(-inf) = 0 to D(+inf) = 1 inside [0, 1] forces simple roots
    that alternate, h's first and last: f and h interlace strictly.

    Sturm-Sylvester step.  The Cauchy index Ind(f/h) sums, over the
    distinct real roots x of h, the jump of f/h at x: +-1 when x has odd
    multiplicity (f(x) != 0 by coprimality), else 0.  So |Ind| = deg h
    iff h has deg h simple real roots where the jumps, of sign
    sign(f(x) h'(x)), agree.  h' alternates in sign over consecutive
    simple roots, so that holds iff f changes sign between any two; as
    deg f = deg h - 1, f then has one simple root in each gap and none
    outside: strict interlacing.  By the Sturm-Sylvester theorem (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2),
    Ind(f/h) = Var(-inf) - Var(+inf) on the signed remainder sequence
    of (h, f): only leading coefficients and degrees are read.  As
    p/q = f/h, the sequence of (q, p) is g times that of (h, f), up to
    positive constants: it ends in g, so deg h = deg q - deg g, and its
    variations at +-inf, hence Ind(f/h), are unchanged.

    Verdict.  A full index proves f and h real-rooted, so p = fg and
    q = hg are real-rooted iff g is, and one count on g settles True.
    Otherwise one count each on p and q tells False from ValueError.

    Mirroring both inputs, t -> -t, negates every root and reverses both
    root lists, which maps the chain onto itself and keeps degrees and
    real-rootedness, so the verdict or ValueError is the same: callers
    decide the Alexander pair Delta = +-c(-t) on the Coxeter pair.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("interlacing needs nonzero polynomials")
    if q.degree != p.degree + 1:
        raise ValueError("degree mismatch: expected deg q = deg p + 1")
    seq = _signed_remainders(q, p)
    g = seq[-1]
    index = (_sign_changes(s.lead * (-1) ** s.degree for s in seq)
             - _sign_changes(s.lead for s in seq))
    if abs(index) == q.degree - g.degree and (g.degree == 0 or is_real_rooted(g)):
        return True
    if not (is_real_rooted(p) and is_real_rooted(q)):
        raise ValueError("interlacing is defined for real-rooted polynomials")
    return False


def compare_isolated_roots(p_sf: IntPolynomial, ip: RationalInterval,
                           q_sf: IntPolynomial, iq: RationalInterval) -> int:
    """Exact comparison (-1, 0, +1) of the unique root of p_sf in ip
    against the unique root of q_sf in iq, both squarefree.

    The cells [a, b] / d and [c, e] / d share one denominator and halve
    each round, their ends non-roots.  Let sep be the least gap between
    distinct roots of the squarefree lcm L = p_sf q_sf / gcd.  Once both
    widths are below sep / 2, two distinct roots leave the cells disjoint,
    and an equal root, a root of the gcd, leaves it alone in the hull, so
    the gcd counts decide.  2^-_halving_depth(L) is below sep / 2, so two
    cells overlapping under it do not isolate roots: raise, not hang.
    """
    d = lcm(ip.lo.denominator, ip.hi.denominator, iq.lo.denominator, iq.hi.denominator)
    a, b, c, e = (x.numerator * (d // x.denominator) for x in (ip.lo, ip.hi, iq.lo, iq.hi))
    g = None
    while True:
        if a == b and c == e:
            return (a > c) - (a < c)
        if a == b or c == e:
            # the point x against the cell [lo, hi] / d of other_sf's root
            x, other_sf, lo, hi, flip = (a, q_sf, c, e, 1) if a == b else (c, p_sf, a, b, -1)
            if x <= lo:
                return -flip
            if x >= hi:
                return flip
            s = other_sf.sign_at(x, d)
            if s == 0:
                return 0
            # root of other_sf lies right of x iff no crossing yet
            return -flip if s == other_sf.sign_at(lo, d) else flip
        if b <= c:
            return -1
        if e <= a:
            return 1
        if g is None:
            g = poly_gcd(p_sf, q_sf)
            g_chain = _SturmChain(g) if g.degree > 0 else None
            depth = _halving_depth(poly_divexact(p_sf * q_sf, g))
            sp, sq = p_sf.sign_at(a, d), q_sf.sign_at(c, d)
        if g_chain is not None and all(g_chain.count(_point(lo, d), _point(hi, d)) == 1
                                       for lo, hi in ((a, b), (c, e), (min(a, c), max(b, e)))):
            return 0
        if max(b - a, e - c) << depth < d:
            raise RuntimeError("root comparison exceeded its halving bound: "
                               "a cell holds no root of its polynomial")
        (a, b), (c, e), d = _halve(p_sf, a, b, d, sp), _halve(q_sf, c, e, d, sq), 2 * d


def mu_max_cell(q: IntPolynomial) -> tuple[IntPolynomial, RationalInterval]:
    """(f, cell), f = r / y^[r(0) = 0] for r = sf(q) and cell isolating
    f's largest root mu_max, for the Gram polynomial q of an alternating
    graph with n >= 2 vertices.  compare_isolated_roots on the pairs of
    two graphs orders their spectral radii, with no squarefree part,
    chain or refinement of c.

    Proof.  G = B B^T is positive semidefinite with trace the edge count,
    so q's roots are mu >= 0 and mu_max > 0.  By _GramChain's
    factorization c's roots are -1 and, for each root mu, -x and -1/x with
    x >= 1 and phi(x) = (x - 1)^2 / x = mu.  So the radius is the x >= 1
    with phi(x) = mu_max, and as phi rises on [1, inf), radii are ordered
    as their mu_max are.  _top_cell on r's chain from (0, 2^k], k the
    _fujiwara_exponent of r, gives a cell with no other root of r and no
    root of r at its ends, but for the lower end 0 when r(0) = 0, which f
    does not vanish at.  ValueError when q has no positive root.
    """
    chain = _SturmChain(q)
    r = chain.poly
    cell = _top_cell(chain, 0, 1 << _fujiwara_exponent(r), 1)
    if cell is None:
        raise ValueError("Gram polynomial has no positive root")
    a, b, d = cell
    return (IntPolynomial(r.coeffs[1:]) if r.coeffs[0] == 0 else r,
            RationalInterval(Fraction(a, d), Fraction(b, d)))
