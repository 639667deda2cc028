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

from .exact import (IntPolynomial, _coxeter_from_gram, _signed_remainders, poly_divexact,
                    poly_gcd, squarefree_part)

_ZERO = Fraction(0)
_MINUS_FOUR = Fraction(-4)
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


def _min_width(sf: IntPolynomial) -> Fraction:
    """2^-K for a halving count K past which no correct bisection
    between the roots of the squarefree sf goes; see _check_width."""
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
    return Fraction(1, 1 << (k0 + 1 + d))


class _SturmChain:
    """Sturm chain of a squarefree polynomial, read once per rational
    point: the reading, memoized, holds the chain's sign variations there
    and whether the polynomial, its first entry, vanishes there."""

    def __init__(self, sf: IntPolynomial):
        self.poly = sf
        self.chain = _signed_remainders(sf, sf.derivative())
        self.min_width = _min_width(sf)
        self._memo: dict[Fraction, tuple[int, bool]] = {}

    def _reading(self, x: Fraction) -> tuple[int, bool]:
        v = self._memo.get(x)
        if v is None:
            signs = [p.eval_sign(x) for p in self.chain]
            v = self._memo[x] = _sign_changes(signs), signs[0] == 0
        return v

    def is_root(self, x: Fraction) -> bool:
        return self._reading(x)[1]

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in the half-open interval (lo, hi]."""
        if lo >= hi:
            return 0
        return self._reading(lo)[0] - self._reading(hi)[0]


def _check_width(chain: _SturmChain | _GramChain | _Roots, width: Fraction) -> None:
    """Raise when a bisection has gone below chain.min_width, which a
    correct chain never does: the halving loops end in an error, not a
    hang."""
    if width < chain.min_width:
        raise RuntimeError("root isolation exceeded its halving bound: "
                           "inconsistent Sturm chain")


def _root_gap(chain: _SturmChain | _GramChain | _Roots, lo: Fraction, hi: Fraction, mid: Fraction) -> Fraction:
    """Half-width w, at most (hi - lo) / 4, such that [mid - w, mid + w]
    holds no root but the root mid and its ends are not roots."""
    w = (hi - lo) / 4
    while chain.count(mid - w, mid + w) != 1 or chain.is_root(mid - w) or chain.is_root(mid + w):
        w /= 2
        _check_width(chain, w)
    return w


def _top_cell(chain: _SturmChain | _GramChain | _Roots, lo: Fraction, hi: Fraction) -> RationalInterval | None:
    """The cell of the largest root in (lo, hi], or None when there is no
    root there.  Follows the full isolation's bisection but keeps only
    the sub-cell holding the largest root, so with (lo, hi] = (-bound,
    bound] it returns exactly the last interval that isolation returns
    (isolate_squarefree in tests/root_oracles.py, and the tests that
    compare the two)."""
    cnt = chain.count(lo, hi)
    if cnt == 0:
        return None
    while cnt > 1:
        _check_width(chain, hi - lo)
        mid = (lo + hi) / 2
        if chain.is_root(mid):
            w = _root_gap(chain, lo, hi, mid)
            right = chain.count(mid + w, hi)
            if right == 0:
                return RationalInterval(mid, mid)
            lo, cnt = mid + w, right
        else:
            right = chain.count(mid, hi)
            if right == 0:
                hi = mid
            else:
                lo, cnt = mid, right
    return RationalInterval(lo, hi)


def _refine(sf: IntPolynomial, iv: RationalInterval, eps: Fraction) -> RationalInterval:
    """Shrink an isolating interval to width <= eps by sign bisection."""
    if iv.is_point:
        return iv
    lo, hi = iv.lo, iv.hi
    slo = sf.eval_sign(lo)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s = sf.eval_sign(mid)
        if s == 0:
            return RationalInterval(mid, mid)
        if s == slo:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


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

    top = 2^k: every root has |z| <= 2 max_j |a_(d-j) / a_d|^(1/j)
    (Fujiwara, Tohoku Math. J. 10, 1916) and |a_(d-j) / a_d| < 2^e_j for
    e_j = bitlen(a_(d-j)) - bitlen(a_d) + 1, so k = 1 + max(0, ceil(e_j /
    j)) will do.  2^k <= max(2, 16 d R), R the largest modulus, where
    cauchy_bound(r) grows with r's largest coefficient.
    """

    def __init__(self, r: IntPolynomial, e: bool, m: IntPolynomial):
        self.poly = m
        self.min_width = _min_width(m)
        self.gram = _SturmChain(r)
        lead = abs(r.lead).bit_length()
        self.k = 1 + max([0] + [-((lead - 1 - abs(c).bit_length()) // j)
                                for j, c in enumerate(reversed(r.coeffs[:-1]), 1) if c])
        self.top = Fraction(1 << self.k)
        self.e = e
        self._places: dict[tuple[int, int], tuple[int, int]] = {}

    def _above(self, u: Fraction) -> int:
        return self.gram.count(u, self.top)

    @cached_property
    def _offsets(self) -> tuple[int, int, int, int]:
        t = self._above(-self.top)
        neg = 2 * t - 2 * self._above(_MINUS_FOUR) - self.gram.is_root(_MINUS_FOUR)
        return t, neg - t, neg, neg + 2 * self._above(_ZERO) + self.e

    def _place(self, x: Fraction) -> tuple[int, int, bool]:
        """(branch of x, N(x) less the branch's offset, m(x) = 0), memoized."""
        a, b = key = x.numerator, x.denominator  # cheaper to hash than x
        place = self._places.get(key)
        if place is None:
            falls, num, den = -b < a < b, (a - b) ** 2, a * b  # phi(x) = num / den
            if a == 0:
                place = 2, 0, False  # m(0) != 0 as c(0) = +-1
            else:
                if num >= abs(den) << self.k:  # |phi(x)| >= top: no root of r from there out
                    above, root = 0 if a > 0 else self._above(-self.top), False
                else:
                    mu = Fraction(num, den)  # m(1) = 0 iff e, else m(x) = 0 iff r(mu) = 0
                    above, root = self._above(mu), self.e if num == 0 else self.gram.is_root(mu)
                    above += falls and root
                place = (2 if a > 0 else 1, above, root) if falls else (3 if a > 0 else 0, -above, root)
            self._places[key] = place
        return place

    def is_root(self, x: Fraction) -> bool:
        return self._place(x)[2]

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """m's distinct roots in the half-open interval (lo, hi]."""
        if lo >= hi:
            return 0
        (i, below, _), (j, upto, _) = self._place(lo), self._place(hi)
        return upto - below + (self._offsets[j] - self._offsets[i] if i != j else 0)


class _Roots:
    """Every root question about p, answered on one chain of m = sf(-t),
    for sf the squarefree part of p: its Sturm chain, or the _GramChain
    of a graph's Coxeter polynomial (of_gram).  count and is_root read it
    as a chain of sf, so _top_cell and _root_gap take a _Roots for one."""

    def __init__(self, p: IntPolynomial):
        self.poly = sf = squarefree_part(p)
        self.chain = _SturmChain(sf.mirror())
        self.bound = cauchy_bound(sf)  # m's as well
        self.min_width = self.chain.min_width

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
        r = rest = squarefree_part(q)
        e = r.coeffs[0] == 0 or n > 2 * q.degree
        if r.coeffs[0] == 0:
            rest = IntPolynomial(r.coeffs[1:])
        four = rest.eval_sign(_MINUS_FOUR) == 0
        if four:
            rest = poly_divexact(rest, IntPolynomial([4, 1]))
        sf = _coxeter_from_gram(rest, 2 * rest.degree + e)
        roots = cls.__new__(cls)
        roots.poly = sf = (sf * IntPolynomial([-1, 1]) if four else sf).primitive()
        roots.chain = _GramChain(r, e, sf.mirror())
        roots.bound = cauchy_bound(sf)
        roots.min_width = roots.chain.min_width
        return roots

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """sf's distinct roots in [lo, hi), m's in (-hi, -lo]: those in
        (lo, hi] when neither end is a root, which _top_cell and _root_gap
        ask of is_root on the same readings."""
        return self.chain.count(-hi, -lo)

    def is_root(self, x: Fraction) -> bool:
        return self.chain.is_root(-x)

    @property
    def real_rooted(self) -> bool:
        return self.count(-self.bound, self.bound) == self.poly.degree

    @property
    def all_negative(self) -> bool:
        """Every root real and in [-bound, 0), so a root at 0 fails."""
        return self.count(-self.bound, _ZERO) == self.poly.degree

    def outside(self, h: Fraction) -> int:
        """For h > 0, the distinct real roots r with r >= h or r < -h."""
        return self.count(h, self.bound) + self.count(-self.bound, -h)

    def max_root_cell(self, eps: Fraction) -> RationalInterval | None:
        """The cell, width <= eps, of the largest real root, or None."""
        cell = _top_cell(self, -self.bound, self.bound)
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
        if self.count(_ZERO, bound) == 0:
            cell = _top_cell(self.chain, _ZERO, bound)
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

    Both cells halve each round, and their ends stay non-roots.  Let
    sep be the least gap between distinct roots of the squarefree lcm
    L = p_sf q_sf / gcd.  Once both widths are below sep / 2, two
    distinct roots leave the cells disjoint, and an equal root, a root
    of the gcd, leaves it alone in the hull, so the gcd counts decide.
    _min_width(L) is below sep / 2, so two cells still overlapping
    under it do not isolate roots, and the loop raises, not hangs.
    """
    g = None
    while True:
        if ip.is_point and iq.is_point:
            r, s = ip.lo, iq.lo
            return (r > s) - (r < s)
        if ip.is_point ^ iq.is_point:
            if ip.is_point:
                point, other_sf, other = ip.lo, q_sf, iq
                flip = 1
            else:
                point, other_sf, other = iq.lo, p_sf, ip
                flip = -1
            if point <= other.lo:
                return -flip
            if point >= other.hi:
                return flip
            s = other_sf.eval_sign(point)
            if s == 0:
                return 0
            # root of other_sf lies right of point iff no crossing yet
            return -flip if s == other_sf.eval_sign(other.lo) else flip
        if ip.hi <= iq.lo:
            return -1
        if iq.hi <= ip.lo:
            return 1
        if g is None:
            g = poly_gcd(p_sf, q_sf)
            g_chain = _SturmChain(g) if g.degree > 0 else None
            floor = _min_width(poly_divexact(p_sf * q_sf, g))
        if g_chain is not None:
            hull_lo = min(ip.lo, iq.lo)
            hull_hi = max(ip.hi, iq.hi)
            if (g_chain.count(ip.lo, ip.hi) == 1
                    and g_chain.count(iq.lo, iq.hi) == 1
                    and g_chain.count(hull_lo, hull_hi) == 1):
                return 0
        if max(ip.width, iq.width) < floor:
            raise RuntimeError("root comparison exceeded its halving bound: "
                               "a cell holds no root of its polynomial")
        ip = _refine(p_sf, ip, ip.width / 2)
        iq = _refine(q_sf, iq, iq.width / 2)
