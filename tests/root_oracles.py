"""Test-only root oracles: a Sturm chain read entry by entry with
Horner's rule, full isolation with multiplicities and Yun's squarefree
decomposition, independent of the one-chain routes the package takes to
each root question; and a spy on the signed remainder sequences that
those routes run."""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from coxlinks import exact, spectra
from coxlinks.exact import (IntPolynomial, _signed_remainders, poly_divexact, poly_gcd,
                            squarefree_part)
from coxlinks.spectra import (DEFAULT_EPSILON, RationalInterval, _check_width, _halving_depth,
                              _refine, cauchy_bound)


def point(x: Fraction) -> tuple[int, int]:
    """x as the (numerator, denominator) pair that spectra's chains read."""
    return x.numerator, x.denominator


def sign(p: IntPolynomial, x: Fraction) -> int:
    """The sign of p at the rational x."""
    return p.sign_at(x.numerator, x.denominator)


def as_cell(iv: RationalInterval) -> tuple[int, int, int]:
    """iv as the integer cell (a, b, d), [a / d, b / d], that spectra's
    descents and refinement take."""
    d = lcm(iv.lo.denominator, iv.hi.denominator)
    return iv.lo.numerator * (d // iv.lo.denominator), iv.hi.numerator * (d // iv.hi.denominator), d


def as_interval(cell: tuple[int, int, int]) -> RationalInterval:
    """The integer cell (a, b, d) as the interval [a / d, b / d]."""
    a, b, d = cell
    return RationalInterval(Fraction(a, d), Fraction(b, d))


def variations(values) -> int:
    """Sign variations in a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class HornerChain:
    """The Sturm chain of sf, each entry evaluated at a Fraction by Horner's
    rule: the oracle for the quotient-recurrence reading of
    spectra._SturmChain, built from the remainder sequence alone.  A point
    is read once: the memo keeps the sign variations of the entries'
    Horner signs there and whether the first, sf, vanishes."""

    def __init__(self, sf: IntPolynomial):
        self.poly = sf
        self.entries = _signed_remainders(sf, sf.derivative())
        self.depth = _halving_depth(sf)
        self._memo: dict[Fraction, tuple[int, bool]] = {}

    def values(self, x: Fraction) -> list[int]:
        """b^(deg p) p(x) for each entry p, x = a / b in lowest terms."""
        return [p.eval(x) * x.denominator ** p.degree for p in self.entries]

    def _reading(self, x: Fraction) -> tuple[int, bool]:
        v = self._memo.get(x)
        if v is None:
            signs = [sign(p, x) for p in self.entries]
            v = self._memo[x] = variations(signs), signs[0] == 0
        return v

    def is_root(self, x: Fraction) -> bool:
        return self._reading(x)[1]

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in the half-open interval (lo, hi]."""
        if lo >= hi:
            return 0
        return self._reading(lo)[0] - self._reading(hi)[0]


@dataclass(frozen=True)
class RootIsolation:
    """Isolated real roots of a polynomial, ascending, with multiplicities."""
    roots: tuple[tuple[RationalInterval, int], ...]
    squarefree: IntPolynomial

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun's algorithm: p = unit * prod f_i**i with the f_i squarefree,
    pairwise coprime, primitive, positive leading coefficient.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    f = p.primitive()
    if f.degree == 0:
        return []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    out: list[tuple[IntPolynomial, int]] = []
    b = poly_divexact(f, g)
    d = poly_divexact(f.derivative(), g) - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d) if not d.is_zero else b
        if a.degree > 0:
            out.append((a, i))
        b = poly_divexact(b, a)
        if d.is_zero:
            break
        c = poly_divexact(d, a)
        d = c - b.derivative()
        i += 1
    return out


def sturm_count(p: IntPolynomial, interval: RationalInterval) -> int:
    """Number of distinct real roots of p in (interval.lo, interval.hi]."""
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    if p.degree == 0:
        return 0
    return HornerChain(squarefree_part(p)).count(interval.lo, interval.hi)


def root_gap(chain: HornerChain, lo: Fraction, hi: Fraction, mid: Fraction) -> Fraction:
    """Half-width w, at most (hi - lo) / 4, such that [mid - w, mid + w]
    holds no root but the root mid and its ends are not roots."""
    w = (hi - lo) / 4
    while chain.count(mid - w, mid + w) != 1 or chain.is_root(mid - w) or chain.is_root(mid + w):
        w /= 2
        _check_width(chain, w.numerator, w.denominator)
    return w


def isolate_squarefree(sf: IntPolynomial) -> list[RationalInterval]:
    """Disjoint intervals, one distinct root each, ascending, by Fraction
    bisection on the HornerChain of sf.  Non-point endpoints are never
    roots, so each bracket carries a sign change.  spectra._top_cell
    keeps the last of these and bisects no other."""
    if sf.degree <= 0:
        return []
    chain = HornerChain(sf)
    bound = cauchy_bound(sf)
    out: list[RationalInterval] = []

    def explore(lo: Fraction, hi: Fraction, cnt: int) -> None:
        if cnt == 0:
            return
        if cnt == 1:
            out.append(RationalInterval(lo, hi))
            return
        _check_width(chain, (hi - lo).numerator, (hi - lo).denominator)
        mid = (lo + hi) / 2
        if chain.is_root(mid):
            w = root_gap(chain, lo, hi, mid)
            explore(lo, mid - w, chain.count(lo, mid - w))
            out.append(RationalInterval(mid, mid))
            explore(mid + w, hi, chain.count(mid + w, hi))
        else:
            left = chain.count(lo, mid)
            explore(lo, mid, left)
            explore(mid, hi, cnt - left)

    explore(-bound, bound, chain.count(-bound, bound))
    return out


def refine_by_fractions(sf: IntPolynomial, iv: RationalInterval, eps: Fraction) -> RationalInterval:
    """Sign bisection of an isolating interval to width <= eps, one
    Fraction midpoint and one width test per halving: the oracle for the
    integer levels of spectra._refine."""
    if iv.is_point:
        return iv
    lo, hi = iv.lo, iv.hi
    slo = sign(sf, lo)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s = sign(sf, mid)
        if s == 0:
            return RationalInterval(mid, mid)
        if s == slo:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def separate(sf: IntPolynomial, intervals: list[RationalInterval]) -> list[RationalInterval]:
    # isolation can leave neighbors sharing an endpoint; bisect until
    # the closed intervals are pairwise disjoint
    for i in range(len(intervals) - 1):
        while intervals[i].hi >= intervals[i + 1].lo:
            intervals[i] = _refine(sf, as_cell(intervals[i]), intervals[i].width / 2)
            intervals[i + 1] = _refine(sf, as_cell(intervals[i + 1]), intervals[i + 1].width / 2)
    return intervals


def root_in(factor: IntPolynomial, iv: RationalInterval) -> bool:
    """Does the squarefree factor have (the) root inside this isolating
    interval?  Exact: point check or endpoint sign change."""
    if iv.is_point:
        return sign(factor, iv.lo) == 0
    return sign(factor, iv.lo) * sign(factor, iv.hi) < 0


def isolate_real_roots(p: IntPolynomial, eps: Fraction = DEFAULT_EPSILON) -> RootIsolation:
    """Isolate every distinct real root of p with multiplicity, each in
    an interval of width <= eps."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if eps <= 0:
        raise ValueError("eps must be positive")
    decomp = squarefree_decomposition(p)
    sf = prod((f for f, _ in decomp), start=IntPolynomial([1]))  # no more gcds
    intervals = separate(sf, [_refine(sf, as_cell(iv), eps) for iv in isolate_squarefree(sf)])
    roots = []
    for iv in intervals:
        mult = next(m for f, m in decomp if root_in(f, iv))
        roots.append((iv, mult))
    return RootIsolation(tuple(roots), sf)


def compare_by_fractions(p_sf: IntPolynomial, ip: RationalInterval,
                         q_sf: IntPolynomial, iq: RationalInterval) -> int:
    """The Fraction loop that spectra.compare_isolated_roots replaced, its
    oracle: each round halves both intervals with refine_by_fractions,
    reads the left-end signs again, and counts the gcd's roots on a
    HornerChain; it raises past the same halving bound."""
    g = None
    while True:
        if ip.is_point and iq.is_point:
            r, s = ip.lo, iq.lo
            return (r > s) - (r < s)
        if ip.is_point ^ iq.is_point:
            if ip.is_point:
                x, other_sf, other, flip = ip.lo, q_sf, iq, 1
            else:
                x, other_sf, other, flip = iq.lo, p_sf, ip, -1
            if x <= other.lo:
                return -flip
            if x >= other.hi:
                return flip
            s = sign(other_sf, x)
            if s == 0:
                return 0
            # root of other_sf lies right of x iff no crossing yet
            return -flip if s == sign(other_sf, other.lo) else flip
        if ip.hi <= iq.lo:
            return -1
        if iq.hi <= ip.lo:
            return 1
        if g is None:
            g = poly_gcd(p_sf, q_sf)
            g_chain = HornerChain(g) if g.degree > 0 else None
            floor = Fraction(1, 1 << _halving_depth(poly_divexact(p_sf * q_sf, g)))
        if g_chain is not None:
            hull = min(ip.lo, iq.lo), max(ip.hi, iq.hi)
            if all(g_chain.count(lo, hi) == 1 for lo, hi in ((ip.lo, ip.hi), (iq.lo, iq.hi), hull)):
                return 0
        if max(ip.width, iq.width) < floor:
            raise RuntimeError("root comparison exceeded its halving bound: "
                               "a cell holds no root of its polynomial")
        ip = refine_by_fractions(p_sf, ip, ip.width / 2)
        iq = refine_by_fractions(q_sf, iq, iq.width / 2)


def spy_on_remainder_sequences(monkeypatch) -> list[IntPolynomial]:
    """The first entry of every signed remainder sequence run from now on:
    one per Sturm chain built, and one per gcd, so per squarefree part,
    interlacing check or root comparison that takes one."""
    heads = []
    real = exact._remainder_steps

    def counting(a, b, *args, **kwargs):
        heads.append(a)
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(exact, "_remainder_steps", counting)
    monkeypatch.setattr(spectra, "_remainder_steps", counting)
    return heads


def gram_sequence_heads(q: IntPolynomial) -> list[IntPolynomial]:
    """The heads of the remainder sequences that one graph with Gram
    polynomial q runs for all its root questions: the chain of
    q.primitive(), which is the chain of sf(q) when q is squarefree, and
    else the chain of sf(q) as well."""
    f, r = q.primitive(), squarefree_part(q)
    return [f] if f == r else [f, r]
