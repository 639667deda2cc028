"""Test-only root oracles: a Sturm chain read entry by entry with
Horner's rule, full isolation with multiplicities and Yun's squarefree
decomposition, independent of the one-chain routes the package takes to
each root question."""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from coxlinks.exact import (IntPolynomial, _signed_remainders, poly_divexact, poly_gcd,
                            squarefree_part)
from coxlinks.spectra import (DEFAULT_EPSILON, RationalInterval, _check_width, _min_width,
                              _refine, cauchy_bound)


def point(x: Fraction) -> tuple[int, int]:
    """x as the (numerator, denominator) pair that spectra's chains read."""
    return x.numerator, x.denominator


def variations(values) -> int:
    """Sign variations in a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class HornerChain:
    """The Sturm chain of sf, each entry evaluated at a Fraction by Horner's
    rule: the oracle for the quotient-recurrence reading of
    spectra._SturmChain, built from the remainder sequence alone."""

    def __init__(self, sf: IntPolynomial):
        self.poly = sf
        self.entries = _signed_remainders(sf, sf.derivative())
        self.min_width = _min_width(sf)

    def values(self, x: Fraction) -> list[int]:
        """b^(deg p) p(x) for each entry p, x = a / b in lowest terms."""
        return [p.eval(x) * x.denominator ** p.degree for p in self.entries]

    def is_root(self, x: Fraction) -> bool:
        return self.poly.eval(x) == 0

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in the half-open interval (lo, hi]."""
        if lo >= hi:
            return 0
        return variations(p.eval_sign(lo) for p in self.entries) - \
            variations(p.eval_sign(hi) for p in self.entries)


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


def separate(sf: IntPolynomial, intervals: list[RationalInterval]) -> list[RationalInterval]:
    # isolation can leave neighbors sharing an endpoint; bisect until
    # the closed intervals are pairwise disjoint
    for i in range(len(intervals) - 1):
        while intervals[i].hi >= intervals[i + 1].lo:
            intervals[i] = _refine(sf, intervals[i], intervals[i].width / 2)
            intervals[i + 1] = _refine(sf, intervals[i + 1], intervals[i + 1].width / 2)
    return intervals


def root_in(factor: IntPolynomial, iv: RationalInterval) -> bool:
    """Does the squarefree factor have (the) root inside this isolating
    interval?  Exact: point check or endpoint sign change."""
    if iv.is_point:
        return factor.eval_sign(iv.lo) == 0
    return factor.eval_sign(iv.lo) * factor.eval_sign(iv.hi) < 0


def isolate_real_roots(p: IntPolynomial, eps: Fraction = DEFAULT_EPSILON) -> RootIsolation:
    """Isolate every distinct real root of p with multiplicity, each in
    an interval of width <= eps."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if eps <= 0:
        raise ValueError("eps must be positive")
    decomp = squarefree_decomposition(p)
    sf = prod((f for f, _ in decomp), start=IntPolynomial([1]))  # no more gcds
    intervals = separate(sf, [_refine(sf, iv, eps) for iv in isolate_squarefree(sf)])
    roots = []
    for iv in intervals:
        mult = next(m for f, m in decomp if root_in(f, iv))
        roots.append((iv, mult))
    return RootIsolation(tuple(roots), sf)
