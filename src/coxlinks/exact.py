"""Exact integer linear algebra and polynomial arithmetic.

Everything here works over arbitrary-precision integers (plain ``int``)
and exact rationals (``fractions.Fraction``).  No floating point is used
anywhere in the package; every downstream certificate rests on the
exactness of these primitives.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as _int_gcd
from operator import index
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class IntPolynomial:
    """Univariate polynomial with integer coefficients.

    Coefficients are stored ascending, so ``coeffs[k]`` is the
    coefficient of ``t**k``.  Trailing zeros are stripped; the zero
    polynomial has an empty coefficient tuple and degree -1.  A float or
    Fraction coefficient raises TypeError, where int() would truncate it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __rmul__(self, other: int) -> "IntPolynomial":
        return self * other

    def eval(self, x: Scalar) -> Scalar:
        """Evaluate by Horner's rule; exact for int and Fraction input."""
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_sign(self, x: Fraction) -> int:
        """Sign of self at a rational point, via integers only.

        Computes den**deg * p(num/den), whose sign equals sign(p(x))
        because den > 0.  Avoids Fraction arithmetic in hot loops.
        """
        if self.is_zero:
            return 0
        num, den = x.numerator, x.denominator
        acc = self.coeffs[-1]
        dp = 1
        for c in reversed(self.coeffs[:-1]):
            dp *= den
            acc = acc * num + c * dp
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k)

    def mirror(self) -> "IntPolynomial":
        """Return p(-t)."""
        return IntPolynomial(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs))

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, c)
        return g

    def primitive(self) -> "IntPolynomial":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.lead < 0:
            g = -g
        return IntPolynomial(c // g for c in self.coeffs)

    def pretty(self, var: str = "t") -> str:
        """Human-readable form, descending powers."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = var if mag == 1 else f"{mag}{var}"
            else:
                body = f"{var}^{k}" if mag == 1 else f"{mag}{var}^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.pretty()!r})"


def _pseudo_rem_positive(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of a by b scaled by a positive constant.

    Integer pseudo-division computes lc(b)**(d+1) * a mod b; when that
    multiplier is negative the result is negated so the output is always
    a positive rational multiple of the true remainder.  Sign-sensitive
    callers (Sturm chains) rely on this.
    """
    d = a.degree - b.degree
    if d < 0:
        return a
    lc = b.lead
    r = list(a.coeffs)
    bc = b.coeffs
    for k in range(a.degree, b.degree - 1, -1):
        coef = r[k]
        for i in range(len(r)):
            r[i] *= lc
        if coef:
            shift = k - b.degree
            for i, c in enumerate(bc):
                r[i + shift] -= coef * c
        del r[k]
    rem = IntPolynomial(r)
    if lc < 0 and (d + 1) % 2 == 1:
        rem = -rem
    return rem


def _signed_remainders(a: IntPolynomial, b: IntPolynomial) -> list[IntPolynomial]:
    """Signed remainder sequence a, b, -rem(a, b), ... to its last nonzero
    entry, each a positive multiple of the true one, so signs agree.  The
    last entry is gcd(a, b) up to a constant."""
    seq = [a, b]
    while not seq[-1].is_zero and seq[-1].degree > 0:
        rem = _pseudo_rem_positive(seq[-2], seq[-1])
        if rem.is_zero:
            break
        # content removal must not flip the sign of the entry
        g = rem.content()
        seq.append(IntPolynomial(-c // g for c in rem.coeffs))
    if seq[-1].is_zero:
        seq.pop()
    return seq


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient: the last entry of
    the signed remainder sequence, whose entries stay primitive, so no
    rational arithmetic occurs and coefficient growth stays tame."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return _signed_remainders(p.primitive(), q.primitive())[-1].primitive()


def poly_divexact(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact quotient a/b in Z[t] by integer long division; raises if b
    does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return IntPolynomial()
    dq = a.degree - b.degree
    if dq < 0:
        raise ValueError("inexact polynomial division")
    num = list(a.coeffs)
    den = b.coeffs
    out = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c, r = divmod(num[k + b.degree], den[-1])
        if r:
            raise ValueError("inexact polynomial division")
        out[k] = c
        if c:
            for i, bc in enumerate(den):
                num[k + i] -= c * bc
    if any(num):
        raise ValueError("inexact polynomial division")
    return IntPolynomial(out)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """Product of the distinct irreducible factors of p, primitive with
    positive leading coefficient."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    f = p.primitive()
    if f.degree <= 0:
        return IntPolynomial([1])
    g = poly_gcd(f, f.derivative())
    return poly_divexact(f, g).primitive()


def _coxeter_from_gram(q: IntPolynomial, n: int) -> IntPolynomial:
    """A'Campo's substitution (-1)^s (t+1)^(n-2s) sum_k q_k (-(t+1)^2)^k
    t^(s-k), s = deg q: the Coxeter polynomial of an n-vertex graph from
    its Gram polynomial q, as proved in coxeter.coxeter_polynomial."""
    q = q.coeffs
    s = len(q) - 1
    # homogeneous Horner: acc = sum_k q_k u^k t^(s-k) with u = -(t+1)^2
    u = IntPolynomial([-1, -2, -1])
    acc = IntPolynomial([q[s]])
    for k in range(s - 1, -1, -1):
        acc = acc * u + IntPolynomial([0] * (s - k) + [q[k]])
    acc = acc * IntPolynomial(comb(n - 2 * s, i) for i in range(n - 2 * s + 1))
    return -acc if s % 2 else acc


class IntMatrix:
    """Immutable square matrix over the integers; a float or Fraction
    entry raises TypeError."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rs = tuple(tuple(map(index, row)) for row in rows)
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        self.rows = rs
        self.n = n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        # row i of the product is sum_j a_ij (row j of other), over the
        # nonzero a_ij and the nonzero entries of that row only
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * other.n
            for a, entries in zip(row, nonzero):
                if a:
                    for j, b in entries:
                        acc[j] += a * b
            out.append(acc)
        return IntMatrix(out)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def is_symmetric(self) -> bool:
        return all(self.rows[i][j] == self.rows[j][i]
                   for i in range(self.n) for j in range(i + 1, self.n))

    def charpoly(self) -> IntPolynomial:
        """Characteristic polynomial det(tI - A), monic, by the Berkowitz
        vector recurrence.

        Division-free: every intermediate value is an integer, which is
        what makes the downstream Sturm certificates trustworthy.
        """
        n = self.n
        if n == 0:
            return IntPolynomial([1])
        rows = self.rows
        poly = [1]
        for k in range(1, n + 1):
            akk = rows[k - 1][k - 1]
            q = [1, -akk]
            if k > 1:
                r = rows[k - 1][:k - 1]
                v = [rows[i][k - 1] for i in range(k - 1)]
                q.append(-sum(a * b for a, b in zip(r, v)))
                for _ in range(k - 2):
                    v = [sum(rows[i][j] * v[j] for j in range(k - 1))
                         for i in range(k - 1)]
                    q.append(-sum(a * b for a, b in zip(r, v)))
            new = [0] * (k + 1)
            for j, pj in enumerate(poly):
                if pj:
                    top = min(j + len(q), k + 1)
                    for m in range(j, top):
                        new[m] += q[m - j] * pj
            poly = new
        return IntPolynomial(reversed(poly))

    def __repr__(self) -> str:
        body = ", ".join(str(list(r)) for r in self.rows)
        return f"IntMatrix([{body}])"


def fraction_to_decimal(x: Fraction, digits: int = 12) -> str:
    """Deterministic fixed-point decimal rendering of an exact rational."""
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    scaled = num * 10 ** digits // den
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
