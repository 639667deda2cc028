"""Exact integer linear algebra and polynomial arithmetic.

Everything here works over arbitrary-precision integers (plain ``int``)
and exact rationals (``fractions.Fraction``).  No floating point is used
anywhere in the package; every downstream certificate rests on the
exactness of these primitives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from operator import index
from typing import Iterable, Iterator, Sequence, Union

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

    def sign_at(self, num: int, den: int) -> int:
        """Sign of self at num / den, den > 0, via integers only."""
        v = self.homogeneous_at(num, den)
        return (v > 0) - (v < 0)

    def homogeneous_at(self, num: int, den: int) -> int:
        """den**deg * p(num/den) by Horner's rule in integers: for den > 0
        an integer of p's sign at num / den, with no Fraction arithmetic."""
        if self.is_zero:
            return 0
        acc = self.coeffs[-1]
        dp = 1
        for c in reversed(self.coeffs[:-1]):
            dp *= den
            acc = acc * num + c * dp
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k)

    def mirror(self) -> "IntPolynomial":
        """Return p(-t)."""
        return IntPolynomial(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs))

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return _int_gcd(*self.coeffs)

    def primitive(self) -> "IntPolynomial":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.lead < 0:
            g = -g
        return IntPolynomial(c // g for c in self.coeffs)

    def pretty(self) -> str:
        """Human-readable form, descending powers."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            power = "" if k == 0 else "t" if k == 1 else f"t^{k}"
            body = power if abs(c) == 1 and k else f"{abs(c)}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.pretty()!r})"


def _pseudo_division(a: IntPolynomial, b: IntPolynomial,
                     quotient: bool = True) -> tuple[IntPolynomial | None, int | None, IntPolynomial]:
    """(q, m, r) with m a = q b + r and deg r < deg b, by integer
    pseudo-division: m = |lc(b)|^(d+1), d = deg a - deg b (m = 1 and q = 0
    when d < 0).  The sign of lc(b)^(d+1) is folded into q and r, so r is
    a positive multiple of the true remainder, which Sturm chains rely on.
    With quotient False, q and m are None: only r is built."""
    lc, db = b.lead, b.degree
    r = list(a.coeffs)
    bc = b.coeffs[:-1]
    # Each step keeps the coefficient it reads at t^k, s = k - db, and the
    # s later steps scale it by lc: r ends as Q above the remainder R', for
    # lc^(d+1) a = Q b + R'
    for k in range(a.degree, db - 1, -1):
        coef = r[k]
        for i in range(len(r)):
            r[i] *= lc
        r[k] = coef
        if coef:
            shift = k - db
            for i, c in enumerate(bc):
                r[i + shift] -= coef * c
    e = max(a.degree - db + 1, 0)
    if lc < 0 and e % 2:
        r = [-c for c in r]
    if not quotient:
        return None, None, IntPolynomial(r[:db])
    return IntPolynomial(r[db:]), abs(lc) ** e, IntPolynomial(r[:db])


def _remainder_steps(a: IntPolynomial, b: IntPolynomial,
                     quotients: bool = True) -> Iterator[tuple[IntPolynomial | None, int | None, int, IntPolynomial]]:
    """(q, m, g, p) for each entry p of the signed remainder sequence of
    (a, b) past b: (q, m) as _pseudo_division(a, b, quotients) gives them
    for the two entries a, b before p, and g p = -r with g > 0, so m a =
    q b - g p when quotients is True."""
    while b.degree > 0:
        q, m, rem = _pseudo_division(a, b, quotients)
        if rem.is_zero:
            return
        g = rem.content()
        a, b = b, IntPolynomial(-c // g for c in rem.coeffs)
        yield q, m, g, b


def _signed_remainders(a: IntPolynomial, b: IntPolynomial) -> list[IntPolynomial]:
    """Signed remainder sequence a, b, -rem(a, b), ... to its last nonzero
    entry, each a positive multiple of the true one, so signs agree.  The
    last entry is gcd(a, b) up to a constant."""
    return [a] if b.is_zero else [a, b, *(p for *_, p in _remainder_steps(a, b, quotients=False))]


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


def _kronecker_digits(v: int, b: int, count: int) -> list[int]:
    """Balanced base-2^b digits d_0, ..., d_(count-1) of v, in [-2^(b-1),
    2^(b-1)), b a multiple of 8: p(2^b) reads back as p if all |p_i| <
    2^(b-1).  Plus 2^(b-1) in every digit they are the bytes of one
    integer, read in linear time.  RuntimeError if v is no such sum."""
    w, half = b // 8, 1 << (b - 1)
    try:
        data = (v + int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")).to_bytes(w * count, "little")
    except OverflowError:
        raise RuntimeError(f"Kronecker digits: value out of range of {count} digits") from None
    return [int.from_bytes(data[i:i + w], "little") - half for i in range(0, w * count, w)]


def _coxeter_from_gram(q: IntPolynomial, n: int) -> IntPolynomial:
    """A'Campo's substitution (-1)^s (t+1)^(n-2s) sum_k q_k (-(t+1)^2)^k
    t^(s-k), s = deg q: the Coxeter polynomial of an n-vertex graph from
    its Gram polynomial q, as proved in coxeter.coxeter_polynomial, at t =
    2^b by the homogeneous Horner rule acc u + q_k t^(s-k), u = -(t+1)^2 by
    shifts.  The terms of (t+1)^(n-2s+2k) t^(s-k) are nonnegative with sum
    at most 2^n, so |c_i| <= 2^n sum_k |q_k| < 2^(b-1)."""
    q = q.coeffs
    s = len(q) - 1
    b = (n + sum(map(abs, q)).bit_length() + 9) // 8 * 8
    acc = q[s]
    for k in range(s - 1, -1, -1):
        acc = (q[k] << b * (s - k)) - (acc << 2 * b) - (acc << (b + 1)) - acc
    acc *= ((1 << b) + 1) ** (n - 2 * s)
    return IntPolynomial(_kronecker_digits(-acc if s % 2 else acc, b, n + 1))


def _sparse_det(rows: list[dict[int, int]]) -> int:
    """det A of a matrix given by the nonzero entries of its rows, by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on the
    diagonal, for an A whose principal minors are all nonzero.  The row
    maps are consumed.

    The next pivot is the remaining row with the fewest nonzeros, ties
    broken by index, so the pivots are the leading principal minors p_k
    of A with rows and columns in pivot order, and step k sets a_ij to
    (p_k a_ij - a_ik a_kj) / p_(k-1).  By Sylvester's identity that is
    the minor on the k pivots and i, j, an integer, so the division is
    exact.  A row that the pivot column misses would only be scaled by
    p_k / p_(k-1), and over steps these telescope: such a row is not
    rewritten but keeps the pivot P_i of its last writing as a stamp, and
    its true entries are the stored v_ij times p_(k-1) / P_i.  So the
    pivot row is brought up to date that way, and a row that the pivot
    column touches is rewritten as (p_k v_ij - v_ik a_kj) / P_i, which is
    the update of its true entries, exact as well.
    """
    live = dict(enumerate(rows))
    stamp = [1] * len(rows)
    prev = 1
    while live:
        k = min(live, key=lambda i: (len(live[i]), i))
        top, st = live.pop(k), stamp[k]
        if st != prev:
            top = {j: a * prev // st for j, a in top.items()}
        p = top.pop(k)
        for i, row in live.items():
            a = row.pop(k, 0)
            if a:
                new = {j: v * p for j, v in row.items()}
                for j, v in top.items():
                    new[j] = new.get(j, 0) - a * v
                st = stamp[i]
                live[i] = {j: v // st for j, v in new.items() if v}
                stamp[i] = p
        prev = p
    return prev


class IntMatrix:
    """Immutable square matrix over the integers; a float or Fraction
    entry raises TypeError.  Each row is held as one {column: value} map
    of its nonzero entries, so every operation runs over the nonzeros
    and an entry that cancels to 0 is dropped; .rows is the dense view."""

    __slots__ = ("_entries", "n")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rs = [list(map(index, row)) for row in rows]
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        self._entries = tuple({j: a for j, a in enumerate(r) if a} for r in rs)
        self.n = n

    @classmethod
    def _of(cls, entries: Sequence[dict[int, int]]) -> "IntMatrix":
        """The matrix whose row i has the nonzero entries entries[i], taken
        unchecked: int values, none of them 0, columns below len(entries)."""
        m = object.__new__(cls)
        m._entries, m.n = tuple(entries), len(entries)
        return m

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(tuple(r.get(j, 0) for j in range(n)) for r in self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(frozenset(r.items()) for r in self._entries))

    def _require_size(self, other: "IntMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"matrix sizes differ: {self.n} and {other.n}")

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_size(other)
        out = []
        for ra, rb in zip(self._entries, other._entries):
            row = dict(ra)
            for j, b in rb.items():
                row[j] = row.get(j, 0) + b
            out.append({j: v for j, v in row.items() if v})
        return IntMatrix._of(out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of([{j: -a for j, a in r.items()} for r in self._entries])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        # row i of the product is sum_k a_ik (row k of other)
        self._require_size(other)
        rows_b = other._entries
        out = []
        for ra in self._entries:
            acc: dict[int, int] = {}
            for k, a in ra.items():
                for j, b in rows_b[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix._of(out)

    def transpose(self) -> "IntMatrix":
        cols: list[dict[int, int]] = [{} for _ in range(self.n)]
        for i, r in enumerate(self._entries):
            for j, a in r.items():
                cols[j][i] = a
        return IntMatrix._of(cols)

    def is_symmetric(self) -> bool:
        return self.transpose() == self

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
