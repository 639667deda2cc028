"""Bipartite Coxeter transformations of mixed-sign graphs.

The bilinear form of a graph puts -2*sign(v) on the diagonal and the
adjacency entries off it.  Reflections divide by the diagonal entry,
which is always +-2, so every matrix below is an exact integer matrix.
On an alternating-sign graph the two sign classes are independent sets,
their reflections commute, and the two half-turns C+ and C- compose to
the bipartite Coxeter transformation C+- = C+ C-.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import dropwhile
from operator import not_

from .exact import IntMatrix, IntPolynomial, _coxeter_from_gram, _kronecker_digits, _sparse_det
from .graphs import (MixedSignCoxeterGraph, NotAlternatingError, adjacency_matrix,
                     graph_to_text, is_alternating_sign, sign_bipartition,
                     two_coloring)


class CertificationError(RuntimeError):
    """A theorem check failed on exact arithmetic: a certified violation,
    not a bad input or an internal fault."""


def _part_product(g: MixedSignCoxeterGraph, part: frozenset[int]) -> IntMatrix:
    # The reflections of an independent set commute and each one touches
    # only its own row, so their product is assembled in a single pass.
    entries = [{i: 1} for i in range(g.n)]
    for i in part:
        entries[i] = {**dict.fromkeys(g.neighbors[i], g.signs[i]), i: -1}
    return IntMatrix._of(entries)


def _require_involution(g: MixedSignCoxeterGraph, m: IntMatrix) -> None:
    """Raises CertificationError unless m m = I, tested row by row."""
    for i, row in enumerate((m @ m)._entries):
        if row != {i: 1}:
            raise CertificationError("C+ is not an involution\n" + graph_to_text(g))


def bipartite_factors(g: MixedSignCoxeterGraph) -> tuple[IntMatrix, IntMatrix]:
    """(C+, C-): products of the reflections over the two parts of the
    sign bipartition for alternating-sign graphs, and of a breadth-first
    2-coloring otherwise (the classical case)."""
    bip = sign_bipartition(g) if is_alternating_sign(g) else two_coloring(g)
    return _part_product(g, bip.part_plus), _part_product(g, bip.part_minus)


def coxeter_transformation(g: MixedSignCoxeterGraph) -> IntMatrix:
    c_plus, c_minus = bipartite_factors(g)
    return c_plus @ c_minus


def _factor_charpoly(c_plus: IntMatrix, c_minus: IntMatrix) -> IntPolynomial:
    """det(tI - C+ C-) for the factors of bipartite_factors, read off the
    n + 1 digits of one sparse determinant of tC+ - C- at t = 2^b.

    As C+ C+ = I, tI - C+ C- = C+ (tC+ - C-).  verify has _proof_identities
    check C+ C+ = I on the same factors first, which raises when it fails.
    C+ is a _part_product over an independent set: [[-I, X], [0, I]] with
    the set first, so det C+ = (-1)^k, k the -1s on its diagonal.  tC+ -
    C- is nonzero only on the diagonal and at the edges, so on a tree
    _sparse_det takes leaves first and fills in nothing.

    Bound.  Row i of tC+ - C- is t A_i - B_i, A_i and B_i rows of C+ and
    C-.  Expanded along its rows, a principal minor m(t) on the rows J sums
    t^|I| det(A_i for i in I, -B_i else) over I in J, so by Hadamard's
    inequality sum_j |m_j| <= prod_(i in J) (|A_i| + |B_i|), 2-norms of the
    rows cut to J.  Cutting shrinks a row, and each factor is >= 1 as A_ii
    = +-1, so sum_j |m_j| <= sqrt(P) < 2^(b-1) for P = prod_i 2 (|A_i|^2 +
    |B_i|^2), by (x + y)^2 <= 2 (x^2 + y^2).  For J all rows, c's digits
    read back.  Pivots.  (C+)_J is again [[-I, X'], [0, I]], so m(t) =
    +-t^|J| + lower terms, and |m(2^b)| > 2^(b|J|) - 2^(b(|J|-1)) 2^(b-1) >
    0: every principal minor is nonzero, as _sparse_det needs.
    """
    plus, minus = c_plus._entries, c_minus._entries
    p = 1
    for a, m in zip(plus, minus):
        p *= 2 * (sum(x * x for x in a.values()) + sum(x * x for x in m.values()))
    b = (p.bit_length() // 2 + 9) // 8 * 8
    rows = []
    for a, m in zip(plus, minus):
        row = {j: x << b for j, x in a.items()}
        for j, x in m.items():
            row[j] = row.get(j, 0) - x
        rows.append(row)
    det = _sparse_det(rows)
    k = sum(a[i] == -1 for i, a in enumerate(plus))
    return IntPolynomial(_kronecker_digits(-det if k % 2 else det, b, len(rows) + 1))


def _tree_gram(g: MixedSignCoxeterGraph, s: int) -> IntPolynomial:
    """q of a tree (see coxeter_polynomial), q_j = M_(s-j), from the
    matching polynomial M(z) = sum_k z^k sum_(k-edge matchings) prod s_u s_v
    at z = 2^b.  A matching misses v or covers it by an edge vu, so bottom-up
    over a breadth-first order, prod[v] = M(T_v - v) is the product over the
    children u, excl[v] sums their s_v s_u M(T_u - u) times the others'
    M(T_w), and M(T_v) = prod[v] + z excl[v].  |M_k| is at most the number
    Z of matchings, and Z <= F_(m+1) (Fibonacci) on a forest of m vertices:
    drop an isolated vertex, or split on a leaf v, Z(F) = Z(F - v) + Z(F -
    v - u).  So |M_k| <= F_(n+1) <= phi^n < 2^(7n/10) < 2^(b-1)."""
    n, signs = g.n, g.signs
    order, parent = [0], [-1] * n
    for v in order:  # grows while it is read: a breadth-first walk
        for u in g.neighbors[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    b = (7 * n // 10 + 9) // 8 * 8
    prod, excl = [1] * n, [0] * n
    for v in reversed(order):
        mv = prod[v] + (excl[v] << b)
        p = parent[v]
        if p >= 0:
            excl[p] = excl[p] * mv + signs[p] * signs[v] * prod[v] * prod[p]
            prod[p] *= mv
    return IntPolynomial(reversed(_kronecker_digits(mv, b, s + 1)))


def _gram_polynomial(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """q = det(yI - G) for S the smaller class of two_coloring (which
    raises NotBipartiteError on an odd cycle); see coxeter_polynomial.

    Off a tree, q(2^b) = det(2^b I - G) by _sparse_det, decoded by
    _kronecker_digits.  Bound.  G = -D_S B D_R B^T with D_S orthogonal,
    and B D_R B^T sums s_w b_w b_w^T over the columns b_w of B, of nuclear
    norm |b_w|^2 = deg w each.  So by Weyl's inequality (the moduli of
    the eigenvalues sum to at most the singular values), then the
    triangle inequality, sum_i |lam_i| <= |G|_* <= sum_(w in R) deg w = m,
    the edge count.  Then sum_k |q_k| <= prod_i (1 + |lam_i|) <= (1 +
    m/s)^s by AM-GM, and that is < 2^(b-1).  A principal submatrix of G
    is G for a subset of S, so its eigenvalues too have modulus <= m <
    2^b: every principal minor of 2^b I - G, a product of 2^b - lam over
    them, is nonzero, as _sparse_det needs, classical graphs included.
    """
    bip = two_coloring(g)
    small = sorted(min(bip.part_plus, bip.part_minus, key=len))
    n, s, signs = g.n, len(small), g.signs
    if g.edge_count == n - 1:
        return _tree_gram(g, s)
    # (1 + m/s)^s < 2^(L((s+m)^s) - L(s^s) + 1), L the bit length; entry
    # ij of 2^b I - G adds s_i s_w for every common neighbour w of i and j
    m = g.edge_count
    b = (((s + m) ** s).bit_length() - (s ** s).bit_length() + 9) // 8 * 8
    index = {v: k for k, v in enumerate(small)}
    rows = [{i: 1 << b} for i in range(s)]
    for w in range(n):
        if w not in index:
            around = [index[u] for u in g.neighbors[w]]
            for i in around:
                row = rows[i]
                weight = signs[small[i]] * signs[w]
                for j in around:
                    row[j] = row.get(j, 0) + weight
    det = _sparse_det([{j: a for j, a in row.items() if a} for row in rows])
    return IntPolynomial(_kronecker_digits(det, b, s + 1))


def coxeter_polynomial(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """Characteristic polynomial c(t) = det(tI - C+-) of the bipartite
    Coxeter transformation of any two-colourable graph, by the exact form
    of A'Campo's correspondence 2 + lam + 1/lam = -alpha^2 (Invent.
    Math. 33, 1976).  Let S be the smaller colour class, s = |S|, R the
    other, B the s x (n - s) biadjacency matrix from S to R, D_S and D_R
    the diagonal sign matrices of S and R, G = -D_S B D_R B^T and q(y) =
    det(yI - G).  On an alternating graph D_S = -D_R = +-I and G = B B^T.

    Schur step.  With S first, the complement of the block xI_(n-s) in
    A_w = [[0, -D_S B D_R], [B^T, 0]] gives chi(x) = det(xI - A_w) =
    x^(n-s) det(xI - G / x) = x^(n-2s) q(x^2).

    Substitution.  In the same order, by the rows of _part_product, the
    factor of S is [[-I, D_S B], [0, I]] and that of R [[I, 0], [D_R B^T,
    -I]], so tI - C_S C_R = [[(t+1)I + G, D_S B], [-D_R B^T, (t+1)I]].
    C+- is C_S C_R or C_R C_S, as the sign classes of a connected
    alternating graph are its colour classes, and det(tI - XY) =
    det(tI - YX).  The complement of (t+1)I_(n-s) leaves (t+1)^(n-s)
    det((t+1)I + G - G / (t+1)) = (t+1)^(n-2s) det((t+1)^2 I + t G), and
    that determinant is (-t)^s q(-(t+1)^2 / t), so
        c(t) = (-1)^s (t+1)^(n-2s) sum_k q_k (-(t+1)^2)^k t^(s-k).

    Computing q.  On a tree a permutation with a nonzero term in
    det(xI - A_w) fixes each vertex or swaps the ends of an edge uv,
    which gives -(A_w)_uv (A_w)_vu = s_u s_v, as a longer cycle needs a
    cycle in the graph.  So chi sums x^(n-2k) prod s_u s_v over the
    k-edge matchings, the matching polynomial on an alternating tree
    (Godsil, Algebraic Combinatorics, ch. 1), so q_j sums over the
    (s-j)-edge matchings by the Schur step.  _tree_gram runs the matching
    recursion at z = 2^b on integers and reads q off the base-2^b digits,
    2^(b-1) > 2^(7n/10) >= |q_j|; _coxeter_from_gram runs the substitution
    at t = 2^b, 2^(b-1) > 2^n sum_k |q_k| >= |c_i|.  A graph with a cycle
    reads q off q(2^b) = det(2^b I - G) the same way, by one sparse
    fraction-free determinant over the rows of G, built from common
    neighbours (see _gram_polynomial for its b).  So no route to c runs
    Berkowitz, which is the test oracle in tests/matrix_oracles.py, where
    correspondence_check tests both routes against the n x n ones.
    """
    return _coxeter_from_gram(_gram_polynomial(g), g.n)


def gram_interlacing_pair(small: MixedSignCoxeterGraph,
                          large: MixedSignCoxeterGraph) -> tuple[IntPolynomial, IntPolynomial] | None:
    """(f, y^(1 - (p' - p)) h), on which interlace_check decides whether
    the Coxeter polynomials of alternating graphs with n >= 2 and n + 1
    vertices interlace, or None when p' - p is not 0 or 1: they do not.
    f and h are their Gram polynomials with the roots at 0 divided out,
    of degrees p and p', at most half that of c.

    Proof.  G = B B^T is positive semidefinite, so f and h have positive
    roots.  By coxeter_polynomial, c_small = (t+1)^(n-2p) prod_(f(u) = 0)
    (t^2 + (2 + u) t + 1), with multiplicity, and the factor of u has the
    roots -x < -1 < -1/x for phi(x) = (x - 1)^2 / x = u; c_large likewise.
    They interlace iff D(t) = #{beta <= t} - #{alpha <= t}, over the roots
    beta of c_large and alpha of c_small, is 0 or 1 for all t.  D = 0 on
    the far left and 1 from 0 on.  On t < -1, u(t) = (t+1)^2 / (-t) falls,
    and D = N_h(>= u) - N_f(>= u), N counting roots; D(-1) = 1 + p - p';
    on (-1, 0), u(t) rises, and D = 1 - (N_h(> u) - N_f(> u)).  As N(>= u)
    is the limit of N(> v) for v rising to u, they interlace iff p' - p is
    0 or 1 and E(u) = N_h(> u) - N_f(> u) is 0 or 1 for all u > 0.  With Q
    = y^(1 - (p' - p)) h, of degree p + 1, interlace_check(f, Q) asks that
    #{Q's roots > u} - N_f(> u), 1 for u < 0, p' - p at 0 and E(u) for u >
    0, is 0 or 1: the same condition.
    """
    f, h = (IntPolynomial(dropwhile(not_, _gram_polynomial(g).coeffs)) for g in (small, large))
    gap = h.degree - f.degree
    if gap not in (0, 1):
        return None
    return f, IntPolynomial([0] * (1 - gap) + list(h.coeffs))


def require_alternating(g: MixedSignCoxeterGraph, what: str) -> None:
    """Contract of every alternating-only construction: raises
    NotAlternatingError, or ValueError below two vertices, naming what."""
    if not is_alternating_sign(g):
        raise NotAlternatingError(f"{what} needs an alternating-sign graph")
    if g.n < 2:
        raise ValueError(f"{what} needs at least two vertices")


def seifert_matrix(g: MixedSignCoxeterGraph) -> IntMatrix:
    """Seifert matrix -C+ of the link associated with an
    alternating-sign graph."""
    require_alternating(g, "seifert_matrix")
    c_plus, _ = bipartite_factors(g)
    return -c_plus


def homological_monodromy(g: MixedSignCoxeterGraph) -> IntMatrix:
    """(M^T)^-1 M for the Seifert matrix M; integer because M^T is
    unimodular.

    M = -C+ and C+ is an involution, so (M^T)^-1 = M^T and the monodromy
    is M^T M.  The involution is checked exactly, since the shortcut
    rests on it.  Since M^T = C-, the monodromy equals -C- C+ and its
    characteristic polynomial is the Alexander polynomial; the exact
    check and its proof are in verify_proof_identities.
    """
    m = seifert_matrix(g)
    _require_involution(g, m)
    return m.transpose() @ m


def _alexander_from_coxeter(c: IntPolynomial) -> IntPolynomial:
    """Alexander polynomial (-1)^n c(-t) from the Coxeter polynomial c,
    for callers that already hold c and have checked that the graph is
    alternating with at least two vertices."""
    return c.mirror() if c.degree % 2 == 0 else -c.mirror()


def alexander_polynomial(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """Monic normalization (-1)^n c(-t) of the Coxeter polynomial; equal
    to the characteristic polynomial of the homological monodromy."""
    require_alternating(g, "alexander_polynomial")
    return _alexander_from_coxeter(coxeter_polynomial(g))


@dataclass(frozen=True)
class IdentityMismatch:
    """Failed matrix identity; falsy so callers can branch on the result."""
    identity: str
    lhs: IntMatrix
    rhs: IntMatrix

    def __bool__(self) -> bool:
        return False


def verify_proof_identities(g: MixedSignCoxeterGraph):
    """The one matrix certificate of an alternating-sign graph: three
    exact checks on one factorization (C+, C-).

    1. C+ C+ = I, so M = -C+ has (M^T)^-1 = M^T and the monodromy is
       M^T M (homological_monodromy).
    2. C+^T = -C-, entry by entry.  With 1 it gives M^T M = C+^T C+ =
       -C- C+; conversely M^T M = -C- C+ gives it back on cancelling the
       invertible C+.  It also gives C-^2 = (C+^2)^T = I, so C- C+ is
       the true inverse of C+- = C+ C-.
    3. (C+ + C-)^2 = -A^2.  By 1 and 2 the left side always expands to
       2I + C+- + C- C+ = 2I + C+- + C+-^-1: that form needs no check.
    As det(tI - XY) = det(tI - YX), the monodromy -C- C+ has the
    characteristic polynomial det(tI + C+-) = (-1)^n c(-t) = Delta.

    1 or 2 failing raises CertificationError; 3 failing returns an
    IdentityMismatch, which is falsy; otherwise the result is True.
    """
    require_alternating(g, "verify_proof_identities")
    return _proof_identities(g, *bipartite_factors(g))


def _proof_identities(g: MixedSignCoxeterGraph, c_plus: IntMatrix, c_minus: IntMatrix):
    """verify_proof_identities on the factors the caller already holds."""
    _require_involution(g, c_plus)
    if c_plus.transpose() != -c_minus:
        raise CertificationError(
            "monodromy identity M^T M = -C- C+ failed\n" + graph_to_text(g))
    s = c_plus + c_minus
    s2 = s @ s
    a = adjacency_matrix(g)
    neg_a2 = -(a @ a)
    if s2 != neg_a2:
        return IdentityMismatch("(C+ + C-)^2 = -A^2", s2, neg_a2)
    return True

