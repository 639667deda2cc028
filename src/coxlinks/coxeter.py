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
from math import comb

from .exact import IntMatrix, IntPolynomial
from .graphs import (MixedSignCoxeterGraph, NotAlternatingError, adjacency_matrix,
                     graph_to_text, is_alternating_sign, sign_bipartition,
                     two_coloring)


class CertificationError(RuntimeError):
    """A theorem check failed on exact arithmetic: a certified violation,
    not a bad input or an internal fault."""


def reflection(g: MixedSignCoxeterGraph, i: int) -> IntMatrix:
    """Matrix of the reflection in vertex i on the basis of vertex
    classes: identity except row i, which picks up sign(v_i) * a_ij off
    the diagonal and -1 on it."""
    if not 0 <= i < g.n:
        raise ValueError("vertex index out of range")
    rows = [list(r) for r in IntMatrix.identity(g.n).rows]
    s = g.signs[i]
    for j in g.neighbors[i]:
        rows[i][j] = s
    rows[i][i] = -1
    return IntMatrix(rows)


def _part_product(g: MixedSignCoxeterGraph, part: frozenset[int]) -> IntMatrix:
    # The reflections of an independent set commute and each one touches
    # only its own row, so their product is assembled in a single pass.
    rows = [list(r) for r in IntMatrix.identity(g.n).rows]
    for i in part:
        s = g.signs[i]
        row = rows[i]
        for j in g.neighbors[i]:
            row[j] = s
        row[i] = -1
    return IntMatrix(rows)


def bipartite_factors(g: MixedSignCoxeterGraph) -> tuple[IntMatrix, IntMatrix]:
    """(C+, C-): products of the reflections over the two parts of the
    sign bipartition for alternating-sign graphs, and of a breadth-first
    2-coloring otherwise (the classical case)."""
    bip = sign_bipartition(g) if is_alternating_sign(g) else two_coloring(g)
    return _part_product(g, bip.part_plus), _part_product(g, bip.part_minus)


def coxeter_transformation(g: MixedSignCoxeterGraph) -> IntMatrix:
    c_plus, c_minus = bipartite_factors(g)
    return c_plus @ c_minus


def _tree_charpoly(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """chi of a tree's A_w (see coxeter_polynomial) by the recursion
    phi(T) = x phi(T - v) - sum_{u ~ v} w_uv phi(T - v - u), w_uv =
    -s_u s_v, bottom-up over a breadth-first order.  Below v, prod[v] =
    phi(T_v - v) is the product over the children u, and excl[v] sums
    their w_vu phi(T_v - v - u) = w_vu prod[u] times the others' phi."""
    n, signs = g.n, g.signs
    order, parent = [0], [-1] * n
    for v in order:  # grows while it is read: a breadth-first walk
        for u in g.neighbors[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    x = IntPolynomial([0, 1])
    prod = [IntPolynomial([1])] * n
    excl = [IntPolynomial()] * n
    for v in reversed(order):
        phi = x * prod[v] - excl[v]
        p = parent[v]
        if p >= 0:
            excl[p] = excl[p] * phi - signs[p] * signs[v] * prod[v] * prod[p]
            prod[p] = prod[p] * phi
    return phi


def _gram_polynomial(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """q = det(yI - G) for S the smaller class of two_coloring (which
    raises NotBipartiteError on an odd cycle); see coxeter_polynomial."""
    bip = two_coloring(g)
    small = sorted(min(bip.part_plus, bip.part_minus, key=len))
    n, s, signs = g.n, len(small), g.signs
    if g.edge_count == n - 1:
        return IntPolynomial(_tree_charpoly(g).coeffs[n - 2 * s::2])
    # G_ij adds -s_i s_w for every common neighbour w of i and j in S
    index = {v: k for k, v in enumerate(small)}
    gram = [[0] * s for _ in range(s)]
    for w in range(n):
        if w not in index:
            around = [index[u] for u in g.neighbors[w]]
            for i in around:
                row = gram[i]
                weight = -signs[small[i]] * signs[w]
                for j in around:
                    row[j] += weight
    return IntMatrix(gram).charpoly()


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
    (Godsil, Algebraic Combinatorics, ch. 1).  A matching misses v or
    covers it by one edge vu: the recursion _tree_charpoly runs.  By the
    Schur step q is every other coefficient of chi from x^(n-2s) on.  A
    graph with a cycle runs Berkowitz on the s x s matrix G, built from
    common neighbours.  correspondence_check tests both routes against
    the n x n ones.
    """
    q = _gram_polynomial(g).coeffs
    n, s = g.n, len(q) - 1
    # homogeneous Horner: acc = sum_k q_k u^k t^(s-k) with u = -(t+1)^2
    u = IntPolynomial([-1, -2, -1])
    acc = IntPolynomial([q[s]])
    for k in range(s - 1, -1, -1):
        acc = acc * u + IntPolynomial([0] * (s - k) + [q[k]])
    acc = acc * IntPolynomial(comb(n - 2 * s, i) for i in range(n - 2 * s + 1))
    return -acc if s % 2 else acc


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
    if m @ m != IntMatrix.identity(g.n):
        raise CertificationError("C+ is not an involution\n" + graph_to_text(g))
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
    c_plus, c_minus = bipartite_factors(g)
    if c_plus @ c_plus != IntMatrix.identity(g.n):
        raise CertificationError("C+ is not an involution\n" + graph_to_text(g))
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


def correspondence_check(g: MixedSignCoxeterGraph) -> bool:
    """The fast route to c against the slow one, on an alternating-sign
    graph: after the matrix certificate, chi_A(x) = x^(n-2s) q(x^2) with
    q from the fast route and chi_A by Berkowitz on A, and
    coxeter_polynomial(g) against Berkowitz on C+ C-.  The proof of both
    identities is in coxeter_polynomial.
    """
    if verify_proof_identities(g) is not True:
        return False
    q = _gram_polynomial(g).coeffs
    n, s = g.n, len(q) - 1
    chi = [0] * (n + 1)
    chi[n - 2 * s::2] = q
    return (adjacency_matrix(g).charpoly() == IntPolynomial(chi)
            and coxeter_polynomial(g) == coxeter_transformation(g).charpoly())
