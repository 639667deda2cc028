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


def coxeter_polynomial(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """Characteristic polynomial of the bipartite Coxeter transformation."""
    return coxeter_transformation(g).charpoly()


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
    """Certify the eigenvalue correspondence 2 + lam + 1/lam = -alpha^2
    between the adjacency spectrum and the bipartite Coxeter spectrum of
    an alternating-sign graph, in its exact form (A'Campo, Invent. Math.
    33, 1976).

    With s the size of the smaller sign class S, B the s x (n - s)
    biadjacency matrix and q = det(yI - B B^T), where B B^T is A^2 on S,
    two polynomial identities are checked:
        chi_A(x) = x^(n-2s) q(x^2),
        c(t) = (-1)^s (t+1)^(n-2s) sum_k q_k (-(t+1)^2)^k t^(s-k).
    The exact matrix identities are checked first.
    """
    if verify_proof_identities(g) is not True:
        return False
    bip = sign_bipartition(g)
    small = sorted(min(bip.part_plus, bip.part_minus, key=len))
    n, s = g.n, len(small)
    a = adjacency_matrix(g)
    a2 = (a @ a).rows
    q = IntMatrix([[a2[i][j] for j in small] for i in small]).charpoly().coeffs
    chi = [0] * (n + 1)
    chi[n - 2 * s::2] = q
    # homogeneous Horner: acc = sum_k q_k u^k t^(s-k) with u = -(t+1)^2
    u = IntPolynomial([-1, -2, -1])
    acc = IntPolynomial([q[s]])
    for k in range(s - 1, -1, -1):
        acc = acc * u + IntPolynomial([0] * (s - k) + [q[k]])
    for _ in range(n - 2 * s):
        acc = acc * IntPolynomial([1, 1])
    c = -acc if s % 2 else acc
    return a.charpoly() == IntPolynomial(chi) and coxeter_polynomial(g) == c
