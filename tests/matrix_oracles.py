"""Test-only matrix oracles, independent of the routes the package takes."""

from fractions import Fraction
from math import comb

from coxlinks import coxeter
from coxlinks.exact import IntMatrix, IntPolynomial
from coxlinks.graphs import MixedSignCoxeterGraph, adjacency_matrix, two_coloring


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def trace(m: IntMatrix) -> int:
    return sum(m.rows[i][i] for i in range(m.n))


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1; exact, integer output.

    Gauss-Jordan over Fraction with an integrality check at the end;
    raises ValueError when the determinant is not a unit.
    """
    n = m.n
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m.rows)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
            det = -det
        det *= aug[c][c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    if det != 1 and det != -1:
        raise ValueError("matrix is not unimodular")
    out = []
    for i in range(n):
        row = aug[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return IntMatrix(tuple(out))


def dense_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Product by the row-times-column sum over every entry, zeros
    included."""
    cols = tuple(zip(*b.rows))
    return IntMatrix(tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
        for row in a.rows))


def dense_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Sum entry by entry over the dense rows, zeros included."""
    return IntMatrix(tuple(tuple(x + y for x, y in zip(ra, rb))
                           for ra, rb in zip(a.rows, b.rows)))


def dense_neg(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(tuple(-x for x in row) for row in m.rows))


def dense_transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*m.rows)))


def dense_is_symmetric(m: IntMatrix) -> bool:
    rows = m.rows
    return all(rows[i][j] == rows[j][i] for i in range(m.n) for j in range(m.n))


def berkowitz(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - A), monic, by the Berkowitz
    vector recurrence over the nonzero entries of each row: division-free,
    every intermediate value an integer.  The oracle for every
    characteristic polynomial the package reads off a determinant."""
    n = m.n
    if n == 0:
        return IntPolynomial([1])
    rows = [{j: a for j, a in enumerate(r) if a} for r in m.rows]
    poly = [1]
    for k in range(1, n + 1):
        q = [1, -rows[k - 1].get(k - 1, 0)]
        if k > 1:
            # r A^m c over the nonzero (j, a_ij) of each row of the
            # leading (k-1) x (k-1) block A, and of r
            block = [[(j, a) for j, a in rows[i].items() if j < k - 1]
                     for i in range(k - 1)]
            r = [(j, a) for j, a in rows[k - 1].items() if j < k - 1]
            v = [rows[i].get(k - 1, 0) for i in range(k - 1)]
            q.append(-sum(a * v[j] for j, a in r))
            for _ in range(k - 2):
                v = [sum(a * v[j] for j, a in entries) for entries in block]
                q.append(-sum(a * v[j] for j, a in r))
        new = [0] * (k + 1)
        for j, pj in enumerate(poly):
            if pj:
                top = min(j + len(q), k + 1)
                for i in range(j, top):
                    new[i] += q[i - j] * pj
        poly = new
    return IntPolynomial(reversed(poly))


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination, algorithmically
    independent of berkowitz so the two can cross-check."""
    n = m.n
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if a[c][c] == 0:
            for r in range(c + 1, n):
                if a[r][c] != 0:
                    a[c], a[r] = a[r], a[c]
                    sign = -sign
                    break
            else:
                return 0
        pc = a[c][c]
        for r in range(c + 1, n):
            arc = a[r][c]
            rowr = a[r]
            rowc = a[c]
            for j in range(c + 1, n):
                rowr[j] = (rowr[j] * pc - arc * rowc[j]) // prev
            rowr[c] = 0
        prev = pc
    return sign * a[n - 1][n - 1]


def reflection(g: MixedSignCoxeterGraph, i: int) -> IntMatrix:
    """Matrix of the reflection in vertex i on the basis of vertex
    classes: identity except row i, which picks up sign(v_i) * a_ij off
    the diagonal and -1 on it.  The oracle for coxeter._part_product."""
    if not 0 <= i < g.n:
        raise ValueError("vertex index out of range")
    rows = [list(r) for r in identity(g.n).rows]
    s = g.signs[i]
    for j in g.neighbors[i]:
        rows[i][j] = s
    rows[i][i] = -1
    return IntMatrix(rows)


def tree_charpoly(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """chi of a tree's A_w (see coxeter.coxeter_polynomial) by the
    recursion phi(T) = x phi(T - v) - sum_{u ~ v} w_uv phi(T - v - u),
    w_uv = -s_u s_v, bottom-up over a breadth-first order, in IntPolynomial
    products.  Below v, prod[v] = phi(T_v - v) is the product over the
    children u, and excl[v] sums their w_vu phi(T_v - v - u) = w_vu prod[u]
    times the others' phi.  The oracle for coxeter._tree_gram."""
    n, signs = g.n, g.signs
    order, parent = [0], [-1] * n
    for v in order:
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


def tree_gram(g: MixedSignCoxeterGraph) -> IntPolynomial:
    """q of a tree as every other coefficient of tree_charpoly from
    x^(n-2s) on, by the Schur step chi(x) = x^(n-2s) q(x^2)."""
    bip = two_coloring(g)
    s = min(len(bip.part_plus), len(bip.part_minus))
    return IntPolynomial(tree_charpoly(g).coeffs[g.n - 2 * s::2])


def gram_matrix(g: MixedSignCoxeterGraph) -> IntMatrix:
    """G = -D_S B D_R B^T of coxeter.coxeter_polynomial, entry by entry
    from the biadjacency matrix B between the smaller colour class S and
    the other one R, so that berkowitz(G) is the oracle for the Gram
    polynomial of a graph with a cycle."""
    bip = two_coloring(g)
    small, other = sorted((sorted(bip.part_plus), sorted(bip.part_minus)), key=len)
    b = [[int(g.has_edge(i, w)) for w in other] for i in small]
    d_r = [g.signs[w] for w in other]
    return IntMatrix([[-g.signs[i] * sum(x * d * y for x, d, y in zip(bi, d_r, bj))
                       for bj in b] for i, bi in zip(small, b)])


def coxeter_from_gram(q: IntPolynomial, n: int) -> IntPolynomial:
    """A'Campo's substitution (-1)^s (t+1)^(n-2s) sum_k q_k (-(t+1)^2)^k
    t^(s-k), s = deg q, by the homogeneous Horner rule in IntPolynomial
    products and the binomial coefficients of (t+1)^(n-2s).  The oracle
    for exact._coxeter_from_gram."""
    q = q.coeffs
    s = len(q) - 1
    u = IntPolynomial([-1, -2, -1])
    acc = IntPolynomial([q[s]])
    for k in range(s - 1, -1, -1):
        acc = acc * u + IntPolynomial([0] * (s - k) + [q[k]])
    acc = acc * IntPolynomial(comb(n - 2 * s, i) for i in range(n - 2 * s + 1))
    return -acc if s % 2 else acc


def correspondence_check(g: MixedSignCoxeterGraph) -> bool:
    """The fast route to c against the slow one, on an alternating-sign
    graph: after the matrix certificate, chi_A(x) = x^(n-2s) q(x^2) with
    q from the fast route and chi_A by Berkowitz on A, and
    coxeter_polynomial(g) against Berkowitz on C+ C-.  The proof of both
    identities is in coxeter.coxeter_polynomial, which is called through
    its module so that a test may patch it.
    """
    if coxeter.verify_proof_identities(g) is not True:
        return False
    q = coxeter._gram_polynomial(g).coeffs
    n, s = g.n, len(q) - 1
    chi = [0] * (n + 1)
    chi[n - 2 * s::2] = q
    return (berkowitz(adjacency_matrix(g)) == IntPolynomial(chi)
            and coxeter.coxeter_polynomial(g) == berkowitz(coxeter.coxeter_transformation(g)))
