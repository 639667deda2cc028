"""Test-only matrix oracles, independent of the routes the package takes."""

from fractions import Fraction

from coxlinks.exact import IntMatrix


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
