"""Integer matrices, Smith normal form, and finite abelian group quotients."""

from __future__ import annotations

class IntegerMatrix:
    """A dense integer matrix with exact arithmetic."""

    def __init__(self, rows):
        self.rows = [list(map(int, r)) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerMatrix) and self.rows == other.rows

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            ri = self.rows[i]
            for k, a in enumerate(ri):
                if a:
                    rk = other.rows[k]
                    oi = out[i]
                    for j in range(other.ncols):
                        oi[j] += a * rk[j]
        return IntegerMatrix(out)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return IntegerMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return IntegerMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix([[-a for a in r] for r in self.rows])

    def det(self) -> int:
        """Determinant by fraction-free Gaussian elimination (Bareiss)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        m = [row[:] for row in self.rows]
        sign, prev = 1, 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows})"


def smith_normal_form(mat: IntegerMatrix):
    """Return (diagonal, U, V) with U @ mat @ V diagonal, d1 | d2 | ...

    U and V are unimodular; the diagonal entries are non-negative and
    divisibility-chained.
    """
    a = [row[:] for row in mat.rows]
    n, m = mat.nrows, mat.ncols
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op(i, j, c):  # row_i += c * row_j
        for k in range(m):
            a[i][k] += c * a[j][k]
        for k in range(n):
            u[i][k] += c * u[j][k]

    def col_op(i, j, c):  # col_i += c * col_j
        for k in range(n):
            a[k][i] += c * a[k][j]
        for k in range(m):
            v[k][i] += c * v[k][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for k in range(n):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(m):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    def diagonalize() -> int:
        t = 0
        while t < min(n, m):
            # pivot: nonzero entry of smallest absolute value in the block
            pivot = None
            for i in range(t, n):
                for j in range(t, m):
                    if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, n):
                    if a[i][t]:
                        row_op(i, t, -(a[i][t] // a[t][t]))
                        if a[i][t]:
                            row_swap(t, i)
                            dirty = True
                for j in range(t + 1, m):
                    if a[t][j]:
                        col_op(j, t, -(a[t][j] // a[t][t]))
                        if a[t][j]:
                            col_swap(t, j)
                            dirty = True
            t += 1
        return t

    # diagonalize, then repair divisibility violations and re-diagonalize;
    # each repair strictly divides d_i by gcd(d_i, d_{i+1}), so this stops
    while True:
        r = diagonalize()
        violation = next(
            (i for i in range(r - 1) if a[i + 1][i + 1] % a[i][i]),
            None,
        )
        if violation is None:
            break
        col_op(violation, violation + 1, 1)

    for i in range(r):
        if a[i][i] < 0:
            for k in range(m):
                a[i][k] = -a[i][k]
            for k in range(n):
                u[i][k] = -u[i][k]

    diagonal = [a[i][i] for i in range(min(n, m))]
    return diagonal, IntegerMatrix(u), IntegerMatrix(v)


def cokernel_invariants(mat: IntegerMatrix) -> list[int]:
    """Invariant factors (> 1) of Z^rows / column-span(mat)."""
    diag, _, _ = smith_normal_form(mat)
    inv = list(diag) + [0] * (mat.nrows - len(diag))
    return [d for d in inv[: mat.nrows] if d != 1]


class FiniteAbelianGroup:
    """Z/d1 x Z/d2 x ... with d1 | d2 | ... (all di > 1, or empty for trivial)."""

    def __init__(self, divisors):
        self.divisors = tuple(int(d) for d in divisors if d != 1)
        if any(d <= 0 for d in self.divisors):
            raise ValueError("divisors must be positive (finite group)")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a:
                raise ValueError("divisors must be chained")

    @property
    def order(self) -> int:
        out = 1
        for d in self.divisors:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        return self.divisors[-1] if self.divisors else 1

    def is_trivial(self) -> bool:
        return not self.divisors

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.divisors == other.divisors

    def __repr__(self) -> str:
        if not self.divisors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.divisors)


def quotient_by_endomorphism(group: FiniteAbelianGroup, action_rows) -> FiniteAbelianGroup:
    """Coinvariants of the endomorphism given by `action_rows` minus identity.

    `action_rows` is a square integer matrix acting on the generators of the
    group; the result is group / image(action - id), again in invariant
    factor form.
    """
    k = len(group.divisors)
    if k == 0:
        return group
    rows = [[action_rows[i][j] - (1 if i == j else 0) for j in range(k)] for i in range(k)]
    # relations: columns of (action - id) together with the divisor lattice
    rel = [[0] * k for _ in range(k)]
    for i, d in enumerate(group.divisors):
        rel[i][i] = d
    full = IntegerMatrix([rows[i] + rel[i] for i in range(k)])
    return FiniteAbelianGroup(sorted(cokernel_invariants(full)))
