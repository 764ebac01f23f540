"""Exact integer linear algebra: Hermite forms, saturated kernels, linear solving.

Everything here works on arbitrary-precision Python integers; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, ZeroVector

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class IntMat:
    """Immutable integer matrix, row-major storage.

    ``cols`` may be zero (kernels of full-rank maps are legitimately empty);
    ``rows`` must be positive.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 0:
            raise DimensionMismatch(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMat":
        nrows = len(rows)
        if nrows == 0:
            raise DimensionMismatch("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(nrows, ncols, tuple(int(x) for r in rows for x in r))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMat":
        for c in cols:
            if len(c) != nrows:
                raise DimensionMismatch("column length mismatch")
        return cls(nrows, len(cols),
                   tuple(int(cols[j][i]) for i in range(nrows) for j in range(len(cols))))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVec:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> IntVec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMat":
        if self.cols == 0:
            raise DimensionMismatch("cannot transpose a matrix with zero columns")
        return IntMat.from_rows([list(self.col(j)) for j in range(self.cols)])

    def mul(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = []
        for i in range(self.rows):
            ri = self.row(i)
            rows.append([sum(ri[k] * other.at(k, j) for k in range(self.cols))
                         for j in range(other.cols)])
        return IntMat(self.rows, other.cols, tuple(x for r in rows for x in r))

    def mul_vec(self, v: Sequence[int]) -> IntVec:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum(self.at(i, k) * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


class HermiteResult(NamedTuple):
    h: IntMat
    u: IntMat


def vec_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive_vector(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = vec_gcd(v)
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector")
    return tuple(x // g for x in v)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def hermite_normal_form(m: IntMat) -> HermiteResult:
    """Column-style Hermite normal form.

    Returns (h, u) with h = m.u, u unimodular, h in lower-staircase form with
    positive pivots; in a pivot row the entries left of the pivot are reduced
    into [0, pivot).  The result is deterministic and, as a basis of the
    column lattice of m (zero columns dropped), canonical.
    """
    h = m.to_rows()
    ncols = m.cols
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_combine(a: int, b: int, coeffs: tuple[int, int, int, int]):
        p, q, r, s = coeffs  # new_a = p*ca + q*cb, new_b = r*ca + s*cb
        for rowset in (h, u):
            for row in rowset:
                ca, cb = row[a], row[b]
                row[a] = p * ca + q * cb
                row[b] = r * ca + s * cb

    pc = 0
    for i in range(m.rows):
        if pc >= ncols:
            break
        # Clear row i to a single nonzero entry at column pc.
        for j in range(pc + 1, ncols):
            if h[i][j] == 0:
                continue
            a, b = h[i][pc], h[i][j]
            g, x, y = _egcd(a, b)
            # det of [[x, -b//g], [y, a//g]] is (x*a + y*b)/g = 1
            col_combine(pc, j, (x, y, -(b // g), a // g))
        if h[i][pc] == 0:
            continue
        if h[i][pc] < 0:
            for rowset in (h, u):
                for row in rowset:
                    row[pc] = -row[pc]
        piv = h[i][pc]
        for j in range(pc):
            q = h[i][j] // piv
            if q:
                for rowset in (h, u):
                    for row in rowset:
                        row[j] -= q * row[pc]
        pc += 1

    return HermiteResult(IntMat.from_rows(h), IntMat.from_rows(u))


def _kernel_columns(hr: HermiteResult) -> list[IntVec]:
    h, u = hr
    cols = []
    for j in range(h.cols):
        if all(h.at(i, j) == 0 for i in range(h.rows)):
            cols.append(u.col(j))
    return cols


def column_lattice_canonical(m: IntMat) -> IntMat:
    """Canonical basis (column HNF, zero columns dropped) of m's column lattice.

    Two matrices span the same column lattice iff their canonical forms are
    equal.  A rank-zero lattice canonicalizes to a matrix with zero columns.
    """
    if m.cols == 0:
        return m
    h = hermite_normal_form(m).h
    keep = [j for j in range(h.cols)
            if any(h.at(i, j) != 0 for i in range(h.rows))]
    return IntMat.from_cols([h.col(j) for j in keep], m.rows)


def saturated_kernel_basis(m: IntMat) -> IntMat:
    """Basis of the lattice {v in Z^cols : m.v = 0}, as matrix columns.

    The kernel of an integer matrix is a saturated sublattice, and the columns
    of the unimodular transform sitting over zero HNF columns form a basis of
    all of it.  The basis is returned in canonical (column HNF) form.
    """
    kernel_cols = _kernel_columns(hermite_normal_form(m))
    raw = IntMat.from_cols(kernel_cols, m.cols)
    return column_lattice_canonical(raw) if raw.cols else raw


def solve_integer_linear(a: IntMat, b: Sequence[int]
                         ) -> Optional[tuple[IntVec, IntMat]]:
    """Solve a.x = b over the integers.

    Returns (particular solution, kernel basis) when solvable, None otherwise.
    """
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {a.rows}")
    h, u = hr = hermite_normal_form(a)
    y = [0] * a.cols
    # Pivot columns in staircase order: solve by forward substitution.
    col = 0
    for i in range(a.rows):
        if col < a.cols and h.at(i, col) != 0:
            residual = b[i] - sum(h.at(i, j) * y[j] for j in range(col))
            piv = h.at(i, col)
            if residual % piv != 0:
                return None
            y[col] = residual // piv
            col += 1
        else:
            if sum(h.at(i, j) * y[j] for j in range(min(col, a.cols))) != b[i]:
                return None
    x = u.mul_vec(y)
    kernel = IntMat.from_cols(_kernel_columns(hr), a.cols)
    return x, column_lattice_canonical(kernel)


def determinant(m: IntMat) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = m.rows
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m: IntMat) -> int:
    h = hermite_normal_form(m).h
    return sum(1 for j in range(h.cols)
               if any(h.at(i, j) != 0 for i in range(h.rows)))
