"""Exact integer linear algebra: Hermite forms, saturated kernels, linear solving.

Everything here works on arbitrary-precision Python integers; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, NonIntegerInput, ZeroVector

IntVec = tuple[int, ...]


def _strict_int(x) -> int:
    """x itself if it is an int; floats, strings and bools are refused
    rather than truncated or coerced."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise NonIntegerInput(f"expected an integer, got {x!r}")


_INT_ONLY = {int}


def _int_vec(v: Iterable) -> IntVec:
    v = tuple(v)
    if set(map(type, v)) <= _INT_ONLY:     # the common case, checked in C
        return v
    return tuple(_strict_int(x) for x in v)


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
        return cls(nrows, ncols, _int_vec(x for r in rows for x in r))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMat":
        for c in cols:
            if len(c) != nrows:
                raise DimensionMismatch("column length mismatch")
        return cls(nrows, len(cols),
                   _int_vec(x for row in zip(*cols) for x in row))

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
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMat(self.rows, other.cols,
                      tuple(sum(map(mul, self.row(i), c))
                            for i in range(self.rows) for c in cols))

    def mul_vec(self, v: Sequence[int]) -> IntVec:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum(map(mul, self.row(i), v)) for i in range(self.rows))

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


def _columns(m: IntMat) -> list[list[int]]:
    return [list(m.entries[j::m.cols]) for j in range(m.cols)]


def _from_columns(cols: Sequence[Sequence[int]], nrows: int) -> IntMat:
    return IntMat(nrows, len(cols), tuple(x for row in zip(*cols) for x in row))


def _column_hnf(h: list[list[int]], nrows: int,
                u: Optional[list[list[int]]] = None) -> int:
    """Bring the columns ``h`` of an nrows-row matrix into the staircase
    form of ``hermite_normal_form``, in place, and return its pivot count pc.

    Every column operation is applied to the columns of ``u`` as well when
    it is given.  The first pc columns carry the pivots; the columns from
    pc on are zero.
    """
    ncols = len(h)
    sides = (h,) if u is None else (h, u)
    pc = 0
    for i in range(nrows):
        if pc >= ncols:
            break
        # Clear row i to a single nonzero entry at column pc.
        for j in range(pc + 1, ncols):
            b = h[j][i]
            if b == 0:
                continue
            a = h[pc][i]
            g, x, y = _egcd(a, b)
            # det of [[x, -b//g], [y, a//g]] is (x*a + y*b)/g = 1
            r, s = -(b // g), a // g
            for side in sides:
                ca, cb = side[pc], side[j]
                side[pc] = [x * p + y * q for p, q in zip(ca, cb)]
                side[j] = [r * p + s * q for p, q in zip(ca, cb)]
        piv = h[pc][i]
        if piv == 0:
            continue
        if piv < 0:
            piv = -piv
            for side in sides:
                side[pc] = [-p for p in side[pc]]
        for j in range(pc):
            q = h[j][i] // piv
            if q:
                for side in sides:
                    cp = side[pc]
                    side[j] = [p - q * t for p, t in zip(side[j], cp)]
        pc += 1
    return pc


def _identity_columns(n: int) -> list[list[int]]:
    if n == 0:
        raise DimensionMismatch("a transform needs at least one column")
    return [[1 if i == j else 0 for i in range(n)] for j in range(n)]


def hermite_normal_form(m: IntMat) -> HermiteResult:
    """Column-style Hermite normal form.

    Returns (h, u) with h = m.u, u unimodular, h in lower-staircase form with
    positive pivots; in a pivot row the entries left of the pivot are reduced
    into [0, pivot).  The result is deterministic and, as a basis of the
    column lattice of m (zero columns dropped), canonical.
    """
    h = _columns(m)
    u = _identity_columns(m.cols)
    _column_hnf(h, m.rows, u)
    return HermiteResult(_from_columns(h, m.rows), _from_columns(u, m.cols))


def column_lattice_canonical(m: IntMat) -> IntMat:
    """Canonical basis (column HNF, zero columns dropped) of m's column lattice.

    Two matrices span the same column lattice iff their canonical forms are
    equal.  A rank-zero lattice canonicalizes to a matrix with zero columns.
    """
    if m.cols == 0:
        return m
    h = _columns(m)
    pc = _column_hnf(h, m.rows)
    return _from_columns(h[:pc], m.rows)


def _canonical_kernel(u: list[list[int]], pc: int, n: int) -> IntMat:
    """Canonical form of the kernel basis left in u's columns from pc on."""
    kernel = u[pc:]
    return _from_columns(kernel[:_column_hnf(kernel, n)], n)


def saturated_kernel_basis(m: IntMat) -> IntMat:
    """Basis of the lattice {v in Z^cols : m.v = 0}, as matrix columns.

    The kernel of an integer matrix is a saturated sublattice, and the columns
    of the unimodular transform sitting over zero HNF columns form a basis of
    all of it.  The basis is returned in canonical (column HNF) form.
    """
    u = _identity_columns(m.cols)
    pc = _column_hnf(_columns(m), m.rows, u)
    return _canonical_kernel(u, pc, m.cols)


def _reduce(a: IntMat) -> tuple[list[list[int]], list[list[int]], int]:
    """The columns of a's column HNF h = a.u, those of the unimodular u,
    and the pivot count: what ``_particular`` solves against."""
    h = _columns(a)
    u = _identity_columns(a.cols)
    return h, u, _column_hnf(h, a.rows, u)


def _particular(h: list[list[int]], u: list[list[int]], pc: int,
                b: Sequence[int]) -> Optional[IntVec]:
    """The particular solution of ``solve_integer_linear`` for the matrix
    that ``_reduce`` gave (h, u, pc), or None when a.x = b has none."""
    y = [0] * pc
    # Pivot columns in staircase order: solve by forward substitution.
    col = 0
    for i in range(len(b)):
        done = sum(h[j][i] * y[j] for j in range(col))
        if col < pc and h[col][i] != 0:
            residual = b[i] - done
            piv = h[col][i]
            if residual % piv != 0:
                return None
            y[col] = residual // piv
            col += 1
        elif done != b[i]:
            return None
    return tuple(sum(map(mul, row, y)) for row in zip(*u))    # u[:, :pc] . y


def solve_integer_linear(a: IntMat, b: Sequence[int]
                         ) -> Optional[tuple[IntVec, IntMat]]:
    """Solve a.x = b over the integers.

    Returns (particular solution, kernel basis) when solvable, None otherwise.
    """
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {a.rows}")
    h, u, pc = _reduce(a)
    x = _particular(h, u, pc, b)
    if x is None:
        return None
    return x, _canonical_kernel(u, pc, a.cols)


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
    """Rank by fraction-free row elimination, as in ``determinant``."""
    a = m.to_rows()
    r = 0
    prev = 1
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        p = top[c]
        for i in range(r + 1, m.rows):
            row = a[i]
            f = row[c]
            a[i] = [(x * p - f * t) // prev for x, t in zip(row, top)]
        prev = p
        r += 1
        if r == m.rows:
            break
    return r
