"""Matrices over a polynomial context: exact products, determinants,
adjugates, block constructions, an in-place row and column operation
tracker, and, for constant matrices, the rank and a splitting m == B * R by
row reduction over the coefficient field."""

from __future__ import annotations

from operator import mul as _mul
from typing import Callable, List, Sequence

from .errors import ContextError, ShapeError
from .poly import Polynomial, PolyRing


class PolyMatrix:
    """Immutable rows x cols grid of polynomials over one context."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: PolyRing, rows: int, cols: int, entries: Sequence[Polynomial]):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ShapeError(f"need {rows}x{cols} = {rows * cols} entries, got {len(entries)}")
        for p in entries:
            if p.ring is not ring and p.ring != ring:
                raise ContextError("matrix entry over a different context")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_rows(ring: PolyRing, rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: List[Polynomial] = []
        for row in rows:
            if len(row) != c:
                raise ShapeError("ragged rows")
            flat.extend(row)
        return PolyMatrix(ring, r, c, flat)

    @staticmethod
    def diagonal(ring: PolyRing, entries: Sequence[Polynomial]) -> "PolyMatrix":
        n, zero = len(entries), ring.zero()
        return PolyMatrix(ring, n, n,
                          [entries[i] if i == j else zero for i in range(n) for j in range(n)])

    @staticmethod
    def identity(ring: PolyRing, n: int) -> "PolyMatrix":
        return PolyMatrix.diagonal(ring, [ring.one()] * n)

    @staticmethod
    def zeros(ring: PolyRing, rows: int, cols: int) -> "PolyMatrix":
        zero = ring.zero()
        return PolyMatrix(ring, rows, cols, [zero] * (rows * cols))

    @staticmethod
    def from_scalars(ring: PolyRing, rows: Sequence[Sequence[object]]) -> "PolyMatrix":
        return PolyMatrix.from_rows(ring, [[ring.constant(c) for c in row] for row in rows])

    # -- access -----------------------------------------------------------
    def __getitem__(self, ij) -> Polynomial:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def is_constant(self) -> bool:
        return all(p.is_constant() for p in self.entries)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "PolyMatrix") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ContextError("matrices over different contexts")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in matrix addition")
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in matrix subtraction")
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = self.ring.zero()
        out: List[Polynomial] = []
        orows = [other.row(k) for k in range(other.rows)]
        for i in range(self.rows):
            srow = self.row(i)
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = srow[k]
                    if a.terms:
                        b = orows[k][j]
                        if b.terms:
                            acc = acc + a * b
                out.append(acc)
        return PolyMatrix(self.ring, self.rows, other.cols, out)

    def scale(self, f: Polynomial) -> "PolyMatrix":
        return self.map_entries(lambda p: p * f)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.cols, self.rows,
                          [self[j, i] for i in range(self.cols) for j in range(self.rows)])

    def map_entries(self, fn: Callable[[Polynomial], Polynomial]) -> "PolyMatrix":
        entries = [fn(p) for p in self.entries]
        ring = entries[0].ring if entries else self.ring
        return PolyMatrix(ring, self.rows, self.cols, entries)

    def trace(self) -> Polynomial:
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        acc = self.ring.zero()
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def augmentation(self) -> "PolyMatrix":
        """Evaluate every entry at x = 0 (constant matrix); constant entries
        are returned as they are."""
        ring = self.ring
        return self.map_entries(
            lambda p: p if p.is_constant() else ring.constant(p.constant_term()))

    # -- determinant and adjugate -------------------------------------------
    def det(self) -> Polynomial:
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        memo: dict = {}
        return _det_sub(self, tuple(range(n)), tuple(range(n)), memo)

    def adjugate(self) -> "PolyMatrix":
        """Classical adjugate: self * adjugate() == det() * identity, exactly."""
        if not self.is_square:
            raise ShapeError("adjugate of a non-square matrix")
        n = self.rows
        if n == 0:
            return self
        memo: dict = {}
        rows_all = tuple(range(n))
        out = [[self.ring.zero()] * n for _ in range(n)]
        for i in range(n):
            rows = tuple(r for r in rows_all if r != i)
            for j in range(n):
                cols = tuple(c for c in rows_all if c != j)
                minor = _det_sub(self, rows, cols, memo)
                out[j][i] = minor if (i + j) % 2 == 0 else -minor
        return PolyMatrix.from_rows(self.ring, out)

    # -- blocks ----------------------------------------------------------
    def direct_sum(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        zero = self.ring.zero()
        rows = self.rows + other.rows
        cols = self.cols + other.cols
        out = [zero] * (rows * cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i * cols + j] = self[i, j]
        for i in range(other.rows):
            for j in range(other.cols):
                out[(self.rows + i) * cols + self.cols + j] = other[i, j]
        return PolyMatrix(self.ring, rows, cols, out)

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix)
                and (self.ring is other.ring or self.ring == other.ring)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(p) for p in self.row(i)) for i in range(self.rows))
        return f"PolyMatrix[{self.rows}x{self.cols}: {body}]"


class RowColWorker:
    """Row and column operations applied in place to a matrix m and tracked.

    Starting from identities, U, U^-1, V and V^-1 absorb every operation
    together with m, so U * m0 * V == m and the inverse laws hold by
    construction.  ``mul`` multiplies entries of m and ``tmul`` entries of
    the transforms: plain products over the free context for Smith normal
    form, and for the elementary GL lift the normal-form products of the
    quotient m lives in and of the ring upstairs that the transforms lift
    to (an operation normal over a quotient is normal over that ring).
    """

    def __init__(self, m: PolyMatrix, mul: Callable = _mul, tmul: Callable = _mul):
        self.ring: PolyRing = m.ring
        self.mul, self.tmul = mul, tmul
        self.m = m.to_lists()
        self.rows = m.rows
        self.cols = m.cols
        self.u, self.u_inv = (PolyMatrix.identity(m.ring, m.rows).to_lists() for _ in range(2))
        self.v, self.v_inv = (PolyMatrix.identity(m.ring, m.cols).to_lists() for _ in range(2))

    # row ops act on m and u on the left; u_inv absorbs the inverse on its columns
    def swap_rows(self, i, j):
        if i == j:
            return
        self.m[i], self.m[j] = self.m[j], self.m[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.u_inv:
            row[i], row[j] = row[j], row[i]

    def add_row(self, i, j, q: Polynomial):
        # row_i += q * row_j
        mul, tmul = self.mul, self.tmul
        self.m[i] = [a + mul(q, b) for a, b in zip(self.m[i], self.m[j])]
        self.u[i] = [a + tmul(q, b) for a, b in zip(self.u[i], self.u[j])]
        for row in self.u_inv:
            row[j] = row[j] - tmul(q, row[i])

    def scale_row(self, i, c):
        inv = self.ring.field.inv(c)
        self.m[i] = [a.scale(c) for a in self.m[i]]
        self.u[i] = [a.scale(c) for a in self.u[i]]
        for row in self.u_inv:
            row[i] = row[i].scale(inv)

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.m:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        self.v_inv[i], self.v_inv[j] = self.v_inv[j], self.v_inv[i]

    def add_col(self, i, j, q: Polynomial):
        # col_i += q * col_j
        mul, tmul = self.mul, self.tmul
        for row in self.m:
            row[i] = row[i] + mul(q, row[j])
        for row in self.v:
            row[i] = row[i] + tmul(q, row[j])
        self.v_inv[j] = [a - tmul(q, b) for a, b in zip(self.v_inv[j], self.v_inv[i])]

    def transforms(self) -> tuple:
        """(U, U^-1, V, V^-1) as matrices."""
        return tuple(PolyMatrix.from_rows(self.ring, t)
                     for t in (self.u, self.u_inv, self.v, self.v_inv))


def _det_sub(m: PolyMatrix, rows: tuple, cols: tuple, memo: dict) -> Polynomial:
    """Determinant of the submatrix on (rows, cols), minors memoized."""
    if not rows:
        return m.ring.one()
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if len(rows) == 1:
        out = m[rows[0], cols[0]]
    else:
        out = m.ring.zero()
        i = rows[0]
        rest = rows[1:]
        for t, j in enumerate(cols):
            a = m[i, j]
            if not a.terms:
                continue
            sub = _det_sub(m, rest, cols[:t] + cols[t + 1:], memo)
            term = a * sub
            out = out + term if t % 2 == 0 else out - term
    memo[key] = out
    return out


# -- field linear algebra on constant matrices ------------------------------

def constant_rows(m: PolyMatrix) -> list:
    """Entries as field scalars; raises if any entry is non-constant."""
    if not m.is_constant():
        raise ContextError("expected a constant matrix")
    return [[m[i, j].constant_term() for j in range(m.cols)] for i in range(m.rows)]


def _row_reduce(rows: list, fld) -> tuple:
    """In-place RREF; returns (pivot column list, rows)."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = fld.inv(rows[r][c])
        rows[r] = [fld.mul(x, inv) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots, rows

def scalar_rank(m: PolyMatrix) -> int:
    pivots, _ = _row_reduce(constant_rows(m), m.ring.field)
    return len(pivots)


def constant_splitting(m: PolyMatrix) -> tuple:
    """(B, R) with m == B * R: the pivot columns of a constant m and the
    nonzero rows of its reduced row echelon form.  R * B == I_r exactly when
    m is idempotent, r its rank."""
    ring = m.ring
    pivots, red = _row_reduce(constant_rows(m), ring.field)
    b = PolyMatrix(ring, m.rows, len(pivots), [m[i, c] for i in range(m.rows) for c in pivots])
    r = PolyMatrix(ring, len(pivots), m.cols,
                   [ring.constant(x) for row in red[:len(pivots)] for x in row])
    return b, r
