"""Smith normal form over k[t].

Works on any PolyMatrix whose entries involve at most one variable of the
ambient context.  Returns U, D, V with U*M*V = D, the diagonal monic (or
zero) with each entry dividing the next, and explicit inverses of U and V.
The transforms are accumulated from elementary row/column operations,
each applied to M, U and U^-1 (or M, V and V^-1) together, so these laws
hold by construction and are not re-checked; det U and det V are nonzero
field constants.  ``engines._smith_freeness_iso`` checks what it builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedRingError
from .matrix import PolyMatrix
from .poly import Polynomial, PolyRing


def single_variable(m: PolyMatrix) -> int:
    """The unique variable used by the entries (0 if the matrix is constant)."""
    used = set()
    for p in m.entries:
        used |= p.variables()
    if len(used) > 1:
        raise UnsupportedRingError(f"entries use variables {sorted(used)}, need at most one")
    return used.pop() if used else 0


def uni_degree(f: Polynomial, var: int) -> int:
    """Degree in the single variable; -1 for the zero polynomial."""
    if f.is_zero():
        return -1
    return max(e[var] for e, _ in f.terms)


def uni_coeff(f: Polynomial, var: int, k: int):
    for e, c in f.terms:
        if e[var] == k:
            return c
    return f.ring.field.zero


def uni_divmod(f: Polynomial, g: Polynomial, var: int) -> tuple:
    """Long division f = q*g + r in k[x_var], deg r < deg g."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    ring = f.ring
    fld = ring.field
    dg = uni_degree(g, var)
    lg = uni_coeff(g, var, dg)
    q = ring.zero()
    r = f
    while not r.is_zero() and uni_degree(r, var) >= dg:
        dr = uni_degree(r, var)
        c = fld.div(uni_coeff(r, var, dr), lg)
        shift = ring.monomial(tuple(dr - dg if i == var else 0 for i in range(ring.nvars)), c)
        q = q + shift
        r = r - shift * g
    return q, r


def uni_divides(g: Polynomial, f: Polynomial, var: int) -> bool:
    if f.is_zero():
        return True
    if g.is_zero():
        return False
    return uni_divmod(f, g, var)[1].is_zero()


def uni_monic(f: Polynomial, var: int) -> tuple:
    """(monic version of f, leading coefficient)."""
    d = uni_degree(f, var)
    lc = uni_coeff(f, var, d)
    return f.scale(f.ring.field.inv(lc)), lc


@dataclass(frozen=True)
class SmithDecomposition:
    u: PolyMatrix
    u_inv: PolyMatrix
    d: PolyMatrix
    v: PolyMatrix
    v_inv: PolyMatrix
    variable: int

    def diagonal(self) -> list:
        n = min(self.d.rows, self.d.cols)
        return [self.d[i, i] for i in range(n)]


class _Worker:
    """Mutable row/column operation tracker for the elimination loop."""

    def __init__(self, m: PolyMatrix):
        self.ring: PolyRing = m.ring
        self.m = m.to_lists()
        self.rows = m.rows
        self.cols = m.cols
        eye_r = PolyMatrix.identity(self.ring, self.rows).to_lists()
        eye_c = PolyMatrix.identity(self.ring, self.cols).to_lists()
        self.u = [row[:] for row in eye_r]
        self.u_inv = [row[:] for row in eye_r]
        self.v = [row[:] for row in eye_c]
        self.v_inv = [row[:] for row in eye_c]

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
        self.m[i] = [a + q * b for a, b in zip(self.m[i], self.m[j])]
        self.u[i] = [a + q * b for a, b in zip(self.u[i], self.u[j])]
        for row in self.u_inv:
            row[j] = row[j] - q * row[i]

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
        for row in self.m:
            row[i] = row[i] + q * row[j]
        for row in self.v:
            row[i] = row[i] + q * row[j]
        self.v_inv[j] = [a - q * b for a, b in zip(self.v_inv[j], self.v_inv[i])]


def smith_normal_form(m: PolyMatrix) -> SmithDecomposition:
    """Diagonalize a univariate matrix by exact Euclidean elimination."""
    var = single_variable(m)
    w = _Worker(m)
    n = min(w.rows, w.cols)

    for t in range(n):
        while True:
            # pick the nonzero entry of least degree in the trailing block
            best = None
            for i in range(t, w.rows):
                for j in range(t, w.cols):
                    d = uni_degree(w.m[i][j], var)
                    if d >= 0 and (best is None or d < best[0]):
                        best = (d, i, j)
            if best is None:
                break
            _, bi, bj = best
            w.swap_rows(t, bi)
            w.swap_cols(t, bj)
            pivot = w.m[t][t]
            dirty = False
            for i in range(t + 1, w.rows):
                if not w.m[i][t].is_zero():
                    q, r = uni_divmod(w.m[i][t], pivot, var)
                    w.add_row(i, t, -q)
                    if not r.is_zero():
                        dirty = True
            for j in range(t + 1, w.cols):
                if not w.m[t][j].is_zero():
                    q, r = uni_divmod(w.m[t][j], pivot, var)
                    w.add_col(j, t, -q)
                    if not r.is_zero():
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block; if not, pull the
            # offending row up and keep reducing
            offender = None
            for i in range(t + 1, w.rows):
                for j in range(t + 1, w.cols):
                    if not uni_divides(pivot, w.m[i][j], var):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w.add_row(t, offender, w.ring.one())
        if not w.m[t][t].is_zero():
            _, lc = uni_monic(w.m[t][t], var)
            w.scale_row(t, w.ring.field.inv(lc))

    u = PolyMatrix.from_rows(w.ring, w.u)
    u_inv = PolyMatrix.from_rows(w.ring, w.u_inv)
    v = PolyMatrix.from_rows(w.ring, w.v)
    v_inv = PolyMatrix.from_rows(w.ring, w.v_inv)
    d = PolyMatrix.from_rows(w.ring, w.m)
    return SmithDecomposition(u, u_inv, d, v, v_inv, var)

