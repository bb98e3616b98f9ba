"""Independent checks of srpb outputs.

Nothing here calls srpb.  Polynomials are plain ``{exponent tuple:
coefficient}`` dicts over Q (``Fraction``) or F_p (``int`` mod p), and a
Stanley-Reisner quotient is modelled by dropping every term whose support
is not a face of the complex, computed here from the facets.  srpb objects are only read: their
``terms``, ``rows``, ``cols`` and ``entries`` attributes are converted to
dicts before any arithmetic happens.

Every checker raises ``CheckFailure`` on a wrong output and returns None on
a right one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb


class CheckFailure(Exception):
    """An srpb output disagrees with the independent computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


# -- rings ---------------------------------------------------------------------

def faces_of(facets) -> set:
    """Every face (as a vertex bitmask) of the complex spanned by the facets."""
    out = set()
    for f in facets:
        m = 0
        for v in f:
            m |= 1 << v
        sub = m
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    return out


class Ring:
    """k[x0..x(n-1)], or its Stanley-Reisner quotient by the given faces.

    With ``faces`` (vertex bitmasks) a monomial survives iff its support is
    a face; without, every monomial survives (the free ring).
    """

    def __init__(self, char: int, nvars: int, faces=None):
        self.char = char
        self.nvars = nvars
        self.faces = frozenset(faces) if faces is not None else None

    def survives(self, e: tuple) -> bool:
        if self.faces is None:
            return True
        m = 0
        for i, k in enumerate(e):
            if k:
                m |= 1 << i
        return m in self.faces

    def coeff(self, c):
        if self.char == 0:
            return Fraction(c)
        return int(c) % self.char

    # -- polynomials -----------------------------------------------------
    def poly(self, p) -> dict:
        """An srpb Polynomial (or a dict) as a reduced dict over this ring."""
        terms = p.items() if isinstance(p, dict) else p.terms
        out = {}
        for e, c in terms:
            e = tuple(e)
            if len(e) != self.nvars:
                raise CheckFailure(f"monomial {e} has the wrong number of variables")
            c = self.coeff(c)
            if c and self.survives(e):
                out[e] = c
        return out

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if self.char:
                s %= self.char
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        p = self.char
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if not self.survives(e):
                    continue
                s = out.get(e, 0) + c1 * c2
                if p:
                    s %= p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return out

    def one(self) -> dict:
        return {(0,) * self.nvars: self.coeff(1)}

    # -- matrices (lists of rows of dicts) --------------------------------
    def mat(self, m) -> list:
        """An srpb PolyMatrix as a list of rows of reduced dicts."""
        return [[self.poly(m.entries[i * m.cols + j]) for j in range(m.cols)]
                for i in range(m.rows)]

    def matmul(self, a: list, b: list) -> list:
        require(len(a[0]) == len(b), "matrix shapes do not multiply")
        out = []
        for row in a:
            new = []
            for j in range(len(b[0])):
                acc: dict = {}
                for k, x in enumerate(row):
                    if x and b[k][j]:
                        acc = self.add(acc, self.mul(x, b[k][j]))
                new.append(acc)
            out.append(new)
        return out

    def reduce_mat(self, m: list) -> list:
        return [[self.poly(p) for p in row] for row in m]

    def identity(self, n: int) -> list:
        return [[self.one() if i == j else {} for j in range(n)] for i in range(n)]

    def corner(self, r: int, n: int) -> list:
        """I_r (+) 0 as an n x n matrix."""
        return [[self.one() if i == j and i < r else {} for j in range(n)] for i in range(n)]


def augmentation(m: list, nvars: int) -> list:
    """Every entry evaluated at x = 0."""
    zero = (0,) * nvars
    return [[{zero: p[zero]} if zero in p else {} for p in row] for row in m]


def scalar_rank(m: list, ring: Ring) -> int:
    """Rank of a constant matrix over the coefficient field, by elimination."""
    zero = (0,) * ring.nvars
    rows = [[p.get(zero, ring.coeff(0)) for p in row] for row in m]
    for row in m:
        for p in row:
            require(set(p) <= {zero}, "rank asked of a non-constant matrix")
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = (Fraction(1) / rows[rank][c] if ring.char == 0
               else pow(rows[rank][c], ring.char - 2, ring.char))
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
                if ring.char:
                    rows[i] = [x % ring.char for x in rows[i]]
        rank += 1
    return rank


# -- checkers ------------------------------------------------------------------

def check_corner_laws(ring: Ring, es: list, et: list, fwd: list, bwd: list) -> None:
    """fwd: im(es) -> im(et) and bwd back, as two-sided inverse corner maps."""
    mm = ring.matmul
    require(ring.reduce_mat(fwd) == mm(mm(et, fwd), es), "fwd != E_tgt * fwd * E_src")
    require(ring.reduce_mat(bwd) == mm(mm(es, bwd), et), "bwd != E_src * bwd * E_tgt")
    require(mm(bwd, fwd) == ring.reduce_mat(es), "bwd * fwd != E_src")
    require(mm(fwd, bwd) == ring.reduce_mat(et), "fwd * bwd != E_tgt")


def check_extend(ring: Ring, module: list, ok: bool, target: list, fwd: list, bwd: list) -> None:
    """An extension witness: the stated target is the module at 0, laws hold."""
    require(ok, "extension left undischarged obligations")
    require(target == augmentation(ring.reduce_mat(module), ring.nvars),
            "stated target is not the module evaluated at 0")
    check_corner_laws(ring, module, target, fwd, bwd)


def check_cancel(ring: Ring, p: list, q: list, ok: bool, target: list,
                 fwd: list, bwd: list) -> None:
    """A cancellation witness: the stated target is q, laws hold."""
    require(ok, "cancellation left undischarged obligations")
    require(target == ring.reduce_mat(q), "stated target is not the second module")
    check_corner_laws(ring, p, q, fwd, bwd)


def check_patch(ring: Ring, facets, apex: int, e: list, rank: int) -> None:
    """A Milnor patch: idempotent, I_r (+) 0 over the deletion ring, rank r."""
    require(apex == expected_apex(facets), f"apex {apex} is not the first proper-star vertex")
    deletion = Ring(ring.char, ring.nvars, faces=square_corner_faces(ring.faces, apex)[1])
    n = len(e)
    require(ring.matmul(e, e) == ring.reduce_mat(e), "patched module is not idempotent")
    require(deletion.reduce_mat(e) == deletion.corner(rank, n),
            "patched module does not restrict to I_r (+) 0 over the deletion")
    require(scalar_rank(augmentation(e, ring.nvars), ring) == rank,
            "patched module has the wrong rank")


def check_gl_lift(up: Ring, down: Ring, sigma: list, delta: list, delta_inv: list) -> None:
    """pi(Delta) == sigma and Delta * Delta^-1 == I upstairs."""
    require(down.reduce_mat(delta) == down.reduce_mat(sigma), "pi(Delta) != sigma")
    require(up.matmul(delta, delta_inv) == up.identity(len(delta)), "Delta * Delta^-1 != I")


def check_umrow(up: Ring, down: Ring, v: list, ok: bool, u: list, w_prime: list) -> None:
    """u == v mod J and u * w'^T == 1."""
    require(ok, "row lift left obligations or exhausted the GL strategies")
    require(down.reduce_mat(u) == down.reduce_mat(v), "u is not congruent to v mod J")
    w_t = [[w] for w in w_prime[0]]
    require(up.matmul(u, w_t) == [[up.one()]], "u * w'^T != 1")


def check_member(ring: Ring, f: dict, gens: list, coeffs, monomial: bool) -> None:
    """sum c_i g_i == f for members; term divisibility for monomial ideals."""
    if monomial:
        lead = [next(iter(g)) for g in gens]
        divisible = all(any(all(a <= b for a, b in zip(m, e)) for m in lead) for e in f)
        require((coeffs is not None) == divisible, "membership status disagrees with term divisibility")
    else:
        require(coeffs is not None, "a combination of the generators was declared a non-member")
    if coeffs is None:
        return
    require(len(coeffs) == len(gens), "one coefficient per generator expected")
    acc: dict = {}
    for c, g in zip(coeffs, gens):
        acc = ring.add(acc, ring.mul(c, g))
    require(acc == ring.poly(f), "sum c_i * g_i != f")


def hilbert_count(faces, degree: int) -> int:
    """Standard monomials of degree <= D: sum over faces F of C(D, |F|)."""
    return sum(comb(degree, bin(m).count("1")) for m in faces)


def square_corner_faces(faces: set, apex: int) -> tuple:
    """Faces of (complex, deletion, cone over the link, link) at the apex."""
    bit = 1 << apex
    deletion = {m for m in faces if not m & bit}
    link = {m for m in deletion if m | bit in faces}
    cone = link | {m | bit for m in link}
    return faces, deletion, cone, link


def expected_apex(facets) -> int:
    """Smallest used vertex that some facet misses (its star is proper)."""
    used = sorted(set(v for f in facets for v in f))
    for v in used:
        if any(v not in f for f in facets):
            return v
    raise CheckFailure("complex is a simplex; no apex exists")


def check_fiber(facets, degree: int, apex: int, ok: bool, counts: tuple) -> None:
    """Every corner count equals its Stanley-Reisner Hilbert count."""
    require(apex == expected_apex(facets), f"apex {apex} is not the first proper-star vertex")
    require(ok, "fiber_check reported the square as not cartesian")
    corners = square_corner_faces(faces_of(facets), apex)
    want = tuple(hilbert_count(fs, degree) for fs in corners)
    require(tuple(counts) == want, f"corner counts {tuple(counts)} != Hilbert counts {want}")
    a, a1, a2, a0 = want
    require(a == a1 + a2 - a0, "Hilbert counts break inclusion-exclusion")


VERIFIER_CHECKS = frozenset((
    "idempotency", "hom-defined", "square-commutes", "restriction", "mod-iso-laws",
    "compose", "whitehead", "gl-lift", "um-congruence", "augmentation", "rank", "structure",
))
_FAIL_LINE = re.compile(r"^\s*\[FAIL\] (\S+) (\S+)")


def check_verify(expect_ok: bool, code: int, output: str) -> None:
    """Clean certificates exit 0; bad ones exit 1 naming a node and a check."""
    lines = output.splitlines()
    if expect_ok:
        require(code == 0, f"clean certificate exited {code}")
        require(bool(lines) and lines[0].startswith("PASS"), "clean certificate did not print PASS")
        return
    require(code == 1, f"bad certificate exited {code}, expected 1")
    named = [m.groups() for m in map(_FAIL_LINE.match, lines) if m]
    require(any(check in VERIFIER_CHECKS for _, check in named),
            "bad certificate rejected without naming a node and a check")
