"""Presented rings k[x0..xn]/I for monomial I, their maps, and fiber squares.

Monomial quotients admit term-dropping normal forms: a term survives iff
its monomial is divisible by no ideal generator, which makes normal forms
canonical and multiplicative.  For a square-free ideal (every Stanley-Reisner
ideal) a generator divides a monomial iff its support lies inside the
monomial's, so survival is a test ``g & m == g`` on variable bitmasks, with
the generator masks computed once per ring; any other ideal compares
exponent vectors.  Every ring map here (quotient maps, square maps,
sections, augmentations) runs between two presentations over one context
and sends each variable to itself or to 0, so a ``RingHom`` is a kill mask
and a term filter: it keeps, in order, the terms that meet no killed
variable and survive in the target, so it neither substitutes nor re-sorts.
The fiber square built from an apex decomposition is the workhorse for all
patching constructions.  A ring recovers its complex and builds its square
once per ring object (``sr_complex``, ``square``).  The square's corners are
read from the ring's ideal and its kill masks from the corners' generator
masks; each corner builds its part of the split, its complex, on first
read, so a square that is only patched or printed builds none.  A live ring
keeps its split tree, and nothing is cached process-wide.  Rings, complexes
and squares are built on vertex masks.  Stanley-Reisner quotients are sorted
antichains by construction (``sr_quotient``); ``QuotientRing.make``
minimalizes caller generators.

Each identity is checked once, where its data enters (``hom_check`` in
``RingHom.make``, ``GLMat.make``, ``unit_inverse``); values derived from
checked ones, such as the square's homs and the GL pairs ``GLMat(...)``
builds, are lawful by construction, and the verifier re-checks what a
certificate records.  Normal form, too, runs only where data enters (the
``make`` constructors, ``RingHom.make``'s images, ``unit_inverse``,
``det_unit_inverse``, ``GLMat.elementary``, the verifier's parsed matrices)
and on products formed in the free context (``det``, ``adjugate``,
Buchberger cofactors).  The surviving monomials are a basis, so
``mat_mul``, ``mul``, ring maps, sums of normal values and constants
(``make`` refuses the generator 1) are normal by construction, and a value
normal over a square's corner, such as a glued iso's, is normal over
its total ring, whose ideal is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement
from math import comb
from operator import add, or_
from typing import Callable, Optional, Sequence

from .errors import (ContextError, HomError, InputError, InternalCheckError,
                     PreconditionError, ShapeError)
from .fields import Field
from .matrix import PolyMatrix
from .poly import (Polynomial, PolyRing, _format_monomial, _from_dict, exp_divides,
                   support_mask)
from .simplicial import (SimplicialComplex, _from_masks, bit_indices, cone, deletion, link,
                         minimal_transversals, split_apex)


def _generator_key(e: tuple) -> tuple:
    return sum(e), e


def _minimalize(gens: Sequence[tuple]) -> tuple:
    gens = sorted(set(gens), key=_generator_key)
    out = []
    for g in gens:
        if not any(exp_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class QuotientRing:
    """k[x0..xn]/(monomial ideal); generators a minimal set sorted by ``_generator_key``
    (``make`` minimalizes caller generators, ``sr_quotient``'s are by construction)."""

    context: PolyRing
    generators: tuple

    @staticmethod
    def make(field_: Field, nvars: int, generators: Sequence[tuple] = ()) -> "QuotientRing":
        ctx = PolyRing(field_, nvars)
        for g in generators:
            if len(g) != nvars or any(e < 0 for e in g) or not any(g):
                raise InputError(f"bad monomial generator {g}")
        return QuotientRing(ctx, _minimalize(generators))

    @property
    def field(self) -> Field:
        return self.context.field

    @property
    def nvars(self) -> int:
        return self.context.nvars

    def is_square_free(self) -> bool:
        return all(all(e <= 1 for e in g) for g in self.generators)

    @cached_property
    def ideal_text(self) -> tuple:
        """The generators as ring payloads print them, formatted once per ring."""
        return tuple(_format_monomial(g) for g in self.generators)

    @cached_property
    def generator_masks(self) -> Optional[tuple]:
        """Support masks of the generators if the ideal is square-free, else None."""
        if not self.is_square_free():
            return None
        return tuple(support_mask(g) for g in self.generators)

    @cached_property
    def zero_mask(self) -> int:
        """Mask of the variables that are 0 in the ring (its degree-one generators)."""
        return sum(support_mask(g) for g in self.generators if sum(g) == 1)

    def _survives(self, exps: tuple, mask: int) -> bool:
        """Survival of the monomial with exponents exps and support mask."""
        masks = self.generator_masks
        if masks is None:
            return not any(exp_divides(g, exps) for g in self.generators)
        for g in masks:
            if g & mask == g:
                return False
        return True

    def survives(self, exps: tuple) -> bool:
        return self._survives(exps, support_mask(exps))

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Drop every term divisible by an ideal generator."""
        if f.ring is not self.context and f.ring != self.context:
            raise ContextError("polynomial over a different context")
        if not self.generators:
            return f
        survives = self._survives
        kept = tuple(t for t in f.terms if survives(t[0], support_mask(t[0])))
        return f if len(kept) == len(f.terms) else Polynomial(self.context, kept)

    def nf_matrix(self, m: PolyMatrix) -> PolyMatrix:
        return m.map_entries(self.normal_form)

    def mul(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return self.normal_form(f * g)

    def mat_mul(self, a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
        """nf(a * b), each entry accumulated raw in one dict, reduced and sorted once.

        Normal form over a monomial ideal is multiplicative, so a product
        term is tested for survival as it is formed (on the union of its
        factors' support masks for a square-free ideal) and no intermediate
        polynomial is built (Monagan and Pearce, CASC 2007).
        """
        ctx = self.context
        if a.ring is not b.ring and a.ring != b.ring:
            raise ContextError("matrices over different contexts")
        if a.cols != b.rows:
            raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
        if a.ring is not ctx and a.ring != ctx and a.rows and b.cols:
            raise ContextError("polynomial over a different context")
        test = self._survives if self.generators else None
        masked = test is not None and self.generator_masks is not None

        def terms(f: Polynomial) -> list:
            return [(e, c, support_mask(e) if masked else 0) for e, c in f.terms]

        n, cols = a.cols, b.cols
        at = [terms(f) for f in a.entries]
        bt = [terms(f) for f in b.entries]
        zero = ctx.zero()
        out = []
        for i in range(a.rows):
            arow = at[i * n:(i + 1) * n]
            for j in range(cols):
                d: dict = {}
                for k, ta in enumerate(arow):
                    tb = bt[k * cols + j]
                    if not ta or not tb:
                        continue
                    for e1, c1, m1 in ta:
                        for e2, c2, m2 in tb:
                            e = tuple(map(add, e1, e2))
                            if e in d:
                                d[e] += c1 * c2
                            elif test is None or test(e, m1 | m2):
                                d[e] = c1 * c2
                out.append(_from_dict(ctx, d) if d else zero)
        return PolyMatrix(a.ring, a.rows, cols, out)

    def generator_polys(self) -> tuple:
        return tuple(self.context.monomial(g) for g in self.generators)

    @cached_property
    def sr_complex(self) -> SimplicialComplex:
        """The complex this ring presents, made once per ring object: the one
        recorded by ``_presenting`` (a square corner's part of the split, or
        a ``build_fiber_square`` ring's complex), else recovered from the
        ideal and round-trip checked."""
        part = self.__dict__.get("_part")
        if part is not None:
            return part()
        if not self.is_square_free():
            raise PreconditionError("ideal is not square-free; no underlying complex")
        # a vertex set is a face iff its complement meets every generator support
        full = (1 << self.nvars) - 1
        c = _from_masks(self.nvars, [full & ~t for t in minimal_transversals(self.generator_masks)])
        if _sr_ring(self.context, c) != self:
            raise InternalCheckError("complex reconstruction does not round-trip")
        return c

    @cached_property
    def square(self) -> "FiberSquare":
        """The patching square of ``sr_complex`` over this ring object, built
        once (``_square``); its corners cache their own, so a live ring keeps
        its split tree."""
        return _square(self)

    @cached_property
    def free_variables(self) -> tuple:
        """Variables that appear in no generator at all."""
        used = reduce(or_, map(support_mask, self.generators), 0)
        return tuple(bit_indices(((1 << self.nvars) - 1) & ~used))


# a unit inverse whose partial sum outgrows this many terms is refused
UNIT_INVERSE_MAX_TERMS = 256
FIBER_CHECK_MAX_MONOMIALS = 100_000  # monomials one fiber_check tests, under a second


def unit_inverse(f: Polynomial, ring: QuotientRing) -> Optional[Polynomial]:
    """Inverse of f modulo the ring's ideal, or None when f is not a unit.

    f = c + n with c = f(0) is a unit iff c != 0 and n is nilpotent: the
    support of each term of n contains some generator's support (so a
    square-free ideal, where no surviving term's does, has units k*).  The
    inverse is c^-1 * sum(u^k) with u = -n/c, summed until u^k vanishes;
    InputError once the sum passes ``UNIT_INVERSE_MAX_TERMS`` terms.
    """
    f = ring.normal_form(f)
    c = f.constant_term()
    masks = [support_mask(g) for g in ring.generators]
    tail = [support_mask(exps) for exps, _ in f.terms if any(exps)]
    if not c or not all(any(g & m == g for g in masks) for m in tail):
        return None
    ctx, c_inv = ring.context, ring.field.inv(c)
    u = (ctx.constant(c) - f).scale(c_inv)
    q, power = ctx.one(), u
    while not power.is_zero():
        q, power = q + power, ring.mul(power, u)
        if len(q.terms) > UNIT_INVERSE_MAX_TERMS:
            raise InputError(f"unit inverse needs more than {UNIT_INVERSE_MAX_TERMS} terms")
    q = q.scale(c_inv)
    if ring.mul(q, f) != ctx.one():
        raise InternalCheckError("unit inverse does not invert")
    return q


def sr_quotient(field_: Field, c: SimplicialComplex) -> QuotientRing:
    """The Stanley-Reisner ring of c: its minimal non-faces, an antichain, only sorted."""
    return _sr_ring(PolyRing(field_, c.ambient), c)


def _sr_ring(ctx: PolyRing, c: SimplicialComplex) -> QuotientRing:
    full = (1 << c.ambient) - 1
    return _mask_ring(ctx, minimal_transversals(full & ~f for f in c.facet_masks))


def _mask_ring(ctx: PolyRing, masks) -> QuotientRing:
    """The ring over ctx whose generators are the square-free monomials with
    these supports, an antichain, sorted by ``_generator_key`` (by degree,
    then exponent vector), with their masks recorded."""
    n = ctx.nvars
    gens = sorted(((m.bit_count(), tuple(m >> v & 1 for v in range(n)), m) for m in masks))
    r = QuotientRing(ctx, tuple(e for _, e, _ in gens))
    r.__dict__["generator_masks"] = tuple(m for _, _, m in gens)
    return r


def complex_of_ring(r: QuotientRing) -> SimplicialComplex:
    """The complex whose Stanley-Reisner ideal presents r (``r.sr_complex``)."""
    return r.sr_complex


def _presenting(r: QuotientRing, part: Callable[[], SimplicialComplex]) -> QuotientRing:
    """r, which presents the complex ``part()`` returns by construction: its
    ``sr_complex``, made on first read."""
    r.__dict__["_part"] = part
    return r


@dataclass(frozen=True)
class RingHom:
    """The map x_v -> 0 for v in ``kill``, x_v -> x_v otherwise, between two
    presentations over one context, applied as a term filter.  ``kill``
    holds every variable that is 0 in the target, so equal maps are equal."""

    source: QuotientRing
    target: QuotientRing
    kill: int

    def __post_init__(self):
        if self.source.context is not self.target.context and \
                self.source.context != self.target.context:
            raise ContextError("ring map between different contexts")

    @staticmethod
    def make(source: QuotientRing, target: QuotientRing,
             images: Sequence[Polynomial]) -> "RingHom":
        """The checked map with these variable images (``hom_check``)."""
        return hom_check(RingHom(source, target, image_mask(source, target, images)))

    @staticmethod
    def identity(ring: QuotientRing) -> "RingHom":
        return RingHom.quotient_map(ring, ring)

    @staticmethod
    def quotient_map(source: QuotientRing, target: QuotientRing) -> "RingHom":
        """Identity on variables; valid when source ideal sits inside target's."""
        return hom_check(RingHom(source, target, target.zero_mask))

    @property
    def images(self) -> tuple:
        ctx = self.target.context
        return tuple(ctx.zero() if self.kill >> v & 1 else ctx.variable(v)
                     for v in range(ctx.nvars))

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ring is not self.source.context and f.ring != self.source.context:
            raise ContextError("polynomial over a different context")
        kill, survives = self.kill, self.target._survives
        kept = tuple(t for t in f.terms
                     if not (m := support_mask(t[0])) & kill and survives(t[0], m))
        return f if len(kept) == len(f.terms) else Polynomial(self.target.context, kept)

    def apply_matrix(self, m: PolyMatrix) -> PolyMatrix:
        return m.map_entries(self.__call__)

    def compose(self, inner: "RingHom") -> "RingHom":
        """self after inner (inner first)."""
        if inner.target != self.source:
            raise ContextError("homs do not compose")
        return RingHom(inner.source, self.target, inner.kill | self.kill)


def image_mask(source: QuotientRing, target: QuotientRing,
               images: Sequence[Polynomial]) -> int:
    """The kill mask of the map with these variable images: InputError unless
    there is one per source variable, HomError unless each is, in the
    target, 0 or its own variable."""
    if len(images) != source.nvars:
        raise InputError("need one image per source variable")
    kill = 0
    for v, img in enumerate(target.normal_form(p) for p in images):
        if img.is_zero():
            kill |= 1 << v
        elif img != target.context.variable(v):
            raise HomError(f"x{v} maps to {img}, neither itself nor 0", image=img)
    return kill


def hom_check(h: RingHom) -> RingHom:
    """Verify every source ideal generator maps to normal-form zero."""
    for g in h.source.generators:
        image = h(h.source.context.monomial(g))
        if not image.is_zero():
            raise HomError(
                f"generator {h.source.context.monomial(g)} maps to nonzero {image}",
                generator=g, image=image)
    return h


@dataclass(frozen=True)
class FiberSquare:
    """Cartesian square of Stanley-Reisner rings at an apex vertex.

        a  --i1-->  a1
        |i2         |j1
        a2 --j2-->  a0

    j2 kills the apex variable and splits via ``section``.  Each corner's
    ``sr_complex`` is its part of the split at the apex, made on first read.
    """

    a: QuotientRing
    a1: QuotientRing
    a2: QuotientRing
    a0: QuotientRing
    i1: RingHom
    i2: RingHom
    j1: RingHom
    j2: RingHom
    section: RingHom
    apex: int

    @property
    def complex(self) -> SimplicialComplex:
        return self.a.sr_complex


def build_fiber_square(field_: Field, c: SimplicialComplex) -> FiberSquare:
    """The patching square of a non-simplex complex over a fresh
    Stanley-Reisner ring, which presents c by construction: that ring's
    ``square``.  The engines read ``ring.square`` of each node's own ring."""
    if c.is_simplex():
        raise PreconditionError("fiber square needs a non-simplex complex")
    return _presenting(sr_quotient(field_, c), lambda: c).square


def _minimal_masks(masks) -> list:
    """The inclusion-minimal members of a family of vertex masks."""
    out: list = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(g & m == g for g in out):
            out.append(m)
    return out


def _square(a: QuotientRing) -> FiberSquare:
    """The patching square of a's complex c over a; corners read from a's
    ideal I, homs built by construction.

    The apex x is ``split_apex(c)``, the vertex ``apex_decomposition``
    splits at.  The deletion ring is min(I + (x)), the cone ring min(I : x)
    (each generator with its apex bit dropped) and the link ring
    min((I : x) + (x)): a non-face of the deletion contains x or a minimal
    non-face of c avoiding x; F is a non-face of the cone iff F + x is one of
    c; a non-face of the link is either.  Each hom kills the variables that
    are 0 in its target, its single-vertex generators (the link's include
    the apex, and the section uses the link's).  Each corner presents its
    part of the split, made on first read of its ``sr_complex``: the
    deletion and link of c at x and the cone over that link.  The deletion
    and cone parts are subcomplexes meeting in the link, which avoids the
    apex (by construction, ``ApexDecomposition``); so each hom kills its
    source ideal, the square commutes and j2 o section == id.  The verifier
    re-checks recorded squares (``hom-defined``, ``square-commutes``).
    """
    c, ctx, gens = a.sr_complex, a.context, a.generator_masks
    apex = split_apex(c)
    bit = 1 << apex
    colon = _minimal_masks(g & ~bit for g in gens)
    a1 = _presenting(_mask_ring(ctx, [bit] + [g for g in gens if not g & bit]),
                     lambda: deletion(c, apex))
    a0 = _presenting(_mask_ring(ctx, [bit] + colon), lambda: link(c, apex))
    a2 = _presenting(_mask_ring(ctx, colon), lambda: cone(a0.sr_complex, apex))
    g1, g2, g0 = (sum(m for m in r.generator_masks if m.bit_count() == 1) for r in (a1, a2, a0))
    return FiberSquare(a, a1, a2, a0, RingHom(a, a1, g1), RingHom(a, a2, g2),
                       RingHom(a1, a0, g0), RingHom(a2, a0, g0),
                       RingHom(a0, a2, g0), apex)


@dataclass(frozen=True)
class FiberReport:
    ok: bool
    degree: int
    count_a: int
    count_a1: int
    count_a2: int
    count_a0: int
    failure: Optional[str] = None

    def counts(self) -> tuple:
        return (self.count_a, self.count_a1, self.count_a2, self.count_a0)


def _monomials_up_to(nvars: int, degree: int):
    """(exponents, support mask) of each monomial of total degree <= degree."""
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            exps = [0] * nvars
            mask = 0
            for v in combo:
                exps[v] += 1
                mask |= 1 << v
            yield tuple(exps), mask


def fiber_check(square: FiberSquare, degree: int = 4) -> FiberReport:
    """Verify the square is cartesian on monomial bases up to the degree.

    Checks, for every monomial m of total degree <= degree: m survives in a
    iff it survives in a1 or a2; it survives in both a1 and a2 iff it
    survives in a0; and a survivor of a2 alone involves the apex.  The first
    two give, by inclusion-exclusion, |B(a)| = |B(a1)| + |B(a2)| - |B(a0)|
    with the pairing (m  ->  (image in a1, image in a2)) bijective onto
    compatible pairs.  A negative degree, or one with more than
    ``FIBER_CHECK_MAX_MONOMIALS`` monomials (C(n + degree, n)), is an InputError.
    """
    n = square.a.nvars
    if degree < 0:
        raise InputError(f"fiber check degree {degree} is negative")
    if comb(n + degree, n) > FIBER_CHECK_MAX_MONOMIALS:
        raise InputError(f"fiber check degree {degree} spans more than "
                         f"{FIBER_CHECK_MAX_MONOMIALS} monomials in {n} variables")
    apex = square.apex
    a, a1, a2, a0 = square.a, square.a1, square.a2, square.a0
    c = c1 = c2 = c0 = 0
    for exps, m in _monomials_up_to(n, degree):
        s = a._survives(exps, m)
        s1 = a1._survives(exps, m)
        s2 = a2._survives(exps, m)
        s0 = a0._survives(exps, m)
        c += s
        c1 += s1
        c2 += s2
        c0 += s0
        if s != (s1 or s2):
            return FiberReport(False, degree, c, c1, c2, c0,
                               failure=f"survival mismatch at {exps}")
        if (s1 and s2) != s0:
            return FiberReport(False, degree, c, c1, c2, c0,
                               failure=f"overlap mismatch at {exps}")
        if s2 and not s1 and exps[apex] == 0:
            return FiberReport(False, degree, c, c1, c2, c0,
                               failure=f"apex-free monomial {exps} missing from a0")
    return FiberReport(True, degree, c, c1, c2, c0)


# -- verified invertible matrices over a quotient -----------------------------

@dataclass(frozen=True, slots=True)
class GLMat:
    """A square matrix over a quotient ring together with its inverse.

    ``GLMat(...)`` builds the pair as given; ``make`` checks a pair that
    comes from outside (``files.load_glmat``, the conjugation oracle's g,
    ``diagonal``'s unit pairs).  It checks mat * inv == I alone: over a
    commutative ring, A B == I for square A and B gives det(A) det(B) == 1,
    so A is invertible and B == A^-1, whence B A == I too.

    Every other pair is built normal and inverse by algebra: the identity,
    products, swaps, direct sums and ring-map images of lawful pairs
    ((AB)(B^-1 A^-1) = I), I + fE_ij with I - fE_ij for i != j, U^-1 D V^-1
    with V D^-1 U for transforms U, V tracked with their inverses and a
    diagonal D of checked unit pairs (``lifting._lift_elementary``), m with
    det(m)^-1 adj(m) (``lifting.det_unit_inverse``), and
    (bwd + w^T v(0), fwd + w(0)^T v) for an iso from K = I - w^T v to K(0)
    (``engines.umrow_lift``: the corner laws and v w^T == 1 leave
    K + w^T v == I).  The verifier still re-checks every pair a certificate
    records (rules ``whitehead``: U*U^-1 == I, and ``gl-lift``:
    delta*delta^-1 == I).
    """

    ring: QuotientRing
    mat: PolyMatrix
    inv: PolyMatrix

    @staticmethod
    def make(ring: QuotientRing, mat: PolyMatrix, inv: PolyMatrix) -> "GLMat":
        """The pair in normal form, checked square with mat * inv == I."""
        mat = ring.nf_matrix(mat)
        inv = ring.nf_matrix(inv)
        if not mat.is_square or mat.rows != inv.rows or not inv.is_square:
            raise PreconditionError("GL element must be square with a square inverse")
        if ring.mat_mul(mat, inv) != PolyMatrix.identity(ring.context, mat.rows):
            raise PreconditionError("matrix inverse fails to verify")
        return GLMat(ring, mat, inv)

    @property
    def size(self) -> int:
        return self.mat.rows

    @staticmethod
    def identity(ring: QuotientRing, n: int) -> "GLMat":
        eye = PolyMatrix.identity(ring.context, n)
        return GLMat(ring, eye, eye)

    @staticmethod
    def elementary(ring: QuotientRing, n: int, i: int, j: int, f: Polynomial) -> "GLMat":
        """I + f * E_ij for i != j."""
        if i == j:
            raise InputError("elementary matrix needs i != j")
        ctx = ring.context
        m = [[ctx.one() if a == b else ctx.zero() for b in range(n)] for a in range(n)]
        minv = [row[:] for row in m]
        m[i][j] = ring.normal_form(f)
        minv[i][j] = -m[i][j]
        return GLMat(ring, PolyMatrix.from_rows(ctx, m), PolyMatrix.from_rows(ctx, minv))

    @staticmethod
    def diagonal(ring: QuotientRing, entries: Sequence[tuple]) -> "GLMat":
        """Diagonal of (unit, inverse) pairs, each pair verified."""
        ctx = ring.context
        return GLMat.make(ring, PolyMatrix.diagonal(ctx, [u for u, _ in entries]),
                          PolyMatrix.diagonal(ctx, [uinv for _, uinv in entries]))

    def __mul__(self, other: "GLMat") -> "GLMat":
        if self.ring != other.ring:
            raise ContextError("GL elements over different rings")
        return GLMat(self.ring, self.ring.mat_mul(self.mat, other.mat),
                     self.ring.mat_mul(other.inv, self.inv))

    def inverse(self) -> "GLMat":
        return GLMat(self.ring, self.inv, self.mat)

    def apply_hom(self, h: RingHom) -> "GLMat":
        """The pair pushed along a ring map, which keeps both products I."""
        if h.source != self.ring:
            raise ContextError("hom source does not match")
        return GLMat(h.target, h.apply_matrix(self.mat), h.apply_matrix(self.inv))

    def __repr__(self) -> str:
        return f"GLMat({self.mat!r})"
