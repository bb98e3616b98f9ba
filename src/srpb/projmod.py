"""Projective modules as idempotent matrices, with explicit isomorphism
witnesses, kernel modules of unimodular rows, and Milnor patching over
fiber squares.

A module is the image of an idempotent E; an isomorphism is a pair of
matrices (fwd, bwd) satisfying the four corner laws

    fwd == E_tgt * fwd * E_src      bwd == E_src * bwd * E_tgt
    bwd * fwd == E_src              fwd * bwd == E_tgt

so that every claim in this module is an exact matrix identity a verifier
can re-check without trusting the construction that produced it.

``make`` checks these laws where data enters (caller matrices, oracle and
lifter outputs, each glued result); ``inverse``, ``compose`` and
``apply_hom`` along a ring map keep them by algebra and skip the check.
Every fiber square is split, so ``milnor_patch`` of free data is the free
module I_r (+) 0 in closed form, with no glue and no product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import (ContextError, LifterError, PreconditionError, RankError,
                     ShapeError)
from .matrix import PolyMatrix, scalar_rank
from .quotient import (FiberSquare, GLMat, QuotientRing, RingHom, glue_matrix)


@dataclass(frozen=True)
class ProjModule:
    """Image of the idempotent ``matrix`` over ``ring``."""

    ring: QuotientRing
    matrix: PolyMatrix

    @staticmethod
    def make(ring: QuotientRing, matrix: PolyMatrix) -> "ProjModule":
        matrix = ring.nf_matrix(matrix)
        if not matrix.is_square:
            raise ShapeError("module presentation must be square")
        if ring.mat_mul(matrix, matrix) != matrix:
            raise PreconditionError("matrix is not idempotent over the ring")
        return ProjModule(ring, matrix)

    @staticmethod
    def free(ring: QuotientRing, rank: int, size: int = None) -> "ProjModule":
        """I_rank (+) 0, padded to size, which is idempotent by construction."""
        ctx = ring.context
        pad = max(0, (rank if size is None else size) - rank)
        e = PolyMatrix.identity(ctx, rank).direct_sum(PolyMatrix.zeros(ctx, pad, pad))
        return ProjModule(ring, e)

    @property
    def size(self) -> int:
        return self.matrix.rows

    def augmented_matrix(self) -> PolyMatrix:
        return self.matrix.augmentation()

    def rank(self) -> int:
        return module_rank(self)


def module_rank(p: ProjModule) -> int:
    """Rank of the module: the rank of its augmentation at x = 0.

    Cross-checked against the augmentation trace (equal over Q, congruent
    mod p over F_p); disagreement raises RankError.
    """
    e0 = p.augmented_matrix()
    r = scalar_rank(e0)
    tr = e0.trace().constant_term()
    fld = p.ring.field
    if fld.char == 0:
        if tr != r:
            raise RankError(f"augmentation trace {tr} is not the rank {r}")
    else:
        if tr != r % fld.char:
            raise RankError(f"augmentation trace {tr} not congruent to rank {r}")
    if not 0 <= r <= p.size:
        raise RankError("rank outside [0, size]")
    return r


def base_change(p: ProjModule, h: RingHom) -> ProjModule:
    """Push the module along a ring map."""
    if h.source != p.ring:
        raise ContextError("hom source does not match the module ring")
    # a ring map keeps E*E == E; verifier rule ``idempotency`` re-checks it
    return ProjModule(h.target, h.apply_matrix(p.matrix))


@dataclass(frozen=True)
class ModIso:
    """Two-sided isomorphism witness between modules over one ring."""

    source: ProjModule
    target: ProjModule
    fwd: PolyMatrix
    bwd: PolyMatrix

    @staticmethod
    def make(source: ProjModule, target: ProjModule,
             fwd: PolyMatrix, bwd: PolyMatrix) -> "ModIso":
        if source.ring != target.ring:
            raise ContextError("iso between modules over different rings")
        ring = source.ring
        fwd = ring.nf_matrix(fwd)
        bwd = ring.nf_matrix(bwd)
        es, et = source.matrix, target.matrix
        if fwd != ring.mat_mul(ring.mat_mul(et, fwd), es):
            raise PreconditionError("forward witness is not a corner map")
        if bwd != ring.mat_mul(ring.mat_mul(es, bwd), et):
            raise PreconditionError("backward witness is not a corner map")
        if ring.mat_mul(bwd, fwd) != es:
            raise PreconditionError("bwd * fwd is not the source idempotent")
        if ring.mat_mul(fwd, bwd) != et:
            raise PreconditionError("fwd * bwd is not the target idempotent")
        return ModIso(source, target, fwd, bwd)

    @staticmethod
    def identity(p: ProjModule) -> "ModIso":
        return ModIso(p, p, p.matrix, p.matrix)

    @property
    def ring(self) -> QuotientRing:
        return self.source.ring

    def inverse(self) -> "ModIso":
        return ModIso(self.target, self.source, self.bwd, self.fwd)

    def compose(self, inner: "ModIso") -> "ModIso":
        """self after inner; corner laws are closed under composition."""
        if inner.target.matrix != self.source.matrix or inner.ring != self.ring:
            raise ContextError("isos do not compose")
        ring = self.ring
        return ModIso(inner.source, self.target,
                      ring.mat_mul(self.fwd, inner.fwd), ring.mat_mul(inner.bwd, self.bwd))

    def apply_hom(self, h: RingHom) -> "ModIso":
        """The iso pushed along a ring map, which keeps every matrix identity."""
        return ModIso(base_change(self.source, h), base_change(self.target, h),
                      h.apply_matrix(self.fwd), h.apply_matrix(self.bwd))


# -- unimodular rows ---------------------------------------------------------

@dataclass(frozen=True)
class UmRow:
    """Row v with completion certificate w: v * w^T == 1 in the ring."""

    ring: QuotientRing
    v: PolyMatrix
    w: PolyMatrix

    @staticmethod
    def make(ring: QuotientRing, v: PolyMatrix, w: PolyMatrix) -> "UmRow":
        v = ring.nf_matrix(v)
        w = ring.nf_matrix(w)
        if v.rows != 1 or w.rows != 1 or v.cols != w.cols:
            raise ShapeError("unimodular data must be two rows of equal length")
        prod = ring.mat_mul(v, w.transpose())
        if prod[0, 0] != ring.context.one():
            raise PreconditionError(f"v * w^T == {prod[0, 0]}, expected 1")
        return UmRow(ring, v, w)

    @property
    def width(self) -> int:
        return self.v.cols

    def augmented(self) -> tuple:
        return self.v.augmentation(), self.w.augmentation()


def kernel_module(u: UmRow) -> ProjModule:
    """The kernel of the row map as an idempotent image: I - w^T v.

    v * w^T == 1 makes w^T v idempotent and v (I - w^T v) == 0; verifier
    rule ``idempotency`` re-checks the recorded module.
    """
    ring = u.ring
    e = ring.mat_mul(u.w.transpose(), u.v)
    return ProjModule(ring, PolyMatrix.identity(ring.context, u.width) - e)


# -- Milnor patching -----------------------------------------------------------

def milnor_patch(square: FiberSquare, rank: int, sigma: GLMat) -> ProjModule:
    """Glue the free rank-r patch data twisted by sigma over the overlap.

    sigma is stabilized to sigma (+) sigma^-1 in GL_2r and lifted over the
    cone-side ring by the Whitehead lift U = section(sigma) (+)
    section(sigma^-1) (``lifting.whitehead_lift``).  U commutes with
    I_r (+) 0, so U (I_r (+) 0) U^-1 == I_r (+) 0, and gluing it against
    the constant I_r (+) 0 over a split square gives the free module
    I_r (+) 0.  Verifier rules ``whitehead``, ``idempotency``,
    ``restriction`` and ``rank`` re-check every recorded patch.
    """
    if sigma.ring != square.a0:
        raise ContextError("patch data must live over the overlap ring")
    if sigma.size != rank:
        raise ShapeError("sigma size must equal the requested rank")
    return ProjModule.free(square.a, rank, 2 * rank)


@dataclass(frozen=True)
class GlueTrace:
    """Intermediates of an iso glue, kept for the certificate."""

    mismatch: ModIso     # automorphism of Q_0
    alpha2: ModIso       # its lift to Aut(Q_2)
    phi2_fixed: ModIso   # corrected second patch iso


def glue_iso_traced(square: FiberSquare, p: ProjModule, q: ProjModule,
                    phi1: ModIso, phi2: ModIso,
                    aut_lifter: Callable[[ModIso], ModIso]):
    """Patch isos P_i ~ Q_i into (P ~ Q, its GlueTrace), fixing the overlap mismatch.

    The mismatch j2(phi2) o j1(phi1)^-1 in Aut(Q_0) is lifted to Aut(Q_2)
    by the caller-supplied lifter, phi2 is corrected by its inverse, and the
    corrected pair is glued entrywise.
    """
    _check_glue_inputs(square, p, q, phi1, phi2)
    j1, j2 = square.j1, square.j2
    phi1_0 = phi1.apply_hom(j1)
    phi2_0 = phi2.apply_hom(j2)
    mismatch = phi2_0.compose(phi1_0.inverse())  # Aut(Q_0)
    alpha2 = aut_lifter(mismatch)
    _check_lifter_output(square, alpha2, mismatch, phi2.target)
    phi2_fixed = alpha2.inverse().compose(phi2)
    fwd = glue_matrix(square, phi1.fwd, phi2_fixed.fwd)
    bwd = glue_matrix(square, phi1.bwd, phi2_fixed.bwd)
    iso = ModIso.make(p, q, fwd, bwd)
    return iso, GlueTrace(mismatch, alpha2, phi2_fixed)


def _check_glue_inputs(square, p, q, phi1, phi2) -> None:
    if p.ring != square.a or q.ring != square.a:
        raise ContextError("modules must live over the square's total ring")
    if phi1.source.matrix != square.i1.apply_matrix(p.matrix) or \
       phi1.target.matrix != square.i1.apply_matrix(q.matrix):
        raise PreconditionError("phi1 does not connect the i1 base changes")
    if phi2.source.matrix != square.i2.apply_matrix(p.matrix) or \
       phi2.target.matrix != square.i2.apply_matrix(q.matrix):
        raise PreconditionError("phi2 does not connect the i2 base changes")


def _check_lifter_output(square, alpha2: ModIso, alpha0: ModIso, q2: ProjModule) -> None:
    if alpha2.ring != square.a2:
        raise LifterError("lifter output lives over the wrong ring")
    if alpha2.source.matrix != q2.matrix or alpha2.target.matrix != q2.matrix:
        raise LifterError("lifter output is not an automorphism of Q_2")
    down = alpha2.apply_hom(square.j2)
    if down.fwd != alpha0.fwd or down.bwd != alpha0.bwd:
        raise LifterError("lifter output does not reduce to the requested automorphism")


def pair_aut(square: FiberSquare, p: ProjModule, alpha1: ModIso,
             aut_lifter: Callable[[ModIso], ModIso]) -> ModIso:
    """Extend an automorphism of P_1 to P across the square.

    Gluing alpha1^-1 against the identity of P_2 leaves the mismatch
    j1(alpha1) for the lifter; the glued iso is the inverse of the pair
    (alpha1, its lift).
    """
    id2 = ModIso.identity(base_change(p, square.i2))
    return glue_iso_traced(square, p, p, alpha1.inverse(), id2, aut_lifter)[0].inverse()


# -- default lifters through the section ---------------------------------------

def section_aut_lifter(square: FiberSquare, q2: ProjModule) -> Callable[[ModIso], ModIso]:
    """Constant lift of overlap automorphisms through the section.

    Sound whenever Q_2's idempotent is the section image of its reduction,
    that is, when it has no term in the apex variable; otherwise raises
    LifterError.  That holds when Q is constant, as the extension engine's
    augmentation is.  The cancellation engine's default,
    ``engines.extension_aut_lifter``, tries this first and conjugates by Q_2's
    extension witness where it raises.
    """
    def lifter(alpha0: ModIso) -> ModIso:
        if alpha0.ring != square.a0:
            raise LifterError("expected an automorphism over the overlap ring")
        lifted_e = square.section.apply_matrix(alpha0.source.matrix)
        if lifted_e != q2.matrix:
            raise LifterError("Q_2 is not the section image of its reduction")
        return alpha0.apply_hom(square.section)

    return lifter
