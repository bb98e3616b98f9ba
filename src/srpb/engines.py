"""Certificate-emitting engines: extension witnesses, cancellation
witnesses, and unimodular-row lifting.

Extension and cancellation are one patching recursion over a pair of modules
(p, q): split the ring's complex at an apex, base-change both modules to the
deletion side and the cone side, solve both (recursively, down to simplex
base cases), fix the overlap mismatch with a lifter through the section, and
glue.  Extension is the case where q is the augmentation of p; cancellation
takes q from the caller.  The complex is recovered from the ring once, at
the entry point, and each split hands its deletion and cone parts down.
Extension base cases are discharged by a built-in oracle chain (constant
presentations, then univariate freeness via Smith normal form) followed by
an optional caller oracle; anything else surfaces as an Obligation rather
than a guess.  Row lifting extends the row's kernel module and lifts the
comparison matrix that the witness yields.

Every step deposits its matrices into a certificate payload that the
independent verifier re-checks with plain normal-form arithmetic; the
engines never appear on the verification path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import certs
from .errors import (AllStrategiesFailed, InternalCheckError, LifterError,
                     PreconditionError)
from .lifting import lift_gl
from .matrix import PolyMatrix, scalar_inverse
from .projmod import (ModIso, ProjModule, UmRow, base_change, glue_iso_traced,
                      kernel_module, module_rank, section_aut_lifter)
from .quotient import (GLMat, QuotientRing, RingHom, build_fiber_square,
                       complex_of_ring)
from .smith import smith_normal_form

ExtendOracle = Callable[[ProjModule], Optional[ModIso]]


@dataclass(frozen=True)
class Obligation:
    """An undischarged base case, returned instead of a guessed witness."""

    kind: str  # "extend" | "stable-extend" | "cancel"
    ring: QuotientRing
    module: PolyMatrix

    def payload(self) -> dict:
        return {"kind": self.kind,
                "ring": certs.ring_payload(self.ring),
                "module": certs.matrix_payload(self.module)}


@dataclass(frozen=True)
class HypothesisProfile:
    """Advisory record of the dimension/characteristic side conditions."""

    characteristic: int
    rank: int
    base_dimension: int = 0

    def payload(self) -> dict:
        p, r = self.characteristic, self.rank
        return {
            "characteristic": p,
            "rank": r,
            "base_dimension": self.base_dimension,
            "char_prime_to_rank_factorial": bool(p) and math.gcd(p, math.factorial(r)) == 1,
            "rank_at_least_half_dim_plus_two": r >= self.base_dimension / 2 + 2,
        }


@dataclass
class PatchResult:
    """Outcome of the extension or cancellation engine."""

    iso: Optional[ModIso]
    certificate: dict
    obligations: tuple

    @property
    def ok(self) -> bool:
        return self.iso is not None and not self.obligations


@dataclass
class UmLiftResult:
    row: Optional[UmRow]
    certificate: dict
    obligations: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.row is not None


def always_fail_oracle(p: ProjModule) -> Optional[ModIso]:
    """Stub oracle that discharges nothing."""
    return None


def stable_adapter(base_oracle: Optional[ExtendOracle]) -> ExtendOracle:
    """Wrap a stable-extension base oracle for use by the extension engine.

    The wrapped oracle's contract is the stable one (its inputs come with
    a free rank-one complement already known to be extended); undischarged
    base cases are tagged "stable-extend".
    """
    def wrapped(p: ProjModule) -> Optional[ModIso]:
        return base_oracle(p) if base_oracle is not None else None

    wrapped.obligation_kind = "stable-extend"  # type: ignore[attr-defined]
    return wrapped


def conjugation_witness_oracle(g: GLMat) -> ExtendOracle:
    """Oracle built from offline construction data.

    When the module at a base case is a conjugate of a constant idempotent
    by the image of ``g``, the reinterpreted conjugator is a witness; the
    oracle checks g and declines otherwise; ``_extend_base`` checks the witness.
    """
    def oracle(p: ProjModule) -> Optional[ModIso]:
        ring = p.ring
        try:
            h = GLMat(ring, PolyMatrix(ring.context, g.mat.rows, g.mat.cols, g.mat.entries),
                      PolyMatrix(ring.context, g.inv.rows, g.inv.cols, g.inv.entries))
        except PreconditionError:
            return None
        if h.size != p.size:
            return None
        c = ring.mat_mul(ring.mat_mul(h.inv, p.matrix), h.mat)
        if not c.is_constant():
            return None
        # the image of the checked pair h under x -> 0, a ring hom
        h0 = GLMat._known_pair(ring, h.mat.augmentation(), h.inv.augmentation())
        target = ProjModule(ring, p.augmented_matrix())
        fwd = ring.mat_mul(ring.mat_mul(h0.mat, c), h.inv)
        bwd = ring.mat_mul(ring.mat_mul(h.mat, c), h0.inv)
        return ModIso(p, target, fwd, bwd)

    return oracle


def chain_oracles(*oracles: Optional[ExtendOracle]) -> ExtendOracle:
    """First oracle that discharges wins."""
    def oracle(p: ProjModule) -> Optional[ModIso]:
        for o in oracles:
            if o is None:
                continue
            iso = o(p)
            if iso is not None:
                return iso
        return None

    return oracle


# -- base cases -----------------------------------------------------------------

def _point_normalize(iso: ModIso) -> ModIso:
    """Compose with the inverse of the iso's augmentation (a ring-hom image of
    a checked iso, so lawful) so that fwd(0) is the target."""
    ring = iso.ring
    theta = iso.fwd.augmentation()
    theta_back = iso.bwd.augmentation()
    if theta == iso.target.matrix:
        return iso
    fwd = ring.mat_mul(theta_back, iso.fwd)
    bwd = ring.mat_mul(iso.bwd, theta)
    return ModIso(iso.source, iso.target, fwd, bwd)


def _extend_base(oracle: Optional[ExtendOracle]):
    """Base hook of the extension: constant presentations, univariate freeness
    via Smith normal form, then the oracle, whose witness is checked here once."""
    def base(p: ProjModule, q: ProjModule):
        if p.matrix.is_constant():
            return "constant", ModIso(p, q, p.matrix, p.matrix)
        if len(p.ring.free_variables()) <= 1:
            return "smith", _point_normalize(_smith_freeness_iso(p))
        iso = oracle(p) if oracle is not None else None
        if iso is None:
            return None
        if iso.source.matrix != p.matrix or iso.target.matrix != q.matrix:
            raise InternalCheckError("oracle witness does not run from the module "
                                     "to its augmentation")
        return "oracle", _point_normalize(ModIso.make(p, q, iso.fwd, iso.bwd))

    return base


def _smith_freeness_iso(p: ProjModule) -> ModIso:
    """Change of basis to a constant idempotent over a univariate base.  Once
    g^-1 E g == C is checked, (g0 C g^-1, g C g0^-1) is lawful by algebra."""
    ring = p.ring
    ctx = ring.context
    e = p.matrix
    n = e.rows
    eye = PolyMatrix.identity(ctx, n)
    dec1 = smith_normal_form(eye - e)   # kernel of I - E  =  im(E)
    dec0 = smith_normal_form(e)         # kernel of E      =  im(I - E)
    cols = []
    for dec in (dec1, dec0):
        for j in range(n):
            if dec.d[j, j].is_zero():
                cols.append(dec.v.col(j))
    if len(cols) != n:
        raise InternalCheckError("kernel bases do not span the free module")
    g = PolyMatrix(ctx, n, n, [cols[j][i] for i in range(n) for j in range(n)])
    det = g.det()
    if not det.is_constant() or det.is_zero():
        raise InternalCheckError("basis matrix determinant is not a unit")
    inv_scalar = ctx.constant(ctx.field.inv(det.constant_term()))
    ginv = g.adjugate().scale(inv_scalar)
    s = len([j for j in range(n) if dec1.d[j, j].is_zero()])
    corner = PolyMatrix.identity(ctx, s).direct_sum(PolyMatrix.zeros(ctx, n - s, n - s))
    if ring.mat_mul(ring.mat_mul(ginv, e), g) != ring.nf_matrix(corner):
        raise InternalCheckError("basis change does not diagonalize the idempotent")
    g0 = g.augmentation()
    g0inv = scalar_inverse(g0)
    target = ProjModule(ring, p.augmented_matrix())
    fwd = ring.mat_mul(ring.mat_mul(g0, corner), ginv)
    bwd = ring.mat_mul(ring.mat_mul(g, corner), g0inv)
    return ModIso(p, target, fwd, bwd)


def _cancel_base(p: ProjModule, q: ProjModule):
    """Base hook of the cancellation: constant pairs, then univariate freeness."""
    if p.matrix.is_constant() and q.matrix.is_constant():
        return "constant", _constant_pair_iso(p, q)
    if len(p.ring.free_variables()) <= 1:
        ip = _smith_freeness_iso(p)
        iq = _smith_freeness_iso(q)
        mid = _constant_pair_iso(ip.target, iq.target)
        return "smith", iq.inverse().compose(mid).compose(ip)
    return None


def _constant_pair_iso(p: ProjModule, q: ProjModule) -> ModIso:
    """Explicit iso between equal-rank constant idempotents over a field."""
    from .matrix import column_space_basis, kernel_basis

    ring = p.ring
    ctx = ring.context

    def basis_matrix(e: PolyMatrix) -> PolyMatrix:
        cols = column_space_basis(e) + kernel_basis(e)
        n = e.rows
        if len(cols) != n:
            raise InternalCheckError("constant idempotent bases do not span")
        return PolyMatrix.from_scalars(ctx, [[cols[j][i] for j in range(n)] for i in range(n)])

    gp = basis_matrix(p.matrix)
    gq = basis_matrix(q.matrix)
    h = gq * scalar_inverse(gp)
    hinv = gp * scalar_inverse(gq)
    fwd = ring.mat_mul(ring.mat_mul(q.matrix, h), p.matrix)
    bwd = ring.mat_mul(ring.mat_mul(p.matrix, hinv), q.matrix)
    return ModIso.make(p, q, fwd, bwd)


# -- the patching recursion ---------------------------------------------------------

@dataclass(frozen=True)
class _Task:
    """The per-engine pieces of the patching recursion."""

    name: str                 # certificate task: "extend" or "cancel"
    obligation_kind: str
    base: Callable            # (p, q) -> (method, iso from p to q) or None
    lifter_factory: Callable  # (square, q2) -> lifter of overlap automorphisms


def _solve(task: _Task, p: ProjModule, q: ProjModule, stab: Optional[ModIso] = None):
    """Witness p isomorphic to q, or obligations, with its certificate.

    The ring's complex is recovered here, once; the recursion carries it
    down, and its ambient vertex count bounds the recursion depth.
    """
    # Each apex split strictly lowers the number of used vertices that are
    # not cone points: the deletion loses the apex and keeps the old cone
    # points, and the cone part makes the apex a cone point and keeps the old
    # ones.  A non-simplex has at least two such vertices, so no split lies
    # deeper than ambient - 2 and no leaf deeper than ambient - 1.
    cplx = complex_of_ring(p.ring)
    iso, node, obligations = _patch(task, p, q, cplx, cplx.ambient)
    profile = HypothesisProfile(p.ring.field.char, module_rank(p))
    cert = certs.wrap_root(node, profile.payload(), [o.payload() for o in obligations],
                           stab=stab)
    return PatchResult(iso, cert, tuple(obligations))


def _patch(task: _Task, p: ProjModule, q: ProjModule, cplx, budget: int):
    """(iso p -> q or None, node, obligations); cplx is the complex of p's ring."""
    if budget <= 0:
        raise InternalCheckError("decomposition recursion exceeded its depth budget")
    ring = p.ring
    # an extension's q is the augmentation of p, so only cancellation records it
    other = q.matrix if task.name == "cancel" else None
    if cplx.is_simplex() or (p.matrix.is_constant() and q.matrix.is_constant()):
        got = task.base(p, q)
        if got is None:
            ob = Obligation(task.obligation_kind, ring, p.matrix)
            node = certs.base_node(task.name, ring, p.matrix, other=other, obligation=ob.kind)
            return None, node, [ob]
        method, iso = got
        node = certs.base_node(task.name, ring, p.matrix, other=other, method=method,
                               target=q.matrix, iso=iso)
        return iso, node, []

    square = build_fiber_square(ring.field, cplx, ring.context.order)
    if square.a != ring:
        raise InternalCheckError("fiber square total ring mismatch")
    q2 = base_change(q, square.i2)
    iso1, node1, ob1 = _patch(task, base_change(p, square.i1), base_change(q, square.i1),
                              square.split.deletion_part, budget - 1)
    iso2, node2, ob2 = _patch(task, base_change(p, square.i2), q2,
                              square.split.cone_part(), budget - 1)
    obligations = ob1 + ob2
    if not obligations:
        try:
            iso, trace = glue_iso_traced(square, p, q, iso1, iso2,
                                         task.lifter_factory(square, q2))
        except LifterError:
            obligations = [Obligation(task.obligation_kind, ring, p.matrix)]
        else:
            node = certs.decompose_node(task.name, ring, p.matrix, square, [node1, node2],
                                        glue=trace, iso=iso, target=q.matrix, other=other)
            return iso, node, []
    node = certs.decompose_node(task.name, ring, p.matrix, square, [node1, node2],
                                other=other)
    return None, node, obligations


# -- extension and cancellation engines ----------------------------------------------

def extend_witness(p: ProjModule, oracle: Optional[ExtendOracle] = None) -> PatchResult:
    """Witness that p is extended from the base field, or obligations.

    Returns the final isomorphism from p to the base change of its
    augmentation together with a certificate tree; undischarged base cases
    are collected as obligations and leave the tree partial.
    """
    if not p.ring.is_square_free():
        raise PreconditionError("extension engine needs a square-free presentation")
    q = ProjModule(p.ring, p.augmented_matrix())
    kind = getattr(oracle, "obligation_kind", "extend")
    return _solve(_Task("extend", kind, _extend_base(oracle), section_aut_lifter), p, q)


def cancel_witness(p: ProjModule, q: ProjModule, stab: ModIso,
                   aut_lifter_factory=None) -> PatchResult:
    """Witness p isomorphic to q given a stabilized isomorphism, or obligations.

    ``stab`` must connect p + free(1) to q + free(1); it is checked once, here,
    and recorded.  ``aut_lifter_factory(square, q2)`` supplies the overlap
    automorphism lifter (defaults to the constant lift through the section,
    whose failures surface as obligations of kind "cancel").
    """
    if p.ring != q.ring:
        raise PreconditionError("modules over different rings")
    if not p.ring.is_square_free():
        raise PreconditionError("cancellation engine needs a square-free presentation")
    if module_rank(p) != module_rank(q):
        raise PreconditionError("modules of different ranks cannot be matched")
    one = PolyMatrix.identity(p.ring.context, 1)
    if (stab.ring != p.ring or stab.source.matrix != p.matrix.direct_sum(one)
            or stab.target.matrix != q.matrix.direct_sum(one)):
        raise PreconditionError("stabilized iso does not connect P+free and Q+free")
    stab = ModIso.make(stab.source, stab.target, stab.fwd, stab.bwd)
    task = _Task("cancel", "cancel", _cancel_base, aut_lifter_factory or section_aut_lifter)
    return _solve(task, p, q, stab)


# -- unimodular row lifting --------------------------------------------------------

def umrow_lift(row: UmRow, oracle: Optional[ExtendOracle] = None,
               target: Optional[QuotientRing] = None) -> UmLiftResult:
    """Lift a unimodular row along R/I -> R/J for square-free monomial J.

    Builds the kernel module, extends it from the base via the extension
    engine, realizes the comparison matrix from the witness pair and lifts it
    through the GL strategy stack.  The comparison pair and the lifted row are
    lawful by algebra (``GLMat._known_pair``); the verifier re-checks both.
    """
    ring = row.ring
    if not ring.is_square_free():
        raise PreconditionError("row lifting needs a square-free quotient")
    if target is None:
        target = QuotientRing.make(ring.field, ring.nvars, (), ring.context.order)
    for g in target.generators:
        if ring.survives(g):
            raise PreconditionError("target ideal is not contained in the row's ideal")

    kernel = kernel_module(row)
    ext = extend_witness(kernel, oracle)
    profile = HypothesisProfile(ring.field.char, row.width)
    if not ext.ok:
        cert = certs.umrow_node(ring, target, row, ext.certificate,
                                profile.payload(), partial=True)
        return UmLiftResult(None, cert, obligations=ext.obligations)

    iso = ext.iso
    v0 = row.v.augmentation()
    w0 = row.w.augmentation()
    sigma = GLMat._known_pair(
        ring, ring.nf_matrix(iso.bwd) + ring.mat_mul(row.w.transpose(), v0),
        ring.nf_matrix(iso.fwd) + ring.mat_mul(w0.transpose(), row.v))

    pi = RingHom.quotient_map(target, ring)
    try:
        delta = lift_gl(sigma, pi)
    except AllStrategiesFailed as exc:
        cert = certs.umrow_node(ring, target, row, ext.certificate,
                                profile.payload(), sigma=sigma, partial=True)
        return UmLiftResult(None, cert, diagnostics=dict(exc.diagnostics))

    lifted = UmRow(target, target.mat_mul(v0, delta.inv),
                   target.mat_mul(w0, delta.mat.transpose()))
    cert = certs.umrow_node(ring, target, row, ext.certificate, profile.payload(),
                            sigma=sigma, delta=delta, lifted=lifted)
    return UmLiftResult(lifted, cert)
