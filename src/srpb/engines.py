"""Certificate-emitting engines: extension witnesses, cancellation
witnesses, and unimodular-row lifting.

Extension and cancellation are one patching recursion over a pair of modules
(p, q): split the ring's complex at an apex, base-change both modules to the
deletion side and the cone side, solve both (recursively, down to simplex
base cases), fix the overlap mismatch with a lifter through the section, and
glue.  Extension is the case where q is the augmentation of p; cancellation
takes q from the caller.  Each node reads its ring's cached complex and
square (``QuotientRing.sr_complex``, ``.square``), built once per ring object;
a square's corners hold their deletion and cone parts as their complexes.
Extension base cases are discharged by a built-in oracle chain (constant
presentations, then univariate freeness via Smith normal form) followed by
an optional caller oracle; anything else surfaces as an Obligation rather
than a guess.  The built-in base isos come from splittings E == B R with
R B == I_r (``_split_iso``), so they are lawful by algebra once the entry
point has checked its modules idempotent.  Row lifting extends the row's
kernel module and lifts the comparison matrix that the witness yields.

Every step deposits its matrices into a certificate payload that the
independent verifier re-checks with plain normal-form arithmetic; the
engines never appear on the verification path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import certs
from .errors import AllStrategiesFailed, LifterError, PreconditionError
from .lifting import lift_gl
from .matrix import PolyMatrix, constant_splitting
from .projmod import (ModIso, ProjModule, UmRow, base_change, checked_lifter,
                      glue_iso_traced, kernel_module, module_rank, section_aut_lifter)
from .quotient import FiberSquare, GLMat, QuotientRing, RingHom
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
    """Advisory record of the side conditions; the base ring is the field k, of dimension 0."""

    characteristic: int
    rank: int

    def payload(self) -> dict:
        p, r = self.characteristic, self.rank
        return {
            "characteristic": p,
            "rank": r,
            "base_dimension": 0,
            "char_prime_to_rank_factorial": bool(p) and math.gcd(p, math.factorial(r)) == 1,
            "rank_at_least_half_dim_plus_two": r >= 2,
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
            h = GLMat.make(ring, g.mat, g.inv)
        except PreconditionError:
            return None
        if h.size != p.size:
            return None
        c = ring.mat_mul(ring.mat_mul(h.inv, p.matrix), h.mat)
        if not c.is_constant():
            return None
        # the image of the checked pair h under x -> 0, a ring hom
        h0 = GLMat(ring, h.mat.augmentation(), h.inv.augmentation())
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
    """Compose an oracle witness with the inverse of its augmentation (a
    ring-hom image of a checked iso, so lawful) so that fwd(0) is the target."""
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
        if len(p.ring.free_variables) <= 1:
            return "smith", _smith_freeness_iso(p)
        iso = oracle(p) if oracle is not None else None
        if iso is None:
            return None
        if iso.source.matrix != p.matrix or iso.target.matrix != q.matrix:
            raise PreconditionError("oracle witness does not run from the module "
                                    "to its augmentation")
        return "oracle", _point_normalize(ModIso.make(p, q, iso.fwd, iso.bwd))

    return base


def _split_iso(p: ProjModule, q: ProjModule, split_p: tuple, split_q: tuple) -> ModIso:
    """The iso (B_q R_p, B_p R_q) from splittings E_p == B_p R_p and
    E_q == B_q R_q with R B == I_r on both sides, lawful by algebra."""
    ring = p.ring
    (bp, rp), (bq, rq) = split_p, split_q
    return ModIso(p, q, ring.mat_mul(bq, rp), ring.mat_mul(bp, rq))


def _smith_freeness_iso(p: ProjModule) -> ModIso:
    """Iso of P with P(0) over a univariate base, from one Smith form
    U (I - E) V == D.  The columns B of V with d_jj == 0 are a basis of
    ker(I - E) == im E, as k[t] is a domain, and R, the matching rows of
    V^-1 times E, gives R B == I_s and B R == E; so does (B(0), R(0)) for
    E(0), and fwd(0) == E(0) needs no point normalization."""
    ring, ctx, e, n = p.ring, p.ring.context, p.matrix, p.size
    dec = smith_normal_form(PolyMatrix.identity(ctx, n) - e)
    kernel = [j for j in range(n) if dec.d[j, j].is_zero()]
    b = PolyMatrix(ctx, n, len(kernel), [dec.v[i, j] for i in range(n) for j in kernel])
    r = ring.mat_mul(PolyMatrix(ctx, len(kernel), n,
                                [x for j in kernel for x in dec.v_inv.row(j)]), e)
    q = ProjModule(ring, p.augmented_matrix())
    return _split_iso(p, q, (b, r), (b.augmentation(), r.augmentation()))


def _cancel_base(p: ProjModule, q: ProjModule):
    """Base hook of the cancellation: constant pairs, then univariate freeness."""
    if p.matrix.is_constant() and q.matrix.is_constant():
        return "constant", _constant_pair_iso(p, q)
    if len(p.ring.free_variables) <= 1:
        ip = _smith_freeness_iso(p)
        iq = _smith_freeness_iso(q)
        mid = _constant_pair_iso(ip.target, iq.target)
        return "smith", iq.inverse().compose(mid).compose(ip)
    return None


def _constant_pair_iso(p: ProjModule, q: ProjModule) -> ModIso:
    """Iso between equal-rank constant idempotents, split by row reduction."""
    return _split_iso(p, q, constant_splitting(p.matrix), constant_splitting(q.matrix))


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

    The root ring recovers (and round-trip checks) its complex once per ring
    object; each split hands a square corner down, which holds the part of
    the complex it presents, and a second solve over a live ring reuses its
    split tree of squares.
    """
    # Each apex split strictly lowers the number of used vertices that are not
    # cone points, so the recursion is no deeper than the ambient vertex count.
    iso, node, obligations = _patch(task, p, q)
    profile = HypothesisProfile(p.ring.field.char, module_rank(p))
    cert = certs.wrap_root(node, profile.payload(), [o.payload() for o in obligations],
                           stab=stab)
    return PatchResult(iso, cert, tuple(obligations))


def _patch(task: _Task, p: ProjModule, q: ProjModule):
    """(iso p -> q or None, node, obligations)."""
    ring = p.ring
    # an extension's q is the augmentation of p, so only cancellation records it
    other = q.matrix if task.name == "cancel" else None
    if ring.sr_complex.is_simplex() or (p.matrix.is_constant() and q.matrix.is_constant()):
        got = task.base(p, q)
        if got is None:
            ob = Obligation(task.obligation_kind, ring, p.matrix)
            node = certs.base_node(task.name, ring, p.matrix, other=other, obligation=ob.kind)
            return None, node, [ob]
        method, iso = got
        node = certs.base_node(task.name, ring, p.matrix, other=other, method=method,
                               target=q.matrix, iso=iso)
        return iso, node, []

    square = ring.square
    q2 = base_change(q, square.i2)
    iso1, node1, ob1 = _patch(task, base_change(p, square.i1), base_change(q, square.i1))
    iso2, node2, ob2 = _patch(task, base_change(p, square.i2), q2)
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
    are collected as obligations and leave the tree partial.  p is checked
    once, here, by ``ProjModule.make``.
    """
    if not p.ring.is_square_free():
        raise PreconditionError("extension engine needs a square-free presentation")
    return _extend(ProjModule.make(p.ring, p.matrix), oracle)


def _extend(p: ProjModule, oracle: Optional[ExtendOracle] = None) -> PatchResult:
    """``extend_witness`` of an idempotent over a square-free ring, unchecked."""
    q = ProjModule(p.ring, p.augmented_matrix())
    kind = getattr(oracle, "obligation_kind", "extend")
    return _solve(_Task("extend", kind, _extend_base(oracle), section_aut_lifter), p, q)


def extension_aut_lifter(square: FiberSquare, q2: ProjModule) -> Callable[[ModIso], ModIso]:
    """Lift of overlap automorphisms through the section, conjugated by Q_2's
    extension witness where Q_2 is not the section image of its reduction.

    With psi: Q_2 -> Q_2(0) from the extension engine, phi = section(j2(psi))^-1
    o psi runs Q_2 -> section(Q_0) with j2(phi) == id, so phi^-1 o
    section(alpha0) o phi is an automorphism of Q_2 over alpha0, lawful by
    algebra.  Q_2, a checked module's base change, is not checked again.  When Q_2 has
    no extension witness the ``LifterError`` stands, and the node stays an
    obligation.
    """
    through_section = section_aut_lifter(square, q2)

    def lifter(alpha0: ModIso) -> ModIso:
        try:
            return through_section(alpha0)
        except LifterError:
            ext = _extend(q2)
            if not ext.ok:
                raise
        psi = ext.iso
        phi = psi.apply_hom(square.j2).apply_hom(square.section).inverse().compose(psi)
        return phi.inverse().compose(alpha0.apply_hom(square.section)).compose(phi)

    return lifter


def cancel_witness(p: ProjModule, q: ProjModule, stab: ModIso,
                   aut_lifter_factory=None) -> PatchResult:
    """Witness p isomorphic to q given a stabilized isomorphism, or obligations.

    p and q are checked once, here, by ``ProjModule.make``.  ``stab`` must
    connect p + free(1) to q + free(1); it is checked once, here, and
    recorded.  ``aut_lifter_factory(square, q2)`` supplies the overlap
    automorphism lifter, each output of which is checked once by
    ``checked_lifter``; the default, ``extension_aut_lifter``, is lawful by
    construction: it lifts through the section and falls back to Q_2's
    extension witness.  A node whose lifter fails surfaces as an obligation
    of kind "cancel".
    """
    if p.ring != q.ring:
        raise PreconditionError("modules over different rings")
    if not p.ring.is_square_free():
        raise PreconditionError("cancellation engine needs a square-free presentation")
    p, q = ProjModule.make(p.ring, p.matrix), ProjModule.make(q.ring, q.matrix)
    if module_rank(p) != module_rank(q):
        raise PreconditionError("modules of different ranks cannot be matched")
    one = PolyMatrix.identity(p.ring.context, 1)
    if (stab.ring != p.ring or stab.source.matrix != p.matrix.direct_sum(one)
            or stab.target.matrix != q.matrix.direct_sum(one)):
        raise PreconditionError("stabilized iso does not connect P+free and Q+free")
    stab = ModIso.make(stab.source, stab.target, stab.fwd, stab.bwd)
    checked = aut_lifter_factory and (
        lambda sq, q2: checked_lifter(aut_lifter_factory(sq, q2), sq, q2))
    task = _Task("cancel", "cancel", _cancel_base, checked or extension_aut_lifter)
    return _solve(task, p, q, stab)


# -- unimodular row lifting --------------------------------------------------------

def umrow_lift(row: UmRow, oracle: Optional[ExtendOracle] = None,
               target: Optional[QuotientRing] = None) -> UmLiftResult:
    """Lift a unimodular row along R/I -> R/J for square-free monomial J.

    The row is checked once, here, by ``UmRow.make``.  Builds the kernel
    module, extends it from the base via the extension engine, realizes the
    comparison matrix from the witness pair and lifts it through the GL
    strategy stack.  The comparison pair and the lifted row are
    lawful by algebra (built by ``GLMat(...)``, unchecked); the verifier
    re-checks both.
    """
    ring = row.ring
    if not ring.is_square_free():
        raise PreconditionError("row lifting needs a square-free quotient")
    if target is None:
        target = QuotientRing(ring.context, ())
    for g in target.generators:
        if ring.survives(g):
            raise PreconditionError("target ideal is not contained in the row's ideal")

    row = UmRow.make(ring, row.v, row.w)
    ext = _extend(kernel_module(row), oracle)
    profile = HypothesisProfile(ring.field.char, row.width)
    if not ext.ok:
        cert = certs.umrow_node(ring, target, row, ext.certificate,
                                profile.payload(), partial=True)
        return UmLiftResult(None, cert, obligations=ext.obligations)

    iso = ext.iso
    v0 = row.v.augmentation()
    w0 = row.w.augmentation()
    sigma = GLMat(ring, iso.bwd + ring.mat_mul(row.w.transpose(), v0),
                  iso.fwd + ring.mat_mul(w0.transpose(), row.v))

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
