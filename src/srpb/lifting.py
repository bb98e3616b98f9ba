"""Matrix units and GL lifting along monomial quotients.

``lift_gl`` finds a preimage in GL_r(R) of an invertible matrix over R/J.
The stack of strategies, tried in order:

  entrywise   lift each entry by reinterpreting its normal form in R and
              accept when the determinant is a unit of R;
  elementary  Gaussian-eliminate over R/J with unit pivots (full pivoting),
              factor into permutations, elementaries and a diagonal of
              units, then lift each factor (elementary lifts are always
              invertible, diagonal units lift entrywise when they stay
              units upstairs);
  section     when the quotient map has a registered splitting and the
              entries lie in its image, push the whole matrix through it;
  descent     for square-free J, recurse through the fiber square of the
              quotient's complex: lift the deletion image first, then
              absorb the remaining cone-side factor, which is congruent to
              the identity modulo the apex variable.

Unit inverses use the closed form ``quotient.unit_inverse``, not Buchberger.
The stack is not known to be complete; exhaustion raises
AllStrategiesFailed with one diagnostic per attempted strategy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (AllStrategiesFailed, ContextError, InputError,
                     InternalCheckError, NonUnitError, PreconditionError)
from .matrix import PolyMatrix
from .quotient import (GLMat, QuotientRing, RingHom, build_fiber_square,
                       complex_of_ring, unit_inverse)

DEFAULT_STRATEGIES = ("entrywise", "elementary", "section", "descent")


def det_unit_inverse(m: PolyMatrix, ring: QuotientRing) -> PolyMatrix:
    """Exact inverse of m over the quotient; raises NonUnitError otherwise.

    The inverse is det^-1 (closed form, ``quotient.unit_inverse``) times the
    adjugate; adj(m) * m == det * I makes it one by algebra, and ``GLMat``
    checks both products wherever the pair becomes a GL element.
    """
    if not m.is_square:
        raise PreconditionError("inverse of a non-square matrix")
    m = ring.nf_matrix(m)
    d = ring.normal_form(m.det())
    q = unit_inverse(d, ring)
    if q is None:
        raise NonUnitError(f"determinant {d} is not a unit", element=d)
    return ring.nf_matrix(m.adjugate().scale(q))


def whitehead_lift(sigma: GLMat, j2: RingHom, section: RingHom) -> GLMat:
    """Lift sigma + sigma^-1 (block diagonal) through a split surjection.

    Uses the four-factor identity
      sigma (+) sigma^-1 =
        [[I, s],[0, I]] [[I, 0],[-s^-1, I]] [[I, s],[0, I]] [[0, -I],[I, 0]]
    whose unitriangular and rotation factors stay invertible under any
    entrywise lift; each factor is pushed through the section, so
    j2(U) == sigma (+) sigma^-1 exactly.
    """
    if sigma.ring != j2.target:
        raise ContextError("sigma must live over the target of the split surjection")
    if section.source != j2.target or section.target != j2.source:
        raise ContextError("section does not split the surjection")
    up = j2.source
    r = sigma.size
    ctx = up.context
    eye = PolyMatrix.identity(ctx, r)
    zero = PolyMatrix.zeros(ctx, r, r)
    s_mat = section.apply_matrix(sigma.mat)
    s_inv = section.apply_matrix(sigma.inv)

    m1 = GLMat._known_pair(up, PolyMatrix.block2(eye, s_mat, zero, eye),
                           PolyMatrix.block2(eye, -s_mat, zero, eye))
    m2 = GLMat._known_pair(up, PolyMatrix.block2(eye, zero, -s_inv, eye),
                           PolyMatrix.block2(eye, zero, s_inv, eye))
    m4 = GLMat._known_pair(up, PolyMatrix.block2(zero, -eye, eye, zero),
                           PolyMatrix.block2(zero, eye, -eye, zero))
    u = m1 * m2 * m1 * m4
    target = sigma.mat.direct_sum(sigma.inv)
    if j2.apply_matrix(u.mat) != sigma.ring.nf_matrix(target):
        raise InternalCheckError("whitehead lift does not reduce to sigma (+) sigma^-1")
    return u


# -- strategy implementations -------------------------------------------------

class _StrategyFailure(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


def _require_compatible(sigma: GLMat, pi: RingHom) -> None:
    if pi.target != sigma.ring:
        raise ContextError("pi must map onto sigma's ring")
    if not pi.is_identity_pattern():
        raise PreconditionError("lift_gl expects an identity-pattern quotient map")
    up_gens = set(pi.source.generators)
    down = pi.target
    for g in up_gens:
        if down.survives(g):
            raise PreconditionError("pi is not a quotient map: upstairs ideal escapes")


def _gl_upstairs(m: PolyMatrix, up: QuotientRing, what: str) -> GLMat:
    """m's entries read over up as a GL element, or a failure naming the determinant."""
    lifted = up.nf_matrix(PolyMatrix(up.context, m.rows, m.cols, m.entries))
    try:
        return GLMat(up, lifted, det_unit_inverse(lifted, up))
    except NonUnitError as exc:
        raise _StrategyFailure(f"{what} determinant {exc.element} is not a unit upstairs")


def _lift_entrywise(sigma: GLMat, pi: RingHom, _section) -> GLMat:
    return _gl_upstairs(sigma.mat, pi.source, "entrywise lift")


def _lift_elementary(sigma: GLMat, pi: RingHom, _section) -> GLMat:
    up = pi.source
    down = sigma.ring
    ctx = down.context
    n = sigma.size
    work = sigma.mat.to_lists()
    left: list = []    # GLMats over `down`, applied on the left, in order
    right: list = []   # applied on the right, in order
    left_up: list = [] # their lifts over `up`
    right_up: list = []

    def lift_entry(f):
        return up.normal_form(PolyMatrix(up.context, 1, 1, (f,)).entries[0])

    for k in range(n):
        pivot = None
        for i in range(k, n):
            for j in range(k, n):
                invp = unit_inverse(work[i][j], down)
                if invp is not None:
                    pivot = (i, j, invp)
                    break
            if pivot:
                break
        if pivot is None:
            raise _StrategyFailure(f"no unit pivot available at elimination step {k}")
        # the swaps below move the pivot to (k, k) unchanged, so pinv stays its inverse
        pi_, pj, pinv = pivot
        if pi_ != k:
            perm = list(range(n))
            perm[k], perm[pi_] = perm[pi_], perm[k]
            pmat = GLMat.permutation(down, perm)
            work = down.nf_matrix(pmat.mat * PolyMatrix.from_rows(ctx, work)).to_lists()
            left.append(pmat)
            left_up.append(GLMat.permutation(up, perm))
        if pj != k:
            perm = list(range(n))
            perm[k], perm[pj] = perm[pj], perm[k]
            pmat = GLMat.permutation(down, perm)
            work = down.nf_matrix(PolyMatrix.from_rows(ctx, work) * pmat.mat).to_lists()
            right.append(pmat)
            right_up.append(GLMat.permutation(up, perm))
        for i in range(n):
            if i != k and not work[i][k].is_zero():
                f = down.normal_form(-(work[i][k] * pinv))
                e = GLMat.elementary(down, n, i, k, f)
                work = down.nf_matrix(e.mat * PolyMatrix.from_rows(ctx, work)).to_lists()
                left.append(e)
                left_up.append(GLMat.elementary(up, n, i, k, lift_entry(f)))
        for j in range(n):
            if j != k and not work[k][j].is_zero():
                f = down.normal_form(-(work[k][j] * pinv))
                e = GLMat.elementary(down, n, k, j, f)
                work = down.nf_matrix(PolyMatrix.from_rows(ctx, work) * e.mat).to_lists()
                right.append(e)
                right_up.append(GLMat.elementary(up, n, k, j, lift_entry(f)))

    diag_pairs = []
    for k in range(n):
        d = work[k][k]
        dlift = lift_entry(d)
        dinv = unit_inverse(dlift, up)
        if dinv is None:
            raise _StrategyFailure(f"diagonal unit {d} does not lift to a unit upstairs")
        diag_pairs.append((dlift, dinv))
    d_up = GLMat.diagonal(up, diag_pairs)

    # L * sigma * R == D with L, R the accumulated ops, so sigma lifts to
    # L_up^-1 * D_up * R_up^-1
    lhs = GLMat.identity(up, n)
    for g in left_up:
        lhs = g * lhs
    rhs = GLMat.identity(up, n)
    for g in right_up:
        rhs = rhs * g
    return lhs.inverse() * d_up * rhs.inverse()


def _lift_section(sigma: GLMat, pi: RingHom, section: Optional[RingHom]) -> GLMat:
    if section is None:
        raise _StrategyFailure("no section registered for the quotient map")
    if section.source != sigma.ring or section.target != pi.source:
        raise _StrategyFailure("registered section does not split pi")
    cand = sigma.apply_hom(section)
    for e, img in zip(sigma.mat.entries, pi.apply_matrix(cand.mat).entries):
        if e != img:
            raise _StrategyFailure(f"entry {e} is outside the section image")
    return cand


def _lift_descent(sigma: GLMat, pi: RingHom, section: Optional[RingHom],
                  strategies: Sequence[str]) -> GLMat:
    down = sigma.ring
    up = pi.source
    if not down.is_square_free():
        raise _StrategyFailure("quotient ideal is not square-free")
    cplx = complex_of_ring(down)
    if cplx.is_simplex():
        raise _StrategyFailure("simplex quotient: nothing to descend through")
    square = build_fiber_square(down.field, cplx, down.context.order)
    apex = square.apex

    sigma1 = sigma.apply_hom(square.i1)
    pi1 = RingHom.quotient_map(up, square.a1)
    delta1 = lift_gl(sigma1, pi1, strategies=strategies, section=None)

    lam = delta1.apply_hom(pi)
    gamma = lam.inverse() * sigma
    eye_down = PolyMatrix.identity(down.context, sigma.size)
    if square.i1.apply_matrix(gamma.mat) != square.a1.nf_matrix(eye_down):
        raise InternalCheckError("descent residue is not trivial over the deletion ring")
    gamma2 = gamma.apply_hom(square.i2)
    residue = gamma2.mat - PolyMatrix.identity(down.context, sigma.size)
    for p in residue.entries:
        if any(exps[apex] == 0 for exps, _ in p.terms):
            raise InternalCheckError("descent residue has apex-free terms")
    return delta1 * _gl_upstairs(gamma2.mat, up, "cone-side factor")


_STRATEGY_TABLE = {
    "entrywise": _lift_entrywise,
    "elementary": _lift_elementary,
    "section": _lift_section,
}


def lift_gl(sigma: GLMat, pi: RingHom,
            strategies: Sequence[str] = DEFAULT_STRATEGIES,
            section: Optional[RingHom] = None) -> GLMat:
    """Preimage of sigma in GL_r(pi.source) with a verified inverse.

    Raises AllStrategiesFailed with per-strategy diagnostics when the stack
    is exhausted; a returned lift always satisfies pi(lift) == sigma and
    lift * lift^-1 == I exactly.
    """
    _require_compatible(sigma, pi)
    diagnostics = {}
    for name in strategies:
        try:
            if name == "descent":
                delta = _lift_descent(sigma, pi, section, strategies)
            else:
                fn = _STRATEGY_TABLE.get(name)
                if fn is None:
                    raise InputError(f"unknown lift strategy {name!r}")
                delta = fn(sigma, pi, section)
        except _StrategyFailure as sf:
            diagnostics[name] = sf.detail
            continue
        if pi.apply_matrix(delta.mat) != sigma.mat:
            raise InternalCheckError(f"strategy {name} returned a non-lift")
        return delta
    raise AllStrategiesFailed("no strategy lifted the matrix", diagnostics)
