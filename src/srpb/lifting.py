"""Matrix units and GL lifting along monomial quotients.

``lift_gl`` finds a preimage in GL_r(R) of an invertible matrix over R/J.
The stack of strategies, tried in order:

  entrywise   lift each entry by reinterpreting its normal form in R and
              accept when the determinant is a unit of R;
  elementary  Gaussian-eliminate over R/J with unit pivots (full pivoting),
              in place on a ``matrix.RowColWorker`` whose transforms U, V
              and their inverses are tracked over R: each swap and
              elementary operation is normal over R/J, so over R, and
              lifts as itself; U sigma V == D, a diagonal of units, lifts
              to U^-1 D V^-1 when D's entries stay units upstairs;
  descent     for square-free J, recurse through the quotient's fiber
              square (``QuotientRing.square``, built once per ring
              object): lift the deletion image first, then absorb the
              remaining cone-side factor, which is congruent to the
              identity modulo the apex variable.

Unit inverses use the closed form ``quotient.unit_inverse``, not Buchberger.
A lift through the section of a split surjection is ``whitehead_lift``.
The stack is not known to be complete; exhaustion raises
AllStrategiesFailed with one diagnostic per attempted strategy.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (AllStrategiesFailed, ContextError, InputError,
                     InternalCheckError, NonUnitError, PreconditionError)
from .matrix import PolyMatrix, RowColWorker
from .quotient import GLMat, QuotientRing, RingHom, unit_inverse

DEFAULT_STRATEGIES = ("entrywise", "elementary", "descent")

# det and adjugate expand minors, 2^n work: a dense 9 x 9 lift with linear
# entries over Q[x0, x1]/(x0 x1) takes 0.7 s on a 2-CPU box, and 10 x 10 2.0 s.
MAX_LIFT_SIZE = 9


def det_unit_inverse(m: PolyMatrix, ring: QuotientRing) -> PolyMatrix:
    """Exact inverse of m over the quotient; raises NonUnitError otherwise.

    The inverse is det^-1 (closed form, ``quotient.unit_inverse``, which
    checks det * det^-1 == 1) times the adjugate; adj(m) * m == m * adj(m)
    == det * I makes it one by algebra, so the pair is a GL element by
    construction, and verifier rule ``gl-lift`` re-checks recorded lifts.
    Normal form over a monomial ideal is a ring map, so m need not be normal.
    """
    if not m.is_square:
        raise PreconditionError("inverse of a non-square matrix")
    d = ring.normal_form(m.det())
    q = unit_inverse(d, ring)
    if q is None:
        raise NonUnitError(f"determinant {d} is not a unit", element=d)
    return ring.nf_matrix(m.adjugate().scale(q))


def whitehead_lift(sigma: GLMat, j2: RingHom, section: RingHom) -> GLMat:
    """Lift sigma (+) sigma^-1 (block diagonal) through a split surjection.

    Whitehead's four factors
        [[I, s],[0, I]] [[I, 0],[-s^-1, I]] [[I, s],[0, I]] [[0, -I],[I, 0]]
    pushed through the section multiply out to U = S (+) T, where (S, T)
    is the section image of (sigma, sigma^-1).  The section is a ring map,
    so S T == T S == I, and j2 o section == id gives j2(U) ==
    sigma (+) sigma^-1 (both re-checked by verifier rule ``whitehead``).
    """
    if sigma.ring != j2.target:
        raise ContextError("sigma must live over the target of the split surjection")
    if section.source != j2.target or section.target != j2.source:
        raise ContextError("section does not split the surjection")
    s = sigma.apply_hom(section)
    return GLMat._known_pair(j2.source, s.mat.direct_sum(s.inv), s.inv.direct_sum(s.mat))


# -- strategy implementations -------------------------------------------------

class _StrategyFailure(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


def _require_compatible(sigma: GLMat, pi: RingHom) -> None:
    if pi.target != sigma.ring:
        raise ContextError("pi must map onto sigma's ring")
    if pi.kill != pi.target.zero_mask:
        raise PreconditionError("lift_gl expects a quotient map, x_v -> x_v")
    up_gens = set(pi.source.generators)
    down = pi.target
    for g in up_gens:
        if down.survives(g):
            raise PreconditionError("pi is not a quotient map: upstairs ideal escapes")


def _gl_upstairs(m: PolyMatrix, up: QuotientRing, what: str) -> GLMat:
    """m, normal over a quotient of up and so over up, as a GL element over up,
    or a failure naming the determinant."""
    try:
        return GLMat._known_pair(up, m, det_unit_inverse(m, up))
    except NonUnitError as exc:
        raise _StrategyFailure(f"{what} determinant {exc.element} is not a unit upstairs")


def _lift_entries(sigma: GLMat, pi: RingHom, _strategies: Sequence[str]) -> GLMat:
    return _gl_upstairs(sigma.mat, pi.source, "entrywise lift")


def _lift_elementary(sigma: GLMat, pi: RingHom, _strategies: Sequence[str] = ()) -> GLMat:
    up, down, n = pi.source, sigma.ring, sigma.size
    w = RowColWorker(sigma.mat, down.mul, up.mul)
    for k in range(n):
        pivot = next(((i, j, inv) for i in range(k, n) for j in range(k, n)
                      if (inv := unit_inverse(w.m[i][j], down)) is not None), None)
        if pivot is None:
            raise _StrategyFailure(f"no unit pivot available at elimination step {k}")
        # the swaps move the pivot to (k, k) unchanged, so pinv stays its inverse
        pi_, pj, pinv = pivot
        w.swap_rows(k, pi_)
        w.swap_cols(k, pj)
        for i in range(n):
            if i != k and not w.m[i][k].is_zero():
                w.add_row(i, k, -down.mul(w.m[i][k], pinv))
        for j in range(n):
            if j != k and not w.m[k][j].is_zero():
                w.add_col(j, k, -down.mul(w.m[k][j], pinv))

    units = [w.m[k][k] for k in range(n)]
    inverses = []
    for d in units:
        dinv = unit_inverse(d, up)
        if dinv is None:
            raise _StrategyFailure(f"diagonal unit {d} does not lift to a unit upstairs")
        inverses.append(dinv)
    # U * sigma * V == D over down, so sigma lifts to U^-1 D V^-1, with
    # inverse V D^-1 U (unit_inverse has checked each d * d^-1 == 1)
    u, u_inv, v, v_inv = w.transforms()
    ctx = up.context
    return GLMat._known_pair(
        up, up.mat_mul(up.mat_mul(u_inv, PolyMatrix.diagonal(ctx, units)), v_inv),
        up.mat_mul(v, up.mat_mul(PolyMatrix.diagonal(ctx, inverses), u)))


def _lift_descent(sigma: GLMat, pi: RingHom, strategies: Sequence[str]) -> GLMat:
    """Lift the deletion image, then read the cone-side residue upstairs.

    pi1(delta1) == i1(sigma) gives gamma = pi(delta1)^-1 sigma with i1(gamma)
    == I, so j2(i2(gamma)) == j1(i1(gamma)) == I: i2(gamma) - I has only apex
    terms, which survive in sigma's ring, so i2(gamma) read upstairs lifts gamma.
    """
    down = sigma.ring
    up = pi.source
    if not down.is_square_free():
        raise _StrategyFailure("quotient ideal is not square-free")
    if down.sr_complex.is_simplex():
        raise _StrategyFailure("simplex quotient: nothing to descend through")
    square = down.square

    sigma1 = sigma.apply_hom(square.i1)
    pi1 = RingHom.quotient_map(up, square.a1)
    delta1 = _lift(sigma1, pi1, strategies)

    gamma = delta1.apply_hom(pi).inverse() * sigma
    gamma2 = gamma.apply_hom(square.i2)
    return delta1 * _gl_upstairs(gamma2.mat, up, "cone-side factor")


_STRATEGY_TABLE = {
    "entrywise": _lift_entries,
    "elementary": _lift_elementary,
    "descent": _lift_descent,
}


def lift_gl(sigma: GLMat, pi: RingHom,
            strategies: Sequence[str] = DEFAULT_STRATEGIES) -> GLMat:
    """Preimage of sigma in GL_r(pi.source) with a verified inverse.

    Raises AllStrategiesFailed with per-strategy diagnostics when the stack
    is exhausted; a returned lift always satisfies pi(lift) == sigma and
    lift * lift^-1 == I exactly.  A sigma larger than MAX_LIFT_SIZE is an
    InputError.
    """
    if sigma.size > MAX_LIFT_SIZE:
        raise InputError(f"lifting a {sigma.size} x {sigma.size} matrix: "
                         f"the limit is MAX_LIFT_SIZE = {MAX_LIFT_SIZE}")
    _require_compatible(sigma, pi)
    return _lift(sigma, pi, strategies)


def _lift(sigma: GLMat, pi: RingHom, strategies: Sequence[str]) -> GLMat:
    """The strategy loop of ``lift_gl``."""
    diagnostics = {}
    for name in strategies:
        try:
            fn = _STRATEGY_TABLE.get(name)
            if fn is None:
                raise InputError(f"unknown lift strategy {name!r}")
            delta = fn(sigma, pi, strategies)
        except _StrategyFailure as sf:
            diagnostics[name] = sf.detail
            continue
        if pi.apply_matrix(delta.mat) != sigma.mat:
            raise InternalCheckError(f"strategy {name} returned a non-lift")
        return delta
    raise AllStrategiesFailed("no strategy lifted the matrix", diagnostics)
