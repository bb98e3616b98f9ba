import pytest

from srpb import (GF, QQ, GLMat, ModIso, PolyMatrix, ProjModule, QuotientRing,
                  RingHom, UmRow, base_change, build_fiber_square, kernel_module,
                  milnor_patch, module_rank, pair_aut, section_aut_lifter,
                  unimodular_cert)
from srpb.projmod import glue_iso_traced
from srpb.errors import LifterError, PreconditionError
from helpers import (conjugated_idempotent, corpus_squares, make_rng,
                     random_gl_with_units, two_points)


def xy_ring(field=QQ):
    return QuotientRing.make(field, 2, ((1, 1),))


def test_projmodule_validates_idempotency():
    r = xy_ring()
    ctx = r.context
    with pytest.raises(PreconditionError):
        ProjModule.make(r, PolyMatrix.from_scalars(ctx, [[1, 1], [0, 1]]))
    p = ProjModule.make(r, PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]]))
    assert p.rank() == 1


def test_rank_examples():
    r = xy_ring()
    assert ProjModule.free(r, 3).rank() == 3
    rng = make_rng("rank")
    for _ in range(10):
        e, _ = conjugated_idempotent(r, rng, size=3, rank=1)
        assert module_rank(ProjModule.make(r, e)) == 1


def test_rank_mod_p_uses_gaussian_rank():
    # over F_5 a rank-5 free module has augmentation trace 0; the rank must
    # still come out as 5
    r = QuotientRing.make(GF(5), 1, ())
    p = ProjModule.free(r, 5)
    assert module_rank(p) == 5


def test_base_change_constant_and_section_roundtrip():
    sq = build_fiber_square(QQ, two_points())
    rng = make_rng("bc")
    e, _ = conjugated_idempotent(sq.a, rng, size=2, rank=1)
    p = ProjModule.make(sq.a, e)
    n = sq.a.nvars
    aug = RingHom.quotient_map(sq.a, QuotientRing.make(
        QQ, n, [tuple(int(i == j) for j in range(n)) for i in range(n)]))
    p0 = base_change(p, aug)
    assert p0.matrix.is_constant()
    # constant presentations are unchanged by any hom
    free = ProjModule.free(sq.a, 1, size=2)
    assert base_change(free, sq.i1).matrix == sq.a1.nf_matrix(free.matrix)
    assert base_change(free, sq.i1).matrix == free.matrix.map_entries(
        sq.a1.normal_form)
    # section then j2 is the identity on the overlap ring
    q0 = ProjModule.make(sq.a0, sq.j1.apply_matrix(base_change(p, sq.i1).matrix))
    back = base_change(base_change(q0, sq.section), sq.j2)
    assert back.matrix == q0.matrix


def test_kernel_module_examples():
    r = xy_ring()
    ctx = r.context
    x = ctx.variable(0)
    v = PolyMatrix(ctx, 1, 2, (ctx.one() + x, r.normal_form(x)))
    w = PolyMatrix(ctx, 1, 2, (ctx.one(), -ctx.one()))
    row = UmRow.make(r, v, w)
    p = kernel_module(row)
    e = r.mat_mul(w.transpose(), v)
    assert p.matrix == r.nf_matrix(PolyMatrix.identity(ctx, 2) - e)
    assert p.rank() == 1
    assert r.mat_mul(v, p.matrix).is_zero()

    e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
    row2 = UmRow.make(r, e1, e1)
    assert kernel_module(row2).matrix == PolyMatrix.from_scalars(
        ctx, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_kernel_module_random_kills_row():
    r = xy_ring()
    rng = make_rng("kernel")
    ctx = r.context
    for _ in range(10):
        g = random_gl_with_units(r, 3, rng)
        e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
        v = r.nf_matrix(e1 * g.mat)
        w = unimodular_cert(v, r)
        assert w is not None
        row = UmRow.make(r, v, w)
        p = kernel_module(row)
        assert r.mat_mul(row.v, p.matrix).is_zero()
        assert p.rank() == 2


def test_milnor_patch_identity_is_free():
    sq = build_fiber_square(QQ, two_points())
    p = milnor_patch(sq, 2, GLMat.identity(sq.a0, 2))
    corner = PolyMatrix.from_scalars(sq.a.context,
                                     [[1 if i == j and i < 2 else 0 for j in range(4)]
                                      for i in range(4)])
    assert p.matrix == corner


def test_milnor_patch_restrictions_random():
    rng = make_rng("patch")
    for name, sq in corpus_squares():
        for _ in range(4):
            r = rng.randint(1, 3)
            sigma = random_gl_with_units(sq.a0, r, rng)
            p = milnor_patch(sq, r, sigma)
            ctx = sq.a.context
            corner = PolyMatrix.identity(ctx, r).direct_sum(PolyMatrix.zeros(ctx, r, r))
            assert sq.i1.apply_matrix(p.matrix) == sq.a1.nf_matrix(corner)
            assert module_rank(p) == r


def test_glue_iso_free_case():
    sq = build_fiber_square(QQ, two_points())
    ring = sq.a
    p = milnor_patch(sq, 1, GLMat.identity(sq.a0, 1))
    q = ProjModule.make(ring, p.matrix)
    phi1 = ModIso.identity(base_change(p, sq.i1))
    phi2 = ModIso.identity(base_change(p, sq.i2))
    q2 = base_change(q, sq.i2)
    iso = glue_iso_traced(sq, p, q, phi1, phi2, section_aut_lifter(sq, q2))[0]
    assert iso.fwd == p.matrix


def test_glue_iso_whitehead_patch_is_free():
    # patch along a constant sigma, then exhibit the patched module as free
    from fractions import Fraction

    sq = build_fiber_square(QQ, two_points())
    ring = sq.a
    ctx = ring.context
    sigma = GLMat.diagonal(sq.a0, [(sq.a0.context.constant(3),
                                    sq.a0.context.constant(Fraction(1, 3)))])
    p = milnor_patch(sq, 1, sigma)
    q = ProjModule.make(ring, PolyMatrix.from_scalars(
        ctx, [[1 if i == j and i < 1 else 0 for j in range(2)] for i in range(2)]))
    p1, q1 = base_change(p, sq.i1), base_change(q, sq.i1)
    p2, q2 = base_change(p, sq.i2), base_change(q, sq.i2)
    assert p1.matrix == q1.matrix
    phi1 = ModIso.identity(p1)
    # over a2 the patched idempotent is U (I+0) U^-1; conjugate back by U^-1
    from srpb.lifting import whitehead_lift

    u = whitehead_lift(sigma, sq.j2, sq.section)
    # conjugation by U^-1 carries p2 to q2: (q2 U^-1 p2, p2 U q2)
    a2 = sq.a2
    phi2 = ModIso.make(p2, q2, a2.mat_mul(a2.mat_mul(q2.matrix, u.inv), p2.matrix),
                       a2.mat_mul(a2.mat_mul(p2.matrix, u.mat), q2.matrix))
    iso = glue_iso_traced(sq, p, q, phi1, phi2, section_aut_lifter(sq, q2))[0]
    assert iso.source.matrix == p.matrix and iso.target.matrix == q.matrix


def test_pair_aut_identity_and_constant():
    sq = build_fiber_square(QQ, two_points())
    p = ProjModule.free(sq.a, 2)
    p1 = base_change(p, sq.i1)
    q2 = base_change(p, sq.i2)
    lifter = section_aut_lifter(sq, q2)
    aut = pair_aut(sq, p, ModIso.identity(p1), lifter)
    assert aut.fwd == p.matrix

    ctx = sq.a.context
    const = PolyMatrix.from_scalars(ctx, [[1, 2], [0, 1]])
    const_inv = PolyMatrix.from_scalars(ctx, [[1, -2], [0, 1]])
    alpha1 = ModIso.make(p1, p1, sq.a1.nf_matrix(const), sq.a1.nf_matrix(const_inv))
    aut = pair_aut(sq, p, alpha1, lifter)
    assert aut.fwd == sq.a.nf_matrix(const)


def test_pair_aut_unitriangular_over_deletion_side():
    sq = build_fiber_square(QQ, two_points())
    p = ProjModule.free(sq.a, 2)
    p1 = base_change(p, sq.i1)
    ctx = sq.a.context
    f = sq.a1.normal_form(ctx.variable(1))
    fwd = sq.a1.nf_matrix(PolyMatrix.from_rows(ctx, [[ctx.one(), f], [ctx.zero(), ctx.one()]]))
    bwd = sq.a1.nf_matrix(PolyMatrix.from_rows(ctx, [[ctx.one(), -f], [ctx.zero(), ctx.one()]]))
    alpha1 = ModIso.make(p1, p1, fwd, bwd)
    aut = pair_aut(sq, p, alpha1, section_aut_lifter(sq, base_change(p, sq.i2)))
    assert sq.i1.apply_matrix(aut.fwd) == alpha1.fwd
    # restriction to the cone side is the constant lift of alpha1 at the overlap
    assert sq.i2.apply_matrix(aut.fwd) == sq.section.apply_matrix(sq.j1.apply_matrix(alpha1.fwd))


def test_section_lifter_rejects_non_section_modules():
    sq = build_fiber_square(QQ, two_points())
    ctx = sq.a.context
    # module over a2 whose idempotent uses the apex variable: not a section image
    x0 = ctx.variable(0)
    g = GLMat.elementary(sq.a2, 2, 0, 1, sq.a2.normal_form(x0))
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    e2 = sq.a2.mat_mul(sq.a2.mat_mul(g.mat, corner), g.inv)
    q2 = ProjModule.make(sq.a2, e2)
    lifter = section_aut_lifter(sq, q2)
    e0 = sq.j2.apply_matrix(e2)
    q0 = ProjModule.make(sq.a0, e0)
    with pytest.raises(LifterError):
        lifter(ModIso.identity(q0))
