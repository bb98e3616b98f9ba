import pytest

from srpb import (GF, QQ, GLMat, PolyMatrix, QuotientRing, RingHom,
                  build_fiber_square, det_unit_inverse, lift_gl,
                  whitehead_lift)
from srpb.errors import AllStrategiesFailed, ContextError, HomError, NonUnitError
from helpers import (hollow_triangle, make_rng, random_elementary_product,
                     random_gl_with_units, random_poly, two_points)


def xy_ring(field=QQ):
    return QuotientRing.make(field, 2, ((1, 1),))


def test_det_unit_inverse_unitriangular():
    r = xy_ring()
    ctx = r.context
    m = PolyMatrix.from_rows(ctx, [[ctx.one(), ctx.variable(0)], [ctx.zero(), ctx.one()]])
    inv = det_unit_inverse(m, r)
    assert inv == PolyMatrix.from_rows(ctx, [[ctx.one(), -ctx.variable(0)],
                                             [ctx.zero(), ctx.one()]])


def test_det_unit_inverse_nilpotent_unit():
    r = QuotientRing.make(QQ, 1, ((2,),))
    ctx = r.context
    x = ctx.variable(0)
    m = PolyMatrix(ctx, 1, 1, (ctx.one() + x,))
    assert det_unit_inverse(m, r) == PolyMatrix(ctx, 1, 1, (ctx.one() - x,))


def test_det_unit_inverse_non_unit():
    r = xy_ring()
    ctx = r.context
    m = PolyMatrix(ctx, 1, 1, (ctx.variable(0),))
    with pytest.raises(NonUnitError):
        det_unit_inverse(m, r)


@pytest.mark.parametrize("field", (QQ, GF(5)))
@pytest.mark.parametrize("gens", (((1, 1, 1),), ((2, 0, 0), (1, 2, 0), (0, 1, 1))))
def test_det_unit_inverse_of_raw_input_matches_its_normal_form(field, gens):
    # normal form over a monomial ideal is a ring map, so det and adjugate of
    # m and of nf(m) agree modulo the ideal
    r = QuotientRing.make(field, 3, gens)
    ctx = r.context
    rng = make_rng(f"det-raw-{field.char}-{len(gens)}")
    for _ in range(4):
        g = random_gl_with_units(r, 3, rng)
        noise = PolyMatrix.from_rows(ctx, [
            [ctx.monomial(rng.choice(gens)) * random_poly(ctx, rng, nonzero=True)
             for _ in range(3)] for _ in range(3)])
        m = g.mat + noise
        assert m != r.nf_matrix(m)
        assert det_unit_inverse(m, r) == det_unit_inverse(r.nf_matrix(m), r) == g.inv


def test_whitehead_identity_and_constant():
    from fractions import Fraction

    sq = build_fiber_square(QQ, two_points())
    a0 = sq.a0
    ctx = a0.context
    eye = GLMat.identity(a0, 2)
    u = whitehead_lift(eye, sq.j2, sq.section)
    assert sq.j2.apply_matrix(u.mat) == sq.a0.nf_matrix(PolyMatrix.identity(ctx, 4))

    two = GLMat.diagonal(a0, [(ctx.constant(2), ctx.constant(Fraction(1, 2)))])
    u = whitehead_lift(two, sq.j2, sq.section)
    assert u.mat.is_constant()
    assert sq.j2.apply_matrix(u.mat) == a0.nf_matrix(
        PolyMatrix.from_scalars(ctx, [[2, 0], [0, Fraction(1, 2)]]))


def test_whitehead_elementary_factor():
    sq = build_fiber_square(QQ, hollow_triangle())
    a0 = sq.a0
    f = a0.normal_form(a0.context.variable(1))
    sig = GLMat.elementary(a0, 2, 0, 1, f)
    u = whitehead_lift(sig, sq.j2, sq.section)
    want = sig.mat.direct_sum(sig.inv)
    assert sq.j2.apply_matrix(u.mat) == a0.nf_matrix(want)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_whitehead_random(field):
    rng = make_rng(f"whitehead-{field.char}")
    sq = build_fiber_square(field, hollow_triangle())
    for _ in range(15):
        r = rng.randint(1, 3)
        sig = random_gl_with_units(sq.a0, r, rng)
        u = whitehead_lift(sig, sq.j2, sq.section)
        assert sq.j2.apply_matrix(u.mat) == sq.a0.nf_matrix(sig.mat.direct_sum(sig.inv))
        eye = PolyMatrix.identity(sq.a.context, 2 * r)
        assert sq.a2.mat_mul(u.mat, u.inv) == sq.a2.nf_matrix(eye)


def test_lift_elementary_is_trivial():
    B = xy_ring()
    up = QuotientRing.make(QQ, 2, ())
    pi = RingHom.quotient_map(up, B)
    sig = GLMat.elementary(B, 3, 0, 2, B.normal_form(B.context.variable(0)))
    delta = lift_gl(sig, pi)
    assert pi.apply_matrix(delta.mat) == sig.mat


def test_lift_constant_is_itself():
    B = xy_ring()
    up = QuotientRing.make(QQ, 2, ())
    pi = RingHom.quotient_map(up, B)
    sig = GLMat.make(B, PolyMatrix.from_scalars(B.context, [[2, 1], [1, 1]]),
                     PolyMatrix.from_scalars(B.context, [[1, -1], [-1, 2]]))
    delta = lift_gl(sig, pi)
    assert delta.mat.is_constant()
    assert pi.apply_matrix(delta.mat) == sig.mat


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_lift_roundtrips(field):
    rng = make_rng(f"glround-{field.char}")
    up = QuotientRing.make(field, 2, ())
    B = xy_ring(field)
    pi = RingHom.quotient_map(up, B)
    for _ in range(12):
        d0 = random_elementary_product(up, 3, rng, count=rng.randint(1, 5))
        sigma = d0.apply_hom(pi)
        delta = lift_gl(sigma, pi)
        assert pi.apply_matrix(delta.mat) == sigma.mat
        eye = PolyMatrix.identity(up.context, 3)
        assert up.mat_mul(delta.mat, delta.inv) == eye


def test_lift_gl_refuses_a_map_whose_source_ideal_escapes():
    # x0 survives in Q[x0,x1]/(x0x1), so x_v -> x_v from Q[x0,x1]/(x0) is no ring map
    down = xy_ring()
    up = QuotientRing.make(QQ, 2, ((1, 0),))
    sigma = GLMat.elementary(down, 2, 0, 1, down.context.variable(1))
    with pytest.raises(HomError):
        lift_gl(sigma, RingHom(up, down, down.zero_mask))


@pytest.mark.parametrize("field, nvars", [(QQ, 3), (GF(5), 2)],
                         ids=["more-variables", "other-field"])
def test_lift_gl_refuses_a_map_onto_a_foreign_ring(field, nvars):
    down = xy_ring()
    sigma = GLMat.elementary(down, 2, 0, 1, down.context.variable(1))
    foreign = QuotientRing.make(field, nvars, ())
    with pytest.raises(ContextError):
        lift_gl(sigma, RingHom.identity(foreign))


def _adversarial_sigma(field=QQ):
    ring = QuotientRing.make(field, 3, ((1, 1, 1),))
    ctx = ring.context
    x0, x1, x2 = (ctx.variable(i) for i in range(3))
    h = PolyMatrix.from_rows(ctx, [[x1 - x2, x1 + x2], [-(x1 + x2), x2 - x1]])
    xh = PolyMatrix.from_rows(ctx, [[x0 * p for p in h.row(0)], [x0 * p for p in h.row(1)]])
    eye = PolyMatrix.identity(ctx, 2)
    return ring, GLMat.make(ring, ring.nf_matrix(eye + xh), ring.nf_matrix(eye - xh))


def test_adversarial_sigma_exhausts_stack():
    ring, sigma = _adversarial_sigma()
    up = QuotientRing.make(QQ, 3, ())
    pi = RingHom.quotient_map(up, ring)
    with pytest.raises(AllStrategiesFailed) as exc:
        lift_gl(sigma, pi)
    diags = exc.value.diagnostics
    assert set(diags) == {"entrywise", "elementary", "descent"}


def test_non_squarefree_quotient_descent_declines():
    ring = QuotientRing.make(QQ, 1, ((2,),))  # Q[x]/(x^2)
    ctx = ring.context
    x = ctx.variable(0)
    sigma = GLMat.make(ring, PolyMatrix(ctx, 1, 1, (ctx.one() + x,)),
                       PolyMatrix(ctx, 1, 1, (ctx.one() - x,)))
    up = QuotientRing.make(QQ, 1, ())
    pi = RingHom.quotient_map(up, ring)
    with pytest.raises(AllStrategiesFailed) as exc:
        lift_gl(sigma, pi)
    assert "square-free" in exc.value.diagnostics["descent"]


def test_descent_succeeds_where_entrywise_fails():
    # glued SL2 pair whose naive lift picks up a cross determinant term
    B = xy_ring()
    ctx = B.context
    x, y = ctx.variable(0), ctx.variable(1)
    m1 = PolyMatrix.from_rows(ctx, [[ctx.one() + x, x], [-x, ctx.one() - x]])
    m2 = PolyMatrix.from_rows(ctx, [[ctx.one() - y, y], [-y, ctx.one() + y]])
    eye = PolyMatrix.identity(ctx, 2)
    glued = B.nf_matrix(m1 + m2 - eye)
    glued_inv = B.nf_matrix((eye - (m1 - eye)) + (eye - (m2 - eye)) - eye)
    sigma = GLMat.make(B, glued, glued_inv)
    up = QuotientRing.make(QQ, 2, ())
    pi = RingHom.quotient_map(up, B)
    with pytest.raises(AllStrategiesFailed):
        lift_gl(sigma, pi, strategies=("entrywise",))
    delta = lift_gl(sigma, pi)  # full stack reaches descent
    assert pi.apply_matrix(delta.mat) == sigma.mat
