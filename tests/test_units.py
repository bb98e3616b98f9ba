"""Closed-form units and the GL pairs that are inverse by construction."""

import pytest

from srpb import (GF, QQ, GLMat, PolyMatrix, QuotientRing, RingHom, lift_gl,
                  member, unit_inverse, whitehead_lift)
from srpb.errors import AllStrategiesFailed
from helpers import corpus_squares, make_rng, random_gl_with_units, random_poly

# (nvars, ideal generators): square-free ideals, the free ring, and ideals
# with nilpotents such as (x^2, x*y^3)
IDEALS = [
    (2, ((1, 1),)),
    (3, ((1, 1, 0), (0, 1, 1))),
    (3, ((1, 1, 1),)),
    (2, ()),
    (1, ((2,),)),
    (2, ((2, 0), (1, 3))),
    (2, ((3, 0), (0, 2))),
    (3, ((2, 1, 0), (0, 0, 2))),
]


def member_inverse(f, ring):
    """The inverse from a membership certificate of 1 in (f) + I (Buchberger)."""
    f = ring.normal_form(f)
    if f.is_zero():
        return None
    cert = member(ring.context.one(), [f] + list(ring.generator_polys()))
    return None if cert is None else ring.normal_form(cert.coefficients[0])


def nilpotent_tail(ring, rng):
    """A random element of the radical: multiples of each generator's support."""
    ctx = ring.context
    out = ctx.zero()
    for g in ring.generators:
        rad = ctx.monomial(tuple(min(e, 1) for e in g))
        out = out + rad * random_poly(ctx, rng, max_deg=2, terms=2)
    return ring.normal_form(out)


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("nvars,gens", IDEALS)
def test_unit_inverse_matches_membership(field, nvars, gens):
    ring = QuotientRing.make(field, nvars, gens)
    ctx = ring.context
    rng = make_rng(f"units-{field.char}-{nvars}-{gens}")
    units = 0
    for k in range(24):
        if k % 2:
            c = ctx.constant(rng.choice([1, 2, 3, -1, -2]))
            f = c + nilpotent_tail(ring, rng)
        else:
            f = random_poly(ring, rng, max_deg=3, terms=3)
        got = unit_inverse(f, ring)
        assert got == member_inverse(f, ring), f
        if got is not None:
            units += 1
            assert ring.mul(got, f) == ctx.one()
    assert units >= 12


def test_reduced_ring_units_are_constants():
    ring = QuotientRing.make(QQ, 3, ((1, 1, 0), (0, 1, 1)))
    ctx = ring.context
    x0, x1 = ctx.variable(0), ctx.variable(1)
    assert unit_inverse(ctx.constant(2), ring) == ctx.constant(QQ.inv(QQ.from_int(2)))
    assert unit_inverse(ctx.one() + x0, ring) is None
    assert unit_inverse(ctx.one() + x0 * x1, ring) == ctx.one()  # x0*x1 is 0 here
    assert unit_inverse(ctx.zero(), ring) is None


def test_unit_with_nilpotent_tail():
    # in k[x, y]/(x^2, x*y^3) the element x*y is nilpotent, 1 + x*y a unit
    ring = QuotientRing.make(QQ, 2, ((2, 0), (1, 3)))
    ctx = ring.context
    x, y = ctx.variable(0), ctx.variable(1)
    assert unit_inverse(ctx.one() + x * y, ring) == ctx.one() - x * y
    assert unit_inverse(ctx.one() + y, ring) is None
    # the series runs to x^2 in k[x]/(x^3)
    cube = QuotientRing.make(QQ, 1, ((3,),))
    t = cube.context.variable(0)
    assert unit_inverse(cube.context.one() + t, cube) == cube.context.one() - t + t * t


def test_long_unit_inverse_is_exact_below_the_cap():
    ring = QuotientRing.make(QQ, 1, ((200,),))
    ctx = ring.context
    f = ctx.one() + ctx.variable(0)
    q = unit_inverse(f, ring)
    assert len(q.terms) == 200
    assert ring.normal_form(q * f) == ctx.one()
    assert q == ctx.from_terms({(k,): QQ.from_int((-1) ** k) for k in range(200)})


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_identity_and_elementary_pairs_multiply_to_identity(field):
    rng = make_rng(f"known-pairs-{field.char}")
    for nvars, gens in IDEALS:
        ring = QuotientRing.make(field, nvars, gens)
        ctx = ring.context
        for n in (1, 2, 3):
            eye = PolyMatrix.identity(ctx, n)
            g = GLMat.identity(ring, n)
            assert ring.mat_mul(g.mat, g.inv) == eye == g.mat
            for _ in range(4 if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                # not reduced: the pair is built from the normal form of f
                f = random_poly(ctx, rng, max_deg=3, terms=3)
                e = GLMat.elementary(ring, n, i, j, f)
                assert ring.mat_mul(e.mat, e.inv) == eye
                assert ring.mat_mul(e.inv, e.mat) == eye


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_whitehead_factors_multiply_to_identity(field):
    rng = make_rng(f"whitehead-pairs-{field.char}")
    for _, sq in corpus_squares(field):
        for r in (1, 2):
            sig = random_gl_with_units(sq.a0, r, rng)
            u = whitehead_lift(sig, sq.j2, sq.section)
            eye = sq.a2.nf_matrix(PolyMatrix.identity(sq.a2.context, 2 * r))
            assert sq.a2.mat_mul(u.mat, u.inv) == eye
            assert sq.a2.mat_mul(u.inv, u.mat) == eye
            assert sq.j2.apply_matrix(u.mat) == sq.a0.nf_matrix(sig.mat.direct_sum(sig.inv))


def test_entrywise_diagnostic_names_the_determinant():
    # 1 + x is a unit of Q[x]/(x^2) but not of Q[x]
    down = QuotientRing.make(QQ, 1, ((2,),))
    up = QuotientRing.make(QQ, 1, ())
    ctx = down.context
    x = ctx.variable(0)
    sig = GLMat(down, PolyMatrix(ctx, 1, 1, (ctx.one() + x,)),
                PolyMatrix(ctx, 1, 1, (ctx.one() - x,)))
    with pytest.raises(AllStrategiesFailed) as info:
        lift_gl(sig, RingHom.quotient_map(up, down), strategies=("entrywise",))
    assert info.value.diagnostics == {
        "entrywise": "entrywise lift determinant x0 + 1 is not a unit upstairs"}
