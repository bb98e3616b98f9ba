import dataclasses

import pytest

from srpb import (GF, QQ, GLMat, PolyMatrix, QuotientRing, RingHom,
                  SimplicialComplex, build_fiber_square, complex_of_ring,
                  fiber_check, sr_quotient)
from srpb import quotient
from srpb.errors import HomError, InputError, PreconditionError
from helpers import (complexes_on, corpus_complexes, corpus_squares, hollow_triangle,
                     make_rng, random_elementary_product, random_gl_with_units,
                     random_poly, two_points)


def xy_ring(field=QQ):
    return QuotientRing.make(field, 2, ((1, 1),))


def test_normal_form_examples():
    r = xy_ring()
    ctx = r.context
    x, y = ctx.variable(0), ctx.variable(1)
    assert r.normal_form(x * y + x) == x
    assert r.normal_form(ctx.constant(5)) == ctx.constant(5)
    assert r.normal_form(x * x * y).is_zero()


def test_normal_form_multiplicative_random():
    rng = make_rng("nfmul")
    rings = [xy_ring(), QuotientRing.make(QQ, 3, ((1, 1, 0), (0, 0, 2))),
             QuotientRing.make(GF(5), 2, ((2, 0),))]
    for r in rings:
        for _ in range(25):
            f = random_poly(r.context, rng, max_deg=3, terms=4)
            g = random_poly(r.context, rng, max_deg=3, terms=4)
            assert r.normal_form(f * g) == r.normal_form(r.normal_form(f) * r.normal_form(g))


def test_generators_minimalized():
    r = QuotientRing.make(QQ, 2, ((1, 1), (2, 1), (1, 2)))
    assert r.generators == ((1, 1),)


def test_hom_check_accepts_and_rejects():
    r = xy_ring()
    free1 = QuotientRing.make(QQ, 2, ((1, 0),))  # kills x0
    ok = RingHom.make(r, free1, [free1.context.zero(), free1.context.variable(1)])
    assert ok.kill == 0b01 and ok == RingHom.quotient_map(r, free1)
    free = QuotientRing.make(QQ, 2, ())
    with pytest.raises(HomError):
        RingHom.make(r, free, [free.context.variable(0), free.context.one()])
    with pytest.raises(HomError):  # x0 x1 survives in the free ring
        RingHom.quotient_map(r, free)
    ident = RingHom.identity(r)
    assert ident.kill == 0 and ident.images == (r.context.variable(0), r.context.variable(1))


def test_complex_ring_roundtrip():
    for c in (two_points(), hollow_triangle(), SimplicialComplex.simplex(3),
              SimplicialComplex.empty(2)):
        r = sr_quotient(QQ, c)
        assert complex_of_ring(r) == c


def test_build_square_two_points():
    sq = build_fiber_square(QQ, two_points())
    assert sq.apex == 0
    assert sq.a.generators == ((1, 1),)
    assert sq.a1.generators == ((1, 0),)
    assert sq.a2.generators == ((0, 1),)
    assert set(sq.a0.generators) == {(1, 0), (0, 1)}
    # j2 kills the apex variable and the section includes back
    assert sq.j2.images[0].is_zero()
    assert sq.section.images[1] == sq.a2.normal_form(sq.a2.context.variable(1))


def test_build_square_hollow_triangle():
    sq = build_fiber_square(QQ, hollow_triangle())
    assert sq.a1.generators == ((1, 0, 0),)
    assert sq.a2.generators == ((0, 1, 1),)
    assert set(sq.a0.generators) == {(1, 0, 0), (0, 1, 1)}


def test_build_square_rejects_simplex():
    with pytest.raises(PreconditionError):
        build_fiber_square(QQ, SimplicialComplex.simplex(2))


def test_square_commutes_on_variables():
    for _, sq in corpus_squares():
        ctx = sq.a.context
        for v in range(sq.a.nvars):
            xv = ctx.variable(v)
            assert sq.j1(sq.i1(xv)) == sq.j2(sq.i2(xv))


def test_section_law_random():
    rng = make_rng("section")
    for _, sq in corpus_squares():
        for _ in range(10):
            f = random_poly(sq.a0, rng, max_deg=3, terms=3)
            assert sq.j2(sq.section(f)) == f


def test_fiber_counts_two_points():
    sq = build_fiber_square(QQ, two_points())
    rep = fiber_check(sq, 3)
    assert rep.ok
    assert rep.counts() == (7, 4, 4, 1)


def test_fiber_counts_hollow_triangle():
    sq = build_fiber_square(QQ, hollow_triangle())
    rep = fiber_check(sq, 2)
    assert rep.ok
    assert rep.counts() == (10, 6, 9, 5)


def test_fiber_check_degree_zero():
    for _, sq in corpus_squares():
        rep = fiber_check(sq, 0)
        assert rep.ok
        assert rep.counts() == (1, 1, 1, 1)


def test_fiber_check_bounds_its_degree(monkeypatch):
    sq = build_fiber_square(QQ, two_points())  # two variables: C(2 + d, 2) monomials
    with pytest.raises(InputError, match="degree -1 is negative"):
        fiber_check(sq, -1)
    monkeypatch.setattr(quotient, "FIBER_CHECK_MAX_MONOMIALS", 10)
    assert fiber_check(sq, 3).counts() == (7, 4, 4, 1)  # 10 monomials
    with pytest.raises(InputError, match="more than 10 monomials in 2 variables"):
        fiber_check(sq, 4)  # 15 monomials


def test_fiber_check_corpus_degree_4():
    rng = make_rng("fiber-corpus")
    complexes = [c for c in corpus_complexes(max_exhaustive=3, sample5=10, sample6=10)
                 if not c.is_simplex()]
    for c in complexes:
        sq = build_fiber_square(QQ, c)
        rep = fiber_check(sq, 4)
        assert rep.ok, (c, rep.failure)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_fiber_check_exhaustive_and_broken_squares(field):
    # a cartesian square passes and its counts obey inclusion-exclusion; a square
    # with a0 replaced by a1, or with a1 and a2 swapped, fails at one monomial
    squares = [build_fiber_square(field, c) for n in range(1, 5) for c in complexes_on(n)
               if not c.is_simplex()]
    assert len(squares) == 163
    for sq in squares:
        rep = fiber_check(sq)
        assert rep.ok, (sq.complex, rep.failure)
        assert rep.count_a == rep.count_a1 + rep.count_a2 - rep.count_a0
        rep = fiber_check(dataclasses.replace(sq, a0=sq.a1))
        assert not rep.ok and rep.failure.startswith("overlap mismatch at (")
        rep = fiber_check(dataclasses.replace(sq, a1=sq.a2, a2=sq.a1))
        assert not rep.ok and rep.failure.startswith("apex-free monomial (")
        assert rep.failure.endswith(" missing from a0")


def test_glmat_verifies():
    r = xy_ring()
    ctx = r.context
    e = GLMat.elementary(r, 2, 0, 1, ctx.variable(0))
    assert (e * e.inverse()).mat == PolyMatrix.identity(ctx, 2)
    with pytest.raises(PreconditionError):
        GLMat(r, PolyMatrix.from_scalars(ctx, [[1, 0], [0, 1]]),
              PolyMatrix.from_scalars(ctx, [[1, 1], [0, 1]]))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_glmat_one_sided_check_refuses_single_coefficient_mutations(field):
    """``GLMat(...)`` checks mat * inv == I alone, which over a commutative
    ring implies inv * mat == I; a change of one coefficient of either
    matrix still breaks mat * inv == I, so every such pair is refused."""
    rng = make_rng(f"glmat-one-sided-{field.char}")
    refused = 0
    for ring in (xy_ring(field), sr_quotient(field, hollow_triangle())):
        ctx = ring.context
        for _ in range(6):
            g = random_gl_with_units(ring, rng.randint(2, 3), rng)
            assert GLMat(ring, g.mat, g.inv) == g
            for side in ("mat", "inv"):
                m = getattr(g, side)
                for _ in range(4):
                    k = rng.randrange(len(m.entries))
                    entry = m.entries[k]
                    if entry.terms and rng.random() < 0.5:
                        exps = rng.choice(entry.terms)[0]  # bump an existing coefficient
                    else:
                        exps = tuple(rng.randint(0, 1) for _ in range(ctx.nvars))
                        if not ring.survives(exps):
                            continue
                    bumped = entry + ctx.monomial(exps, rng.choice((1, 2, -1)))
                    entries = m.entries[:k] + (bumped,) + m.entries[k + 1:]
                    mutated = PolyMatrix(ctx, m.rows, m.cols, entries)
                    pair = (mutated, g.inv) if side == "mat" else (g.mat, mutated)
                    with pytest.raises(PreconditionError, match="fails to verify"):
                        GLMat(ring, *pair)
                    refused += 1
    assert refused > 60


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_glmat_products_and_inverses_stay_inverse_pairs(field):
    # products and inverses are built without re-verification; both
    # identities must still hold exactly
    rng = make_rng(f"glmat-pairs-{field.char}")
    for ring in (xy_ring(field), sr_quotient(field, hollow_triangle())):
        ctx = ring.context
        for _ in range(8):
            size = rng.randint(2, 3)
            a = random_elementary_product(ring, size, rng)
            b = random_gl_with_units(ring, size, rng)
            for g in (a * b, (a * b).inverse(), b.inverse() * a, a.inverse() * a):
                eye = PolyMatrix.identity(ctx, size)
                assert ring.mat_mul(g.mat, g.inv) == eye
                assert ring.mat_mul(g.inv, g.mat) == eye
