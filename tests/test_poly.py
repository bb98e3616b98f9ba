from fractions import Fraction

import pytest

from srpb import GF, QQ, PolyRing
from srpb.errors import ContextError, InputError
from srpb.poly import grevlex
from helpers import make_rng, random_poly, substitute


def ring2(field=QQ):
    return PolyRing(field, 2)


def test_add_cancels():
    ctx = ring2()
    x = ctx.variable(0)
    one = ctx.one()
    assert (x + one) + (x - one) == x.scale(Fraction(2))


def test_product_difference_of_squares():
    ctx = ring2()
    x, y = ctx.variable(0), ctx.variable(1)
    assert (x + y) * (x - y) == x * x - y * y


def test_mul_identity_random():
    ctx = PolyRing(QQ, 3)
    rng = make_rng("poly-one")
    one = ctx.one()
    for _ in range(20):
        f = random_poly(ctx, rng, max_deg=3, terms=4)
        assert f * one == f


def test_canonical_terms_strictly_ordered():
    ctx = PolyRing(QQ, 3)
    rng = make_rng("poly-canon")
    for _ in range(50):
        f = random_poly(ctx, rng, max_deg=4, terms=6)
        keys = [grevlex(e) for e, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)
        assert all(c for _, c in f.terms)


def test_ring_laws_random_triples():
    ctx = PolyRing(QQ, 2)
    rng = make_rng("poly-laws")
    for _ in range(30):
        f = random_poly(ctx, rng)
        g = random_poly(ctx, rng)
        h = random_poly(ctx, rng)
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_ring_laws_mod_p():
    ctx = PolyRing(GF(5), 2)
    rng = make_rng("poly-laws-p")
    for _ in range(30):
        f = random_poly(ctx, rng)
        g = random_poly(ctx, rng)
        assert f * (g + g) == f * g + f * g
        assert (f + g) * (f - g) == f * f - g * g


def test_grevlex_order():
    ctx = PolyRing(QQ, 2)
    x, y = ctx.variable(0), ctx.variable(1)
    f = x * x + x * y + y * y + x + y + ctx.one()
    exps = [e for e, _ in f.terms]
    assert exps == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]


# the reference substitution that test_masks.py compares ring maps with
def test_substitute_evaluation_at_zero():
    ctx = ring2()
    x, y = ctx.variable(0), ctx.variable(1)
    f = x * x + y
    assert substitute(f, {0: ctx.zero()}) == y


def test_substitute_rename():
    ctx = ring2()
    x, y = ctx.variable(0), ctx.variable(1)
    assert substitute(x * y, {0: y}) == y * y


def test_substitute_identity_random():
    ctx = PolyRing(QQ, 3)
    rng = make_rng("poly-subst")
    for _ in range(10):
        f = random_poly(ctx, rng, max_deg=3, terms=4)
        assert substitute(f, {}) == f
        assert substitute(f, {0: ctx.variable(0)}) == f


def test_substitute_is_multiplicative():
    ctx = ring2()
    rng = make_rng("poly-subst-hom")
    for _ in range(15):
        f = random_poly(ctx, rng)
        g = random_poly(ctx, rng)
        img = {0: random_poly(ctx, rng), 1: random_poly(ctx, rng)}
        assert substitute(f * g, img) == substitute(f, img) * substitute(g, img)


def test_context_mismatch_raises():
    a = PolyRing(QQ, 2)
    b = PolyRing(QQ, 3)
    with pytest.raises(ContextError):
        a.variable(0) + b.variable(0)
    with pytest.raises(ContextError):
        a.variable(0) * PolyRing(GF(3), 2).variable(0)


def test_constant_term_and_degree():
    ctx = ring2()
    x = ctx.variable(0)
    f = x * x + ctx.constant(Fraction(3, 2))
    assert f.constant_term() == Fraction(3, 2)


def test_negative_power_rejected():
    ctx = ring2()
    with pytest.raises(InputError):
        ctx.variable(0) ** -1
