"""Differential test of the fused quotient matrix product.

``QuotientRing.mat_mul`` accumulates each entry in one pass and tests
survival as it goes; it must agree term for term with the plain route,
``nf_matrix(a * b)``, on every ring kind, shape and error case.
"""

import random

import pytest

from srpb import GF, QQ, PolyMatrix, QuotientRing
from srpb.errors import ContextError, ShapeError

RINGS = {
    "square-free": ((1, 1, 0), (0, 1, 1)),
    "non-square-free": ((2, 0, 0), (1, 3, 0)),
    "free": (),
}
FIELDS = {"Q": QQ, "F5": GF(5)}


def _ring(field, ideal):
    return QuotientRing.make(field, 3, ideal)


def _poly(ctx, rng, terms=3, max_deg=3):
    """A raw polynomial (not reduced), so dead product terms are common."""
    out = ctx.zero()
    for _ in range(rng.randint(0, terms)):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ctx.nvars)] += 1
        out = out + ctx.monomial(tuple(exps), ctx.field.from_int(rng.randint(-4, 4)))
    return out


def _matrix(ctx, rows, cols, rng):
    return PolyMatrix(ctx, rows, cols, [_poly(ctx, rng) for _ in range(rows * cols)])


def _assert_same(ring, a, b):
    got = ring.mat_mul(a, b)
    want = ring.nf_matrix(a * b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert [p.terms for p in got.entries] == [p.terms for p in want.entries]
    assert got == want


@pytest.mark.parametrize("field", list(FIELDS), ids=str)
@pytest.mark.parametrize("ideal", list(RINGS), ids=str)
def test_fused_product_matches_plain_product(field, ideal):
    ring = _ring(FIELDS[field], RINGS[ideal])
    ctx = ring.context
    rng = random.Random(f"matmul:{field}:{ideal}")
    for _ in range(40):
        r, n, c = (rng.randint(1, 3) for _ in range(3))
        _assert_same(ring, _matrix(ctx, r, n, rng), _matrix(ctx, n, c, rng))
    for r, n, c in ((0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0),
                    (1, 3, 1), (1, 3, 2), (3, 1, 3), (3, 2, 1)):
        for _ in range(5):
            _assert_same(ring, _matrix(ctx, r, n, rng), _matrix(ctx, n, c, rng))


@pytest.mark.parametrize("field", list(FIELDS), ids=str)
@pytest.mark.parametrize("ideal", list(RINGS), ids=str)
def test_fused_product_cancels_to_zero(field, ideal):
    ring = _ring(FIELDS[field], RINGS[ideal])
    ctx = ring.context
    rng = random.Random(f"matmul-cancel:{field}:{ideal}")
    for _ in range(20):
        f, g = _poly(ctx, rng), _poly(ctx, rng)
        a = PolyMatrix.from_rows(ctx, [[f, f]])
        b = PolyMatrix.from_rows(ctx, [[g, -g], [-g, g]])
        _assert_same(ring, a, b)
        assert ring.mat_mul(a, b).is_zero()
    # every product term dies in the quotient, though the raw product does not vanish
    x0 = ctx.variable(0)
    if ring.generators:
        g = ctx.monomial(ring.generators[0])
        a = PolyMatrix.from_rows(ctx, [[g, x0]])
        b = PolyMatrix.from_rows(ctx, [[x0 + ctx.one()], [g]])
        _assert_same(ring, a, b)
        assert ring.mat_mul(a, b).is_zero()


def test_fused_product_errors_match_plain_product():
    ring = _ring(QQ, RINGS["square-free"])
    ctx = ring.context
    other = QuotientRing.make(QQ, 2, ()).context
    rng = random.Random("matmul-errors")
    a, b = _matrix(ctx, 2, 3, rng), _matrix(ctx, 3, 2, rng)
    foreign = _matrix(other, 3, 2, rng)
    with pytest.raises(ContextError):
        ring.mat_mul(a, foreign)
    with pytest.raises(ContextError):
        a * foreign
    with pytest.raises(ShapeError):
        ring.mat_mul(a, a)
    with pytest.raises(ShapeError):
        a * a
    # both factors over one context that is not the ring's
    fa, fb = _matrix(other, 2, 3, rng), _matrix(other, 3, 2, rng)
    with pytest.raises(ContextError):
        ring.mat_mul(fa, fb)
    with pytest.raises(ContextError):
        ring.nf_matrix(fa * fb)
    assert ring.mat_mul(a, b) == ring.nf_matrix(a * b)
