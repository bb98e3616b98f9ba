import pytest

from srpb import GF, QQ, PolyMatrix, PolyRing, smith_normal_form
from srpb.errors import UnsupportedRingError
from srpb.smith import uni_divides
from helpers import make_rng

pytestmark = pytest.mark.seeded


def tctx(field=QQ):
    return PolyRing(field, 1)


def t(ctx):
    return ctx.variable(0)


def test_already_diagonal_chain():
    ctx = tctx()
    m = PolyMatrix.from_rows(ctx, [[t(ctx), ctx.zero()], [ctx.zero(), t(ctx) ** 2]])
    dec = smith_normal_form(m)
    assert dec.d == m
    assert dec.u == PolyMatrix.identity(ctx, 2)
    assert dec.v == PolyMatrix.identity(ctx, 2)


def test_gcd_elimination():
    ctx = tctx()
    m = PolyMatrix.from_rows(ctx, [[t(ctx), ctx.one()], [ctx.zero(), t(ctx)]])
    dec = smith_normal_form(m)
    assert dec.diagonal()[0] == ctx.one()
    assert dec.diagonal()[1] == t(ctx) ** 2


def test_zero_matrix():
    ctx = tctx()
    m = PolyMatrix.zeros(ctx, 2, 2)
    dec = smith_normal_form(m)
    assert dec.d == m
    assert dec.u == PolyMatrix.identity(ctx, 2)
    assert dec.v == PolyMatrix.identity(ctx, 2)


def test_multivariate_rejected():
    ctx = PolyRing(QQ, 2)
    x, y = ctx.variable(0), ctx.variable(1)
    m = PolyMatrix.from_rows(ctx, [[x, y]])
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(m)


def _random_uni_matrix(ctx, rng, n, deg):
    entries = []
    for _ in range(n * n):
        p = ctx.zero()
        for d in range(rng.randint(0, deg) + 1):
            c = rng.randint(-3, 3)
            p = p + ctx.monomial((d,), ctx.field.from_int(c))
        entries.append(p)
    return PolyMatrix(ctx, n, n, entries)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_random_snf_soundness(field):
    ctx = tctx(field)
    rng = make_rng(f"snf-{field.char}")
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _random_uni_matrix(ctx, rng, n, 3)
        dec = smith_normal_form(m)
        assert dec.u * m * dec.v == dec.d
        assert dec.u * dec.u_inv == PolyMatrix.identity(ctx, n)
        assert dec.v * dec.v_inv == PolyMatrix.identity(ctx, n)
        du, dv = dec.u.det(), dec.v.det()
        assert du.is_constant() and not du.is_zero()
        assert dv.is_constant() and not dv.is_zero()
        diag = dec.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert uni_divides(a, b, dec.variable)


def test_rectangular():
    ctx = tctx()
    m = PolyMatrix.from_rows(ctx, [[t(ctx), t(ctx) ** 2, ctx.one()]])
    dec = smith_normal_form(m)
    assert dec.u * m * dec.v == dec.d
    assert dec.d[0, 0] == ctx.one()
