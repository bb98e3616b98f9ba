import pytest

from srpb import QQ, PolyMatrix, PolyRing
from srpb.errors import ShapeError
from srpb.matrix import constant_splitting, scalar_rank
from helpers import make_rng, random_poly

pytestmark = pytest.mark.seeded


def ctx2():
    return PolyRing(QQ, 2)


def random_matrix(ctx, rng, n, max_deg=2):
    return PolyMatrix(ctx, n, n,
                      [random_poly(ctx, rng, max_deg=max_deg, terms=2) for _ in range(n * n)])


def test_det_identity():
    ctx = ctx2()
    assert PolyMatrix.identity(ctx, 3).det() == ctx.one()


def test_det_unitriangular():
    ctx = ctx2()
    x = ctx.variable(0)
    m = PolyMatrix.from_rows(ctx, [[ctx.one(), x], [ctx.zero(), ctx.one()]])
    assert m.det() == ctx.one()


def test_adjugate_law_random():
    ctx = ctx2()
    rng = make_rng("adjugate")
    for _ in range(20):
        m = random_matrix(ctx, rng, 3)
        d = m.det()
        lhs = m * m.adjugate()
        assert lhs == PolyMatrix.identity(ctx, 3).map_entries(lambda p, d=d: p * d)


def test_det_multiplicative():
    ctx = ctx2()
    rng = make_rng("detmul")
    for n in (2, 3):
        for _ in range(10):
            a = random_matrix(ctx, rng, n, max_deg=1)
            b = random_matrix(ctx, rng, n, max_deg=1)
            assert (a * b).det() == a.det() * b.det()


def test_shape_errors():
    ctx = ctx2()
    a = PolyMatrix.zeros(ctx, 2, 3)
    with pytest.raises(ShapeError):
        a * a
    with pytest.raises(ShapeError):
        a.det()
    with pytest.raises(ShapeError):
        a + PolyMatrix.zeros(ctx, 3, 2)


def test_transpose_blocks_trace():
    ctx = ctx2()
    x = ctx.variable(0)
    m = PolyMatrix.from_rows(ctx, [[x, ctx.one()], [ctx.zero(), x]])
    assert m.transpose()[0, 1] == ctx.zero()
    s = m.direct_sum(PolyMatrix.identity(ctx, 1))
    assert s.rows == 3 and s[2, 2] == ctx.one()
    assert m.trace() == x + x


def test_augmentation():
    ctx = ctx2()
    x = ctx.variable(0)
    m = PolyMatrix.from_rows(ctx, [[x + ctx.one(), x]])
    assert m.augmentation() == PolyMatrix.from_scalars(ctx, [[1, 0]])
    # constant entries are returned as they are
    c = PolyMatrix.from_rows(ctx, [[ctx.constant(3), x + x, ctx.zero()]])
    aug = c.augmentation()
    assert aug == PolyMatrix.from_scalars(ctx, [[3, 0, 0]])
    assert aug.entries[0] is c.entries[0] and aug.entries[2] is c.entries[2]


def test_scalar_linear_algebra():
    ctx = ctx2()
    m = PolyMatrix.from_scalars(ctx, [[1, 2], [3, 4]])
    assert scalar_rank(m) == 2
    assert constant_splitting(m) == (m, PolyMatrix.identity(ctx, 2))
    sing = PolyMatrix.from_scalars(ctx, [[1, 2], [2, 4]])
    assert scalar_rank(sing) == 1
    b, r = constant_splitting(sing)
    assert b == PolyMatrix.from_scalars(ctx, [[1], [2]])
    assert r == PolyMatrix.from_scalars(ctx, [[1, 2]])
    assert r * b != PolyMatrix.identity(ctx, 1)  # sing is not idempotent
    b, r = constant_splitting(PolyMatrix.zeros(ctx, 2, 2))
    assert (b.rows, b.cols, r.rows, r.cols) == (2, 0, 0, 2)
    rng = make_rng("splitting")
    for _ in range(20):
        m = PolyMatrix.from_scalars(ctx, [[rng.randint(-2, 2) for _ in range(3)]
                                          for _ in range(3)])
        b, r = constant_splitting(m)
        assert b * r == m and b.cols == r.rows == scalar_rank(m)
