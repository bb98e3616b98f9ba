"""Exactness of the coefficient representation.

Over Q an integral coefficient is an ``int`` and any other a ``Fraction``;
over F_p every coefficient is an ``int`` in [0, p).  No coefficient is ever a
float.  The field operations over Q are compared with plain ``Fraction``
arithmetic on hypothesis-drawn rationals, seeded by SRPB_SEED, and the
coefficients that the parser, the engines and ``mat_mul`` produce are checked
for the representation.
"""

from fractions import Fraction

import pytest

from srpb import GF, QQ, PolyMatrix, PolyRing, QuotientRing
from srpb.expr import parse_expression
from srpb.poly import Polynomial
from helpers import SEED, make_rng

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

FIELDS = [QQ, GF(5)]
SEEDED = settings(max_examples=300, deadline=None, database=None)
RATIONALS = st.integers(-10 ** 6, 10 ** 6) | st.fractions(max_denominator=10 ** 4)


def canonical(c, field) -> bool:
    """Is c a field element in the representation: an int, or a non-integral Fraction over Q?"""
    if field.char:
        return type(c) is int and 0 <= c < field.char
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_canonical(f: Polynomial) -> None:
    field = f.ring.field
    for exps, c in f.terms:
        assert canonical(c, field), (exps, c, type(c))


# -- the field operations over Q, against plain Fraction arithmetic ------------------

@seed(SEED)
@SEEDED
@given(RATIONALS, RATIONALS)
def test_add_sub_mul_match_fractions(a, b):
    x, y = QQ.from_fraction(a), QQ.from_fraction(b)
    assert canonical(x, QQ) and canonical(y, QQ) and x == a and y == b
    for got, want in ((QQ.add(x, y), Fraction(a) + Fraction(b)),
                      (QQ.sub(x, y), Fraction(a) - Fraction(b)),
                      (QQ.mul(x, y), Fraction(a) * Fraction(b)),
                      (QQ.neg(x), -Fraction(a))):
        assert got == want and canonical(got, QQ), (a, b, got)


@seed(SEED)
@SEEDED
@given(RATIONALS)
def test_inv_and_div_match_fractions(a):
    x = QQ.from_fraction(a)
    if not a:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(x)
        return
    for got, want in ((QQ.inv(x), 1 / Fraction(a)), (QQ.div(x, x), Fraction(1)),
                      (QQ.div(QQ.one, x), 1 / Fraction(a))):
        assert got == want and canonical(got, QQ), (a, got)


@seed(SEED)
@SEEDED
@given(st.lists(st.tuples(st.integers(0, 3), RATIONALS), max_size=8))
def test_reduce_terms_sums_raw_values_exactly(pairs):
    raw, want = {}, {}
    for k, a in pairs:
        raw[k] = raw.get(k, 0) + a
        want[k] = want.get(k, Fraction(0)) + Fraction(a)
    got = dict(QQ.reduce_terms(raw))
    assert got == {k: v for k, v in want.items() if v}
    assert all(canonical(c, QQ) for c in got.values())


def test_constants_and_integers_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(7)) is int and QQ.from_int(True) == 1
    assert type(QQ.from_fraction(Fraction(6, 3))) is int
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(-1) == -1
    ctx = PolyRing(QQ, 1)
    assert ctx.constant(Fraction(4, 2)).terms == (((0,), 2),)
    assert type(ctx.constant(Fraction(4, 2)).terms[0][1]) is int
    with pytest.raises(TypeError):
        QQ.from_int(0.5)
    # parsed halves that add up to integers come out as ints
    f = parse_expression("1/2*x0 + 1/2*x0 + 3/2 + 1/2", ctx)
    assert f.terms == (((1,), 1), ((0,), 2)) and all(type(c) is int for _, c in f.terms)


def test_monomial_coefficients_are_reduced_like_constants():
    f5 = PolyRing(GF(5), 1)
    assert f5.monomial((1,), 7) == f5.monomial((1,), 2)
    assert f5.monomial((1,), 7).terms == (((1,), 2),)
    assert f5.monomial((1,), 5).is_zero() and f5.monomial((1,), -5).is_zero()
    assert f5.monomial((1,), Fraction(1, 2)) == f5.monomial((1,), 3)
    q = PolyRing(QQ, 1)
    assert type(q.monomial((1,), Fraction(2)).terms[0][1]) is int
    assert q.monomial((1,), Fraction(4, 2)) == q.monomial((1,), 2)
    assert q.monomial((1,), Fraction(1, 2)).terms == (((1,), Fraction(1, 2)),)
    assert q.monomial((1,), 0).is_zero() and q.monomial((1,)) == q.variable(0)


# -- what the parser, mat_mul and the engines produce ----------------------------------

LITERALS = ("1", "2", "-3", "4/2", "6/3", "1/2", "-1/2", "3/4", "10/5")


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_parsed_coefficients_are_canonical(field):
    rng = make_rng(f"exact-parse-{field.char}")
    ctx = PolyRing(field, 2)
    for _ in range(200):
        parts = [f"{rng.choice(LITERALS)}*x{rng.randrange(2)}^{rng.randint(0, 2)}"
                 for _ in range(rng.randint(1, 4))]
        text = " + ".join(parts)
        if rng.random() < 0.5:
            text = f"({text})*({rng.choice(LITERALS)} + x1)"
        assert_canonical(parse_expression(text, ctx))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_mat_mul_coefficients_are_canonical(field):
    rng = make_rng(f"exact-matmul-{field.char}")
    ring = QuotientRing.make(field, 2, ((1, 1),))
    ctx = ring.context
    for _ in range(60):
        def entry():
            d = {(rng.randint(0, 2), rng.randint(0, 2)):
                 field.from_fraction(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4))))
                 for _ in range(rng.randint(0, 3))}
            return ctx.from_terms(d)
        a = PolyMatrix.from_rows(ctx, [[entry() for _ in range(2)] for _ in range(2)])
        b = PolyMatrix.from_rows(ctx, [[entry() for _ in range(2)] for _ in range(2)])
        for p in ring.mat_mul(a, b).entries + (a * b).entries:
            assert_canonical(p)
    # 2 * 1/2 and 1/2 + 1/2 are the int 1
    half = ctx.constant(Fraction(1, 2))
    m = PolyMatrix.from_rows(ctx, [[half, half]])
    n = PolyMatrix.from_rows(ctx, [[ctx.constant(2)], [ctx.zero()]])
    assert ring.mat_mul(m, n)[0, 0] == ctx.one()
    if field.char == 0:
        assert type(ring.mat_mul(m, n)[0, 0].terms[0][1]) is int
        assert type(ring.mat_mul(m, m.transpose())[0, 0].terms[0][1]) is Fraction
        assert type((half + half).terms[0][1]) is int
        assert type((half * ctx.constant(2)).terms[0][1]) is int


def test_engine_coefficients_are_canonical(monkeypatch):
    """Every polynomial built while the golden certificates are made."""
    import test_golden

    made = []
    init = Polynomial.__init__

    def recording(self, ring, terms):
        made.append((ring.field, terms))
        init(self, ring, terms)

    monkeypatch.setattr(Polynomial, "__init__", recording)
    for build in test_golden.GOLDEN:
        build()
    for build in test_golden.GL_LIFT_GOLDEN:
        build()
    for name, char, rank in test_golden.PATCH_GOLDEN:
        field = GF(char) if char else QQ
        test_golden.patch_certificate(field, test_golden.PATCH_COMPLEXES[name](), rank)
    assert len(made) > 1000
    assert {f.char for f, _ in made} == {0, 5}
    for field, terms in made:
        assert all(canonical(c, field) for _, c in terms), terms
