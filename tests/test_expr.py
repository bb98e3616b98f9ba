import time
from fractions import Fraction

import pytest

from srpb import GF, QQ, PolyRing, format_polynomial, parse_expression
from srpb.errors import ExprError
from helpers import make_rng, random_poly


def ctx2(field=QQ):
    return PolyRing(field, 2)


def test_simple_product_plus_one():
    ctx = ctx2()
    x, y = ctx.variable(0), ctx.variable(1)
    assert parse_expression("x0*x1 + 1", ctx) == x * y + ctx.one()


def test_square_expansion():
    ctx = ctx2()
    x, y = ctx.variable(0), ctx.variable(1)
    assert parse_expression("(x0+x1)^2", ctx) == x * x + (x * y).scale(Fraction(2)) + y * y


def test_trailing_operator_offset():
    ctx = ctx2()
    with pytest.raises(ExprError) as exc:
        parse_expression("x0 + ", ctx)
    assert exc.value.offset == 5


def test_rational_literals():
    ctx = ctx2()
    assert parse_expression("1/2 + 1/2", ctx) == ctx.one()
    assert parse_expression("3/4*x0", ctx) == ctx.variable(0).scale(Fraction(3, 4))


def test_rational_mod_p():
    ctx = ctx2(GF(5))
    # 1/2 = 3 mod 5
    assert parse_expression("1/2", ctx) == ctx.constant(3)


def test_unary_minus_and_precedence():
    ctx = ctx2()
    x = ctx.variable(0)
    assert parse_expression("-x0^2", ctx) == -(x * x)
    assert parse_expression("2*x0 - -1", ctx) == x.scale(Fraction(2)) + ctx.one()
    assert parse_expression("x0 + x0*x1^2", ctx) == x + x * ctx.variable(1) ** 2


def test_exponent_overflow():
    ctx = ctx2()
    with pytest.raises(ExprError):
        parse_expression("x0^2147483649", ctx)


def test_variable_out_of_context():
    ctx = ctx2()
    with pytest.raises(ExprError):
        parse_expression("x5", ctx)
    with pytest.raises(ExprError):
        parse_expression("x64", PolyRing(QQ, 2))


def test_bad_tokens_carry_offsets():
    ctx = ctx2()
    with pytest.raises(ExprError) as exc:
        parse_expression("x0 + $", ctx)
    assert exc.value.offset == 5
    with pytest.raises(ExprError):
        parse_expression("(x0", ctx)
    with pytest.raises(ExprError):
        parse_expression("x0 x1", ctx)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_format_parse_roundtrip(field):
    ctx = PolyRing(field, 3)
    rng = make_rng(f"roundtrip-{field.char}")
    for _ in range(40):
        f = random_poly(ctx, rng, max_deg=4, terms=5)
        assert parse_expression(format_polynomial(f), ctx) == f
    assert parse_expression("0", ctx) == ctx.zero()


@pytest.mark.parametrize("text", ["(x0+x1+x2+x3)^40", "(x0+x1+x2+x3)^80", "(1+x0)^3000",
                                  "2^2147483647", "(x0+x1)^90*(x0+x1)^90",
                                  "(" * 100_000 + "x0" + ")" * 100_000, "-" * 100_000 + "x0"],
                         ids=["sum4-40", "sum4-80", "binomial-3000", "constant", "product",
                              "parentheses", "minus"])
def test_work_and_nesting_caps(text):
    ctx = PolyRing(QQ, 4)
    start = time.perf_counter()
    with pytest.raises(ExprError):
        parse_expression(text, ctx)
    assert time.perf_counter() - start < 1.0


def test_inputs_under_the_caps_still_parse():
    ctx = PolyRing(QQ, 4)
    x0 = ctx.variable(0)
    assert parse_expression("x0^2147483648", ctx) == x0 ** 2147483648
    assert parse_expression("(x0+x1+x2+x3)^6*(x0+x1+x2+x3)^6", ctx) == \
        (sum((ctx.variable(i) for i in range(4)), ctx.zero())) ** 12
    assert parse_expression("2^1000", ctx) == ctx.constant(Fraction(2) ** 1000)
    # a long sum of single-term products costs no term-product budget
    text = " + ".join(f"{i + 1}*x0^{i}*x1" for i in range(1000))
    assert len(parse_expression(text, ctx).terms) == 1000


@pytest.mark.parametrize("terms, bound", [(8000, 2.0), (3000, 1.0)],
                         ids=["8000-powers", "3000-scaled-products"])
def test_long_sums_parse_in_linear_time(terms, bound):
    # a sum is collected in one dict and a single-term power scales its
    # exponents once, so neither re-sorts the sum per term
    ctx = ctx2()
    if terms == 8000:
        text = " + ".join(f"x0^{i}" for i in range(terms))
        want = {((i, 0), Fraction(1)) for i in range(terms)}
    else:
        text = " + ".join(f"{k}*x0^{k}*x1" for k in range(terms))
        want = {((k, 1), Fraction(k)) for k in range(1, terms)}
    start = time.perf_counter()
    f = parse_expression(text, ctx)
    assert time.perf_counter() - start < bound
    assert set(f.terms) == want
    assert f == ctx.from_terms(dict(want))


def test_digits_are_ascii_and_literals_bounded():
    ctx = ctx2()
    for text, offset in (("x0^²", 3), ("x٠", 1), ("٣", 0),
                         ("1" * 4301, 0), ("x0 + 2/" + "3" * 4301, 7)):
        with pytest.raises(ExprError) as exc:
            parse_expression(text, ctx)
        assert exc.value.offset == offset
    assert parse_expression("1" * 4300, ctx) == ctx.constant(Fraction(int("1" * 4300)))
