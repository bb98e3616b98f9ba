"""Differential tests of the arithmetic core against sympy.

The engines and the verifier share ``Polynomial`` arithmetic, monomial
normal forms, ``QuotientRing.mat_mul``, determinants, adjugates and unit
inverses, and the engines' univariate base case rests on Smith normal
form.  These tests compare them on seeded inputs over Q and F_5 with
sympy's ``Poly``, ``Matrix``, ``groebner`` and ``invariant_factors``, an
independent implementation: the coefficients and, under grevlex, the order
of the terms.  The normal form is sympy's reduction by the ideal's Groebner basis,
which for a monomial ideal is its generators.
"""

from fractions import Fraction

import pytest

from srpb import GF, QQ, PolyMatrix, PolyRing, QuotientRing, smith_normal_form
from helpers import make_rng

sympy = pytest.importorskip("sympy")

FIELDS = [QQ, GF(5)]
NVARS = 3
SYMBOLS = sympy.symbols(f"x0:{NVARS}")


def random_element(ctx, rng, max_deg=3, terms=4):
    """A sum of random terms; over Q some coefficients are not integers."""
    d = {}
    for _ in range(rng.randint(0, terms)):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ctx.nvars)] += 1
        c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        d[tuple(exps)] = ctx.field.from_fraction(c)
    return ctx.from_terms(d)


def to_sympy(f):
    """f as a sympy Poly over f's field, in the variables x0..x2."""
    field = f.ring.field
    domain = sympy.QQ if field.char == 0 else sympy.GF(field.char)
    terms = {exps: (sympy.Rational(c.numerator, c.denominator) if field.char == 0 else c)
             for exps, c in f.terms}
    return sympy.Poly.from_dict(terms, *SYMBOLS, domain=domain)


def terms_of(p, field):
    """The terms of a sympy Poly, leading first under grevlex, in srpb's coefficients."""
    out = []
    for exps, c in p.terms(order="grevlex"):
        if not c:  # the zero Poly lists one zero term
            continue
        if field.char == 0:
            out.append((exps, Fraction(int(c.p), int(c.q))))
        else:
            out.append((exps, int(c) % field.char))
    return tuple(out)


def sympy_normal_form(p, ring):
    if not ring.generators:
        return p
    ideal = [to_sympy(ring.context.monomial(g)) for g in ring.generators]
    basis = sympy.groebner([g.as_expr() for g in ideal], *SYMBOLS, order="grevlex",
                           domain=p.domain)
    _, remainder = basis.reduce(p.as_expr())
    return sympy.Poly(remainder, *SYMBOLS, domain=p.domain)


def random_ring(field, rng):
    """A monomial quotient: square-free generators, or any exponents."""
    gens = []
    for _ in range(rng.randint(0, 3)):
        top = rng.choice((1, 3))
        exps = tuple(rng.randint(0, top) for _ in range(NVARS))
        if any(exps):
            gens.append(exps)
    return QuotientRing.make(field, NVARS, gens)


@pytest.mark.parametrize("field", FIELDS)
def test_add_mul_pow_match_sympy(field):
    rng = make_rng(f"sympy-arith-{field.char}")
    ctx = PolyRing(field, NVARS)
    for _ in range(60):
        f, g = random_element(ctx, rng), random_element(ctx, rng)
        sf, sg = to_sympy(f), to_sympy(g)
        assert f.terms == terms_of(sf, field)
        assert (f + g).terms == terms_of(sf + sg, field)
        assert (f - g).terms == terms_of(sf - sg, field)
        assert (f * g).terms == terms_of(sf * sg, field)
        k = rng.randint(0, 4)
        assert (f ** k).terms == terms_of(sf ** k, field)


@pytest.mark.parametrize("field", FIELDS)
def test_normal_form_matches_sympy_reduction(field):
    rng = make_rng(f"sympy-nf-{field.char}")
    for _ in range(40):
        ring = random_ring(field, rng)
        for _ in range(3):
            f = random_element(ring.context, rng, max_deg=5, terms=6)
            want = sympy_normal_form(to_sympy(f), ring)
            assert ring.normal_form(f).terms == terms_of(want, field)


@pytest.mark.parametrize("field", FIELDS)
def test_mat_mul_matches_sympy_matrix_product(field):
    rng = make_rng(f"sympy-matmul-{field.char}")
    for _ in range(25):
        ring = random_ring(field, rng)
        ctx = ring.context
        n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = PolyMatrix.from_rows(ctx, [[random_element(ctx, rng) for _ in range(m)]
                                       for _ in range(n)])
        b = PolyMatrix.from_rows(ctx, [[random_element(ctx, rng) for _ in range(k)]
                                       for _ in range(m)])
        sa = sympy.Matrix(n, m, [to_sympy(f).as_expr() for f in a.entries])
        sb = sympy.Matrix(m, k, [to_sympy(f).as_expr() for f in b.entries])
        got = ring.mat_mul(a, b)
        domain = to_sympy(ctx.zero()).domain
        for entry, want in zip(got.entries, sa * sb):
            reduced = sympy_normal_form(sympy.Poly(sympy.expand(want), *SYMBOLS, domain=domain),
                                        ring)
            assert entry.terms == terms_of(reduced, field)


def random_square(ctx, rng, n):
    return PolyMatrix.from_rows(ctx, [[random_element(ctx, rng, max_deg=2, terms=3)
                                       for _ in range(n)] for _ in range(n)])


def to_sympy_matrix(m):
    return sympy.Matrix(m.rows, m.cols, [to_sympy(f).as_expr() for f in m.entries])


def expanded(expr, field):
    domain = sympy.QQ if field.char == 0 else sympy.GF(field.char)
    return sympy.Poly(sympy.expand(expr), *SYMBOLS, domain=domain)


@pytest.mark.parametrize("field", FIELDS)
def test_det_and_adjugate_match_sympy(field):
    rng = make_rng(f"sympy-det-{field.char}")
    ctx = PolyRing(field, NVARS)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = random_square(ctx, rng, n)
        sm = to_sympy_matrix(m)
        assert m.det().terms == terms_of(expanded(sm.det(method="berkowitz"), field), field)
        adj = m.adjugate()
        for entry, want in zip(adj.entries, sm.adjugate(method="berkowitz")):
            assert entry.terms == terms_of(expanded(want, field), field)


def random_unit_candidate(ring, rng):
    """c + a sum of terms: nilpotent ones (on a generator's support, below its
    exponents where they pass 1), and with probability 1/3 one random term besides."""
    ctx, field = ring.context, ring.field
    d = {(0,) * NVARS: field.from_int(rng.randint(-3, 3))}
    for _ in range(rng.randint(0, 3)):
        g = rng.choice(ring.generators)
        exps = tuple(rng.randint(1, max(1, e - 1)) if e else 0 for e in g)
        d[exps] = field.from_int(rng.choice((1, 2, -1)))
    f = ctx.from_terms(d)
    if rng.random() < 1 / 3:
        f = f + random_element(ctx, rng, max_deg=2, terms=1)
    return ring.normal_form(f)


@pytest.mark.parametrize("field", FIELDS)
def test_unit_inverse_matches_sympy(field):
    """A unit iff sympy's Groebner basis of (f) + I is {1}; the inverse is
    normal and sympy reduces f * inverse - 1 to 0."""
    from srpb.quotient import unit_inverse

    rng = make_rng(f"sympy-unit-{field.char}")
    units = deep = 0
    for _ in range(40):
        # generators with an exponent past 1, so that nilpotents survive
        gens = [tuple(rng.randint(0, 3) for _ in range(NVARS)) for _ in range(rng.randint(1, 3))]
        ring = QuotientRing.make(field, NVARS, [g[:-1] + (max(g[-1], 2),) for g in gens])
        f = random_unit_candidate(ring, rng)
        sf = to_sympy(f)
        ideal = [to_sympy(ring.context.monomial(g)).as_expr() for g in ring.generators]
        basis = sympy.groebner([sf.as_expr()] + ideal, *SYMBOLS, order="grevlex",
                               domain=sf.domain)
        inv = unit_inverse(f, ring)
        assert (inv is not None) == (list(basis.exprs) == [1]), (ring, f)
        if inv is None:
            continue
        units += 1
        deep += not f.is_constant()
        sinv = to_sympy(inv)
        assert sympy_normal_form(sinv, ring) == sinv
        assert sympy_normal_form(sf * sinv - 1, ring).is_zero
    assert units < 40 and deep >= 10  # non-units, and units with a nilpotent part


def random_univariate(ctx, rng, var, max_deg=2, terms=3):
    """A sum of random terms in x_var alone."""
    d = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, max_deg) if i == var else 0 for i in range(ctx.nvars))
        d[exps] = ctx.field.from_fraction(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
    return ctx.from_terms(d)


@pytest.mark.parametrize("field", FIELDS)
def test_smith_invariant_factors_match_sympy(field):
    """The diagonal of the Smith form is sympy's invariant factors over k[x1], made monic."""
    from sympy.matrices.normalforms import invariant_factors

    rng = make_rng(f"sympy-smith-{field.char}")
    ctx = PolyRing(field, NVARS)
    domain = (sympy.QQ if field.char == 0 else sympy.GF(field.char))[SYMBOLS[1]]
    deficient = 0
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        entries = [[random_univariate(ctx, rng, 1) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 1 / 3:  # a dependent row
            f = random_univariate(ctx, rng, 1)
            entries[-1] = [f * a for a in entries[0]]
        m = PolyMatrix.from_rows(ctx, entries)
        diag = smith_normal_form(m).diagonal()
        want = invariant_factors(to_sympy_matrix(m), domain=domain)
        assert len(diag) == len(want)
        for ours, theirs in zip(diag, want):
            theirs = expanded(theirs, field)
            assert ours.terms == terms_of(theirs if theirs.is_zero else theirs.monic(), field)
        deficient += any(f.is_zero() for f in diag)
    assert deficient >= 3
