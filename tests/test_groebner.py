import hashlib

import pytest

from srpb import (GF, QQ, PolyMatrix, PolyRing, QuotientRing, buchberger,
                  member, unimodular_cert, unit_inverse)
from srpb import groebner
from srpb.errors import InputError
from srpb.expr import parse_expression
from helpers import cyclic_gens, make_rng, random_poly


def ctx2(field=QQ):
    return PolyRing(field, 2)


def test_bezout_of_coprime_linears():
    ctx = ctx2()
    x = ctx.variable(0)
    gens = [x, x - ctx.one()]
    gb = buchberger(gens)
    assert ctx.one() in gb.polys()
    cert = member(ctx.one(), gens)
    assert cert.coefficients == (ctx.one(), -ctx.one())


def test_single_generator_basis():
    ctx = ctx2()
    x = ctx.variable(0)
    g = x * x - ctx.one()
    gb = buchberger([g])
    assert gb.polys() == (g,)


def test_unit_ideal_elimination():
    ctx = ctx2()
    x, y = ctx.variable(0), ctx.variable(1)
    gb = buchberger([x * y - ctx.one(), x * x])
    assert gb.polys() == (ctx.one(),)


def test_member_examples():
    ctx = ctx2()
    x, y = ctx.variable(0), ctx.variable(1)
    assert member(ctx.one(), [x, x - ctx.one()]) is not None
    assert member(ctx.one(), [x, y]) is None
    assert member(x, [x * x]) is None


def test_membership_certificates_random():
    rng = make_rng("member")
    ctx = PolyRing(QQ, 3)
    for _ in range(30):
        gens = [random_poly(ctx, rng, max_deg=3, terms=3, nonzero=True)
                for _ in range(rng.randint(1, 3))]
        # known member: a random combination
        f = ctx.zero()
        for g in gens:
            f = f + random_poly(ctx, rng, max_deg=2, terms=2) * g
        cert = member(f, gens)
        assert cert is not None
        acc = ctx.zero()
        for c, g in zip(cert.coefficients, gens):
            acc = acc + c * g
        assert acc == f


def test_oracle_agreement_monomial_ideals():
    rng = make_rng("gb-oracle")
    rings = [QuotientRing.make(QQ, 3, ((1, 1, 0), (0, 0, 2))),
             QuotientRing.make(QQ, 3, ((1, 0, 1),)),
             QuotientRing.make(QQ, 2, ((2, 0), (0, 3))),
             QuotientRing.make(QQ, 3, ((1, 1, 1), (2, 0, 0)))]
    agree = 0
    for k in range(200):
        ring = rings[k % len(rings)]
        gens = list(ring.generator_polys())
        f = random_poly(ring.context, rng, max_deg=4, terms=4)
        got = member(f, gens) is not None
        want = ring.normal_form(f).is_zero()
        assert got == want
        agree += 1
    assert agree == 200


def test_groebner_mod_p():
    ctx = ctx2(GF(5))
    x, y = ctx.variable(0), ctx.variable(1)
    gb = buchberger([x * y - ctx.one(), x * x])
    assert gb.polys() == (ctx.one(),)


def test_empty_generators_rejected():
    with pytest.raises(InputError):
        buchberger([])


def test_unit_inverse():
    ring = QuotientRing.make(QQ, 1, ((2,),))  # Q[x]/(x^2)
    ctx = ring.context
    x = ctx.variable(0)
    inv = unit_inverse(ctx.one() + x, ring)
    assert inv == ctx.one() - x
    assert unit_inverse(x, ring) is None


def test_unimodular_cert_examples():
    ring = QuotientRing.make(QQ, 2, ((1, 1),))
    ctx = ring.context
    x = ctx.variable(0)
    v = PolyMatrix(ctx, 1, 2, (ctx.one() + x, x))
    w = unimodular_cert(v, ring)
    assert w is not None
    assert ring.nf_matrix(v * w.transpose())[0, 0] == ctx.one()

    bad = PolyMatrix(ctx, 1, 2, (ring.normal_form(x), ring.normal_form(ctx.variable(1))))
    assert unimodular_cert(bad, ring) is None

    v2 = PolyMatrix(ctx, 1, 2, (x, ctx.one() - x))
    w2 = unimodular_cert(v2, ring)
    assert ring.nf_matrix(v2 * w2.transpose())[0, 0] == ctx.one()


# (field, nvars, generators, term operations spent, digest of the basis and its
# cofactor rows): a change to Buchberger must keep both its work and its output
PINNED_BASES = {
    "cyclic4-Q": (QQ, 4, cyclic_gens(4), 7_716, "e842f96d83bc7844"),
    "cyclic4-F5": (GF(5), 4, cyclic_gens(4), 7_710, "96794f505b9b208e"),
    "cyclic4-F32003": (GF(32003), 4, cyclic_gens(4), 7_716, "c0abcf371645f02f"),
    "parabola-hyperbola-Q": (QQ, 2, ["x0^2 - x1", "x0*x1 - 1"],
                             61, "f30fc5a6219389fa"),
    "twisted-cubic-Q": (QQ, 4, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"],
                        61, "fbfc2363357dbf1c"),
    "cyclic-swap-F7": (GF(7), 3, ["x0*x1 - x2", "x1*x2 - x0", "x0*x2 - x1"],
                       464, "8cecc94a5139e7cf"),
    "with-zero-and-unit-F5": (GF(5), 2, ["0", "2*x0 + 3", "x0*x1^2 + x1"],
                              46, "14ef97fd5b0b6a10"),
}


def basis_digest(gb) -> str:
    text = "\n".join(f"{g} | " + ", ".join(str(c) for c in row) for g, row in gb.basis)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_buchberger_work_and_output_are_pinned(monkeypatch, name):
    field, nvars, texts, spent, digest = PINNED_BASES[name]
    ctx = PolyRing(field, nvars)
    budgets = []

    class Tracked(groebner._Budget):
        def __init__(self):
            super().__init__()
            budgets.append(self)

    monkeypatch.setattr(groebner, "_Budget", Tracked)
    gb = buchberger([parse_expression(t, ctx) for t in texts])
    assert len(budgets) == 1
    assert (groebner.BUCHBERGER_MAX_TERM_OPS - budgets[0].left, basis_digest(gb)) == \
        (spent, digest)
