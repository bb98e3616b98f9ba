"""Golden certificate digests.

Each case builds a certificate from fixed inputs (independent of SRPB_SEED)
and pins the sha256 of its canonical serialization, so a refactor of the
engines that changes a single byte of any certificate fails here.  The
determinism criterion only compares two runs of the same code and cannot
catch that.
"""

import hashlib
import random

import pytest

from srpb import (GF, QQ, GLMat, ModIso, PolyMatrix, ProjModule, QuotientRing,
                  RingHom, SimplicialComplex, UmRow, build_fiber_square,
                  cancel_witness, extend_witness, lift_gl, milnor_patch,
                  sr_quotient, umrow_lift, whitehead_lift)
from srpb.certs import dump_canonical, gl_lift_node, patch_node
from srpb.engines import (HypothesisProfile, always_fail_oracle,
                          conjugation_witness_oracle, stable_adapter)
from srpb.errors import AllStrategiesFailed, LifterError
from helpers import (conjugated_idempotent, four_cycle, hollow_triangle,
                     random_elementary_product, random_gl_with_units)


def _rng(tag):
    return random.Random(f"golden:{tag}")


def _xy():
    return QuotientRing.make(QQ, 2, ((1, 1),))


def _corner(ctx):
    return PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])


def _hollow_instance():
    ring = sr_quotient(QQ, hollow_triangle())
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(1) + ctx.variable(2))
    e = ring.mat_mul(ring.mat_mul(g.mat, _corner(ctx)), g.inv)
    return ProjModule.make(ring, e), g


def _stabilize(iso):
    one = PolyMatrix.identity(iso.ring.context, 1)
    src = ProjModule.make(iso.ring, iso.source.matrix.direct_sum(one))
    tgt = ProjModule.make(iso.ring, iso.target.matrix.direct_sum(one))
    return ModIso.make(src, tgt, iso.fwd.direct_sum(one), iso.bwd.direct_sum(one))


def _conjugate_pair():
    r = _xy()
    ctx = r.context
    g1 = GLMat.elementary(r, 2, 0, 1, ctx.variable(0))
    g2 = GLMat.elementary(r, 2, 1, 0, ctx.variable(1))
    p = ProjModule.make(r, r.mat_mul(r.mat_mul(g1.mat, _corner(ctx)), g1.inv))
    q = ProjModule.make(r, r.mat_mul(r.mat_mul(g2.mat, _corner(ctx)), g2.inv))
    stab = _stabilize(extend_witness(q).iso.inverse().compose(extend_witness(p).iso))
    return p, q, stab


def extend_constant():
    return extend_witness(ProjModule.free(_xy(), 2, size=3))


def extend_smith():
    r = _xy()
    ctx = r.context
    g = GLMat.elementary(r, 2, 0, 1, ctx.variable(0) + ctx.variable(1))
    return extend_witness(ProjModule.make(r, r.mat_mul(r.mat_mul(g.mat, _corner(ctx)), g.inv)))


def extend_hollow_oracle():
    p, g = _hollow_instance()
    return extend_witness(p, oracle=conjugation_witness_oracle(g))


def extend_always_fail():
    return extend_witness(_hollow_instance()[0], oracle=always_fail_oracle)


def extend_stable_none():
    return extend_witness(_hollow_instance()[0], oracle=stable_adapter(None))


def extend_four_cycle():
    ring = sr_quotient(QQ, SimplicialComplex.from_facets(4, [[0, 1], [1, 2], [2, 3], [0, 3]]))
    e, g = conjugated_idempotent(ring, _rng("four-cycle"), size=2, rank=1, elementaries=3)
    return extend_witness(ProjModule.make(ring, e), oracle=conjugation_witness_oracle(g))


def cancel_conjugate_pair():
    return cancel_witness(*_conjugate_pair())


def cancel_hollow_stub():
    p, _ = _hollow_instance()
    return cancel_witness(p, p, _stabilize(ModIso.identity(p)))


def cancel_lifter_error():
    def factory(square, q2):
        def lifter(alpha0):
            raise LifterError("stub lifter")
        return lifter

    return cancel_witness(*_conjugate_pair(), aut_lifter_factory=factory)


def umrow_hollow():
    ring = sr_quotient(QQ, hollow_triangle())
    free3 = QuotientRing.make(QQ, 3, ())
    ctx = ring.context
    m = random_elementary_product(free3, 3, _rng("umrow"), count=3)
    e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
    v = ring.nf_matrix(free3.nf_matrix(e1 * m.mat))
    w = ring.nf_matrix(free3.nf_matrix(m.inv * e1.transpose()).transpose())
    return umrow_lift(UmRow.make(ring, v, w), oracle=conjugation_witness_oracle(m.inverse()))


GOLDEN = {
    extend_constant:
        "cd3c00addc746e493ba45c19cf8596e452b328cb45942626e5d958140b5d1e8f",
    extend_smith:
        "5057409cea51260593770e51419c0791f808a8f5ecd5bc9ffdc5e13f107db80f",
    extend_hollow_oracle:
        "93f78371a28c177c06493f1d9bc9e27b81f39c5a3829374173e45df0069de265",
    extend_always_fail:
        "f635f3f4739bdf6fa7b8b40f17daa62d917642eb7706f0b858dad51caf0d685f",
    extend_stable_none:
        "dc6a7f48202dc8913aee33db47d4a50ab094d2954eee17df36268dcc52a0fad5",
    extend_four_cycle:
        "1eb601379153103a1f0475049d18aee1c5086be6e20d5e3c742cd197e3373899",
    cancel_conjugate_pair:
        "51665cf732ab16768513d6cdc4df9359691c16c79ef1ceb2c01c65dbeb148747",
    cancel_hollow_stub:
        "ce946d165f580c8ccd7f2e99a07bf8d27be89f4913e78ee1b04bb73b0aa9c2a3",
    cancel_lifter_error:
        "f5d6c32053a5d5390a074037833f130fc985f7f10fccef195ac95b5cfc2a17c4",
    umrow_hollow:
        "0b1ee0917cc2cf5d3ee2bee2ae69f90c99cf9ecff1544ea37831eab4d0c33e29",
}


@pytest.mark.parametrize("build", list(GOLDEN), ids=lambda f: f.__name__)
def test_certificate_digest(build):
    res = build()
    digest = hashlib.sha256(dump_canonical(res.certificate).encode()).hexdigest()
    assert digest == GOLDEN[build]


# -- patch and GL-lift certificates, as ``srpb patch`` and ``srpb gl lift`` emit them

def patch_certificate(field, cplx, rank):
    sq = build_fiber_square(field, cplx)
    sigma = random_gl_with_units(sq.a0, rank, _rng(f"patch:{field.char}:{rank}"))
    module = milnor_patch(sq, rank, sigma)
    u = whitehead_lift(sigma, sq.j2, sq.section)
    return patch_node(sq, rank, sigma, u, module.matrix,
                      HypothesisProfile(field.char, rank).payload())


def gl_lift_certificate(sigma, failing=()):
    """The certificate of lifting sigma to the free ring; each of ``failing``
    must fail alone, so the default stack reaches the intended strategy."""
    up = QuotientRing.make(sigma.ring.field, sigma.ring.nvars, ())
    pi = RingHom.quotient_map(up, sigma.ring)
    for name in failing:
        with pytest.raises(AllStrategiesFailed):
            lift_gl(sigma, pi, strategies=(name,))
    delta = lift_gl(sigma, pi)
    return gl_lift_node(sigma.ring, up, sigma, delta,
                        HypothesisProfile(up.field.char, sigma.size).payload())


def gl_entrywise():
    r = _xy()
    ctx = r.context
    x, two, half = ctx.variable(0), ctx.constant(2), ctx.constant(r.field.inv(2))
    sigma = GLMat(r, PolyMatrix.from_rows(ctx, [[two, x], [ctx.zero(), ctx.one()]]),
                  PolyMatrix.from_rows(ctx, [[half, -(x * half)], [ctx.zero(), ctx.one()]]))
    return gl_lift_certificate(sigma)


def gl_elementary_with_swaps():
    # no unit in row 0, and the first unit of row 1 is off the diagonal, so the
    # first pivot moves by a row swap and a column swap; det == 1 - xy upstairs
    r = _xy()
    ctx = r.context
    one, x, y = ctx.one(), ctx.variable(0), ctx.variable(1)
    sigma = GLMat(r, PolyMatrix.from_rows(ctx, [[one + x, one + y], [x, one]]),
                  PolyMatrix.from_rows(ctx, [[one, -(one + y)], [-x, one + x]]))
    return gl_lift_certificate(sigma, failing=("entrywise",))


def gl_descent():
    # the instance of test_lifting.test_descent_succeeds_where_entrywise_fails
    r = _xy()
    ctx = r.context
    x, y = ctx.variable(0), ctx.variable(1)
    m1 = PolyMatrix.from_rows(ctx, [[ctx.one() + x, x], [-x, ctx.one() - x]])
    m2 = PolyMatrix.from_rows(ctx, [[ctx.one() - y, y], [-y, ctx.one() + y]])
    eye = PolyMatrix.identity(ctx, 2)
    sigma = GLMat(r, r.nf_matrix(m1 + m2 - eye),
                  r.nf_matrix((eye - (m1 - eye)) + (eye - (m2 - eye)) - eye))
    return gl_lift_certificate(sigma, failing=("entrywise", "elementary"))


PATCH_COMPLEXES = {"hollow": hollow_triangle, "four-cycle": four_cycle}

# (complex, characteristic, rank) -> digest
PATCH_GOLDEN = {
    ("hollow", 0, 2):
        "e4716af9a4d2f0c7dbbc45e23eb51fb36ade797860d087ea5a628846bca54a2d",
    ("hollow", 0, 3):
        "bf2de8ba174cc97ca455c3eb5fecf4566ed806a5903cc723683b671e9e216844",
    ("hollow", 5, 2):
        "687588d64cbf053fe80736d77f70e2b1361e162274d71cfa02e26bc67f3c74b7",
    ("hollow", 5, 3):
        "0c41fad7c4931070bf2aa1fe362d8f85fc3ddea4f814b729c9b3e21647d13c61",
    ("four-cycle", 0, 2):
        "e43efc0ff769f36d9bf622db89baaa271bf42d28b4318cc989480a37aa7ea17d",
    ("four-cycle", 0, 3):
        "cc130915205bffbc7e7d75ab9bc217bf0d7a699a01878479d417711a176dcf18",
    ("four-cycle", 5, 2):
        "5265cac1f5dada6718b80dca6a64d079103c0ab45bced8df604e90e9075e2f32",
    ("four-cycle", 5, 3):
        "fc21d28a4799d51e244cf088470134ae177da3c6ba5e23d9dcefe63f5037be69",
}

GL_LIFT_GOLDEN = {
    gl_entrywise:
        "e96d97a114da784ddd1e3090658fe8afcd85ce0ac7ab12080f179922b16fb493",
    gl_elementary_with_swaps:
        "b6b442fb9e306be8d1eac7f4dd2ec48ae3e6812dcecba8514788370086c5553a",
    gl_descent:
        "ceef0dd379d5b5aace22588773828726423558eb51f6aeaa834e28acfac88206",
}


def _digest(cert):
    return hashlib.sha256(dump_canonical(cert).encode()).hexdigest()


@pytest.mark.parametrize("case", list(PATCH_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_patch_certificate_digest(case):
    name, char, rank = case
    field = GF(char) if char else QQ
    cert = patch_certificate(field, PATCH_COMPLEXES[name](), rank)
    assert _digest(cert) == PATCH_GOLDEN[case]


@pytest.mark.parametrize("build", list(GL_LIFT_GOLDEN), ids=lambda f: f.__name__)
def test_gl_lift_certificate_digest(build):
    assert _digest(build()) == GL_LIFT_GOLDEN[build]
