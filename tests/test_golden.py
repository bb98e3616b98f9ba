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

from srpb import (QQ, GLMat, ModIso, PolyMatrix, ProjModule, QuotientRing,
                  SimplicialComplex, UmRow, cancel_witness, extend_witness,
                  sr_quotient, umrow_lift)
from srpb.certs import dump_canonical
from srpb.engines import (always_fail_oracle, conjugation_witness_oracle,
                          stable_adapter)
from srpb.errors import LifterError
from helpers import (conjugated_idempotent, hollow_triangle,
                     random_elementary_product)


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
