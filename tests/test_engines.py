import random

import pytest

from srpb import (GF, QQ, GLMat, ModIso, PolyMatrix, ProjModule, QuotientRing,
                  SimplicialComplex,
                  UmRow, cancel_witness, extend_witness, module_rank,
                  parse_expression, section_aut_lifter, sr_quotient, umrow_lift,
                  unimodular_cert, verify_payload)
from srpb import engines
from srpb.engines import (always_fail_oracle, chain_oracles,
                          conjugation_witness_oracle, stable_adapter)
from srpb.errors import ContextError, HomError, PreconditionError
from helpers import (conjugated_idempotent, hollow_triangle, make_rng,
                     random_elementary_product, stabilize, two_points)


def xy_ring(field=QQ):
    return QuotientRing.make(field, 2, ((1, 1),))


def free_ring(field=QQ, n=2):
    return QuotientRing.make(field, n, ())


# -- extension engine -------------------------------------------------------------

def test_extend_constant_module_trivial_tree():
    r = xy_ring()
    p = ProjModule.free(r, 2, size=3)
    res = extend_witness(p)
    assert res.ok
    assert res.certificate["root"]["kind"] == "base"
    assert res.certificate["root"]["method"] == "constant"
    assert verify_payload(res.certificate).ok


def test_extend_conjugated_idempotent_two_points():
    r = xy_ring()
    ctx = r.context
    g = GLMat.elementary(r, 2, 0, 1, ctx.variable(0))
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    e = r.mat_mul(r.mat_mul(g.mat, corner), g.inv)
    p = ProjModule.make(r, e)
    res = extend_witness(p)
    assert res.ok
    assert module_rank(res.iso.target) == 1
    rep = verify_payload(res.certificate)
    assert rep.ok, rep.summary()


def hard_hollow_instance(field=QQ):
    """Conjugated idempotent on the hollow triangle whose base cases are
    genuinely bivariate (builtin alone cannot discharge them)."""
    ring = sr_quotient(field, hollow_triangle())
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(1) + ctx.variable(2))
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    e = ring.mat_mul(ring.mat_mul(g.mat, corner), g.inv)
    return ProjModule.make(ring, e), g


def test_extend_failing_oracle_yields_obligations():
    p, _ = hard_hollow_instance()
    res = extend_witness(p, oracle=always_fail_oracle)
    assert not res.ok
    assert res.obligations
    assert all(ob.kind == "extend" for ob in res.obligations)
    # obligations name polynomial-ring subproblems (edge simplices)
    for ob in res.obligations:
        assert all(sum(g) == 1 for g in ob.ring.generators)
    # partial tree still verifies (claims nothing false)
    rep = verify_payload(res.certificate)
    assert rep.ok
    assert any("obligation" in w or "partial" in w for w in rep.warnings)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_extend_hollow_triangle_with_witness_oracle(field):
    ring = sr_quotient(field, hollow_triangle())
    rng = make_rng(f"extend-wit-{field.char}")
    for _ in range(5):
        e, g = conjugated_idempotent(ring, rng)
        p = ProjModule.make(ring, e)
        res = extend_witness(p, oracle=conjugation_witness_oracle(g))
        assert res.ok
        rep = verify_payload(res.certificate)
        assert rep.ok, rep.summary()
        assert res.iso.target.matrix == p.matrix.augmentation()


def test_extend_rejects_non_squarefree():
    r = QuotientRing.make(QQ, 1, ((2,),))
    with pytest.raises(PreconditionError):
        extend_witness(ProjModule.free(r, 1))


def test_extend_determinism():
    ring = xy_ring()
    rng = make_rng("determinism")
    e, g = conjugated_idempotent(ring, rng, size=3, rank=2)
    p = ProjModule.make(ring, e)
    from srpb.certs import dump_canonical

    r1 = extend_witness(p)
    r2 = extend_witness(p)
    assert dump_canonical(r1.certificate) == dump_canonical(r2.certificate)


def test_stable_adapter_tags_obligations():
    p, _ = hard_hollow_instance()
    res = extend_witness(p, oracle=stable_adapter(None))
    assert not res.ok
    assert all(ob.kind == "stable-extend" for ob in res.obligations)


def test_stable_adapter_passthrough_free():
    r = xy_ring()
    p = ProjModule.free(r, 1, size=2)
    res = extend_witness(p, oracle=stable_adapter(None))
    assert res.ok


def test_chain_oracles():
    calls = []

    def first(p):
        calls.append("first")
        return None

    r = xy_ring()
    rng = make_rng("chain")
    e, g = conjugated_idempotent(r, rng, size=2, rank=1)
    # force a non-builtin base by using the hollow triangle instead
    ring = sr_quotient(QQ, hollow_triangle())
    e, g = conjugated_idempotent(ring, rng, size=2, rank=1)
    p = ProjModule.make(ring, e)
    res = extend_witness(p, oracle=chain_oracles(first, conjugation_witness_oracle(g)))
    assert res.ok


# -- cancellation engine ------------------------------------------------------------

@pytest.mark.seeded
def test_cancel_identity_case():
    r = xy_ring()
    rng = make_rng("cancel-id")
    e, _ = conjugated_idempotent(r, rng, size=2, rank=1)
    p = ProjModule.make(r, e)
    stab = stabilize(ModIso.identity(p))
    res = cancel_witness(p, p, stab)
    assert res.ok
    assert verify_payload(res.certificate).ok
    assert res.iso.fwd == p.matrix


@pytest.mark.seeded
def test_cancel_lifts_through_the_extension_witness():
    """Q_2 = E over the cone side has apex terms, so the section alone cannot
    lift the overlap automorphism; conjugating by Q_2's extension witness can."""
    r = xy_ring()
    ctx = r.context
    e = PolyMatrix.from_rows(ctx, [[ctx.one(), parse_expression("x0 - 3*x1 - 2", ctx)],
                                   [ctx.zero(), ctx.zero()]])
    p = ProjModule.make(r, e)
    stab = stabilize(ModIso.identity(p))
    stuck = cancel_witness(p, p, stab, aut_lifter_factory=section_aut_lifter)
    assert [o.kind for o in stuck.obligations] == ["cancel"]
    res = cancel_witness(p, p, stab)
    assert res.ok
    rep = verify_payload(res.certificate)
    assert rep.ok, rep.summary()
    assert res.iso.fwd == e


@pytest.mark.seeded
def test_cancel_conjugate_pair():
    r = xy_ring()
    ctx = r.context
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    g1 = GLMat.elementary(r, 2, 0, 1, ctx.variable(0))
    g2 = GLMat.elementary(r, 2, 1, 0, ctx.variable(1))
    p = ProjModule.make(r, r.mat_mul(r.mat_mul(g1.mat, corner), g1.inv))
    q = ProjModule.make(r, r.mat_mul(r.mat_mul(g2.mat, corner), g2.inv))
    rp, rq = extend_witness(p), extend_witness(q)
    stab = stabilize(rq.iso.inverse().compose(rp.iso))
    res = cancel_witness(p, q, stab)
    assert res.ok
    rep = verify_payload(res.certificate)
    assert rep.ok, rep.summary()
    assert res.iso.source.matrix == p.matrix and res.iso.target.matrix == q.matrix


@pytest.mark.seeded
def test_cancel_free_pair_with_whitehead_stab():
    from srpb import build_fiber_square

    sq = build_fiber_square(QQ, two_points())
    ring = sq.a
    p = ProjModule.free(ring, 1, size=2)
    q = ProjModule.free(ring, 1, size=2)
    stab = stabilize(ModIso.identity(p))
    res = cancel_witness(p, q, stab)
    assert res.ok and verify_payload(res.certificate).ok


@pytest.mark.seeded
def test_cancel_obligations_on_hollow_triangle_stub():
    p, _ = hard_hollow_instance()
    stab = stabilize(ModIso.identity(p))
    res = cancel_witness(p, p, stab)
    assert not res.ok
    assert res.obligations
    assert all(ob.kind == "cancel" for ob in res.obligations)


@pytest.mark.seeded
def test_cancel_rank_mismatch_rejected():
    r = xy_ring()
    p = ProjModule.free(r, 1, size=2)
    q = ProjModule.free(r, 2, size=2)
    with pytest.raises(PreconditionError):
        cancel_witness(p, q, stabilize(ModIso.identity(p)))


# -- unimodular row lifting -----------------------------------------------------------

def roundtrip_row(field, rng, r=3):
    free = free_ring(field)
    B = xy_ring(field)
    m = random_elementary_product(free, r, rng, count=rng.randint(1, 5))
    ctx = B.context
    e1 = PolyMatrix.from_scalars(ctx, [[1 if j == 0 else 0 for j in range(r)]])
    u0 = free.nf_matrix(e1 * m.mat)
    w0 = free.nf_matrix(m.inv * e1.transpose()).transpose()
    return UmRow.make(B, B.nf_matrix(u0), B.nf_matrix(w0)), u0


def test_umrow_constant_row_lifts_to_itself():
    B = xy_ring()
    ctx = B.context
    v = PolyMatrix.from_scalars(ctx, [[2, 0, 1]])
    w = unimodular_cert(v, B)
    row = UmRow.make(B, v, w)
    res = umrow_lift(row)
    assert res.ok
    assert res.row.v.is_constant()
    assert verify_payload(res.certificate).ok


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_umrow_roundtrips(field):
    rng = make_rng(f"umrow-{field.char}")
    B = xy_ring(field)
    pi_imgs = None
    for _ in range(6):
        row, _ = roundtrip_row(field, rng)
        res = umrow_lift(row)
        assert res.ok, res.diagnostics
        # congruence and certificate identity
        lifted = res.row
        down = B.nf_matrix(PolyMatrix(B.context, 1, lifted.width, lifted.v.entries))
        assert down == row.v
        one = lifted.ring.context.one()
        assert lifted.ring.mat_mul(lifted.v, lifted.w.transpose())[0, 0] == one
        rep = verify_payload(res.certificate)
        assert rep.ok, rep.summary()


def test_umrow_rank_one_unit_constant():
    B = xy_ring()
    ctx = B.context
    from fractions import Fraction

    v = PolyMatrix.from_scalars(ctx, [[3]])
    w = PolyMatrix.from_scalars(ctx, [[Fraction(1, 3)]])
    row = UmRow.make(B, v, w)
    res = umrow_lift(row)
    assert res.ok
    assert res.row.v == PolyMatrix.from_scalars(res.row.ring.context, [[3]])


def test_umrow_into_intermediate_quotient():
    # lift along R/I -> R/J with I = (x0x1x2) inside J = (x0x1, x1x2, x0x2)
    field = QQ
    J_ring = QuotientRing.make(field, 3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    I_ring = QuotientRing.make(field, 3, ((1, 1, 1),))
    ctx = J_ring.context
    rng = make_rng("umrow-partial")
    m = random_elementary_product(I_ring, 3, rng, count=3)
    e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
    v = J_ring.nf_matrix(e1 * m.mat)
    w = J_ring.nf_matrix((m.inv * e1.transpose()).transpose())
    row = UmRow.make(J_ring, v, w)
    res = umrow_lift(row, target=I_ring)
    assert res.ok
    assert res.row.ring == I_ring
    # reduces back to the input row
    red = J_ring.nf_matrix(PolyMatrix(ctx, 1, 3, res.row.v.entries))
    assert red == row.v
    assert verify_payload(res.certificate).ok


def test_extend_four_cycle_deeper_recursion():
    fc = SimplicialComplex.from_facets(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    ring = sr_quotient(QQ, fc)
    rng = make_rng("four-cycle")
    for _ in range(3):
        e, g = conjugated_idempotent(ring, rng, size=2, rank=1, elementaries=3)
        p = ProjModule.make(ring, e)
        res = extend_witness(p, oracle=conjugation_witness_oracle(g))
        assert res.ok, [o.kind for o in res.obligations]
        rep = verify_payload(res.certificate)
        assert rep.ok, rep.summary()


def test_umrow_over_hollow_triangle_quotient():
    # J has three variables; the kernel extension and the GL descent both
    # recurse through a two-level square
    hollow_ring = sr_quotient(QQ, hollow_triangle())
    free3 = QuotientRing.make(QQ, 3, ())
    ctx = hollow_ring.context
    rng = make_rng("umrow-hollow")
    for _ in range(3):
        m = random_elementary_product(free3, 3, rng, count=rng.randint(1, 4))
        e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
        v = hollow_ring.nf_matrix(free3.nf_matrix(e1 * m.mat))
        w = hollow_ring.nf_matrix(free3.nf_matrix(m.inv * e1.transpose()).transpose())
        row = UmRow.make(hollow_ring, v, w)
        # kernel idempotent is m^-1 diag(0,1,1) m, so m^-1 witnesses the bases
        res = umrow_lift(row, oracle=conjugation_witness_oracle(m.inverse()))
        assert res.ok, res.diagnostics or [o.kind for o in res.obligations]
        rep = verify_payload(res.certificate)
        assert rep.ok, rep.summary()
        down = hollow_ring.nf_matrix(PolyMatrix(ctx, 1, 3, res.row.v.entries))
        assert down == row.v


def _hollow_row(m: GLMat) -> UmRow:
    """The first row of m over the hollow triangle's ring, completed by m^-1."""
    ring = sr_quotient(QQ, hollow_triangle())
    e1 = PolyMatrix.from_scalars(ring.context, [[1, 0, 0]])
    v = ring.nf_matrix(m.ring.nf_matrix(e1 * m.mat))
    w = ring.nf_matrix(m.ring.nf_matrix(m.inv * e1.transpose()).transpose())
    return UmRow.make(ring, v, w)


def test_umrow_partial_with_obligations():
    free3 = QuotientRing.make(QQ, 3, ())
    ctx = free3.context
    m = (GLMat.elementary(free3, 3, 0, 1, ctx.variable(2))
         * GLMat.elementary(free3, 3, 1, 2, ctx.variable(0) + ctx.variable(1)))
    res = umrow_lift(_hollow_row(m), oracle=always_fail_oracle)
    assert not res.ok and res.obligations
    assert {o.kind for o in res.obligations} == {"extend"}
    rep = verify_payload(res.certificate)
    assert rep.ok, rep.summary()
    assert "root: row lift left partial" in rep.warnings


def test_umrow_partial_when_the_gl_stack_is_exhausted():
    # the first row test_umrow_over_hollow_triangle_quotient draws at SRPB_SEED=27:
    # descent's cone-side determinant 1 - 4*x0^2*x1*x2^2 is not a unit upstairs
    rng = random.Random("27:umrow-hollow")
    free3 = QuotientRing.make(QQ, 3, ())
    m = random_elementary_product(free3, 3, rng, count=rng.randint(1, 4))
    res = umrow_lift(_hollow_row(m), oracle=conjugation_witness_oracle(m.inverse()))
    assert not res.ok and not res.obligations
    assert set(res.diagnostics) == {"entrywise", "elementary", "descent"}
    rep = verify_payload(res.certificate)
    assert rep.ok, rep.summary()
    assert "root: row lift left partial" in rep.warnings


@pytest.mark.parametrize("target, error", [
    (QuotientRing.make(QQ, 4, ()), ContextError),
    (QuotientRing.make(GF(5), 3, ()), ContextError),
    (QuotientRing.make(QQ, 3, ((1, 0, 0),)), HomError),
], ids=["more-variables", "other-field", "escaping-ideal"])
def test_umrow_refuses_a_target_that_does_not_map_onto_the_row_ring(monkeypatch, target,
                                                                    error):
    # (1, x2) over the hollow triangle's ring; no extension may run
    ring = sr_quotient(QQ, hollow_triangle())
    ctx = ring.context
    row = UmRow.make(ring, PolyMatrix(ctx, 1, 2, (ctx.one(), ctx.variable(2))),
                     PolyMatrix.from_scalars(ctx, [[1, 0]]))

    def no_extension(*args):
        raise AssertionError("the target is checked before any extension runs")

    monkeypatch.setattr(engines, "_extend", no_extension)
    with pytest.raises(error):
        umrow_lift(row, target=target)


def test_umrow_profile_recorded():
    B = xy_ring(GF(5))
    ctx = B.context
    v = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
    row = UmRow.make(B, v, v)
    res = umrow_lift(row)
    prof = res.certificate["profile"]
    assert prof["characteristic"] == 5
    assert prof["rank"] == 3
    assert prof["base_dimension"] == 0
    assert prof["char_prime_to_rank_factorial"] is True  # gcd(5, 3!) == 1
    assert prof["rank_at_least_half_dim_plus_two"] is True
