"""Acceptance suite: one test per criterion, each printing a PASS line.

All tolerances are exact (term-list equality of canonical polynomials);
runtime bounds are asserted with time.monotonic.
"""

import time
from itertools import combinations_with_replacement

import pytest

from srpb import (GF, QQ, GLMat, PolyMatrix, ProjModule, QuotientRing,
                  RingHom, UmRow, build_fiber_square, extend_witness,
                  fiber_check, lift_gl, member, milnor_patch, module_rank,
                  smith_normal_form, sr_quotient, umrow_lift, verify_payload,
                  whitehead_lift)
from srpb.cli import main as cli_main
from srpb.engines import HypothesisProfile, conjugation_witness_oracle
from srpb.errors import AllStrategiesFailed
from srpb.certs import dump_canonical, gl_lift_node, patch_node
from srpb.lifting import whitehead_lift
from srpb.poly import PolyRing
from srpb.quotient import apex_decomposition
from srpb import files as srpb_files
from helpers import (SEED, complexes_on, conjugated_idempotent, corpus_complexes,
                     corpus_squares, hollow_triangle, make_rng, random_complex,
                     random_elementary_product, random_gl_with_units,
                     random_poly, two_points)


def record(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status} ({elapsed:6.2f}s < {budget:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"


def monomials_up_to(n: int, degree: int):
    out = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(n), total):
            e = [0] * n
            for v in combo:
                e[v] += 1
            out.append(tuple(e))
    return out


def test_criterion_01_stanley_reisner_soundness():
    t0 = time.monotonic()
    rng = make_rng("accept-1")
    checks = 0

    def scan(c, monos, polys):
        nonlocal checks
        ring = sr_quotient(QQ, c)
        nf = ring.normal_form
        fmasks = c.facet_masks
        for (exps, supp), poly in zip(monos, polys):
            survives = not nf(poly).is_zero()
            is_face = any(supp & fm == supp for fm in fmasks)
            assert survives == is_face, (c, exps)
            checks += 1

    for n in range(1, 6):
        ctx = PolyRing(QQ, n)
        monos = [(e, sum(1 << i for i, k in enumerate(e) if k))
                 for e in monomials_up_to(n, 4)]
        polys = [ctx.monomial(e) for e, _ in monos]
        for c in complexes_on(n):
            scan(c, monos, polys)

    ctx6 = PolyRing(QQ, 6)
    monos6 = [(e, sum(1 << i for i, k in enumerate(e) if k))
              for e in monomials_up_to(6, 4)]
    polys6 = [ctx6.monomial(e) for e, _ in monos6]
    for _ in range(200):
        scan(random_complex(6, rng), monos6, polys6)

    record(1, checks > 950_000, f"{checks} survival checks (exhaustive <=5 + 200 random 6)",
           time.monotonic() - t0, 10.0)


def test_criterion_02_cartesian_squares():
    t0 = time.monotonic()
    done = 0
    for c in corpus_complexes():
        if c.is_simplex():
            continue
        split = apex_decomposition(c)  # re-checks the three set identities
        cone_part = split.cone_part()
        assert split.deletion_part.face_masks | cone_part.face_masks == c.face_masks
        assert split.deletion_part.face_masks & cone_part.face_masks == split.link_part.face_masks
        sq = build_fiber_square(QQ, c)
        rep = fiber_check(sq, 4)
        assert rep.ok, (c, rep.failure)
        done += 1
    two = fiber_check(build_fiber_square(QQ, two_points()), 3)
    assert two.counts() == (7, 4, 4, 1)
    hollow = fiber_check(build_fiber_square(QQ, hollow_triangle()), 2)
    assert hollow.counts() == (10, 6, 9, 5)
    record(2, done > 100, f"{done} corpus squares cartesian at D=4; 7=4+4-1 and 10=6+9-5",
           time.monotonic() - t0, 30.0)


def test_criterion_03_milnor_patching():
    t0 = time.monotonic()
    rng = make_rng("accept-3")
    squares = corpus_squares()
    done = 0
    for k in range(50):
        _, sq = squares[k % len(squares)]
        r = rng.randint(1, 3)
        sigma = random_gl_with_units(sq.a0, r, rng, count=4)
        p = milnor_patch(sq, r, sigma)
        ring = sq.a
        ctx = ring.context
        assert ring.mat_mul(p.matrix, p.matrix) == p.matrix
        corner = PolyMatrix.identity(ctx, r).direct_sum(PolyMatrix.zeros(ctx, r, r))
        assert sq.i1.apply_matrix(p.matrix) == sq.a1.nf_matrix(corner)
        u = whitehead_lift(sigma, sq.j2, sq.section)
        e2 = sq.a2.nf_matrix(u.mat * corner * u.inv)
        assert sq.i2.apply_matrix(p.matrix) == e2
        assert module_rank(p) == r
        done += 1
    record(3, done == 50, "50 random patches: idempotent, restrictions, rank, exact",
           time.monotonic() - t0, 60.0)


def test_criterion_04_extension_engine():
    t0 = time.monotonic()
    rng = make_rng("accept-4")
    two_ring = sr_quotient(QQ, two_points())
    hollow_ring = sr_quotient(QQ, hollow_triangle())
    done = 0
    for k in range(50):
        ring = two_ring if k % 2 == 0 else hollow_ring
        e, g = conjugated_idempotent(ring, rng, elementaries=4, max_deg=2)
        p = ProjModule.make(ring, e)
        oracle = None if ring is two_ring else conjugation_witness_oracle(g)
        res = extend_witness(p, oracle=oracle)
        assert res.ok, [o.kind for o in res.obligations]
        rep = verify_payload(res.certificate)
        assert rep.ok, rep.summary()
        done += 1
    record(4, done == 50, "50 conjugated idempotents extended; verifier passed each",
           time.monotonic() - t0, 120.0)


def _roundtrip_row(field, rng, width=3):
    free = QuotientRing.make(field, 2, ())
    ring = QuotientRing.make(field, 2, ((1, 1),))
    m = random_elementary_product(free, width, rng, count=rng.randint(1, 5))
    ctx = ring.context
    e1 = PolyMatrix.from_scalars(ctx, [[1 if j == 0 else 0 for j in range(width)]])
    v = ring.nf_matrix(free.nf_matrix(e1 * m.mat))
    w = ring.nf_matrix(free.nf_matrix(m.inv * e1.transpose()).transpose())
    return UmRow.make(ring, v, w)


def test_criterion_05_umrow_lifting():
    t0 = time.monotonic()
    done = 0
    for field, tag in ((QQ, "Q"), (GF(5), "F5")):
        rng = make_rng(f"accept-5-{tag}")
        for _ in range(15):
            row = _roundtrip_row(field, rng)
            res = umrow_lift(row)
            assert res.ok, res.diagnostics
            lifted = res.row
            ring = row.ring
            # u mod J == v, exactly
            down = ring.nf_matrix(PolyMatrix(ring.context, 1, 3, lifted.v.entries))
            assert down == row.v
            # certificate identity
            one = lifted.ring.context.one()
            assert lifted.ring.mat_mul(lifted.v, lifted.w.transpose())[0, 0] == one
            # intermediate identity v*sigma == v(0), from the certificate
            node = res.certificate["root"]
            from srpb.certs import parse_matrix
            sigma = parse_matrix(node["sigma"]["m"], ring.context)
            assert ring.mat_mul(row.v, sigma) == row.v.augmentation()
            assert verify_payload(res.certificate).ok
            done += 1
    record(5, done == 30, "30 roundtrip rows lifted over Q and F5, all identities exact",
           time.monotonic() - t0, 120.0)


def test_criterion_06_gl_lift_slice(tmp_path):
    t0 = time.monotonic()
    done = 0
    for field, tag in ((QQ, "Q"), (GF(5), "F5")):
        rng = make_rng(f"accept-6-{tag}")
        free = QuotientRing.make(field, 2, ())
        ring = QuotientRing.make(field, 2, ((1, 1),))
        pi = RingHom.quotient_map(free, ring)
        for _ in range(15):
            d0 = random_elementary_product(free, 3, rng, count=rng.randint(1, 5))
            sigma = d0.apply_hom(pi)
            delta = lift_gl(sigma, pi)
            assert pi.apply_matrix(delta.mat) == sigma.mat
            eye = PolyMatrix.identity(free.context, 3)
            assert free.mat_mul(delta.mat, delta.inv) == eye
            done += 1

    # adversarial: stack exhaustion surfaces as exit code 3, never a false lift
    hring = sr_quotient(QQ, hollow_triangle())
    ctx = hring.context
    x0, x1, x2 = (ctx.variable(i) for i in range(3))
    h = PolyMatrix.from_rows(ctx, [[x1 - x2, x1 + x2], [-(x1 + x2), x2 - x1]])
    xh = PolyMatrix.from_rows(ctx, [[x0 * p for p in h.row(0)], [x0 * p for p in h.row(1)]])
    eye = PolyMatrix.identity(ctx, 2)
    adv = GLMat(hring, hring.nf_matrix(eye + xh), hring.nf_matrix(eye - xh))
    with pytest.raises(AllStrategiesFailed):
        lift_gl(adv, RingHom.quotient_map(QuotientRing.make(QQ, 3, ()), hring))
    srpb_files.save_glmat(str(tmp_path / "adv.glm"), adv)
    srpb_files.save_ring(str(tmp_path / "free3.ring"), QuotientRing.make(QQ, 3, ()))
    code = cli_main(["gl", "lift", "--sigma", str(tmp_path / "adv.glm"),
                     "--to-ring", str(tmp_path / "free3.ring"),
                     "--out", str(tmp_path / "nope.glm")])
    assert code == 3
    record(6, done == 30, "30 roundtrip lifts exact; adversarial sigma exits 3",
           time.monotonic() - t0, 120.0)


def test_criterion_07_groebner_certificates():
    t0 = time.monotonic()
    rng = make_rng("accept-7")
    ctx = PolyRing(QQ, 3)
    certs_checked = agree = 0
    for k in range(100):
        if k % 2 == 0:
            # monomial-ideal instance: certificate + oracle agreement
            gens_exps = []
            for _ in range(rng.randint(1, 3)):
                support = rng.sample(range(3), rng.randint(1, 2))
                gens_exps.append(tuple(1 if i in support else 0 for i in range(3)))
            ring = QuotientRing.make(QQ, 3, tuple(gens_exps))
            gens = list(ring.generator_polys())
            f = random_poly(ctx, rng, max_deg=3, terms=4)
            cert = member(f, gens)
            want = ring.normal_form(f).is_zero()
            assert (cert is not None) == want
            agree += 1
            if cert is not None:
                assert cert.verify()
                certs_checked += 1
        else:
            gens = [random_poly(ctx, rng, max_deg=3, terms=3, nonzero=True)
                    for _ in range(rng.randint(1, 3))]
            f = ctx.zero()
            for g in gens:
                f = f + random_poly(ctx, rng, max_deg=2, terms=2) * g
            cert = member(f, gens)
            assert cert is not None
            acc = ctx.zero()
            for c, g in zip(cert.coefficients, gens):
                acc = acc + c * g
            assert acc == f
            certs_checked += 1
    record(7, agree == 50 and certs_checked >= 50,
           f"100 membership instances: {certs_checked} certificates exact, "
           f"oracle agreement {agree}/50", time.monotonic() - t0, 60.0)


def test_criterion_08_whitehead_and_smith():
    t0 = time.monotonic()
    rng = make_rng("accept-8")
    squares = corpus_squares()
    done_w = 0
    for k in range(50):
        _, sq = squares[k % len(squares)]
        r = rng.randint(1, 3)
        sigma = random_gl_with_units(sq.a0, r, rng)
        u = whitehead_lift(sigma, sq.j2, sq.section)
        assert sq.j2.apply_matrix(u.mat) == sq.a0.nf_matrix(sigma.mat.direct_sum(sigma.inv))
        eye = PolyMatrix.identity(sq.a.context, 2 * r)
        assert sq.a2.mat_mul(u.mat, u.inv) == sq.a2.nf_matrix(eye)
        done_w += 1

    from srpb.smith import uni_divides
    ctx = PolyRing(QQ, 1)
    done_s = 0
    for _ in range(50):
        n = rng.randint(1, 4)
        entries = []
        for _ in range(n * n):
            p = ctx.zero()
            for d in range(rng.randint(0, 3) + 1):
                p = p + ctx.monomial((d,), ctx.field.from_int(rng.randint(-3, 3)))
            entries.append(p)
        m = PolyMatrix(ctx, n, n, entries)
        dec = smith_normal_form(m)
        assert dec.u * m * dec.v == dec.d
        diag = dec.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert uni_divides(a, b, dec.variable)
        for t in (dec.u.det(), dec.v.det()):
            assert t.is_constant() and not t.is_zero()
        done_s += 1
    record(8, done_w == 50 and done_s == 50,
           "50 whitehead lifts and 50 smith decompositions exact",
           time.monotonic() - t0, 120.0)


def _acceptance_cert_corpus():
    rng = make_rng("accept-9-corpus")
    out = []
    r = QuotientRing.make(QQ, 2, ((1, 1),))
    e, _ = conjugated_idempotent(r, rng, size=2, rank=1)
    out.append(extend_witness(ProjModule.make(r, e)).certificate)

    hring = sr_quotient(QQ, hollow_triangle())
    e, g = conjugated_idempotent(hring, rng, size=2, rank=1)
    res = extend_witness(ProjModule.make(hring, e), oracle=conjugation_witness_oracle(g))
    out.append(res.certificate)

    row = _roundtrip_row(QQ, rng)
    out.append(umrow_lift(row).certificate)

    sq = build_fiber_square(QQ, hollow_triangle())
    sigma = random_gl_with_units(sq.a0, 2, rng)
    module = milnor_patch(sq, 2, sigma)
    u = whitehead_lift(sigma, sq.j2, sq.section)
    prof = HypothesisProfile(0, 2).payload()
    out.append(patch_node(sq, 2, sigma, u, module.matrix, prof))

    free = QuotientRing.make(QQ, 2, ())
    pi = RingHom.quotient_map(free, r)
    d0 = random_elementary_product(free, 2, rng, count=3)
    sig = d0.apply_hom(pi)
    out.append(gl_lift_node(r, free, sig, lift_gl(sig, pi), prof))

    from test_verifier import _cancel_certificate
    out.append(_cancel_certificate(rng))
    return out


def test_criterion_09_mutation_sensitivity():
    from test_verifier import mutate_one_coefficient

    t0 = time.monotonic()
    rng = make_rng("accept-9")
    corpus = _acceptance_cert_corpus()
    for cert in corpus:
        assert verify_payload(cert).ok
    rejected = 0
    for k in range(200):
        cert = corpus[k % len(corpus)]
        bad = mutate_one_coefficient(cert, rng)
        rep = verify_payload(bad)
        assert not rep.ok, "mutated certificate passed verification"
        fail = rep.first_failure()
        assert fail is not None and fail.check and fail.node
        rejected += 1
    record(9, rejected == 200, "200 single-coefficient mutations all rejected, identity named",
           time.monotonic() - t0, 120.0)


def test_criterion_10_determinism():
    t0 = time.monotonic()

    def build_once():
        rng = make_rng("accept-10")  # fixed by SRPB_SEED
        r = QuotientRing.make(QQ, 2, ((1, 1),))
        e, g = conjugated_idempotent(r, rng, size=3, rank=2)
        ext = extend_witness(ProjModule.make(r, e)).certificate
        row = _roundtrip_row(QQ, rng)
        um = umrow_lift(row).certificate
        return dump_canonical(ext) + "\n" + dump_canonical(um)

    first = build_once()
    second = build_once()
    ok = first == second and len(first) > 1000
    record(10, ok, f"byte-identical certificates across runs (seed {SEED})",
           time.monotonic() - t0, 60.0)
