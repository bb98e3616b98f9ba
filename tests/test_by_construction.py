"""Values derived from checked values are built without re-checking them.

Inverses, composites and hom images of module isomorphisms, hom images of
GL pairs, permutation, determinant-adjugate and
unit-diagonal pairs, the Whitehead lift, the Milnor patch, the section
lifter, kernel modules, the five homs of a fiber square, the Smith
transforms, the constant, Smith, oracle and point-normalized base-case
witnesses, and the row lift's comparison pair and lifted row all skip the
checks their constructors would run.  These tests recompute the identities
on each output over Q and F_5, with plain products (``nf(a * b)``, not
``QuotientRing.mat_mul``), and compare the square homs, the patch and
``sr_quotient`` against the constructions they no longer go through
(``RingHom.make``, ``QuotientRing.make``); the engines' squares are built
over each node's own ring.  Caller data (oracle
witnesses, the stabilized iso of a cancellation) is checked once where it
enters, and three tests feed it lawless values.  Normal form likewise runs
only where data enters: the last test checks that every matrix the engines
and the GL lift build into a module, an iso or a GL pair is normal.
"""

import dataclasses

import pytest

from srpb import (GF, QQ, GLMat, ModIso, PolyMatrix, PolyRing, ProjModule,
                  QuotientRing, RingHom, UmRow, build_fiber_square,
                  cancel_witness, extend_witness, glue_matrix, hom_check,
                  kernel_module, milnor_patch, section_aut_lifter,
                  smith_normal_form, sr_quotient, umrow_lift, verify_payload,
                  whitehead_lift)
from srpb import certs, engines
from srpb.engines import (_extend_base, _point_normalize, _smith_freeness_iso,
                          conjugation_witness_oracle)
from srpb.simplicial import sr_ideal
from srpb.smith import uni_coeff, uni_degree, uni_divides
from srpb.errors import (AllStrategiesFailed, InputError, InternalCheckError,
                         PreconditionError)
from srpb.lifting import _StrategyFailure, _gl_upstairs, _lift_elementary, lift_gl
from helpers import (complexes_on, conjugated_idempotent, corpus_complexes, corpus_squares,
                     hollow_triangle, make_rng, random_elementary_product,
                     random_gl_with_units, stabilize)

FIELDS = [QQ, GF(5)]


def prod(ring, *ms):
    out = ms[0]
    for m in ms[1:]:
        out = ring.nf_matrix(out * m)
    return out


def assert_iso_laws(iso):
    r, es, et = iso.source.ring, iso.source.matrix, iso.target.matrix
    assert iso.target.ring == r
    assert prod(r, es, es) == es and prod(r, et, et) == et
    assert prod(r, et, iso.fwd, es) == iso.fwd
    assert prod(r, es, iso.bwd, et) == iso.bwd
    assert prod(r, iso.bwd, iso.fwd) == es
    assert prod(r, iso.fwd, iso.bwd) == et


def assert_gl_pair(g):
    eye = PolyMatrix.identity(g.ring.context, g.size)
    assert prod(g.ring, g.mat, g.inv) == eye and prod(g.ring, g.inv, g.mat) == eye


def corner(ctx, rank, size):
    zeros = PolyMatrix.zeros(ctx, size - rank, size - rank)
    return PolyMatrix.identity(ctx, rank).direct_sum(zeros)


def conjugate(ring, g, e):
    return ring.mat_mul(ring.mat_mul(g.mat, e), g.inv)


def iso_chain(ring, rng, size=3, rank=1):
    """phi: P -> Q and psi: Q -> R, each witnessed by a random conjugator."""
    g = random_elementary_product(ring, size, rng)
    e = conjugate(ring, g, corner(ring.context, rank, size))
    p = ProjModule.make(ring, e)
    g1, g2 = random_gl_with_units(ring, size, rng), random_gl_with_units(ring, size, rng)
    # conjugation by g carries E to g E g^-1, witnessed by corner-projected g
    q = ProjModule.make(ring, conjugate(ring, g1, e))
    phi = ModIso.make(p, q, ring.mat_mul(ring.mat_mul(q.matrix, g1.mat), p.matrix),
                      ring.mat_mul(ring.mat_mul(p.matrix, g1.inv), q.matrix))
    r = ProjModule.make(ring, conjugate(ring, g2, q.matrix))
    psi = ModIso.make(q, r, ring.mat_mul(ring.mat_mul(r.matrix, g2.mat), q.matrix),
                      ring.mat_mul(ring.mat_mul(q.matrix, g2.inv), r.matrix))
    return phi, psi


def square_homs(sq):
    return (sq.i1, sq.i2, sq.j1, sq.j2, sq.section)


@pytest.mark.parametrize("field", FIELDS)
def test_iso_inverse_compose_and_hom_image_keep_the_corner_laws(field):
    rng = make_rng(f"by-construction-iso-{field.char}")
    sq = build_fiber_square(field, hollow_triangle())
    for _ in range(4):
        phi, psi = iso_chain(sq.a, rng)
        both = psi.compose(phi)
        for iso in (phi.inverse(), both, both.inverse(), phi.compose(both.inverse())):
            assert_iso_laws(iso)
        assert both.source == phi.source and both.target == psi.target
        for h in (sq.i1, sq.i2, sq.j1.compose(sq.i1)):
            pushed = both.apply_hom(h)
            assert pushed.source.ring == h.target
            assert_iso_laws(pushed)
            assert_iso_laws(pushed.inverse().apply_hom(RingHom.identity(h.target)))


@pytest.mark.parametrize("field", FIELDS)
def test_um_element_hom_image_and_kernel_module(field):
    rng = make_rng(f"by-construction-um-{field.char}")
    sq = build_fiber_square(field, hollow_triangle())
    ring, ctx = sq.a, sq.a.context
    for _ in range(4):
        g = random_gl_with_units(ring, 3, rng)
        # row 0 of g and column 0 of g^-1: v * w^T == (g g^-1)[0, 0] == 1
        row = UmRow.make(ring, PolyMatrix(ctx, 1, 3, g.mat.row(0)),
                         PolyMatrix(ctx, 1, 3, g.inv.col(0)))
        k = kernel_module(row)
        assert prod(ring, k.matrix, k.matrix) == k.matrix
        assert prod(ring, row.v, k.matrix).is_zero()
        assert k.rank() == 2


@pytest.mark.parametrize("field", FIELDS)
def test_section_lifters_return_lawful_values(field):
    rng = make_rng(f"by-construction-lift-{field.char}")
    sq = build_fiber_square(field, hollow_triangle())
    a0, ctx = sq.a0, sq.a0.context
    for _ in range(4):
        g = random_gl_with_units(a0, 3, rng)
        p0 = ProjModule.make(a0, conjugate(a0, g, corner(ctx, 2, 3)))
        q2 = ProjModule.make(sq.a2, sq.section.apply_matrix(p0.matrix))
        h = random_gl_with_units(a0, 2, rng)
        twist = GLMat._known_pair(a0, h.mat.direct_sum(PolyMatrix.identity(ctx, 1)),
                                  h.inv.direct_sum(PolyMatrix.identity(ctx, 1)))
        alpha0 = ModIso.make(p0, p0, prod(a0, p0.matrix, g.mat, twist.mat, g.inv),
                             prod(a0, g.mat, twist.inv, g.inv, p0.matrix))
        alpha2 = section_aut_lifter(sq, q2)(alpha0)
        assert alpha2.source == q2 and alpha2.target == q2
        assert_iso_laws(alpha2)
        assert sq.j2.apply_matrix(alpha2.fwd) == alpha0.fwd


@pytest.mark.parametrize("field", FIELDS)
def test_gl_pairs_built_by_construction_are_inverse(field):
    rng = make_rng(f"by-construction-gl-{field.char}")
    sq = build_fiber_square(field, hollow_triangle())
    nil = QuotientRing.make(field, 3, ((2, 0, 0), (1, 3, 0)))
    one, x = nil.context.one(), nil.context.variable(0)
    # (1 + x)(1 - x) == 1 since x^2 == 0
    tilt = GLMat.diagonal(nil, [(one + x, one - x), (one, one), (one, one)])
    for _ in range(4):
        g = random_gl_with_units(sq.a, 3, rng)
        for h in square_homs(sq)[:2] + (sq.j2.compose(sq.i2),):
            assert_gl_pair(g.apply_hom(h))
        assert_gl_pair(GLMat.permutation(sq.a, rng.sample(range(4), 4)))
        assert_gl_pair(_gl_upstairs(random_gl_with_units(sq.a, 3, rng).mat, sq.a, "test"))
        # a determinant with a nilpotent tail
        u = random_gl_with_units(nil, 3, rng) * tilt
        assert not nil.normal_form(u.mat.det()).is_constant()
        assert_gl_pair(_gl_upstairs(u.mat, nil, "test"))
    with pytest.raises(InputError, match="not a permutation"):
        GLMat.permutation(sq.a, [0, 0, 2])


def reference_square_check(sq):
    """Each hom runs between its corners and kills its source ideal, the
    square commutes on variables, and j2 o section is the identity."""
    corners = ((sq.a, sq.a1), (sq.a, sq.a2), (sq.a1, sq.a0), (sq.a2, sq.a0), (sq.a0, sq.a2))
    for h, (source, target) in zip(square_homs(sq), corners):
        if (h.source, h.target) != (source, target):
            raise InternalCheckError("square hom does not run between its corners")
        hom_check(h)
    if sq.j1.compose(sq.i1).images != sq.j2.compose(sq.i2).images:
        raise InternalCheckError("square does not commute")
    if sq.j2.compose(sq.section).images != RingHom.identity(sq.a0).images:
        raise InternalCheckError("section law fails")


@pytest.mark.parametrize("field", FIELDS)
def test_square_homs_pass_the_square_check(field):
    checked = 0
    for c in corpus_complexes():
        if c.is_simplex():
            continue
        sq = build_fiber_square(field, c)
        reference_square_check(sq)
        with pytest.raises(InternalCheckError):
            reference_square_check(dataclasses.replace(sq, i1=sq.i2, i2=sq.i1))
        checked += 1
    assert checked > 100


def exhaustive_complexes(max_ambient=5):
    return [c for n in range(1, max_ambient + 1) for c in complexes_on(n)]


@pytest.mark.parametrize("field", FIELDS)
def test_sr_quotient_is_the_minimalized_ring(field):
    for c in exhaustive_complexes():
        ring = sr_quotient(field, c)
        made = QuotientRing.make(field, c.ambient, sr_ideal(c))
        assert ring == made
        assert certs.ring_payload(ring) == certs.ring_payload(made)


def reference_square_homs(sq):
    """The five homs as ``RingHom.make`` builds them from variable images, with
    the apex sent to 0 by j2 and the section."""
    def hom(source, target, kill=None):
        ctx = target.context
        imgs = [ctx.zero() if v == kill else ctx.variable(v) for v in range(source.nvars)]
        return RingHom.make(source, target, imgs)

    return (hom(sq.a, sq.a1), hom(sq.a, sq.a2), hom(sq.a1, sq.a0),
            hom(sq.a2, sq.a0, sq.apex), hom(sq.a0, sq.a2, sq.apex))


@pytest.mark.parametrize("field", FIELDS)
def test_mask_built_square_homs_match_hom_make(field):
    checked = 0
    for c in exhaustive_complexes():
        if c.is_simplex():
            continue
        sq = build_fiber_square(field, c)
        for h, ref in zip(square_homs(sq), reference_square_homs(sq)):
            assert (h.source, h.target) == (ref.source, ref.target)
            assert h == ref and h.images == ref.images
            assert certs.hom_images_payload(h) == certs.hom_images_payload(ref)
        checked += 1
    assert checked > 7000


def test_engine_squares_are_built_over_the_node_ring(monkeypatch):
    """Each decompose node's square has the node's ring object as its total
    ring, every other node's ring is a corner object of its parent's square,
    and no Stanley-Reisner ring is re-minimalized on the way."""
    from srpb import certs as certs_module, quotient

    squares, rings = [], []
    decompose, base = certs_module.decompose_node, certs_module.base_node

    def record_decompose(task, ring, module, square, *args, **kwargs):
        squares.append((ring, square))
        rings.append(ring)
        return decompose(task, ring, module, square, *args, **kwargs)

    def record_base(task, ring, *args, **kwargs):
        rings.append(ring)
        return base(task, ring, *args, **kwargs)

    minimalized = []
    minimalize = quotient._minimalize

    def counting_minimalize(gens):
        minimalized.append(gens)
        return minimalize(gens)

    ring = QuotientRing.make(QQ, 4, ((1, 0, 1, 0), (0, 1, 0, 1)))  # the four-cycle
    ctx = ring.context
    x0, x1, x2, x3 = (ctx.variable(v) for v in range(4))
    # entries on every vertex keep the module non-constant on each corner, so
    # the root and both of its children split whatever SRPB_SEED is
    g = GLMat.elementary(ring, 2, 0, 1, x0 + x2) * GLMat.elementary(ring, 2, 1, 0, x1 + x3)
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    p = ProjModule.make(ring, ring.mat_mul(ring.mat_mul(g.mat, corner), g.inv))
    one = PolyMatrix.identity(ctx, 1)
    src = ProjModule.make(ring, p.matrix.direct_sum(one))
    stab = ModIso.make(src, src, src.matrix, src.matrix)
    monkeypatch.setattr(certs_module, "decompose_node", record_decompose)
    monkeypatch.setattr(certs_module, "base_node", record_base)
    monkeypatch.setattr(quotient, "_minimalize", counting_minimalize)
    for run in (lambda: extend_witness(p, oracle=conjugation_witness_oracle(g)),
                lambda: cancel_witness(p, p, stab)):
        for log in (squares, rings, minimalized):
            log.clear()
        res = run()
        assert len(squares) >= 3 and not minimalized
        assert all(sq.a is node_ring for node_ring, sq in squares)
        corners = [c for _, sq in squares for c in (sq.a1, sq.a2)]
        assert rings[-1] is ring  # the root node is finished last
        assert all(any(r is c for c in corners) for r in rings[:-1])
        assert verify_payload(res.certificate).ok  # which parses rings with make


def reference_whitehead(sq, sigma):
    """Whitehead's four factors pushed through the section and multiplied out."""
    a2, ctx, r = sq.a2, sq.a2.context, sigma.size
    s, t = sq.section.apply_matrix(sigma.mat), sq.section.apply_matrix(sigma.inv)
    eye, zero = PolyMatrix.identity(ctx, r), PolyMatrix.zeros(ctx, r, r)

    def block(a, b, c, d):
        return PolyMatrix.from_rows(ctx, [list(a.row(i)) + list(b.row(i)) for i in range(r)]
                                    + [list(c.row(i)) + list(d.row(i)) for i in range(r)])

    m1, m1inv = block(eye, s, zero, eye), block(eye, -s, zero, eye)
    m2, m2inv = block(eye, zero, -t, eye), block(eye, zero, t, eye)
    m4, m4inv = block(zero, -eye, eye, zero), block(zero, eye, -eye, zero)
    return prod(a2, m1, m2, m1, m4), prod(a2, m4inv, m1inv, m2inv, m1inv)


def reference_patch(sq, sigma):
    """Glue I_r (+) 0 with U (I_r (+) 0) U^-1, checked as a module."""
    u, uinv = reference_whitehead(sq, sigma)
    c = corner(sq.a.context, sigma.size, 2 * sigma.size)
    glued = glue_matrix(sq, sq.a1.nf_matrix(c), prod(sq.a2, u, c, uinv))
    return ProjModule.make(sq.a, glued)


@pytest.mark.parametrize("field", FIELDS)
def test_whitehead_lift_is_the_section_image_and_patch_is_free(field):
    rng = make_rng(f"by-construction-patch-{field.char}")
    for name, sq in corpus_squares(field):
        for rank in (1, 2, 3):
            sigma = random_gl_with_units(sq.a0, rank, rng)
            u = whitehead_lift(sigma, sq.j2, sq.section)
            s, t = sq.section.apply_matrix(sigma.mat), sq.section.apply_matrix(sigma.inv)
            assert (u.ring, u.mat, u.inv) == (sq.a2, s.direct_sum(t), t.direct_sum(s)), name
            assert (u.mat, u.inv) == reference_whitehead(sq, sigma), name
            assert_gl_pair(u)
            assert sq.j2.apply_matrix(u.mat) == sigma.mat.direct_sum(sigma.inv)
            p = milnor_patch(sq, rank, sigma)
            assert p == reference_patch(sq, sigma), name
            assert p.rank() == rank


@pytest.mark.parametrize("field", FIELDS)
def test_elementary_lift_diagonal_is_inverse(field):
    rng = make_rng(f"by-construction-elementary-{field.char}")
    down = QuotientRing.make(field, 2, ((1, 1),))
    up = QuotientRing.make(field, 2, ())
    pi = RingHom.quotient_map(up, down)
    ctx = down.context
    one, x, y = ctx.one(), ctx.variable(0), ctx.variable(1)
    # pivoting moves the first unit, at (1, 1), by a row and a column swap
    swaps = GLMat(down, PolyMatrix.from_rows(ctx, [[one + x, one + y], [x, one]]),
                  PolyMatrix.from_rows(ctx, [[one, -(one + y)], [-x, one + x]]))
    lifted = 0
    for sigma in [swaps] + [random_gl_with_units(up, 3, rng).apply_hom(pi) for _ in range(8)]:
        try:
            delta = _lift_elementary(sigma, pi)
        except _StrategyFailure:
            continue
        assert_gl_pair(delta)
        assert pi.apply_matrix(delta.mat) == sigma.mat
        lifted += 1
    assert lifted >= 5


@pytest.mark.parametrize("field", FIELDS)
def test_oracle_augmentation_pair_is_inverse(field, monkeypatch):
    rng = make_rng(f"by-construction-oracle-{field.char}")
    ring = build_fiber_square(field, hollow_triangle()).a
    known = GLMat._known_pair
    built = []

    def record(r, mat, inv):
        built.append(known(r, mat, inv))
        return built[-1]

    monkeypatch.setattr(GLMat, "_known_pair", staticmethod(record))
    for _ in range(4):
        e, g = conjugated_idempotent(ring, rng, size=3, rank=2)
        built.clear()
        iso = conjugation_witness_oracle(g)(ProjModule.make(ring, e))
        assert iso is not None
        assert_iso_laws(iso)
        h0 = built[-1]  # the oracle's last known pair is the augmentation of g
        assert h0.mat == g.mat.augmentation() and h0.inv == g.inv.augmentation()
        assert_gl_pair(h0)


# -- Smith transforms, base-case witnesses and the row lift -----------------------

def univariate_matrix(ctx, var, rng, rows, cols):
    """Entries of degree at most 3 in x_var alone."""
    def entry():
        out = ctx.zero()
        for k in range(rng.randint(0, 3)):
            exps = tuple(k if i == var else 0 for i in range(ctx.nvars))
            out = out + ctx.monomial(exps, ctx.field.from_int(rng.randint(-3, 3)))
        return out
    return PolyMatrix.from_rows(ctx, [[entry() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", FIELDS)
def test_smith_transforms_satisfy_their_laws(field):
    rng = make_rng(f"by-construction-smith-{field.char}")
    for ctx, var in ((PolyRing(field, 1), 0), (PolyRing(field, 3), 1)):
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = univariate_matrix(ctx, var, rng, rows, cols)
            dec = smith_normal_form(m)
            eye_r, eye_c = PolyMatrix.identity(ctx, rows), PolyMatrix.identity(ctx, cols)
            assert dec.u * m * dec.v == dec.d
            assert dec.u * dec.u_inv == eye_r and dec.u_inv * dec.u == eye_r
            assert dec.v * dec.v_inv == eye_c and dec.v_inv * dec.v == eye_c
            assert all(dec.d[i, j].is_zero() for i in range(rows) for j in range(cols)
                       if i != j)
            diag = dec.diagonal()
            assert all(uni_divides(a, b, var) for a, b in zip(diag, diag[1:]))
            for a in diag:
                if not a.is_zero():
                    assert uni_coeff(a, var, uni_degree(a, var)) == field.one
            for t in (dec.u, dec.v):
                det = t.det()
                assert det.is_constant() and not det.is_zero()


def univariate_rings(field):
    """k[t], and k[x0, x1, x2] with x0 and x2 killed: one free variable each."""
    return (QuotientRing.make(field, 1, ()),
            QuotientRing.make(field, 3, ((1, 0, 0), (0, 0, 1))))


@pytest.mark.parametrize("field", FIELDS)
def test_base_case_witnesses_keep_the_corner_laws(field):
    rng = make_rng(f"by-construction-base-{field.char}")
    base = _extend_base(None)
    for ring in univariate_rings(field):
        for _ in range(6):
            e, _ = conjugated_idempotent(ring, rng, elementaries=3)
            p = ProjModule.make(ring, e)
            q = ProjModule(ring, p.augmented_matrix())
            assert prod(ring, q.matrix, q.matrix) == q.matrix
            raw = _smith_freeness_iso(p)
            assert raw.source == p and raw.target == q
            assert_iso_laws(raw)
            norm = _point_normalize(raw)
            assert_iso_laws(norm)
            assert norm.fwd.augmentation() == q.matrix
            method, iso = base(p, q)
            assert method == ("constant" if e.is_constant() else "smith")
            assert_iso_laws(iso)
            assert_iso_laws(ModIso.identity(p))
            method, iso = base(q, q)  # the augmentation is a constant module
            assert method == "constant"
            assert_iso_laws(iso)


@pytest.mark.parametrize("field", FIELDS)
def test_oracle_witness_point_normalized_keeps_the_corner_laws(field):
    rng = make_rng(f"by-construction-normalize-{field.char}")
    ring = QuotientRing.make(field, 2, ())  # a base case with two free variables
    checked = 0
    while checked < 4:
        e, g = conjugated_idempotent(ring, rng, size=3, rank=2)
        if e.is_constant():
            continue
        checked += 1
        p = ProjModule.make(ring, e)
        q = ProjModule(ring, p.augmented_matrix())
        # twist the target by the automorphism 2 so that fwd(0) != E(0)
        two = ring.context.constant(field.from_int(2))
        half = ring.context.constant(field.inv(field.from_int(2)))
        twisted = ModIso(q, q, q.matrix.scale(two), q.matrix.scale(half))
        iso = conjugation_witness_oracle(g)(p)
        assert iso.target == q
        assert_iso_laws(iso)
        for w in (iso, twisted.compose(iso)):
            assert_iso_laws(w)
            norm = _point_normalize(w)
            assert_iso_laws(norm)
            assert norm.fwd.augmentation() == q.matrix
            assert _extend_base(lambda _: w)(p, q) == ("oracle", norm)


def liftable_rows(field, rng, count=4):
    """(row over Q[x,y]/(xy), oracle None) and (row over the hollow triangle, its oracle)."""
    xy = QuotientRing.make(field, 2, ((1, 1),))
    hollow = sr_quotient(field, hollow_triangle())
    for ring in (xy, hollow):
        ctx = ring.context
        up = QuotientRing.make(field, ring.nvars, ())
        e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
        for _ in range(count):
            m = random_elementary_product(up, 3, rng, count=rng.randint(1, 4))
            v = ring.nf_matrix(e1 * m.mat)
            w = ring.nf_matrix((m.inv * e1.transpose()).transpose())
            oracle = conjugation_witness_oracle(m.inverse()) if ring is hollow else None
            yield UmRow.make(ring, v, w), oracle


@pytest.mark.parametrize("field", FIELDS)
def test_row_lift_comparison_pair_and_lifted_row(field, monkeypatch):
    rng = make_rng(f"by-construction-umrow-{field.char}")
    seen = []

    def recording_lift_gl(sigma, pi):
        seen.append(sigma)
        return lift_gl(sigma, pi)

    lift_gl = engines.lift_gl
    monkeypatch.setattr(engines, "lift_gl", recording_lift_gl)
    lifted_rows = 0
    for row, oracle in liftable_rows(field, rng):
        seen.clear()
        res = umrow_lift(row, oracle=oracle)
        if not seen:
            continue
        ring, sigma = row.ring, seen[0]
        v0, w0 = row.augmented()
        assert sigma.ring == ring
        assert_gl_pair(sigma)
        assert prod(ring, row.v, sigma.mat) == v0
        if not res.ok:
            continue
        u, target = res.row, res.row.ring
        assert prod(target, u.v, u.w.transpose()) == PolyMatrix.identity(target.context, 1)
        assert ring.nf_matrix(u.v) == row.v
        assert verify_payload(res.certificate).ok
        lifted_rows += 1
    assert lifted_rows >= 6


# -- caller data is checked once, where it enters ---------------------------------

def test_lying_oracle_is_refused():
    # a simplex ring: the oracle's witness is the result, with no glue to check it
    ring = QuotientRing.make(QQ, 3, ())
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(1) + ctx.variable(2))
    p = ProjModule.make(ring, conjugate(ring, g, corner(ctx, 1, 2)))

    def lying(m):
        # already point-normalized (fwd(0) is the target), but not an iso
        q = ProjModule(m.ring, m.augmented_matrix())
        return ModIso(m, q, q.matrix, q.matrix)

    with pytest.raises(PreconditionError, match="not a corner map"):
        extend_witness(p, oracle=lying)


def test_oracle_witness_with_wrong_endpoints_is_refused():
    ring = QuotientRing.make(QQ, 3, ())
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(1) + ctx.variable(2))
    p = ProjModule.make(ring, conjugate(ring, g, corner(ctx, 1, 2)))

    def wrong_ends(m):
        # a lawful iso, but of E(0) with itself instead of E with E(0)
        return ModIso.identity(ProjModule(m.ring, m.augmented_matrix()))

    with pytest.raises(PreconditionError,
                       match="oracle witness does not run from the module to its augmentation"):
        extend_witness(p, oracle=wrong_ends)


def test_lawless_stabilized_iso_is_refused():
    ring = QuotientRing.make(QQ, 2, ((1, 1),))
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(0))
    p = ProjModule.make(ring, conjugate(ring, g, corner(ctx, 1, 2)))
    one = PolyMatrix.identity(ctx, 1)
    src = ProjModule.make(ring, p.matrix.direct_sum(one))
    zero = PolyMatrix.zeros(ctx, 3, 3)
    with pytest.raises(PreconditionError, match=r"bwd \* fwd is not the source idempotent"):
        cancel_witness(p, p, ModIso(src, src, zero, zero))


# -- every value the engines build is normal over its ring ------------------------

def is_normal(ring, m) -> bool:
    """No term of m is divisible by a generator of the ring's ideal (exponent test)."""
    return not any(all(a >= b for a, b in zip(exps, g))
                   for f in m.entries for exps, _ in f.terms for g in ring.generators)


def record_normality(monkeypatch):
    """Wrap the construction of ProjModule, ModIso and GLMat (``_set``, which both
    GLMat paths use): log each kind built, and fail where a matrix is not normal."""
    built = []

    def log(kind, ring, *ms):
        built.append(kind)
        for m in ms:
            assert is_normal(ring, m), f"{kind} built with {m!r}, not normal over {ring}"

    module_init, iso_init, gl_set = ProjModule.__init__, ModIso.__init__, GLMat._set

    def module(self, ring, matrix):
        module_init(self, ring, matrix)
        log("ProjModule", ring, matrix)

    def iso(self, source, target, fwd, bwd):
        iso_init(self, source, target, fwd, bwd)
        log("ModIso", source.ring, fwd, bwd)

    def gl(self, ring, mat, inv):
        gl_set(self, ring, mat, inv)
        log("GLMat", ring, mat, inv)

    monkeypatch.setattr(ProjModule, "__init__", module)
    monkeypatch.setattr(ModIso, "__init__", iso)
    monkeypatch.setattr(GLMat, "_set", gl)
    return built


@pytest.mark.parametrize("field", FIELDS)
def test_engine_values_are_normal_by_construction(field, monkeypatch):
    """Every module, iso and GL pair that the engines and the GL lift build is
    normal over its ring, though normal form runs only where data enters."""
    rng = make_rng(f"by-construction-normal-{field.char}")
    built = record_normality(monkeypatch)
    for _, sq in corpus_squares(field):
        ring = sq.a
        e, g = conjugated_idempotent(ring, rng)
        p = ProjModule.make(ring, e)
        extend_witness(p, oracle=conjugation_witness_oracle(g))
        cancel_witness(p, p, stabilize(ModIso.identity(p)))
        h = random_gl_with_units(ring, p.size, rng)
        q = ProjModule.make(ring, conjugate(ring, h, e))
        phi = ModIso.make(p, q, ring.mat_mul(ring.mat_mul(q.matrix, h.mat), p.matrix),
                          ring.mat_mul(ring.mat_mul(p.matrix, h.inv), q.matrix))
        cancel_witness(p, q, stabilize(phi))
        free = QuotientRing.make(field, ring.nvars, ())
        try:
            lift_gl(random_gl_with_units(ring, 2, rng), RingHom.quotient_map(free, ring))
        except AllStrategiesFailed:
            pass
    # w^T v has the term x0*x1, which is 0 over Q[x0,x1]/(x0*x1)
    xy = QuotientRing.make(field, 2, ((1, 1),))
    ctx = xy.context
    v, w = ([[ctx.one(), ctx.variable(k)]] for k in (0, 1))
    rows = [(UmRow.make(xy, PolyMatrix.from_rows(ctx, v), PolyMatrix.from_rows(ctx, w)), None)]
    for row, oracle in rows + list(liftable_rows(field, rng, count=2)):
        umrow_lift(row, oracle=oracle)
    assert {"ProjModule", "ModIso", "GLMat"} <= set(built) and len(built) > 300
