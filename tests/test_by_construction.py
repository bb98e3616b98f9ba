"""Values derived from checked values are built without re-checking them.

Inverses, composites and hom images of module isomorphisms, hom images of
GL pairs, determinant-adjugate and unit-diagonal pairs, the elementary lift
(also compared, lift for lift and failure for failure, with the
factor-by-factor reference ``helpers.reference_elementary_lift``), the
Whitehead lift, the Milnor patch, the glued iso of
two patch isos, the section and extension-witness
lifters, kernel modules, the five homs of a fiber square, the Smith
transforms, the splittings E == B R behind the constant and Smith base
cases, the constant, Smith, oracle and point-normalized base-case
witnesses, and the row lift's comparison pair and lifted row all skip the
checks their constructors would run.  These tests recompute the identities
on each output over Q and F_5, with plain products (``nf(a * b)``, not
``QuotientRing.mat_mul``), and compare the square homs, the patch and
``sr_quotient`` against the constructions they no longer go through
(``RingHom.make``, ``QuotientRing.make``); the engines' squares are built
over each node's own ring, once per ring object, whose corners hold their
parts of the split as their complexes.  Caller data (oracle
witnesses, the stabilized iso of a cancellation, a caller lifter's outputs)
is checked once where it enters, and five tests feed it lawless values; a
sixth feeds both engines a module that is not idempotent.
Normal form likewise runs
only where data enters: the last test checks that every matrix the engines
and the GL lift build into a module, an iso or a GL pair is normal.
"""

import dataclasses
import gc
import weakref
from functools import partial

import pytest

from srpb import (GF, QQ, GLMat, ModIso, PolyMatrix, PolyRing, ProjModule,
                  QuotientRing, RingHom, UmRow, base_change, build_fiber_square,
                  cancel_witness, complex_of_ring, extend_witness, glue_iso_traced,
                  hom_check, kernel_module, milnor_patch, section_aut_lifter,
                  smith_normal_form, sr_quotient, umrow_lift, verify_payload,
                  whitehead_lift)
from srpb import certs, engines
from srpb.engines import (_point_normalize, _smith_freeness_iso, _split_iso, _witness,
                          conjugation_witness_oracle, extension_aut_lifter)
from srpb.matrix import constant_splitting
from srpb.simplicial import apex_decomposition, sr_ideal
from srpb.smith import uni_coeff, uni_degree, uni_divides
from srpb.errors import (AllStrategiesFailed, InternalCheckError, LifterError,
                         PreconditionError)
from srpb.lifting import _StrategyFailure, _gl_upstairs, _lift_elementary, lift_gl
from helpers import (complexes_on, conjugated_idempotent, corpus_complexes, corpus_squares,
                     hollow_triangle, make_rng, random_elementary_product,
                     random_gl_with_units, reference_elementary_lift, stabilize)

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
def test_kernel_module_is_the_idempotent_kernel_of_the_row(field):
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


def overlap_automorphism(sq, q0, g0, rng):
    """alpha0 in Aut(Q_0) for Q_0 == g0 (I_2 (+) 0) g0^-1: conjugation by g0 of
    a twist h (+) I_1, which commutes with the corner."""
    a0, ctx = sq.a0, sq.a0.context
    h = random_gl_with_units(a0, 2, rng)
    twist = GLMat.make(a0, h.mat.direct_sum(PolyMatrix.identity(ctx, 1)),
                       h.inv.direct_sum(PolyMatrix.identity(ctx, 1)))
    return ModIso.make(q0, q0, prod(a0, q0.matrix, g0.mat, twist.mat, g0.inv),
                       prod(a0, g0.mat, twist.inv, g0.inv, q0.matrix))


def assert_lifts_lawfully(sq, q2, alpha0, alpha2):
    """alpha2 is an automorphism of Q_2 over a2, passes its own ``ModIso.make``
    and reduces to alpha0 under j2: what ``checked_lifter`` asks of a caller."""
    assert alpha2.ring == sq.a2
    assert alpha2.source == q2 and alpha2.target == q2
    assert alpha2 == ModIso.make(alpha2.source, alpha2.target, alpha2.fwd, alpha2.bwd)
    assert_iso_laws(alpha2)
    assert sq.j2.apply_matrix(alpha2.fwd) == alpha0.fwd
    assert sq.j2.apply_matrix(alpha2.bwd) == alpha0.bwd


@pytest.mark.seeded
@pytest.mark.parametrize("field", FIELDS)
def test_section_aut_lifter_returns_lawful_values(field):
    rng = make_rng(f"by-construction-lift-{field.char}")
    for _, sq in corpus_squares(field):
        a0, ctx = sq.a0, sq.a0.context
        for _ in range(3):
            g = random_gl_with_units(a0, 3, rng)
            p0 = ProjModule.make(a0, conjugate(a0, g, corner(ctx, 2, 3)))
            q2 = ProjModule.make(sq.a2, sq.section.apply_matrix(p0.matrix))
            alpha0 = overlap_automorphism(sq, p0, g, rng)
            assert_lifts_lawfully(sq, q2, alpha0, section_aut_lifter(sq, q2)(alpha0))


@pytest.mark.seeded
@pytest.mark.parametrize("field", FIELDS)
def test_extension_aut_lifter_returns_lawful_values(field):
    """A Q_2 with apex terms is no section image, so the lifter conjugates by
    Q_2's extension witness; where Q_2 has none it raises LifterError."""
    rng = make_rng(f"by-construction-ext-lift-{field.char}")
    lifted = 0
    for _, sq in corpus_squares(field):
        a2, ctx = sq.a2, sq.a2.context
        for _ in range(4):
            bend = GLMat.elementary(a2, 3, 2, 0, a2.normal_form(ctx.variable(sq.apex)))
            g2 = bend * random_elementary_product(a2, 3, rng)
            q2 = ProjModule.make(a2, conjugate(a2, g2, corner(ctx, 2, 3)))
            if sq.section.apply_matrix(sq.j2.apply_matrix(q2.matrix)) == q2.matrix:
                continue  # the random factor cancelled the apex terms
            g0 = g2.apply_hom(sq.j2)
            alpha0 = overlap_automorphism(sq, base_change(q2, sq.j2), g0, rng)
            try:
                alpha2 = extension_aut_lifter(sq, q2)(alpha0)
            except LifterError:
                continue
            assert_lifts_lawfully(sq, q2, alpha0, alpha2)
            lifted += 1
    assert lifted >= 2


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
        assert_gl_pair(_gl_upstairs(random_gl_with_units(sq.a, 3, rng).mat, sq.a, "test"))
        # a determinant with a nilpotent tail
        u = random_gl_with_units(nil, 3, rng) * tilt
        assert not nil.normal_form(u.mat.det()).is_constant()
        assert_gl_pair(_gl_upstairs(u.mat, nil, "test"))


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


@pytest.mark.seeded
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


@pytest.mark.seeded
def test_ring_cache_holds_one_square_and_one_complex():
    for field in FIELDS:
        for name, sq in corpus_squares(field):
            ring = sq.a
            assert ring.square is sq and ring.square is ring.square, name
            assert ring.sr_complex is ring.sr_complex is sq.complex, name
            # the cache is no field: a fresh equal ring is equal and hashes alike
            fresh = sr_quotient(field, sq.complex)
            assert fresh == ring and hash(fresh) == hash(ring), name


@pytest.mark.seeded
def test_ring_cache_serves_a_second_extend_without_a_split(monkeypatch):
    """A second ``extend_witness`` over the same ring object reuses its split
    tree of squares and writes the same bytes; an equal fresh ring, which
    shares no cache, splits again to the same bytes."""
    from srpb import quotient

    rng = make_rng("ring-cache-extend")
    ring = QuotientRing.make(QQ, 4, ((1, 0, 1, 0), (0, 1, 0, 1)))  # the four-cycle
    ctx = ring.context
    x0, x1, x2, x3 = (ctx.variable(v) for v in range(4))
    g = (GLMat.elementary(ring, 2, 0, 1, x0 + x2) * GLMat.elementary(ring, 2, 1, 0, x1 + x3)
         * random_elementary_product(ring, 2, rng))
    p = ProjModule.make(ring, conjugate(ring, g, corner(ctx, 1, 2)))
    oracle = conjugation_witness_oracle(g)
    first = certs.dump_canonical(extend_witness(p, oracle=oracle).certificate)

    splits = []

    def counting(builder):
        def counted(c, *args):
            splits.append(c)
            return builder(c, *args)
        return counted

    # a split picks its apex (``split_apex``) and builds its parts
    for name in ("split_apex", "deletion", "link", "cone"):
        monkeypatch.setattr(quotient, name, counting(getattr(quotient, name)))
    second = extend_witness(p, oracle=oracle)
    assert not splits
    assert certs.dump_canonical(second.certificate) == first
    fresh = QuotientRing.make(QQ, 4, ring.generators)
    third = extend_witness(ProjModule.make(fresh, p.matrix), oracle=oracle)
    assert len(splits) >= 3
    assert certs.dump_canonical(third.certificate) == first


@pytest.mark.seeded
def test_ring_cache_corners_hold_their_split_parts(monkeypatch):
    """Each corner presents its part of the split by construction and holds
    it: ``complex_of_ring`` builds it with no transversal search and reads
    the same object back, and a recovery from the corner's generators alone
    finds the same complex."""
    from srpb import quotient

    searches = []
    search = quotient.minimal_transversals

    def counting_search(edges):
        searches.append(edges)
        return search(edges)

    squares = [sq for field in FIELDS for _, sq in corpus_squares(field)]
    squares += [build_fiber_square(QQ, c) for c in exhaustive_complexes(4)
                if not c.is_simplex()]
    for sq in squares:
        split = apex_decomposition(sq.complex)
        parts = (split.deletion_part, split.cone_part(), split.link_part)
        with monkeypatch.context() as m:
            m.setattr(quotient, "minimal_transversals", counting_search)
            for corner_ring, part in zip((sq.a1, sq.a2, sq.a0), parts):
                assert complex_of_ring(corner_ring) == part
                assert complex_of_ring(corner_ring) is corner_ring.sr_complex
            assert not searches
        for corner_ring, part in zip((sq.a1, sq.a2, sq.a0), parts):
            recovered = QuotientRing(corner_ring.context, corner_ring.generators)
            assert complex_of_ring(recovered) == part


@pytest.mark.seeded
def test_ring_cache_dies_with_its_ring():
    """Squares are cached on their ring object, not process-wide: once the
    last reference to a ``build_fiber_square`` ring is gone, so is its
    square, with the corner squares below it."""
    sq = build_fiber_square(QQ, hollow_triangle())
    below = sq.a2.square  # the cone side of the hollow triangle splits again
    refs = [weakref.ref(sq), weakref.ref(below), weakref.ref(sq.a)]
    del sq, below
    gc.collect()
    assert all(ref() is None for ref in refs)


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
    """Glue I_r (+) 0 with U (I_r (+) 0) U^-1 entrywise as f1 + f2 - j1(f1),
    checked as a module."""
    u, uinv = reference_whitehead(sq, sigma)
    c = corner(sq.a.context, sigma.size, 2 * sigma.size)
    f1, f2 = sq.a1.nf_matrix(c), prod(sq.a2, u, c, uinv)
    assert sq.j1.apply_matrix(f1) == sq.j2.apply_matrix(f2)
    return ProjModule.make(sq.a, f1 + f2 - sq.j1.apply_matrix(f1))


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


def corner_aut(ring, g, a, rank, size):
    """The automorphism (g (A (+) 0) g^-1, g (A^-1 (+) 0) g^-1) of g (I_r (+) 0) g^-1."""
    zeros = PolyMatrix.zeros(ring.context, size - rank, size - rank)
    p = ProjModule(ring, conjugate(ring, g, corner(ring.context, rank, size)))
    return ModIso(p, p, conjugate(ring, g, a.mat.direct_sum(zeros)),
                  conjugate(ring, g, a.inv.direct_sum(zeros)))


@pytest.mark.seeded
@pytest.mark.parametrize("field", FIELDS)
def test_glued_iso_is_lawful_and_restricts_to_its_patches(field):
    """The glue of random lawful patch isos, built with no check, passes
    ``ModIso.make`` and restricts to phi1 under i1 and to phi2' under i2."""
    rng = make_rng(f"by-construction-glue-{field.char}")
    for name, sq in corpus_squares(field):
        a, ctx = sq.a, sq.a.context
        # Q has no apex term, so Q_2 is the section image of its reduction
        kill_apex = RingHom.make(a, a, [ctx.zero() if v == sq.apex else ctx.variable(v)
                                        for v in range(a.nvars)])
        for _ in range(3):
            size = rng.randint(2, 3)
            rank = rng.randint(1, size - 1)
            g = random_elementary_product(a, size, rng)
            h = random_gl_with_units(a, size, rng).apply_hom(kill_apex)
            p = ProjModule.make(a, conjugate(a, g, corner(ctx, rank, size)))
            q = ProjModule.make(a, conjugate(a, h, corner(ctx, rank, size)))
            # conjugation by h g^-1 carries P to Q
            phi = ModIso.make(p, q, prod(a, q.matrix, h.mat, g.inv, p.matrix),
                              prod(a, p.matrix, g.mat, h.inv, q.matrix))
            patches = []
            for i in (sq.i1, sq.i2):
                twist = random_gl_with_units(i.target, rank, rng)
                patches.append(phi.apply_hom(i).compose(
                    corner_aut(i.target, g.apply_hom(i), twist, rank, size)))
            phi1, phi2 = patches
            q2 = base_change(q, sq.i2)
            iso, trace = glue_iso_traced(sq, p, q, phi1, phi2, section_aut_lifter(sq, q2))
            assert ModIso.make(p, q, iso.fwd, iso.bwd) == iso, name
            assert_iso_laws(iso)
            for m, m1, m2 in ((iso.fwd, phi1.fwd, trace.phi2_fixed.fwd),
                              (iso.bwd, phi1.bwd, trace.phi2_fixed.bwd)):
                assert sq.i1.apply_matrix(m) == m1 and sq.i2.apply_matrix(m) == m2, name


@pytest.mark.parametrize("field", FIELDS)
def test_elementary_lift_diagonal_is_inverse(field):
    rng = make_rng(f"by-construction-elementary-{field.char}")
    down = QuotientRing.make(field, 2, ((1, 1),))
    up = QuotientRing.make(field, 2, ())
    pi = RingHom.quotient_map(up, down)
    ctx = down.context
    one, x, y = ctx.one(), ctx.variable(0), ctx.variable(1)
    # pivoting moves the first unit, at (1, 1), by a row and a column swap
    swaps = GLMat.make(down, PolyMatrix.from_rows(ctx, [[one + x, one + y], [x, one]]),
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


@pytest.mark.seeded
@pytest.mark.parametrize("field", FIELDS)
def test_elementary_lift_matches_the_factor_by_factor_reference(field):
    rng = make_rng(f"by-construction-elementary-reference-{field.char}")
    xy = QuotientRing.make(field, 2, ((1, 1),))
    rings = (xy, sr_quotient(field, hollow_triangle()))
    outcomes = {"lift": 0, "failure": 0}
    for down in rings:
        up = QuotientRing.make(field, down.nvars, ())
        pi = RingHom.quotient_map(up, down)
        for t in range(100):
            sigma = random_gl_with_units(up, 2 + t % 3, rng, count=6).apply_hom(pi)
            expected = reference_elementary_lift(sigma, pi)
            try:
                delta = _lift_elementary(sigma, pi)
            except _StrategyFailure as sf:
                assert sf.detail == expected
                outcomes["failure"] += 1
                continue
            assert (delta.mat, delta.inv) == (expected.mat, expected.inv)
            outcomes["lift"] += 1
    assert outcomes["lift"] >= 100 and outcomes["failure"] >= 1, outcomes


@pytest.mark.parametrize("field", FIELDS)
def test_oracle_augmentation_pair_is_inverse(field, monkeypatch):
    rng = make_rng(f"by-construction-oracle-{field.char}")
    ring = build_fiber_square(field, hollow_triangle()).a
    init = GLMat.__init__
    built = []

    def record(self, r, mat, inv):
        init(self, r, mat, inv)
        built.append(self)

    monkeypatch.setattr(GLMat, "__init__", record)
    for _ in range(4):
        e, g = conjugated_idempotent(ring, rng, size=3, rank=2)
        built.clear()
        iso = conjugation_witness_oracle(g)(ProjModule.make(ring, e))
        assert iso is not None
        assert_iso_laws(iso)
        h0 = built[-1]  # the oracle's last pair built is the augmentation of g
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
    base = partial(_witness, oracle=None)
    for ring in univariate_rings(field):
        for _ in range(6):
            e, _ = conjugated_idempotent(ring, rng, elementaries=3)
            p = ProjModule.make(ring, e)
            q = ProjModule(ring, p.augmented_matrix())
            assert prod(ring, q.matrix, q.matrix) == q.matrix
            raw = _smith_freeness_iso(p)
            assert raw.source == p and raw.target == q
            assert_iso_laws(raw)
            assert raw.fwd.augmentation() == q.matrix  # no point normalization needed
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
            assert _witness(p, q, lambda _: w) == ("oracle", norm)


def record_splittings(monkeypatch):
    """Log the (p, q, split_p, split_q) of every ``engines._split_iso`` call."""
    calls = []
    split_iso = engines._split_iso

    def record(p, q, split_p, split_q):
        calls.append((p, q, split_p, split_q))
        return split_iso(p, q, split_p, split_q)

    monkeypatch.setattr(engines, "_split_iso", record)
    return calls


def assert_splitting(ring, e, b, r):
    """E == B R and R B == I_r, with plain products."""
    assert (b.rows, b.cols, r.rows, r.cols) == (e.rows, r.rows, b.cols, e.cols)
    assert prod(ring, b, r) == e
    assert prod(ring, r, b) == PolyMatrix.identity(ring.context, b.cols)


@pytest.mark.seeded
@pytest.mark.parametrize("field", FIELDS)
def test_smith_splitting_is_a_basis_of_the_image(field, monkeypatch):
    rng = make_rng(f"by-construction-smith-splitting-{field.char}")
    calls = record_splittings(monkeypatch)
    for ring in univariate_rings(field):
        ctx = ring.context
        modules = [PolyMatrix.zeros(ctx, 3, 3), PolyMatrix.identity(ctx, 3)]
        modules += [conjugated_idempotent(ring, rng, elementaries=3)[0] for _ in range(6)]
        for e in modules:
            p = ProjModule.make(ring, e)
            calls.clear()
            iso = _smith_freeness_iso(p)
            [(src, tgt, (b, r), (b0, r0))] = calls
            assert src == p and tgt == ProjModule(ring, e.augmentation())
            assert prod(ring, PolyMatrix.identity(ctx, e.rows) - e, b).is_zero()
            assert_splitting(ring, e, b, r)
            assert (b0, r0) == (b.augmentation(), r.augmentation())
            assert b.cols == p.rank()
            assert ModIso.make(iso.source, iso.target, iso.fwd, iso.bwd) == iso
            assert iso.fwd.augmentation() == tgt.matrix


@pytest.mark.seeded
@pytest.mark.parametrize("field", FIELDS)
def test_constant_splitting_and_pair_iso(field):
    rng = make_rng(f"by-construction-constant-splitting-{field.char}")
    ring = QuotientRing.make(field, 2, ())
    distinct = 0
    for size in (2, 3):
        for rank in range(size + 1):
            modules = []
            for _ in range(4):
                e, _ = conjugated_idempotent(ring, rng, size=size, rank=rank, max_deg=0)
                assert e.is_constant()
                b, r = constant_splitting(e)
                assert_splitting(ring, e, b, r)
                assert b.cols == rank
                modules.append(ProjModule.make(ring, e))
            p = modules[0]
            q = next((m for m in modules if m != p), p)
            distinct += q != p
            iso = _split_iso(p, q, constant_splitting(p.matrix), constant_splitting(q.matrix))
            assert (iso.source, iso.target) == (p, q)
            assert ModIso.make(p, q, iso.fwd, iso.bwd) == iso
    assert distinct >= 2


def reference_cancel_base(p, q):
    """The cancellation base with constant and Smith branches of its own:
    the constant pair split by row reduction, else, with at most one free
    variable, Smith(q)^-1 o pair(p(0), q(0)) o Smith(p)."""
    def pair(a, b):
        return _split_iso(a, b, constant_splitting(a.matrix), constant_splitting(b.matrix))

    if p.matrix.is_constant() and q.matrix.is_constant():
        return "constant", pair(p, q)
    if len(p.ring.free_variables) <= 1:
        ip, iq = _smith_freeness_iso(p), _smith_freeness_iso(q)
        return "smith", iq.inverse().compose(pair(ip.target, iq.target)).compose(ip)
    return None


@pytest.mark.seeded
@pytest.mark.parametrize("field", FIELDS)
def test_cancel_base_from_extension_witnesses_matches_the_reference(field):
    rng = make_rng(f"by-construction-cancel-base-{field.char}")
    two_free = QuotientRing.make(field, 2, ())
    cases = {"constant": 0, "smith": 0, None: 0}
    for ring in (two_free,) + univariate_rings(field):
        for size in (2, 3):
            rank = rng.randint(1, size - 1)
            modules = [conjugated_idempotent(ring, rng, size=size, rank=rank, max_deg=0)[0]
                       for _ in range(2)]
            while len(modules) < 4:
                e, _ = conjugated_idempotent(ring, rng, size=size, rank=rank, elementaries=3)
                if not e.is_constant():
                    modules.append(e)
            modules = [ProjModule.make(ring, e) for e in modules]
            for p in modules:
                for q in modules:
                    got = engines._cancel_base(p, q)
                    assert got == reference_cancel_base(p, q)
                    cases[got and got[0]] += 1
                    if got is not None:
                        assert (got[1].source, got[1].target) == (p, q)
                        assert_iso_laws(got[1])
    # two free variables and a moving module still need an oracle
    assert all(cases.values()), cases


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


@pytest.mark.seeded
def test_lawless_caller_lifter_is_refused():
    """A caller lifter's output that reduces to the mismatch but breaks a
    corner law is refused where it enters, before any glue or certificate."""
    ring = QuotientRing.make(QQ, 2, ((1, 1),))
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(0) + ctx.variable(1))
    p = ProjModule.make(ring, conjugate(ring, g, corner(ctx, 1, 2)))
    stab = stabilize(ModIso.identity(p))

    def factory(lawless):
        def make_lifter(square, q2):
            lawful = extension_aut_lifter(square, q2)

            def lifter(alpha0):
                alpha2 = lawful(alpha0)
                if not lawless:
                    return alpha2
                # x_apex Q_2 dies under j2, so this still reduces to alpha0
                apex = q2.matrix.scale(ctx.variable(square.apex))
                return ModIso(alpha2.source, alpha2.target, alpha2.fwd + apex, alpha2.bwd)
            return lifter
        return make_lifter

    res = cancel_witness(p, p, stab, aut_lifter_factory=factory(False))
    assert res.ok and verify_payload(res.certificate).ok
    with pytest.raises(PreconditionError, match=r"bwd \* fwd is not the source idempotent"):
        cancel_witness(p, p, stab, aut_lifter_factory=factory(True))


@pytest.mark.seeded
def test_caller_lifter_off_the_square_leaves_a_cancel_obligation():
    """A lawful caller lifter output over the wrong ring, or one that does not
    reduce to the requested automorphism, is refused by ``checked_lifter``
    with a LifterError, and the node stays a "cancel" obligation."""
    ring = QuotientRing.make(QQ, 2, ((1, 1),))
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(0) + ctx.variable(1))
    p = ProjModule.make(ring, conjugate(ring, g, corner(ctx, 1, 2)))
    stab = stabilize(ModIso.identity(p))

    def over_the_overlap(square, q2):
        return lambda alpha0: alpha0

    def negated(square, q2):
        lawful = extension_aut_lifter(square, q2)

        def lifter(alpha0):
            # -alpha2 keeps every corner law but reduces to -alpha0
            alpha2 = lawful(alpha0)
            return ModIso(alpha2.source, alpha2.target, -alpha2.fwd, -alpha2.bwd)
        return lifter

    for factory in (over_the_overlap, negated):
        res = cancel_witness(p, p, stab, aut_lifter_factory=factory)
        assert not res.ok and res.iso is None
        assert [ob.kind for ob in res.obligations] == ["cancel"]


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


@pytest.mark.seeded
def test_non_idempotent_module_is_refused_by_the_splitting_engines():
    """Splittings are lawful only for idempotents, so both engines check
    their modules at entry."""
    ring = QuotientRing.make(QQ, 1, ())
    ctx = ring.context
    t = ctx.variable(0)
    bad = ProjModule(ring, PolyMatrix.from_rows(ctx, [[ctx.one(), t], [ctx.zero(), ctx.one() + t]]))
    good = ProjModule.free(ring, 1, 2)
    with pytest.raises(PreconditionError, match="not idempotent"):
        extend_witness(bad)
    stab = stabilize(ModIso.identity(good))
    for p, q in ((bad, good), (good, bad)):
        with pytest.raises(PreconditionError, match="not idempotent"):
            cancel_witness(p, q, stab)


# -- every value the engines build is normal over its ring ------------------------

def is_normal(ring, m) -> bool:
    """No term of m is divisible by a generator of the ring's ideal (exponent test)."""
    return not any(all(a >= b for a, b in zip(exps, g))
                   for f in m.entries for exps, _ in f.terms for g in ring.generators)


def record_normality(monkeypatch):
    """Wrap the construction of ProjModule, ModIso and GLMat (``__init__``, which
    ``GLMat.make`` calls too): log each kind built, and fail where a matrix is
    not normal."""
    built = []

    def log(kind, ring, *ms):
        built.append(kind)
        for m in ms:
            assert is_normal(ring, m), f"{kind} built with {m!r}, not normal over {ring}"

    module_init, iso_init, gl_init = ProjModule.__init__, ModIso.__init__, GLMat.__init__

    def module(self, ring, matrix):
        module_init(self, ring, matrix)
        log("ProjModule", ring, matrix)

    def iso(self, source, target, fwd, bwd):
        iso_init(self, source, target, fwd, bwd)
        log("ModIso", source.ring, fwd, bwd)

    def gl(self, ring, mat, inv):
        gl_init(self, ring, mat, inv)
        log("GLMat", ring, mat, inv)

    monkeypatch.setattr(ProjModule, "__init__", module)
    monkeypatch.setattr(ModIso, "__init__", iso)
    monkeypatch.setattr(GLMat, "__init__", gl)
    return built


@pytest.mark.seeded
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
