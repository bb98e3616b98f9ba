"""Differential tests for the bitmask monomial layer.

Each fast path (mask survival, minimal transversals, term-filter ring homs)
is checked against a direct reference computation on seeded random inputs.
"""

import time

import pytest

from srpb import (GF, QQ, Polynomial, PolyRing, QuotientRing, RingHom, SimplicialComplex,
                  complex_of_ring)
from srpb.errors import ContextError, HomError, InputError, PreconditionError
from srpb.poly import exp_divides, support_mask
from srpb.quotient import sr_quotient
from srpb.simplicial import (ApexDecomposition, _check_split, apex_decomposition,
                             bit_indices, minimal_nonfaces, minimal_transversals)
from helpers import (complexes_on, corpus_squares, make_rng, random_complex, random_poly,
                     substitute)

FIELDS = (QQ, GF(5))


def reference_survives(r, exps):
    return not any(exp_divides(g, exps) for g in r.generators)


def reference_normal_form(r, f):
    return Polynomial(f.ring, tuple(t for t in f.terms if reference_survives(r, t[0])))


def random_square_free(field, n, rng):
    gens = []
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(range(n), rng.randint(1, n))
        gens.append(tuple(1 if i in support else 0 for i in range(n)))
    return QuotientRing.make(field, n, gens)


def random_general(field, n, rng):
    gens = []
    for _ in range(rng.randint(1, 4)):
        gens.append(tuple(rng.randint(0, 2) for _ in range(n)))
    gens = [g for g in gens if any(g)] or [(2,) + (0,) * (n - 1)]
    return QuotientRing.make(field, n, gens)


def test_support_mask():
    assert support_mask((0, 2, 0, 1)) == 0b1010
    assert support_mask(()) == 0
    wide = tuple(1 if i in (0, 70) else 0 for i in range(80))
    assert support_mask(wide) == (1 << 70) | 1


def test_mask_survival_matches_exponent_reference():
    rng = make_rng("mask-survival")
    for field in FIELDS:
        rings = [QuotientRing.make(field, 3, ()),
                 QuotientRing.make(field, 3, ((0, 1, 0), (1, 0, 1))),  # ghost x1
                 QuotientRing.make(field, 2, ((2, 0), (1, 1)))]
        for n in (2, 4, 6):
            rings += [random_square_free(field, n, rng) for _ in range(4)]
            rings += [random_general(field, n, rng) for _ in range(4)]
        kinds = {r.generator_masks is None for r in rings if r.generators}
        assert kinds == {True, False}
        for r in rings:
            for _ in range(20):
                exps = tuple(rng.randint(0, 2) for _ in range(r.nvars))
                assert r.survives(exps) == reference_survives(r, exps)
                f = random_poly(r.context, rng, max_deg=4, terms=6)
                assert r.normal_form(f) == reference_normal_form(r, f)


def test_generator_masks_only_for_square_free():
    assert QuotientRing.make(QQ, 3, ((1, 1, 0), (0, 0, 1))).generator_masks == (0b100, 0b011)
    assert QuotientRing.make(QQ, 2, ((2, 0),)).generator_masks is None
    assert QuotientRing.make(QQ, 2, ()).generator_masks == ()


def faces_by_enumeration(c):
    return {m for m in range(1 << c.ambient)
            if any(m & f == m for f in c.facet_masks)}


def test_face_masks_match_enumerated_faces():
    for n in range(1, 5):
        for c in complexes_on(n):
            faces = faces_by_enumeration(c)
            assert c.face_masks == frozenset(faces)
            assert c.is_simplex() == (c.used_mask in faces)
            nonfaces = [m for m in range(1 << n) if m not in faces
                        and all(m ^ (1 << v) in faces for v in bit_indices(m))]
            assert [sum(1 << v for v in t) for t in minimal_nonfaces(c)] == \
                sorted(nonfaces, key=lambda m: (bin(m).count("1"), tuple(bit_indices(m))))


def reference_split_error(c, s):
    """The first split identity that fails on the face sets, or None."""
    cone_faces = s.cone_part().face_masks
    del_faces = s.deletion_part.face_masks
    link_faces = s.link_part.face_masks
    if del_faces | cone_faces != c.face_masks:
        return "decomposition does not cover the complex"
    if del_faces & cone_faces != link_faces:
        return "decomposition overlap is not the link"
    return None


def test_facet_split_check_matches_face_sets():
    rng = make_rng("split-check")
    for n in range(2, 5):
        pool = list(complexes_on(n))
        for c in pool:
            if c.is_simplex():
                continue
            good = apex_decomposition(c)
            splits = [good]
            for _ in range(6):
                d, l = rng.choice(pool), rng.choice(pool)
                if l.used_mask >> good.apex & 1:
                    continue  # the cone over l at the apex must exist
                splits += [ApexDecomposition(good.apex, d, good.link_part),
                           ApexDecomposition(good.apex, good.deletion_part, l),
                           ApexDecomposition(good.apex, d, l)]
            for s in splits:
                expected = reference_split_error(c, s)
                if expected is None:
                    _check_split(c, s)
                else:
                    with pytest.raises(PreconditionError, match=expected):
                        _check_split(c, s)


def test_minimal_nonfaces_on_a_wider_ambient():
    c = SimplicialComplex.from_facets(18, [[0, 1], [1, 2], [0, 2]])
    assert minimal_nonfaces(c) == tuple((v,) for v in range(3, 18)) + ((0, 1, 2),)
    assert complex_of_ring(sr_quotient(QQ, c)) == c


def test_transversal_family_is_capped():
    # 13 disjoint pairs have 2^13 minimal transversals, past MAX_TRANSVERSALS
    n = 26
    pairs = [3 << 2 * i for i in range(13)]
    full = (1 << n) - 1
    start = time.perf_counter()
    with pytest.raises(InputError):
        minimal_transversals(pairs)
    with pytest.raises(InputError):
        minimal_nonfaces(SimplicialComplex.from_facets(n, [bit_indices(full & ~p) for p in pairs]))
    with pytest.raises(InputError):
        complex_of_ring(QuotientRing.make(QQ, n, [tuple(p >> v & 1 for v in range(n))
                                                  for p in pairs]))
    assert time.perf_counter() - start < 1.0
    assert len(minimal_transversals(pairs[:12])) == 4096


def reference_transversals(edges, n):
    hitting = [m for m in range(1 << n) if all(m & e for e in edges)]
    return {m for m in hitting if not any(h != m and h & m == h for h in hitting)}


def test_minimal_transversals_match_brute_force():
    rng = make_rng("transversals")
    for n in range(1, 9):
        for _ in range(15):
            edges = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
            got = minimal_transversals(edges)
            assert len(got) == len(set(got))
            assert set(got) == reference_transversals(edges, n)


def test_duality_matches_brute_force_both_ways():
    # complex -> minimal non-faces, and ring -> complex, each against an
    # enumeration of all vertex sets
    rng = make_rng("duality")
    cases = [c for n in range(1, 5) for c in complexes_on(n)]
    cases += [random_complex(n, rng) for n in range(5, 13) for _ in range(6)]
    for c in cases:
        n = c.ambient
        faces = faces_by_enumeration(c)
        nonfaces = {m for m in range(1 << n) if m not in faces
                    and all(m ^ (1 << v) in faces for v in bit_indices(m))}
        assert {sum(1 << v for v in t) for t in minimal_nonfaces(c)} == nonfaces
        ring = QuotientRing.make(QQ, n, [tuple(m >> v & 1 for v in range(n)) for m in nonfaces])
        assert complex_of_ring(ring) == c


def test_complex_of_ring_roundtrips_exhaustive():
    for n in range(1, 5):
        for c in complexes_on(n):
            for field in FIELDS:
                assert complex_of_ring(sr_quotient(field, c)) == c


def reference_apply(h, f):
    return h.target.normal_form(substitute(f, dict(enumerate(h.images)), h.target.context))


def test_renaming_matches_substitute_on_square_maps():
    # square maps and quotient maps are term filters, also on input that is
    # not in normal form
    rng = make_rng("renaming-squares")
    for field in FIELDS:
        for _, sq in corpus_squares(field):
            n = sq.a.nvars
            free = QuotientRing.make(field, n, ())
            constants = QuotientRing.make(
                field, n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
            quotient_maps = [RingHom.quotient_map(s, t) for s, t in
                             ((free, sq.a), (free, sq.a0), (sq.a, sq.a0), (sq.a1, sq.a0),
                              (sq.a, constants))]
            for h in (sq.i1, sq.i2, sq.j1, sq.j2, sq.section, *quotient_maps):
                for _ in range(10):
                    f = random_poly(h.source.context, rng, max_deg=3, terms=5)
                    assert h(f) == reference_apply(h, f)


def test_renaming_random_homs():
    # identity-or-zero images over one context, into square-free and other targets
    rng = make_rng("renaming-random")
    for field in FIELDS:
        for k in range(20):
            n = rng.randint(1, 5)
            src = QuotientRing.make(field, n, ())
            tgt = (random_square_free if k % 2 else random_general)(field, n, rng)
            ctx = tgt.context
            zeros = [rng.random() < 0.3 for _ in range(n)]
            imgs = [ctx.zero() if z else ctx.variable(i) for i, z in enumerate(zeros)]
            h = RingHom.make(src, tgt, imgs)
            # a variable the target ideal kills is in the mask as well
            mask = sum(1 << i for i, z in enumerate(zeros) if z)
            assert h.kill == mask | tgt.zero_mask
            assert h == RingHom(src, tgt, h.kill) and h.images == tuple(map(tgt.normal_form, imgs))
            for _ in range(10):
                f = random_poly(src.context, rng, max_deg=4, terms=6)
                assert h(f) == reference_apply(h, f)


def test_make_refuses_images_that_are_not_filters():
    for field in FIELDS:
        r = QuotientRing.make(field, 2, ())
        ctx = r.context
        x, y = ctx.variable(0), ctx.variable(1)
        for imgs in ([x + y, y], [x.scale(field.from_int(2)), y], [x * x, y], [ctx.one(), y],
                     [y, x]):
            with pytest.raises(HomError, match="neither itself nor 0"):
                RingHom.make(r, r, imgs)
        with pytest.raises(InputError):
            RingHom.make(r, r, [x])
        # filter images, but a source generator survives in the target
        with pytest.raises(HomError, match="maps to nonzero"):
            RingHom.make(QuotientRing.make(field, 2, ((1, 1),)), r, [x, y])


def test_make_refuses_colliding_images():
    # two variables sent to one: a term filter never merges terms
    for field in FIELDS:
        for n, gens in ((2, ()), (3, ()), (3, ((0, 1, 1),))):
            src = QuotientRing.make(field, n, ())
            tgt = QuotientRing.make(field, n, gens)
            y = [tgt.context.variable(i) for i in range(n)]
            for imgs in ([y[0], y[0]] + y[2:], [y[1], y[1]] + y[2:], y[:-1] + [y[0]]):
                with pytest.raises(HomError, match="neither itself nor 0"):
                    RingHom.make(src, tgt, imgs)


def test_foreign_polynomial_keeps_context_error():
    src = QuotientRing.make(QQ, 2, ())
    tgt = QuotientRing.make(QQ, 2, ((1, 1),))
    h = RingHom.quotient_map(src, tgt)
    assert h.kill == 0
    for foreign in (PolyRing(GF(5), 2).variable(0), PolyRing(QQ, 3).variable(2),
                    PolyRing(QQ, 3).variable(0)):
        with pytest.raises(ContextError):
            h(foreign)


def test_maps_between_contexts_are_refused():
    src = QuotientRing.make(QQ, 3, ((1, 1, 0),))
    for other in (QuotientRing.make(GF(5), 3, ((1, 1, 0),)),
                  QuotientRing.make(QQ, 4, ((1, 1, 0, 0),))):
        for source, target in ((src, other), (other, src)):
            with pytest.raises(ContextError):
                RingHom(source, target, 0)
            with pytest.raises(ContextError):
                RingHom.quotient_map(source, target)
    with pytest.raises(ContextError):
        RingHom.make(src, QuotientRing.make(GF(5), 3, ()),
                     [PolyRing(GF(5), 3).variable(v) for v in range(3)])
