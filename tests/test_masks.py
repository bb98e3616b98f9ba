"""Differential tests for the bitmask monomial layer.

Each fast path (mask survival, minimal transversals, term-filter ring homs,
square corners read from the ideal's generator masks, complexes, rings and
squares built on vertex masks) is checked against a direct reference
computation on seeded random inputs.
"""

import time

import pytest

from srpb import (GF, QQ, Polynomial, PolyRing, QuotientRing, RingHom, SimplicialComplex,
                  build_fiber_square, certs, complex_of_ring, quotient, simplicial)
from srpb.errors import ContextError, HomError, InputError
from srpb.poly import exp_divides, support_mask
from srpb.quotient import _sr_ring, sr_quotient
from srpb.simplicial import (ApexDecomposition, apex_decomposition, bit_indices, cone,
                             deletion, link, minimal_nonfaces, minimal_transversals, sr_ideal)
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


def test_free_variables_are_the_complement_of_the_generator_supports():
    rng = make_rng("free-variables")
    for field in FIELDS:
        rings = [QuotientRing.make(field, 3, ()), QuotientRing.make(field, 3, ((0, 2, 0),))]
        for n in (2, 4, 6):
            rings += [random_square_free(field, n, rng) for _ in range(4)]
            rings += [random_general(field, n, rng) for _ in range(4)]
        for r in rings:
            expected = tuple(v for v in range(r.nvars) if all(g[v] == 0 for g in r.generators))
            assert r.free_variables == expected
            assert r.free_variables is r.free_variables  # cached per ring
    assert QuotientRing.make(QQ, 3, ((0, 2, 0),)).free_variables == (0, 2)


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


def reference_faces(c):
    """Every subset of every facet, with no cap on their number."""
    out = set()
    for fm in c.facet_masks:
        sub = fm
        while True:
            out.add(sub)
            if not sub:
                break
            sub = (sub - 1) & fm
    return out


def reference_split_error(c, s):
    """The first split identity that fails on the face sets, or None."""
    cone_faces = reference_faces(s.cone_part())
    del_faces = reference_faces(s.deletion_part)
    if del_faces | cone_faces != reference_faces(c):
        return "decomposition does not cover the complex"
    if del_faces & cone_faces != reference_faces(s.link_part):
        return "decomposition overlap is not the link"
    return None


def test_reference_split_error_sees_a_wrong_split():
    c = SimplicialComplex.from_facets(3, [[0, 1], [1, 2], [0, 2]])
    good = apex_decomposition(c)
    assert reference_split_error(c, good) is None
    point = SimplicialComplex.from_facets(3, [[1]])
    assert reference_split_error(c, ApexDecomposition(good.apex, point, good.link_part)) == \
        "decomposition does not cover the complex"
    assert reference_split_error(c, ApexDecomposition(good.apex, good.deletion_part, point)) == \
        "decomposition does not cover the complex"
    assert reference_split_error(c, ApexDecomposition(good.apex, c, good.link_part)) == \
        "decomposition overlap is not the link"


def test_apex_split_identities_hold_by_construction():
    """faces(D) | faces(C) == faces(c) and faces(D) & faces(C) == faces(L),
    which ``apex_decomposition`` no longer re-checks, on every complex on
    2 to 5 vertices and on seeded random complexes on 2 to 12."""
    rng = make_rng("split-identities")
    pool = [c for n in range(2, 6) for c in complexes_on(n)]
    pool += [random_complex(rng.randint(2, 12), rng) for _ in range(3000)]
    split = 0
    for c in pool:
        if c.is_simplex():
            continue
        assert reference_split_error(c, apex_decomposition(c)) is None, str(c)
        split += 1
    assert split > 8000


def random_ghosted_complex(rng):
    """Random facets on a random subset of 2 to 12 vertices; the rest are ghosts."""
    n = rng.randint(2, 12)
    live = rng.sample(range(n), rng.randint(2, n))
    facets = [rng.sample(live, rng.randint(1, len(live) - 1)) for _ in range(rng.randint(2, 6))]
    return SimplicialComplex.from_facets(n, facets)


def test_square_corners_read_from_the_ideal_match_their_parts():
    """a1 = min(I + (x)), a2 = min(I : x) and a0 = min((I : x) + (x)) at the
    apex x are the Stanley-Reisner rings of the deletion, cone and link parts,
    generator for generator, on every non-simplex complex on 2 to 5 vertices
    and on seeded random complexes on 2 to 12, most with ghost vertices."""
    rng = make_rng("square-corners")
    exhaustive = [c for n in range(2, 6) for c in complexes_on(n)]
    randoms = [random_ghosted_complex(rng) for _ in range(3000)]
    counts = []
    for pool in (exhaustive, randoms):
        split = ghosted = 0
        for c in pool:
            if c.is_simplex():
                continue
            sq = build_fiber_square(QQ, c)
            parts = (sq.split.deletion_part, sq.split.cone_part(), sq.split.link_part)
            for corner, part in zip((sq.a1, sq.a2, sq.a0), parts):
                assert corner.generators == _sr_ring(sq.a.context, part).generators, str(c)
            split += 1
            ghosted += c.used_mask != (1 << c.ambient) - 1
        counts.append((split, ghosted))
    (exhaustive_split, _), (random_split, random_ghosted) = counts
    assert exhaustive_split > 7000 and random_split > 2000 and random_ghosted > 1500


def reference_complex(ambient, facets):
    """The complex with these facets, built on vertex sets: the maximal ones
    as sorted tuples, by size, then lexicographic."""
    sets = {frozenset(f) for f in facets} or {frozenset()}
    maximal = (s for s in sets if not any(s < t for t in sets))
    return SimplicialComplex(ambient, tuple(sorted((tuple(sorted(s)) for s in maximal),
                                                   key=lambda t: (len(t), t))))


def reference_split(c):
    """(apex, deletion, cone, link) of c's split, on vertex sets: the apex is
    the smallest used vertex that some facet misses."""
    used = {v for f in c.facets for v in f}
    apex = min(v for v in used if any(v not in f for f in c.facets))
    deleted = reference_complex(c.ambient, [set(f) - {apex} for f in c.facets])
    linked = reference_complex(c.ambient, [set(f) - {apex} for f in c.facets if apex in f])
    coned = reference_complex(c.ambient, [set(f) | {apex} for f in linked.facets])
    return apex, deleted, coned, linked


def reference_ring(field, c):
    """c's Stanley-Reisner ring from the exponent vectors of its minimal
    non-faces, sorted by degree, then exponent vector."""
    gens = sorted(sr_ideal(c), key=lambda e: (sum(e), e))
    return QuotientRing(PolyRing(field, c.ambient), tuple(gens))


def reference_square(field, c):
    """(rings, homs, parts, payload) of c's fiber square, each hom's kill
    set the vertices its target's complex leaves unused."""
    apex, *parts = reference_split(c)
    a = reference_ring(field, c)
    a1, a2, a0 = (reference_ring(field, p) for p in parts)

    def kill(part):
        used = {v for f in part.facets for v in f}
        return sum(1 << v for v in range(c.ambient) if v not in used)

    k1, k2, k0 = (kill(p) for p in parts)
    homs = (RingHom(a, a1, k1), RingHom(a, a2, k2), RingHom(a1, a0, k0),
            RingHom(a2, a0, k0), RingHom(a0, a2, k2 | 1 << apex))
    payload = {
        "apex": apex,
        "complex": {"ambient": c.ambient, "facets": [list(f) for f in c.facets]},
        "rings": {name: certs.ring_payload(r)
                  for name, r in zip(("a", "a1", "a2", "a0"), (a, a1, a2, a0))},
        "homs": {name: ["0" if h.kill >> v & 1 else f"x{v}" for v in range(c.ambient)]
                 for name, h in zip(("i1", "i2", "j1", "j2", "section"), homs)},
    }
    return (a, a1, a2, a0), homs, (apex, *parts), payload


def assert_records_its_facet_masks(c):
    assert c.facet_masks == tuple(sum(1 << v for v in f) for f in c.facets), str(c)


def random_facet_lists(rng, count):
    """(ambient, facets) on 2 to 12 vertices, with ghost vertices, repeated
    facets and facets inside others."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 12)
        live = rng.sample(range(n), rng.randint(2, n))
        facets = [rng.sample(live, rng.randint(0, len(live) - 1))
                  for _ in range(rng.randint(1, 6))]
        facets += [rng.sample(f, rng.randint(0, len(f))) for f in facets[:2]] + facets[:1]
        out.append((n, facets))
    return out


def test_mask_built_complexes_rings_and_squares_match_tuple_references():
    """Complexes built on masks (``from_facets``, ``deletion``, ``link``,
    ``cone``), rings read from minimal-transversal masks and squares whose
    kill masks come from facet masks equal references built on vertex
    tuples and exponent vectors: facets, generators in order, generator
    masks, the five homs, the split parts and the ``square_payload`` bytes,
    on every complex on 2 to 5 vertices and on 3,000 seeded random ones on
    2 to 12 vertices with ghost vertices."""
    rng = make_rng("mask-equivalence")
    cases = [(n, c.facets) for n in range(2, 6) for c in complexes_on(n)]
    cases += random_facet_lists(rng, 3000)
    squares = ghosted = 0
    for k, (n, facets) in enumerate(cases):
        c = SimplicialComplex.from_facets(n, facets)
        assert c == reference_complex(n, facets), (n, facets)
        if c.is_simplex():
            continue
        field = FIELDS[k % 2]
        rings, homs, split, payload = reference_square(field, c)
        sq = build_fiber_square(field, c)
        for made, ref in zip((sq.a, sq.a1, sq.a2, sq.a0), rings):
            assert made.generators == ref.generators, str(c)
            assert made.generator_masks == tuple(map(support_mask, ref.generators)), str(c)
        assert (sq.i1, sq.i2, sq.j1, sq.j2, sq.section) == homs, str(c)
        parts = (sq.split.deletion_part, sq.split.cone_part(), sq.split.link_part)
        assert (sq.apex, *parts) == split, str(c)
        for part in parts:
            assert_records_its_facet_masks(part)
        assert certs.dump_canonical(certs.square_payload(sq)) == \
            certs.dump_canonical(payload), str(c)
        squares += 1
        ghosted += c.used_mask != (1 << n) - 1
    assert squares > 9000 and ghosted > 1500


def test_part_builders_match_tuple_references_at_every_vertex():
    rng = make_rng("mask-parts")
    for n, facets in random_facet_lists(rng, 500):
        c = SimplicialComplex.from_facets(n, facets)
        for v in range(n):
            if c.used_mask >> v & 1:
                made = [(deletion(c, v), [set(f) - {v} for f in c.facets]),
                        (link(c, v), [set(f) - {v} for f in c.facets if v in f])]
            else:
                made = [(cone(c, v), [set(f) | {v} for f in c.facets])]
            for part, facet_sets in made:
                assert part == reference_complex(n, facet_sets), (str(c), v)
                assert_records_its_facet_masks(part)


def test_square_builds_its_split_parts_on_first_read(monkeypatch):
    """``build_fiber_square`` builds no part of the split (no
    ``apex_decomposition`` and no complex from masks) until ``split`` or a
    corner's ``sr_complex`` is read; then one split serves the square and
    all three corners."""
    splits, built = [], []
    decompose, from_masks = quotient.apex_decomposition, simplicial._from_masks

    def counting_decomposition(c):
        splits.append(c)
        return decompose(c)

    def counting_from_masks(ambient, masks):
        built.append(ambient)
        return from_masks(ambient, masks)

    monkeypatch.setattr(quotient, "apex_decomposition", counting_decomposition)
    monkeypatch.setattr(simplicial, "_from_masks", counting_from_masks)
    pool = [c for n in range(2, 5) for c in complexes_on(n) if not c.is_simplex()]
    for k, c in enumerate(pool):
        sq = build_fiber_square(QQ, c)
        certs.square_payload(sq)
        assert not splits and not built, str(c)
        corners = (sq.a1, sq.a2, sq.a0)
        if k % 2:
            corners[k % 3].sr_complex
        else:
            sq.split
        assert splits == [c] and built, str(c)
        parts = (sq.split.deletion_part, sq.split.cone_part(), sq.split.link_part)
        assert all(r.sr_complex is p for r, p in zip(corners, parts)), str(c)
        assert splits == [c], str(c)
        splits.clear()
        built.clear()


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
