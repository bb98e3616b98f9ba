import pytest

from srpb import SimplicialComplex, apex_decomposition, cone, deletion, link, star
from srpb.simplicial import (MAX_TRANSVERSALS, bit_indices, minimal_nonfaces,
                             minimal_transversals, sr_ideal)
from srpb.errors import InputError, PreconditionError
from helpers import (complexes_on, cone_two_points, hollow_triangle, make_rng,
                     random_complex, two_points)


def test_empty_face_always_present():
    c = SimplicialComplex.empty(2)
    assert c.is_face([])
    assert c.faces() == ((),)


def test_is_face_examples():
    h = hollow_triangle()
    assert h.is_face([])
    assert h.is_face([0, 1])
    assert not h.is_face([0, 1, 2])
    with pytest.raises(InputError):
        h.is_face([5])


def test_facet_minimalization():
    c = SimplicialComplex.from_facets(3, [[0], [0, 1], [1, 2]])
    assert c.facets == ((0, 1), (1, 2))


def test_minimal_nonfaces_examples():
    assert minimal_nonfaces(SimplicialComplex.simplex(3)) == ()
    assert minimal_nonfaces(two_points()) == ((0, 1),)
    assert minimal_nonfaces(hollow_triangle()) == ((0, 1, 2),)


def test_sr_ideal_examples():
    assert sr_ideal(SimplicialComplex.simplex(2)) == ()
    assert sr_ideal(two_points()) == ((1, 1),)
    # no used vertices on two ambient vertices: both variables die
    assert sr_ideal(SimplicialComplex.empty(2)) == ((1, 0), (0, 1))


def test_link_deletion_cone_star():
    h = hollow_triangle()
    assert link(h, 0) == SimplicialComplex.from_facets(3, [[1], [2]])
    assert deletion(h, 0) == SimplicialComplex.from_facets(3, [[1, 2]])
    pt = SimplicialComplex.empty(2)
    assert cone(pt, 1) == SimplicialComplex.from_facets(2, [[1]])
    assert star(h, 0) == SimplicialComplex.from_facets(3, [[0, 1], [0, 2]])


def test_deletion_of_unused_vertex_is_identity():
    c = SimplicialComplex.from_facets(3, [[0, 1]])
    assert deletion(c, 2) == c


def test_cone_on_used_vertex_rejected():
    with pytest.raises(InputError):
        cone(two_points(), 0)
    with pytest.raises(InputError):
        link(SimplicialComplex.from_facets(3, [[0, 1]]), 2)


def test_is_simplex():
    assert SimplicialComplex.simplex(3).is_simplex()
    assert SimplicialComplex.empty(2).is_simplex()
    assert not hollow_triangle().is_simplex()
    assert SimplicialComplex.from_facets(3, [[1]]).is_simplex()


def test_apex_decomposition_examples():
    s = apex_decomposition(two_points())
    assert s.apex == 0
    assert s.deletion_part == SimplicialComplex.from_facets(2, [[1]])
    assert s.link_part == SimplicialComplex.empty(2)

    s = apex_decomposition(hollow_triangle())
    assert s.apex == 0
    assert s.deletion_part == SimplicialComplex.from_facets(3, [[1, 2]])
    assert s.link_part == SimplicialComplex.from_facets(3, [[1], [2]])

    s = apex_decomposition(cone_two_points())
    assert s.apex == 1  # star at 0 is the whole complex, so 0 is skipped
    assert s.deletion_part == SimplicialComplex.from_facets(3, [[0, 2]])
    assert s.link_part == SimplicialComplex.from_facets(3, [[0]])


def test_apex_decomposition_rejects_simplex():
    with pytest.raises(PreconditionError):
        apex_decomposition(SimplicialComplex.simplex(2))


def test_downward_closure_exhaustive():
    for n in range(1, 5):
        for c in complexes_on(n):
            faces = c.face_masks
            for f in faces:
                sub = f
                while sub:
                    sub = (sub - 1) & f
                    assert sub in faces


def test_face_nonface_dichotomy():
    rng = make_rng("dichotomy")
    for c in list(complexes_on(3)) + [hollow_triangle(), two_points()]:
        nonfaces = [set(nf) for nf in minimal_nonfaces(c)]
        for m in range(1 << c.ambient):
            s = {i for i in range(c.ambient) if m >> i & 1}
            is_f = c.is_face(s)
            contains_nf = any(nf <= s for nf in nonfaces)
            assert is_f != contains_nf or (is_f and not contains_nf)


def test_decomposition_identities_small_exhaustive():
    for n in range(1, 5):
        for c in complexes_on(n):
            if c.is_simplex():
                continue
            s = apex_decomposition(c)  # identity checks run inside
            cone_part = s.cone_part()
            assert s.deletion_part.face_masks | cone_part.face_masks == c.face_masks
            assert s.deletion_part.face_masks & cone_part.face_masks == s.link_part.face_masks


def test_every_nonsimplex_has_an_apex_exhaustive_5():
    count = 0
    for c in complexes_on(5):
        if c.is_simplex():
            continue
        count += 1
        assert any(star(c, v) != c for v in c.used_vertices())
    assert count > 7000  # most of the 7580 complexes on 5 vertices


def test_apex_is_the_first_vertex_whose_star_is_proper():
    # apex_decomposition tests facet masks; star(c, v) == c exactly when
    # every facet contains v
    rng = make_rng("apex-rule")
    corpus = [c for n in range(1, 6) for c in complexes_on(n)]
    corpus += [random_complex(rng.randint(2, 14), rng) for _ in range(3000)]
    split = 0
    for c in corpus:
        if c.is_simplex():
            continue
        by_star = next(v for v in c.used_vertices() if star(c, v) != c)
        assert apex_decomposition(c).apex == by_star
        split += 1
    assert split > 8000


def test_apex_split_depth_is_below_the_ambient():
    # the engines bound their recursion by the ambient vertex count
    depths = {}

    def depth(c):
        if c.is_simplex():
            return 0
        if c not in depths:
            s = apex_decomposition(c)
            depths[c] = 1 + max(depth(s.deletion_part), depth(s.cone_part()))
        return depths[c]

    for n in range(1, 6):
        assert max(depth(c) for c in complexes_on(n)) == n - 1


def test_complex_enumeration_counts():
    # downward-closed families containing the empty face: Dedekind counts minus the void
    assert sum(1 for _ in complexes_on(1)) == 2
    assert sum(1 for _ in complexes_on(2)) == 5
    assert sum(1 for _ in complexes_on(3)) == 19
    assert sum(1 for _ in complexes_on(4)) == 167


def berge_reference(edges):
    """Berge's algorithm with the pairwise minimality scan: a grown set
    t | v is minimal unless a member that meets the new edge lies inside it."""
    family = [0]
    for e in sorted(edges, key=int.bit_count):
        hit = [t for t in family if t & e]
        missing = [t for t in family if not t & e]
        family = list(hit)
        for v in bit_indices(e):
            bit = 1 << v
            through = [h for h in hit if h & bit]
            family += [t | bit for t in missing if not any(h & t == h ^ bit for h in through)]
            if len(family) > MAX_TRANSVERSALS:
                raise InputError(f"more than {MAX_TRANSVERSALS} minimal transversals")
    return family


def test_private_edge_transversals_match_the_pairwise_scan():
    cases = []
    for n in range(1, 6):
        full = (1 << n) - 1
        cases += [[full & ~f for f in c.facet_masks] for c in complexes_on(n)]
    rng = make_rng("private-edge")
    for _ in range(300):
        n = rng.randint(1, 16)
        cases.append([rng.randrange(1 << n) for _ in range(rng.randint(0, 12))])
    capped = 0
    for edges in cases:
        try:
            want = berge_reference(edges)
        except InputError:
            capped += 1
            with pytest.raises(InputError):
                minimal_transversals(edges)
            continue
        assert minimal_transversals(edges) == want
    assert len(cases) - capped > 7000
    # large families: random 5-sets on 20 vertices and pairs on 40
    for n, k, count in ((20, 5, 40), (40, 2, 30)):
        edges = [sum(1 << v for v in rng.sample(range(n), k)) for _ in range(count)]
        try:
            want = berge_reference(edges)
        except InputError:
            with pytest.raises(InputError):
                minimal_transversals(edges)
            continue
        assert minimal_transversals(edges) == want
    # 12 disjoint pairs fill the family to the cap, and the 13th passes it in both
    pairs = [3 << 2 * i for i in range(13)]
    assert minimal_transversals(pairs[:12]) == berge_reference(pairs[:12])
    for routine in (berge_reference, minimal_transversals):
        with pytest.raises(InputError):
            routine(pairs)
