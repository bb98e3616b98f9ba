"""Simplicial complexes on an ambient vertex set {0..n}.

Faces are stored implicitly through the set of facets (maximal faces).
The empty face belongs to every complex; vertices of the ambient set that
appear in no face ("ghost" vertices) are permitted and contribute degree-one
generators to the Stanley-Reisner ideal.  Internally faces are vertex
bitmasks.  Everything works on the facets: a vertex set is a non-face iff it
meets the complement of every facet, so the minimal non-faces are the
minimal transversals of the facet complements (``minimal_transversals``),
and no routine visits all 2^n vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputError, PreconditionError

# No antichain of vertex sets on 14 vertices has more than C(14, 7) = 3,432
# members, so a complex on at most 14 vertices never reaches this bound.
MAX_TRANSVERSALS = 4096


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_indices(bits: int):
    """Positions of the set bits of bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _unmask(m: int) -> tuple:
    return tuple(bit_indices(m))


def _subsets(m: int):
    """All submasks of m, including 0 and m."""
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


def minimal_transversals(edges: Iterable[int]) -> list:
    """The minimal vertex masks that meet every mask in edges (Berge's algorithm).

    Edges are added smallest first.  A member that already meets the new edge
    stays minimal; one that misses it grows by each vertex v of the edge, and
    the grown set is minimal unless a member meeting the edge lies inside it,
    which such a member can only do by containing v.  An empty edge leaves no
    transversal.  Raises InputError once the family passes MAX_TRANSVERSALS.
    """
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


@dataclass(frozen=True)
class SimplicialComplex:
    """ambient = number of available vertices n+1; facets are canonical."""

    ambient: int
    facets: tuple

    @staticmethod
    def from_facets(ambient: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        if ambient < 1:
            raise InputError("ambient vertex count must be at least 1")
        masks = set()
        for f in facets:
            fm = _mask(f)
            if fm >> ambient:
                raise InputError(f"facet {sorted(f)} out of range for ambient {ambient}")
            masks.add(fm)
        if not masks:
            masks = {0}
        # drop facets contained in another facet
        maximal = {f for f in masks if not any(f != g and f & g == f for g in masks)}
        canon = tuple(sorted((_unmask(f) for f in maximal), key=lambda t: (len(t), t)))
        return SimplicialComplex(ambient, canon)

    @staticmethod
    def simplex(ambient: int) -> "SimplicialComplex":
        """The full simplex on all ambient vertices."""
        return SimplicialComplex.from_facets(ambient, [range(ambient)])

    @staticmethod
    def empty(ambient: int) -> "SimplicialComplex":
        """The complex whose only face is the empty face."""
        return SimplicialComplex.from_facets(ambient, [[]])

    @cached_property
    def facet_masks(self) -> tuple:
        return tuple(_mask(f) for f in self.facets)

    @property
    def face_masks(self) -> frozenset:
        """The faces as vertex masks (submasks of the facets); InputError when
        the facets have more than MAX_TRANSVERSALS subsets in all."""
        if sum(1 << fm.bit_count() for fm in self.facet_masks) > MAX_TRANSVERSALS:
            raise InputError(f"listing the faces is limited to {MAX_TRANSVERSALS} facet subsets")
        return frozenset(sub for fm in self.facet_masks for sub in _subsets(fm))

    def faces(self) -> tuple:
        return tuple(sorted((_unmask(m) for m in self.face_masks), key=lambda t: (len(t), t)))

    @cached_property
    def used_mask(self) -> int:
        m = 0
        for fm in self.facet_masks:
            m |= fm
        return m

    def used_vertices(self) -> tuple:
        return _unmask(self.used_mask)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.ambient:
            raise InputError(f"vertex {v} out of range for ambient {self.ambient}")

    def is_face(self, vertices: Iterable[int]) -> bool:
        vm = _mask(vertices)
        if vm >> self.ambient:
            raise InputError(f"vertex set {sorted(_unmask(vm))} out of range")
        return any(vm & fm == vm for fm in self.facet_masks)

    def is_simplex(self) -> bool:
        """True when the used vertices themselves form a face."""
        return self.used_mask in self.facet_masks

    def __str__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"Complex(ambient={self.ambient}, facets=[{body}])"


def minimal_nonfaces(c: SimplicialComplex) -> tuple:
    """Vertex sets that are not faces while every proper subset is a face:
    the minimal transversals of the facet complements."""
    full = (1 << c.ambient) - 1
    out = [_unmask(m) for m in minimal_transversals(full & ~f for f in c.facet_masks)]
    out.sort(key=lambda t: (len(t), t))
    return tuple(out)


def sr_ideal(c: SimplicialComplex) -> tuple:
    """Square-free exponent vectors generating the Stanley-Reisner ideal."""
    return tuple(tuple(int(v in nf) for v in range(c.ambient)) for nf in minimal_nonfaces(c))


def deletion(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces of c that avoid v."""
    c._check_vertex(v)
    bit = 1 << v
    return SimplicialComplex.from_facets(
        c.ambient, [_unmask(fm & ~bit) for fm in c.facet_masks])


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces F with v not in F and F + {v} a face of c."""
    c._check_vertex(v)
    bit = 1 << v
    if not c.used_mask & bit:
        raise InputError(f"link at unused vertex {v}")
    return SimplicialComplex.from_facets(
        c.ambient, [_unmask(fm & ~bit) for fm in c.facet_masks if fm & bit])


def cone(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Cone over c with fresh apex v."""
    c._check_vertex(v)
    bit = 1 << v
    if c.used_mask & bit:
        raise InputError(f"cone apex {v} already used by the complex")
    return SimplicialComplex.from_facets(
        c.ambient, [_unmask(fm | bit) for fm in c.facet_masks])


def star(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Closed star of v: the cone over the link with apex v."""
    return cone(link(c, v), v)


@dataclass(frozen=True)
class ApexDecomposition:
    """Split of a non-simplex complex at an apex vertex.

    ``deletion_part`` and ``link_part`` satisfy, with C the cone over the
    link at the apex:  faces(c) = faces(deletion_part) | faces(C)  and
    faces(deletion_part) & faces(C) = faces(link_part).
    """

    apex: int
    deletion_part: SimplicialComplex
    link_part: SimplicialComplex

    def cone_part(self) -> SimplicialComplex:
        return cone(self.link_part, self.apex)


def apex_decomposition(c: SimplicialComplex) -> ApexDecomposition:
    """Split at the smallest used vertex whose star is proper, that is, the
    smallest used vertex that some facet misses."""
    if c.is_simplex():
        raise PreconditionError("cannot decompose a simplex")
    apex = next((v for v in c.used_vertices()
                 if any(not fm >> v & 1 for fm in c.facet_masks)), None)
    if apex is None:
        raise PreconditionError("no admissible apex found (complex is a cone over every vertex)")
    d = deletion(c, apex)
    l = link(c, apex)
    split = ApexDecomposition(apex, d, l)
    _check_split(c, split)
    return split


def _within(masks, facet_masks) -> bool:
    """Every mask in masks lies inside one of facet_masks."""
    return all(any(m & f == m for f in facet_masks) for m in masks)


def _check_split(c: SimplicialComplex, s: ApexDecomposition) -> None:
    # The identities are checked on facets: the faces of a complex are the
    # subsets of its facets, and faces(D) & faces(C) is generated by the
    # pairwise intersections of the facets of D and C.
    cone_facets = s.cone_part().facet_masks
    del_facets = s.deletion_part.facet_masks
    link_facets = s.link_part.facet_masks
    if not (_within(del_facets + cone_facets, c.facet_masks)
            and _within(c.facet_masks, del_facets + cone_facets)):
        raise PreconditionError("decomposition does not cover the complex")
    if not (_within(link_facets, del_facets) and _within(link_facets, cone_facets)
            and _within([d & k for d in del_facets for k in cone_facets], link_facets)):
        raise PreconditionError("decomposition overlap is not the link")


def complexes_on(ambient: int):
    """Every simplicial complex on the ambient vertex set (exhaustive).

    Enumerates antichains of nonempty vertex subsets; the complex with no
    used vertices is included.  Intended for small ambient counts.
    """
    yield SimplicialComplex.empty(ambient)
    masks = list(range(1, 1 << ambient))

    def rec(start: int, chosen: list):
        for idx in range(start, len(masks)):
            m = masks[idx]
            if any(m & c == m or m & c == c for c in chosen):
                continue
            chosen.append(m)
            yield SimplicialComplex.from_facets(ambient, [_unmask(x) for x in chosen])
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def random_complex(ambient: int, rng) -> SimplicialComplex:
    """Random complex: a handful of random facets, minimalized."""
    k = rng.randint(1, max(2, ambient))
    facets = []
    for _ in range(k):
        size = rng.randint(0, ambient)
        facets.append(rng.sample(range(ambient), size))
    return SimplicialComplex.from_facets(ambient, facets)
