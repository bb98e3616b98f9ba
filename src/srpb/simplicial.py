"""Simplicial complexes on an ambient vertex set {0..n}.

Faces are stored implicitly through the set of facets (maximal faces).
The empty face belongs to every complex; vertices of the ambient set that
appear in no face ("ghost" vertices) are permitted and contribute degree-one
generators to the Stanley-Reisner ideal.  Vertex bitmasks are the working
form: the deletion, link and cone are built from facet masks
(``_from_masks``, which records them), and vertex tuples are made only at
the edges (the canonical ``facets``, ``minimal_nonfaces``, ``sr_ideal`` and
printing).  Everything works on the facets: a vertex set is a non-face iff
it meets the complement of every facet, so the minimal non-faces are the
minimal transversals of the facet complements (``minimal_transversals``),
and no routine visits all 2^n vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
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


def _private_edge_block(t: int, edges: list) -> int:
    """The vertices v such that some u in t has v in every edge that meets t
    in u alone; t | v is minimal iff v is not among them."""
    shared: dict = {}
    for f in edges:
        u = f & t
        if u and not u & (u - 1):
            shared[u] = shared.get(u, f) & f
    return reduce(or_, shared.values(), 0)


def minimal_transversals(edges: Iterable[int]) -> list:
    """The minimal vertex masks that meet every mask in edges (Berge's algorithm).

    Edges are added smallest first.  A member that already meets the new edge
    stays minimal; one that misses it, t, grows by each vertex v of the edge,
    and t | v is minimal iff each u in t keeps a private edge, an earlier edge
    that meets t in u alone and misses v (v's is the new edge).  An empty edge
    leaves no transversal.  Raises InputError once the family passes MAX_TRANSVERSALS.
    """
    family, seen = [0], []
    for e in sorted(edges, key=int.bit_count):
        hit = [t for t in family if t & e]
        missing = [t for t in family if not t & e]
        blocks = [_private_edge_block(t, seen) for t in missing]
        family = hit
        for v in bit_indices(e):
            bit = 1 << v
            family += [t | bit for t, block in zip(missing, blocks) if not block & bit]
            if len(family) > MAX_TRANSVERSALS:
                raise InputError(f"more than {MAX_TRANSVERSALS} minimal transversals")
        seen.append(e)
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
        return SimplicialComplex(ambient, tuple(t for t, _ in _canonical(masks)))

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


def _canonical(masks) -> list:
    """(vertex tuple, mask) of each maximal member of masks ({0} when there
    are none), in the canonical facet order: by size, then lexicographic."""
    maximal: list = []
    for m in sorted(set(masks) or {0}, key=int.bit_count, reverse=True):
        if not any(m & g == m for g in maximal):
            maximal.append(m)
    return sorted(((_unmask(m), m) for m in maximal), key=lambda p: (len(p[0]), p[0]))


def _from_masks(ambient: int, masks) -> SimplicialComplex:
    """The complex whose facets are the maximal members of these in-range
    vertex masks, with its facet masks recorded, since they are at hand."""
    facets = _canonical(masks)
    c = SimplicialComplex(ambient, tuple(t for t, _ in facets))
    c.__dict__["facet_masks"] = tuple(m for _, m in facets)
    return c


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
    return _from_masks(c.ambient, [fm & ~bit for fm in c.facet_masks])


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces F with v not in F and F + {v} a face of c."""
    c._check_vertex(v)
    bit = 1 << v
    if not c.used_mask & bit:
        raise InputError(f"link at unused vertex {v}")
    return _from_masks(c.ambient, [fm & ~bit for fm in c.facet_masks if fm & bit])


def cone(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Cone over c with fresh apex v."""
    c._check_vertex(v)
    bit = 1 << v
    if c.used_mask & bit:
        raise InputError(f"cone apex {v} already used by the complex")
    return _from_masks(c.ambient, [fm | bit for fm in c.facet_masks])


def star(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Closed star of v: the cone over the link with apex v."""
    return cone(link(c, v), v)


@dataclass(frozen=True)
class ApexDecomposition:
    """Split of a non-simplex complex at an apex vertex.

    ``deletion_part`` and ``link_part`` satisfy, with C the cone over the
    link at the apex:  faces(c) = faces(deletion_part) | faces(C)  and
    faces(deletion_part) & faces(C) = faces(link_part).  Both hold by
    construction: D's faces are those of c avoiding the apex, C's those in a
    facet of c through it, and a face of both is a face of the link.
    """

    apex: int
    deletion_part: SimplicialComplex
    link_part: SimplicialComplex

    def cone_part(self) -> SimplicialComplex:
        return self._cone

    @cached_property
    def _cone(self) -> SimplicialComplex:
        return cone(self.link_part, self.apex)


def split_apex(c: SimplicialComplex) -> int:
    """The apex of c's split: the smallest used vertex whose star is proper,
    that is, the smallest used vertex that some facet misses.  Every
    non-simplex has one, as a facet other than the used vertex set misses a
    used vertex."""
    if c.is_simplex():
        raise PreconditionError("cannot decompose a simplex")
    missed = c.used_mask & ~reduce(and_, c.facet_masks)
    return (missed & -missed).bit_length() - 1


def apex_decomposition(c: SimplicialComplex) -> ApexDecomposition:
    """Split at ``split_apex(c)``."""
    apex = split_apex(c)
    return ApexDecomposition(apex, deletion(c, apex), link(c, apex))
