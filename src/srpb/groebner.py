"""Buchberger engine with cofactor tracking.

Every basis element carries an exact expression of itself as a combination
of the input generators, so ideal-membership answers come with certificates
that are re-verified by plain polynomial arithmetic before being returned.
Instances here are tiny (a few variables, low degree), so the classic
algorithm with the normal selection strategy is used without modular or
signature-based acceleration.  It backs ``member`` and ``unimodular_cert``;
units of a monomial quotient have a closed form (``quotient.unit_inverse``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ContextError, InputError, InternalCheckError
from .matrix import PolyMatrix
from .poly import Polynomial, exp_div, exp_divides, exp_lcm
from .quotient import QuotientRing
# kept here: bench/tracing.py finds its groebner.unit_inverse layer in this module
from .quotient import unit_inverse


@dataclass(frozen=True)
class MembershipCertificate:
    """target == sum(coefficients[i] * inputs[i]) exactly in the free ring."""

    target: Polynomial
    inputs: tuple
    coefficients: tuple

    def verify(self) -> bool:
        acc = self.target.ring.zero()
        for c, g in zip(self.coefficients, self.inputs):
            acc = acc + c * g
        return acc == self.target


class GroebnerBasis:
    """Reduced Groebner basis with cofactor rows over the inputs."""

    def __init__(self, inputs: Sequence[Polynomial], basis: Sequence[tuple]):
        self.inputs = tuple(inputs)
        self.basis = tuple(basis)  # (polynomial, cofactor row) pairs
        self.ring = inputs[0].ring

    def polys(self) -> tuple:
        return tuple(g for g, _ in self.basis)

    def reduce(self, f: Polynomial) -> tuple:
        """Full normal form of f plus cofactors over the inputs.

        Returns (r, cofs) with f == sum(cofs[i] * inputs[i]) + r and no term
        of r divisible by any basis leading monomial.
        """
        ring = f.ring
        fld = ring.field
        cofs = [ring.zero()] * len(self.inputs)
        r = ring.zero()
        p = f
        items = [(g.leading(), g, row) for g, row in self.basis]
        while not p.is_zero():
            (le, lc), reduced = p.leading(), False
            for (ge, gc), g, row in items:
                if exp_divides(ge, le):
                    q = ring.monomial(exp_div(le, ge), fld.div(lc, gc))
                    p = p - q * g
                    for i, c in enumerate(row):
                        if not c.is_zero():
                            cofs[i] = cofs[i] + q * c
                    reduced = True
                    break
            if not reduced:
                t = Polynomial(ring, (p.terms[0],))
                r = r + t
                p = p - t
        return r, tuple(cofs)


def buchberger(gens: Sequence[Polynomial]) -> GroebnerBasis:
    """Groebner basis with the normal pair-selection strategy.

    Pairs are processed by lowest lcm total degree, ties by index; the final
    basis is minimalized, tail-reduced and made monic, with cofactors carried
    through every reduction.
    """
    gens = [g for g in gens]
    if not gens:
        raise InputError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ContextError("generators over different contexts")
    fld = ring.field

    unit_rows = []
    for i in range(len(gens)):
        unit_rows.append(tuple(ring.one() if j == i else ring.zero()
                               for j in range(len(gens))))
    work = []  # list of [poly, cofactor tuple]
    for g, row in zip(gens, unit_rows):
        if not g.is_zero():
            lc = g.leading()[1]
            inv = fld.inv(lc)
            work.append((g.scale(inv), tuple(c.scale(inv) for c in row)))
    if not work:
        raise InputError("all generators are zero")

    gb = GroebnerBasis(gens, work)

    def spair_degree(i: int, j: int) -> int:
        return sum(exp_lcm(work[i][0].leading()[0], work[j][0].leading()[0]))

    pairs = {(i, j) for i in range(len(work)) for j in range(i)}
    while pairs:
        i, j = min(pairs, key=lambda ij: (spair_degree(ij[0], ij[1]), ij))
        pairs.discard((i, j))
        gi, rowi = work[i]
        gj, rowj = work[j]
        ei, ci = gi.leading()
        ej, cj = gj.leading()
        if not any(min(a, b) for a, b in zip(ei, ej)):
            continue  # coprime leading monomials reduce to zero
        lcm = exp_lcm(ei, ej)
        mi = ring.monomial(exp_div(lcm, ei), fld.inv(ci))
        mj = ring.monomial(exp_div(lcm, ej), fld.inv(cj))
        s = mi * gi - mj * gj
        srow = tuple(mi * a - mj * b for a, b in zip(rowi, rowj))
        gb = GroebnerBasis(gens, work)
        r, cofs = gb.reduce(s)
        if r.is_zero():
            continue
        total = tuple(a + b for a, b in zip(srow, tuple(-c for c in cofs)))
        lc = r.leading()[1]
        inv = fld.inv(lc)
        work.append((r.scale(inv), tuple(c.scale(inv) for c in total)))
        k = len(work) - 1
        pairs.update((k, t) for t in range(k))

    reduced = _minimalize_and_reduce(gens, work)
    out = GroebnerBasis(gens, reduced)
    _self_check(out)
    return out


def _minimalize_and_reduce(gens, work) -> list:
    ring = gens[0].ring
    # minimal: drop elements whose leading monomial another one divides
    keep = []
    for idx, (g, row) in enumerate(work):
        le = g.leading()[0]
        dominated = False
        for jdx, (h, _) in enumerate(work):
            if jdx == idx:
                continue
            he = h.leading()[0]
            if exp_divides(he, le) and (he != le or jdx < idx):
                dominated = True
                break
        if not dominated:
            keep.append((g, row))
    # tail-reduce each survivor against the others
    out = []
    for idx, (g, row) in enumerate(keep):
        others = [keep[j] for j in range(len(keep)) if j != idx]
        if not others:
            out.append((g, row))
            continue
        partial = GroebnerBasis(gens, others)
        r, cofs = partial.reduce(g)
        if r.is_zero():
            continue
        total = tuple(a - b for a, b in zip(row, cofs))
        lc = r.leading()[1]
        inv = ring.field.inv(lc)
        out.append((r.scale(inv), tuple(c.scale(inv) for c in total)))
    out.sort(key=lambda item: ring.order.key(item[0].leading()[0]))
    return out


def _self_check(gb: GroebnerBasis) -> None:
    ring = gb.ring
    fld = ring.field
    for g, row in gb.basis:
        acc = ring.zero()
        for c, src in zip(row, gb.inputs):
            acc = acc + c * src
        if acc != g:
            raise InternalCheckError("groebner: cofactor identity broken")
    polys = gb.polys()
    for i in range(len(polys)):
        for j in range(i):
            ei = polys[i].leading()[0]
            ej = polys[j].leading()[0]
            lcm = exp_lcm(ei, ej)
            mi = ring.monomial(exp_div(lcm, ei), fld.inv(polys[i].leading()[1]))
            mj = ring.monomial(exp_div(lcm, ej), fld.inv(polys[j].leading()[1]))
            s = mi * polys[i] - mj * polys[j]
            r, _ = gb.reduce(s)
            if not r.is_zero():
                raise InternalCheckError("groebner: S-polynomial does not reduce to zero")


def member(f: Polynomial, gens: Sequence[Polynomial]) -> Optional[MembershipCertificate]:
    """Certificate expressing f in the ideal of gens, or None."""
    gb = buchberger(gens)
    r, cofs = gb.reduce(f)
    if not r.is_zero():
        return None
    cert = MembershipCertificate(f, tuple(gens), cofs)
    if not cert.verify():
        raise InternalCheckError("membership certificate failed self-verification")
    return cert


def unimodular_cert(v: PolyMatrix, ring: QuotientRing) -> Optional[PolyMatrix]:
    """Completion row w with v * w^T == 1 in the ring, or None."""
    if v.rows != 1:
        raise InputError("unimodularity test expects a row vector")
    entries = [ring.normal_form(p) for p in v.entries]
    gens = entries + list(ring.generator_polys())
    cert = member(ring.context.one(), gens)
    if cert is None:
        return None
    w = PolyMatrix(ring.context, 1, v.cols,
                   [ring.normal_form(c) for c in cert.coefficients[:v.cols]])
    prod = ring.nf_matrix(v * w.transpose())
    if prod[0, 0] != ring.context.one():
        raise InternalCheckError("unimodular certificate does not pair to 1")
    return w
