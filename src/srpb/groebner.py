"""Buchberger engine with cofactor tracking.

Every basis element carries an exact expression of itself as a combination
of the input generators, so ideal-membership answers come with certificates
that are re-verified by plain polynomial arithmetic before being returned.
Instances here are tiny (a few variables, low degree), so the classic
algorithm with the normal selection strategy is used without modular or
signature-based acceleration, under a work budget: one basis, and one
reduction of a target against it, may each spend at most
``BUCHBERGER_MAX_TERM_OPS`` operations, one per term of the polynomials
and cofactors each step multiplies or adds to and one per pair each pair
selection scans, before an InputError.  It backs ``member`` and
``unimodular_cert``; units of a monomial quotient have a closed form
(``quotient.unit_inverse``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ContextError, InputError, InternalCheckError
from .matrix import PolyMatrix
from .poly import Polynomial, exp_div, exp_divides, exp_lcm, grevlex
from .quotient import QuotientRing
# kept here: bench/tracing.py finds its groebner.unit_inverse layer in this module
from .quotient import unit_inverse

# the largest basis of the test suite spends 34,736; cyclic-5 over F_32003
# runs out after about a second on a 2-CPU box
BUCHBERGER_MAX_TERM_OPS = 1_000_000


class _Budget:
    """Term operations left to one basis or one reduction of a target."""

    def __init__(self):
        self.left = BUCHBERGER_MAX_TERM_OPS

    def spend(self, *polys: Polynomial, ops: int = 0) -> None:
        """Charge one operation per term of each polynomial a step multiplies
        or adds to, and ``ops`` more."""
        self.left -= ops + sum(len(p.terms) for p in polys)
        if self.left < 0:
            raise InputError(f"Groebner basis work needs more than "
                             f"{BUCHBERGER_MAX_TERM_OPS} term operations")


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

    def reduce(self, f: Polynomial, budget: Optional[_Budget] = None) -> tuple:
        """Full normal form of f plus cofactors over the inputs.

        Returns (r, cofs) with f == sum(cofs[i] * inputs[i]) + r and no term
        of r divisible by any basis leading monomial; each reduction step
        is charged to the budget, a fresh one by default.
        """
        budget = budget or _Budget()
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
                    budget.spend(p, g, *row, *cofs)
                    q = ring.monomial(exp_div(le, ge), fld.div(lc, gc))
                    p = p - q * g
                    for i, c in enumerate(row):
                        if not c.is_zero():
                            cofs[i] = cofs[i] + q * c
                    reduced = True
                    break
            if not reduced:
                budget.spend(p, r)
                t = Polynomial(ring, (p.terms[0],))
                r = r + t
                p = p - t
        return r, tuple(cofs)


def buchberger(gens: Sequence[Polynomial]) -> GroebnerBasis:
    """Groebner basis with the normal pair-selection strategy.

    Pairs are processed by lowest lcm total degree, ties by index; the final
    basis is minimalized, tail-reduced and made monic, with cofactors carried
    through every reduction.  The S-polynomials and every reduction,
    including the final tail reduction and self-check, share one budget.
    """
    gens = [g for g in gens]
    if not gens:
        raise InputError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ContextError("generators over different contexts")
    budget = _Budget()

    unit_rows = [tuple(ring.one() if j == i else ring.zero() for j in range(len(gens)))
                 for i in range(len(gens))]
    work = [_monic(g, row) for g, row in zip(gens, unit_rows) if not g.is_zero()]
    if not work:
        raise InputError("all generators are zero")

    def spair_degree(i: int, j: int) -> int:
        return sum(exp_lcm(work[i][0].leading()[0], work[j][0].leading()[0]))

    pairs = {(i, j): spair_degree(i, j) for i in range(len(work)) for j in range(i)}
    while pairs:
        budget.spend(ops=len(pairs))  # the scan for the next pair
        i, j = min(pairs, key=lambda ij: (pairs[ij], ij))
        del pairs[i, j]
        gi, rowi = work[i]
        gj, rowj = work[j]
        if not any(map(min, gi.leading()[0], gj.leading()[0])):
            continue  # coprime leading monomials reduce to zero
        mi, mj = _s_multipliers(gi, gj)
        budget.spend(gi, gj, *rowi, *rowj)
        s = mi * gi - mj * gj
        srow = tuple(mi * a - mj * b for a, b in zip(rowi, rowj))
        gb = GroebnerBasis(gens, work)
        r, cofs = gb.reduce(s, budget)
        if r.is_zero():
            continue
        work.append(_monic(r, tuple(a - c for a, c in zip(srow, cofs))))
        k = len(work) - 1
        pairs.update(((k, t), spair_degree(k, t)) for t in range(k))

    reduced = _minimalize_and_reduce(gens, work, budget)
    out = GroebnerBasis(gens, reduced)
    _self_check(out, budget)
    return out


def _monic(g: Polynomial, row: Sequence[Polynomial]) -> tuple:
    """g and its cofactor row scaled by the inverse of g's leading coefficient."""
    inv = g.ring.field.inv(g.leading()[1])
    return g.scale(inv), tuple(c.scale(inv) for c in row)


def _s_multipliers(gi: Polynomial, gj: Polynomial) -> tuple:
    """(mi, mj) with mi * gi - mj * gj the S-polynomial of gi and gj."""
    (ei, ci), (ej, cj) = gi.leading(), gj.leading()
    lcm, ring = exp_lcm(ei, ej), gi.ring
    return (ring.monomial(exp_div(lcm, ei), ring.field.inv(ci)),
            ring.monomial(exp_div(lcm, ej), ring.field.inv(cj)))


def _minimalize_and_reduce(gens, work, budget: _Budget) -> list:
    # minimal: drop elements whose leading monomial another one divides
    lead = [g.leading()[0] for g, _ in work]
    keep = [item for idx, (item, le) in enumerate(zip(work, lead))
            if not any(exp_divides(he, le) and (he != le or jdx < idx)
                       for jdx, he in enumerate(lead) if jdx != idx)]
    # tail-reduce each survivor against the others
    out = []
    for idx, (g, row) in enumerate(keep):
        others = [keep[j] for j in range(len(keep)) if j != idx]
        if not others:
            out.append((g, row))
            continue
        partial = GroebnerBasis(gens, others)
        r, cofs = partial.reduce(g, budget)
        if r.is_zero():
            continue
        out.append(_monic(r, tuple(a - b for a, b in zip(row, cofs))))
    out.sort(key=lambda item: grevlex(item[0].leading()[0]))
    return out


def _self_check(gb: GroebnerBasis, budget: _Budget) -> None:
    for g, row in gb.basis:
        if not MembershipCertificate(g, gb.inputs, row).verify():
            raise InternalCheckError("groebner: cofactor identity broken")
    polys = gb.polys()
    for i in range(len(polys)):
        for j in range(i):
            mi, mj = _s_multipliers(polys[i], polys[j])
            s = mi * polys[i] - mj * polys[j]
            r, _ = gb.reduce(s, budget)
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
    prod = ring.mat_mul(v, w.transpose())
    if prod[0, 0] != ring.context.one():
        raise InternalCheckError("unimodular certificate does not pair to 1")
    return w
