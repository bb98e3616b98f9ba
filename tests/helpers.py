"""Shared test fixtures: seeded randomness, random algebra, and the corpus."""

from __future__ import annotations

import os
import random

from srpb import QQ, GLMat, ModIso, PolyMatrix, ProjModule, SimplicialComplex
from srpb.simplicial import bit_indices

SEED = int(os.environ.get("SRPB_SEED", "20260808"))


def make_rng(tag: str = "") -> random.Random:
    return random.Random(f"{SEED}:{tag}")


def random_poly(ring, rng, max_deg=2, terms=3, nonzero=False):
    ctx = ring.context if hasattr(ring, "context") else ring
    out = ctx.zero()
    for _ in range(terms):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ctx.nvars)] += 1
        coeff = rng.randint(-3, 3)
        out = out + ctx.monomial(tuple(exps), ctx.field.from_int(coeff))
    if hasattr(ring, "normal_form"):
        out = ring.normal_form(out)
    if nonzero and out.is_zero():
        return ctx.one()
    return out


def substitute(f, assignment, target=None):
    """f with x_i -> assignment[i] over target (default f's context), unassigned
    variables to themselves: the plain reference that ring maps are compared with."""
    tgt = target if target is not None else f.ring
    out = tgt.zero()
    for exps, coeff in f.terms:
        acc = tgt.constant(coeff)
        for i, e in enumerate(exps):
            if e:
                img = assignment.get(i)
                acc = acc * (img ** e if img is not None else tgt.variable(i) ** e)
        out = out + acc
    return out


def random_elementary_product(ring, size, rng, count=None, max_deg=2):
    g = GLMat.identity(ring, size)
    n = rng.randint(1, 4) if count is None else count
    for _ in range(n):
        i, j = rng.sample(range(size), 2)
        g = g * GLMat.elementary(ring, size, i, j, random_poly(ring, rng, max_deg, 2))
    return g


def random_gl_with_units(ring, size, rng, count=4, max_deg=2):
    """Product of elementaries and constant diagonal units."""
    from fractions import Fraction

    g = GLMat.identity(ring, size)
    for _ in range(rng.randint(1, count)):
        if size > 1 and rng.random() < 0.7:
            i, j = rng.sample(range(size), 2)
            g = g * GLMat.elementary(ring, size, i, j, random_poly(ring, rng, max_deg, 2))
        else:
            ctx = ring.context
            pairs = []
            for k in range(size):
                c = rng.choice([1, 2, 3, -1, -2])
                if ctx.field.char == 0:
                    pairs.append((ctx.constant(c), ctx.constant(Fraction(1, c))))
                else:
                    cc = ctx.field.from_int(c)
                    if not cc:
                        cc = ctx.field.one
                    pairs.append((ctx.constant(cc), ctx.constant(ctx.field.inv(cc))))
            g = g * GLMat.diagonal(ring, pairs)
    return g


def permutation_pair(ring, perm):
    """The permutation matrix whose row a is e_perm[a], with its transpose as
    inverse, checked."""
    ctx, n = ring.context, len(perm)
    m = PolyMatrix.from_rows(ctx, [[ctx.one() if perm[a] == b else ctx.zero()
                                    for b in range(n)] for a in range(n)])
    return GLMat.make(ring, m, m.transpose())


def reference_elementary_lift(sigma, pi):
    """The elementary GL lift factor by factor: each swap and elementary
    operation of the full-pivoting elimination over sigma's ring is a GL
    pair, applied by a full product and lifted as itself, and the lift is
    the product of the saved factors' inverses around the diagonal.  Returns
    the lift, or the failure detail when there is none."""
    from srpb.quotient import unit_inverse

    up, down, n = pi.source, sigma.ring, sigma.size
    ctx = down.context
    work = sigma.mat.to_lists()
    left_up, right_up = [], []
    for k in range(n):
        pivot = next(((i, j, inv) for i in range(k, n) for j in range(k, n)
                      if (inv := unit_inverse(work[i][j], down)) is not None), None)
        if pivot is None:
            return f"no unit pivot available at elimination step {k}"
        pi_, pj, pinv = pivot
        if pi_ != k:
            perm = list(range(n))
            perm[k], perm[pi_] = pi_, k
            work[k], work[pi_] = work[pi_], work[k]
            left_up.append(permutation_pair(up, perm))
        if pj != k:
            perm = list(range(n))
            perm[k], perm[pj] = pj, k
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            right_up.append(permutation_pair(up, perm))
        for i in range(n):
            if i != k and not work[i][k].is_zero():
                e = GLMat.elementary(down, n, i, k, -(work[i][k] * pinv))
                work = down.mat_mul(e.mat, PolyMatrix.from_rows(ctx, work)).to_lists()
                left_up.append(GLMat.make(up, e.mat, e.inv))
        for j in range(n):
            if j != k and not work[k][j].is_zero():
                e = GLMat.elementary(down, n, k, j, -(work[k][j] * pinv))
                work = down.mat_mul(PolyMatrix.from_rows(ctx, work), e.mat).to_lists()
                right_up.append(GLMat.make(up, e.mat, e.inv))
    pairs = []
    for k in range(n):
        d = work[k][k]
        dinv = unit_inverse(d, up)
        if dinv is None:
            return f"diagonal unit {d} does not lift to a unit upstairs"
        pairs.append((d, dinv))
    # L * sigma * R == D, so sigma lifts to L^-1 * D * R^-1
    lhs = rhs = GLMat.identity(up, n)
    for g in left_up:
        lhs = g * lhs
    for g in right_up:
        rhs = rhs * g
    return lhs.inverse() * GLMat.diagonal(up, pairs) * rhs.inverse()


def stabilize(iso):
    """The iso (+) the identity of a free rank-one module, as a cancellation takes it."""
    ring = iso.ring
    one = PolyMatrix.identity(ring.context, 1)
    src = ProjModule.make(ring, iso.source.matrix.direct_sum(one))
    tgt = ProjModule.make(ring, iso.target.matrix.direct_sum(one))
    return ModIso.make(src, tgt, iso.fwd.direct_sum(one), iso.bwd.direct_sum(one))


def conjugated_idempotent(ring, rng, size=None, rank=None, elementaries=4, max_deg=2):
    """(module matrix E, conjugator g) with E = g (I_s + 0) g^-1."""
    size = size if size is not None else rng.randint(2, 3)
    rank = rank if rank is not None else rng.randint(1, size - 1)
    g = random_elementary_product(ring, size, rng, count=rng.randint(1, elementaries),
                                  max_deg=max_deg)
    ctx = ring.context
    corner = PolyMatrix.from_scalars(
        ctx, [[1 if i == j and i < rank else 0 for j in range(size)] for i in range(size)])
    e = ring.mat_mul(ring.mat_mul(g.mat, corner), g.inv)
    return e, g


# -- complexes -----------------------------------------------------------------

def complexes_on(ambient: int):
    """Every simplicial complex on the ambient vertex set (exhaustive).

    Enumerates antichains of nonempty vertex subsets; the complex with no
    used vertices is included.  Visits all 2^ambient vertex sets, so it is
    for small ambient counts.
    """
    yield SimplicialComplex.empty(ambient)
    masks = list(range(1, 1 << ambient))

    def rec(start: int, chosen: list):
        for idx in range(start, len(masks)):
            m = masks[idx]
            if any(m & c == m or m & c == c for c in chosen):
                continue
            chosen.append(m)
            yield SimplicialComplex.from_facets(ambient, [list(bit_indices(x)) for x in chosen])
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


def two_points():
    return SimplicialComplex.from_facets(2, [[0], [1]])


def hollow_triangle():
    return SimplicialComplex.from_facets(3, [[0, 1], [1, 2], [0, 2]])


def cone_two_points():
    return SimplicialComplex.from_facets(3, [[0, 1], [0, 2]])


def four_cycle():
    return SimplicialComplex.from_facets(4, [[0, 1], [1, 2], [2, 3], [0, 3]])


def ghost_pair():
    # one edge plus a ghost vertex
    return SimplicialComplex.from_facets(3, [[0, 1]])


def empty_on(ambient):
    return SimplicialComplex.empty(ambient)


NAMED_COMPLEXES = {
    "two-points": two_points(),
    "hollow-triangle": hollow_triangle(),
    "cone-two-points": cone_two_points(),
    "four-cycle": four_cycle(),
    "ghost-pair": ghost_pair(),
    "empty-2": empty_on(2),
    "simplex-3": SimplicialComplex.simplex(3),
    "point-with-ghosts": SimplicialComplex.from_facets(3, [[1]]),
}


def corpus_complexes(max_exhaustive=4, sample5=60, sample6=60):
    """The shared test corpus: exhaustive small, seeded samples above."""
    rng = make_rng("corpus")
    out = list(NAMED_COMPLEXES.values())
    for n in range(1, max_exhaustive + 1):
        out.extend(complexes_on(n))
    seen = set()
    for ambient, count in ((5, sample5), (6, sample6)):
        added = 0
        while added < count:
            c = random_complex(ambient, rng)
            key = (c.ambient, c.facets)
            if key in seen:
                continue
            seen.add(key)
            out.append(c)
            added += 1
    return out


def corpus_squares(field=QQ):
    from srpb import build_fiber_square

    names = ["two-points", "hollow-triangle", "cone-two-points", "four-cycle",
             "ghost-pair", "point-with-ghosts"]
    out = []
    for name in names:
        c = NAMED_COMPLEXES[name]
        if not c.is_simplex():
            out.append((name, build_fiber_square(field, c)))
    return out
