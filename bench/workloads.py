"""The four srpb workloads: seeded input generation and one-operation runners.

``setup(seed, workdir)`` of a workload returns a list of rounds, each a
list of ``Op``; the runner cycles through the rounds.  Inputs depend only on
the seed.  srpb is called through its module attributes (``engines.X``,
``quotient.Y``) so that the tracer's wrappers are picked up at call time.

Each operation kind has four parts:

    run(args)          call srpb once and serialize the result as the CLI
                       verb does; returns (output, bytes written or read)
    view(args, out)    the output and its inputs as keyword arguments of
                       the checker, in the plain dicts of checks.py
    check(**view)      the independent check; raises CheckFailure
    corrupt(view)      one deliberate error that check must reject
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from srpb import (certs, cli, engines, expr, fields, files, groebner, lifting,
                  matrix, poly, projmod, quotient, simplicial)

import checks

Q = fields.QQ
F5 = fields.GF(5)
FIELDS = (Q, F5)
P31 = 2147483647  # 2^31 - 1: ring parses pay trial division on every read


@dataclass(frozen=True)
class Op:
    kind: str
    ring: tuple           # identifies the ring the operation works over
    args: tuple
    known_fault: bool = False  # may raise AttributeError (verify_payload fault)


@dataclass(frozen=True)
class Kind:
    run: Callable
    view: Callable
    check: Callable
    corrupt: Callable


@dataclass(frozen=True)
class Workload:
    setup: Callable       # (seed, workdir) -> list of rounds
    trace_rounds: int     # rounds in one traced pass


def _text(kind: str, payload) -> str:
    """The bytes an ``srpb/1 <kind>`` file holds."""
    return f"{certs.HEADER} {kind}\n{certs.dump_canonical(payload)}\n"


# -- input generation -------------------------------------------------------------

def boundary_facets(k: int) -> tuple:
    """Boundary of the simplex on k vertices (k = 2: two points)."""
    return tuple(tuple(j for j in range(k) if j != i) for i in range(k))


def cycle_facets(n: int) -> tuple:
    return tuple((i, (i + 1) % n) for i in range(n))


def points_facets(k: int) -> tuple:
    """k isolated points: the ring k[x0..x(k-1)]/(xi*xj)."""
    return tuple((i,) for i in range(k))


def complex_of(nvars: int, facets) -> "simplicial.SimplicialComplex":
    return simplicial.SimplicialComplex.from_facets(nvars, [list(f) for f in facets])


def rand_poly(ring, rng, terms: int, max_deg: int, const: bool = True):
    """Normal form of a sum of random terms; degree-0 terms only when const."""
    ctx = ring.context
    out = ctx.zero()
    for _ in range(terms):
        e = [0] * ctx.nvars
        for _ in range(rng.randint(0 if const else 1, max_deg)):
            e[rng.randrange(ctx.nvars)] += 1
        out = out + ctx.monomial(tuple(e), ctx.field.from_int(rng.choice((1, 2, 3, -1, -2))))
    return ring.normal_form(out)


def elementary_product(ring, size: int, rng, count: int, terms: int, max_deg: int,
                       const: bool = False):
    g = quotient.GLMat.identity(ring, size)
    for _ in range(count):
        i, j = rng.sample(range(size), 2)
        g = g * quotient.GLMat.elementary(ring, size, i, j,
                                          rand_poly(ring, rng, terms, max_deg, const))
    return g


def corner_matrix(ctx, rank: int, size: int):
    return matrix.PolyMatrix.from_scalars(
        ctx, [[1 if i == j and i < rank else 0 for j in range(size)] for i in range(size)])


def conjugated_module(ring, rng, size: int, rank: int):
    """(E, g) with E = g (I_rank (+) 0) g^-1 and g(0) = I."""
    g = elementary_product(ring, size, rng, count=2, terms=1, max_deg=1)
    corner = corner_matrix(ring.context, rank, size)
    return ring.mat_mul(ring.mat_mul(g.mat, corner), g.inv), g


def random_sigma(ring, size: int, rng):
    """An element of GL_size: elementaries times a diagonal of constant units."""
    g = elementary_product(ring, size, rng, count=2, terms=2, max_deg=2, const=True)
    ctx = ring.context
    fld = ctx.field
    pairs = []
    for _ in range(size):
        c = fld.from_int(rng.choice((1, 2, 3, -1, -2)))
        pairs.append((ctx.constant(c), ctx.constant(fld.inv(c))))
    return g * quotient.GLMat.diagonal(ring, pairs)


def cancel_instance(ring, rng, size: int):
    """(P, Q, stab) over k[x0, x1]/(x0*x1), which the built-in chain discharges.

    P and Q conjugate the same corner, so both extend to it; the stabilized
    iso is the composite of the two extension witnesses, plus 1.  Q is
    conjugated by elementaries in x1 alone, so over the cone-side ring (x1
    killed) it is constant and the overlap automorphism lifts through the
    section; with x0 in Q's conjugator the glue leaves a "cancel" obligation.
    """
    e1, _ = conjugated_module(ring, rng, size, 1)
    g = quotient.GLMat.identity(ring, size)
    ctx = ring.context
    for _ in range(2):
        i, j = rng.sample(range(size), 2)
        f = ctx.variable(1).scale(ctx.field.from_int(rng.choice((1, 2, 3, -1, -2))))
        g = g * quotient.GLMat.elementary(ring, size, i, j, f)
    e2 = ring.mat_mul(ring.mat_mul(g.mat, corner_matrix(ctx, 1, size)), g.inv)
    p = projmod.ProjModule.make(ring, e1)
    q = projmod.ProjModule.make(ring, e2)
    mid = engines.extend_witness(q).iso.inverse().compose(engines.extend_witness(p).iso)
    one = matrix.PolyMatrix.identity(ring.context, 1)
    stab = projmod.ModIso.make(projmod.ProjModule.make(ring, p.matrix.direct_sum(one)),
                               projmod.ProjModule.make(ring, q.matrix.direct_sum(one)),
                               mid.fwd.direct_sum(one), mid.bwd.direct_sum(one))
    return p, q, stab


def points_ring(fld, k: int):
    return quotient.sr_quotient(fld, complex_of(k, points_facets(k)))


def patterned_product(ring, size: int, rng):
    """E_01(f) E_0,n-1(g) E_10(h) for random single terms of degree 1.

    The fixed positions keep the cost of lifting such matrices, and rows
    taken from them, within a narrow band, so that throughput depends on
    the seed far less than it would with random positions.
    """
    g = quotient.GLMat.identity(ring, size)
    for i, j in ((0, 1), (0, size - 1), (1, 0)):
        g = g * quotient.GLMat.elementary(ring, size, i, j,
                                          rand_poly(ring, rng, 1, 1, const=False))
    return g


def roundtrip_row(fld, k: int, rng, width: int = 3):
    """A unimodular row over k[x]/(xi*xj) that is the image of a free one."""
    free = quotient.QuotientRing.make(fld, k, ())
    ring = points_ring(fld, k)
    m = patterned_product(free, width, rng)
    ctx = ring.context
    e1 = matrix.PolyMatrix.from_scalars(ctx, [[1 if j == 0 else 0 for j in range(width)]])
    v = ring.nf_matrix(e1 * m.mat)
    w = ring.nf_matrix((m.inv * e1.transpose()).transpose())
    return projmod.UmRow.make(ring, v, w)


def roundtrip_sigma(fld, k: int, size: int, rng):
    """(sigma, pi): the image over k[x]/(xi*xj) of a free elementary product."""
    free = quotient.QuotientRing.make(fld, k, ())
    ring = points_ring(fld, k)
    pi = quotient.RingHom.quotient_map(free, ring)
    return patterned_product(free, size, rng).apply_hom(pi), pi


# -- check-side ring models -------------------------------------------------------

@lru_cache(maxsize=512)
def sr_model(char: int, nvars: int, facets: tuple) -> checks.Ring:
    return checks.Ring(char, nvars, faces=checks.faces_of(facets))


def free_model(char: int, nvars: int) -> checks.Ring:
    return checks.Ring(char, nvars)


def scale(ring: checks.Ring, m: list, c: int) -> list:
    k = ring.coeff(c)
    return [[ring.poly({e: v * k for e, v in p.items()}) for p in row] for row in m]


def bump(ring: checks.Ring, m: list) -> list:
    """m with 1 added to its (0, 0) entry."""
    out = [list(row) for row in m]
    out[0][0] = ring.add(out[0][0], ring.one())
    return out


# -- engine-ladder ------------------------------------------------------------------

LADDER = tuple([("boundary", k, boundary_facets(k)) for k in range(2, 11)]
               + [("cycle", n, cycle_facets(n)) for n in range(4, 11)])
LADDER_PASSES = 6
# 66 operations per pass put the 90th percentile amid the c8, c7 and b7
# extensions (about 73 ms each), not in the gap above them: with 50 the
# top 10% were exactly the five largest rings and p90 jumped across it.


def _run_extend(args):
    ring, e, g = args[1:]
    module = projmod.ProjModule.make(ring, e)
    res = engines.extend_witness(module, oracle=engines.conjugation_witness_oracle(g))
    text = _text("cert", res.certificate)
    return res, len(text.encode())


def _view_extend(args, res):
    key, ring, e, _ = args
    m = sr_model(*key)
    iso = res.iso
    return dict(ring=m, module=m.mat(e), ok=res.ok,
                target=m.mat(iso.target.matrix) if iso else None,
                fwd=m.mat(iso.fwd) if iso else None, bwd=m.mat(iso.bwd) if iso else None)


def _run_cancel(args):
    p, q, stab = args[1:]
    res = engines.cancel_witness(p, q, stab)
    text = _text("cert", res.certificate)
    return res, len(text.encode())


def _view_cancel(args, res):
    key, p, q, _ = args
    m = sr_model(*key)
    iso = res.iso
    return dict(ring=m, p=m.mat(p.matrix), q=m.mat(q.matrix), ok=res.ok,
                target=m.mat(iso.target.matrix) if iso else None,
                fwd=m.mat(iso.fwd) if iso else None, bwd=m.mat(iso.bwd) if iso else None)


def _run_patch(args):
    fld, cplx, rank, sigma = args[1:]
    square = quotient.build_fiber_square(fld, cplx)
    module = projmod.milnor_patch(square, rank, sigma)
    u = lifting.whitehead_lift(sigma, square.j2, square.section)
    profile = engines.HypothesisProfile(fld.char, rank).payload()
    payload = certs.patch_node(square, rank, sigma, u, module.matrix, profile)
    text = _text("matrix", dict(certs.matrix_payload(module.matrix),
                                ring=certs.ring_payload(module.ring))) + _text("cert", payload)
    return (square.apex, module.matrix), len(text.encode())


def _view_patch(args, out):
    key, rank = args[0], args[3]
    apex, e = out
    m = sr_model(*key)
    return dict(ring=m, facets=key[2], apex=apex, e=m.mat(e), rank=rank)


def _ladder_setup(seed: int, workdir: str) -> list:
    rng = random.Random(f"{seed}:engine-ladder")
    rings = {}
    for shape, n, facets in LADDER:
        cplx = complex_of(n, facets)
        for fld in FIELDS:
            square = quotient.build_fiber_square(fld, cplx)
            rings[(shape, n, fld.char)] = (cplx, square.a, square.a0)
    rounds = []
    for rnd in range(LADDER_PASSES):
        ops = []
        for idx, (shape, n, facets) in enumerate(LADDER):
            fld = FIELDS[(idx + rnd) % 2]
            cplx, ring, a0 = rings[(shape, n, fld.char)]
            key = (fld.char, ring.nvars, facets)
            e, g = conjugated_module(ring, rng, 2, 1)
            ops.append(Op("extend", key, (key, ring, e, g)))
            for rank in (2, 2, 3):
                ops.append(Op("patch", key, (key, fld, cplx, rank, random_sigma(a0, rank, rng))))
            if shape == "boundary" and n == 2:
                for size in (2, 3):
                    p, q, stab = cancel_instance(ring, rng, size)
                    ops.append(Op("cancel", key, (key, p, q, stab)))
        rounds.append(ops)
    return rounds


# -- lift-groebner ------------------------------------------------------------------

GROEBNER_ROUNDS = 20
# 30 operations per round put the 90th percentile amid the k = 3 row lifts,
# and the median amid the GL lifts, away from the gaps between kinds.


def _run_umrow(args):
    row = args[1]
    res = engines.umrow_lift(row)
    text = _text("cert", res.certificate)
    if res.ok:
        text += _text("umrow", {"ring": certs.ring_payload(res.row.ring),
                                "v": certs.matrix_payload(res.row.v),
                                "w": certs.matrix_payload(res.row.w)})
    return res, len(text.encode())


def _view_umrow(args, res):
    key, row = args
    char, k = key
    up = free_model(char, k)
    down = sr_model(char, k, points_facets(k))
    return dict(up=up, down=down, v=up.mat(row.v), ok=res.ok,
                u=up.mat(res.row.v) if res.ok else None,
                w_prime=up.mat(res.row.w) if res.ok else None)


def _run_lift_gl(args):
    sigma, pi = args[1:]
    delta = lifting.lift_gl(sigma, pi)
    profile = engines.HypothesisProfile(pi.source.field.char, sigma.size).payload()
    text = _text("glmatrix", dict(certs.glmat_payload(delta),
                                  ring=certs.ring_payload(delta.ring)))
    text += _text("cert", certs.gl_lift_node(sigma.ring, pi.source, sigma, delta, profile))
    return delta, len(text.encode())


def _view_lift_gl(args, delta):
    key, sigma, _ = args
    char, k = key
    up = free_model(char, k)
    down = sr_model(char, k, points_facets(k))
    return dict(up=up, down=down, sigma=up.mat(sigma.mat), delta=up.mat(delta.mat),
                delta_inv=up.mat(delta.inv))


def _run_member(args):
    f, gens = args[1:3]
    cert = groebner.member(f, gens)
    if cert is None:
        out = {"member": False}
    else:
        out = {"member": True,
               "coefficients": [poly.format_polynomial(c) for c in cert.coefficients]}
    return cert, len(json.dumps(out, sort_keys=True).encode()) + 1


def _view_member(args, cert):
    key, f, gens, monomial = args
    ring = free_model(*key)
    coeffs = None if cert is None else [ring.poly(c) for c in cert.coefficients]
    return dict(ring=ring, f=ring.poly(f), gens=[ring.poly(g) for g in gens],
                coeffs=coeffs, monomial=monomial)


def _member_instance(fld, rng, monomial: bool):
    ctx = poly.PolyRing(fld, 3)
    free = quotient.QuotientRing.make(fld, 3, ())
    if monomial:
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(3), rng.randint(1, 2))
            gens.append(ctx.monomial(tuple(1 if i in support else 0 for i in range(3))))
        f = rand_poly(free, rng, terms=4, max_deg=3)
    else:
        gens = []
        while len(gens) < 2:
            g = rand_poly(free, rng, terms=3, max_deg=2)
            if not g.is_zero():
                gens.append(g)
        f = ctx.zero()
        for g in gens:
            f = f + rand_poly(free, rng, terms=2, max_deg=2) * g
    return f, gens


def _groebner_setup(seed: int, workdir: str) -> list:
    rng = random.Random(f"{seed}:lift-groebner")
    rounds = []
    for rnd in range(GROEBNER_ROUNDS):
        ops = []
        for fld in FIELDS:
            for k in (2, 3, 4):
                key = (fld.char, k)
                ops.append(Op("umrow", key, (key, roundtrip_row(fld, k, rng))))
                for size in (2 + (rnd + k) % 3, 2 + (rnd + k + 1) % 3):
                    sigma, pi = roundtrip_sigma(fld, k, size, rng)
                    ops.append(Op("lift_gl", key, (key, sigma, pi)))
            for monomial in (False, False, False, True, True, True):
                key = (fld.char, 3)
                f, gens = _member_instance(fld, rng, monomial)
                ops.append(Op("member", key, (key, f, gens, monomial)))
        rounds.append(ops)
    return rounds


# -- square-scan --------------------------------------------------------------------

SQUARE_ROUND = 40
SQUARE_ROUNDS = 60


def _random_facets(n: int, rng) -> tuple:
    """Maximal facets of a random non-simplex complex on n vertices."""
    while True:
        masks = set()
        for _ in range(rng.randint(3, n)):
            masks.add(sum(1 << v for v in rng.sample(range(n), rng.randint(1, n - 2))))
        maximal = [m for m in masks if not any(m != o and m & o == m for o in masks)]
        used = 0
        for m in maximal:
            used |= m
        if any(used & m == used for m in maximal):
            continue  # a simplex: no fiber square
        return tuple(sorted(tuple(v for v in range(n) if m >> v & 1) for m in maximal))


def _run_square(args):
    fld, cplx, degree = args[2:]
    square = quotient.build_fiber_square(fld, cplx)
    text = _text("square", certs.square_payload(square))
    rep = quotient.fiber_check(square, degree)
    line = json.dumps({"ok": rep.ok, "degree": rep.degree,
                       "counts": {"a": rep.count_a, "a1": rep.count_a1,
                                  "a2": rep.count_a2, "a0": rep.count_a0},
                       "failure": rep.failure}, sort_keys=True)
    return (square.apex, rep), len(text.encode()) + len(line.encode()) + 1


def _view_square(args, out):
    facets, degree = args[1], args[4]
    apex, rep = out
    return dict(facets=facets, degree=degree, apex=apex, ok=rep.ok, counts=rep.counts())


def _square_setup(seed: int, workdir: str) -> list:
    rng = random.Random(f"{seed}:square-scan")
    seen = set()
    rounds = []
    for _ in range(SQUARE_ROUNDS):
        ops = []
        while len(ops) < SQUARE_ROUND:
            j = len(ops)
            n = 6 + j % 4
            facets = _random_facets(n, rng)
            if (n, facets) in seen:
                continue
            seen.add((n, facets))
            fld = FIELDS[j // 4 % 2]
            degree = 4 + j // 8 % 2
            key = (fld.char, n, facets)
            ops.append(Op("square", key, (key, facets, fld, complex_of(n, facets), degree)))
        rounds.append(ops)
    return rounds


# -- verify-certs -------------------------------------------------------------------

CERT_COPIES = 3


def _cert_corpus(fld, rng) -> list:
    """(name, payload) for one certificate of every node kind over the field."""
    out = []
    hollow = complex_of(3, boundary_facets(3))
    pair = complex_of(2, boundary_facets(2))
    hring = quotient.sr_quotient(fld, hollow)
    xy = quotient.sr_quotient(fld, pair)
    profile = engines.HypothesisProfile(fld.char, 2).payload()

    e, g = conjugated_module(hring, rng, 2, 1)
    res = engines.extend_witness(projmod.ProjModule.make(hring, e),
                                 oracle=engines.conjugation_witness_oracle(g))
    out.append(("extend-hollow", res.certificate))
    e, _ = conjugated_module(xy, rng, 3, 2)
    out.append(("extend-pair", engines.extend_witness(projmod.ProjModule.make(xy, e)).certificate))
    p, q, stab = cancel_instance(xy, rng, 2)
    out.append(("cancel", engines.cancel_witness(p, q, stab).certificate))
    out.append(("umrow", engines.umrow_lift(roundtrip_row(fld, 2, rng)).certificate))
    square = quotient.build_fiber_square(fld, hollow)
    sigma = random_sigma(square.a0, 2, rng)
    module = projmod.milnor_patch(square, 2, sigma)
    u = lifting.whitehead_lift(sigma, square.j2, square.section)
    out.append(("patch", certs.patch_node(square, 2, sigma, u, module.matrix, profile)))
    sigma, pi = roundtrip_sigma(fld, 2, 2, rng)
    delta = lifting.lift_gl(sigma, pi)
    out.append(("gl-lift", certs.gl_lift_node(sigma.ring, pi.source, sigma, delta, profile)))
    return out


def _entry_sites(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "entries" and isinstance(v, list):
                yield from ((path + (k, i)) for i in range(len(v)))
            else:
                yield from _entry_sites(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _entry_sites(v, path + (i,))


def _max_vars(node) -> int:
    if isinstance(node, dict):
        own = int(node["vars"]) if "vars" in node else 0
        return max([own] + [_max_vars(v) for v in node.values()])
    if isinstance(node, list):
        return max([0] + [_max_vars(v) for v in node])
    return 0


def mutate_one_coefficient(payload: dict, fld, rng) -> dict:
    """A copy with 1 added to one matrix entry chosen by rng."""
    out = json.loads(json.dumps(payload))
    path = rng.choice(list(_entry_sites(out)))
    holder = out
    for step in path[:-1]:
        holder = holder[step]
    ctx = poly.PolyRing(fld, _max_vars(out))
    bumped = expr.parse_expression(holder[path[-1]], ctx) + ctx.one()
    holder[path[-1]] = poly.format_polynomial(bumped)
    return out


def garbled_certificates() -> list:
    """Fixed structurally garbled certificates (independent of the seed).

    A non-object root makes ``verify_payload`` raise AttributeError; a
    non-object child is reported as a structure failure.
    """
    base = {"format": "srpb-cert", "version": 1, "profile": {}, "obligations": []}
    out = [("root-str", dict(base, root="x")), ("root-list", dict(base, root=[])),
           ("root-int", dict(base, root=7))]
    rng = random.Random("garbled")
    hollow = complex_of(3, boundary_facets(3))
    ring = quotient.sr_quotient(Q, hollow)
    e, g = conjugated_module(ring, rng, 2, 1)
    cert = engines.extend_witness(projmod.ProjModule.make(ring, e),
                                  oracle=engines.conjugation_witness_oracle(g)).certificate
    for idx, junk in ((0, "x"), (1, ["x"])):
        bad = json.loads(json.dumps(cert))
        bad["root"]["children"][idx] = junk
        out.append((f"child{idx}-{type(junk).__name__}", bad))
    return out


def _verify_setup(seed: int, workdir: str) -> list:
    rng = random.Random(f"{seed}:verify-certs")
    ops = []
    for fld in (Q, F5, fields.GF(P31)):
        for copy in range(CERT_COPIES):
            for name, payload in _cert_corpus(fld, rng):
                for tag, data, ok in (("clean", payload, True),
                                      ("mutated", mutate_one_coefficient(payload, fld, rng), False)):
                    path = os.path.join(workdir, f"{fld.char}-{name}-{copy}-{tag}.cert")
                    files.save_cert(path, data)
                    ops.append(Op("verify", (fld.char, name), (path, ok, os.path.getsize(path))))
    for name, data in garbled_certificates():
        path = os.path.join(workdir, f"garbled-{name}.cert")
        files.save_cert(path, data)
        ops.append(Op("verify", ("garbled", name), (path, False, os.path.getsize(path)),
                      known_fault=True))
    return [ops]


def _run_verify(args):
    path, _, size = args
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--cert", path])
    return (code, buf.getvalue()), size


def _view_verify(args, out):
    return dict(expect_ok=args[1], code=out[0], output=out[1])


# -- registry -----------------------------------------------------------------------

KINDS = {
    "extend": Kind(_run_extend, _view_extend, checks.check_extend,
                   lambda v: dict(v, fwd=scale(v["ring"], v["fwd"], 2))),
    "cancel": Kind(_run_cancel, _view_cancel, checks.check_cancel,
                   lambda v: dict(v, bwd=scale(v["ring"], v["bwd"], 2))),
    "patch": Kind(_run_patch, _view_patch, checks.check_patch,
                  lambda v: dict(v, e=scale(v["ring"], v["e"], 2))),
    "umrow": Kind(_run_umrow, _view_umrow, checks.check_umrow,
                  lambda v: dict(v, u=bump(v["up"], v["u"]))),
    "lift_gl": Kind(_run_lift_gl, _view_lift_gl, checks.check_gl_lift,
                    lambda v: dict(v, delta_inv=scale(v["up"], v["delta_inv"], 2))),
    "member": Kind(_run_member, _view_member, checks.check_member,
                   lambda v: dict(v, coeffs=None if v["coeffs"] is not None
                                  else [{} for _ in v["gens"]])),
    "square": Kind(_run_square, _view_square, checks.check_fiber,
                   lambda v: dict(v, counts=(v["counts"][0] + 1,) + tuple(v["counts"][1:]))),
    "verify": Kind(_run_verify, _view_verify, checks.check_verify,
                   lambda v: dict(v, code=1 - v["code"])),
}

WORKLOADS = {
    "engine-ladder": Workload(_ladder_setup, trace_rounds=1),
    "lift-groebner": Workload(_groebner_setup, trace_rounds=6),
    "verify-certs": Workload(_verify_setup, trace_rounds=1),
    "square-scan": Workload(_square_setup, trace_rounds=4),
}
