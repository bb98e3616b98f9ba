"""Command line surface.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 strategy/oracle exhaustion (obligations or diagnostics written out).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import certs, files
from .engines import HypothesisProfile, extend_witness, umrow_lift
from .errors import AllStrategiesFailed, SrpbError
from .expr import parse_expression
from .fields import Field
from .lifting import lift_gl
from .poly import format_polynomial
from .projmod import ProjModule, milnor_patch, module_rank
from .quotient import RingHom, build_fiber_square, fiber_check
from .simplicial import (apex_decomposition, cone, deletion, link,
                         minimal_nonfaces)
from .verifier import verify_file

OK, VERIFY_FAIL, INPUT_ERROR, EXHAUSTED = 0, 1, 2, 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "run"):
        parser.print_help()
        return INPUT_ERROR
    try:
        return args.run(args)
    except AllStrategiesFailed as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        for name, detail in exc.diagnostics.items():
            print(f"  {name}: {detail}", file=sys.stderr)
        return EXHAUSTED
    except (SrpbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; each parse gets a fresh Namespace."""
    p = argparse.ArgumentParser(prog="srpb")
    sub = p.add_subparsers(dest="command")

    cx = sub.add_parser("complex", help="simplicial complex operations")
    cxsub = cx.add_subparsers(dest="verb")
    for verb in ("faces", "nonfaces", "link", "delete", "cone", "decompose"):
        sp = cxsub.add_parser(verb)
        sp.add_argument("--complex", required=True)
        if verb in ("link", "delete", "cone"):
            sp.add_argument("--vertex", type=int, required=True)
            sp.add_argument("--out")
        if verb == "decompose":
            sp.add_argument("--out-deletion")
            sp.add_argument("--out-link")
        sp.set_defaults(run=_run_complex, verb=verb)

    rg = sub.add_parser("ring", help="quotient ring operations")
    rgsub = rg.add_subparsers(dest="verb")
    nf = rgsub.add_parser("nf")
    nf.add_argument("--ring", required=True)
    nf.add_argument("--expr", required=True)
    nf.set_defaults(run=_run_ring_nf)

    gb = sub.add_parser("gb", help="Groebner basis queries")
    gbsub = gb.add_subparsers(dest="verb")
    mem = gbsub.add_parser("member")
    mem.add_argument("--gens", required=True, help="ring file plus generator expressions")
    mem.add_argument("--target", required=True)
    mem.set_defaults(run=_run_gb_member)

    sq = sub.add_parser("square", help="fiber square construction and checking")
    sqsub = sq.add_subparsers(dest="verb")
    for verb in ("build", "check"):
        sp = sqsub.add_parser(verb)
        sp.add_argument("--complex", required=True)
        sp.add_argument("--field", default="Q")
        if verb == "build":
            sp.add_argument("--out")
        else:
            sp.add_argument("--degree", type=int, default=4)
        sp.set_defaults(run=_run_square, verb=verb)

    pa = sub.add_parser("patch", help="Milnor patch over a fiber square")
    pa.add_argument("--complex", required=True)
    pa.add_argument("--field", default="Q")
    pa.add_argument("--sigma", required=True, help="GL matrix file over the overlap ring")
    pa.add_argument("--out", required=True)
    pa.add_argument("--cert")
    pa.set_defaults(run=_run_patch)

    ex = sub.add_parser("extend", help="extension witness engine")
    ex.add_argument("--module", required=True, help="idempotent matrix file")
    ex.add_argument("--oracle", default="builtin", choices=["builtin"])
    ex.add_argument("--out", required=True, help="certificate output path")
    ex.set_defaults(run=_run_extend)

    um = sub.add_parser("umrow", help="unimodular row operations")
    umsub = um.add_subparsers(dest="verb")
    ul = umsub.add_parser("lift")
    ul.add_argument("--row", required=True, help="unimodular row file over R/J")
    ul.add_argument("--to-ring", help="target ring file (default: the free ring)")
    ul.add_argument("--out", required=True, help="lifted row output path")
    ul.add_argument("--cert", help="certificate output path")
    ul.set_defaults(run=_run_umrow_lift)

    gl = sub.add_parser("gl", help="GL lifting along a monomial quotient")
    glsub = gl.add_subparsers(dest="verb")
    gll = glsub.add_parser("lift")
    gll.add_argument("--sigma", required=True, help="GL matrix file over R/J")
    gll.add_argument("--to-ring", required=True, help="target ring file")
    gll.add_argument("--out", required=True)
    gll.add_argument("--cert")
    gll.set_defaults(run=_run_gl_lift)

    ve = sub.add_parser("verify", help="re-check a certificate independently")
    ve.add_argument("--cert", required=True)
    ve.set_defaults(run=_run_verify)

    return p


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _run_complex(args) -> int:
    c = files.load_complex(args.complex)
    if args.verb == "faces":
        _emit({"faces": [list(f) for f in c.faces()]})
        return OK
    if args.verb == "nonfaces":
        _emit({"minimal_nonfaces": [list(f) for f in minimal_nonfaces(c)]})
        return OK
    if args.verb in ("link", "delete", "cone"):
        fn = {"link": link, "delete": deletion, "cone": cone}[args.verb]
        out = fn(c, args.vertex)
        if args.out:
            files.save_complex(args.out, out)
        _emit(certs.complex_payload(out))
        return OK
    split = apex_decomposition(c)
    if args.out_deletion:
        files.save_complex(args.out_deletion, split.deletion_part)
    if args.out_link:
        files.save_complex(args.out_link, split.link_part)
    _emit({"apex": split.apex,
           "deletion": certs.complex_payload(split.deletion_part),
           "link": certs.complex_payload(split.link_part)})
    return OK


def _run_ring_nf(args) -> int:
    ring = files.load_ring(args.ring)
    f = parse_expression(args.expr, ring.context)
    print(format_polynomial(ring.normal_form(f)))
    return OK


def _run_gb_member(args) -> int:
    from .groebner import member

    ring, gens = files.load_gens(args.gens)
    target = parse_expression(args.target, ring.context)
    cert = member(target, gens)
    if cert is None:
        _emit({"member": False})
        return OK
    _emit({"member": True,
           "coefficients": [format_polynomial(c) for c in cert.coefficients]})
    return OK


def _run_square(args) -> int:
    c = files.load_complex(args.complex)
    fld = Field.from_name(args.field)
    square = build_fiber_square(fld, c)
    if args.verb == "build":
        payload = certs.square_payload(square)
        if args.out:
            certs.write_payload(args.out, "square", payload)
        _emit(payload)
        return OK
    report = fiber_check(square, args.degree)
    _emit({"ok": report.ok, "degree": report.degree,
           "counts": {"a": report.count_a, "a1": report.count_a1,
                      "a2": report.count_a2, "a0": report.count_a0},
           "failure": report.failure})
    return OK if report.ok else VERIFY_FAIL


def _run_patch(args) -> int:
    from .lifting import whitehead_lift

    c = files.load_complex(args.complex)
    fld = Field.from_name(args.field)
    square = build_fiber_square(fld, c)
    sigma = files.load_glmat(args.sigma)
    module = milnor_patch(square, sigma.size, sigma)
    files.save_matrix(args.out, module.ring, module.matrix)
    if args.cert:
        u = whitehead_lift(sigma, square.j2, square.section)
        profile = HypothesisProfile(fld.char, sigma.size).payload()
        payload = certs.patch_node(square, sigma.size, sigma, u, module.matrix, profile)
        files.save_cert(args.cert, payload)
    _emit({"rank": module_rank(module), "size": module.size})
    return OK


def _run_extend(args) -> int:
    ring, mat = files.load_matrix(args.module)
    module = ProjModule.make(ring, mat)
    result = extend_witness(module, oracle=None)
    files.save_cert(args.out, result.certificate)
    if result.ok:
        _emit({"extended": True, "rank": module_rank(module)})
        return OK
    _emit({"extended": False,
           "obligations": [ob.payload() for ob in result.obligations]})
    return EXHAUSTED


def _run_umrow_lift(args) -> int:
    row = files.load_umrow(args.row)
    target = files.load_ring(args.to_ring) if args.to_ring else None
    result = umrow_lift(row, oracle=None, target=target)
    if args.cert:
        files.save_cert(args.cert, result.certificate)
    if not result.ok:
        _emit({"lifted": False,
               "obligations": [ob.payload() for ob in result.obligations],
               "diagnostics": result.diagnostics})
        return EXHAUSTED
    files.save_umrow(args.out, result.row.ring, result.row.v, result.row.w)
    _emit({"lifted": True})
    return OK


def _run_gl_lift(args) -> int:
    sigma = files.load_glmat(args.sigma)
    target = files.load_ring(args.to_ring)
    pi = RingHom.quotient_map(target, sigma.ring)
    delta = lift_gl(sigma, pi)
    files.save_glmat(args.out, delta)
    if args.cert:
        profile = HypothesisProfile(target.field.char, sigma.size).payload()
        payload = certs.gl_lift_node(sigma.ring, target, sigma, delta, profile)
        files.save_cert(args.cert, payload)
    _emit({"lifted": True})
    return OK


def _run_verify(args) -> int:
    report = verify_file(args.cert)
    print(report.summary())
    return OK if report.ok else VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
