"""Certificate payloads: a byte-stable structured-text schema.

A certificate is a tree of nodes, each carrying the matrices needed to
re-check the identities it claims.  Serialization is canonical JSON under
a versioned ``srpb/1`` header line, so identical inputs produce
byte-identical certificate files.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .errors import FileFormatError
from .expr import parse_expression
from .fields import Field
from .matrix import PolyMatrix
from .poly import GREVLEX, PolyRing, format_polynomial
from .quotient import FiberSquare, QuotientRing, RingHom

HEADER = "srpb/1"

NODE_KINDS = ("base", "decompose", "umrow-lift", "gl-lift", "patch", "empty")


def dump_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_payload(path: str, kind: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER} {kind}\n")
        fh.write(dump_canonical(payload))
        fh.write("\n")


def read_payload(path: str, expect_kind: Optional[str] = None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        body = stripped
    else:
        head, _, body = text.partition("\n")
        fields = head.split()
        if not fields or fields[0] != HEADER:
            raise FileFormatError(f"{path}: expected '{HEADER}' header, got {head!r}")
        if expect_kind and len(fields) > 1 and fields[1] != expect_kind:
            raise FileFormatError(f"{path}: expected a {expect_kind} file, got {fields[1]}")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: bad structured text: {exc}") from exc


# -- element payloads ----------------------------------------------------------

def ring_payload(r: QuotientRing) -> dict:
    ctx = r.context
    return {
        "field": ctx.field.name(),
        "vars": ctx.nvars,
        "ideal": [format_polynomial(ctx.monomial(g)) for g in r.generators],
    }


def _count(payload: dict, key: str) -> int:
    """payload[key], which must be a JSON integer (not a float, bool or string)."""
    value = payload[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def parse_ring(payload: dict) -> QuotientRing:
    try:
        fld = Field.from_name(payload["field"])
        nvars = _count(payload, "vars")
        ctx = PolyRing(fld, nvars, GREVLEX)
        gens = []
        for text in payload["ideal"]:
            p = parse_expression(text, ctx)
            if len(p.terms) != 1 or p.terms[0][1] != fld.one:
                raise FileFormatError(f"ideal generator {text!r} is not a monomial")
            gens.append(p.terms[0][0])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # a missing key, or a JSON value of the wrong type ("field": [],
        # "ideal": [7], "vars": "x")
        raise FileFormatError(f"bad ring: {exc!r}") from exc
    return QuotientRing.make(fld, nvars, gens)


def matrix_payload(m: PolyMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [format_polynomial(p) for p in m.entries],
    }


def parse_matrix(payload: dict, ctx: PolyRing) -> PolyMatrix:
    try:
        rows = _count(payload, "rows")
        cols = _count(payload, "cols")
        entries = [parse_expression(t, ctx) for t in payload["entries"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # a missing key, or a JSON value of the wrong type ("entries": [7])
        raise FileFormatError(f"bad matrix: {exc!r}") from exc
    return PolyMatrix(ctx, rows, cols, entries)


def iso_payload(iso) -> dict:
    return {"fwd": matrix_payload(iso.fwd), "bwd": matrix_payload(iso.bwd)}


def glmat_payload(g) -> dict:
    return {"m": matrix_payload(g.mat), "minv": matrix_payload(g.inv)}


def hom_images_payload(h: RingHom) -> list:
    return [format_polynomial(p) for p in h.images]


def complex_payload(c) -> dict:
    return {"ambient": c.ambient, "facets": [list(f) for f in c.facets] or [[]]}


def parse_complex(payload: dict):
    from .simplicial import SimplicialComplex

    try:
        return SimplicialComplex.from_facets(_count(payload, "ambient"), payload["facets"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad complex: {exc!r}") from exc


def square_payload(s: FiberSquare) -> dict:
    return {
        "apex": s.apex,
        "complex": complex_payload(s.complex),
        "rings": {
            "a": ring_payload(s.a),
            "a1": ring_payload(s.a1),
            "a2": ring_payload(s.a2),
            "a0": ring_payload(s.a0),
        },
        "homs": {
            "i1": hom_images_payload(s.i1),
            "i2": hom_images_payload(s.i2),
            "j1": hom_images_payload(s.j1),
            "j2": hom_images_payload(s.j2),
            "section": hom_images_payload(s.section),
        },
    }


# -- node payloads --------------------------------------------------------------

def base_node(task: str, ring: QuotientRing, module: PolyMatrix,
              method: Optional[str] = None, target: Optional[PolyMatrix] = None,
              iso=None, other: Optional[PolyMatrix] = None,
              obligation: Optional[str] = None) -> dict:
    node = {
        "kind": "base",
        "task": task,
        "ring": ring_payload(ring),
        "module": matrix_payload(module),
        "discharged": obligation is None,
    }
    if other is not None:
        node["module_other"] = matrix_payload(other)
    if obligation is not None:
        node["obligation"] = obligation
        return node
    node["method"] = method
    node["target"] = matrix_payload(target)
    node["iso"] = iso_payload(iso)
    return node


def decompose_node(task: str, ring: QuotientRing, module: PolyMatrix,
                   square: FiberSquare, children: Sequence[dict],
                   glue=None, iso=None, target: Optional[PolyMatrix] = None,
                   other: Optional[PolyMatrix] = None) -> dict:
    node = {
        "kind": "decompose",
        "task": task,
        "ring": ring_payload(ring),
        "module": matrix_payload(module),
        "apex": square.apex,
        "square": square_payload(square),
        "children": list(children),
        "discharged": glue is not None,
    }
    if other is not None:
        node["module_other"] = matrix_payload(other)
    if glue is not None:
        node["glue"] = {
            "alpha0": iso_payload(glue.mismatch),
            "alpha2": iso_payload(glue.alpha2),
            "phi2": iso_payload(glue.phi2_fixed),
            "iso": iso_payload(iso),
        }
        node["target"] = matrix_payload(target)
    return node


def umrow_node(ring: QuotientRing, target_ring: QuotientRing, row,
               extend_cert: dict, profile: dict, sigma=None, delta=None,
               lifted=None, partial: bool = False) -> dict:
    node = {
        "kind": "umrow-lift",
        "ring": ring_payload(ring),
        "target_ring": ring_payload(target_ring),
        "v": matrix_payload(row.v),
        "w": matrix_payload(row.w),
        "extend": extend_cert["root"],
        "discharged": not partial,
    }
    if sigma is not None:
        node["sigma"] = glmat_payload(sigma)
    if delta is not None:
        node["delta"] = glmat_payload(delta)
    if lifted is not None:
        node["u"] = matrix_payload(lifted.v)
        node["w_prime"] = matrix_payload(lifted.w)
    return wrap_root(node, profile, extend_cert.get("obligations", []))


def gl_lift_node(ring: QuotientRing, target_ring: QuotientRing,
                 sigma, delta, profile: dict) -> dict:
    node = {
        "kind": "gl-lift",
        "ring": ring_payload(ring),
        "target_ring": ring_payload(target_ring),
        "sigma": glmat_payload(sigma),
        "delta": glmat_payload(delta),
        "discharged": True,
    }
    return wrap_root(node, profile, [])


def patch_node(square: FiberSquare, rank: int, sigma, whitehead,
               module: PolyMatrix, profile: dict) -> dict:
    node = {
        "kind": "patch",
        "rank": rank,
        "square": square_payload(square),
        "ring": ring_payload(square.a),
        "sigma": glmat_payload(sigma),
        "whitehead": glmat_payload(whitehead),
        "module": matrix_payload(module),
        "discharged": True,
    }
    return wrap_root(node, profile, [])


def empty_node() -> dict:
    return wrap_root({"kind": "empty", "discharged": True}, {}, [])


def wrap_root(node: dict, profile: dict, obligations: list, stab=None) -> dict:
    root = {
        "format": "srpb-cert",
        "version": 1,
        "profile": profile,
        "root": node,
        "obligations": obligations,
    }
    if stab is not None:
        root["stab"] = iso_payload(stab)
    return root
