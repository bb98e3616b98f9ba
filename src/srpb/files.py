"""File formats for complexes, rings, matrices, GL pairs, generator lists and rows.

Every file is a ``srpb/1 <kind>`` header line followed by canonical JSON.
Ring references inside the other files may be inline objects or paths
relative to the referring file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from . import certs
from .errors import FileFormatError
from .matrix import PolyMatrix
from .quotient import GLMat, QuotientRing
from .simplicial import SimplicialComplex


@contextmanager
def _reading(kind: str):
    """A missing key or a wrongly typed value in a file is a FileFormatError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad {kind} file: {exc!r}") from exc


def save_complex(path: str, c: SimplicialComplex) -> None:
    certs.write_payload(path, "complex", certs.complex_payload(c))


def load_complex(path: str) -> SimplicialComplex:
    return certs.parse_complex(certs.read_payload(path, "complex"))


def save_ring(path: str, r: QuotientRing) -> None:
    certs.write_payload(path, "ring", certs.ring_payload(r))


def load_ring(path: str) -> QuotientRing:
    return certs.parse_ring(certs.read_payload(path, "ring"))


def _resolve_ring(ref, base_dir: str) -> QuotientRing:
    if isinstance(ref, str):
        return load_ring(os.path.join(base_dir, ref) if not os.path.isabs(ref) else ref)
    if isinstance(ref, dict):
        return certs.parse_ring(ref)
    raise FileFormatError(f"bad ring reference {ref!r}")


def save_matrix(path: str, ring: QuotientRing, m: PolyMatrix) -> None:
    payload = certs.matrix_payload(m)
    payload["ring"] = certs.ring_payload(ring)
    certs.write_payload(path, "matrix", payload)


def load_matrix(path: str) -> tuple:
    payload = certs.read_payload(path, "matrix")
    with _reading("matrix"):
        ring = _resolve_ring(payload["ring"], os.path.dirname(path))
        return ring, certs.parse_matrix(payload, ring.context)


def save_glmat(path: str, g: GLMat) -> None:
    payload = certs.glmat_payload(g)
    payload["ring"] = certs.ring_payload(g.ring)
    certs.write_payload(path, "glmatrix", payload)


def load_glmat(path: str) -> GLMat:
    payload = certs.read_payload(path, "glmatrix")
    with _reading("glmatrix"):
        ring = _resolve_ring(payload["ring"], os.path.dirname(path))
        m = certs.parse_matrix(payload["m"], ring.context)
        minv = certs.parse_matrix(payload["minv"], ring.context)
    return GLMat(ring, m, minv)


def load_gens(path: str) -> tuple:
    """(ring, generator polynomials) of a gens file."""
    payload = certs.read_payload(path, "gens")
    with _reading("gens"):
        ring = _resolve_ring(payload["ring"], os.path.dirname(path))
        return ring, [certs.parse_expression(t, ring.context) for t in payload["generators"]]


def save_umrow(path: str, ring: QuotientRing, v: PolyMatrix, w: PolyMatrix) -> None:
    payload = {
        "ring": certs.ring_payload(ring),
        "v": certs.matrix_payload(v),
        "w": certs.matrix_payload(w),
    }
    certs.write_payload(path, "umrow", payload)


def load_umrow(path: str):
    from .projmod import UmRow

    payload = certs.read_payload(path, "umrow")
    with _reading("umrow"):
        ring = _resolve_ring(payload["ring"], os.path.dirname(path))
        v = certs.parse_matrix(payload["v"], ring.context)
        w = certs.parse_matrix(payload["w"], ring.context)
    return UmRow.make(ring, v, w)


def save_cert(path: str, payload: dict) -> None:
    certs.write_payload(path, "cert", payload)
