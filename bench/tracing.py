"""Span tracing of srpb layers from outside the package.

``Tracer.install`` replaces each layer function below with a wrapper: on the
class for methods, and for plain functions in every ``srpb`` module that
holds the function under any name (``from .quotient import
build_fiber_square`` copies the reference, so the defining module alone is
not enough).  ``uninstall`` puts the originals back.

Spans are aggregated as they close, per (parent, layer) edge, so memory
stays bounded however many calls a run makes.  A span's parent is the
innermost open span: another layer or the operation's root span.  A
layer's self time is its span minus the time its child spans cover; time in
srpb code that is not a listed layer stays with the nearest listed caller.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, class or None, attribute)
LAYERS = {
    "quotient.survives": ("srpb.quotient", "QuotientRing", "survives"),
    "quotient.normal_form": ("srpb.quotient", "QuotientRing", "normal_form"),
    "quotient.complex_of_ring": ("srpb.quotient", None, "complex_of_ring"),
    "simplicial.from_facets": ("srpb.simplicial", "SimplicialComplex", "from_facets"),
    "simplicial.apex_decomposition": ("srpb.simplicial", None, "apex_decomposition"),
    "quotient.build_fiber_square": ("srpb.quotient", None, "build_fiber_square"),
    "quotient.hom_apply": ("srpb.quotient", "RingHom", "__call__"),
    "quotient.glmat_init": ("srpb.quotient", "GLMat", "__init__"),
    "poly.mul": ("srpb.poly", "Polynomial", "__mul__"),
    "poly.add": ("srpb.poly", "Polynomial", "__add__"),
    "matrix.mul": ("srpb.matrix", "PolyMatrix", "__mul__"),
    "matrix.det": ("srpb.matrix", "PolyMatrix", "det"),
    "matrix.adjugate": ("srpb.matrix", "PolyMatrix", "adjugate"),
    "projmod.modiso_make": ("srpb.projmod", "ModIso", "make"),
    "projmod.base_change": ("srpb.projmod", None, "base_change"),
    # glue_iso delegates to glue_iso_traced, which the engines call directly
    "projmod.glue_iso": ("srpb.projmod", None, "glue_iso_traced"),
    "lifting.whitehead_lift": ("srpb.lifting", None, "whitehead_lift"),
    "lifting.lift_gl": ("srpb.lifting", None, "lift_gl"),
    "engines.extend_witness": ("srpb.engines", None, "extend_witness"),
    "engines.cancel_witness": ("srpb.engines", None, "cancel_witness"),
    "engines.umrow_lift": ("srpb.engines", None, "umrow_lift"),
    "groebner.buchberger": ("srpb.groebner", None, "buchberger"),
    # one call per S-pair reduction, tail reduction and final reduction
    "groebner.reduce": ("srpb.groebner", "GroebnerBasis", "reduce"),
    "groebner.unit_inverse": ("srpb.groebner", None, "unit_inverse"),
    "smith.smith_normal_form": ("srpb.smith", None, "smith_normal_form"),
    "certs.dump_canonical": ("srpb.certs", None, "dump_canonical"),
    "certs.read_payload": ("srpb.certs", None, "read_payload"),
    "certs.parse_ring": ("srpb.certs", None, "parse_ring"),
    "certs.parse_matrix": ("srpb.certs", None, "parse_matrix"),
    "expr.parse_expression": ("srpb.expr", None, "parse_expression"),
    # Field(p) construction, which runs the primality test
    "fields.field_new": ("srpb.fields", "Field", "__init__"),
    "verifier.verify_payload": ("srpb.verifier", None, "verify_payload"),
}


class Tracer:
    """Wraps the layers and aggregates their spans per (parent, layer)."""

    def __init__(self):
        self.edges: dict = {}   # (parent, layer) -> [calls, self seconds]
        self._stack: list = []  # open spans: [name, seconds covered by children]
        self._undo: list = []

    def wrap(self, name: str, fn):
        """fn, recording a span named `name` around each call."""
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                key = (parent[0] if parent else "-", name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[1]

        return traced

    def install(self) -> None:
        for name, (modname, clsname, attr) in LAYERS.items():
            module = sys.modules[modname]
            if clsname is not None:
                cls = getattr(module, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            fn = getattr(module, attr)
            wrapper = self.wrap(name, fn)
            for owner in list(sys.modules.values()):
                owner_name = getattr(owner, "__name__", "")
                if owner_name != "srpb" and not owner_name.startswith("srpb."):
                    continue
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapper)
                        self._undo.append((owner, key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_totals(self) -> dict:
        """layer -> (calls, self seconds), summed over parents."""
        out = {name: [0, 0.0] for name in LAYERS}
        for (_, name), (calls, self_s) in self.edges.items():
            if name in out:
                out[name][0] += calls
                out[name][1] += self_s
        return out
