"""Independent certificate verifier.

Re-evaluates every identity a certificate claims using only normal-form
arithmetic over the rings named in the file; no engine code is imported.
One rule per identity type:

    idempotency            nf(E*E) == E
    hom well-definedness   each variable maps to itself or 0, and every
                           source ideal generator to 0
    square commutativity   j1 o i1 == j2 o i2 on variables, section law
    restriction            child data equals the hom image of parent data
    ModIso laws            the four corner identities
    compose                corrected patch iso equals its defining product
    Whitehead reduction    j2(U) == sigma (+) sigma^-1 and U*U^-1 == I
    GL lift reduction      pi(Delta) == sigma and Delta*Delta^-1 == I
    Um congruence          pi(u) == v, nf(u*w'^T) == 1, v*sigma == v(0)
    augmentation           target == module evaluated at zero, constant
    rank                   augmentation rank equals the claimed rank

Failures are report entries naming the node and the identity, with both
sides' normal forms; the verifier never raises on bad certificates.  Each
distinct ring, matrix or entry text is parsed once per certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from . import certs
from .errors import ContextError, HomError, SrpbError
from .matrix import PolyMatrix, scalar_rank
from .poly import Polynomial, PolyRing, format_polynomial
from .quotient import QuotientRing, RingHom, hom_check, image_mask

# Apex splits happen only at x0..x63 (a vertex no generator names is a cone
# point), so certificates nest under 70 levels, far from the recursion limit.
MAX_NODE_DEPTH = 200

CHECK_KINDS = (
    "idempotency", "hom-defined", "square-commutes", "restriction",
    "mod-iso-laws", "compose", "whitehead", "gl-lift", "um-congruence",
    "augmentation", "rank", "structure",
)


@dataclass
class ReportEntry:
    node: str
    check: str
    ok: bool
    detail: str = ""


@dataclass
class VerifierReport:
    entries: List[ReportEntry] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def first_failure(self) -> Optional[ReportEntry]:
        for e in self.entries:
            if not e.ok:
                return e
        return None

    def add(self, node: str, check: str, ok: bool, detail: str = "") -> None:
        self.entries.append(ReportEntry(node, check, ok, detail))

    def summary(self) -> str:
        bad = [e for e in self.entries if not e.ok]
        status = "PASS" if not bad else "FAIL"
        lines = [f"{status}: {len(self.entries) - len(bad)}/{len(self.entries)} checks passed"]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for e in self.entries:
            mark = "ok  " if e.ok else "FAIL"
            detail = f" :: {e.detail}" if e.detail else ""
            lines.append(f"  [{mark}] {e.node} {e.check}{detail}")
        return "\n".join(lines)


def verify_file(path: str) -> VerifierReport:
    return verify_payload(certs.read_payload(path, "cert"))


# the values parse_ring and parse_matrix read, by exact type; (t,) is a list of t
_RING_KEY = (("field", str), ("vars", int), ("ideal", (str,)))
_MATRIX_KEY = (("rows", int), ("cols", int), ("entries", (str,)))


def _exact_key(payload, spec) -> Optional[tuple]:
    """Those values as a table key, or None if one has another type (True == 1, 2.0 == 2)."""
    if type(payload) is not dict:
        return None
    key = []
    for name, kind in spec:
        value = payload.get(name)
        if type(kind) is tuple and type(value) is list and all(type(x) is kind[0] for x in value):
            value = tuple(value)
        elif type(value) is not kind:
            return None
        key.append(value)
    return tuple(key)


class _Reader:
    """The parsed payloads of one certificate, keyed by the values they are read from.

    Equal ring payloads parse to one QuotientRing, equal matrix payloads
    over one context to one PolyMatrix, and equal entry or hom-image texts
    over one context to one Polynomial; matrices and texts are keyed with
    their context because children's modules are read over their parent's.
    Rings of one field and variable count share one ``PolyRing``, so context
    checks between them are ``is`` hits.  A reader lives for one
    ``verify_payload`` call.
    """

    def __init__(self):
        self._rings: dict = {}
        self._contexts: dict = {}
        self._matrices: dict = {}
        self._texts: dict = {}

    def expression(self, text, ctx: PolyRing) -> Polynomial:
        if type(text) is not str:
            return certs.parse_expression(text, ctx)  # no key; the parser reports it
        key = (text, ctx)
        f = self._texts.get(key)
        if f is None:
            f = self._texts[key] = certs.parse_expression(text, ctx)
        return f

    def ring(self, payload) -> QuotientRing:
        key = _exact_key(payload, _RING_KEY)
        if key is None:
            return self._rehome(certs.parse_ring(payload))  # no key; the parser reports it
        r = self._rings.get(key)
        if r is None:
            r = self._rings[key] = self._rehome(certs.parse_ring(payload))
        return r

    def _rehome(self, r: QuotientRing) -> QuotientRing:
        """r over the certificate's one context for its field and variable count."""
        ctx = self._contexts.setdefault((r.field, r.nvars), r.context)
        return r if ctx is r.context else QuotientRing(ctx, r.generators)

    def matrix(self, payload, ctx: PolyRing) -> PolyMatrix:
        key = _exact_key(payload, _MATRIX_KEY)
        if key is None:
            return certs.parse_matrix(payload, ctx, lambda text: self.expression(text, ctx))
        key += (ctx,)
        m = self._matrices.get(key)
        if m is None:
            m = self._matrices[key] = certs.parse_matrix(
                payload, ctx, lambda text: self.expression(text, ctx))
        return m

    def pair(self, payload, ctx: PolyRing, first: str = "fwd", second: str = "bwd") -> tuple:
        return self.matrix(payload[first], ctx), self.matrix(payload[second], ctx)

    def glpair(self, payload, ctx: PolyRing) -> tuple:
        return self.pair(payload, ctx, "m", "minv")

    def node_iso(self, node: dict, ctx: PolyRing) -> tuple:
        """The final iso of a discharged base or decompose node."""
        return self.pair(node["glue"]["iso"] if node.get("kind") == "decompose"
                         else node["iso"], ctx)


def verify_payload(payload: dict) -> VerifierReport:
    report = VerifierReport()
    if not isinstance(payload, dict):
        report.add("root", "structure", False,
                   f"malformed certificate: body is a {type(payload).__name__}, not an object")
        return report
    root = payload.get("root")
    if root is None or isinstance(root, dict) and root.get("kind") == "empty":
        report.warnings.append("certificate claims nothing; vacuous pass")
        return report
    rd = _Reader()
    try:
        _verify_node(rd, root, "root", report)
        if "stab" in payload:
            _verify_stab(rd, payload, root, report)
    except SrpbError as exc:
        report.add("root", "structure", False, f"malformed certificate: {exc}")
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError,
            RecursionError) as exc:
        # a JSON value of the wrong type (a node that is not an object, a
        # number where a field name belongs) or nested too deeply to print
        # surfaces as one of these
        report.add("root", "structure", False, f"malformed certificate: {exc!r}")
    obligations = payload.get("obligations", [])
    if not isinstance(obligations, list):
        report.add("root", "structure", False,
                   f"malformed certificate: obligations is a {type(obligations).__name__}, "
                   "not a list")
        return report
    for ob in obligations:
        kind = ob.get("kind") if isinstance(ob, dict) else None
        report.warnings.append(f"undischarged obligation: {kind}")
    return report


def _verify_stab(rd: _Reader, payload: dict, root: dict, report: VerifierReport) -> None:
    """The recorded stabilized iso must connect E_P (+) 1 and E_Q (+) 1."""
    ring = rd.ring(root["ring"])
    ctx = ring.context
    e_p = rd.matrix(root["module"], ctx)
    e_q = rd.matrix(root["module_other"], ctx)
    one = PolyMatrix.identity(ctx, 1)
    fwd, bwd = rd.pair(payload["stab"], ctx)
    _check_iso_laws(report, "root.stab", ring, e_p.direct_sum(one),
                    e_q.direct_sum(one), fwd, bwd)


# -- shared helpers --------------------------------------------------------------

def _eq(report, where, check, lhs: PolyMatrix, rhs: PolyMatrix, what: str) -> bool:
    ok = lhs == rhs
    detail = "" if ok else f"{what}: left {_show(lhs)} right {_show(rhs)}"
    report.add(where, check, ok, detail)
    return ok


def _show(m: PolyMatrix) -> str:
    return "[" + "; ".join(", ".join(format_polynomial(p) for p in m.row(i))
                           for i in range(m.rows)) + "]"


def _check_idempotent(report, where, ring: QuotientRing, e: PolyMatrix) -> None:
    _eq(report, where, "idempotency", ring.mat_mul(e, e), e, "E*E vs E")


def _check_iso_laws(report, where, ring: QuotientRing, es: PolyMatrix, et: PolyMatrix,
                    fwd: PolyMatrix, bwd: PolyMatrix) -> None:
    nf = ring.nf_matrix
    mm = ring.mat_mul
    ok = (nf(fwd) == mm(mm(et, fwd), es) and nf(bwd) == mm(mm(es, bwd), et)
          and mm(bwd, fwd) == nf(es) and mm(fwd, bwd) == nf(et))
    detail = "" if ok else "corner laws fail"
    report.add(where, "mod-iso-laws", ok, detail)


def _check_hom_defined(report, where, h: Optional[RingHom], label: str) -> None:
    """A square map sends each variable to itself or to 0 (else ``_load_square``
    yields no map, h is None) and kills its source ideal."""
    if h is None:
        report.add(where, "hom-defined", False, f"{label}: a variable maps to neither itself nor 0")
        return
    try:
        hom_check(h)
    except HomError as exc:
        report.add(where, "hom-defined", False,
                   f"{label}: generator {exc.generator} maps to {format_polynomial(exc.image)}")
    else:
        report.add(where, "hom-defined", True)


# -- square ----------------------------------------------------------------------

SQUARE_MAPS = (("i1", "a", "a1"), ("i2", "a", "a2"), ("j1", "a1", "a0"),
               ("j2", "a2", "a0"), ("section", "a0", "a2"))


def _load_square(rd: _Reader, node: dict) -> dict:
    rings = {k: rd.ring(v) for k, v in node["square"]["rings"].items()}
    ctxs = {k: r.context for k, r in rings.items()}
    homs_raw = node["square"]["homs"]

    sq: dict = {"rings": rings}
    for name, src, tgt in SQUARE_MAPS:
        imgs = [rd.expression(t, ctxs[tgt]) for t in homs_raw[name]]
        try:
            sq[name] = RingHom(rings[src], rings[tgt], image_mask(rings[src], rings[tgt], imgs))
        except (ContextError, HomError):
            pass  # not a term filter: no map, so the checks that would apply it are skipped
    sq["apex"] = int(node["apex"]) if "apex" in node else int(node["square"]["apex"])
    return sq


def _check_square(report, where, sq: dict) -> None:
    for name, _, _ in SQUARE_MAPS:
        _check_hom_defined(report, where, sq.get(name), name)
    a = sq["rings"]["a"]
    ctx = a.context
    if sq.keys() >= {"i1", "i2", "j1", "j2"}:
        bad = next((v for v in range(a.nvars) if sq["j1"](sq["i1"](ctx.variable(v)))
                    != sq["j2"](sq["i2"](ctx.variable(v)))), None)
        report.add(where, "square-commutes", bad is None,
                   "" if bad is None else f"j1(i1(x{bad})) != j2(i2(x{bad}))")
    a0 = sq["rings"]["a0"]
    if sq.keys() >= {"j2", "section"}:
        ok = all(sq["j2"](sq["section"](xv)) == xv for xv in
                 (a0.normal_form(a0.context.variable(v)) for v in range(a0.nvars)))
        report.add(where, "square-commutes", ok, "" if ok else "section law fails")


# -- node dispatch -----------------------------------------------------------------

def _verify_node(rd: _Reader, node: dict, where: str, report: VerifierReport) -> None:
    if where.count(".") > MAX_NODE_DEPTH:  # each level appends ".childN" or ".extend"
        report.add(where, "structure", False, f"nodes nest deeper than {MAX_NODE_DEPTH} levels")
        return
    kind = node.get("kind")
    if kind == "base":
        _verify_base(rd, node, where, report)
    elif kind == "decompose":
        _verify_decompose(rd, node, where, report)
    elif kind == "umrow-lift":
        _verify_umrow(rd, node, where, report)
    elif kind == "gl-lift":
        _verify_gl_lift(rd, node, where, report)
    elif kind == "patch":
        _verify_patch(rd, node, where, report)
    elif kind == "empty":
        report.warnings.append(f"{where}: empty node")
    else:
        report.add(where, "structure", False, f"unknown node kind {kind!r}")


def _check_target(rd: _Reader, node: dict, where: str, report: VerifierReport,
                  ring: QuotientRing, e: PolyMatrix, target: PolyMatrix) -> None:
    """An extension's target is its module's augmentation, a cancellation's
    its other module; a node that names no task is an extension."""
    if node.get("task", "extend") == "extend":
        ok = target == e.augmentation() and target.is_constant()
        report.add(where, "augmentation", ok,
                   "" if ok else "target is not the augmented module")
    else:
        _eq(report, where, "restriction", target, rd.matrix(node["module_other"], ring.context),
            "cancel target vs other module")


def _verify_base(rd: _Reader, node: dict, where: str, report: VerifierReport) -> None:
    ring = rd.ring(node["ring"])
    ctx = ring.context
    e = rd.matrix(node["module"], ctx)
    _check_idempotent(report, where, ring, e)
    if not node.get("discharged", False):
        report.warnings.append(f"{where}: obligation ({node.get('obligation')}) pending")
        return
    target = rd.matrix(node["target"], ctx)
    fwd, bwd = rd.pair(node["iso"], ctx)
    _check_idempotent(report, where, ring, target)
    _check_target(rd, node, where, report, ring, e, target)
    _check_iso_laws(report, where, ring, e, target, fwd, bwd)


def _verify_decompose(rd: _Reader, node: dict, where: str, report: VerifierReport) -> None:
    ring = rd.ring(node["ring"])
    ctx = ring.context
    e = rd.matrix(node["module"], ctx)
    _check_idempotent(report, where, ring, e)
    sq = _load_square(rd, node)
    _check_square(report, where, sq)
    ok = sq["rings"]["a"] == ring
    report.add(where, "structure", ok, "" if ok else "square total ring differs")

    task = node.get("task", "extend")
    children = node.get("children", [])
    if len(children) != 2:
        report.add(where, "structure", False, "decompose node needs two children")
        return
    for idx, (corner, hom) in enumerate((("a1", sq.get("i1")), ("a2", sq.get("i2")))):
        child = children[idx]
        child_ring = rd.ring(child["ring"])
        ok = child_ring == sq["rings"][corner]
        report.add(where, "structure", ok,
                   "" if ok else f"child {idx} ring is not the {corner} corner")
        if hom is not None:
            _eq(report, f"{where}.child{idx}", "restriction", rd.matrix(child["module"], ctx),
                hom.apply_matrix(e), "child module vs restriction")
        if hom is not None and task == "cancel" and "module_other" in node:
            other = rd.matrix(node["module_other"], ctx)
            child_other = rd.matrix(child["module_other"], ctx)
            _eq(report, f"{where}.child{idx}", "restriction",
                child_other, hom.apply_matrix(other), "child other-module vs restriction")
        _verify_node(rd, child, f"{where}.child{idx}", report)

    if not node.get("discharged", False):
        report.warnings.append(f"{where}: decomposition left partial")
        return
    if not (children[0].get("discharged") and children[1].get("discharged")):
        report.add(where, "structure", False, "glued node with undischarged children")
        return

    a1, a2, a0 = sq["rings"]["a1"], sq["rings"]["a2"], sq["rings"]["a0"]
    j1, j2 = sq.get("j1"), sq.get("j2")
    target = rd.matrix(node["target"], ctx)
    _check_idempotent(report, where, ring, target)
    _check_target(rd, node, where, report, ring, e, target)

    phi1_f, phi1_b = rd.node_iso(children[0], ctx)
    phi2_f, phi2_b = rd.node_iso(children[1], ctx)
    glue = node["glue"]
    alpha0_f, alpha0_b = rd.pair(glue["alpha0"], ctx)
    alpha2_f, alpha2_b = rd.pair(glue["alpha2"], ctx)
    fix_f, fix_b = rd.pair(glue["phi2"], ctx)
    iso_f, iso_b = rd.pair(glue["iso"], ctx)

    # mismatch definition: alpha0 = j2(phi2) o j1(phi1)^-1 over a0
    if j1 is not None and j2 is not None:
        _eq(report, where, "compose", alpha0_f,
            a0.mat_mul(j2.apply_matrix(phi2_f), j1.apply_matrix(phi1_b)),
            "alpha0 fwd vs j2(phi2)*j1(phi1 bwd)")
        _eq(report, where, "compose", alpha0_b,
            a0.mat_mul(j1.apply_matrix(phi1_f), j2.apply_matrix(phi2_b)),
            "alpha0 bwd vs j1(phi1 fwd)*j2(phi2 bwd)")

    # alpha2 is an automorphism of Q_2 reducing to alpha0
    if "i2" in sq:
        q2 = sq["i2"].apply_matrix(target)
        _check_iso_laws(report, where, a2, q2, q2, alpha2_f, alpha2_b)
    if j2 is not None:
        _eq(report, where, "restriction", j2.apply_matrix(alpha2_f), a0.nf_matrix(alpha0_f),
            "j2(alpha2 fwd) vs alpha0 fwd")
        _eq(report, where, "restriction", j2.apply_matrix(alpha2_b), a0.nf_matrix(alpha0_b),
            "j2(alpha2 bwd) vs alpha0 bwd")

    # corrected second iso: phi2' = alpha2^-1 o phi2
    _eq(report, where, "compose", fix_f, a2.mat_mul(alpha2_b, phi2_f),
        "phi2' fwd vs alpha2 bwd * phi2 fwd")
    _eq(report, where, "compose", fix_b, a2.mat_mul(phi2_b, alpha2_f),
        "phi2' bwd vs phi2 bwd * alpha2 fwd")

    # glued iso restricts to its parts and satisfies the laws
    for name, corner, iso, part, what in (
            ("i1", a1, iso_f, phi1_f, "i1(iso fwd) vs phi1 fwd"),
            ("i2", a2, iso_f, fix_f, "i2(iso fwd) vs phi2' fwd"),
            ("i1", a1, iso_b, phi1_b, "i1(iso bwd) vs phi1 bwd"),
            ("i2", a2, iso_b, fix_b, "i2(iso bwd) vs phi2' bwd")):
        if name in sq:
            _eq(report, where, "restriction", sq[name].apply_matrix(iso), corner.nf_matrix(part),
                what)
    _check_iso_laws(report, where, ring, e, target, iso_f, iso_b)


def _verify_umrow(rd: _Reader, node: dict, where: str, report: VerifierReport) -> None:
    ring = rd.ring(node["ring"])
    ctx = ring.context
    v = rd.matrix(node["v"], ctx)
    w = rd.matrix(node["w"], ctx)
    _eq(report, where, "um-congruence", ring.mat_mul(v, w.transpose()),
        PolyMatrix.identity(ctx, 1), "v*w^T vs 1")

    extend = node["extend"]
    kernel = PolyMatrix.identity(ctx, v.cols) - ring.mat_mul(w.transpose(), v)
    ext_ring = rd.ring(extend["ring"])
    report.add(where, "structure", ext_ring == ring,
               "" if ext_ring == ring else "extend subtree over a different ring")
    _eq(report, where, "restriction", rd.matrix(extend["module"], ctx), kernel,
        "extend module vs I - w^T v")
    _verify_node(rd, extend, f"{where}.extend", report)

    if not node.get("discharged", False) or "sigma" not in node:
        report.warnings.append(f"{where}: row lift left partial")
        return
    sigma_m, sigma_i = rd.glpair(node["sigma"], ctx)
    _eq(report, where, "gl-lift", ring.mat_mul(sigma_m, sigma_i),
        PolyMatrix.identity(ctx, sigma_m.rows), "sigma*sigma^-1 vs I")
    v0 = v.augmentation()
    w0 = w.augmentation()
    if extend.get("discharged"):
        fwd, bwd = rd.node_iso(extend, ctx)
        _eq(report, where, "compose", sigma_m,
            ring.nf_matrix(bwd) + ring.mat_mul(w.transpose(), v0), "sigma vs bwd + w^T v(0)")
        _eq(report, where, "compose", sigma_i,
            ring.nf_matrix(fwd) + ring.mat_mul(w0.transpose(), v), "sigma^-1 vs fwd + w(0)^T v")
    _eq(report, where, "um-congruence", ring.mat_mul(v, sigma_m), v0, "v*sigma vs v(0)")

    if "delta" not in node:
        report.warnings.append(f"{where}: no GL lift recorded")
        return
    target_ring = rd.ring(node["target_ring"])
    tctx = target_ring.context
    ok = all(not ring.survives(g) for g in target_ring.generators)
    report.add(where, "structure", ok, "" if ok else "target ideal escapes the quotient")
    delta_m, delta_i = rd.glpair(node["delta"], tctx)
    _eq(report, where, "gl-lift", target_ring.mat_mul(delta_m, delta_i),
        PolyMatrix.identity(tctx, delta_m.rows), "delta*delta^-1 vs I")
    pi = RingHom(target_ring, ring, ring.zero_mask)
    _eq(report, where, "gl-lift", pi.apply_matrix(delta_m), ring.nf_matrix(sigma_m),
        "pi(delta) vs sigma")

    u = rd.matrix(node["u"], tctx)
    w_prime = rd.matrix(node["w_prime"], tctx)
    _eq(report, where, "compose", u,
        target_ring.mat_mul(v0, delta_i), "u vs v(0)*delta^-1")
    _eq(report, where, "compose", w_prime,
        target_ring.mat_mul(w0, delta_m.transpose()), "w' vs w(0)*delta^T")
    _eq(report, where, "um-congruence", target_ring.mat_mul(u, w_prime.transpose()),
        PolyMatrix.identity(tctx, 1), "u*w'^T vs 1")
    _eq(report, where, "um-congruence", pi.apply_matrix(u), ring.nf_matrix(v),
        "u mod J vs v")


def _verify_gl_lift(rd: _Reader, node: dict, where: str, report: VerifierReport) -> None:
    ring = rd.ring(node["ring"])
    target_ring = rd.ring(node["target_ring"])
    ctx, tctx = ring.context, target_ring.context
    sigma_m, sigma_i = rd.glpair(node["sigma"], ctx)
    delta_m, delta_i = rd.glpair(node["delta"], tctx)
    _eq(report, where, "gl-lift", ring.mat_mul(sigma_m, sigma_i),
        PolyMatrix.identity(ctx, sigma_m.rows), "sigma*sigma^-1 vs I")
    _eq(report, where, "gl-lift", target_ring.mat_mul(delta_m, delta_i),
        PolyMatrix.identity(tctx, delta_m.rows), "delta*delta^-1 vs I")
    if any(ring.survives(g) for g in target_ring.generators):
        # reported only on failure, so a valid node's summary keeps its entries
        report.add(where, "structure", False, "target ideal escapes the quotient")
        return
    pi = RingHom(target_ring, ring, ring.zero_mask)
    _eq(report, where, "gl-lift", pi.apply_matrix(delta_m), ring.nf_matrix(sigma_m),
        "pi(delta) vs sigma")


def _verify_patch(rd: _Reader, node: dict, where: str, report: VerifierReport) -> None:
    sq = _load_square(rd, node)
    _check_square(report, where, sq)
    a, a1, a2, a0 = (sq["rings"][k] for k in ("a", "a1", "a2", "a0"))
    ring = rd.ring(node["ring"])
    report.add(where, "structure", ring == a, "" if ring == a else "ring is not the square total")
    ctx = a.context
    rank = int(node["rank"])
    sigma_m, sigma_i = rd.glpair(node["sigma"], ctx)
    u_m, u_i = rd.glpair(node["whitehead"], ctx)
    _eq(report, where, "gl-lift", a0.mat_mul(sigma_m, sigma_i),
        PolyMatrix.identity(ctx, rank), "sigma*sigma^-1 vs I")
    _eq(report, where, "whitehead", a2.mat_mul(u_m, u_i),
        PolyMatrix.identity(ctx, 2 * rank), "U*U^-1 vs I")
    if "j2" in sq:
        _eq(report, where, "whitehead", sq["j2"].apply_matrix(u_m),
            a0.nf_matrix(sigma_m.direct_sum(sigma_i)), "j2(U) vs sigma (+) sigma^-1")
    corner = PolyMatrix.identity(ctx, rank).direct_sum(PolyMatrix.zeros(ctx, rank, rank))
    e2 = a2.mat_mul(a2.mat_mul(u_m, corner), u_i)
    e = rd.matrix(node["module"], ctx)
    _check_idempotent(report, where, a, e)
    if "i1" in sq:
        _eq(report, where, "restriction", sq["i1"].apply_matrix(e), corner,
            "i1(E) vs I_r (+) 0")
    if "i2" in sq:
        _eq(report, where, "restriction", sq["i2"].apply_matrix(e), e2,
            "i2(E) vs whitehead conjugate")
    got_rank = scalar_rank(e.augmentation())
    report.add(where, "rank", got_rank == rank,
               "" if got_rank == rank else f"rank {got_rank} != {rank}")
