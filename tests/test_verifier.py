import copy

from srpb import (GLMat, QQ, PolyMatrix, ProjModule, QuotientRing, RingHom,
                  UmRow, build_fiber_square, extend_witness, lift_gl,
                  milnor_patch, sr_quotient, umrow_lift, verify_payload)
from srpb.certs import empty_node, gl_lift_node, patch_node
from srpb.engines import HypothesisProfile, conjugation_witness_oracle
from srpb.expr import parse_expression
from srpb.lifting import whitehead_lift
from srpb.poly import format_polynomial
from srpb.verifier import MAX_NODE_DEPTH
from helpers import (conjugated_idempotent, hollow_triangle, make_rng,
                     random_elementary_product, random_gl_with_units)


def xy_ring():
    return QuotientRing.make(QQ, 2, ((1, 1),))


def corpus_certificates():
    """A spread of valid certificates across every node kind."""
    rng = make_rng("verifier-corpus")
    out = []

    r = xy_ring()
    e, g = conjugated_idempotent(r, rng, size=2, rank=1)
    out.append(("extend-two-points", extend_witness(ProjModule.make(r, e)).certificate))

    hring = sr_quotient(QQ, hollow_triangle())
    e, g = conjugated_idempotent(hring, rng, size=2, rank=1)
    res = extend_witness(ProjModule.make(hring, e), oracle=conjugation_witness_oracle(g))
    assert res.ok
    out.append(("extend-hollow", res.certificate))

    free = QuotientRing.make(QQ, 2, ())
    m = random_elementary_product(free, 3, rng, count=4)
    ctx = r.context
    e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
    v = r.nf_matrix(e1 * m.mat)
    w = r.nf_matrix((m.inv * e1.transpose()).transpose())
    um = umrow_lift(UmRow.make(r, v, w))
    assert um.ok
    out.append(("umrow", um.certificate))

    sq = build_fiber_square(QQ, hollow_triangle())
    sigma = random_gl_with_units(sq.a0, 2, rng)
    module = milnor_patch(sq, 2, sigma)
    u = whitehead_lift(sigma, sq.j2, sq.section)
    prof = HypothesisProfile(0, 2).payload()
    out.append(("patch", patch_node(sq, 2, sigma, u, module.matrix, prof)))

    pi = RingHom.quotient_map(free, r)
    d0 = random_elementary_product(free, 2, rng, count=3)
    sig = d0.apply_hom(pi)
    delta = lift_gl(sig, pi)
    out.append(("gl-lift", gl_lift_node(r, free, sig, delta, prof)))

    out.append(("cancel", _cancel_certificate(rng)))
    return out


def _cancel_certificate(rng):
    from srpb import ModIso, cancel_witness, extend_witness

    r = xy_ring()
    ctx = r.context
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    g1 = GLMat.elementary(r, 2, 0, 1, ctx.variable(0))
    g2 = GLMat.elementary(r, 2, 1, 0, ctx.variable(1))
    p = ProjModule.make(r, r.mat_mul(r.mat_mul(g1.mat, corner), g1.inv))
    q = ProjModule.make(r, r.mat_mul(r.mat_mul(g2.mat, corner), g2.inv))
    mid = extend_witness(q).iso.inverse().compose(extend_witness(p).iso)
    one = PolyMatrix.identity(ctx, 1)
    stab = ModIso.make(ProjModule.make(r, p.matrix.direct_sum(one)),
                       ProjModule.make(r, q.matrix.direct_sum(one)),
                       mid.fwd.direct_sum(one), mid.bwd.direct_sum(one))
    res = cancel_witness(p, q, stab)
    assert res.ok
    return res.certificate


def test_valid_certificates_pass():
    for name, cert in corpus_certificates():
        rep = verify_payload(cert)
        assert rep.ok, f"{name}: {rep.summary()}"
        assert rep.entries, name


def test_empty_certificate_vacuous_pass_with_warning():
    rep = verify_payload(empty_node())
    assert rep.ok
    assert rep.warnings


def test_malformed_certificate_reports_not_raises():
    rep = verify_payload({"root": {"kind": "base", "task": "extend"}})
    assert not rep.ok


def test_unknown_node_kind_fails():
    rep = verify_payload({"root": {"kind": "mystery"}})
    assert not rep.ok


def _matrix_sites(payload, path=()):
    """Paths to every matrix entry list in the payload."""
    sites = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key == "entries" and isinstance(value, list):
                sites.append(path + (key,))
            else:
                sites.extend(_matrix_sites(value, path + (key,)))
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            sites.extend(_matrix_sites(value, path + (i,)))
    return sites


def _get(payload, path):
    cur = payload
    for step in path:
        cur = cur[step]
    return cur


def mutate_one_coefficient(cert, rng):
    """Flip a single coefficient of a single matrix entry; returns a copy."""
    cert = copy.deepcopy(cert)
    sites = _matrix_sites(cert)
    assert sites
    path = rng.choice(sites)
    entries = _get(cert, path)
    idx = rng.randrange(len(entries))
    ring_payload = cert["root"].get("ring", {"field": "Q", "vars": 2})
    from srpb.certs import parse_ring

    # context wide enough for any entry in the file
    nvars = 0
    def scan(node):
        nonlocal nvars
        if isinstance(node, dict):
            if "vars" in node:
                nvars = max(nvars, int(node["vars"]))
            for v in node.values():
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)
    scan(cert)
    fld = parse_ring({"field": ring_payload["field"], "vars": nvars, "ideal": []})
    ctx = fld.context
    poly = parse_expression(entries[idx], ctx)
    bumped = poly + ctx.one()
    entries[idx] = format_polynomial(bumped)
    return cert


def test_mutation_sensitivity_each_kind():
    rng = make_rng("mutate")
    for name, cert in corpus_certificates():
        for _ in range(12):
            bad = mutate_one_coefficient(cert, rng)
            rep = verify_payload(bad)
            assert not rep.ok, f"{name}: mutation passed verification"
            fail = rep.first_failure()
            assert fail is not None and fail.check


def test_verifier_is_independent_of_the_engines():
    # the verification path must not touch engine, lifting or module code
    import srpb.verifier as v

    src = open(v.__file__).read()
    for forbidden in ("engines", "lifting", "projmod", "groebner", "smith"):
        assert f"from .{forbidden}" not in src and f"import {forbidden}" not in src


def test_verifier_covers_every_emitted_node_kind():
    from srpb.certs import NODE_KINDS
    import srpb.verifier as v

    src = open(v.__file__).read()
    for kind in NODE_KINDS:
        assert f'"{kind}"' in src, f"no verifier rule for node kind {kind}"
    # the enumerated identity rules all exist
    for rule in ("idempotency", "hom-defined", "square-commutes", "mod-iso-laws",
                 "whitehead", "gl-lift", "um-congruence", "augmentation",
                 "restriction", "compose", "rank"):
        assert rule in v.CHECK_KINDS


def test_non_object_root_is_a_structure_failure():
    for root in ("x", [], 7):
        rep = verify_payload({"format": "srpb-cert", "version": 1, "root": root,
                              "obligations": []})
        assert not rep.ok
        bad = rep.first_failure()
        assert (bad.node, bad.check) == ("root", "structure")


def test_non_object_payload_is_a_structure_failure():
    for payload in (["x"], "x", 7, None):
        rep = verify_payload(payload)
        assert not rep.ok
        assert rep.first_failure().check == "structure"


def test_deeply_nested_payloads_are_structure_failures():
    root = dict(corpus_certificates())["umrow"]["root"]
    assert root["kind"] == "umrow-lift"
    # 10,000 row-lift nodes, each the extend subtree of the one above
    chain = root["extend"]
    for _ in range(10_000):
        chain = dict(root, module=root["extend"]["module"], extend=chain)
    rep = verify_payload({"root": chain, "obligations": []})
    bad = [e for e in rep.entries if not e.ok]
    assert {e.check for e in bad} == {"structure"}
    assert f"deeper than {MAX_NODE_DEPTH} levels" in bad[0].detail
    assert bad[0].node.count(".") == MAX_NODE_DEPTH + 1
    # a value nested too deeply to print
    kind = []
    for _ in range(100_000):
        kind = [kind]
    rep = verify_payload({"root": {"kind": kind}, "obligations": []})
    assert rep.first_failure().check == "structure"


def test_wrongly_typed_field_name_is_a_structure_failure():
    cert = copy.deepcopy(dict(corpus_certificates())["extend-hollow"])
    cert["root"]["ring"]["field"] = 7
    rep = verify_payload(cert)
    bad = rep.first_failure()
    assert (bad.node, bad.check) == ("root", "structure")
    assert "AttributeError" in bad.detail


def test_prime_field_of_characteristic_zero_is_a_structure_failure():
    cert = copy.deepcopy(dict(corpus_certificates())["extend-hollow"])
    assert cert["root"]["ring"]["field"] == "Q"
    cert["root"]["ring"]["field"] = "Fp:0"
    rep = verify_payload(cert)
    bad = rep.first_failure()
    assert (bad.node, bad.check) == ("root", "structure")
    assert "characteristic 0" in bad.detail


def test_wrongly_typed_matrix_count_is_a_structure_failure():
    base = dict(corpus_certificates())["extend-hollow"]
    for value in ("x", 2.0, True):
        cert = copy.deepcopy(base)
        cert["root"]["module"]["rows"] = value
        bad = verify_payload(cert).first_failure()
        assert (bad.node, bad.check) == ("root", "structure")
        assert "bad matrix" in bad.detail


def test_garbled_obligations_do_not_raise():
    rep = verify_payload({"root": {"kind": "mystery"}, "obligations": ["x", 7]})
    assert not rep.ok
    rep = verify_payload({"root": {"kind": "mystery"}, "obligations": "x"})
    assert not rep.ok


def test_wrongly_typed_values_are_structure_failures():
    """Any subtree replaced by a value of another JSON type fails, never raises."""
    rng = make_rng("verifier-garble")
    for name, cert in corpus_certificates():
        paths = list(_value_paths(cert))
        for _ in range(12):
            bad = copy.deepcopy(cert)
            path = rng.choice(paths)
            holder = bad
            for step in path[:-1]:
                holder = holder[step]
            holder[path[-1]] = rng.choice(["x", [], 7, {}, ["x"], {"kind": "base"}])
            rep = verify_payload(bad)  # must not raise
            assert rep.entries or rep.warnings, (name, path)


def _value_paths(node, path=()):
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _value_paths(value, path + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _value_paths(value, path + (idx,))


def _two_point_extension():
    """The extension certificate of E = g (I_1 (+) 0) g^-1 with g = I + (x0 + x1) E_01
    over Q[x0, x1]/(x0 x1); E is not constant on either corner, so the root is a
    decompose node whatever SRPB_SEED is."""
    r = xy_ring()
    ctx = r.context
    g = GLMat.elementary(r, 2, 0, 1, ctx.variable(0) + ctx.variable(1))
    e = r.mat_mul(r.mat_mul(g.mat, PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])), g.inv)
    cert = extend_witness(ProjModule.make(r, e)).certificate
    assert cert["root"]["kind"] == "decompose"
    return cert


def test_wrongly_typed_copy_of_a_read_payload_is_a_structure_failure():
    """True == 1 and 2.0 == 2, so a copy of a ring or matrix payload whose
    count is an equal value of another JSON type must fail even when a
    well-typed copy of it was read first."""
    base = _two_point_extension()
    for count in ("vars", "rows"):
        groups: dict = {}
        for path in _value_paths(base):
            value = _get(base, path)
            if isinstance(value, dict) and count in value:
                groups.setdefault(repr(sorted(value.items())), []).append(path)
        copies = [paths for paths in groups.values() if len(paths) > 1]
        assert copies, count
        for paths in copies[:3]:
            n = _get(base, paths[0])[count]
            assert n == 2 or n == 1, (count, n)
            for path in paths:
                for value in (float(n), True) if n == 1 else (float(n),):
                    cert = copy.deepcopy(base)
                    _get(cert, path)[count] = value
                    rep = verify_payload(cert)
                    assert not rep.ok, (path, value)
                    assert rep.first_failure().check == "structure", (path, value)


# -- square maps and the rarer verifier branches, on the golden certificates --------

def _failures(rep) -> set:
    return {(e.check, e.detail) for e in rep.entries if not e.ok}


def test_every_square_map_image_edit_is_rejected():
    """A square map sends each variable to itself or to 0, so doubling a
    nonzero image or adding 1 to any image makes the certificate fail."""
    from test_golden import GOLDEN

    cases = 0
    for build in GOLDEN:
        cert = build().certificate
        sites = [p for p in _value_paths(cert) if p[-4:-2] == ("square", "homs")]
        for path in sites:
            image = _get(cert, path)
            assert image == "0" or image.startswith("x"), (build.__name__, path, image)
            for bad_image in ([f"2*{image}"] if image != "0" else []) + [f"{image} + 1"]:
                bad = copy.deepcopy(cert)
                _get(bad, path[:-1])[path[-1]] = bad_image
                assert not verify_payload(bad).ok, (build.__name__, path, bad_image)
                cases += 1
    assert cases == 335


def test_non_filter_square_image_is_a_node_local_hom_defined_failure():
    """A square-map image that is neither its variable nor 0 loads no map: the
    node fails ``hom-defined`` and skips the checks that would apply that map,
    so it is the only failure of an otherwise valid certificate."""
    from test_golden import extend_hollow_oracle

    cert = extend_hollow_oracle().certificate
    assert cert["root"]["square"]["homs"]["i2"][0] == "x0"
    cert["root"]["square"]["homs"]["i2"][0] = "x1"
    rep = verify_payload(cert)
    assert [(e.node, e.check, e.detail) for e in rep.entries if not e.ok] == \
        [("root", "hom-defined", "i2: a variable maps to neither itself nor 0")]


def _hollow_extension():
    from test_golden import extend_hollow_oracle

    cert = extend_hollow_oracle().certificate
    assert cert["root"]["kind"] == "decompose" and cert["root"]["discharged"]
    return cert


def test_decompose_node_needs_two_children():
    cert = _hollow_extension()
    cert["root"]["children"].pop()
    assert ("structure", "decompose node needs two children") in _failures(verify_payload(cert))


def test_glued_node_with_an_undischarged_child_fails():
    cert = _hollow_extension()
    cert["root"]["children"][0]["discharged"] = False
    assert ("structure", "glued node with undischarged children") in \
        _failures(verify_payload(cert))


def test_a_node_that_names_no_task_is_an_extension():
    """Base and decompose nodes read a missing ``task`` alike, as an
    extension: the golden constant extension, whose root is a base node, and
    the hollow one, whose root decomposes, verify with the same entries once
    their root names no task."""
    from test_golden import extend_constant

    for cert, kind in ((extend_constant().certificate, "base"),
                       (_hollow_extension(), "decompose")):
        assert cert["root"]["kind"] == kind and cert["root"]["task"] == "extend"
        untasked = copy.deepcopy(cert)
        del untasked["root"]["task"]
        rep, ref = verify_payload(untasked), verify_payload(cert)
        assert rep.ok and ref.ok, rep.summary()
        assert rep.entries == ref.entries and rep.warnings == ref.warnings


def test_square_that_does_not_commute_fails():
    # the root square splits the hollow triangle at x0, so j1(i1(x1)) == x1
    cert = _hollow_extension()
    cert["root"]["square"]["homs"]["i1"][1] = "0"
    assert ("square-commutes", "j1(i1(x1)) != j2(i2(x1))") in _failures(verify_payload(cert))


def test_section_that_does_not_split_j2_fails():
    cert = _hollow_extension()
    cert["root"]["square"]["homs"]["section"][1] = "0"
    failures = _failures(verify_payload(cert))
    assert ("square-commutes", "section law fails") in failures
    assert not any(d.startswith("j1(i1(") for _, d in failures)


def test_row_lift_without_its_gl_lift_is_a_warning():
    from test_golden import umrow_hollow

    cert = umrow_hollow().certificate
    del cert["root"]["delta"]
    rep = verify_payload(cert)
    assert rep.ok, rep.summary()
    assert "root: no GL lift recorded" in rep.warnings


def test_gl_lift_whose_target_ideal_escapes_the_quotient_fails():
    """Over Q[x0,x1]/(x0x1) a target ring Q[x0,x1]/(x0) has no map x_v -> x_v onto
    the ring, so sigma = delta = I + x1*E_01 lifts nothing and the node fails."""
    r = xy_ring()
    sigma = GLMat.elementary(r, 2, 0, 1, r.context.variable(1))
    prof = HypothesisProfile(0, 2).payload()
    cert = gl_lift_node(r, r, sigma, sigma, prof)
    cert["root"]["target_ring"]["ideal"] = ["x0"]
    rep = verify_payload(cert)
    assert ("structure", "target ideal escapes the quotient") in _failures(rep), rep.summary()
    # over the ring's own ideal the same node passes with no structure entry
    rep = verify_payload(gl_lift_node(r, r, sigma, sigma, prof))
    assert rep.ok and all(e.check == "gl-lift" for e in rep.entries), rep.summary()
