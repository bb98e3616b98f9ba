import json
import time

import pytest

from srpb import (QQ, GLMat, PolyMatrix, QuotientRing, SimplicialComplex,
                  sr_quotient)
from srpb import certs, files
from srpb.cli import main
from srpb.lifting import MAX_LIFT_SIZE
from srpb.quotient import build_fiber_square
from helpers import hollow_triangle, make_rng, random_elementary_product, two_points


@pytest.fixture
def workdir(tmp_path):
    files.save_complex(str(tmp_path / "hollow.cplx"), hollow_triangle())
    files.save_complex(str(tmp_path / "twopoints.cplx"), two_points())
    files.save_complex(str(tmp_path / "simplex.cplx"), SimplicialComplex.simplex(2))
    ring = sr_quotient(QQ, two_points())
    files.save_ring(str(tmp_path / "twopoints.ring"), ring)
    files.save_ring(str(tmp_path / "free2.ring"), QuotientRing.make(QQ, 2, ()))
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(0))
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    e = ring.mat_mul(ring.mat_mul(g.mat, corner), g.inv)
    files.save_matrix(str(tmp_path / "mod.mat"), ring, e)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_complex_faces_and_nonfaces(workdir, capsys):
    assert run(["complex", "faces", "--complex", workdir / "hollow.cplx"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [0, 1] in out["faces"] and [0, 1, 2] not in out["faces"]
    assert run(["complex", "nonfaces", "--complex", workdir / "hollow.cplx"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["minimal_nonfaces"] == [[0, 1, 2]]


def test_complex_link_cone_delete(workdir, capsys, tmp_path):
    assert run(["complex", "link", "--complex", workdir / "hollow.cplx",
                "--vertex", 0, "--out", tmp_path / "link.cplx"]) == 0
    got = files.load_complex(str(tmp_path / "link.cplx"))
    assert got.facets == ((1,), (2,))
    assert run(["complex", "cone", "--complex", tmp_path / "link.cplx",
                "--vertex", 0]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["facets"] == [[0, 1], [0, 2]]


def test_complex_decompose_exit_codes(workdir, capsys):
    assert run(["complex", "decompose", "--complex", workdir / "hollow.cplx"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["apex"] == 0
    # precondition violation: simplex input
    assert run(["complex", "decompose", "--complex", workdir / "simplex.cplx"]) == 2


def test_complex_verbs_on_a_large_ambient(tmp_path, capsys):
    # 40 ambient vertices: every verb works on the three facets and must not
    # touch all 2^40 vertex sets
    path = tmp_path / "wide.cplx"
    files.save_complex(str(path), SimplicialComplex.from_facets(40, [[0, 1], [1, 2], [0, 2]]))
    assert run(["complex", "faces", "--complex", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["faces"] == [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]]
    assert run(["complex", "decompose", "--complex", path,
                "--out-link", tmp_path / "link.cplx"]) == 0
    assert json.loads(capsys.readouterr().out)["apex"] == 0
    assert files.load_complex(str(tmp_path / "link.cplx")).facets == ((1,), (2,))
    assert run(["complex", "nonfaces", "--complex", path]) == 0
    out = json.loads(capsys.readouterr().out)["minimal_nonfaces"]
    assert out == [[v] for v in range(3, 40)] + [[0, 1, 2]]


def test_faces_of_a_large_simplex_are_refused(tmp_path, capsys):
    path = tmp_path / "simplex40.cplx"
    files.save_complex(str(path), SimplicialComplex.simplex(40))
    assert run(["complex", "faces", "--complex", path]) == 2
    assert "facet subsets" in capsys.readouterr().err


def test_ring_nf(workdir, capsys):
    assert run(["ring", "nf", "--ring", workdir / "twopoints.ring",
                "--expr", "x0*x1 + x0^2"]) == 0
    assert capsys.readouterr().out.strip() == "x0^2"


def test_ring_nf_parse_error_is_input_error(workdir, capsys):
    assert run(["ring", "nf", "--ring", workdir / "twopoints.ring",
                "--expr", "x0 + "]) == 2


@pytest.mark.parametrize("expr", ["(x0+x1)^3000", "2^2147483647", "(" * 100_000 + "x0"],
                         ids=["power", "constant", "nesting"])
def test_ring_nf_past_the_expression_caps_is_input_error(workdir, capsys, expr):
    assert run(["ring", "nf", "--ring", workdir / "twopoints.ring", "--expr", expr]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("verb, text", [
    ("nf", "x0^\u00b2"), ("member", "x0^\u00b2"), ("nf", "x\u0660"),
    ("nf", "1" * 5000), ("member", "x0 + 2/" + "3" * 5000),
], ids=["nf-superscript-digit", "member-superscript-digit", "nf-arabic-indic-index",
        "nf-5000-digit-literal", "member-5000-digit-denominator"])
def test_expression_text_is_ascii_digits_of_bounded_length(workdir, capsys, tmp_path,
                                                          verb, text):
    if verb == "nf":
        args = ["ring", "nf", "--ring", workdir / "twopoints.ring", "--expr", text]
    else:
        gens = tmp_path / "g.gens"
        with open(gens, "w") as fh:
            fh.write("srpb/1 gens\n" + json.dumps({"ring": RING2, "generators": ["x0"]}))
        args = ["gb", "member", "--gens", gens, "--target", text]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["Fp:x", "Fp:", "Fp:\u00b2", "Fp:\u0663", "Fp:" + "7" * 5000],
                         ids=["letter", "empty", "superscript", "arabic-indic", "5000-digits"])
def test_square_check_with_a_non_numeric_field_is_input_error(workdir, capsys, name):
    assert run(["square", "check", "--complex", workdir / "twopoints.cplx",
                "--field", name]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("ring", [{"field": [], "vars": 2, "ideal": []},
                                  {"field": "Q", "vars": 2, "ideal": [7]},
                                  {"field": "Q", "vars": "x", "ideal": []}])
def test_ring_file_with_wrongly_typed_value_is_input_error(tmp_path, capsys, ring):
    path = tmp_path / "bad.ring"
    with open(path, "w") as fh:
        fh.write("srpb/1 ring\n" + json.dumps(ring) + "\n")
    assert run(["ring", "nf", "--ring", path, "--expr", "x0"]) == 2
    assert "bad ring" in capsys.readouterr().err


RING2 = {"field": "Q", "vars": 2, "ideal": ["x0*x1"]}


@pytest.mark.parametrize("name", ["Fp:0", "Fp:000"])
def test_prime_field_of_characteristic_zero_is_input_error(workdir, tmp_path, capsys, name):
    # Fp:0 is not another name for Q: 1/2 must not parse over it
    path = tmp_path / "fp0.ring"
    with open(path, "w") as fh:
        fh.write("srpb/1 ring\n" + json.dumps(dict(RING2, field=name)) + "\n")
    assert run(["ring", "nf", "--ring", path, "--expr", "1/2*x0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "characteristic 0" in err
    assert run(["square", "check", "--complex", workdir / "twopoints.cplx",
                "--field", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "characteristic 0" in err


@pytest.mark.parametrize("matrix", [{"rows": "x", "cols": 1, "entries": ["1"]},
                                    {"rows": 1, "cols": 1, "entries": [7]},
                                    {"rows": 1, "entries": ["1"]},
                                    {"rows": 1.0, "cols": 1, "entries": ["1"]},
                                    {"rows": 1, "cols": True, "entries": ["1"]}])
def test_matrix_file_with_wrongly_typed_value_is_input_error(tmp_path, capsys, matrix):
    path = tmp_path / "bad.mat"
    with open(path, "w") as fh:
        fh.write("srpb/1 matrix\n" + json.dumps(dict(matrix, ring=RING2)) + "\n")
    assert run(["extend", "--module", path, "--out", tmp_path / "c.cert"]) == 2
    assert "bad matrix" in capsys.readouterr().err


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
def test_counts_must_be_json_integers(tmp_path, capsys, count):
    ring = tmp_path / "bad.ring"
    with open(ring, "w") as fh:
        fh.write("srpb/1 ring\n" + json.dumps(dict(RING2, vars=count)) + "\n")
    assert run(["ring", "nf", "--ring", ring, "--expr", "x0"]) == 2
    assert "vars must be an integer" in capsys.readouterr().err
    cplx = tmp_path / "bad.cplx"
    with open(cplx, "w") as fh:
        fh.write("srpb/1 complex\n" + json.dumps({"ambient": count, "facets": [[0]]}) + "\n")
    assert run(["complex", "faces", "--complex", cplx]) == 2
    assert "ambient must be an integer" in capsys.readouterr().err


def test_gb_member(workdir, capsys, tmp_path):
    gens = tmp_path / "g.gens"
    with open(gens, "w") as fh:
        fh.write("srpb/1 gens\n")
        fh.write(json.dumps({"ring": {"field": "Q", "vars": 2, "ideal": []},
                             "generators": ["x0", "x0 - 1"]}))
    assert run(["gb", "member", "--gens", gens, "--target", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["member"] and out["coefficients"] == ["1", "-1"]
    gens2 = tmp_path / "g2.gens"
    with open(gens2, "w") as fh:
        fh.write("srpb/1 gens\n")
        fh.write(json.dumps({"ring": {"field": "Q", "vars": 2, "ideal": []},
                             "generators": ["x0^2", "x1^2"]}))
    assert run(["gb", "member", "--gens", gens2, "--target", "x0"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is False


@pytest.mark.parametrize("payload", [
    {"generators": ["x0"]},
    {"ring": RING2, "generators": 7},
    {"ring": 5, "generators": ["x0"]},
], ids=["without-ring", "generators-not-a-list", "ring-not-a-reference"])
def test_bad_gens_file_is_input_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.gens"
    with open(path, "w") as fh:
        fh.write("srpb/1 gens\n" + json.dumps(payload) + "\n")
    assert run(["gb", "member", "--gens", path, "--target", "x0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and "Traceback" not in err


def cyclic_gens(n):
    """The cyclic-n system: the elementary cyclic sums of degree 1..n-1, and x0...x(n-1) - 1."""
    xs = [f"x{i}" for i in range(n)]
    sums = [" + ".join("*".join(xs[(i + t) % n] for t in range(k)) for i in range(n))
            for k in range(1, n)]
    return sums + ["*".join(xs) + " - 1"]


@pytest.mark.parametrize("field, gens, target", [
    ("Fp:32003", cyclic_gens(5), "1"),
    ("Q", ["x0 - x1"], "x0^2000000000"),
], ids=["cyclic-5", "target-of-huge-degree"])
def test_gb_member_past_the_work_budget_is_input_error(tmp_path, capsys, field, gens, target):
    path = tmp_path / "g.gens"
    with open(path, "w") as fh:
        fh.write("srpb/1 gens\n" + json.dumps({
            "ring": {"field": field, "vars": 5, "ideal": []}, "generators": gens}) + "\n")
    start = time.perf_counter()
    code = run(["gb", "member", "--gens", path, "--target", target])
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert "more than 1000000 term operations" in capsys.readouterr().err


def test_gl_lift_whose_unit_inverse_outgrows_the_cap_is_input_error(tmp_path, capsys):
    # 1 + x0 is a unit mod x0^3000, but its inverse has 3000 terms
    def ring(power):
        return {"field": "Q", "vars": 1, "ideal": [f"x0^{power}"]}

    with open(tmp_path / "sigma.glm", "w") as fh:
        fh.write("srpb/1 glmatrix\n" + json.dumps({
            "ring": ring(2), "m": {"rows": 1, "cols": 1, "entries": ["1 + x0"]},
            "minv": {"rows": 1, "cols": 1, "entries": ["1 - x0"]}}) + "\n")
    with open(tmp_path / "up.ring", "w") as fh:
        fh.write("srpb/1 ring\n" + json.dumps(ring(3000)) + "\n")
    start = time.perf_counter()
    code = run(["gl", "lift", "--sigma", tmp_path / "sigma.glm",
                "--to-ring", tmp_path / "up.ring", "--out", tmp_path / "delta.glm"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "more than 256 terms" in capsys.readouterr().err


def test_gl_lift_past_the_size_bound_is_input_error(workdir, capsys, tmp_path):
    # the all-ones upper triangle U has U^-1 == I - (superdiagonal)
    ring = sr_quotient(QQ, two_points())
    n = MAX_LIFT_SIZE + 1
    u = PolyMatrix.from_scalars(ring.context, [[int(j >= i) for j in range(n)] for i in range(n)])
    u_inv = PolyMatrix.from_scalars(ring.context, [[(i == j) - (j == i + 1) for j in range(n)]
                                                   for i in range(n)])
    files.save_glmat(str(tmp_path / "sigma.glm"), GLMat(ring, u, u_inv))
    start = time.perf_counter()
    code = run(["gl", "lift", "--sigma", tmp_path / "sigma.glm",
                "--to-ring", workdir / "free2.ring", "--out", tmp_path / "delta.glm"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "MAX_LIFT_SIZE" in capsys.readouterr().err


def test_square_check_counts_and_exit(workdir, capsys):
    assert run(["square", "check", "--complex", workdir / "twopoints.cplx",
                "--degree", 3]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["counts"]["a"], out["counts"]["a1"], out["counts"]["a2"],
            out["counts"]["a0"]) == (7, 4, 4, 1)
    assert run(["square", "check", "--complex", workdir / "simplex.cplx"]) == 2


def test_square_check_negative_degree_is_input_error(workdir, capsys):
    # no monomials to test would read as a vacuous "ok": true
    assert run(["square", "check", "--complex", workdir / "hollow.cplx",
                "--degree", -3]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "degree -3 is negative" in err


def test_square_check_degree_past_the_monomial_bound_is_input_error(workdir, capsys):
    # C(1000003, 3) monomials over the hollow triangle's three variables
    start = time.perf_counter()
    code = run(["square", "check", "--complex", workdir / "hollow.cplx",
                "--degree", 1000000])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "more than 100000 monomials in 3 variables" in err


def test_square_build_writes_file(workdir, capsys, tmp_path):
    out_path = tmp_path / "sq.square"
    assert run(["square", "build", "--complex", workdir / "hollow.cplx",
                "--out", out_path]) == 0
    payload = json.loads(open(out_path).read().splitlines()[1])
    assert payload["apex"] == 0


def test_extend_and_verify_roundtrip(workdir, capsys, tmp_path):
    cert = tmp_path / "ext.cert"
    assert run(["extend", "--module", workdir / "mod.mat", "--out", cert]) == 0
    assert run(["verify", "--cert", cert]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_extend_obligations_exit_3(workdir, capsys, tmp_path):
    ring = sr_quotient(QQ, hollow_triangle())
    ctx = ring.context
    g = GLMat.elementary(ring, 2, 0, 1, ctx.variable(1) + ctx.variable(2))
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    e = ring.mat_mul(ring.mat_mul(g.mat, corner), g.inv)
    files.save_matrix(str(tmp_path / "hard.mat"), ring, e)
    cert = tmp_path / "hard.cert"
    assert run(["extend", "--module", tmp_path / "hard.mat", "--out", cert]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["extended"] is False and out["obligations"]
    # partial certificate still verifies vacuously-true claims
    assert run(["verify", "--cert", cert]) == 0


def test_umrow_lift_cli(workdir, capsys, tmp_path):
    ring = sr_quotient(QQ, two_points())
    free = QuotientRing.make(QQ, 2, ())
    rng = make_rng("cli-umrow")
    m = random_elementary_product(free, 3, rng, count=3)
    ctx = ring.context
    e1 = PolyMatrix.from_scalars(ctx, [[1, 0, 0]])
    v = ring.nf_matrix(e1 * m.mat)
    w = ring.nf_matrix((m.inv * e1.transpose()).transpose())
    files.save_umrow(str(tmp_path / "row.umrow"), ring, v, w)
    cert = tmp_path / "um.cert"
    assert run(["umrow", "lift", "--row", tmp_path / "row.umrow",
                "--out", tmp_path / "lifted.umrow", "--cert", cert]) == 0
    assert run(["verify", "--cert", cert]) == 0
    lifted = files.load_umrow(str(tmp_path / "lifted.umrow"))
    assert lifted.ring.generators == ()


def test_gl_lift_cli_and_adversarial_exit_3(workdir, capsys, tmp_path):
    ring = sr_quotient(QQ, two_points())
    free = QuotientRing.make(QQ, 2, ())
    rng = make_rng("cli-gl")
    d0 = random_elementary_product(free, 2, rng, count=3)
    from srpb import RingHom

    pi = RingHom.quotient_map(free, ring)
    files.save_glmat(str(tmp_path / "sigma.glm"), d0.apply_hom(pi))
    assert run(["gl", "lift", "--sigma", tmp_path / "sigma.glm",
                "--to-ring", workdir / "free2.ring",
                "--out", tmp_path / "delta.glm", "--cert", tmp_path / "gl.cert"]) == 0
    assert run(["verify", "--cert", tmp_path / "gl.cert"]) == 0

    # adversarial: all strategies fail -> exit 3
    hring = sr_quotient(QQ, hollow_triangle())
    hctx = hring.context
    x0, x1, x2 = (hctx.variable(i) for i in range(3))
    h = PolyMatrix.from_rows(hctx, [[x1 - x2, x1 + x2], [-(x1 + x2), x2 - x1]])
    xh = PolyMatrix.from_rows(hctx, [[x0 * p for p in h.row(0)],
                                     [x0 * p for p in h.row(1)]])
    eye = PolyMatrix.identity(hctx, 2)
    sig = GLMat(hring, hring.nf_matrix(eye + xh), hring.nf_matrix(eye - xh))
    files.save_glmat(str(tmp_path / "adv.glm"), sig)
    files.save_ring(str(tmp_path / "free3.ring"), QuotientRing.make(QQ, 3, ()))
    assert run(["gl", "lift", "--sigma", tmp_path / "adv.glm",
                "--to-ring", tmp_path / "free3.ring",
                "--out", tmp_path / "nope.glm"]) == 3


def test_patch_cli(workdir, capsys, tmp_path):
    sq = build_fiber_square(QQ, hollow_triangle())
    sig = GLMat.elementary(sq.a0, 2, 0, 1, sq.a0.normal_form(sq.a0.context.variable(1)))
    files.save_glmat(str(tmp_path / "sigma.glm"), sig)
    assert run(["patch", "--complex", workdir / "hollow.cplx",
                "--sigma", tmp_path / "sigma.glm",
                "--out", tmp_path / "patched.mat", "--cert", tmp_path / "p.cert"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 2 and out["size"] == 4
    assert run(["verify", "--cert", tmp_path / "p.cert"]) == 0


def test_verify_detects_corruption(workdir, capsys, tmp_path):
    cert = tmp_path / "ext.cert"
    assert run(["extend", "--module", workdir / "mod.mat", "--out", cert]) == 0
    text = open(cert).read()
    head, body = text.split("\n", 1)
    payload = json.loads(body)
    payload["root"]["glue"]["iso"]["fwd"]["entries"][0] = "7"
    with open(cert, "w") as fh:
        fh.write(head + "\n" + json.dumps(payload))
    assert run(["verify", "--cert", cert]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bad_header_is_input_error(tmp_path):
    bad = tmp_path / "bad.cplx"
    with open(bad, "w") as fh:
        fh.write("not-a-header\n{}")
    assert run(["complex", "faces", "--complex", bad]) == 2


@pytest.mark.parametrize("head", ["", "srpb/1\n"], ids=["header-less", "kind-less"])
@pytest.mark.parametrize("argv", [["verify", "--cert", "{f}"],
                                  ["ring", "nf", "--ring", "{f}", "--expr", "x0"]],
                         ids=["verify", "ring-nf"])
def test_file_without_its_kind_header_is_input_error(workdir, capsys, head, argv):
    if argv[0] == "verify":
        src = workdir / "ext.cert"
        assert run(["extend", "--module", workdir / "mod.mat", "--out", src]) == 0
    else:
        src = workdir / "twopoints.ring"
    body = open(src).read().partition("\n")[2]
    path = workdir / "headless"
    with open(path, "w") as fh:
        fh.write(head + body)
    capsys.readouterr()
    assert run([a.format(f=path) for a in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_determinism_byte_identical(workdir, tmp_path):
    c1, c2 = tmp_path / "a.cert", tmp_path / "b.cert"
    assert run(["extend", "--module", workdir / "mod.mat", "--out", c1]) == 0
    assert run(["extend", "--module", workdir / "mod.mat", "--out", c2]) == 0
    assert open(c1, "rb").read() == open(c2, "rb").read()


@pytest.mark.parametrize("body", ['{"root": "x"}', '{"root": []}', '{"root": 7}', '["x"]'])
def test_verify_non_object_certificate_fails_cleanly(tmp_path, capsys, body):
    cert = tmp_path / "garbled.cert"
    with open(cert, "w") as fh:
        fh.write("srpb/1 cert\n" + body + "\n")
    assert run(["verify", "--cert", cert]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "root structure" in out


def test_verify_deeply_nested_certificate_is_input_error(tmp_path, capsys):
    cert = tmp_path / "nested.cert"
    with open(cert, "w") as fh:
        fh.write('srpb/1 cert\n{"root": ' + "[" * 200_000 + "]" * 200_000 + "}\n")
    assert run(["verify", "--cert", cert]) == 2
    assert "nests too deeply" in capsys.readouterr().err


ONE = {"rows": 1, "cols": 1, "entries": ["1"]}


@pytest.mark.parametrize("kind,payload,argv", [
    ("matrix", ONE, ["extend", "--module", "{f}", "--out", "{d}/c.cert"]),
    ("glmatrix", {"ring": RING2, "m": ONE},
     ["gl", "lift", "--sigma", "{f}", "--to-ring", "{d}/free2.ring", "--out", "{d}/o.glm"]),
    ("umrow", {"ring": RING2, "v": "x", "w": ONE},
     ["umrow", "lift", "--row", "{f}", "--out", "{d}/o.umrow"]),
    ("matrix", ["x"], ["extend", "--module", "{f}", "--out", "{d}/c.cert"]),
], ids=["matrix-without-ring", "glmatrix-without-minv", "umrow-v-not-object",
        "matrix-not-object"])
def test_file_with_missing_or_wrongly_typed_key_is_input_error(workdir, capsys, kind,
                                                               payload, argv):
    path = workdir / f"bad.{kind}"
    with open(path, "w") as fh:
        fh.write(f"srpb/1 {kind}\n" + json.dumps(payload) + "\n")
    assert run([a.format(f=path, d=workdir) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and "Traceback" not in err


def test_main_twice_in_one_process_matches_fresh_processes(workdir, capsys, monkeypatch):
    """The argument parser is built once per process; no call sees another's state."""
    import os
    import subprocess
    import sys

    import srpb

    cert = workdir / "ext.cert"
    assert run(["extend", "--module", workdir / "mod.mat", "--out", cert]) == 0
    payload = certs.read_payload(str(cert), "cert")
    payload["root"]["glue"]["iso"]["fwd"]["entries"][0] = "7"
    bad = workdir / "bad.cert"
    files.save_cert(str(bad), payload)
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srpb.__file__)))
    calls = [["ring", "nf", "--ring", workdir / "twopoints.ring", "--expr", "x0*x1 + 3*x0"],
             ["verify", "--cert", bad],
             ["complex", "faces", "--complex", workdir / "hollow.cplx"],
             ["ring"],
             ["verify", "--cert", cert],
             ["ring", "nf", "--ring", workdir / "twopoints.ring", "--expr", "x0*x1 + 3*x0"]]
    for argv in calls:
        code = run(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "srpb.cli"] + [str(a) for a in argv],
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
