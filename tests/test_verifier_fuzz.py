"""Property tests of the verifier boundary.

Real certificates are garbled at one site: a value of another JSON type, a
missing or extra key or element, a subtree copied to the wrong place, a value
wrapped in deep nesting, or one changed character of a text value (a single
coefficient, variable or operator of a polynomial entry).  ``verify_payload``
must return a report without raising, and ``srpb verify`` must exit with 0-3
without printing a traceback.  The same holds for the text arguments
``--expr``, ``--target`` and ``--field`` of the other verbs, and a gens file
garbled at a few characters makes ``srpb gb member`` exit with 0 or 2.  Ring,
matrix, GL matrix, row and complex files, garbled at a few characters or at
one value, make the verbs that read them exit with 0-3, each within
``CASE_SECONDS``.
"""

import contextlib
import copy
import functools
import io
import json
import os
import tempfile
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from srpb import (QQ, GLMat, PolyMatrix, QuotientRing, build_fiber_square, certs,  # noqa: E402
                  milnor_patch, verify_payload)
from srpb.certs import HEADER  # noqa: E402
from srpb.cli import main  # noqa: E402
from srpb.lifting import whitehead_lift  # noqa: E402
from helpers import hollow_triangle  # noqa: E402
from test_verifier import WIDE_PAIR, _get, _value_paths, corpus_certificates  # noqa: E402

GARBLES = ("type", "drop", "extra", "copy", "nest", "character")

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@functools.lru_cache(maxsize=None)
def _corpus():
    return tuple(corpus_certificates())


def garbled_certificate(data, max_nesting):
    name, cert = data.draw(st.sampled_from(_corpus()), label="certificate")
    return garbled_payload(data, cert, max_nesting)


def garbled_payload(data, payload, max_nesting):
    """A copy of a JSON payload garbled at one site, in one of the ``GARBLES``
    ways ("character" only where it holds a nonempty string)."""
    cert = copy.deepcopy(payload)
    paths = list(_value_paths(cert))
    texts = [p for p in paths if isinstance(_get(cert, p), str) and _get(cert, p)]
    how = data.draw(st.sampled_from(GARBLES if texts else GARBLES[:-1]), label="garble")
    if how == "character":
        paths = texts
    path = data.draw(st.sampled_from(paths), label="path")
    parent, key = _get(cert, path[:-1]), path[-1]
    value = parent[key]
    if how == "type":
        parent[key] = data.draw(JUNK, label="value")
    elif how == "drop":
        del parent[key]
    elif how == "extra":
        if isinstance(value, list):
            value.append(copy.deepcopy(value[-1]) if value else data.draw(JUNK))
        elif isinstance(value, dict):
            value[data.draw(st.text(max_size=6))] = data.draw(JUNK)
        else:
            parent[key] = [value, value]
    elif how == "copy":
        parent[key] = copy.deepcopy(_get(cert, data.draw(st.sampled_from(paths))))
    elif how == "nest":
        in_list = data.draw(st.booleans(), label="in list")
        for _ in range(data.draw(st.sampled_from((1, 2, 40, max_nesting)), label="depth")):
            value = [value] if in_list else {"kind": value}
        parent[key] = value
    else:
        i = data.draw(st.integers(0, len(value) - 1), label="position")
        parent[key] = value[:i] + data.draw(st.sampled_from("0123456789x+-*^/() ")) + value[i + 1:]
    return cert


@FUZZ
@given(st.data())
def test_verify_payload_never_raises_on_garbled_certificates(data):
    report = verify_payload(garbled_certificate(data, max_nesting=3000))
    assert all(isinstance(e.ok, bool) for e in report.entries)


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_verify_cli_exits_cleanly_on_garbled_certificates(data):
    cert = garbled_certificate(data, max_nesting=300)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "garbled.cert")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{HEADER} cert\n{json.dumps(cert)}\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--cert", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()


# -- CLI text arguments ----------------------------------------------------------

GRAMMAR = list("0123456789x+-*^/() ") + ["²", "٠", "٣", " ", "é"]
TEXT = (st.text(alphabet=st.sampled_from(GRAMMAR), max_size=30) | st.text(max_size=12)
        | st.integers(4290, 4310).map(lambda n: "7" * n))
FIELD = (st.sampled_from(["Q", "Fp:5", "Fp:2147483647", "Fp:0", "Fp:1"]) | st.text(max_size=8)
         | TEXT.map(lambda s: "Fp:" + s))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    from srpb import QQ, files, sr_quotient
    from helpers import two_points

    tmp = tmp_path_factory.mktemp("cli-text")
    files.save_complex(str(tmp / "twopoints.cplx"), two_points())
    files.save_ring(str(tmp / "twopoints.ring"), sr_quotient(QQ, two_points()))
    with open(tmp / "g.gens", "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER} gens\n" + json.dumps({
            "ring": {"field": "Q", "vars": 2, "ideal": ["x0*x1"]}, "generators": ["x0"]}))
    return tmp


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(FUZZ, max_examples=80)
@given(expr=TEXT, target=TEXT, field=FIELD)
def test_cli_text_arguments_exit_cleanly(cli_inputs, expr, target, field):
    # "--opt=value", so that a value starting with '-' is not read as an option
    run_cli(["ring", "nf", "--ring", cli_inputs / "twopoints.ring", f"--expr={expr}"])
    run_cli(["gb", "member", "--gens", cli_inputs / "g.gens", f"--target={target}"])
    run_cli(["square", "check", "--complex", cli_inputs / "twopoints.cplx",
             f"--field={field}", "--degree", 2])


# -- gens files ----------------------------------------------------------------------

GENS_RING = {"field": "Q", "vars": 3, "ideal": ["x0*x1"]}
GENERATORS = ["x0^2 + x1", "x1*x2 - 1", "x2^3 + x0"]
EXPR_CHARS = st.sampled_from("0123456789x+-*^/() ")
FILE_CHARS = st.sampled_from(list("0123456789x+-*^/() \"{}[],:.QFp") + ["\n", "é"])


def garbled(data, text, chars):
    """text with one to three characters replaced, dropped or inserted."""
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, max(len(text) - 1, 0)), label="position")
        how = data.draw(st.sampled_from(("replace", "drop", "insert")), label="edit")
        c = "" if how == "drop" else data.draw(chars, label="character")
        text = text[:i] + c + text[i + (how != "insert"):]
    return text


@FUZZ
@given(data=st.data())
def test_gb_member_exits_cleanly_on_garbled_gens_files(data):
    generators = list(GENERATORS)
    whole_file = data.draw(st.booleans(), label="garble the file, not a generator")
    if not whole_file:
        k = data.draw(st.integers(0, len(generators) - 1), label="generator")
        generators[k] = garbled(data, generators[k], EXPR_CHARS)
    text = f"{HEADER} gens\n" + json.dumps({"ring": GENS_RING, "generators": generators})
    if whole_file:
        text = garbled(data, text, FILE_CHARS)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "garbled.gens")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gb", "member", "--gens", path, "--target", "x2 + 1"])
    assert code in (0, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


# -- ring, matrix, glmatrix, umrow and complex files ---------------------------------

CASE_SECONDS = 1.0  # the CLI verbs below answer each case in milliseconds


def _clean_files() -> dict:
    """kind -> payload of one clean file of each kind the file verbs read; the
    module extends, the GL pair and the row lift, over Q[x0, x1]/(x0 x1)."""
    xy = QuotientRing.make(QQ, 2, ((1, 1),))
    ctx = xy.context
    x0, x1 = ctx.variable(0), ctx.variable(1)
    g = GLMat.elementary(xy, 2, 0, 1, x0 + x1)
    corner = PolyMatrix.from_scalars(ctx, [[1, 0], [0, 0]])
    module = xy.mat_mul(xy.mat_mul(g.mat, corner), g.inv)
    m = GLMat.elementary(xy, 2, 0, 1, x0) * GLMat.elementary(xy, 2, 1, 0, x1)
    ring = certs.ring_payload(xy)
    return {
        "ring": {"field": "Q", "vars": 3, "ideal": ["x0*x1*x2"]},
        "matrix": dict(certs.matrix_payload(module), ring=ring),
        "glmatrix": dict(certs.glmat_payload(m), ring=ring),
        "umrow": {"ring": ring, "v": certs.matrix_payload(PolyMatrix(ctx, 1, 2, m.mat.row(0))),
                  "w": certs.matrix_payload(PolyMatrix(ctx, 1, 2, m.inv.col(0)))},
        "complex": certs.complex_payload(hollow_triangle()),
    }


CLEAN_FILES = _clean_files()


def _verbs(kind: str, path: str, tmp: str) -> list:
    """The CLI calls that read a file of this kind."""
    out = os.path.join(tmp, "out")
    return {
        "ring": [["ring", "nf", "--ring", path, "--expr", "x0*x1*x2 + x0 + 1"]],
        "matrix": [["extend", "--module", path, "--out", out]],
        "glmatrix": [["gl", "lift", "--sigma", path, "--to-ring", os.path.join(tmp, "free.ring"),
                      "--out", out]],
        "umrow": [["umrow", "lift", "--row", path, "--out", out]],
        "complex": [["complex", "faces", "--complex", path],
                    ["square", "check", "--complex", path, "--degree", "2"]],
        "cert": [["verify", "--cert", path]],
    }[kind]


@st.composite
def garbled_files(draw):
    """(kind, file text): a clean file garbled at one to three characters of
    its text or at one JSON value."""
    data = draw(st.data())
    kind = data.draw(st.sampled_from(sorted(CLEAN_FILES)), label="kind")
    if data.draw(st.booleans(), label="garble the text, not a value"):
        text = garbled(data, json.dumps(CLEAN_FILES[kind]), FILE_CHARS)
    else:
        text = json.dumps(garbled_payload(data, CLEAN_FILES[kind], max_nesting=300))
    return kind, f"{HEADER} {kind}\n{text}\n"


def _certificate(root: dict) -> str:
    cert = {"format": "srpb-cert", "version": 1, "profile": {}, "obligations": [], "root": root}
    return f"{HEADER} cert\n{json.dumps(cert)}\n"


def _patch_root(rank) -> dict:
    """The root of ``srpb patch``'s certificate over the hollow triangle, with its rank replaced."""
    sq = build_fiber_square(QQ, hollow_triangle())
    sigma = GLMat.elementary(sq.a0, 2, 0, 1, sq.a0.context.variable(1))
    module = milnor_patch(sq, 2, sigma)
    u = whitehead_lift(sigma, sq.j2, sq.section)
    return dict(certs.patch_node(sq, 2, sigma, u, module.matrix, {})["root"], rank=rank)


# files whose stated counts cost time and memory in proportion at the parser or verifier:
# a 2000 x 0 matrix with its 0 x 2000 "inverse" (products 2000 x 2000), a patch of rank
# 2000 (identities 2000 x 2000), a ring of 10^7 variables, and two points among 4000
# (or 2^62) vertices or a vertex numbered 2^62
FREE_ONE = {"field": "Q", "vars": 1, "ideal": []}
GL_LIFT_2000 = _certificate({"kind": "gl-lift", "discharged": True, "ring": FREE_ONE,
                             "target_ring": FREE_ONE, "sigma": WIDE_PAIR,
                             "delta": WIDE_PAIR})
PATCH_RANK_2000 = _certificate(_patch_root(2000))
RING_10M_VARS = f"{HEADER} ring\n" + json.dumps({"field": "Q", "vars": 10_000_000, "ideal": []})
POINTS_AMONG_4000 = f"{HEADER} complex\n" + json.dumps({"ambient": 4000, "facets": [[0], [1]]})
POINTS_AMONG_2_62 = f"{HEADER} complex\n" + json.dumps({"ambient": 2 ** 62, "facets": [[0], [1]]})
VERTEX_2_62 = f"{HEADER} complex\n" + json.dumps({"ambient": 3, "facets": [[0], [2 ** 62]]})


@settings(FUZZ, max_examples=150)
@given(case=garbled_files())
@example(case=("ring", RING_10M_VARS))
@example(case=("cert", GL_LIFT_2000))
@example(case=("cert", PATCH_RANK_2000))
@example(case=("complex", POINTS_AMONG_4000))
@example(case=("complex", POINTS_AMONG_2_62))
@example(case=("complex", VERTEX_2_62))
def test_file_verbs_exit_cleanly_on_garbled_files(case):
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"garbled.{kind}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(tmp, "free.ring"), "w", encoding="utf-8") as fh:
            fh.write(f"{HEADER} ring\n" + json.dumps({"field": "Q", "vars": 2, "ideal": []}))
        for args in _verbs(kind, path, tmp):
            start = time.perf_counter()
            run_cli(args)
            assert time.perf_counter() - start < CASE_SECONDS, args
