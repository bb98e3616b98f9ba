"""Property tests of the verifier boundary.

Real certificates are garbled at one site: a value of another JSON type, a
missing or extra key or element, a subtree copied to the wrong place, a value
wrapped in deep nesting, or one changed character of a text value (a single
coefficient, variable or operator of a polynomial entry).  ``verify_payload``
must return a report without raising, and ``srpb verify`` must exit with 0-3
without printing a traceback.  The same holds for the text arguments
``--expr``, ``--target`` and ``--field`` of the other verbs.
"""

import contextlib
import copy
import functools
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from srpb import verify_payload  # noqa: E402
from srpb.certs import HEADER  # noqa: E402
from srpb.cli import main  # noqa: E402
from test_verifier import _get, _value_paths, corpus_certificates  # noqa: E402

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
    cert = copy.deepcopy(cert)
    paths = list(_value_paths(cert))
    how = data.draw(st.sampled_from(GARBLES), label="garble")
    if how == "character":
        paths = [p for p in paths if isinstance(_get(cert, p), str) and _get(cert, p)]
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
