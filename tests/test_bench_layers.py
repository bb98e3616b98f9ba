"""Every layer the benchmark tracer wraps still exists in srpb.

``bench/tracing.py`` wraps srpb functions and methods by name, so a deleted
or renamed one would break traced benchmark runs; this reads its ``LAYERS``
table without changing anything under ``bench/``.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = load_layers()
    assert layers
    for name, (modname, clsname, attr) in layers.items():
        module = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(module, attr, None)), name
        else:
            # the tracer replaces the attribute in the class's own namespace
            assert attr in getattr(module, clsname).__dict__, name
