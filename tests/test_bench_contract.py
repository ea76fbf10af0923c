"""The module contract that the benchmark's tracer (bench/tracer.py) relies on.

The tracer wraps the spans of ``NAMED_SPANS`` by attribute path and every
other metric span as a public function of its own module: a function defined
there and listed in its ``__all__`` (in a module without one, any name with no
leading underscore).  A name imported from another module is not traced under
the importing module's span, and ``Tracer.metrics()`` then raises
``KeyError``.  These tests read the tracer's tables and change nothing, so a
rename fails here instead of in a benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _andt(name):
    return importlib.import_module(f"andt.{name}")


def test_every_all_name_resolves(tracer):
    for name in tracer.MODULES:
        module = _andt(name)
        missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
        assert not missing, (name, missing)


def test_every_named_span_resolves(tracer):
    for span, (name, path) in tracer.NAMED_SPANS.items():
        assert callable(tracer._resolve(_andt(name), path)), span


def test_every_other_metric_span_is_a_public_function_of_its_module(tracer):
    spans = [span for span, _ in tracer._METRICS if span not in tracer.NAMED_SPANS]
    assert spans
    for span in spans:
        name, attr = span.split(".")
        # what the tracer wraps: functions defined in the module and public
        assert attr in dict(tracer._public_functions(_andt(name))), span
