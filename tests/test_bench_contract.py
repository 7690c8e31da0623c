"""The benchmark's tracer (bench/spans.py) wraps functions by name from
outside the package; every name it lists must stay a public attribute of its
module, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.is_file():
        pytest.skip("bench/spans.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(spans):
    for mod_name, fn_names in spans.TRACED.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_cached_delta_reports_misses(spans):
    kernel = importlib.import_module(f"{spans.PACKAGE}.kernel")
    assert "delta_effective" in spans.TRACED["kernel"]
    assert kernel.delta_effective.cache_info().misses >= 0
