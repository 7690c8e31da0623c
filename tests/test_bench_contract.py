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


def test_work_extractors_read_real_results(spans):
    # each extractor of spans.WORK on a real result of the function it wraps
    from dunkl_dihedral import kernel, series
    from dunkl_dihedral.dihedral import make_group, orbit_pairings
    from dunkl_dihedral.polyalg import ParameterK

    G, P, x, y = make_group(3), ParameterK(0.5, 3), (0.6, 0.2), (0.3, -0.5)
    series_sum = kernel.ek_series(G, P, x, y, 1e-10)
    integral = kernel.ek_integral(G, P, x, y, 1e-8)
    expected = {
        "series.a_coeffs": (series.a_coeffs(P, orbit_pairings(G, x, y), 17), 17),
        "kernel.ek_series": (series_sum, series_sum.terms_used),
        "kernel.ek_integral": (integral, integral.nodes_used),
    }
    assert set(spans.WORK) == set(expected)
    for name, (_, extract) in spans.WORK.items():
        result, work = expected[name]
        assert work > 0 and extract(result) == work, name
