import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_dihedral.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONVERGENCE_ERROR,
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    _em_values,
    main,
)
from dunkl_dihedral.dihedral import make_group
from dunkl_dihedral.polyalg import ParameterK


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_em_table_shape_and_values():
    code, out = run_cli(
        ["em", "--n", "3", "--k", "0.5", "--x", "1,0", "--y", "1,1", "--m-max", "5"]
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["m", "re", "im"]
    assert len(rows) == 6
    assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 0.0
    # E_1 = <x,y> / (1 + gamma) = 1 / 2.5
    assert float(rows[1][1]) == pytest.approx(0.4, rel=1e-15)
    # 17 significant digits requested
    assert rows[3][1] == "0.038095238095238099"


def test_em_x_zero_rows_vanish():
    code, out = run_cli(
        ["em", "--n", "4", "--k", "0.3", "--x", "0,0", "--y", "1,2", "--m-max", "4"]
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert all(float(r[1]) == 0 and float(r[2]) == 0 for r in rows[1:])


def test_em_methods_agree():
    base = ["--n", "5", "--k", "0.4,0.2", "--x", "0.9,-0.3", "--y", "0.5,0.8", "--m-max", "12"]
    _, out_rec = run_cli(["em", *base, "--method", "recurrence"])
    _, out_gen = run_cli(["em", *base, "--method", "genseries"])
    _, out_orc = run_cli(["em", *base, "--method", "oracle"])
    for other in (out_gen, out_orc):
        rows_a = parse_csv(out_rec)[1]
        rows_b = parse_csv(other)[1]
        for ra, rb in zip(rows_a, rows_b):
            va = complex(float(ra[1]), float(ra[2]))
            vb = complex(float(rb[1]), float(rb[2]))
            assert abs(va - vb) <= 1e-9 * max(1.0, abs(va))


def test_em_sigma_method_requires_mirror_axis():
    code, _ = run_cli(
        ["em", "--n", "3", "--k", "0.5", "--x", "1,0.5", "--y", "1,1", "--method", "sigma"]
    )
    assert code == EXIT_DOMAIN_ERROR


def test_kernel_x_zero_is_one():
    code, out = run_cli(["kernel", "--n", "3", "--k", "0.5", "--x", "0,0", "--y", "1,1"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert float(rows[0][0]) == 1.0 and float(rows[0][1]) == 0.0


def test_kernel_k_zero_shortcut():
    code, out = run_cli(["kernel", "--n", "2", "--k", "0", "--x", "1,0", "--y", "0.5,0.25"])
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == pytest.approx(math.exp(0.5), rel=1e-15)
    assert rows[0][2] == "exp-shortcut"


def test_kernel_integral_matches_series():
    base = ["--n", "3", "--k", "1.0", "--x", "0.6,0.2", "--y", "0.5,0.1"]
    _, out_s = run_cli(["kernel", *base, "--tol", "1e-10"])
    _, out_i = run_cli(["kernel", *base, "--method", "integral", "--tol", "1e-8"])
    vs = float(parse_csv(out_s)[1][0][0])
    vi = float(parse_csv(out_i)[1][0][0])
    assert abs(vs - vi) <= 1e-6 * max(1.0, abs(vs))


def test_kernel_integral_domain_error():
    code, _ = run_cli(
        ["kernel", "--n", "3", "--k", "-0.1", "--x", "1,0", "--y", "1,1", "--method", "integral"]
    )
    assert code == EXIT_DOMAIN_ERROR


def test_crosscheck_deterministic_and_passing():
    argv = ["crosscheck", "--seed", "7", "--samples", "20", "--tol", "1e-8"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical
    header, rows = parse_csv(out1)
    assert rows[-1][0] == "overall"
    assert float(rows[-1][4]) <= 1e-8


def test_crosscheck_single_instance_echo():
    code, out = run_cli(
        [
            "crosscheck",
            "--n", "2", "--k", "0.5", "--x", "1,0", "--y", "1,1",
            "--seed", "0", "--m-max", "3",
        ]
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["method", "m", "re", "im"]
    methods = {r[0] for r in rows}
    assert methods == {"recurrence", "genseries", "oracle", "sigma"}  # x on mirror axis


def test_crosscheck_measure_scales_near_vanishing_components():
    # A mirror-axis sample with <x,y> near 1e-3 a: its odd components nearly
    # vanish, and the routes agree only relative to a^m / |(1+gamma)_m|.
    code, out = run_cli(["crosscheck", "--seed", "455284181", "--samples", "5", "--m-max", "12"])
    assert code == EXIT_OK
    assert float(parse_csv(out)[1][-1][4]) <= 1e-8


def test_crosscheck_check_failure_exit():
    code, _ = run_cli(["crosscheck", "--seed", "7", "--samples", "10", "--tol", "1e-18"])
    assert code == EXIT_CHECK_FAILURE


def test_bounds_exit_ok():
    code, out = run_cli(
        ["bounds", "--n", "4", "--k", "-0.2", "--x", "1,0", "--y", "0.5,0.7",
         "--m-max", "60", "--nu", "1"]
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert all(r[3] == "1" for r in rows)


def test_phi_rows():
    code, out = run_cli(
        ["phi", "--n", "2", "--k", "0.5", "--x", "1,0", "--y", "1,1", "--pmax", "6"]
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(4.0)  # 2n/gamma = 4/1
    assert abs(float(rows[1][1])) <= 1e-12  # forced zero
    # mirror-axis instance: coefficients follow (2/k)(1 - z^2)^(-k)
    assert float(rows[2][1]) == pytest.approx(2.0, rel=1e-12)
    assert float(rows[4][1]) == pytest.approx(1.5, rel=1e-12)


def test_json_schema():
    code, out = run_cli(
        ["em", "--n", "2", "--k", "0.5", "--x", "1,0", "--y", "1,1",
         "--m-max", "2", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"meta", "rows"}
    assert payload["meta"]["n"] == 2
    assert payload["meta"]["k_re"] == 0.5 and payload["meta"]["k_im"] == 0.0
    assert payload["rows"][0] == {"m": 0, "re": 1.0, "im": 0.0}


def test_domain_error_exit_code():
    # 2*gamma = -3: inadmissible parameter
    code, _ = run_cli(["em", "--n", "3", "--k", "-0.5", "--x", "1,0", "--y", "1,1"])
    assert code == EXIT_DOMAIN_ERROR


def test_convergence_error_exit_code():
    # enormous arguments: certification cannot close within the term cap
    code, _ = run_cli(["kernel", "--n", "2", "--k", "0.55", "--x", "40,0", "--y", "40,0"])
    assert code == EXIT_CONVERGENCE_ERROR


def test_complex_y_parsing():
    code, out = run_cli(
        ["em", "--n", "2", "--k", "0.5", "--x", "1,0", "--y", "1,0,0,1", "--m-max", "1"]
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    # y = (1+0j, 0+1j): E_1 = <x,y>/(1+gamma) = (1)/(2) = 0.5
    assert float(rows[1][1]) == pytest.approx(0.5)


def test_complex_x_rejected():
    code, _ = run_cli(
        ["em", "--n", "2", "--k", "0.5", "--x", "1,0,1,0", "--y", "1,0", "--m-max", "1"]
    )
    assert code == EXIT_DOMAIN_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["em", "--n", "3", "--k", "0.5", "--x=abc,1", "--y", "1,1"],
        ["em", "--n", "3", "--k", "0.5", "--x", "1,0", "--y", "1,1,x,0"],
        ["kernel", "--n", "3", "--k", "x", "--x", "1,0", "--y", "1,1"],
        ["kernel", "--n", "3", "--k", "nan", "--x", "1,0", "--y", "1,1"],
        ["kernel", "--n", "3", "--k", "0.5,inf", "--x", "1,0", "--y", "1,1"],
        ["em", "--n", "3", "--k", "inf", "--x", "1,0", "--y", "1,1"],
        ["kernel", "--n", "3", "--k", "0.5", "--x", "1,0", "--y", "1,1", "--tol", "nan"],
        ["kernel", "--n", "3", "--k", "0.5", "--x", "1,0", "--y", "1,1", "--tol", "inf",
         "--method", "integral"],
        ["bounds", "--n", "3", "--k", "0.5", "--x", "0,0", "--y", "1,1", "--m-max", "-1"],
        ["crosscheck", "--seed", "-1", "--samples", "2"],
        ["crosscheck", "--seed", "1", "--samples", "2", "--x", "1,0"],
        ["crosscheck", "--seed", "1", "--samples", "-3"],
    ],
)
def test_malformed_input_is_a_domain_error(argv, capsys):
    assert run_cli(argv)[0] == EXIT_DOMAIN_ERROR
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_crosscheck_rejects_bad_tol(tol, capsys):
    code, out = run_cli(["crosscheck", "--seed", "7", "--samples", "3", f"--tol={tol}"])
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("method", ["recurrence", "genseries", "oracle", "sigma"])
def test_degree_past_double_range_is_a_range_error(method, capsys):
    # (1+gamma)_m and m! overflow a double near m = 170
    code, out = run_cli(
        ["em", "--n", "3", "--k", "0.5", "--x", "0.9,0", "--y", "0.5,0.8",
         "--m-max", "190", "--method", method]
    )
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert capsys.readouterr().err.startswith("error[range-error]")


def test_bounds_without_components_is_a_vacuous_pass():
    code, out = run_cli(
        ["bounds", "--n", "3", "--k", "0.5", "--x", "1,0", "--y", "1,1", "--m-max", "0"]
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert rows[0] == ["component_bound_max_ratio", "0", "1.0000000010000001", "1"]


def test_bounds_with_underflowing_component_bound_passes():
    # a = 1e-160: from m = 2 on, the bound e^2/2 (m+2)^2 (delta a)^m / |(1+gamma)_m|
    # and |E_m| both underflow to 0, which is no violation
    code, out = run_cli(
        ["bounds", "--n", "3", "--k", "0.5", "--x", "1e-160,0", "--y", "1,0", "--m-max", "3"]
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    ratio = float(rows[0][1])
    assert rows[0][0] == "component_bound_max_ratio" and rows[0][3] == "1"
    assert math.isfinite(ratio) and ratio <= 1.0


@pytest.mark.parametrize("k", ["0", "-0.25"])
@pytest.mark.parametrize("method", ["recurrence", "genseries", "oracle", "sigma"])
def test_inadmissible_k_is_rejected_at_degree_zero(method, k):
    # n = 2: k = 0 gives gamma = 0 and k = -1/4 gives 2 gamma = -1
    code, out = run_cli(
        ["em", "--n", "2", f"--k={k}", "--x", "1,0", "--y", "0.5,0.5", "--m-max", "0",
         "--method", method]
    )
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""


def test_unsettled_contour_is_a_convergence_error_in_bounded_memory():
    # The doubling passes never settle here and reach 8192 contour nodes;
    # a whole times x nodes matrix would exceed the address-space limit.
    limit = 3 << 30
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_dihedral", "kernel", "--n", "7", "--k", "2.0",
         "--x", "0.3,0.9", "--y", "1.2,0.1", "--method", "integral", "--tol", "1e-8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=300,
    )
    assert proc.returncode == EXIT_CONVERGENCE_ERROR
    assert proc.stdout == ""
    assert proc.stderr.startswith("error[convergence-error]: ")
    assert "8192 contour nodes" in proc.stderr
    assert "Traceback" not in proc.stderr


# Fuzzed argument lists: numbers in a bounded domain, with at most one of
# --k, --x, --y, --tol replaced by non-finite or malformed text.  Huge |k|
# stays out: delta_effective's scan grows with |k|.
_REAL = st.floats(-3.0, 3.0).map(repr)
_COORDS = st.floats(-4.0, 4.0).map(repr)
_FIELDS = {
    "--k": st.one_of(_REAL, st.tuples(_REAL, _REAL).map(",".join)),
    "--x": st.lists(_COORDS, min_size=2, max_size=2).map(",".join),
    "--y": st.one_of(st.lists(_COORDS, min_size=2, max_size=2), st.lists(_COORDS, min_size=4, max_size=4)).map(",".join),
    "--tol": st.sampled_from(["1e-10", "1e-8", "1e-3", "0", "-1"]),
}
_BAD = st.sampled_from(["nan", "inf", "-inf", "", "x", "1e", "1,,2", "0x1"])
_DEGREE = st.integers(-2, 30).map(str)


def _instance(n):
    def argv(fields, bad_field, bad_text):
        return ["--n", str(n)] + [
            f"{name}={bad_text if name == bad_field else value}" for name, value in fields.items()
        ]

    # about half the lists keep every field well-formed
    bad_field = st.sampled_from([*_FIELDS, None, None, None, None])
    return st.builds(argv, st.fixed_dictionaries(_FIELDS), bad_field, _BAD)


_ARGV = st.integers(-2, 12).flatmap(
    lambda n: st.one_of(
        st.tuples(st.just(("em",)), _instance(n), st.tuples(
            st.just("--m-max"), _DEGREE, st.just("--method"),
            st.sampled_from(["recurrence", "genseries", "oracle", "sigma"]))),
        st.tuples(st.just(("kernel", "--method", "series")), _instance(n)),
        st.tuples(st.just(("bounds",)), _instance(n), st.tuples(
            st.just("--m-max"), _DEGREE, st.just("--nu"), st.integers(-1, 3).map(str))),
        st.tuples(st.just(("phi",)), _instance(n), st.tuples(st.just("--pmax"), _DEGREE)),
        st.tuples(st.just(("crosscheck",)), st.one_of(st.just(()), _instance(n)), st.tuples(
            st.just("--seed"), st.integers(-2, 99).map(str), st.just("--samples"),
            st.integers(0, 2).map(str), st.just("--m-max"), _DEGREE)),
    )
).map(lambda parts: [a for part in parts for a in part])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ARGV)
def test_fuzzed_arguments_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:  # argparse rejected the argument list
            code = exc.code
    assert code in (EXIT_OK, EXIT_CHECK_FAILURE, EXIT_DOMAIN_ERROR, EXIT_CONVERGENCE_ERROR)
    if code in (EXIT_DOMAIN_ERROR, EXIT_CONVERGENCE_ERROR):
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("method", ["recurrence", "genseries", "oracle", "sigma"])
def test_route_tables_are_prefix_consistent(method):
    # mirror-axis x and complex y, so every route applies
    G, P = make_group(5), ParameterK(0.35 - 0.15j, 5)
    x, y = (0.9, 0.0), np.array([0.5 + 0.1j, 0.8 - 0.2j])
    full = _em_values(method, G, P, x, y, 24)
    assert full.shape == (25,)
    for m in (0, 1, 7, 23):
        np.testing.assert_array_equal(full[: m + 1], _em_values(method, G, P, x, y, m))
