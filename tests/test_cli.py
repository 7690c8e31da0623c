import io
import json
import math

import numpy as np
import pytest

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


@pytest.mark.parametrize("method", ["recurrence", "genseries", "oracle", "sigma"])
def test_route_tables_are_prefix_consistent(method):
    # mirror-axis x and complex y, so every route applies
    G, P = make_group(5), ParameterK(0.35 - 0.15j, 5)
    x, y = (0.9, 0.0), np.array([0.5 + 0.1j, 0.8 - 0.2j])
    full = _em_values(method, G, P, x, y, 24)
    assert full.shape == (25,)
    for m in (0, 1, 7, 23):
        np.testing.assert_array_equal(full[: m + 1], _em_values(method, G, P, x, y, m))
