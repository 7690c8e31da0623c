import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_dihedral.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONVERGENCE_ERROR,
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    _em_values,
    _parse_complex,
    main,
)
from dunkl_dihedral import cli, kernel, polyalg
from dunkl_dihedral.dihedral import make_group, orbit_pairings
from dunkl_dihedral.errors import ConvergenceError, DomainError
from dunkl_dihedral.polyalg import ParameterK
from dunkl_dihedral.sampling import draw_instance


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


@pytest.mark.parametrize(
    "argv",
    [
        "em --n 5 --k=0.35,-0.15 --x 0.9,0 --y 0.5,0.8,0.1,-0.2 --m-max 12 --method sigma",
        "em --n 3 --k 0.5 --x 1,0.2 --y 1,1 --m-max 60 --method oracle",
        "kernel --n 3 --k 0.5 --x 1,0.2 --y 1,1",
        "kernel --n 3 --k 0.5 --x 1,0.2 --y 1,1 --method integral --tol 1e-8",
        "kernel --n 3 --k 0 --x 1,0.2 --y 1,1",
        "crosscheck --seed 3 --samples 6",
        "crosscheck --seed 0 --n 4 --k 0.3 --x 0.7,0 --y 0.2,0.9 --m-max 4",
        "bounds --n 4 --k 0.3 --x 0.7,0.1 --y 0.2,0.9 --m-max 8",
        "phi --n 3 --k=0.2,0.1 --x 1,0 --y 0.4,0.3 --pmax 15",
    ],
)
def test_csv_output_is_what_csv_writer_writes(argv, monkeypatch):
    # _emit formats the cells by the command's format lines; csv.writer,
    # given the same header and rows, must write the same bytes
    emitted = []

    def spy(args, header, rows, out, line):
        emitted.append((header, rows))
        emit(args, header, rows, out, line)

    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", spy)
    code, out = run_cli(argv.split())
    assert code == EXIT_OK and len(emitted) == 1
    header, rows = emitted[0]
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    assert out.encode() == ref.getvalue().encode()


def test_emit_formats_every_row_shape_as_the_cell_join():
    # a format line of "%.17g" for float cells (numpy floats included), "%d"
    # for int cells and "%s" for any other must write what the per-cell
    # f"{v:.17g}" / str join writes, for every shape the subcommands print,
    # whether one line serves the whole table or each row has its own
    em, sweep = "%d,%.17g,%.17g\n", "%d,%d,%.17g,%.17g,%.17g,%d\n"
    table = [
        ((0, 1.0, -0.0), em),
        ((1, 0.1 + 0.2, 1e-310), em),
        ([2, np.float64(2.5), np.float64(-1 / 3)], em),
        ([3, float("inf"), float("-inf")], em),
        ([4, float("nan"), np.float64("nan")], em),
        ([np.int64(5), 1e300, 5e-324], em),
        (["series-sum", 12, "", 1.2345678901234567e-17], "%s,%s,%s,%.17g\n"),
        (["integral", "", 64, 3.0], "%s,%s,%s,%.17g\n"),
        (["recurrence", 0, 1.0, 0.0], "%s,%d,%.17g,%.17g\n"),
        (["component_bound_max_ratio", 0.009, 1.0000000010000001, 1], "%s,%.17g,%.17g,%d\n"),
        ([0, 5, 0.73905789536758504, 0.018390673250570422, 1.9e-15, 0], sweep),
        (["overall", "", "", "", 1.9781185538553472e-15, ""], "%s,%s,%s,%s,%.17g,%s\n"),
        ([1, np.float64(7.0), 2.0], "%d,%.17g,%.17g\n"),
    ]
    header = ["a", "b"]

    def joined(rows):
        cells = ([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row] for row in rows)
        return "".join(",".join(line) + "\n" for line in [header, *cells])

    args = argparse.Namespace(fmt="csv")
    for part in ([], table, table[::-1]):
        out = io.StringIO()
        cli._emit(args, header, [row for row, _ in part], out, [line for _, line in part])
        assert out.getvalue() == joined(row for row, _ in part)
    for rows in ([], [row for row, line in table if line == em]):
        out = io.StringIO()
        cli._emit(args, header, rows, out, em)
        assert out.getvalue() == joined(rows)


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
        ["kernel", "--n", "3", "--k", "0.5", "--x=1,0,nan,0", "--y", "0.3,0.4"],
        ["kernel", "--n", "3", "--k", "0.5", "--x=1,0,inf,0", "--y", "0.3,0.4"],
        ["kernel", "--n", "3", "--k", "x", "--x", "1,0", "--y", "1,1"],
        ["kernel", "--n", "3", "--k", "nan", "--x", "1,0", "--y", "1,1"],
        ["kernel", "--n", "3", "--k", "0.5,inf", "--x", "1,0", "--y", "1,1"],
        ["em", "--n", "3", "--k", "inf", "--x", "1,0", "--y", "1,1"],
        ["em", "--n", "7", "--k", "1e308", "--x", "1,0", "--y", "1,1"],
        ["em", "--n", "3", "--k", "0,1e308", "--x", "1,0", "--y", "1,1"],
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


@pytest.mark.parametrize("method", ["genseries", "oracle", "sigma"])
def test_degree_past_double_range_is_a_range_error(method, capsys):
    # (1+gamma)_m and m! overflow a double near m = 170; the recurrence forms
    # neither (test_reference_pins pins it at this degree)
    code, out = run_cli(
        ["em", "--n", "3", "--k", "0.5", "--x", "0.9,0", "--y", "0.5,0.8",
         "--m-max", "190", "--method", method]
    )
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert capsys.readouterr().err.startswith("error[range-error]")


@pytest.mark.parametrize(
    "argv",
    [
        ["em", "--method", "recurrence", "--m-max", "501"],
        ["em", "--method", "genseries", "--m-max", "10000000000"],
        ["em", "--method", "oracle", "--m-max", "10000000000"],
        ["em", "--method", "sigma", "--m-max", "10000000000"],
        ["bounds", "--m-max", "10000000000"],
        ["phi", "--pmax", "10000000000"],
    ],
)
def test_degree_above_the_cap_is_a_range_error(argv, capsys):
    # rejected before any table of that length is allocated
    code, out = run_cli([*argv, "--n", "3", "--k", "0.5", "--x", "0.9,0", "--y", "0.5,0.8"])
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert capsys.readouterr().err.startswith("error[range-error]: degree")


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
    # Im(gamma) = 5000 against Re(gamma) = 2: the weight e^(gamma v) turns
    # about 800 times per unit of v = log s, too fast for the panels, so the
    # doubling passes never settle and reach 8192 contour nodes, while
    # 1/rho = 1.43 keeps the rounding floor far below the tolerance.  The
    # radius stays below 1, so the panels cover [log rho, 0], 0.36 wide.
    # The last pass takes 2048 panel times (one panel, 128 splits of 16
    # points) against 4097 exponentiated nodes: a 2048 x 4097 matrix (134 MB),
    # built in blocks of at most 2^22 entries.
    limit = 3 << 30
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_dihedral", "kernel", "--n", "3", "--k=0.66667,1666.7",
         "--x", "4e-4,0", "--y", "0.5,0.3", "--method", "integral", "--tol", "1e-8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=300,
    )
    assert proc.returncode == EXIT_CONVERGENCE_ERROR
    assert proc.stdout == ""
    assert proc.stderr.startswith("error[convergence-error]: ")
    assert "8192 contour nodes" in proc.stderr and "radius 0.700" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("x", ["1e-10,0", "1e-9,0"])
def test_integral_whose_time_weights_all_underflow_is_refused(x, capsys):
    # gamma = 2e20 and rho < 1: s0^gamma and e^(gamma v) at every panel node
    # underflow to 0, so every sum of the pass is 0, where the kernel is 1
    argv = ["kernel", "--n", "2", "--k", "1e20", f"--x={x}", f"--y={x}"]
    code, out = run_cli([*argv, "--method", "integral"])
    err = capsys.readouterr().err
    assert code == EXIT_CONVERGENCE_ERROR and out == ""
    assert err.startswith("error[convergence-error]: every time weight of the contour pass")
    assert "underflows to 0" in err and err.rstrip().endswith("use the series route")
    code, out = run_cli([*argv, "--method", "series"])
    assert code == EXIT_OK and float(parse_csv(out)[1][0][0]) == 1.0


def test_integral_at_a_radius_past_one_takes_the_endpoint_series_alone():
    # gamma = 2e20 and rho >= 1: s0 = 1, so s0^gamma = 1 and no panel is laid
    code, out = run_cli(
        ["kernel", "--n", "2", "--k", "1e20", "--x=4.5e-11,0", "--y=4.5e-11,0",
         "--method", "integral"]
    )
    assert code == EXIT_OK
    row = parse_csv(out)[1][0]
    assert abs(float(row[0]) - 1.0) <= float(row[5]) <= 1e-15


@pytest.mark.parametrize(
    "argv, expected",
    [
        # huge |k|: delta_effective is read in closed form, not scanned
        ("bounds --n 3 --k 1e300 --x 1,0 --y 1,1", EXIT_CONVERGENCE_ERROR),
        ("kernel --method integral --n 3 --k 1e300 --x 1,0 --y 1,1", EXIT_DOMAIN_ERROR),
        ("bounds --n 3 --k 1e6 --x 1,0 --y 1,1", EXIT_CONVERGENCE_ERROR),
        ("kernel --method integral --n 3 --k 1e6 --x 1,0 --y 1,1", EXIT_CONVERGENCE_ERROR),
        ("bounds --n 3 --k=-0.1,1e200 --x 1,0 --y 1,1", EXIT_CONVERGENCE_ERROR),
        # delta * a past the double range
        ("bounds --n 4 --k=2.6,-1.08e307 --x=-2.7,1.25 --y=0.59,-3.8", EXIT_CONVERGENCE_ERROR),
        # an orbit bound so large that the contour radius underflows
        ("kernel --method integral --n 2 --k 1 --x=1e154,0 --y=1e154,0", EXIT_CONVERGENCE_ERROR),
        # 2 gamma past the double range
        ("em --n 2 --k 8.5e307 --x 1,0 --y 1,1", EXIT_DOMAIN_ERROR),
        ("kernel --n 2 --k 8.5e307 --x 1,0 --y 1,1", EXIT_DOMAIN_ERROR),
        ("em --n 9 --k=-1e+307 --x 1,0 --y 1,1", EXIT_DOMAIN_ERROR),
        ("em --n 2 --k 4e307,4e307 --x 1,0 --y 1,1", EXIT_DOMAIN_ERROR),
        # series coefficients past the double range
        ("phi --n 3 --k 1 --x 10,0 --y 10,0 --pmax 400", EXIT_DOMAIN_ERROR),
        ("phi --n 2 --k=0,-1e21 --x=0,2 --y=0,4 --pmax 30", EXIT_DOMAIN_ERROR),
        # an overflowing contour pass: gamma^2/2n = 1e300 against a = 4e-146
        ("kernel --method integral --n 2 --k 1e150 --x=2e-73,0 --y=2e-73,0",
         EXIT_CONVERGENCE_ERROR),
        # a contour pass that does not settle within 8192 nodes (gamma = 300)
        ("kernel --method integral --n 3 --k 100 --x 1,0 --y 1,1", EXIT_CONVERGENCE_ERROR),
        # -2 Re(gamma) above the degree limit: refused before any delta sum
        ("bounds --n 3 --k=-100000.1234,0.01 --nu 1000000 --x 1,0 --y 1,1",
         EXIT_CONVERGENCE_ERROR),
    ],
)
def test_out_of_range_parameters_exit_with_a_documented_code(argv, expected, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        code, out = run_cli(argv.split())
        elapsed = time.perf_counter() - start
    assert code == expected
    assert out == ""
    assert "Traceback" not in capsys.readouterr().err
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "argv",
    [
        # orbit pairings past the double range
        "em --method oracle --n 3 --k 0.5 --x 1e200,0 --y 1e200,1 --m-max 3",
        "em --method sigma --n 3 --k 0.5 --x 1e200,0 --y 1e200,1 --m-max 3",
        "kernel --n 3 --k 0 --x 1e200,0 --y 1e200,1",
        "kernel --n 3 --k 0.5 --x 1e200,0 --y 1e200,1",
        # |gamma| past the oracle's limit, where its coefficients would
        # also overflow a double
        "em --method oracle --n 2 --k=1.0268823667399921e+267 --x=33.72040390433959,1.67252675195284 "
        "--y=1.174361252797369,-0.0007837292722312483 --m-max 3",
        # exp(<x,y>) of the k = 0 shortcut past the double range
        "kernel --n 3 --k 0 --x 40,0 --y 40,0",
    ],
)
def test_overflow_is_a_range_error(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(argv.split())
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert capsys.readouterr().err.startswith("error[range-error]: ")


@pytest.mark.parametrize(
    "argv",
    [
        "phi --n 3 --k 0.5 --x=1e15,0 --y=1e15,1 --pmax 20",
        "em --method genseries --n 3 --k 0.5 --x=1e15,0 --y=1e15,1 --m-max 20",
    ],
)
def test_series_coefficient_overflow_is_a_range_error(argv, capsys):
    # a_coeffs' own guard: the coefficients pass the double range by order 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(argv.split())
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert capsys.readouterr().err == (
        "error[range-error]: the series coefficients overflow double precision before order 20\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        "kernel --k 0.5 --x 1,0 --y 1,1",
        "kernel --method integral --k 0.5 --x 1,0 --y 1,1",
        "em --method oracle --k 0.5 --x 1,0 --y 1,1",
        "bounds --k 0.5 --x 1,0 --y 1,1",
        "phi --k 0.5 --x 1,0 --y 1,1",
        "crosscheck --seed 1 --k 0.5 --x 1,0 --y 1,1",
    ],
)
def test_order_above_the_limit_is_refused_before_any_allocation(argv, capsys):
    argv = [*argv.split(), "--n", str(10**12)]
    start = time.perf_counter()
    code, out = run_cli(argv)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        assert run_cli(argv)[0] == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    err = capsys.readouterr().err
    assert err == 2 * "error[range-error]: dihedral order n = 1000000000000 exceeds the limit 10000\n"
    assert elapsed < 0.05
    assert peak < 1 << 20


ORACLE_X, ORACLE_Y = (3.72040390433959, 1.67252675195284), (1.174361252797369, -0.5)
ORACLE_PAIR = "--x={},{} --y={},{}".format(*ORACLE_X, *ORACLE_Y)


@pytest.mark.parametrize("k", ["1e12", "1e20", "50.01", "-30,45"])
def test_oracle_past_its_gamma_limit_is_a_range_error(k, capsys):
    # the oracle's rounding grows with |gamma|: at k = 1e20 it printed E_1
    # with the wrong sign at exit 0
    code, out = run_cli(f"em --method oracle --n 2 --k={k} {ORACLE_PAIR} --m-max 3".split())
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert capsys.readouterr().err.startswith("error[range-error]: |gamma| = ")


@pytest.mark.parametrize("m_max", [500, 60])
def test_oracle_past_its_element_budget_is_a_range_error(m_max, capsys):
    # at M = 60 the build of the action matrices took 13.7 s and 899 MB;
    # the budget refuses it, and M = 500, before any matrix is built
    argv = f"em --method oracle --n 10000 --k 1e-4 --x 1,0.3 --y 0.5,0.4 --m-max {m_max}"
    start = time.perf_counter()
    code, out = run_cli(argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert capsys.readouterr().err == (
        f"error[range-error]: n (M+1)^2 = {10000 * (m_max + 1) ** 2} exceeds the oracle's "
        "element budget 4194304; reduce n or M\n"
    )


@pytest.mark.parametrize("k", ["49.99", "-35,35", "0,-49.99"])
def test_oracle_below_its_gamma_limit_agrees_with_the_recurrence(k):
    # Measure: |u_m - v_m| / max(|v_m|, a^m / |(1+gamma)_m|), as crosscheck's
    tables = []
    for method in ("oracle", "recurrence"):
        code, out = run_cli(f"em --method {method} --n 2 --k={k} {ORACLE_PAIR} --m-max 12".split())
        assert code == EXIT_OK
        tables.append(np.array([complex(float(r[1]), float(r[2])) for r in parse_csv(out)[1]]))
    u, v = tables
    P = ParameterK(_parse_complex(k), 2)
    a = orbit_pairings(make_group(2), ORACLE_X, ORACLE_Y).a_bound
    m = np.arange(13)
    scale = np.exp(m * math.log(a) - kernel._log_abs_pochhammer(P.gamma, 12))
    assert np.max(np.abs(u - v) / np.maximum(np.abs(v), scale)) <= 1e-8


def test_integral_at_a_vanishing_orbit_bound_is_exactly_one():
    # gamma^2 overflows the contour weights, but x = 0 makes the kernel 1
    code, out = run_cli("kernel --method integral --n 3 --k 1e200 --x 0,0 --y 1,1".split())
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0])) == {
        "value_re": "1", "value_im": "0", "method": "integral", "terms_used": "",
        "nodes_used": "0", "tail_estimate": "0",
    }


def test_integral_at_a_subnormal_orbit_bound_is_one():
    # a = 2e-320 and C = 4e6: the radius, 1/sqrt(C a) = 3.5e156, is taken
    # from sqrt(C) sqrt(a), so it keeps its precision where C a is subnormal,
    # and the single 64-node pass gives E_k = 1 + O(a)
    code, out = run_cli(
        "kernel --method integral --n 2 --k=1e6 --x=1e-160,1e-160 --y=1e-160,1e-160".split()
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["value_re"], row["value_im"], row["nodes_used"]) == ("1", "0", "64")
    assert float(row["tail_estimate"]) <= 1e-15


def test_integral_past_its_rounding_floor_exits_after_one_pass(monkeypatch):
    # a = 12.2 against C = 5.3 < 2a, so 1/rho = 2a: the contour integrand's
    # rounding, about 2^-53 e^(2a), exceeds the tolerance, so the first pass
    # refuses instead of doubling on.  The node floor 3e/rho = 6e a = 199
    # starts that pass at 256 nodes.
    passes, rule = [], kernel._contour_rule

    def counted_rule(*args):
        passes.append(args[-1])  # the pass's node count
        return rule(*args)

    monkeypatch.setattr(kernel, "_contour_rule", counted_rule)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(
            ["kernel", "--method", "integral", "--n", "3",
             "--k=0.010519366466382296,-0.8857667322455571",
             "--x=2.9243616335283944,1.069920419748926",
             "--y=1.8237056735941843,3.661510084132381"]
        )
    assert code == EXIT_CONVERGENCE_ERROR
    assert out == ""
    assert passes == [256]
    assert "rounding floor" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        "kernel --method integral --n 2 --k=0.9985557248802299,0.20299671524671492 "
        "--x=-3.7704879330244436,-2.8165913233803526 --y=3.425688183682956,-3.4366353907664253",
        "kernel --method integral --n 2 --k=0.06242269638315312,-0.5054654187628616 "
        "--x=-3.8304529460762415,2.4855267838405046 --y=-3.021841298861913,3.791760328956438",
    ],
)
def test_integral_started_at_the_node_floor_refuses_noise(argv, capsys):
    # 1/rho = 45.2 and 42.0: the node floor 3e/rho starts the first pass at
    # 512 nodes, which resolve e^(t/z), and its rounding floor (0.38 and
    # 26.9, against values of 1.9e6 and 3.9e8) refuses it there.
    code, out = run_cli(argv.split())
    assert code == EXIT_CONVERGENCE_ERROR
    assert out == ""
    err = capsys.readouterr().err
    assert "rounding floor" in err and "with 512 nodes" in err


def test_integral_floor_counts_the_endpoint_terms(capsys):
    # Re(gamma) = 0.055 and 1/rho = 23.9: with the body's chord floor alone
    # (1.0e-7 against tol |Q| = 2.1e-7), the first pass settles on a value
    # 1.6e-10 of |E_k| from mpmath at tol 1e-10.  The endpoint terms' floor
    # (3.3e-7 in all) refuses that pass instead.
    code, out = run_cli(
        ["kernel", "--method", "integral", "--n", "2", "--tol", "1e-10",
         "--k=0.027702685913728684,0.4706897043119077",
         "--x=-2.8863965003983,-1.4785143403472694", "--y=2.6628459013195576,-2.888695660892169"]
    )
    assert code == EXIT_CONVERGENCE_ERROR
    assert out == ""
    assert "rounding floor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "point",
    [
        ["--n", "7", "--k=1.1238159194109265", "--x=-0.7739131088176108,0.13900525869159575",
         "--y=-0.9035621655467843,-0.8421384252037463"],
        ["--n", "3", "--k=0.5050818596872082,-0.03396901839125991",
         "--x=1.2225424253631791,-1.6675875005706917", "--y=-1.1514209076578976,1.1037303254536468"],
    ],
)
def test_integral_rounding_floor_passes_a_value_correct_to_tol(point):
    # delta * a = 15.3 and 9.9: charging every contour node the circle's
    # maximum e^(t/rho) put the floor 1.2 and 6.1 times over the tolerance,
    # about 12 times the terms' magnitudes, and refused these settled values.
    code_i, out_i = run_cli(["kernel", "--method", "integral", *point])
    code_s, out_s = run_cli(["kernel", "--method", "series", *point])
    assert code_i == code_s == EXIT_OK
    vi, vs = (complex(*map(float, parse_csv(o)[1][0][:2])) for o in (out_i, out_s))
    assert abs(vi - vs) <= 1e-9 * max(1.0, abs(vs))


# Fuzzed argument lists: numbers in a bounded domain, with at most one of
# --k, --x, --y, --tol replaced by non-finite or malformed text; --tol only
# for kernel and crosscheck, the subcommands that take it.  The parts of --k
# and the coordinates also range over +-10^e up to the double range.
_REAL = st.floats(-3.0, 3.0).map(repr)
_HUGE = st.builds(
    lambda sign, e: repr(sign * 10.0**e), st.sampled_from([1.0, -1.0]), st.floats(-3.0, 308.0)
)
_PART = st.one_of(_REAL, _HUGE, st.just("0"))
_COORDS = st.one_of(st.floats(-4.0, 4.0).map(repr), _HUGE)
_FIELDS = {
    "--k": st.one_of(_PART, st.tuples(_PART, _PART).map(",".join)),
    "--x": st.lists(_COORDS, min_size=2, max_size=2).map(",".join),
    "--y": st.one_of(st.lists(_COORDS, min_size=2, max_size=2), st.lists(_COORDS, min_size=4, max_size=4)).map(",".join),
    "--tol": st.sampled_from(["1e-10", "1e-8", "1e-3", "0", "-1"]),
}
_BAD = st.sampled_from(["nan", "inf", "-inf", "", "x", "1e", "1,,2", "0x1"])
_DEGREE = st.one_of(st.integers(-2, 30), st.sampled_from([501, 10000000000])).map(str)


def _instance(n, tol=False):
    fields = _FIELDS if tol else {name: v for name, v in _FIELDS.items() if name != "--tol"}

    def argv(values, bad_field, bad_text):
        return ["--n", str(n)] + [
            f"{name}={bad_text if name == bad_field else value}" for name, value in values.items()
        ]

    # about half the lists keep every field well-formed
    bad_field = st.sampled_from([*fields, None, None, None, None])
    return st.builds(argv, st.fixed_dictionaries(fields), bad_field, _BAD)


_ARGV = st.integers(-2, 12).flatmap(
    lambda n: st.one_of(
        st.tuples(st.just(("em",)), _instance(n), st.tuples(
            st.just("--m-max"), _DEGREE, st.just("--method"),
            st.sampled_from(["recurrence", "genseries", "oracle", "sigma"]))),
        st.tuples(st.just(("kernel", "--method", "series")), _instance(n, tol=True)),
        st.tuples(st.just(("bounds",)), _instance(n), st.tuples(
            st.just("--m-max"), _DEGREE, st.just("--nu"), st.integers(-1, 3).map(str))),
        st.tuples(st.just(("phi",)), _instance(n), st.tuples(st.just("--pmax"), _DEGREE)),
        st.tuples(st.just(("crosscheck",)), st.one_of(st.just(()), _instance(n, tol=True)), st.tuples(
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


# Every command and method, on a fixed grid of argument magnitudes: |x| and
# |y| from 1e-170 to 1e170, so that the pairings run from underflow (a
# subnormal or zero orbit bound) to overflow, and k zero, tiny, ordinary,
# huge and negative.
_SWEEP_ROUTES = [
    *(["em", "--method", method, "--m-max", "12"]
      for method in ("recurrence", "genseries", "oracle", "sigma")),
    *(["kernel", "--method", method] for method in ("series", "integral")),
    ["bounds", "--m-max", "12"],
    ["phi", "--pmax", "12"],
    ["crosscheck", "--seed", "0", "--m-max", "12"],
]
_SWEEP_MAGNITUDES = [f"1e{e}" for e in (-170, -160, -155, -100, 0, 100, 155, 160, 170)]
_SWEEP_KS = ["0", "1e-300", "0.5", "1e6", "1e300", "-0.3", "-1e6,1"]


def test_argument_magnitude_sweep_exits_with_a_documented_code():
    # 11 340 commands, most of them refused at once: about 1 s on 2 vCPUs
    start, failures = time.perf_counter(), []
    grid = itertools.product((2, 3), _SWEEP_ROUTES, _SWEEP_MAGNITUDES, _SWEEP_MAGNITUDES, _SWEEP_KS)
    for n, (command, *options), s, t, k in grid:
        argv = [command, f"--n={n}", f"--k={k}", f"--x={s},{s}", f"--y={t},-{t}", *options]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv, out=out)
            except Exception as exc:  # what the entry point would print as a traceback
                code = repr(exc)
        if code not in (0, 1, 2, 3) or "Traceback" in err.getvalue():
            failures.append((" ".join(argv), code))
    assert failures == []
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("method", ["recurrence", "genseries", "oracle", "sigma"])
def test_route_tables_are_prefix_consistent(method):
    # mirror-axis x and complex y, so every route applies
    G, P = make_group(5), ParameterK(0.35 - 0.15j, 5)
    x, y = (0.9, 0.0), np.array([0.5 + 0.1j, 0.8 - 0.2j])
    full = _em_values(method, G, P, x, y, 24)
    assert full.shape == (25,)
    for m in (0, 1, 7, 23):
        np.testing.assert_array_equal(full[: m + 1], _em_values(method, G, P, x, y, m))


# Each subcommand's arguments are read by its own parser; _PARSER reads the
# rest.  Both paths must give the same namespace, exit code and output bytes.
_PAIR = ["--n", "3", "--k", "0.5", "--x", "1,0", "--y", "1,1"]


def _parsed_through(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = vars(parse(argv)), None
        except SystemExit as exc:
            args, code = None, exc.code
    if args is not None:
        args.pop("command", None)
    return args, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["em", *_PAIR, "--m-max", "4", "--method", "oracle"],
        ["kernel", *_PAIR, "--method", "integral", "--tol=1e-8", "--format", "json"],
        ["crosscheck", "--seed", "7", "--samples", "3"],
        ["bounds", *_PAIR, "--nu", "2"],
        ["phi", *_PAIR, "--pmax", "6"],
    ],
)
def test_subcommand_parser_gives_the_top_level_namespace(argv):
    args, code, out, err = _parsed_through(cli._parse_args, argv)
    assert (code, out, err) == (None, "", "")
    assert args == _parsed_through(cli._PARSER.parse_args, argv)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["em", *_PAIR, "extra", "--bogus"],
        ["kernel", *_PAIR, "--", "x"],
        ["kernel", "--k", "0.5", "--x", "1,0", "--y", "1,1"],
        ["kernel", *_PAIR, "--method", "trapezoid"],
        ["--version"],
        [],
        ["nope", *_PAIR],
    ],
)
def test_parse_errors_are_byte_identical_through_both_parsers(argv):
    new = _parsed_through(cli._parse_args, argv)
    assert new[1] in (0, 2)
    assert new == _parsed_through(cli._PARSER.parse_args, argv)


# Each subcommand's option table reads the plain argument lists itself and
# declines every other list, which the subcommand's parser then reads.
_GOOD_VALUES = {
    int: ["3", "0", "12", "007", "1_0", " 4"],
    float: ["1e-8", "0.5", "nan", "inf", "1e-12", "3"],
    str: ["1,0", "0.5,0.8", "0.4,0.2", "0.9,0.3,0.1,-0.2", "abc", "1 2"],
    None: ["csv"],
}
_ODD_VALUES = [
    "", "-1", "-0.5,1", "--", "-", "x", "1e", "1.5", "trapezoid", "-h", "--n", "=", "a=b"
]
_STRAY_TOKENS = ["-h", "--help", "--", "extra", "3", "--bogus", "-n", "--version", "--n=", "="]


@st.composite
def _subcommand_tokens(draw):
    name = draw(st.sampled_from(sorted(cli._OPTION_TABLES)))
    table = cli._OPTION_TABLES[name]
    options = sorted(table.actions)

    def item(option):
        action = table.actions[option]
        good = list(action.choices or _GOOD_VALUES[action.type])
        text = draw(st.sampled_from(_ODD_VALUES if draw(st.integers(0, 5)) == 0 else good))
        if len(option) > 3 and draw(st.integers(0, 5)) == 0:  # an abbreviation
            option = option[: draw(st.integers(3, len(option) - 1))]
        return [f"{option}={text}"] if draw(st.booleans()) else [option, text]

    required = [o for o in options if table.actions[o].dest in table.required]
    if draw(st.integers(0, 4)) == 0:
        required = draw(st.lists(st.sampled_from(required), unique=True)) if required else []
    extra = draw(st.lists(st.sampled_from(options + _STRAY_TOKENS), max_size=4))
    groups = [item(o) for o in required] + [item(o) if o in options else [o] for o in extra]
    return name, [token for group in draw(st.permutations(groups)) for token in group]


def _typed(namespace):
    # repr tells the types apart and keeps nan equal to itself
    return {dest: (type(value), repr(value)) for dest, value in vars(namespace).items()}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_subcommand_tokens())
# argparse 3.11 strips a "--" value to an empty list
@example(("kernel", [*_PAIR, "--format=--"]))
@example(("crosscheck", ["--seed=3", "--k=--"]))
def test_option_table_reads_what_argparse_reads_or_declines(drawn):
    name, tokens = drawn
    read = cli._OPTION_TABLES[name].read(tokens)
    if read is not None:
        args, extra = cli._SUBPARSERS[name].parse_known_args(tokens)
        assert extra == []
        assert _typed(read) == _typed(args)
    else:
        argv = [name, *tokens]
        expected = _parsed_through(cli._PARSER.parse_args, argv)
        assert _parsed_through(cli._parse_args, argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["em", *_PAIR, "--m-max", "4", "--method", "oracle"],
        ["kernel", "--n", "3", "--k=-0.2,0.3", "--x=0.9,0.0", "--y=-1.1,0.6", "--method", "series",
         "--tol", "1e-12"],
        ["kernel", *_PAIR, "--tol=1e-8", "--format", "json", "--tol", "1e-9"],
        ["crosscheck", "--seed", "7", "--samples", "3", "--m-max", "12"],
        ["bounds", *_PAIR, "--nu", "2"],
        ["phi", *_PAIR, "--pmax", "6"],
    ],
)
def test_option_table_reads_the_plain_argument_lists(argv):
    read = cli._OPTION_TABLES[argv[0]].read(argv[1:])
    assert read is not None
    assert _typed(read) == _typed(cli._SUBPARSERS[argv[0]].parse_args(argv[1:]))


def test_option_table_converts_string_defaults_as_argparse_does():
    parser = argparse.ArgumentParser()
    actions = [
        parser.add_argument("--tol", type=float, default="1e-3"),
        parser.add_argument("--m", type=int, default=4),
        parser.add_argument("--label", default="csv"),
    ]
    table = cli._OptionTable(parser, actions, seed=0)
    for tokens in ([], ["--m", "5"], ["--tol=0.5", "--label", "json"]):
        assert _typed(table.read(tokens)) == _typed(parser.parse_args(tokens))
    assert table.read([]).tol == 0.001


def test_crosscheck_sample_computes_its_orbit_once(monkeypatch):
    # every route of a sample takes (G, P, x, y, M); the pairings behind
    # them are computed once per sample, and not at all when the sample's
    # draw left them remembered
    from dunkl_dihedral import dihedral
    from dunkl_dihedral.sampling import draw_instance

    computed, matrices = [], dihedral._orbit_matrices

    def counted(n):
        computed.append(n)
        return matrices(n)

    monkeypatch.setattr(dihedral, "_orbit_matrices", counted)
    rng = np.random.default_rng(11)
    for idx in range(10):
        inst = draw_instance(rng, sigma_invariant=(idx % 5 == 4), min_xy=1e-3)
        computed.clear()
        cli._crosscheck_one(inst.group(), inst.parameter(), inst.x, inst.y, 12)
        assert computed == []
        # fresh arrays: one computation for the whole sample
        cli._crosscheck_one(inst.group(), inst.parameter(), inst.x.copy(), inst.y.copy(), 12)
        assert computed == [inst.n]

    per_sample, crosscheck_one = [], cli._crosscheck_one

    def spy(*args):
        before = len(computed)
        result = crosscheck_one(*args)
        per_sample.append(len(computed) - before)
        return result

    monkeypatch.setattr(cli, "_crosscheck_one", spy)
    assert run_cli(["crosscheck", "--seed", "5", "--samples", "10"])[0] == EXIT_OK
    assert per_sample == [0] * 10


def _sweep_sample_by_sample(argv):
    """The exit code, stdout and stderr of a crosscheck sweep that runs each
    sample's routes in _methods order before it draws the next sample: the
    order of refusals the sweep keeps with its oracle run over all samples
    at once."""
    args = cli._parse_args(argv)
    args.x, args.y, args.k = None, None, cli._parse_complex(args.k)
    rng = np.random.default_rng(args.seed)
    rows, worst_overall = [], 0.0
    try:
        for idx in range(args.samples):
            inst = draw_instance(rng, sigma_invariant=(idx % 5 == 4), min_xy=1e-3)
            G, P = inst.group(), inst.parameter()
            orbit = orbit_pairings(G, inst.x, inst.y)
            methods = cli._methods(orbit)
            tables = np.array([_em_values(mt, G, P, inst.x, inst.y, args.m_max) for mt in methods])
            m = np.arange(args.m_max + 1)
            log_poch = kernel._log_abs_pochhammer(P.gamma, args.m_max)
            scale = np.exp(m * np.log(orbit.a_bound) - log_poch)
            u, v = tables[:, None, :], tables[None, :, :]
            denom = np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)
            disc = np.divide(np.abs(u - v), denom, out=np.zeros(denom.shape), where=denom > 0)
            worst = float(np.max(disc))
            worst_overall = max(worst_overall, worst)
            rows.append([idx, inst.n, inst.k.real, inst.k.imag, worst, int("sigma" in methods)])
    except (DomainError, ConvergenceError) as exc:
        return cli._EXIT_CODES[type(exc)], "", f"error[{exc.code}]: {exc}\n"
    rows.append(["overall", "", "", "", worst_overall, ""])
    out = io.StringIO()
    header = ["sample", "n", "k_re", "k_im", "max_rel_disc", "sigma_checked"]
    lines = ["%d,%d,%.17g,%.17g,%.17g,%d\n"] * (len(rows) - 1) + ["%s,%s,%s,%s,%.17g,%s\n"]
    cli._emit(args, header, rows, out, lines)
    if worst_overall > args.tol:
        err = (
            f"check-failure: max cross-method discrepancy {worst_overall:.3e} "
            f"exceeds tolerance {args.tol:.3e}\n"
        )
        return EXIT_CHECK_FAILURE, out.getvalue(), err
    return EXIT_OK, out.getvalue(), ""


def _run_with_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _refuse_at(monkeypatch, name, k):
    """Make the route cli.<name> refuse the samples with parameter k."""
    route = getattr(cli, name)

    def refusing(G, P, x, y, M):
        if P.k == k:
            raise ConvergenceError(f"{name} refuses k = {k}")
        return route(G, P, x, y, M)

    monkeypatch.setattr(cli, name, refusing)


def _sweep_parameters(seed, samples):
    rng = np.random.default_rng(seed)
    return [
        draw_instance(rng, sigma_invariant=(idx % 5 == 4), min_xy=1e-3).parameter()
        for idx in range(samples)
    ]


# A seed whose sample 9, a mirror-axis sample, has a larger |gamma| than the
# nine before it, so an oracle limit between them refuses sample 9 first.
_SEED = next(
    s
    for s in range(1000)
    if abs(_sweep_parameters(s, 10)[9].gamma)
    > max(abs(P.gamma) for P in _sweep_parameters(s, 9))
)


@pytest.mark.parametrize(
    "route, sample, first",
    [
        (None, None, "oracle"),
        ("em_genseries", 11, "oracle"),  # a later sample
        ("em_closed_sigma", 14, "oracle"),
        ("em_closed_sigma", 9, "oracle"),  # the same sample, after the oracle
        ("em_genseries", 9, "em_genseries"),  # the same sample, before it
        ("em_genseries", 3, "em_genseries"),  # an earlier sample
        ("em_closed_sigma", 4, "em_closed_sigma"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_crosscheck_refuses_in_sample_and_route_order(monkeypatch, route, sample, first, fmt):
    # the oracle refuses sample 9 (|gamma| past a lowered limit), and
    # another route refuses one sample: the sweep reports the refusal that
    # comes first in (sample, route) order, with its exit code and message
    params = _sweep_parameters(_SEED, 15)
    limit = (abs(params[9].gamma) + max(abs(P.gamma) for P in params[:9])) / 2
    monkeypatch.setattr(polyalg, "ORACLE_MAX_GAMMA", limit)
    if route is not None:
        _refuse_at(monkeypatch, route, params[sample].k)
    argv = ["crosscheck", "--seed", str(_SEED), "--samples", "15", "--format", fmt]
    code, out, err = _run_with_stderr(argv)
    assert (code, out, err) == _sweep_sample_by_sample(argv)
    assert out == ""
    if first == "oracle":
        assert code == EXIT_DOMAIN_ERROR and "exceeds the oracle's limit" in err
    else:
        assert code == EXIT_CONVERGENCE_ERROR and f"{first} refuses" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--samples", "0"],
        ["--samples", "0", "--m-max", "-1"],
        ["--samples", "7", "--m-max", "0"],
        ["--samples", "7", "--format", "json"],
        ["--samples", "6", "--m-max", "20", "--tol", "1e-15"],  # exit 1
        ["--samples", "3", "--m-max", "-1"],
        ["--samples", "3", "--m-max", "171"],  # 171! overflows in the oracle
    ],
)
def test_crosscheck_sweep_is_the_sample_by_sample_sweep(extra):
    argv = ["crosscheck", "--seed", "8", *extra]
    assert _run_with_stderr(argv) == _sweep_sample_by_sample(argv)


def test_cli_import_loads_no_scipy():
    # scipy takes about 0.4 s to import, which every CLI call would pay
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, dunkl_dihedral.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["em", "bounds", "phi"])
def test_only_the_tolerance_readers_take_tol(command, capsys):
    # em, bounds and phi read no tolerance: --tol is an unknown option there,
    # and their JSON meta writes "tol": null
    with pytest.raises(SystemExit) as exc:
        main([command, *_PAIR, "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err
    code, out = run_cli([command, *_PAIR, "--format", "json"])
    assert code == EXIT_OK and json.loads(out)["meta"]["tol"] is None
