"""Absolute accuracy pins against the benchmark's mpmath references.

bench/reference.py computes kernel values and components at 30 digits from
the mirror-axis closed product, without importing the package, so these pins
can see an error that every double-precision route shares.  The module is
loaded read-only from its file, as test_bench_contract loads bench/spans.py.
"""

import importlib.util
import io
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dunkl_dihedral import kernel
from dunkl_dihedral.cli import EXIT_CONVERGENCE_ERROR, EXIT_OK, main
from dunkl_dihedral.dihedral import make_group, orbit_pairings
from dunkl_dihedral.errors import ConvergenceError
from dunkl_dihedral.kernel import ek_integral, ek_series
from dunkl_dihedral.polyalg import ParameterK, oracle_em
from dunkl_dihedral.recurrence import em_sequence
from dunkl_dihedral.series import em_closed_sigma, em_genseries

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


@pytest.fixture(scope="module")
def reference():
    if not REFERENCE.is_file():
        pytest.skip("bench/reference.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Large mirror-axis points with real k: the series needs 96 to 193 terms.
# Then large |gamma| (300, 40 and 41.6): the stop rule bounds |m+1+gamma|
# from below by m+1+Re(gamma), so these close in a few dozen terms; a bound
# by m+1-|gamma| could not close before 2|gamma| terms, nor at all past 250.
@pytest.mark.parametrize(
    "n, k, x, y, max_terms",
    [
        (3, 0.5, (8.0, 0.0), (8.0, 3.0), 193),
        (2, 1.0, (9.0, 0.0), (-5.0, 6.0), 141),
        (4, 1.0, (6.0, 0.0), (5.0, 4.0), 96),
        (4, 0.5, (7.0, 0.0), (6.0, -4.0), 132),
        (3, 100.0, (1.0, 0.0), (1.0, 1.0), 12),
        (4, 10.0, (3.0, 0.0), (-2.0, 5.0), 40),
        (5, 8 + 3j, (1.0, 0.0), (2.0, 2.0), 20),
    ],
)
def test_series_sum_matches_mpmath(n, k, x, y, max_terms, reference):
    res = ek_series(make_group(n), ParameterK(k, n), x, y, 1e-12)
    ref = reference.mirror_kernel(n, k, x, y)
    assert res.terms_used <= max_terms
    assert abs(res.value - ref) <= 1e-13 * abs(ref)


# Mirror-axis points whose components cancel: a sum of terms up to about
# 2^53 tol |E_k| would carry a rounding error above tol, so the sum is refused.
# Then two with Re(gamma) < 0, where the double sum is off by more than tol:
# gamma = -10 - 1.9e-8, near a singular value, off by 2.4e-8 of |E_k| from
# the rounding of gamma = n k; and gamma = -28.4994, where the recurrence
# amplifies rounding by the a-priori size, off by 5.1e-9.
@pytest.mark.parametrize(
    "n, k, x, y",
    [
        (3, 0.5, (8.0, 0.0), (-7.5, 0.0)),
        (3, 0.5, (8.0, 0.0), (-12.0, 0.0)),
        (3, 0.5, (6.0, 0.0), (-6.0, 0.0)),
        (3, 0.5, (8.0, 0.0), (-4.0, 0.0)),
        (5, 0.3, (8.0, 0.0), (-7.0, 0.0)),
        (3, -3.3333333395157525, (2.5036160556174667, 0.0), (-0.009911683781689329, 1.1003232595248034)),
        (7, -4.0713466623923456, (2.6633667663995095, 0.0), (3.9833260803830366, -2.2285750769237263)),
    ],
)
def test_ill_conditioned_series_sum_is_a_convergence_error(n, k, x, y, capsys):
    out = io.StringIO()
    code = main(
        ["kernel", "--n", str(n), f"--k={k!r}", f"--x={x[0]!r},{x[1]!r}", f"--y={y[0]!r},{y[1]!r}",
         "--tol", "1e-12"],
        out=out,
    )
    assert code == EXIT_CONVERGENCE_ERROR
    assert out.getvalue() == ""
    assert capsys.readouterr().err.startswith("error[convergence-error]: rounding floor")


def _component_scale(G, P, x, y, M):
    """The a-priori component size a^m / |(1+gamma)_m|, m = 0..M."""
    a = orbit_pairings(G, x, y).a_bound
    log_poch = np.cumsum([0.0] + [math.log(abs(1.0 + P.gamma + m)) for m in range(M)])
    return np.exp(np.arange(M + 1) * math.log(a) - log_poch)


# The oracle at degree 60 against the mirror-axis and n = 2 references, in the
# measure |E_m - ref_m| <= rtol max(|ref_m|, a^m / |(1+gamma)_m|).
@pytest.mark.parametrize(
    "n, k, x, y",
    [
        (3, -0.2 + 0.3j, (1.2, 0.0), (-0.5, 1.6)),
        (5, 0.6 - 0.2j, (0.9, 0.0), (1.1, -0.7)),
        (7, 0.3, (1.4, 0.0), (0.3, 1.9)),
        (2, 0.4 + 0.2j, (0.8, -1.3), (1.5, 0.6)),
        (2, -0.3, (1.1, 0.7), (-0.4, 1.2)),
    ],
)
def test_oracle_matches_mpmath_at_degree_60(n, k, x, y, reference):
    G, P, M = make_group(n), ParameterK(k, n), 60
    if n == 2:
        ref = np.array(reference.n2_components(k, x, y, M))
    else:
        ref = np.array(reference.mirror_components(n, k, x, y, M))
    ems = oracle_em(G, P, x, y, M)
    denom = np.maximum(np.abs(ref), _component_scale(G, P, x, y, M))
    assert np.all(np.abs(ems - ref) <= 1e-9 * denom)


def test_recurrence_past_double_pochhammer_matches_mpmath(reference):
    # (1+gamma)_m overflows near m = 170; the scaled state does not form it.
    # Measure: |E_m - ref_m| <= rtol max(|ref_m|, a^m / |(1+gamma)_m|), taken
    # absolutely at the smallest normal double where the components underflow.
    n, k, x, y, M = 3, 0.5, (0.9, 0.0), (0.5, 0.8), 190
    G, P = make_group(n), ParameterK(k, n)
    ems = em_sequence(G, P, x, y, M)
    ref = np.array(reference.mirror_components(n, k, x, y, M))
    a = orbit_pairings(G, x, y).a_bound
    log_poch = np.cumsum([0.0] + [math.log(abs(1.0 + P.gamma + m)) for m in range(M)])
    scale = np.exp(np.arange(M + 1) * math.log(a) - log_poch)
    denom = np.maximum(np.maximum(np.abs(ref), scale), np.finfo(float).tiny)
    assert np.all(np.abs(ems - ref) <= 1e-13 * denom)


def _scaled_recurrence_50_digits(n, k, x, y, M):
    """E_0..E_M by the scaled orbit recurrence at 50 digits, from the exact
    group angles: state_0 = 1, dy = d state_m / (m+1+gamma), and state_(m+1)
    = dy + gamma/(2n(m+1)) sum(dy) - or + gamma/(2n(m+1+2 gamma)) (rotation
    half sum - reflection half sum), minus on the rotation half.  It shares
    the recurrence's formula, so it pins the double-precision arithmetic,
    not the mathematics."""
    with mpmath.workdps(50):
        g = n * mpmath.mpc(complex(k).real, complex(k).imag)
        x1, x2, y1, y2 = (mpmath.mpf(v) for v in (*x, *y))
        rot, refl = [], []
        for j in range(n):
            c, s = mpmath.cos(2 * mpmath.pi * j / n), mpmath.sin(2 * mpmath.pi * j / n)
            rot.append((c * x1 - s * x2) * y1 + (s * x1 + c * x2) * y2)
            refl.append((c * x1 + s * x2) * y1 + (s * x1 - c * x2) * y2)
        state, out = [mpmath.mpc(1)] * (2 * n), [1.0 + 0.0j]
        for m in range(M):
            dy = [d * v / (m + 1 + g) for d, v in zip(rot + refl, state)]
            s_w = g / (2 * n * (m + 1)) * mpmath.fsum(dy)
            corr = g / (2 * n * (m + 1 + 2 * g)) * (mpmath.fsum(dy[:n]) - mpmath.fsum(dy[n:]))
            state = [v + s_w - corr for v in dy[:n]] + [v + s_w + corr for v in dy[n:]]
            out.append(complex(state[0]))
        return np.array(out)


# A generic point: n = 3, x off the mirror axis, so no closed form applies.
@pytest.mark.parametrize(
    "k, x, y",
    [
        (0.4 + 0.3j, (0.9, 0.4), (0.5, -0.8)),
        (-0.2 + 0.3j, (1.3, -0.7), (-0.6, 1.1)),
        (0.5, (2.0, 1.5), (1.0, -2.0)),
    ],
)
def test_recurrence_at_a_generic_point_matches_a_50_digit_run(k, x, y):
    n, M = 3, 40
    G, P = make_group(n), ParameterK(k, n)
    ref = _scaled_recurrence_50_digits(n, k, x, y, M)
    denom = np.maximum(np.abs(ref), _component_scale(G, P, x, y, M))
    assert np.all(np.abs(em_sequence(G, P, x, y, M) - ref) <= 1e-14 * denom)


# The generating-series and mirror-axis routes at degree 60 against the
# references, in the measure of the oracle pins; they were within 1.2e-15.
@pytest.mark.parametrize(
    "route, n, k, x, y",
    [
        *(
            (route, *case)
            for route in (em_genseries, em_closed_sigma)
            for case in [
                (3, -0.2 + 0.3j, (1.2, 0.0), (-0.5, 1.6)),
                (4, 0.25 + 0.5j, (-1.1, 0.0), (0.8, 0.6)),
                (5, 0.6 - 0.2j, (0.9, 0.0), (1.1, -0.7)),
                (7, 0.3, (1.4, 0.0), (0.3, 1.9)),
            ]
        ),
        (em_genseries, 2, 0.4 + 0.2j, (0.8, -1.3), (1.5, 0.6)),
        (em_genseries, 2, -0.3, (1.1, 0.7), (-0.4, 1.2)),
    ],
)
def test_series_routes_match_mpmath_at_degree_60(route, n, k, x, y, reference):
    G, P, M = make_group(n), ParameterK(k, n), 60
    if n == 2:
        ref = np.array(reference.n2_components(k, x, y, M))
    else:
        ref = np.array(reference.mirror_components(n, k, x, y, M))
    denom = np.maximum(np.abs(ref), _component_scale(G, P, x, y, M))
    assert np.all(np.abs(route(G, P, x, y, M) - ref) <= 1e-13 * denom)


# The integral route at tol 1e-10 on mirror-axis points with delta * a <= 6.
_MIRROR_INTEGRAL_POINTS = [
    (3, 0.5, (1.2, 0.0), (0.7, 0.9)),
    (3, 1.0, (-0.8, 0.0), (-0.6, 1.0)),
    (5, 0.4 - 0.3j, (1.1, 0.0), (0.5, -0.8)),
    (7, 0.3, (0.9, 0.0), (0.3, 1.1)),
]


@pytest.mark.parametrize("n, k, x, y", _MIRROR_INTEGRAL_POINTS)
def test_integral_matches_mpmath_on_the_mirror_axis(n, k, x, y, reference):
    res = ek_integral(make_group(n), ParameterK(k, n), x, y, 1e-10)
    ref = reference.mirror_kernel(n, k, x, y)
    assert abs(res.value - ref) <= 1e-10 * abs(ref)


def _small_re_gamma_list(seed):
    """An n = 2 argument list with Re(gamma) in [0.002, 0.05], |Im gamma| <= 1."""
    rng = np.random.default_rng(seed)
    gamma = complex(rng.uniform(0.002, 0.05), rng.uniform(-1.0, 1.0))
    x, y = (tuple(map(float, p)) for p in rng.uniform(-2.0, 2.0, size=(2, 2)))
    return gamma / 2, x, y


_SMALL_RE_GAMMA_LISTS = [
    (
        0.0010120165973371213 - 0.3929311675725849j,
        (1.6853030106474862, -1.0359535703261695),
        (-0.9095454646666399, 0.5462428352987563),
    ),
    *(_small_re_gamma_list(seed) for seed in range(6)),
]


# At a small Re(gamma) the time weight s^(gamma-1) is nearly 1/s.  The
# endpoint series integrates it exactly, so the work of a pass does not grow
# like 1/Re(gamma); the first list is the one the route once needed 23 s for.
@pytest.mark.parametrize("k, x, y", _SMALL_RE_GAMMA_LISTS)
def test_integral_at_a_small_re_gamma_is_fast_and_matches_mpmath(k, x, y, reference):
    out = io.StringIO()
    start = time.perf_counter()
    code = main(
        ["kernel", "--method", "integral", "--tol", "1e-10", "--n", "2",
         f"--k={k.real!r},{k.imag!r}", f"--x={x[0]!r},{x[1]!r}", f"--y={y[0]!r},{y[1]!r}"],
        out=out,
    )
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert elapsed < 1.0
    value = complex(*map(float, out.getvalue().splitlines()[1].split(",")[:2]))
    ref = reference.n2_kernel(k, x, y)
    assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref))


# The one-pass stop rule reads the pass's spread |Q - Q_half| + |Q - Q_8|;
# with the pass's rounding floor it must cover the actual error.
@pytest.mark.parametrize(
    "n, k, x, y",
    [*_MIRROR_INTEGRAL_POINTS, *((2, k, x, y) for k, x, y in _SMALL_RE_GAMMA_LISTS)],
)
def test_integral_tail_covers_the_mpmath_error(n, k, x, y, reference):
    res = ek_integral(make_group(n), ParameterK(k, n), x, y, 1e-10)
    ref = reference.n2_kernel(k, x, y) if n == 2 else reference.mirror_kernel(n, k, x, y)
    assert abs(res.value - ref) <= res.tail_estimate


# This list's value is 12.3 and its floor 4.3e-10, above 0.3 tol |Q| =
# 3.7e-10: its spread at 512 nodes, 5.2e-10, is rounding noise of that size.
# The pass stops there, the spread being within tol |Q|, instead of doubling
# until the noise falls under 0.3 tol |Q|; with tol below spread/|Q| = 4.2e-11
# (and above floor/|Q| = 3.5e-11) it refuses at the same pass.
def test_integral_stops_on_a_spread_of_rounding_noise(monkeypatch, reference):
    passes, rule = [], kernel._contour_rule

    def counted_rule(*args):
        passes.append(args[-1])
        return rule(*args)

    monkeypatch.setattr(kernel, "_contour_rule", counted_rule)
    k = 0.039317897181912656 + 0.2263565217141167j
    x, y = (2.209531117074527, -2.8657475213573553), (-0.6030432868946449, 2.611719183198664)
    G, P = make_group(2), ParameterK(k, 2)
    res = ek_integral(G, P, x, y, 1e-10)
    assert passes == [256, 512] and res.nodes_used == 512
    ref = reference.n2_kernel(k, x, y)
    assert abs(res.value - ref) <= res.tail_estimate <= 1e-10 * abs(ref)
    passes.clear()
    with pytest.raises(ConvergenceError, match="rounding floor .* explains its spread"):
        ek_integral(G, P, x, y, 3.9e-11)
    assert passes == [256, 512]


# Im(gamma) = 5000 against Re(gamma) = 2 at 1/rho = 0.54: the radius passes
# 1, so the endpoint series covers all of [0, 1], no panel is laid, and one
# 64-node pass settles.  Split at rho/2 instead, the panels could not follow
# the weight e^(gamma v) within 8192 nodes.
def test_integral_without_panels_matches_mpmath(reference):
    k, x, y = 0.66667 + 1666.7j, (1e-4, 0.0), (0.5, 0.3)
    res = ek_integral(make_group(3), ParameterK(k, 3), x, y, 1e-8)
    assert res.nodes_used == 64
    assert abs(res.value - reference.mirror_kernel(3, k, x, y)) <= res.tail_estimate <= 1e-15


# Off the mirror axis.  At the radius 1/(2 delta a) the route stopped at 128
# nodes with a tail of 7.0e-13 and an error of 1.69e-12; at the radius that
# minimises the amplification its tail covers the error.
def test_integral_tail_covers_the_mpmath_error_off_the_axis(reference):
    k = 0.8973312566281286 + 0.2065448340209859j
    x, y = (-1.2473977549133297, -1.266979753230462), (-0.7959662317551435, 0.7948931361799103)
    res = ek_integral(make_group(2), ParameterK(k, 2), x, y, 1e-12)
    assert abs(res.value - reference.n2_kernel(k, x, y)) <= res.tail_estimate


# Two open faults of the tail estimates, pinned as strict xfails so that the
# change that mends one sees its test pass and must drop the mark.  Both
# tails are truncation estimate + rounding floor, and both floors are
# estimates, not bounds.  The series sum stops after 42 terms with a tail of
# 1.32e-12 and an error of 2.3e-12 (1.73 times the tail): the rounding the
# steps accumulate at |E_k| near 3850 exceeds the floor.
@pytest.mark.xfail(strict=True, reason="the series tail estimate is below its error here")
def test_series_tail_covers_the_mpmath_error_at_a_large_value(reference):
    k = 0.050787309242204315 - 0.09383532049824406j
    x, y = (2.942288434408246, 0.0), (2.868780238602538, -2.373291078573609)
    res = ek_series(make_group(2), ParameterK(k, 2), x, y, 1e-12)
    assert abs(res.value - reference.mirror_kernel(2, k, x, y)) <= res.tail_estimate


# The integral route takes 8192 nodes here (at gamma = 120 the passes double
# the nodes with the panels) and reports a tail of 1.42e-14 against an error
# of 1.67e-14 (1.17 times the tail): its floor leaves out how summation error
# grows with the number of terms.
@pytest.mark.xfail(strict=True, reason="the integral tail estimate is below its error here")
def test_integral_tail_covers_the_mpmath_error_at_many_nodes(reference):
    x, y = (1.0, 0.0), (1.0, 1.0)
    res = ek_integral(make_group(3), ParameterK(40.0, 3), x, y, 1e-10)
    assert res.nodes_used == 8192
    assert abs(res.value - reference.mirror_kernel(3, 40.0, x, y)) <= res.tail_estimate
