import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_err
from definitions import contour_body, kernel_K
from dunkl_dihedral import kernel
from dunkl_dihedral.dihedral import make_group, orbit_pairings
from dunkl_dihedral.errors import ConvergenceError, DomainError
from dunkl_dihedral.kernel import (
    _contour_rule,
    _contour_sum,
    _embedded_half,
    _endpoint_coefficients,
    _log_abs_pochhammer,
    _log_component_bound,
    _log_panels,
    check_ek_bound,
    check_em_bound,
    delta_effective,
    ek_integral,
    ek_series,
    series_for_radius,
    transition_norm_sum,
)
from dunkl_dihedral.polyalg import ParameterK, oracle_em
from dunkl_dihedral.sampling import draw_instance, draw_parameter
from dunkl_dihedral.series import a_coeffs, em_closed_sigma


# ---------------------------------------------------------------------------
# effective radius-safety constant


def test_delta_frozen_positive_gamma():
    # gamma = 3 real: sup_p p/(p+6) < 1, so delta_series = 2|gamma| = 6
    dc = delta_effective(ParameterK(1.0, 3))
    assert dc.delta_series == pytest.approx(6.0, abs=1e-12)
    assert dc.delta_effective == pytest.approx(6.0, abs=1e-12)


def test_delta_floor_at_one():
    # small |gamma|: the series constant drops below 1 and the floor applies
    dc = delta_effective(ParameterK(0.05, 2))  # gamma = 0.1
    assert dc.delta_series == pytest.approx(0.2, abs=1e-12)
    assert dc.delta_effective >= 1.0


def test_delta_frozen_negative_gamma():
    # gamma = -1/4: scan hits p = 1 with ratio 1/|1 - 1/2| = 2
    dc = delta_effective(ParameterK(-0.125, 2))
    assert dc.delta_series == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "k, n",
    [
        (0.4 + 0.3j, 3),  # Re gamma >= 0: one term of each supremum
        (-0.2 + 0.5j, 2),  # p/|p + 2 gamma| peaks at p* = 5.8, the sup at ceil(p*)
        (-1.3 + 0.1j, 4),  # -2 Re gamma = 10.4: the norm sums peak at m = 4
        (-0.01 + 1.5j, 2),  # |gamma|/|Re gamma| = 150: p* = 900, past 202 |gamma|
    ],
)
def test_delta_matches_a_brute_force_scan(k, n):
    P = ParameterK(k, n)
    g = P.gamma
    mod2g = 2.0 * abs(g)
    p = np.arange(1, 20001, dtype=float)
    brute_series = mod2g * max(1.0, float(np.max(p / np.abs(p + 2.0 * g))))
    brute_matrix = max(transition_norm_sum(P, m) for m in range(400))
    dc = delta_effective(P)
    assert dc.delta_series == brute_series
    assert dc.delta_matrix == brute_matrix
    assert dc.delta_effective == max(1.0, brute_series, brute_matrix)


def test_delta_refuses_beyond_the_degree_limit():
    # -2 Re gamma = 501: the certified sum could not close either
    with pytest.raises(ConvergenceError):
        delta_effective(ParameterK(-83.5 + 0.1j, 3))
    assert math.isfinite(delta_effective(ParameterK(-83.3 + 0.1j, 3)).delta_effective)


def test_delta_matrix_is_finite_past_the_range_of_gamma_squared():
    # gamma^2 overflows past |gamma| ~ 1.3e154; the norm sums never form it
    for k in (1e160, -1e160j, 1e300 + 1e300j):
        P = ParameterK(k, 2)
        assert all(math.isfinite(transition_norm_sum(P, m)) for m in range(50))
    dc = delta_effective(ParameterK(1e160, 2))
    # 1/|1+gamma| + n |gamma/(1+gamma)| |b_0| + n |b_0| with n |b_0| -> 1/2
    assert dc.delta_matrix == pytest.approx(1.0, rel=1e-15)
    assert dc.delta_effective == dc.delta_series == 4e160


def test_delta_matrix_dominates_norm_sums(rng):
    P = draw_parameter(rng, 4)
    dc = delta_effective(P)
    sums = [transition_norm_sum(P, m) for m in range(200)]
    assert dc.delta_matrix >= max(sums) - 1e-12


# ---------------------------------------------------------------------------
# series summation of the kernel


def test_ek_series_at_origin_is_exactly_one():
    G = make_group(3)
    res = ek_series(G, ParameterK(0.5, 3), (0.0, 0.0), (1.0, 2.0), 1e-12)
    assert res.value == 1.0


def test_ek_series_k_zero_shortcut(rng):
    G = make_group(4)
    x = rng.uniform(-1, 1, size=2)
    y = rng.uniform(-1, 1, size=2)
    res = ek_series(G, ParameterK(0.0, 4), x, y, 1e-12)
    assert res.method == "exp-shortcut"
    assert res.value == cmath.exp(complex(x @ y))


def test_ek_series_tiny_k_near_exponential():
    G = make_group(3)
    res = ek_series(G, ParameterK(1e-5, 3), (1.0, 0.0), (0.5, 0.5), 1e-12)
    target = cmath.exp(0.5)
    assert abs(res.value - target) <= 1e-3 * abs(target)


def test_ek_series_matches_component_sum(rng):
    # brute-force oracle: sum the symbolically computed components
    inst = draw_instance(rng, delta_a_cap=4.0)
    G, P = inst.group(), inst.parameter()
    res = ek_series(G, P, inst.x, inst.y, 1e-11)
    brute = sum(oracle_em(G, P, inst.x, inst.y, 19))
    assert abs(res.value - brute) <= 1e-9 * max(1.0, abs(brute))


def test_tail_certificate_sound(rng):
    for _ in range(5):
        inst = draw_instance(rng, delta_a_cap=8.0)
        G, P = inst.group(), inst.parameter()
        loose = ek_series(G, P, inst.x, inst.y, 1e-6)
        tight = ek_series(G, P, inst.x, inst.y, 1e-7 / 10)
        assert abs(loose.value - tight.value) <= loose.tail_estimate
        assert loose.tail_estimate < 1e-6


@pytest.mark.parametrize("k, delta_a", [(0.5, 3.0), (-0.3 + 0.2j, 40.0), (1.7, 0.25)])
def test_component_bound_matches_scalar_formula(k, delta_a):
    # (e^2/2)(m+2)^2 (delta a)^m / |(1+gamma)_m|, term by term
    P = ParameterK(k, 3)
    log_bound = _log_component_bound(delta_a, np.arange(121), _log_abs_pochhammer(P.gamma, 120))
    poch = 1.0
    for m in range(121):
        expected = (math.e**2 / 2.0) * (m + 2) ** 2 * delta_a**m / poch
        assert math.exp(log_bound[m]) == pytest.approx(expected, rel=1e-12)
        poch *= abs(1.0 + P.gamma + m)


def _bound_constant_whole_table(P, delta_a):
    """Reference: the bound-constant sum over the whole 5002-entry table."""
    terms = kernel._BOUND_SUM_TERMS
    log_term = _log_component_bound(
        delta_a, np.arange(terms + 1), _log_abs_pochhammer(P.gamma, terms)
    )
    total = 0.0
    for m in range(terms):
        term = math.exp(log_term[m]) if log_term[m] < 700.0 else math.inf
        total += term
        closing = m > -P.gamma.real and log_term[m + 1] - log_term[m] < kernel._LOG_HALF
        if closing and term < 1e-16 * max(total, 1.0):
            return total
        if not math.isfinite(total):
            break
    return None


@pytest.mark.parametrize(
    "k, n, delta_a",
    [(0.4 + 0.2j, 3, 3.7), (-0.3 + 0.2j, 3, 40.0), (1.7, 2, 0.25), (-0.15, 5, 90.0),
     (0.3, 7, 300.0), (2.0, 5, 1e-9), (-3.9 + 0.1j, 2, 5.0), (0.5, 3, 1e5)],
)
def test_bound_constant_reads_the_table_as_the_whole_table_does(k, n, delta_a):
    # the table built piece by piece gives the same bits, or the same refusal
    P = ParameterK(k, n)
    expected = _bound_constant_whole_table(P, delta_a)
    if expected is None:
        with pytest.raises(ConvergenceError, match="did not close"):
            kernel.ek_bound_constant(P, delta_a)
    else:
        assert kernel.ek_bound_constant(P, delta_a) == expected


def test_log_abs_pochhammer_in_pieces_rounds_as_the_whole_table():
    gamma, whole = 0.7 - 2.1j, _log_abs_pochhammer(0.7 - 2.1j, 1000)
    first = _log_abs_pochhammer(gamma, 64)
    rest = _log_abs_pochhammer(gamma, 1000, 64, float(first[-1]))
    np.testing.assert_array_equal(np.concatenate([first, rest[1:]]), whole)


def test_certified_terms_rejects_hopeless_scale():
    # a = 200: the envelope closes below 1/2 before the term cap, but the
    # components a^m/m! are still far above tol at degree 500
    G, P = make_group(2), ParameterK(0.55, 2)
    with pytest.raises(ConvergenceError, match="not certified within 500 terms"):
        ek_series(G, P, (20.0, 0.0), (10.0, 0.0), 1e-8)


@pytest.mark.parametrize(
    "n, k, x, y, reason",
    [
        # a = 900: the envelope at the cap is 1.8
        (3, 0.5, (30.0, 0.0), (30.0, 3.0), "the step envelope at the degree cap 500 is 1.8 > 1/2"),
        # -2 Re gamma = 600.6: the envelope bounds no step up to the cap
        (3, -100.1, (0.3, 0.0), (0.3, 0.1), "-2 Re\\(gamma\\) = 600.6 is past the degree cap 500"),
    ],
)
def test_certified_terms_refusal_before_any_step_says_so(monkeypatch, n, k, x, y, reason):
    stepped = []
    monkeypatch.setattr(kernel, "state_blocks", lambda *args: stepped.append(args))
    with pytest.raises(ConvergenceError, match="refused before its first term: " + reason):
        ek_series(make_group(n), ParameterK(k, n), x, y, 1e-12)
    assert stepped == []


def test_ek_sigma_closed_matches_series(rng):
    # the closed-form components summed over the series route's term count
    for _ in range(4):
        inst = draw_instance(rng, sigma_invariant=True)
        G, P = inst.group(), inst.parameter()
        a = ek_series(G, P, inst.x, inst.y, 1e-10)
        b = sum(em_closed_sigma(G, P, inst.x, inst.y, a.terms_used - 1))
        assert rel_err(a.value, b) <= 1e-8


# ---------------------------------------------------------------------------
# contour kernel


def test_kernel_K_x_zero_reduces_to_gamma():
    G = make_group(3)
    P = ParameterK(0.5, 3)
    orbit = orbit_pairings(G, (0.0, 0.0), (1.0, 1.0))
    S = a_coeffs(P, orbit, 10)
    for t in (0.0, 0.7, 1.0):
        assert rel_err(kernel_K(P, orbit, S, t, 1.0, 64), P.gamma) <= 1e-12


def test_kernel_K_t_zero_is_gamma(rng):
    # residue at the origin of Phi / (z (1 - z<x,y>)) is Phi(0) = 2n/gamma
    inst = draw_instance(rng)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    dc = delta_effective(P)
    rho = 1.0 / (2.0 * dc.delta_effective * orbit.a_bound)
    S = series_for_radius(P, orbit, rho, 1e-13)
    assert rel_err(kernel_K(P, orbit, S, 0.0, rho, 128), P.gamma) <= 1e-11


def test_kernel_K_node_doubling_converged(rng):
    inst = draw_instance(rng, delta_a_cap=2.0)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    rho = 1.0 / (2.0 * delta_effective(P).delta_effective * orbit.a_bound)
    S = series_for_radius(P, orbit, rho, 1e-13)
    v64 = kernel_K(P, orbit, S, 0.8, rho, 64)
    v128 = kernel_K(P, orbit, S, 0.8, rho, 128)
    assert rel_err(v64, v128) <= 1e-10


def test_kernel_K_validates_inputs():
    G = make_group(2)
    P = ParameterK(0.5, 2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    S = a_coeffs(P, orbit, 10)
    with pytest.raises(DomainError):
        kernel_K(P, orbit, S, 0.5, 0.25, 4)  # too few nodes
    with pytest.raises(DomainError):
        kernel_K(P, orbit, S, 1.5, 0.25, 64)  # t outside [0, 1]
    with pytest.raises(DomainError):
        kernel_K(P, orbit, S, 0.5, 1.0, 64)  # contour through the pole


def _kernel_K_full(P, orbit, S, t, rho, N):
    """The contour sum over all N nodes, each exponentiated on its own."""
    nodes = rho * np.exp(2j * np.pi * np.arange(N) / N)
    phi = np.polyval(S.phi[::-1], nodes)
    pref = (P.gamma**2 / (2.0 * P.n)) * phi / (1.0 - nodes * orbit.xy) / N
    return np.exp(np.multiply.outer(np.asarray(t, dtype=float), 1.0 / nodes)) @ pref


@pytest.mark.parametrize("N", [8, 9, 64, 128])
def test_kernel_K_half_nodes_match_the_full_node_sum(N, rng):
    for _ in range(4):
        inst = draw_instance(rng, delta_a_cap=2.0)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        rho = 1.0 / (2.0 * delta_effective(P).delta_effective * orbit.a_bound)
        S = a_coeffs(P, orbit, 40)
        t = np.linspace(0.0, 1.0, 7)
        half = kernel_K(P, orbit, S, t, rho, N)
        full = _kernel_K_full(P, orbit, S, t, rho, N)
        assert max(rel_err(h, f) for h, f in zip(half, full)) <= 1e-13
        scalar = kernel_K(P, orbit, S, 0.3, rho, N)
        assert rel_err(scalar, _kernel_K_full(P, orbit, S, 0.3, rho, N)) <= 1e-13


@pytest.mark.parametrize("scale", [1e-9, 1e-150, 1e-300])
def test_integral_at_a_tiny_orbit_bound_matches_the_series(scale):
    # the contour radius, about 1/sqrt(C a), is huge, so rho^p overflows a
    # double while every phi_p rho^p stays below 1: the contour weights must
    # not form rho^p alone
    G, P = make_group(3), ParameterK(1.0, 3)
    x, y = (scale, -0.5 * scale), (1.0, 1.0)
    res = ek_integral(G, P, x, y, 1e-10)
    assert rel_err(res.value, ek_series(G, P, x, y, 1e-12).value) <= 1e-12


def test_kernel_K_blocks_match_a_split_by_hand(monkeypatch):
    G, P = make_group(4), ParameterK(0.25 + 0.5j, 4)
    orbit = orbit_pairings(G, (0.6, 0.2), (0.3, -0.5))
    rho = 1.0 / (2.0 * delta_effective(P).delta_effective * orbit.a_bound)
    S = a_coeffs(P, orbit, 40)
    N, rows = 64, 200
    monkeypatch.setattr(kernel, "_CONTOUR_BLOCK", rows * (N // 2 + 1))
    t = np.linspace(0.0, 1.0, 2 * rows + 37)
    pieces = [kernel_K(P, orbit, S, t[i : i + rows], rho, N) for i in range(0, t.size, rows)]
    by_hand = np.concatenate(pieces)
    np.testing.assert_allclose(kernel_K(P, orbit, S, t, rho, N), by_hand, rtol=1e-15, atol=0)


@pytest.mark.parametrize("rows", [1, 7, 24, 25, 200, 10_000])
def test_endpoint_row_rides_on_the_body_blocks_bit_for_bit(monkeypatch, rows):
    # the endpoint sums, read from the row of time 1 appended to the body
    # times, equal the body row of a one-time call, and the body rows equal
    # a call with zero endpoint weights, whatever block the endpoint row
    # falls in (alone in its block at rows = 1 and 24)
    G, P = make_group(4), ParameterK(0.25 + 0.5j, 4)
    orbit = orbit_pairings(G, (0.6, 0.2), (0.3, -0.5))
    rho = 1.0 / (2.0 * delta_effective(P).delta_effective * orbit.a_bound)
    S = a_coeffs(P, orbit, 40)
    N = 64
    monkeypatch.setattr(kernel, "_CONTOUR_BLOCK", rows * (N // 2 + 1))
    inv, pref = _contour_rule(P, orbit, S, rho, N)
    prefs = np.column_stack([pref, _embedded_half(pref)])
    end_prefs = prefs * np.linspace(0.5, 2.0, N)[:, None]
    t = np.linspace(0.0, 1.0, 48, endpoint=False)
    sums = _contour_sum(t, inv, prefs, end_prefs)
    assert sums.shape == (t.size + 1, 2)
    assert np.array_equal(sums[:-1], contour_body(t, inv, prefs))
    assert np.array_equal(sums[-1], contour_body(np.ones(1), inv, end_prefs)[0])


_ENDPOINT_GAMMAS = [0.002 - 0.79j, 1.0 + 2.0j, 3.0]


@pytest.mark.parametrize("gamma", _ENDPOINT_GAMMAS)
@pytest.mark.parametrize("s0", [0.05, 1.0])
def test_endpoint_series_matches_quadrature(gamma, s0):
    # int_0^s0 s^(gamma-1) e^(-s/z) ds at |z| = s0, the contour's nearest
    # approach.  The constant term s0^gamma / gamma is taken out in closed
    # form, since tanh-sinh does not resolve s^(gamma-1) at Re(gamma) = 0.002;
    # the rest, s^(gamma-1) (e^(-s/z) - 1), vanishes at 0 like s^gamma.
    mpmath = pytest.importorskip("mpmath")
    coef = _endpoint_coefficients(gamma, s0)
    for theta in 0.3 + np.arange(6) * np.pi / 3:
        z = s0 * cmath.exp(1j * theta)
        ours = np.polynomial.polynomial.polyval(-s0 / z, coef)
        with mpmath.workdps(30):
            g, zz = mpmath.mpc(gamma), mpmath.mpc(z)
            rest = mpmath.quad(lambda s: s ** (g - 1) * mpmath.expm1(-s / zz), [0, s0])
            ref = complex(mpmath.power(s0, g) / g + rest)
        assert abs(ours - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("gamma", _ENDPOINT_GAMMAS)
@pytest.mark.parametrize("s0, panels", [(0.4, 1), (0.05, 3), (0.05, 24), (1e-3, 14)])
def test_log_panels_integrate_an_exponential(gamma, s0, panels):
    # int_{log s0}^0 e^(gamma v) dv = (1 - s0^gamma) / gamma
    v, w = (a[: 16 * panels] for a in _log_panels(math.log(s0), panels))
    assert v.size == w.size == 16 * panels
    assert np.all((math.log(s0) < v) & (v < 0.0))
    ref = (1.0 - s0**gamma) / gamma
    assert abs(np.sum(w * np.exp(gamma * v)) - ref) <= 1e-14 * abs(ref)


# ---------------------------------------------------------------------------
# integral representation


def test_ek_integral_at_origin():
    # a vanishing orbit bound gives 1 exactly, with no contour pass
    G = make_group(3)
    res = ek_integral(G, ParameterK(0.5, 3), (0.0, 0.0), (1.0, 1.0), 1e-9)
    assert res.value == 1.0 and res.nodes_used == 0


def test_ek_integral_requires_positive_real_gamma():
    G = make_group(3)
    with pytest.raises(DomainError, match="integral representation requires"):
        ek_integral(G, ParameterK(-0.2, 3), (1.0, 0.0), (1.0, 1.0), 1e-8)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", [0.3, 1.0, 2.5])
def test_ek_integral_agrees_with_series(n, k, rng):
    # arguments scaled so delta*a stays within the documented conditioning
    # range of the contour quadrature
    G = make_group(n)
    P = ParameterK(k, n)
    da_cap = 4.0
    x = rng.uniform(0.3, 1.0, size=2)
    y = rng.uniform(0.3, 1.0, size=2)
    orbit = orbit_pairings(G, x, y)
    da = delta_effective(P).delta_effective * orbit.a_bound
    if da > da_cap:
        y = y * (da_cap / da)
    s = ek_series(G, P, x, y, 1e-12)
    i = ek_integral(G, P, x, y, 1e-8)
    assert rel_err(s.value, i.value) <= 1e-6


def test_ek_integral_complex_parameter(rng):
    G = make_group(2)
    P = ParameterK(0.5 + 0.3j, 2)  # Re(gamma) = 1 > 0
    x = rng.uniform(0.2, 0.9, size=2)
    y = rng.uniform(0.2, 0.9, size=2)
    s = ek_series(G, P, x, y, 1e-12)
    i = ek_integral(G, P, x, y, 1e-8)
    assert rel_err(s.value, i.value) <= 1e-6


@pytest.mark.parametrize(
    "n, k, x, y",
    [(5, 0.4, (1.0, 0.0), (0.5, 0.5)), (2, 1.3, (1.8, 0.0), (0.3, 0.6))],
)
def test_ek_integral_tail_includes_the_last_floor(n, k, x, y, monkeypatch):
    # These points settle in one pass.  Its tail is the spread
    # |Q - Q_half| + |Q - Q_8| plus its floor; here the spread is 1.3 and 1.4
    # times the floor, so the tail is the floor's size, not the tolerance's.
    floors = []

    def spy(*args):
        floors.append(floor_of_pass(*args))
        return floors[-1]

    floor_of_pass = kernel._pass_floor
    monkeypatch.setattr(kernel, "_pass_floor", spy)
    res = ek_integral(make_group(n), ParameterK(k, n), x, y, 1e-8)
    assert len(floors) == 1 and floors[-1] > 0.0
    assert res.tail_estimate >= floors[-1]
    assert res.tail_estimate <= 5.0 * floors[-1]


def test_ek_integral_overflow_guard_does_not_warn(monkeypatch):
    # a finite pass value within a factor 4 of the double range: the guard
    # refuses it with a ConvergenceError, not a numpy overflow warning (the
    # suite turns RuntimeWarning into an error)
    def huge_end(t, inv, pref, end_pref):
        sums = np.zeros((t.size + 1,) + pref.shape[1:], dtype=complex)
        sums[-1] = 1e308
        return sums

    monkeypatch.setattr(kernel, "_contour_sum", huge_end)
    with pytest.raises(ConvergenceError, match="overflows double precision"):
        ek_integral(make_group(3), ParameterK(1.0, 3), (1.0, 0.0), (0.8, 0.6), 1e-8)


@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("rho_scale", [0.4, 1.0, 1.6])
def test_embedded_half_rule_is_the_half_node_rule(N, rho_scale):
    # the even nodes of the N-node rule, with weights 2 pref_2j, sum to what
    # a separately built N/2-node rule gives, from the same exponentials;
    # delta a = 0.78 keeps the terms' cancellation from amplifying rounding
    G, P = make_group(3), ParameterK(0.7 + 0.2j, 3)
    x, y = (0.5, 0.1), (0.3, 0.2)
    orbit = orbit_pairings(G, x, y)
    rho = rho_scale / (2.0 * delta_effective(P).delta_effective * orbit.a_bound)
    S = series_for_radius(P, orbit, rho, 1e-13)
    t = np.linspace(0.0, 1.0, 41)
    inv, pref = _contour_rule(P, orbit, S, rho, N)
    both = contour_body(t, inv, np.column_stack([pref, _embedded_half(pref)]))
    half = contour_body(t, *_contour_rule(P, orbit, S, rho, N // 2))
    full = contour_body(t, inv, pref)
    assert np.max(np.abs(both[:, 0] - full)) <= 1e-14 * np.max(np.abs(full))
    assert np.max(np.abs(both[:, 1] - half)) <= 1e-14 * np.max(np.abs(half))


@pytest.mark.parametrize("panels", [1, 3, 14, 24, 448])
def test_log_panels_are_each_rule_tiled_panel_by_panel(panels):
    # bit for bit the nodes and weights of each rule built on its own
    lo = math.log(0.05)
    v, w = _log_panels(lo, panels)
    parts = []
    for points in (16, 8):
        base_x, base_w = np.polynomial.legendre.leggauss(points)
        half = -lo / (2 * panels)
        mid = lo + half * (2 * np.arange(panels) + 1)
        parts.append(((mid[:, None] + half * base_x).reshape(-1), np.tile(half * base_w, panels)))
    np.testing.assert_array_equal(v, np.concatenate([parts[0][0], parts[1][0]]))
    np.testing.assert_array_equal(w, np.concatenate([parts[0][1], parts[1][1]]))


@pytest.mark.parametrize("gamma", _ENDPOINT_GAMMAS)
@pytest.mark.parametrize("s0, panels", [(0.4, 1), (0.05, 3), (0.05, 24), (1e-3, 14)])
def test_eight_point_log_panels_integrate_an_exponential(gamma, s0, panels):
    # the coarser rule each pass compares against, on the same panels
    v, w = (a[16 * panels :] for a in _log_panels(math.log(s0), panels))
    assert v.size == w.size == 8 * panels
    assert np.all((math.log(s0) < v) & (v < 0.0))
    ref = (1.0 - s0**gamma) / gamma
    assert abs(np.sum(w * np.exp(gamma * v)) - ref) <= 1e-13 * abs(ref)


def test_ek_integral_starts_at_the_node_floor(monkeypatch):
    # a = 5 against C = 3 < 2a puts the radius at its cap 1/(2a), so 3e/rho =
    # 6e a = 81.5: the first pass takes 128 nodes, enough for its embedded
    # 64-node rule, and settles
    passes, rule = [], kernel._contour_rule

    def counted_rule(*args):
        passes.append(args[-1])
        return rule(*args)

    monkeypatch.setattr(kernel, "_contour_rule", counted_rule)
    G, P, x = make_group(3), ParameterK(1.0, 3), (1.0, 0.0)
    y = np.array([0.6, 0.8])
    y *= 5.0 / orbit_pairings(G, x, y).a_bound
    res = ek_integral(G, P, x, y, 1e-8)
    assert passes == [128] and res.nodes_used == 128
    assert rel_err(res.value, ek_series(G, P, x, y, 1e-12).value) <= 1e-8


_RADIUS_GRID_A = [
    5e-324, 1e-310, 1e-300, 1e-150, 1e-10, 1e-3, 0.5, 1.0, 7.0, 1e3, 1e10, 1e100, 1e154
]
_RADIUS_GRID_C = [1e-3, 0.1, 1.0, 3.0, 50.0, 1e3, 1e6]


@pytest.mark.parametrize("a", _RADIUS_GRID_A)
@pytest.mark.parametrize("C", _RADIUS_GRID_C)
def test_contour_radius_minimises_the_amplification(a, C):
    # rho minimises f(rho) = 1/rho - C log(1 - a rho) on (0, 1/(2a)]: inside
    # it, where C > 2a, it is the root of C a rho^2 + a rho = 1; past it, f
    # still falls at the cap.  f is convex, so a step of 1e-4 either way
    # that stays in the interval does not lower it.
    rho = kernel.contour_radius(a, C)
    assert 0.0 < rho < math.inf and a * rho <= 0.5

    def f(r):
        return 1.0 / r - C * math.log1p(-a * r)

    for step in (1.0 - 1e-4, 1.0 + 1e-4):
        if a * (rho * step) <= 0.5:
            assert f(rho) <= f(rho * step) * (1.0 + 1e-12)
    if C > 2.0 * a:
        assert abs(a * rho * (C * rho + 1.0) - 1.0) <= 1e-14
    else:
        assert rho == 0.5 / a


def test_ek_integral_computes_the_wide_band():
    # The wide band: 400 lists with n in 2..8, k in (0.05, 6) + i(-1, 1), x
    # and y U(-2, 2).  At the radius 1/(2 delta a) the route refused 330 of
    # them on its rounding floor, e^(2 delta a) 2^-53; at the minimiser of
    # the amplification every one gives a value within tol of the series
    # route.
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(2, 9))
        k = complex(rng.uniform(0.05, 6.0), rng.uniform(-1.0, 1.0))
        x, y = (tuple(map(float, p)) for p in rng.uniform(-2.0, 2.0, size=(2, 2)))
        G, P = make_group(n), ParameterK(k, n)
        value = ek_integral(G, P, x, y, 1e-10).value
        ref = ek_series(G, P, x, y, 1e-14).value
        assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref)), (n, k, x, y)


def test_ek_integral_rho_stability(rng, monkeypatch):
    # 0.75 and 1.25 times the contour radius, which stays at most 0.625/a,
    # inside a rho < 1
    inst = draw_instance(rng, positive_gamma=True, delta_a_cap=3.0)
    G, P = inst.group(), inst.parameter()
    radius, values = kernel.contour_radius, []
    for scale in (0.75, 1.25):
        monkeypatch.setattr(kernel, "contour_radius", lambda a, C: scale * radius(a, C))
        values.append(ek_integral(G, P, inst.x, inst.y, 1e-9).value)
    assert rel_err(*values) <= 1e-8


# ---------------------------------------------------------------------------
# growth bounds


def test_em_bound_x_zero():
    G = make_group(3)
    rep = check_em_bound(G, ParameterK(0.5, 3), (0.0, 0.0), (1.0, 1.0), 30, 0)
    assert rep.max_ratio == 0.0 and rep.passed


def test_em_bound_degree_one_is_slack(rng):
    inst = draw_instance(rng)
    rep = check_em_bound(inst.group(), inst.parameter(), inst.x, inst.y, 1, 2)
    # |<x,y>/(1+gamma)| <= (e^2/2) * 9 * delta*a / |1+gamma| holds with room
    assert rep.max_ratio <= 2.0 / (9.0 * math.e**2 / 2.0)


def test_em_bound_negative_real_gamma(rng):
    # Re(gamma) in (-1, 0), nu = 1
    G = make_group(4)
    P = ParameterK(-0.05, 4)  # gamma = -0.2, 2*gamma = -0.4: admissible
    for _ in range(3):
        x = rng.uniform(-1, 1, size=2)
        y = rng.uniform(-1, 1, size=2)
        rep = check_em_bound(G, P, x, y, 60, 1)
        assert rep.passed


@pytest.mark.parametrize(
    "k, x, M",
    [
        (0.5, (1e-160, 0.0), 3),  # a tiny: bound and |E_m| underflow to 0
        (-0.166666, (1.0, 0.0), 100),  # 2 gamma near -1: delta a = 2.5e5, bound overflows
    ],
)
def test_em_bound_outside_double_range_is_no_violation(k, x, M):
    rep = check_em_bound(make_group(3), ParameterK(k, 3), x, (1.0, 0.0), M, 1)
    assert math.isfinite(rep.max_ratio) and rep.max_ratio <= 1.0 and rep.passed


def test_em_bound_rejects_wrong_nu():
    G = make_group(4)
    with pytest.raises(DomainError):
        check_em_bound(G, ParameterK(-0.2, 4), (1, 0), (1, 1), 10, 0)  # gamma=-0.8


def test_ek_bound_x_zero():
    G = make_group(3)
    rep = check_ek_bound(G, ParameterK(0.5, 3), (0.0, 0.0), (1.0, 1.0), 1)
    assert rep.ratio == pytest.approx(1.0)
    assert rep.passed and rep.constant >= 1.0


def test_ek_bound_along_scaling_ray():
    # doubling x doubles the orbit bound; the ratio stays below the constant
    G = make_group(2)
    P = ParameterK(0.6, 2)  # gamma = 1.2, modest delta keeps sums finite
    x0 = np.array([0.7, 0.4])
    y = np.array([0.8, 0.3])
    for s in (1.0, 2.0, 4.0, 6.0 / 0.85):
        rep = check_ek_bound(G, P, s * x0, y, 1)
        assert rep.passed


@pytest.mark.parametrize(
    "n, k, x, y, nu",
    [
        (6, 1.4843, (-5.7, 0.0), (7.2, 0.0), 1),  # delta a = 731: e^(delta a) overflows
        (3, 0.5, (1.0, 0.0), (1.0, 1.0), 1000),  # (delta a + 1)^(nu+2) overflows
    ],
)
def test_ek_bound_past_double_range_reads_zero(n, k, x, y, nu):
    rep = check_ek_bound(make_group(n), ParameterK(k, n), x, y, nu)
    assert rep.ratio == 0.0 and rep.constant == 0.0 and rep.passed


def test_ek_bound_k_zero_shortcut():
    G = make_group(3)
    rep = check_ek_bound(G, ParameterK(0.0, 3), (1.0, 0.5), (0.5, 1.0), 1)
    assert rep.passed and rep.ratio <= 1.0


def test_k_zero_shortcut_past_the_double_range_is_a_range_error():
    # exp(<x,y>) = exp(1600) overflows, in the kernel and in its bound check
    G, P = make_group(3), ParameterK(0.0, 3)
    for evaluate in (lambda: ek_series(G, P, (40.0, 0.0), (40.0, 0.0), 1e-10),
                     lambda: check_ek_bound(G, P, (40.0, 0.0), (40.0, 0.0), 1)):
        with pytest.raises(DomainError, match="overflows") as info:
            evaluate()
        assert info.value.code == "range-error"


@pytest.mark.parametrize("N", [8, 64, 128, 8192])
def test_contour_constants_are_cached_and_read_only(N):
    circle, cosines, powers = kernel._circle_tables(N)
    assert all(a is b for a, b in zip(kernel._circle_tables(N), (circle, cosines, powers)))
    roots = np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)
    np.testing.assert_array_equal(circle[: N // 2], roots[: N // 2])
    assert circle.size == N and circle[N // 2] == roots[N // 2].real == -1.0
    np.testing.assert_array_equal(cosines, np.cos(2.0 * np.pi * np.arange(N) / N))
    panels = N // 8
    layout = kernel._panel_layout(panels)
    assert kernel._panel_layout(panels)[0] is layout[0]
    assert all(arr.shape == (24 * panels,) for arr in layout)
    for arr in (circle, cosines, powers, *layout):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# series_for_radius: the majorant of Phi and the order it picks


def _log_majorant(C: float, a: float, p: np.ndarray) -> np.ndarray:
    """log((C)_p a^p / p!) at the orders p, by lgamma."""
    return np.array([math.lgamma(C + q) - math.lgamma(C) - math.lgamma(q + 1) for q in p]) + p * (
        math.log(a)
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 8),
    band=st.sampled_from([(-2.5, -0.05), (0.05, 3.0), (3.0, 40.0)]),
    re_frac=st.floats(0.0, 1.0),
    im_k=st.floats(-1.0, 1.0),
    x=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    y=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    y_im=st.one_of(st.none(), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))),
)
def test_phi_lies_under_twice_its_majorant(n, band, re_frac, im_k, x, y, y_im):
    # |phi_p| <= 2 v_0 (C)_p a^p / p!, v_0 = 2n/|gamma|, C = delta_series,
    # for p <= 60: Re(gamma) in three bands, one of them negative, complex y
    re_gamma = band[0] + re_frac * (band[1] - band[0])
    P = ParameterK(complex(re_gamma / n, im_k), n)
    try:
        P.require_regular()
    except DomainError:
        return
    yv = np.array(y, dtype=complex) + (1j * np.array(y_im) if y_im is not None else 0.0)
    orbit = orbit_pairings(make_group(n), x, yv)
    if orbit.a_bound == 0.0:
        return
    phi = a_coeffs(P, orbit, 60).phi
    p = np.arange(61)
    log_v = math.log(2.0 * n / abs(P.gamma)) + _log_majorant(
        delta_effective(P).delta_series, orbit.a_bound, p
    )
    nonzero = phi != 0
    assert np.all(np.log(np.abs(phi[nonzero])) <= math.log(2.0) + log_v[nonzero] + 1e-9)


def _truncation_bound(P, orbit, rho, log_amp, order):
    """e^log_amp 2 v_0 q_(P+1) / (1 - r), the bound series_for_radius
    meets, written with lgamma."""
    C, x = delta_effective(P).delta_series, orbit.a_bound * rho
    log_q = _log_majorant(C, x, np.array([order + 1]))[0]
    r = x * max(1.0, (C + order + 1) / (order + 2))
    return math.exp(log_amp + math.log(4.0 * P.n / abs(P.gamma)) + log_q) / (1.0 - r)


def _spy_series_for_radius(monkeypatch, order_of=None):
    """Record the arguments and order of each series_for_radius call;
    order_of(order), when given, replaces the order that is returned."""
    calls = []
    chosen = kernel.series_for_radius

    def spy(P, orbit, rho, tol, log_amp=0.0):
        S = chosen(P, orbit, rho, tol, log_amp)
        calls.append((P, orbit, rho, tol, log_amp, S.order))
        return S if order_of is None else a_coeffs(P, orbit, order_of(S.order))

    monkeypatch.setattr(kernel, "series_for_radius", spy)
    return calls


def test_series_order_is_the_smallest_that_meets_the_target(monkeypatch):
    # on ek_integral's own calls: the chosen order meets the target, and the
    # order below it does not
    calls = _spy_series_for_radius(monkeypatch)
    rng = np.random.default_rng(2201)
    for _ in range(40):
        inst = draw_instance(rng, positive_gamma=True, delta_a_cap=6.0)
        for tol in (1e-8, 1e-14):
            # the order is chosen before the passes, which at tol 1e-14 may
            # refuse on their rounding floor
            try:
                ek_integral(inst.group(), inst.parameter(), inst.x, inst.y, tol)
            except ConvergenceError as exc:
                assert tol == 1e-14 and "rounding floor" in str(exc)
    assert len(calls) == 80
    orders = [call[-1] for call in calls]
    assert min(orders) > 0 and max(orders) < 80
    for P, orbit, rho, tol, log_amp, order in calls:
        assert tol == min(1e-3 * 1e-8, 2.0**-53) or tol == 1e-3 * 1e-14
        assert _truncation_bound(P, orbit, rho, log_amp, order) <= tol * (1.0 + 1e-9)
        assert _truncation_bound(P, orbit, rho, log_amp, order - 1) > tol * (1.0 - 1e-9)


def test_truncated_value_lies_within_the_truncation_bound(monkeypatch):
    # with the cap of one rounding unit lifted, the target is tol 1e-3 = 1e-6,
    # far above rounding, and moving to order 2P + 20 moves the value by no
    # more than the bound at P
    monkeypatch.setattr(kernel, "_ULP", 1.0)
    rng = np.random.default_rng(2202)
    checked = 0
    for _ in range(12):
        inst = draw_instance(rng, positive_gamma=True, delta_a_cap=6.0)
        G, P, x, y = inst.group(), inst.parameter(), inst.x, inst.y
        with monkeypatch.context() as m:
            calls = _spy_series_for_radius(m)
            res = ek_integral(G, P, x, y, 1e-3)
        with monkeypatch.context() as m:
            _spy_series_for_radius(m, order_of=lambda order: 2 * order + 20)
            more = ek_integral(G, P, x, y, 1e-3)
        if res.nodes_used != more.nodes_used:
            continue
        (_, orbit, rho, tol, log_amp, order), = calls
        bound = _truncation_bound(P, orbit, rho, log_amp, order)
        assert bound <= tol == 1e-6
        assert abs(res.value - more.value) <= bound
        assert res.tail_estimate >= tol
        checked += 1
    assert checked >= 10


def test_series_order_refused_where_the_amplified_target_underflows(monkeypatch):
    # n = 3, k = 1e6: 1/rho, about sqrt(C a) = 2864, and the factor
    # gamma^2/2n amplify a Phi error by e^2876.7, so the target is below the
    # double range; refused before a_coeffs runs
    def no_coefficients(*args):
        raise AssertionError("a_coeffs ran")

    monkeypatch.setattr(kernel, "a_coeffs", no_coefficients)
    with pytest.raises(ConvergenceError, match=r"amplified by e\^2876\.7\b"):
        ek_integral(make_group(3), ParameterK(1e6, 3), (1.0, 0.0), (1.0, 1.0), 1e-8)
    # at k = 1e300 the factor gamma^2/2n itself is past the double range
    with pytest.raises(DomainError, match="past the double range") as info:
        ek_integral(make_group(3), ParameterK(1e300, 3), (1.0, 0.0), (1.0, 1.0), 1e-8)
    assert info.value.code == "range-error"
    # and at pairings near 1e308, a + sqrt(a^2 + 4 C a) overflows, so the
    # radius reads 0
    with pytest.raises(ConvergenceError, match=r"radius underflows: a = 1e\+308"):
        ek_integral(make_group(2), ParameterK(1.0, 2), (1e154, 0.0), (1e154, 0.0), 1e-8)


def test_integral_at_a_vanishing_real_part_is_not_refused():
    # Re(gamma) = 3e-300 beside Im(gamma) = 1.5: the amplification reads the
    # mass the rule puts on |s^(gamma-1)|, about log(1/s0) + 1/|gamma| here,
    # not 1/Re(gamma) = e^690, so the target stays in the double range
    G, P, x, y = make_group(3), ParameterK(1e-300 + 0.5j, 3), (1.0, 0.0), (1.0, 1.0)
    res = ek_integral(G, P, x, y, 1e-8)
    ref = ek_series(G, P, x, y, 1e-14)
    assert abs(res.value - ref.value) <= res.tail_estimate + ref.tail_estimate


@pytest.mark.parametrize("N", [8, 9, 10, 64, 127, 128, 8192])
def test_unit_circle_node_n_minus_j_is_the_conjugate_of_node_j(N):
    # every j, the node N/2 of an even N (its own mirror, so real) included
    circle = kernel._circle_tables(N)[0]
    j = np.arange(N)
    assert np.array_equal(circle[(N - j) % N], np.conj(circle))
    assert circle[0] == 1.0 and (N % 2 or circle[N // 2] == -1.0)


@pytest.mark.parametrize("N", [8, 9, 64, 128, 8192])
def test_endpoint_powers_are_the_node_powers_conjugate_symmetric(N):
    # row j holds w^(-j l), l < 24, within rounding of the powers of the
    # reciprocal nodes; row N-j is the exact conjugate of row j, so real
    # endpoint terms give exactly conjugate-symmetric weights
    circle, _, table = kernel._circle_tables(N)
    assert kernel._circle_tables(N)[2] is table and table.shape == (N, 24)
    inv = 1.0 / circle
    np.testing.assert_allclose(table, np.vander(inv, 24, increasing=True), rtol=0, atol=2e-14)
    j = np.arange(1, N)
    assert np.array_equal(table[N - j], np.conj(table[j]))
    terms = _endpoint_coefficients(1.5, 0.3) * (-1.0) ** np.arange(24)
    weights = table @ terms
    assert np.array_equal(weights[N - j], np.conj(weights[j]))
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
