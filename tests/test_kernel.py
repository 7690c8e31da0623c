import cmath
import math

import numpy as np
import pytest

from conftest import rel_err
from dunkl_dihedral.dihedral import make_group, orbit_pairings
from dunkl_dihedral.errors import ConvergenceError, DomainError
from dunkl_dihedral.kernel import (
    _log_component_bound,
    certified_terms,
    check_ek_bound,
    check_em_bound,
    delta_effective,
    ek_integral,
    ek_series,
    ek_sigma_closed,
    kernel_K,
    series_for_radius,
    transition_norm_sum,
)
from dunkl_dihedral.polyalg import ParameterK, oracle_em
from dunkl_dihedral.sampling import draw_instance, draw_parameter
from dunkl_dihedral.series import a_coeffs


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
    log_bound = _log_component_bound(P, delta_a, 120)
    poch = 1.0
    for m in range(121):
        expected = (math.e**2 / 2.0) * (m + 2) ** 2 * delta_a**m / poch
        assert math.exp(log_bound[m]) == pytest.approx(expected, rel=1e-12)
        poch *= abs(1.0 + P.gamma + m)


def test_certified_terms_rejects_hopeless_scale():
    P = ParameterK(0.55, 2)
    with pytest.raises(ConvergenceError, match="delta \\* a"):
        certified_terms(P, 3000.0, 1e-8)


def test_ek_sigma_closed_matches_series(rng):
    for _ in range(4):
        inst = draw_instance(rng, sigma_invariant=True)
        G, P = inst.group(), inst.parameter()
        a = ek_series(G, P, inst.x, inst.y, 1e-10)
        b = ek_sigma_closed(G, P, inst.x, inst.y, 1e-10)
        assert b.method == "sigma-closed"
        assert rel_err(a.value, b.value) <= 1e-8


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


# ---------------------------------------------------------------------------
# integral representation


def test_ek_integral_at_origin():
    # K is constant gamma, so the weighted-time integral is a plain Beta value
    G = make_group(3)
    res = ek_integral(G, ParameterK(0.5, 3), (0.0, 0.0), (1.0, 1.0), 1e-9)
    assert abs(res.value - 1.0) <= 1e-9


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


def test_ek_integral_rho_stability(rng):
    inst = draw_instance(rng, positive_gamma=True, delta_a_cap=3.0)
    G, P = inst.group(), inst.parameter()
    lo = ek_integral(G, P, inst.x, inst.y, 1e-9, rho_scale=0.75)
    hi = ek_integral(G, P, inst.x, inst.y, 1e-9, rho_scale=1.25)
    assert rel_err(lo.value, hi.value) <= 1e-8


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


def test_ek_bound_k_zero_shortcut():
    G = make_group(3)
    rep = check_ek_bound(G, ParameterK(0.0, 3), (1.0, 0.5), (0.5, 1.0), 1)
    assert rep.passed and rep.ratio <= 1.0
