import math

import numpy as np
import pytest

from conftest import eval_q, rel_err, residual_check
from dunkl_dihedral.dihedral import make_group, orbit_pairings
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.kernel import delta_effective
from dunkl_dihedral.polyalg import ParameterK, rising_factorials
from dunkl_dihedral.recurrence import em_sequence
from dunkl_dihedral.sampling import draw_instance
from dunkl_dihedral.series import (
    SeriesData,
    a_coeffs,
    em_closed_sigma,
    em_genseries,
    g_values,
    phi_sigma_invariant,
)


def _product_series_coeffs(k: complex, cs: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients of prod_i (1 - z c_i)^(-k), by convolving the
    univariate binomial series (independent expansion oracle)."""
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    rising = rising_factorials(k, order)
    facts = np.array([math.factorial(v) for v in range(order + 1)])
    for c in cs:
        term = (rising / facts) * np.power(c, np.arange(order + 1))
        out = np.convolve(out, term)[: order + 1]
    return out


# ---------------------------------------------------------------------------
# convolution matrices and coefficient recursion


def test_b0_vanishes(rng):
    for _ in range(6):
        inst = draw_instance(rng)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        B0 = a_coeffs(P, orbit, 1).B[0]
        assert np.max(np.abs(B0)) <= 1e-12 * abs(P.gamma) * orbit.a_bound + 1e-300


def test_b_matrix_x_zero():
    G = make_group(3)
    P = ParameterK(0.5, 3)
    orbit = orbit_pairings(G, (0.0, 0.0), (1.0, 1.0))
    for p in range(5):
        assert np.all(a_coeffs(P, orbit, p + 1).B[p] == 0)


def test_b_matrix_frozen_n2():
    # pairings (1,-1)/(1,-1): S+ = 4, S- = 0 -> (gamma/4) diag(4, -4)
    G = make_group(2)
    P = ParameterK(0.5, 2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    B1 = a_coeffs(P, orbit, 2).B[1]
    g = P.gamma
    assert np.allclose(B1, [[g, 0], [0, -g]], atol=1e-15)


def test_seed_and_structural_zero(rng):
    inst = draw_instance(rng)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    S = a_coeffs(P, orbit, 30)
    assert S.A[0, 0] == 2.0 * inst.n / P.gamma and S.A[0, 1] == 0.0
    scale = (2.0 * inst.n / abs(P.gamma)) * max(orbit.a_bound, 1.0)
    assert np.max(np.abs(S.A[1])) <= 1e-12 * scale
    assert S.phi[0] == 2.0 * inst.n / P.gamma


def test_coefficient_bound(rng):
    for _ in range(6):
        inst = draw_instance(rng)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        S = a_coeffs(P, orbit, 80)
        da = delta_effective(P).delta_effective * orbit.a_bound
        amp = 2.0 * inst.n / abs(P.gamma)
        norms = np.linalg.norm(S.A, axis=1)
        for p in range(81):
            assert norms[p] <= amp * da**p * (1 + 1e-9)


def test_regularity_error_names_offender():
    G = make_group(2)
    P = ParameterK(-1.0, 2)  # 2*gamma = -4
    orbit = orbit_pairings(G, (1.0, 0.0), (0.5, 0.5))
    with pytest.raises(DomainError, match="p = 4"):
        a_coeffs(P, orbit, 10)


# ---------------------------------------------------------------------------
# rational driving sums


def test_g_values_at_origin(rng):
    inst = draw_instance(rng)
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    g0, gs0 = g_values(orbit, 0.0)
    tol = 1e-12 * orbit.a_bound * inst.n + 1e-300
    assert abs(g0) <= tol and abs(gs0) <= tol


def test_g_values_x_zero():
    orbit = orbit_pairings(make_group(4), (0.0, 0.0), (1.0, 2.0))
    assert g_values(orbit, 0.37 + 0.2j) == (0.0, 0.0)


def test_g_swap_symmetry(rng):
    for _ in range(6):
        inst = draw_instance(rng)
        G = inst.group()
        orbit = orbit_pairings(G, inst.x, inst.y)
        z = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        fwd = g_values(orbit, z)
        bwd = g_values(orbit_pairings(G, inst.y, inst.x), z)
        # tolerance scaled by the summand magnitude: the sums themselves can
        # be tiny through cancellation
        tol = 1e-12 * max(1.0, 2 * inst.n * orbit.a_bound)
        assert abs(fwd[0] - bwd[0]) <= tol
        assert abs(fwd[1] - bwd[1]) <= tol


def test_g_pole_rejected():
    G = make_group(2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(DomainError, match="pole"):
        g_values(orbit, 1.0)  # 1 - z*<x,y> = 0


# ---------------------------------------------------------------------------
# differential-system residual


def test_residual_small_on_random_instances(rng):
    for _ in range(5):
        inst = draw_instance(rng)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        S = a_coeffs(P, orbit, 80)
        da = delta_effective(P).delta_effective * orbit.a_bound
        radius = 1.0 / (4.0 * da) if da > 0 else 0.25
        for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            z = radius * np.exp(1j * theta)
            assert residual_check(P, orbit, S, z) <= 1e-8


def test_residual_x_zero():
    G = make_group(3)
    P = ParameterK(0.5, 3)
    orbit = orbit_pairings(G, (0.0, 0.0), (1.0, 1.0))
    S = a_coeffs(P, orbit, 20)
    assert residual_check(P, orbit, S, 0.1) == 0.0


def test_closed_form_solves_system(rng):
    # mirror-axis closed solution checked by symbolic differentiation of the
    # product form (independent of the coefficient recursion)
    inst = draw_instance(rng, sigma_invariant=True, real_k=True, positive_gamma=True)
    P = inst.parameter()
    G = inst.group()
    orbit = orbit_pairings(G, inst.x, inst.y)
    da = delta_effective(P).delta_effective * orbit.a_bound
    cs = orbit.rot_pairings

    def q1(z):
        prod = np.prod((1.0 - z * cs) ** (-P.k))
        return -(2.0 / P.k) * (1.0 - prod)

    def q1_prime(z):
        prod = np.prod((1.0 - z * cs) ** (-P.k))
        h = np.sum(cs / (1.0 - z * cs))
        return 2.0 * prod * h

    for theta in (0.3, 1.7, 4.0):
        z = (1.0 / (4.0 * da)) * np.exp(1j * theta)
        g, gs = g_values(orbit, z)
        pref = P.gamma / (2.0 * P.n)
        r1 = q1_prime(z) - (g + pref * g * q1(z))  # second component is zero
        r2 = gs + pref * gs * q1(z)
        assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8


def test_uniqueness_regression(rng):
    # perturbing the forced-zero first coefficient and re-running the forward
    # recursion must leave a visible residual: the vanishing-at-zero solution
    # is unique
    inst = draw_instance(rng)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    S = a_coeffs(P, orbit, 60)
    A = S.A.copy()
    A[1] = (0.7, -0.4)
    for p in range(2, 61):
        acc = np.zeros(2, dtype=complex)
        for i in range(p):
            acc += S.B[p - 1 - i] @ A[i]
        A[p, 0] = acc[0] / p
        A[p, 1] = acc[1] / (p + 2 * P.gamma)
    phi = S.phi.copy()
    phi[1:] = A[1:, 0] - A[1:, 1]
    perturbed = SeriesData(order=60, B=S.B, A=A, phi=phi)
    da = delta_effective(P).delta_effective * orbit.a_bound
    zs = (1.0 / (4.0 * da)) * np.exp(1j * np.linspace(0, 2 * np.pi, 6, endpoint=False))
    assert max(residual_check(P, orbit, perturbed, z) for z in zs) > 1e-3


# ---------------------------------------------------------------------------
# generating-series extraction


def test_genseries_degree_zero_and_one(rng):
    inst = draw_instance(rng)
    G, P = inst.group(), inst.parameter()
    orbit = orbit_pairings(G, inst.x, inst.y)
    ems = em_genseries(G, P, inst.x, inst.y, 1)
    assert rel_err(ems[0], 1.0) <= 1e-14
    expected = orbit.xy / (1.0 + P.gamma)
    assert rel_err(ems[1], expected) <= 1e-12


def test_genseries_matches_recurrence(rng):
    for _ in range(6):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        ems = em_sequence(G, P, inst.x, inst.y, 30)
        gen = em_genseries(G, P, inst.x, inst.y, 30)
        for m in range(31):
            assert rel_err(gen[m], ems[m]) <= 1e-9


def test_phi_bound(rng):
    # |Phi(z)| <= (4n/|gamma|) / (1 - delta a |z|) plus the truncation tail
    for _ in range(4):
        inst = draw_instance(rng)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        S = a_coeffs(P, orbit, 80)
        da = delta_effective(P).delta_effective * orbit.a_bound
        amp = 2.0 * inst.n / abs(P.gamma)
        for frac in (0.3, 0.6, 1.0):
            r = frac / (2.0 * da) if da > 0 else frac
            z = r * np.exp(0.9j)
            tail = math.sqrt(2) * amp * (da * r) ** 81 / (1.0 - da * r) if da > 0 else 0.0
            phi_z = np.polynomial.polynomial.polyval(z, S.phi)
            assert abs(phi_z) <= 2.0 * amp / (1.0 - da * r) + tail + 1e-12


def test_series_swap_symmetry(rng):
    for _ in range(5):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        S_xy = a_coeffs(P, orbit_pairings(G, inst.x, inst.y), 40)
        S_yx = a_coeffs(P, orbit_pairings(G, inst.y, inst.x), 40)
        scale = np.max(np.abs(S_xy.A)) + np.max(np.abs(S_yx.A))
        assert np.max(np.abs(S_xy.A - S_yx.A)) <= 1e-10 * scale
        assert np.max(np.abs(S_xy.phi - S_yx.phi)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# mirror-axis closed forms


def test_phi_sigma_at_origin(rng):
    inst = draw_instance(rng, sigma_invariant=True)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    assert rel_err(phi_sigma_invariant(P, orbit, 0.0), 2.0 / P.k) <= 1e-14


def test_phi_sigma_two_factor_product():
    # n = 2, x = (1, 0): pairings are +/- y1, so Phi = (2/k)(1 - z^2 y1^2)^(-k)
    G = make_group(2)
    P = ParameterK(0.3 + 0.2j, 2)
    y = (0.9, 0.4)
    orbit = orbit_pairings(G, (1.0, 0.0), y)
    for z in (0.1, 0.3 + 0.2j, -0.45j):
        expected = (2.0 / P.k) * (1.0 - z * z * y[0] * y[0]) ** (-P.k)
        assert rel_err(phi_sigma_invariant(P, orbit, z), expected) <= 1e-12


def test_phi_sigma_matches_series_coefficients(rng):
    # Taylor coefficients of the closed product equal the recursion output
    for _ in range(4):
        inst = draw_instance(rng, sigma_invariant=True)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        S = a_coeffs(P, orbit, 25)
        expansion = (2.0 / P.k) * _product_series_coeffs(P.k, orbit.rot_pairings, 25)
        scale = np.max(np.abs(expansion))
        assert np.max(np.abs(S.phi - expansion)) <= 1e-10 * scale
        # and the solution's second component vanishes on the mirror axis
        assert np.max(np.abs(S.A[:, 1])) <= 1e-10 * scale


def test_phi_sigma_rejects_generic_arguments():
    G = make_group(3)
    P = ParameterK(0.5, 3)
    orbit = orbit_pairings(G, (1.0, 0.7), (0.4, 0.8))
    with pytest.raises(DomainError, match="mirror"):
        phi_sigma_invariant(P, orbit, 0.1)


def test_em_closed_sigma_low_degrees(rng):
    inst = draw_instance(rng, sigma_invariant=True)
    G, P = inst.group(), inst.parameter()
    orbit = orbit_pairings(G, inst.x, inst.y)
    closed = em_closed_sigma(G, P, inst.x, inst.y, 1)
    assert closed[0] == 1.0
    expected = orbit.xy / (1.0 + P.gamma)
    assert rel_err(closed[1], expected) <= 1e-12


def test_em_closed_sigma_frozen_instance():
    G = make_group(2)
    P = ParameterK(0.5, 2)
    closed = em_closed_sigma(G, P, (1.0, 0.0), (1.0, 1.0), 4)[4]
    ems = em_sequence(G, P, (1.0, 0.0), (1.0, 1.0), 4)
    assert rel_err(closed, ems[4]) <= 1e-10


def test_em_closed_sigma_rejects_generic_arguments():
    G = make_group(3)
    with pytest.raises(DomainError, match="mirror"):
        em_closed_sigma(G, ParameterK(0.5, 3), (1.0, 0.7), (0.4, 0.8), 3)


def test_q_vanishes_at_origin(rng):
    inst = draw_instance(rng)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    S = a_coeffs(P, orbit, 20)
    assert np.all(eval_q(S, 0.0) == 0.0)
