import math
import tracemalloc

import numpy as np
import pytest

from conftest import eval_q, rel_err, residual_check
from definitions import _a_coeffs_by_loop, _recur_by_loop, g_values, phi_sigma_invariant
from dunkl_dihedral.dihedral import BLOCK_ENTRIES, MAX_N, make_group, orbit_pairings
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.kernel import delta_effective
from dunkl_dihedral.polyalg import ParameterK, factorial_table, pochhammer_table
from dunkl_dihedral.polyalg import rising_factorials
from dunkl_dihedral.recurrence import em_sequence
from dunkl_dihedral.sampling import DEFAULT_ORDERS, draw_instance
from dunkl_dihedral.series import DENSE_MAX_N, _phi_coefficients, a_coeffs
from dunkl_dihedral.series import em_closed_sigma, em_genseries


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
        B0 = _a_coeffs_by_loop(P, orbit, 1)[0][0]
        assert np.max(np.abs(B0)) <= 1e-12 * abs(P.gamma) * orbit.a_bound + 1e-300


def test_b_matrix_x_zero():
    G = make_group(3)
    P = ParameterK(0.5, 3)
    orbit = orbit_pairings(G, (0.0, 0.0), (1.0, 1.0))
    for p in range(5):
        assert np.all(_a_coeffs_by_loop(P, orbit, p + 1)[0][p] == 0)


def test_b_matrix_frozen_n2():
    # pairings (1,-1)/(1,-1): S+ = 4, S- = 0 -> (gamma/4) diag(4, -4)
    G = make_group(2)
    P = ParameterK(0.5, 2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    B1 = _a_coeffs_by_loop(P, orbit, 2)[0][1]
    g = P.gamma
    assert np.allclose(B1, [[g, 0], [0, -g]], atol=1e-15)


def test_seed_and_structural_zero(rng):
    inst = draw_instance(rng)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    _, A = _a_coeffs_by_loop(P, orbit, 30)
    assert A[0, 0] == 2.0 * inst.n / P.gamma and A[0, 1] == 0.0
    scale = (2.0 * inst.n / abs(P.gamma)) * max(orbit.a_bound, 1.0)
    assert np.max(np.abs(A[1])) <= 1e-12 * scale
    assert a_coeffs(P, orbit, 30).phi[0] == 2.0 * inst.n / P.gamma


def test_coefficient_bound(rng):
    for _ in range(6):
        inst = draw_instance(rng)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        _, A = _a_coeffs_by_loop(P, orbit, 80)
        da = delta_effective(P).delta_effective * orbit.a_bound
        amp = 2.0 * inst.n / abs(P.gamma)
        norms = np.linalg.norm(A, axis=1)
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
        _, A = _a_coeffs_by_loop(P, orbit, 80)
        da = delta_effective(P).delta_effective * orbit.a_bound
        radius = 1.0 / (4.0 * da) if da > 0 else 0.25
        for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            z = radius * np.exp(1j * theta)
            assert residual_check(P, orbit, A, z) <= 1e-8


def test_residual_x_zero():
    G = make_group(3)
    P = ParameterK(0.5, 3)
    orbit = orbit_pairings(G, (0.0, 0.0), (1.0, 1.0))
    _, A = _a_coeffs_by_loop(P, orbit, 20)
    assert residual_check(P, orbit, A, 0.1) == 0.0


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


# a_coeffs' first block of dense step matrices at n = DENSE_MAX_N
_FIRST_BLOCK = BLOCK_ENTRIES // (2 * DENSE_MAX_N) ** 2


@pytest.mark.parametrize(
    "order, n_choices",
    [pytest.param(order, DEFAULT_ORDERS, id=str(order)) for order in (0, 1, 2, 60, 400)]
    + [
        pytest.param(60, (DENSE_MAX_N,), id="60-at-crossover"),
        pytest.param(60, (DENSE_MAX_N + 1,), id="60-above-crossover"),
        pytest.param(_FIRST_BLOCK + 5, (DENSE_MAX_N,), id="past-first-block"),
        pytest.param(60, (100,), id="60-at-n-100"),
        pytest.param(60, (1000,), id="60-at-n-1000"),
    ],
)
def test_a_coeffs_matches_the_double_loop(order, n_choices, rng):
    for _ in range(3):
        inst = draw_instance(rng, n_choices, delta_a_cap=2.0)
        P = inst.parameter()
        orbit = orbit_pairings(inst.group(), inst.x, inst.y)
        S = a_coeffs(P, orbit, order)
        _, A = _a_coeffs_by_loop(P, orbit, order)
        assert S.order == order and S.phi.shape == (order + 1,)
        # per order, on the scale max(|A_p|, max over the table)
        scale = np.maximum(np.max(np.abs(A), axis=1), np.max(np.abs(A)))
        assert np.all(np.abs(S.phi - (A[:, 0] - A[:, 1])) <= 1e-13 * scale)
        assert S.phi[0] == 2.0 * P.n / P.gamma


@pytest.mark.parametrize("n", [2, 7, DENSE_MAX_N, DENSE_MAX_N + 1])
def test_a_coeffs_prefix_does_not_depend_on_the_order(n, rng):
    # phi[p], bit for bit, whatever order the table runs to: dense blocks
    # cut at other places, one-order last blocks included
    inst = draw_instance(rng, (n,), delta_a_cap=2.0)
    P, orbit = inst.parameter(), orbit_pairings(inst.group(), inst.x, inst.y)
    whole = a_coeffs(P, orbit, 2 * _FIRST_BLOCK + 2).phi
    cuts = [_FIRST_BLOCK - 1, _FIRST_BLOCK, _FIRST_BLOCK + 1, 2 * _FIRST_BLOCK + 1]
    for order in [0, 1, 2, 3, 17, *cuts]:
        assert np.array_equal(a_coeffs(P, orbit, order).phi, whole[: order + 1]), order


def test_a_coeffs_memory_is_bounded_at_the_crossover():
    # 2^14 orders at n = DENSE_MAX_N: the dense step matrices come in blocks
    # of at most BLOCK_ENTRIES entries.  The bound is the peak of this call
    # when every n took a per-order loop over a power-sum table of all the
    # orders at once: 3,278,781 bytes (numpy 2.4).
    n = DENSE_MAX_N
    P = ParameterK(0.4 + 0.2j, n)
    orbit = orbit_pairings(make_group(n), np.array([0.9, 0.3]), np.array([0.5, 0.8]))
    tracemalloc.start()
    try:
        S = a_coeffs(P, orbit, 1 << 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.order == 1 << 14
    assert peak <= 3_278_781


def test_a_coeffs_memory_is_bounded_at_the_largest_n():
    # 500 orders at n = MAX_N: the structured step holds one (2, n) state;
    # a power-sum table of every order at once peaked at 76.4 MiB here
    n = MAX_N
    P = ParameterK(0.4 + 0.2j, n)
    orbit = orbit_pairings(make_group(n), np.array([0.9, 0.3]), np.array([0.5, 0.8]))
    tracemalloc.start()
    try:
        S = a_coeffs(P, orbit, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.order == 500
    assert peak < 2 * 2**20


def test_a_coeffs_caches_small_coefficient_tables_only():
    # a table past 2048 rows (6 MB at order 2^16) is built per call, so the
    # cache of 32 tables stays small; a small one is cached once
    P = ParameterK(0.37 + 0.01j, 2)
    orbit = orbit_pairings(make_group(2), np.array([0.9, 0.3]), np.array([0.5, 0.8]))
    misses = _phi_coefficients.cache_info().misses
    a_coeffs(P, orbit, 3000)
    assert _phi_coefficients.cache_info().misses == misses
    a_coeffs(P, orbit, 12)
    a_coeffs(P, orbit, 20)
    assert _phi_coefficients.cache_info().misses == misses + 1


def test_uniqueness_regression(rng):
    # perturbing the forced-zero first coefficient and re-running the forward
    # recursion must leave a visible residual: the vanishing-at-zero solution
    # is unique
    inst = draw_instance(rng)
    P = inst.parameter()
    orbit = orbit_pairings(inst.group(), inst.x, inst.y)
    B, A = _a_coeffs_by_loop(P, orbit, 60)
    A[1] = (0.7, -0.4)
    _recur_by_loop(B, A, P.gamma, 2)
    da = delta_effective(P).delta_effective * orbit.a_bound
    zs = (1.0 / (4.0 * da)) * np.exp(1j * np.linspace(0, 2 * np.pi, 6, endpoint=False))
    assert max(residual_check(P, orbit, A, z) for z in zs) > 1e-3


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


def _scalar_tail(c: np.ndarray, s: complex, pref: complex, poch: np.ndarray) -> np.ndarray:
    """Reference: the Horner pass and the divisions by (1+gamma)_m on numpy
    scalars, one degree at a time."""
    acc, out = 0.0 + 0.0j, []
    for cm, p in zip(c, poch):
        acc = acc * s + cm
        out.append(pref * acc / p)
    return np.array(out)


def test_table_tails_round_as_the_scalar_loop(rng):
    # the Horner pass on Python complex and one array division give the
    # per-degree numpy-scalar results bit for bit
    M = 60
    for i in range(40):
        inst = draw_instance(rng, sigma_invariant=(i % 2 == 0), complex_y=(i % 4 < 2))
        G, P = inst.group(), inst.parameter()
        orbit = orbit_pairings(G, inst.x, inst.y)
        poch = pochhammer_table(P, M)
        phi = a_coeffs(P, orbit, M).phi
        ref = _scalar_tail(phi, orbit.xy, P.gamma / (2.0 * P.n), poch)
        assert np.array_equal(em_genseries(G, P, inst.x, inst.y, M), ref)
        if i % 2 == 0:
            inner = np.zeros(M + 1, dtype=complex)
            inner[0] = 1.0
            binomial = rising_factorials(P.k, M) / factorial_table(M)
            for c in orbit.rot_pairings:
                inner = np.convolve(inner, binomial * np.power(c, np.arange(M + 1)))[: M + 1]
            ref = _scalar_tail(inner, orbit.xy, 1.0, poch)
            assert np.array_equal(em_closed_sigma(G, P, inst.x, inst.y, M), ref)


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
        orbit_xy, orbit_yx = orbit_pairings(G, inst.x, inst.y), orbit_pairings(G, inst.y, inst.x)
        A_xy, A_yx = (_a_coeffs_by_loop(P, orbit, 40)[1] for orbit in (orbit_xy, orbit_yx))
        scale = np.max(np.abs(A_xy)) + np.max(np.abs(A_yx))
        assert np.max(np.abs(A_xy - A_yx)) <= 1e-10 * scale
        phi_xy, phi_yx = (a_coeffs(P, orbit, 40).phi for orbit in (orbit_xy, orbit_yx))
        assert np.max(np.abs(phi_xy - phi_yx)) <= 1e-10 * scale


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
        assert np.max(np.abs(_a_coeffs_by_loop(P, orbit, 25)[1][:, 1])) <= 1e-10 * scale


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
    _, A = _a_coeffs_by_loop(P, orbit, 20)
    assert np.all(eval_q(A, 0.0) == 0.0)
