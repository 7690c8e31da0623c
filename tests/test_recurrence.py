import numpy as np
import pytest

from conftest import rel_err
from dunkl_dihedral.dihedral import make_group, orbit_pairings, pairing
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.polyalg import ParameterK, oracle_em
from dunkl_dihedral.recurrence import (
    coeff_matrix_norms,
    em_scalar_check,
    em_sequence,
    initial_state,
    step_growth_bound,
    y_step,
)
from dunkl_dihedral.sampling import draw_instance
from dunkl_dihedral.series import em_closed_sigma


def test_initial_state_is_all_ones():
    Y = initial_state(3)
    assert np.all(Y.values == 1.0) and Y.m == 0 and len(Y.values) == 6


def test_first_step_is_diagonal_action(rng):
    # the two rank-one corrections cancel at degree zero
    for n in (2, 3, 5):
        G = make_group(n)
        P = ParameterK(0.4 + 0.2j, n)
        orbit = orbit_pairings(G, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        Y1 = y_step(initial_state(n), P, orbit)
        assert np.allclose(Y1.values, orbit.big_diag, atol=1e-14 * max(1, orbit.a_bound))


def test_x_zero_states_vanish():
    G = make_group(4)
    P = ParameterK(0.5, 4)
    ems = em_sequence(G, P, (0.0, 0.0), (1.0, 2.0), 6)
    assert ems[0] == 1.0
    assert np.all(ems[1:] == 0.0)


def test_full_step_frozen_instance():
    # hand-computed: Y_2 = 1.5 * ones, E_2 = 1/4
    G = make_group(2)
    P = ParameterK(0.5, 2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    Y = initial_state(2)
    for _ in range(2):
        Y = y_step(Y, P, orbit)
    assert np.allclose(Y.values, 1.5)
    ems = em_sequence(G, P, (1.0, 0.0), (1.0, 0.0), 2)
    assert rel_err(ems[2], 0.25) <= 1e-14
    assert rel_err(ems[2], oracle_em(G, P, (1.0, 0.0), (1.0, 0.0), 2)[2]) <= 1e-12


def test_e0_and_e1(rng):
    for _ in range(10):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        ems = em_sequence(G, P, inst.x, inst.y, 1)
        assert ems[0] == 1.0
        expected = pairing(inst.x, inst.y) / (1.0 + P.gamma)
        assert rel_err(ems[1], expected) <= 1e-13


def test_em_frozen_hand_expansion():
    # scalar recurrence expanded by hand with E_1 substituted: E_2 = 1/4
    G = make_group(2)
    P = ParameterK(0.5, 2)
    ems = em_sequence(G, P, (1.0, 0.0), (1.0, 1.0), 2)
    assert rel_err(ems[2], 0.25) <= 1e-14


def test_scalar_check_degree_zero_gives_e1(rng):
    inst = draw_instance(rng)
    G, P = inst.group(), inst.parameter()
    expected = pairing(inst.x, inst.y) / (1.0 + P.gamma)
    assert rel_err(em_scalar_check(G, P, inst.x, inst.y, 0), expected) <= 1e-12


def test_scalar_check_matches_sequence(rng):
    for _ in range(6):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        m = int(rng.integers(1, 21))
        ems = em_sequence(G, P, inst.x, inst.y, m + 1)
        val = em_scalar_check(G, P, inst.x, inst.y, m)
        assert rel_err(val, ems[m + 1]) <= 1e-10


def test_scalar_check_sigma_matches_closed_form(rng):
    inst = draw_instance(rng, sigma_invariant=True)
    G, P = inst.group(), inst.parameter()
    m = 6
    val = em_scalar_check(G, P, inst.x, inst.y, m)
    closed = em_closed_sigma(G, P, inst.x, inst.y, m + 1)[m + 1]
    assert rel_err(val, closed) <= 1e-10


def test_matrix_norms_frozen():
    # n = 3, k = 1: reflection-block norm 3 * |3 / (3*1*7)| = 3/7
    P = ParameterK(1.0, 3)
    norms = coeff_matrix_norms(P, 0)
    assert norms.b_mat_norm == pytest.approx(3.0 / 7.0, rel=1e-14)
    expected_a = abs(1.0 / 4.0) + 3 * abs(9.0 / (3 * 1 * 4 * 7))
    assert norms.a_mat_norm == pytest.approx(expected_a, rel=1e-14)


def test_matrix_norms_decay():
    P = ParameterK(0.8 + 0.3j, 4)
    small = coeff_matrix_norms(P, 10_000)
    big = coeff_matrix_norms(P, 10)
    assert 0 < small.a_mat_norm < big.a_mat_norm
    assert 0 < small.b_mat_norm < big.b_mat_norm


def test_stepwise_growth_guard(rng):
    # ||Y_{m+1}|| <= |m+1+gamma| (||A_m|| + ||B_m||) a ||Y_m||; the plain
    # norm-sum bound without the |m+1+gamma| factor is violated already at
    # n=2, k=1/2, x=y=(1,0), m=1, so the scaled form is asserted.
    for _ in range(8):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        orbit = orbit_pairings(G, inst.x, inst.y)
        Y = initial_state(inst.n)
        for m in range(25):
            Y_next = y_step(Y, P, orbit)
            bound = (
                step_growth_bound(P, m)
                * orbit.a_bound
                * np.linalg.norm(Y.values)
                * (1 + 1e-12)
            )
            assert np.linalg.norm(Y_next.values) <= bound + 1e-300
            Y = Y_next


def test_unscaled_norm_sum_guard_is_false():
    # documents the defect worked around above
    G = make_group(2)
    P = ParameterK(0.5, 2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    Y1 = y_step(initial_state(2), P, orbit)
    Y2 = y_step(Y1, P, orbit)
    norms = coeff_matrix_norms(P, 1)
    naive = (norms.a_mat_norm + norms.b_mat_norm) * orbit.a_bound * np.linalg.norm(Y1.values)
    assert np.linalg.norm(Y2.values) > naive  # 3 > 1


def test_swap_symmetry(rng):
    for _ in range(8):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        fwd = em_sequence(G, P, inst.x, inst.y, 15)
        bwd = em_sequence(G, P, inst.y, inst.x, 15)
        for m in range(16):
            assert rel_err(fwd[m], bwd[m]) <= 1e-9


def test_oracle_agreement(rng):
    for _ in range(4):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        ems = em_sequence(G, P, inst.x, inst.y, 12)
        oracle = oracle_em(G, P, inst.x, inst.y, 12)
        for m in range(13):
            assert rel_err(ems[m], oracle[m]) <= 1e-9


def test_degree_cap_is_enforced():
    G = make_group(2)
    with pytest.raises(DomainError, match="renormalization-free"):
        em_sequence(G, ParameterK(0.5, 2), (1, 0), (1, 0), 201)


def test_pochhammer_overflow_reported():
    # gamma = 30: |(1+gamma)_200| overflows double precision
    G = make_group(5)
    P = ParameterK(6.0, 5)
    with pytest.raises(DomainError, match="reduce M"):
        em_sequence(G, P, (1.0, 0.0), (1.0, 0.0), 200)
