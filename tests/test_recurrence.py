import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import rel_err
from definitions import h_coefficients, pairing
from dunkl_dihedral.dihedral import (
    DihedralGroup,
    PlanePoint,
    make_group,
    orbit_pairings,
    reflection_matrix,
    rotation_matrix,
)
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.kernel import certified_terms, transition_norm_sum
from dunkl_dihedral.polyalg import ParameterK, oracle_em
from dunkl_dihedral.recurrence import (
    DENSE_MAX_N,
    _step_basis,
    _step_matrices,
    em_sequence,
    state_blocks,
    y_step,
)
from dunkl_dihedral.sampling import draw_instance
from dunkl_dihedral.series import em_closed_sigma


def em_scalar_check(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, m: int
) -> complex:
    """Degree m+1 component rebuilt from the scalar orbit recurrence.

    Evaluates E_{m+1}(x,y) = sum_j a_j(m+1) <r^j x, y> E_m(r^j x, y)
    + sum_j b_j(m+1) <r^j s x, y> E_m(r^j s x, y), with the degree-m values
    obtained by independent propagation at every orbit point.  Serves as a
    cross-check of y_step's vectorized bookkeeping.
    """
    if m < 0:
        raise DomainError("degree m must be nonnegative")
    orbit = orbit_pairings(G, x, y)
    a, b = h_coefficients(P, m + 1)
    total = 0.0 + 0.0j
    for j in range(G.n):
        xr = rotation_matrix(G.n, j) @ x
        total += a[j] * orbit.rot_pairings[j] * em_sequence(G, P, xr, y, m)[m]
    for j in range(G.n):
        xs = reflection_matrix(G.n, j) @ x
        total += b[j] * orbit.refl_pairings[j] * em_sequence(G, P, xs, y, m)[m]
    return complex(total)


def step_growth_bound(P: ParameterK, m: int) -> float:
    """Provable one-step growth factor per unit orbit bound.

    ||Y_{m+1}|| <= |m+1+gamma| * (||A_m|| + ||B_m||) * a(x,y) * ||Y_m||.
    The |m+1+gamma| factor undoes the Pochhammer scaling between the state
    and the transition matrices; without it the stepwise bound fails.
    """
    return float(abs(m + 1 + P.gamma) * transition_norm_sum(P, m))


def test_first_step_is_diagonal_action(rng):
    # the two rank-one corrections cancel at degree zero
    for n in (2, 3, 5):
        G = make_group(n)
        P = ParameterK(0.4 + 0.2j, n)
        orbit = orbit_pairings(G, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        Y1 = y_step(np.ones(2 * n, dtype=complex), 0, P, orbit)
        assert np.allclose(Y1, orbit.big_diag, atol=1e-14 * max(1, orbit.a_bound))


def _y_step_matrix(P, orbit, m):
    """The step as its explicit matrix diag(d) + alpha W d^T - beta Ws (Ws o d)^T,
    d the orbit pairings, W all ones, Ws the ones/minus-ones split,
    alpha = gamma/(2n(m+1)) and beta = gamma/(2n(m+1+2 gamma))."""
    n, g, d = orbit.n, P.gamma, orbit.big_diag
    w = np.ones(2 * n)
    ws = np.concatenate([np.ones(n), -np.ones(n)])
    alpha = g / (2 * n * (m + 1))
    beta = g / (2 * n * (m + 1 + 2 * g))
    return np.diag(d) + alpha * np.outer(w, d) - beta * np.outer(ws, ws * d)


# From n = 8 on, numpy sums each row with eight partial sums instead of in order
@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 16, 39])
def test_y_step_matches_its_matrix(n, rng):
    G = make_group(n)
    for _ in range(20):
        P = ParameterK(complex(*rng.uniform(-2.0, 2.0, size=2)), n)
        x = rng.uniform(-3, 3, size=2) + 1j * rng.uniform(-3, 3, size=2)
        y = rng.uniform(-3, 3, size=2) + 1j * rng.uniform(-3, 3, size=2)
        orbit = orbit_pairings(G, x, y)
        values = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        m = int(rng.integers(0, 60))
        matrix = _y_step_matrix(P, orbit, m)
        # relative to the size of the terms, so cancellation in an entry does not count
        size = np.abs(matrix) @ np.abs(values)
        assert np.all(np.abs(y_step(values, m, P, orbit) - matrix @ values) <= 1e-14 * size)


def _states(P, orbit, count, rows=1):
    """The first count scaled states as one (count, 2n) array, read from
    state_blocks with a first block of the given rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.vstack(list(state_blocks(P, orbit, rows, count)))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, DENSE_MAX_N])
def test_step_matrices_are_the_step_matrix_over_its_divisor(n, rng):
    # T_m = _y_step_matrix(P, orbit, m) / (m+1+gamma), within 1e-14 |T| |s|
    G = make_group(n)
    for _ in range(20):
        P = ParameterK(complex(*rng.uniform(-2.0, 2.0, size=2)), n)
        x = rng.uniform(-3, 3, size=2) + 1j * rng.uniform(-3, 3, size=2)
        y = rng.uniform(-3, 3, size=2) + 1j * rng.uniform(-3, 3, size=2)
        orbit = orbit_pairings(G, x, y)
        m, count = int(rng.integers(0, 60)), int(rng.integers(1, 9))
        T = _step_matrices(P.gamma, n, _step_basis(orbit), m, count)
        assert T.shape == (count, 2 * n, 2 * n)
        for j in range(count):
            matrix = _y_step_matrix(P, orbit, m + j) / (m + j + 1 + P.gamma)
            values = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            size = np.abs(matrix) @ np.abs(values)
            assert np.all(np.abs(T[j] @ values - matrix @ values) <= 1e-14 * size)


def test_scaled_states_yield_plain_states(rng):
    # each state is the previous one stepped by y_step after division by
    # m+1+gamma, within rounding, and entry 0 is the component em_sequence
    # reports, bit for bit
    for _ in range(6):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        orbit = orbit_pairings(G, inst.x, inst.y)
        table = em_sequence(G, P, inst.x, inst.y, 29)
        states = _states(P, orbit, 30, rows=7)
        assert states.shape == (30, 2 * orbit.n) and states.dtype == complex
        assert np.all(states[0] == 1.0)
        for m in range(1, 30):
            step = y_step(states[m - 1] / (m + P.gamma), m - 1, P, orbit)
            assert np.all(np.abs(states[m] - step) <= 1e-13 * np.max(np.abs(step)))
        assert np.array_equal(states[:, 0], table)


# Above DENSE_MAX_N the structured step is y_step's arithmetic: rows just
# past it, and rows long enough that numpy sums them in its unrolled blocks.
# Real and complex y; gamma real or complex, with Re(gamma) < 0 in two of the
# three.
@pytest.mark.parametrize("n", [DENSE_MAX_N + 1, 1000])
@pytest.mark.parametrize("gamma", [0.8, -0.35, -0.2 + 0.45j])
@pytest.mark.parametrize("y", [(0.5, -0.8), (0.5 + 0.1j, 0.8 - 0.3j)])
def test_scaled_states_are_the_y_step_chain_bit_for_bit(n, gamma, y):
    G, P = make_group(n), ParameterK(gamma / n, n)
    orbit = orbit_pairings(G, (0.9, 0.35), y)
    states = _states(P, orbit, 40, rows=3)
    chain = np.ones(2 * n, dtype=complex)
    for m, state in enumerate(states):
        assert np.array_equal(state, chain)
        chain = y_step(chain / (m + 1 + P.gamma), m, P, orbit)
    assert np.array_equal(states[:, 0], em_sequence(G, P, (0.9, 0.35), y, 39))


# Up to DENSE_MAX_N each degree is one product with the dense step matrix, so
# a state differs from the y_step chain by rounding: within 1e-14 of the
# chain's sup norm through degree 60 (the largest seen was 4.0e-15), for
# Re(gamma) of either sign and complex y.
@pytest.mark.parametrize("n", range(2, DENSE_MAX_N + 1))
def test_dense_states_are_the_y_step_chain_within_rounding(n):
    G = make_group(n)
    for gamma, y in itertools.product(
        [0.8, -0.35, -0.2 + 0.45j, 3.0 - 2.0j], [(0.5, -0.8), (0.5 + 0.1j, 0.8 - 0.3j)]
    ):
        P = ParameterK(gamma / n, n)
        orbit = orbit_pairings(G, (0.9, 0.35), y)
        states = _states(P, orbit, 61, rows=24)
        chain = np.ones(2 * n, dtype=complex)
        for m, state in enumerate(states):
            assert np.all(np.abs(state - chain) <= 1e-14 * np.max(np.abs(chain))), (gamma, y, m)
            chain = y_step(chain / (m + 1 + P.gamma), m, P, orbit)


@pytest.mark.parametrize("n", [2, 3, 7, DENSE_MAX_N, DENSE_MAX_N + 1])
def test_states_do_not_depend_on_the_block_cut(n):
    # the same states, bit for bit, whatever the first block's rows: the
    # step matrices of a degree come out of the product as they would in any
    # other block, one-row blocks included
    G, P = make_group(n), ParameterK(-0.2 + 0.45j, n)
    orbit = orbit_pairings(G, (0.9, 0.35), (0.5 + 0.1j, 0.8 - 0.3j))
    whole = _states(P, orbit, 70, rows=70)
    for rows in (1, 2, 3, 5, 24, 69):
        blocks = list(state_blocks(P, orbit, rows, 70))
        assert len(blocks[0]) <= rows and sum(map(len, blocks)) == 70
        assert np.array_equal(np.vstack(blocks), whole), rows


def test_yielded_states_stay_as_they_were_yielded():
    G, P = make_group(5), ParameterK(-0.07 + 0.02j, 5)
    blocks = state_blocks(P, orbit_pairings(G, (0.9, 0.35), (0.5 + 0.1j, 0.8)), 2, 100)
    kept, copies = [], []
    for block in itertools.islice(blocks, 5):
        assert not any(np.shares_memory(block, old) for old in kept)
        kept.append(block)
        copies.append(block.copy())
    next(blocks)
    assert all(np.array_equal(a, b) for a, b in zip(kept, copies))


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
    Y = np.ones(4, dtype=complex)
    for m in range(2):
        Y = y_step(Y, m, P, orbit)
    assert np.allclose(Y, 1.5)
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


def _block_norms(P, m):
    # sup norms of the rotation and reflection blocks of the degree-(m+1)
    # transition matrix: (1/(m+1+gamma)) I + a_1 J and b_0 J, J all ones
    a, b = h_coefficients(P, m + 1)
    return abs(1.0 / (m + 1 + P.gamma)) + P.n * abs(a[1]), P.n * abs(b[0])


def test_matrix_norms_frozen():
    # n = 3, k = 1: reflection-block norm 3 * |3 / (3*1*7)| = 3/7
    P = ParameterK(1.0, 3)
    a_norm, b_norm = _block_norms(P, 0)
    assert b_norm == pytest.approx(3.0 / 7.0, rel=1e-14)
    expected_a = abs(1.0 / 4.0) + 3 * abs(9.0 / (3 * 1 * 4 * 7))
    assert a_norm == pytest.approx(expected_a, rel=1e-14)
    assert transition_norm_sum(P, 0) == pytest.approx(a_norm + b_norm, rel=1e-14)


def test_matrix_norms_decay():
    P = ParameterK(0.8 + 0.3j, 4)
    small = _block_norms(P, 10_000)
    big = _block_norms(P, 10)
    assert 0 < small[0] < big[0]
    assert 0 < small[1] < big[1]
    assert 0 < transition_norm_sum(P, 10_000) < transition_norm_sum(P, 10)


def test_stepwise_growth_guard(rng):
    # ||Y_{m+1}|| <= |m+1+gamma| (||A_m|| + ||B_m||) a ||Y_m||; the plain
    # norm-sum bound without the |m+1+gamma| factor is violated already at
    # n=2, k=1/2, x=y=(1,0), m=1, so the scaled form is asserted.
    for _ in range(8):
        inst = draw_instance(rng)
        G, P = inst.group(), inst.parameter()
        orbit = orbit_pairings(G, inst.x, inst.y)
        Y = np.ones(2 * inst.n, dtype=complex)
        for m in range(25):
            Y_next = y_step(Y, m, P, orbit)
            bound = (
                step_growth_bound(P, m)
                * orbit.a_bound
                * np.linalg.norm(Y)
                * (1 + 1e-12)
            )
            assert np.linalg.norm(Y_next) <= bound + 1e-300
            Y = Y_next


def test_unscaled_norm_sum_guard_is_false():
    # documents the defect worked around above
    G = make_group(2)
    P = ParameterK(0.5, 2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    Y1 = y_step(np.ones(4, dtype=complex), 0, P, orbit)
    Y2 = y_step(Y1, 1, P, orbit)
    naive = transition_norm_sum(P, 1) * orbit.a_bound * np.linalg.norm(Y1)
    assert np.linalg.norm(Y2) > naive  # 3 > 1


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
    with pytest.raises(DomainError, match="exceeds the limit 500") as info:
        em_sequence(G, ParameterK(0.5, 2), (1, 0), (1, 0), 501)
    assert info.value.code == "range-error"


def test_state_overflow_is_a_range_error():
    # a = 30 |y| ~ 949: a^m / m! passes the double range at m = 395.  The
    # exact states, by the recurrence in 50-digit mpmath on the same
    # pairings, reach 1.487e308 at degree 394 and 3.380e308 at 395, past the
    # largest double 1.798e308.  (The structured step overflowed at 394, in
    # its orbit sums.)
    G, P = make_group(3), ParameterK(0.5, 3)
    table = em_sequence(G, P, (30.0, 0.0), (30.0, 10.0), 394)
    assert np.all(np.isfinite(table)) and abs(table[394]) == pytest.approx(1.487138e308, rel=1e-6)
    with pytest.raises(
        DomainError, match="the components overflow double precision at degree 395"
    ) as info:
        em_sequence(G, P, (30.0, 0.0), (30.0, 10.0), 400)
    assert info.value.code == "range-error"
    # the certificate's guard on the sup norm of the states: with the orbit
    # bound understated, the sum is closable but never certified, and the
    # states overflow at the same degree
    orbit = dataclasses.replace(orbit_pairings(G, (30.0, 0.0), (30.0, 10.0)), a_bound=1.0)
    with pytest.raises(
        DomainError, match="the orbit state overflows double precision at degree 395"
    ) as info:
        certified_terms(P, orbit, 1e-10)
    assert info.value.code == "range-error"


def test_orbit_sums_pass_the_range_only_with_the_state():
    # n = 40 takes the structured step.  The exact state (the recurrence in
    # 50-digit mpmath on the same pairings) has its largest part 4.40e307 at
    # degree 374, 1.108e308 at 375 and 2.781e308 at 376, past the largest
    # double; E_375 is 3.17688185297e305.  The orbit sums, sums of 80
    # entries, pass the double range first: formed as they were, the state
    # turned inf at degree 374.
    G, P = make_group(40), ParameterK(0.05, 40)
    x, y = (30.0, 0.0), (30.0, 10.0)
    table = em_sequence(G, P, x, y, 375)
    assert np.all(np.isfinite(table)) and table[375] == pytest.approx(3.17688185297e305, rel=1e-11)
    with pytest.raises(DomainError, match="overflow double precision at degree 376"):
        em_sequence(G, P, x, y, 400)
    # test_state_overflow_is_a_range_error's case on the y_step chain: finite
    # through degree 394 (1.487e308), as the dense step's states
    G, P = make_group(3), ParameterK(0.5, 3)
    orbit = orbit_pairings(G, (30.0, 0.0), (30.0, 10.0))
    chain = np.ones(6, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(394):
            chain = y_step(chain / (m + 1 + P.gamma), m, P, orbit)
        assert np.all(np.isfinite(chain)) and abs(chain[0]) == pytest.approx(1.487138e308, rel=1e-6)
        assert not np.all(np.isfinite(y_step(chain / (395 + P.gamma), 394, P, orbit)))


def test_components_obey_roesler_bound(rng):
    # Roesler (Duke Math. J. 98, 1999): for real k >= 0 the kernel is the
    # Laplace transform of a probability measure on the convex hull of the
    # orbit of x, so |E_m(x, y)| <= a^m / m! for real x and complex y.
    # The bound is independent of all four routes.
    M = 60
    m = np.arange(M + 1)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        G, P = make_group(n), ParameterK(rng.uniform(0.01, 3.0), n)
        x = rng.uniform(-2.0, 2.0, size=2)
        y = rng.uniform(-4.0, 4.0, size=2) + 1j * rng.uniform(-4.0, 4.0, size=2)
        a = orbit_pairings(G, x, y).a_bound
        bound = np.exp(m * np.log(a) - np.array([math.lgamma(j + 1) for j in m]))
        ems = em_sequence(G, P, x, y, M)
        assert np.all(np.abs(ems) <= (1.0 + 1e-12) * bound)
