import functools
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_rel_err, random_poly, rel_err
from definitions import (
    _pairing_power_vector,
    _vk_matrices,
    Poly2,
    a_op,
    dunkl_apply,
    h_coefficients,
    h_matrix,
    h_op,
    intertwine,
    pairing,
    pairing_power,
    positive_roots,
)
import dunkl_dihedral
from dunkl_dihedral import polyalg
from dunkl_dihedral.dihedral import make_group, reflection_matrix, rotation_matrix
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.polyalg import (
    ParameterK,
    _raise_action,
    _vk_cache,
    factorial_table,
    oracle_em,
    pochhammer_table,
    rising_factorials,
)

E1 = (1.0, 0.0)
E2 = (0.0, 1.0)


# ---------------------------------------------------------------------------
# parameter guard and Pochhammer table


def test_parameter_gamma():
    P = ParameterK(0.5 + 0.25j, 4)
    assert P.gamma == 2.0 + 1.0j


def test_regularity_guard():
    ParameterK(0.5, 3).require_regular()
    with pytest.raises(DomainError, match="p = 3"):
        ParameterK(-0.5, 3).require_regular()  # 2*gamma = -3
    with pytest.raises(DomainError, match="zero"):
        ParameterK(0.0, 3).require_regular()
    # 2*gamma = -1.9: admissible with margin 0.1
    assert ParameterK(-0.475, 2).regularity_margin() == pytest.approx(0.1)


def test_pochhammer_recurrence():
    P = ParameterK(0.3 + 0.1j, 5)
    table = pochhammer_table(P, 12)
    assert table[0] == 1.0
    for m in range(12):
        assert table[m + 1] == table[m] * (1.0 + P.gamma + m)


def test_rising_factorials_match_factorial():
    vals = rising_factorials(1.0, 6)
    assert np.allclose(vals, [math.factorial(m) for m in range(7)])


def _rising_factorials_loop(z, M):
    """Reference: the step-by-step products (z)_(m+1) = (z)_m (z + m)."""
    out = np.empty(M + 1, dtype=complex)
    out[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(M):
            out[m + 1] = out[m] * (z + m)
    return out


def test_rising_factorials_round_as_the_step_loop(rng):
    # bit for bit, up to the first entry past the double range
    for _ in range(300):
        z = complex(*rng.uniform(-40.0, 40.0, size=2))
        ref, vals = _rising_factorials_loop(z, 500), rising_factorials(z, 500)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(vals), finite)
        assert np.array_equal(vals[finite], ref[finite])
    assert np.array_equal(rising_factorials(0.5 - 0.25j, 0), [1.0])


# ---------------------------------------------------------------------------
# polynomial ring sanity

coef = st.floats(min_value=-3, max_value=3, allow_nan=False)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 123456))
def test_ring_axioms(seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 3)
    g = random_poly(rng, 4)
    h = random_poly(rng, 2)
    assert poly_rel_err(f * g, g * f) <= 1e-14
    assert poly_rel_err((f + g) * h, f * h + g * h) <= 1e-13
    # differentiation is a derivation
    prod_rule = (f * g).deriv(0)
    assert poly_rel_err(prod_rule, f.deriv(0) * g + f * g.deriv(0)) <= 1e-13


def test_compose_identity_and_evaluate(rng):
    f = random_poly(rng, 5)
    assert poly_rel_err(f.compose(np.eye(2)), f) <= 1e-15
    M = np.array([[0.6, -0.8], [0.8, 0.6]])
    x = rng.uniform(-1, 1, size=2)
    assert rel_err(f.compose(M).evaluate(x), f.evaluate(M @ x)) <= 1e-12


def test_degree_bound_enforced():
    c = np.ones((3, 3))
    p = Poly2(c)
    assert p.c[2, 2] == 0 and p.c[1, 2] == 0  # entries beyond total degree dropped


# ---------------------------------------------------------------------------
# differential-difference operator


def test_dunkl_kills_constants():
    G = make_group(5)
    P = ParameterK(0.7 - 0.2j, 5)
    out = dunkl_apply(G, P, E1, Poly2.constant(3.5))
    assert out.coeff_norm() <= 1e-15


def test_dunkl_x1_n2():
    # hand derivation: only the root (-1, 0) contributes, term = 2k
    G = make_group(2)
    k = 0.3
    out = dunkl_apply(G, ParameterK(k, 2), E1, Poly2.coordinate(0))
    assert out.degree == 0
    assert rel_err(out.c[0, 0], 1.0 + 2.0 * k) <= 1e-14


def test_dunkl_linear_pairing_n2():
    G = make_group(2)
    P = ParameterK(0.25, 2)
    y = (0.8, -0.3)
    out = dunkl_apply(G, P, E1, pairing_power(y, 1))
    assert rel_err(out.c[0, 0], (1.0 + P.gamma) * y[0]) <= 1e-14


def _dunkl_pointwise(G, P, xi, f, x, h=1e-6):
    """Finite differences of the defining formula (independent oracle)."""
    xv = np.asarray(xi, float)
    xa = np.asarray(x, float)
    val = (f.evaluate(xa + h * xv) - f.evaluate(xa - h * xv)) / (2 * h)
    for alpha in positive_roots(G.n):
        av = np.array(alpha)
        den = av @ xa
        refl_x = xa - 2 * (av @ xa) * av
        val += P.k * (av @ xv) * (f.evaluate(xa) - f.evaluate(refl_x)) / den
    return val


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dunkl_matches_finite_differences(n, rng):
    G = make_group(n)
    P = ParameterK(0.4 + 0.3j, n)
    f = random_poly(rng, 5)
    applied = dunkl_apply(G, P, E1, f)
    for _ in range(6):
        x = rng.uniform(0.3, 1.5, size=2)  # away from the mirror lines
        expected = _dunkl_pointwise(G, P, E1, f, x)
        assert rel_err(applied.evaluate(x), expected) <= 1e-6


@pytest.mark.parametrize("n", [2, 4, 7])
def test_dunkl_operators_commute(n, rng):
    G = make_group(n)
    P = ParameterK(-0.35 + 0.2j, n)
    f = random_poly(rng, 6)
    t12 = dunkl_apply(G, P, E1, dunkl_apply(G, P, E2, f))
    t21 = dunkl_apply(G, P, E2, dunkl_apply(G, P, E1, f))
    assert poly_rel_err(t12, t21) <= 1e-9


# ---------------------------------------------------------------------------
# group average and its shifted inverse


def test_a_op_x1_cancels():
    G = make_group(2)
    out = a_op(G, ParameterK(0.9, 2), Poly2.coordinate(0))
    assert out.coeff_norm() <= 1e-14


def test_a_op_constant():
    G = make_group(6)
    P = ParameterK(0.3 + 0.1j, 6)
    out = a_op(G, P, Poly2.constant(1.0))
    assert rel_err(out.c[0, 0], 6 * P.k) <= 1e-14


def test_a_op_preserves_degree(rng):
    G = make_group(3)
    f = random_poly(rng, 4, homogeneous=True)
    out = a_op(G, ParameterK(0.5, 3), f)
    assert out.is_homogeneous(4, tol=1e-13)


def test_h_op_linear():
    G = make_group(2)
    P = ParameterK(0.5, 2)
    out = h_op(G, P, 1, Poly2.coordinate(0))
    expected = (1.0 / (1.0 + P.gamma)) * Poly2.coordinate(0)
    assert poly_rel_err(out, expected) <= 1e-14


def test_h_op_averaged_out_branch():
    # any f with vanishing group average maps to f / (m + gamma)
    G = make_group(2)
    P = ParameterK(0.35 - 0.15j, 2)
    x1 = Poly2.coordinate(0)
    f = x1 * x1 * x1  # odd under the half-turn, so the rotation average vanishes
    assert a_op(G, P, f).coeff_norm() <= 1e-14
    out = h_op(G, P, 3, f)
    assert poly_rel_err(out, (1.0 / (3.0 + P.gamma)) * f) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
def test_h_op_inverts_shifted_average(n, rng):
    G = make_group(n)
    P = ParameterK(0.6 + 0.4j, n)
    for m in range(1, 9):
        f = random_poly(rng, m, homogeneous=True)
        g = (m + P.gamma) * f - a_op(G, P, f)
        assert poly_rel_err(h_op(G, P, m, g), f) <= 1e-10


def test_h_op_degree_zero_rejected():
    G = make_group(3)
    with pytest.raises(DomainError):
        h_op(G, ParameterK(0.5, 3), 0, Poly2.constant(1.0))


# ---------------------------------------------------------------------------
# intertwining map


def test_intertwine_fixes_constants():
    G = make_group(4)
    out = intertwine(G, ParameterK(0.3, 4), Poly2.constant(1.0))
    assert poly_rel_err(out, Poly2.constant(1.0)) == 0.0


def test_intertwine_linear(rng):
    G = make_group(3)
    P = ParameterK(0.8, 3)
    y = rng.uniform(-1, 1, size=2)
    out = intertwine(G, P, pairing_power(y, 1))
    assert poly_rel_err(out, (1.0 / (1.0 + P.gamma)) * pairing_power(y, 1)) <= 1e-14


def test_intertwine_preserves_degree(rng):
    G = make_group(5)
    P = ParameterK(0.45 + 0.25j, 5)
    f = random_poly(rng, 6, homogeneous=True)
    assert intertwine(G, P, f).is_homogeneous(6, tol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("xi", [E1, E2])
def test_intertwining_identity(n, xi, rng):
    # conjugation property: T_xi o V = V o d_xi on polynomials of degree <= 8
    G = make_group(n)
    P = ParameterK(0.55 - 0.3j, n)
    f = random_poly(rng, 8)
    lhs = dunkl_apply(G, P, xi, intertwine(G, P, f))
    axis = 0 if xi == E1 else 1
    rhs = intertwine(G, P, f.deriv(axis))
    assert poly_rel_err(lhs, rhs) <= 1e-9


# ---------------------------------------------------------------------------
# kernel components from the oracle


def test_oracle_em_degree_zero():
    G = make_group(3)
    assert oracle_em(G, ParameterK(0.5, 3), (1.0, 0.5), (0.3, 0.4), 0)[0] == 1.0


def test_oracle_em_degree_one(rng):
    G = make_group(4)
    P = ParameterK(0.7 + 0.1j, 4)
    x = rng.uniform(-1, 1, size=2)
    y = rng.uniform(-1, 1, size=2)
    expected = pairing(x, y) / (1.0 + P.gamma)
    assert rel_err(oracle_em(G, P, x, y, 1)[1], expected) <= 1e-13


def test_oracle_em_frozen_value():
    # hand-evaluated through the scalar orbit recurrence: exactly 1/5
    G = make_group(3)
    val = oracle_em(G, ParameterK(0.5, 3), (1.0, 0.0), (1.0, 1.0), 2)[2]
    assert rel_err(val, 0.2) <= 1e-12


def test_vk_cache_stays_bounded(monkeypatch):
    # every fresh k adds a list; the cache keeps the most recent ones, as
    # many as ORACLE_CACHE_LISTS and as fit the element budget, and always
    # the newest
    G, M = make_group(3), 60
    _vk_cache.clear()
    for i in range(polyalg.ORACLE_CACHE_LISTS + 8):
        oracle_em(G, ParameterK(0.2 + 0.001 * i, 3), (1.0, 0.5), (0.3, 0.4), 3)
        assert len(_vk_cache) == min(i + 1, polyalg.ORACLE_CACHE_LISTS)
    _vk_cache.clear()
    per_list = polyalg._vk_elements(M + 1)
    assert per_list == sum((m + 1) ** 2 for m in range(M + 1))
    keep = polyalg.ORACLE_CACHE_ELEMENTS // per_list
    for i in range(keep + 4):
        oracle_em(G, ParameterK(0.3 + 0.001 * i, 3), (1.0, 0.5), (0.3, 0.4), M)
        assert len(_vk_cache) == min(i + 1, keep)
    assert (3, 0.3 + 0.001 * (keep + 3)) in _vk_cache
    assert sum(sum(v.size for v in mats) for mats in _vk_cache.values()) <= (
        polyalg.ORACLE_CACHE_ELEMENTS
    )
    # one list past the budget is kept alone
    monkeypatch.setattr(polyalg, "ORACLE_CACHE_ELEMENTS", per_list - 1)
    oracle_em(G, ParameterK(-0.4, 3), (1.0, 0.5), (0.3, 0.4), M)
    assert list(_vk_cache) == [(3, -0.4 + 0j)]
    # and no cache of the package grows without bound
    modules = [
        importlib.import_module(f"dunkl_dihedral.{info.name}")
        for info in pkgutil.iter_modules(dunkl_dihedral.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    caches = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, functools._lru_cache_wrapper)
    }
    assert len(caches) >= 5
    assert [c.__qualname__ for c in caches if c.cache_info().maxsize is None] == []


def test_vk_cache_keeps_its_element_count(monkeypatch):
    # through new lists, hits, extensions and evictions by count and by
    # budget, the cache holds at most ORACLE_CACHE_LISTS lists whose entries
    # fit the budget, or the newest list alone, and always the newest last
    G = make_group(3)
    monkeypatch.setattr(polyalg, "ORACLE_CACHE_LISTS", 3)
    monkeypatch.setattr(polyalg, "ORACLE_CACHE_ELEMENTS", polyalg._vk_elements(41))
    _vk_cache.clear()
    for i, M in enumerate([0, 3, 10, 5, 12, 40, 2, 30, 30, 60, 1, 7]):
        k = 0.2 + 0.01 * (i % 5)
        oracle_em(G, ParameterK(k, 3), (1.0, 0.5), (0.3, 0.4), M)
        held = sum(v.size for mats in _vk_cache.values() for v in mats)
        assert len(_vk_cache) <= 3
        assert len(_vk_cache) == 1 or held <= polyalg._vk_elements(41)
        assert M == 0 or list(_vk_cache)[-1] == (3, complex(k))  # M = 0 reads no list
    _vk_cache.clear()


def test_vk_cache_holds_no_subnormal_parts():
    # for even n the group matrices carry sin(pi)'s 1.2e-16, whose residue
    # decays in V_m into subnormals that slow every product reading them;
    # _vk_build sets them to zero, on a list extended alone and on one
    # extended and one started in a batch
    k, x, y = 0.4 + 0.2j, (0.9, 0.0), (0.5, 0.8)
    _vk_cache.clear()
    oracle_em(make_group(2), ParameterK(k, 2), x, y, 12)
    polyalg.oracle_tables([(make_group(n), ParameterK(k, n), x, y) for n in (2, 4)], 60)
    for n in (2, 4):
        mats = _vk_cache[(n, k)]
        assert len(mats) == 61
        parts = np.abs(np.concatenate([v.ravel() for v in mats]).view(float))
        assert not np.any((parts > 0) & (parts < 2.0**-1022))


@pytest.mark.parametrize("n, k", [(2, 0.4 + 0.2j), (3, -0.2 + 0.3j), (5, 0.6 - 0.2j)])
def test_vk_step_matches_dense_shift_matrices(n, k):
    # reference: with t = x1 V_{m-1} d1 + x2 V_{m-1} d2, the multiplication
    # and partial-derivative maps as dense matrices, V_m = t H_m in the
    # one-product form (t diag(w_m)) R_m + c_m t
    G, P = make_group(n), ParameterK(k, n)
    polyalg._vk_cache.clear()
    mats = _vk_matrices(G, P, 16)
    (weights,), (diag,) = polyalg._h_weights([P], np.arange(1, 17))
    for m in range(1, 17):
        d1 = np.zeros((m, m + 1), dtype=complex)
        d2 = np.zeros((m, m + 1), dtype=complex)
        x1 = np.zeros((m + 1, m), dtype=complex)
        x2 = np.zeros((m + 1, m), dtype=complex)
        for a in range(m):
            d1[a, a + 1] = a + 1
            d2[a, a] = m - a
            x1[a + 1, a] = 1.0
            x2[a, a] = 1.0
        prev = mats[m - 1]
        t = x1 @ prev @ d1 + x2 @ prev @ d2
        w, c = weights[m - 1, : m + 1], diag[m - 1]
        expected = (t * w) @ polyalg._rotation_sum(n, m) + c * t
        np.testing.assert_array_equal(mats[m], expected)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 12])
def test_vk_matrices_match_dense_h_matrix(n):
    # Measure: max |V_m - t H_m| / max |t H_m| per degree, t H_m with the
    # dense h_matrix.  Worst measured over these cases: 3.5e-16 (n = 2).
    M = 60
    for k in (0.3 + 0.2j, -0.15, 2.5 - 1.0j):
        G, P = make_group(n), ParameterK(k, n)
        polyalg._vk_cache.clear()
        mats = _vk_matrices(G, P, M)
        for m in range(1, M + 1):
            prev, a = mats[m - 1], np.arange(1, m + 1)
            t = np.zeros((m + 1, m + 1), dtype=complex)
            t[1:, 1:] = prev * a
            t[:m, :m] += prev * a[::-1]
            ref = t @ h_matrix(G, P, m)
            assert np.max(np.abs(mats[m] - ref)) <= 4e-15 * np.max(np.abs(ref))


def test_em_tables_sets_stay_warm_at_degree_60(monkeypatch):
    # the four (n, k) sets of the benchmark's em-tables workload: after one
    # pass over them, a second pass builds no V matrix
    sets = [(2, 0.4 + 0.2j), (3, -0.2 + 0.3j), (5, 0.6 - 0.2j), (7, 0.3)]
    polyalg._vk_cache.clear()
    first = [_vk_matrices(make_group(n), ParameterK(k, n), 60) for n, k in sets]

    def refuse(*args):
        raise AssertionError("a V matrix was rebuilt")

    monkeypatch.setattr(polyalg, "_h_weights", refuse)
    for (n, k), mats in zip(sets, first):
        values = oracle_em(make_group(n), ParameterK(k, n), (0.7, -0.2), (0.4, 1.1), 60)
        assert np.all(np.isfinite(values))
        assert _vk_matrices(make_group(n), ParameterK(k, n), 60) is mats


def test_factorial_table_is_exact_and_guarded():
    table = factorial_table(170)
    assert all(table[m] == float(math.factorial(m)) for m in range(171))
    with pytest.raises(DomainError, match="m!") as info:
        factorial_table(171)
    assert info.value.code == "range-error"


def test_factorial_table_is_cached_and_read_only():
    table = factorial_table(12)
    assert factorial_table(12) is table
    with pytest.raises(ValueError):
        table[3] = 0.0


def test_h_weights_signs_are_powers_of_minus_one():
    ms = np.arange(1, 61)
    for P in (ParameterK(0.3 + 0.2j, 3), ParameterK(-0.15, 7)):
        a1, b0, c = polyalg._h_scalars(P.gamma, P.n, ms)
        ref = a1[:, None] + b0[:, None] * (-1.0) ** (ms[:, None] - np.arange(61))
        (weights,), (diag,) = polyalg._h_weights([P], ms)
        assert np.array_equal(weights, ref) and np.array_equal(diag, c)


def test_oracle_refuses_past_its_element_budget(monkeypatch):
    # n (M+1)^2 above the budget is refused before any action matrix is built
    def unreachable(*args):
        raise AssertionError("an action matrix was built")

    monkeypatch.setattr(polyalg, "_rotation_sum", unreachable)
    monkeypatch.setattr(polyalg, "_vk_build", unreachable)
    P = ParameterK(1e-4, 10000)
    for M in (500, 60, 20):
        with pytest.raises(DomainError, match="element budget 4194304") as info:
            oracle_em(make_group(10000), P, (1.0, 0.3), (0.5, 0.4), M)
        assert info.value.code == "range-error"
    assert 10000 * 20**2 <= polyalg.ORACLE_MAX_ELEMENTS < 10000 * 21**2


def test_oracle_rejects_complex_x():
    G = make_group(2)
    with pytest.raises(DomainError):
        oracle_em(G, ParameterK(0.5, 2), np.array([1.0 + 1j, 0.0]), (1.0, 0.0), 1)


@pytest.mark.parametrize("n", [2, 3])
def test_eigen_relation_small_degrees(n, rng):
    # T_xi E_{m+1}(., y) = <xi, y> E_m(., y) as polynomials
    G = make_group(n)
    P = ParameterK(0.6 + 0.2j, n)
    y = rng.uniform(-1, 1, size=2)
    for m in range(4):
        em = (1.0 / math.factorial(m)) * intertwine(G, P, pairing_power(y, m))
        em1 = (1.0 / math.factorial(m + 1)) * intertwine(G, P, pairing_power(y, m + 1))
        for axis, xi in enumerate((E1, E2)):
            lhs = dunkl_apply(G, P, xi, em1)
            rhs = complex(y[axis]) * em
            assert poly_rel_err(lhs, rhs) <= 1e-9


# ---------------------------------------------------------------------------
# action matrices by the degree-raising recursion, h_matrix from the orbit
# sums, and the oracle's array pass per degree


def _action_matrix_per_entry(M, m):
    """Reference: the matrix of f -> f(Mx) on degree-m coefficient vectors,
    column a the binomial expansion of (M00 x1 + M01 x2)^a (M10 x1 + M11 x2)^(m-a)."""

    def binom_pow(c1, c2, p):
        return np.array([math.comb(p, i) * c1**i * c2 ** (p - i) for i in range(p + 1)])

    mat = np.empty((m + 1, m + 1))
    for a in range(m + 1):
        mat[:, a] = np.convolve(binom_pow(M[0, 0], M[0, 1], a), binom_pow(M[1, 0], M[1, 1], m - a))
    return mat


@pytest.mark.parametrize(
    "M", [rotation_matrix(7, 3), reflection_matrix(5, 2), np.array([[1.3, -0.4], [0.7, 0.2]])]
)
def test_raised_action_matches_per_entry_expansion(M):
    # Measure: the per-entry expansion of |M| sums the terms' magnitudes.
    act = np.ones((1, 1, 1))
    for m in range(61):
        if m:
            act = _raise_action(act, M[None])
        err = np.abs(act[0] - _action_matrix_per_entry(M, m))
        assert np.all(err <= 1e-14 * _action_matrix_per_entry(np.abs(M), m))


def test_orbit_sums_raise_each_degree_once(monkeypatch):
    raises = []

    def counted(prev, mats):
        raises.append(prev.shape[1])
        return _raise_action(prev, mats)

    monkeypatch.setattr(polyalg, "_raise_action", counted)
    polyalg._orbit_action_cache.cache_clear()
    _vk_cache.clear()
    G, x, y, M = make_group(6), (0.6, 0.2), (-0.3, 0.9), 20
    oracle_em(G, ParameterK(0.123 + 0.456j, 6), x, y, M)
    assert raises == list(range(1, M + 1))
    raises.clear()
    oracle_em(G, ParameterK(-0.321 + 0.1j, 6), x, y, M)
    assert raises == []


def _h_matrix_per_element(n, P, m):
    """Reference: sum_j a_j(m) R_j + b_j(m) S_j, one action matrix per element."""
    a, b = h_coefficients(P, m)
    h = np.zeros((m + 1, m + 1), dtype=complex)
    for j in range(n):
        h += a[j] * _action_matrix_per_entry(rotation_matrix(n, j), m)
        h += b[j] * _action_matrix_per_entry(reflection_matrix(n, j), m)
    return h


@pytest.mark.parametrize("n", [2, 3, 5, 7, 12])
@pytest.mark.parametrize("m", [1, 2, 12, 60, 120])
def test_h_matrix_matches_per_element_sum(n, m):
    for k in (0.3 + 0.2j, -0.15):
        P = ParameterK(k, n)
        ref = _h_matrix_per_element(n, P, m)
        h = h_matrix(make_group(n), P, m)
        assert np.max(np.abs(h - ref)) <= 1e-13 * np.max(np.abs(ref))


def _oracle_em_per_degree(G, P, x, y, M):
    """Reference: the per-degree list comprehensions of binomial terms."""
    mats = _vk_matrices(G, P, M)
    ya, xr = np.asarray(y, dtype=complex), np.asarray(x, dtype=float)
    out = np.ones(M + 1, dtype=complex)
    for m in range(1, M + 1):
        powers = np.array([xr[0] ** a * xr[1] ** (m - a) for a in range(m + 1)])
        out[m] = np.dot(mats[m] @ _pairing_power_vector(ya, m), powers) / math.factorial(m)
    return out


@pytest.mark.parametrize(
    "n, k, x, y",
    [
        (2, 0.4 + 0.2j, (0.7, -1.1), (1.3, 0.4)),
        (3, -0.2 + 0.3j, (1.2, 0.0), (-0.5, 1.6)),
        (7, 0.3, (-0.8, 0.9), (0.0, -1.4)),
    ],
)
def test_oracle_em_matches_per_degree_loop(n, k, x, y):
    # Measure: |E_m - ref_m| / max(|ref_m|, a^m / m!), with a = |x| |y|.
    G, P, M = make_group(n), ParameterK(k, n), 60
    ref = _oracle_em_per_degree(G, P, x, y, M)
    a = math.hypot(*x) * math.hypot(*y)
    scale = np.array([a**m / math.factorial(m) for m in range(M + 1)])
    err = np.abs(oracle_em(G, P, x, y, M) - ref) / np.maximum(np.abs(ref), scale)
    assert np.max(err) <= 1e-13


def test_orbit_action_sums_are_read_only():
    # only the rotation sums are kept; the reflection signs enter as weights
    rot = polyalg._rotation_sum(3, 4)
    with pytest.raises(ValueError):
        rot[0, 0] = 0.0
    assert all(isinstance(s, np.ndarray) for s in polyalg._orbit_action_cache(3)[1])


# ---------------------------------------------------------------------------
# the oracle over a batch: the V_m of its members built in one degree loop


# A member: n, Re and Im gamma (Re gamma of both signs), the four parts of x
# and the complex y, the state of its list before the batch (none, built
# below M, built past M), and whether it repeats the (n, k) before it.
_BATCH = st.lists(
    st.tuples(
        st.integers(2, 12),
        st.one_of(st.floats(-2.4, -0.1), st.floats(0.1, 3.0)),
        st.floats(-1.0, 1.0),
        st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6),
        st.sampled_from(["cold", "below", "above"]),
        st.booleans(),
    ),
    max_size=6,
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(M=st.sampled_from([0, 1, 12, 40]), spec=_BATCH)
def test_oracle_tables_are_oracle_em_one_member_at_a_time(M, spec):
    # bit for bit, the zeros' signs included, whatever the cache held
    members, states = [], []
    for n, re, im, parts, state, repeat in spec:
        if repeat and members:
            G, P = members[-1][:2]
        else:
            G, P = make_group(n), ParameterK(complex(re, im) / n, n)
        if P.regularity_margin() < 0.05:
            continue
        y = np.array([complex(parts[2], parts[3]), complex(parts[4], parts[5])])
        members.append((G, P, (parts[0], parts[1]), y))
        states.append(state)
    expected = []
    for G, P, x, y in members:
        _vk_cache.clear()
        expected.append(oracle_em(G, P, x, y, M))
    _vk_cache.clear()
    for (G, P, _, _), state in zip(members, states):
        if state != "cold":
            _vk_matrices(G, P, M // 2 if state == "below" else M + 3)
    tables = polyalg.oracle_tables(members, M)
    assert [t.tobytes() for t in tables] == [t.tobytes() for t in expected]


def test_oracle_tables_of_an_empty_batch():
    # nothing is checked, so not even the degree
    assert polyalg.oracle_tables([], 12) == []
    assert polyalg.oracle_tables([], -1) == []


def test_oracle_tables_run_in_chunks_within_the_cache_budget(monkeypatch):
    # 2.5 lists per chunk: chunks of 2, and the tables are the same
    G, x, y, M = make_group(4), (0.8, -0.3), (0.4, 1.1), 12
    members = [(G, ParameterK(0.1 + 0.05 * i, 4), x, y) for i in range(5)]
    whole = polyalg.oracle_tables(members, M)
    built = []

    def counted(lists, pairs, build, mmax):
        built.append(len(build))
        return vk_build(lists, pairs, build, mmax)

    vk_build = polyalg._vk_build
    monkeypatch.setattr(polyalg, "_vk_build", counted)
    monkeypatch.setattr(polyalg, "ORACLE_CACHE_ELEMENTS", 5 * polyalg._vk_elements(M + 1) // 2)
    _vk_cache.clear()
    chunked = polyalg.oracle_tables(members, M)
    assert built == [2, 2, 1]
    assert [t.tobytes() for t in chunked] == [t.tobytes() for t in whole]


def test_oracle_tables_raise_the_first_refusal_in_member_order():
    # the members before the first one refused are evaluated; a table past
    # the double range among them comes first
    G, P = make_group(3), ParameterK(0.3, 3)
    good = (G, P, (0.5, 0.2), (0.3, -0.9))
    overflow = (G, P, (1e150, 0.0), (1e150, 0.0))  # E_2 ~ 1e600
    far = (G, ParameterK(40.0, 3), (0.5, 0.2), (0.3, -0.9))  # |gamma| = 120
    with pytest.raises(DomainError, match="overflow double precision at degree 2"):
        polyalg.oracle_tables([good, overflow, far], 4)
    with pytest.raises(DomainError, match="the oracle's limit"):
        polyalg.oracle_tables([good, far, overflow], 4)
    with pytest.raises(DomainError, match="degree M must be nonnegative"):
        polyalg.oracle_tables([good], -1)


def test_oracle_tables_leave_the_cache_as_one_member_at_a_time(monkeypatch):
    # the keys, in order, after a batch are those after oracle_em on each
    # member in turn, through evictions by count and by budget; a list that
    # the one-at-a-time calls evict and build again, the batch keeps whole,
    # so it may be longer, with the same matrices
    monkeypatch.setattr(polyalg, "ORACLE_CACHE_LISTS", 4)
    monkeypatch.setattr(polyalg, "ORACLE_CACHE_ELEMENTS", 3 * polyalg._vk_elements(13))
    x, y = (0.8, -0.3), (0.4, 1.1)
    ks = [0.11, 0.12, 0.11, 0.13, 0.14, 0.15, 0.12]
    for M, warm in ((12, [0.13, 0.2]), (5, [0.12]), (20, [0.15])):
        caches = []
        for batch in (False, True):
            _vk_cache.clear()
            for k in warm:
                oracle_em(make_group(4), ParameterK(k, 4), x, y, 8)
            members = [(make_group(4), ParameterK(k, 4), x, y) for k in ks]
            if batch:
                polyalg.oracle_tables(members, M)
            else:
                for member in members:
                    oracle_em(*member, M)
            # within the budgets, but for the newest list, kept alone past them
            held = sum(v.size for mats in _vk_cache.values() for v in mats)
            assert len(_vk_cache) <= 4
            assert len(_vk_cache) == 1 or held <= 3 * polyalg._vk_elements(13)
            caches.append(dict(_vk_cache))
        one, whole = caches
        assert list(one) == list(whole)
        for key, mats in one.items():
            assert len(whole[key]) >= len(mats) > M
            assert all(np.array_equal(a, b) for a, b in zip(mats, whole[key]))
