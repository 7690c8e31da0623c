import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from definitions import pairing, positive_roots
from dunkl_dihedral.dihedral import (
    MAX_N,
    OrbitPairings,
    _as_point,
    _basis_signs,
    _step_chain,
    is_sigma_invariant,
    make_group,
    orbit_pairings,
    reflection_matrix,
    rotation_matrix,
)
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.recurrence import _step_coefficients
from dunkl_dihedral.series import _phi_coefficients

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def _elements(n):
    """The 2n group elements as matrices: rotations, then reflections."""
    return [rotation_matrix(n, j) for j in range(n)] + [reflection_matrix(n, j) for j in range(n)]


def test_make_group_rejects_small_order():
    with pytest.raises(DomainError, match="dihedral order must be ≥ 2"):
        make_group(1)


def test_make_group_refuses_an_order_above_the_limit():
    assert make_group(MAX_N).n == MAX_N
    with pytest.raises(DomainError, match=f"exceeds the limit {MAX_N}") as err:
        make_group(MAX_N + 1)
    assert err.value.code == "range-error"


def test_make_group_is_equal_per_n_and_keeps_the_type_of_n():
    G = make_group(5)
    assert make_group(5) == G and type(G.n) is int
    wide = make_group(np.int64(5))
    assert type(wide.n) is np.int64 and wide == G
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.n = 6
    # a refusal is raised on every call, not remembered as a result
    for _ in range(2):
        with pytest.raises(DomainError, match="dihedral order must be ≥ 2"):
            make_group(1)


_FINITE = "plane point components must be finite"


# Every refusal of _as_point, with its message as it reads at the
# np.isfinite check that cmath.isfinite replaced.
@pytest.mark.parametrize(
    "x, message",
    [
        (np.array([np.nan, 0.5]), _FINITE),
        (np.array([0.5, np.nan]), _FINITE),
        (np.array([np.inf, 0.5]), _FINITE),
        (np.array([0.5, -np.inf]), _FINITE),
        (np.array([0.5, complex(1.0, np.nan)]), _FINITE),
        (np.array([complex(np.inf, 0.0), 0.5]), _FINITE),
        (np.array([0.5, 1.0], dtype=np.float32) * np.float32(np.inf), _FINITE),
        ([0.5, float("nan")], _FINITE),
        ((float("inf"), 0.5), _FINITE),
        ((0.5, complex(0.0, float("nan"))), _FINITE),
        (np.array([0.5, 1.0, 2.0]), "plane point must have exactly 2 components, got shape (3,)"),
        (np.zeros((1, 2)), "plane point must have exactly 2 components, got shape (1, 2)"),
        ([0.5], "plane point must have exactly 2 components, got shape (1,)"),
        ((0.5, 1.0, 2.0), "plane point must have exactly 2 components, got shape (3,)"),
        (3.0, "plane point must have exactly 2 components, got shape ()"),
    ],
)
def test_point_refusals_keep_their_messages(x, message):
    with pytest.raises(DomainError) as err:
        _as_point(x)
    assert str(err.value) == message and err.value.code == "domain-error"
    with pytest.raises(DomainError) as err:
        pairing(x, (1.0, 0.0))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "dtype", [np.float16, np.float32, np.float64, np.complex64, np.complex128, np.int64, bool]
)
def test_point_finiteness_agrees_with_np_isfinite(dtype, rng):
    values = np.array([0.0, -1.5, 2.0, np.inf, -np.inf, np.nan, 1e300])
    for _ in range(40):
        re, im = rng.choice(values, 2), rng.choice(values, 2)
        with np.errstate(invalid="ignore", over="ignore"):
            x = (re + 1j * im if np.dtype(dtype).kind == "c" else re).astype(dtype)
        kept = x if x.dtype.kind == "c" else x.astype(float)
        if np.isfinite(kept).all():
            assert np.array_equal(_as_point(x), kept)
        else:
            with pytest.raises(DomainError, match=_FINITE):
                _as_point(x)


def test_n2_actions():
    x = np.array([3.0, 4.0])
    assert np.allclose(reflection_matrix(2, 0) @ x, (3.0, -4.0))
    assert np.allclose(reflection_matrix(2, 1) @ x, (-3.0, 4.0), atol=1e-14)
    assert np.allclose(rotation_matrix(2, 1) @ x, (-3.0, -4.0), atol=1e-14)
    assert np.allclose(rotation_matrix(2, 0) @ x, (3.0, 4.0))


def test_n4_quarter_turn():
    assert np.allclose(rotation_matrix(4, 1) @ np.array([1.0, 0.0]), (0.0, 1.0), atol=1e-15)


def test_n3_positive_roots():
    roots = positive_roots(3)
    expected = [
        (0.0, 1.0),
        (-math.sin(math.pi / 3), math.cos(math.pi / 3)),
        (-math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)),
    ]
    assert np.allclose(roots, expected)
    assert np.allclose([math.hypot(*r) for r in roots], 1.0)


def test_pairing_examples():
    assert pairing((1, 0), (0, 1)) == 0
    assert pairing((1, 2), (3, 4)) == 11
    assert pairing((1, 0), (1j, 0)) == 1j  # bilinear: no conjugation


@settings(max_examples=30, derandomize=True)
@given(finite, finite, finite, finite, finite)
def test_pairing_is_bilinear(x1, x2, y1, y2, s):
    left = pairing((s * x1, s * x2), (y1, y2))
    assert abs(left - s * pairing((x1, x2), (y1, y2))) <= 1e-10 * (1 + abs(left))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_group_relations(n, rng):
    r, s = rotation_matrix(n, 1), reflection_matrix(n, 0)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=2)
        # r^n = identity
        z = x.copy()
        for _ in range(n):
            z = r @ z
        assert np.allclose(z, x, atol=1e-14 * max(1, np.linalg.norm(x)))
        # reflections are involutions
        for j in range(n):
            assert np.allclose(
                reflection_matrix(n, j) @ (reflection_matrix(n, j) @ x), x, atol=1e-14
            )
        # sigma r sigma = r^{-1}
        srs = s @ (r @ (s @ x))
        rinv = rotation_matrix(n, n - 1) @ x
        assert np.allclose(srs, rinv, atol=1e-14 * max(1, np.linalg.norm(x)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_elements_pairwise_distinct(n, rng):
    x = rng.uniform(-1, 1, size=2)
    images = [tuple(np.round(g @ x, 9)) for g in _elements(n)]
    # distinct as plane maps: distinct images of a generic point
    assert len(set(images)) == 2 * n


def test_orbit_x_zero():
    G = make_group(4)
    orbit = orbit_pairings(G, (0.0, 0.0), (1.0, 2.0))
    assert orbit.a_bound == 0.0
    assert np.all(orbit.big_diag == 0)


def test_orbit_n2_unit():
    G = make_group(2)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    assert np.allclose(orbit.rot_pairings, [1, -1], atol=1e-15)
    assert np.allclose(orbit.refl_pairings, [1, -1], atol=1e-15)
    assert orbit.a_bound == pytest.approx(1.0)


def test_orbit_n3_trig():
    # direct trigonometric evaluation: cos(0), cos(2pi/3), cos(4pi/3)
    G = make_group(3)
    orbit = orbit_pairings(G, (1.0, 0.0), (1.0, 0.0))
    assert np.allclose(orbit.rot_pairings, [1.0, -0.5, -0.5], atol=1e-15)
    assert orbit.a_bound == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_rotation_adjoint(n, rng):
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2) + 1j * rng.uniform(-1, 1, size=2)
        for j in range(n):
            lhs = pairing(rotation_matrix(n, j) @ x, y)
            rhs = pairing(x, rotation_matrix(n, n - j) @ y)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_rotation_sum_vanishes(n, rng):
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        total = sum(rotation_matrix(n, j) @ x for j in range(n))
        assert np.linalg.norm(total) <= 1e-13 * n * np.linalg.norm(x) + 1e-300


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_orbit_pairing_sums_vanish(n, rng):
    G = make_group(n)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2) + 1j * rng.uniform(-1, 1, size=2)
        orbit = orbit_pairings(G, x, y)
        tol = 1e-12 * n * orbit.a_bound + 1e-300
        assert abs(np.sum(orbit.rot_pairings)) <= tol
        assert abs(np.sum(orbit.refl_pairings)) <= tol


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_a_bound_swap_symmetric(n, rng):
    G = make_group(n)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        a_xy = orbit_pairings(G, x, y).a_bound
        a_yx = orbit_pairings(G, y, x).a_bound
        assert abs(a_xy - a_yx) <= 1e-13 * max(a_xy, a_yx, 1e-300)


def test_sigma_invariance_detection(rng):
    G = make_group(5)
    on_axis = orbit_pairings(G, (1.3, 0.0), rng.uniform(-1, 1, size=2))
    assert is_sigma_invariant(on_axis)
    y_axis = orbit_pairings(G, rng.uniform(-1, 1, size=2), (0.8, 0.0))
    assert is_sigma_invariant(y_axis)
    generic = orbit_pairings(G, (1.0, 0.7), (0.3, 0.9))
    assert not is_sigma_invariant(generic)


@pytest.mark.parametrize("a_bound", [0.25, 3.0, 1e5])
@pytest.mark.parametrize("direction", [1.0, 1j])
def test_sigma_invariance_matches_allclose_at_its_tolerance(a_bound, direction):
    # the plain comparison against np.allclose(rtol=0), at, just below and
    # just above atol = 1e-12 max(1, a)
    atol = 1e-12 * max(1.0, a_bound)
    rot = np.array([0.0, 0.3 - 0.2j, -0.1 + 0.4j])
    for gap in (atol, np.nextafter(atol, 0.0), np.nextafter(atol, 1.0), 0.0, 2 * atol):
        refl = rot.copy()
        refl[0] = direction * gap  # |refl[0] - rot[0]| is gap exactly
        refl = refl[::-1]  # the multiset comparison sorts both halves
        orbit = OrbitPairings(rot, refl, a_bound, np.concatenate([rot, refl]))
        expected = np.allclose(np.sort(rot), np.sort(refl), rtol=0.0, atol=atol)
        assert is_sigma_invariant(orbit) == expected == (gap <= atol)


def test_element_matrices_orthogonal():
    for M in _elements(6):
        assert np.allclose(M @ M.T, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("complex_x, complex_y", [(False, False), (False, True), (True, True)])
def test_orbit_pairings_match_per_element_loop(n, complex_x, complex_y):
    # The stacked orbit product and per-row pairing round as the loop does.
    rng = np.random.default_rng(100 * n + 10 * complex_x + complex_y)

    def point(imag):
        return rng.uniform(-5, 5, size=2) + (1j * rng.uniform(-5, 5, size=2) if imag else 0)

    for _ in range(50):
        x, y = point(complex_x), point(complex_y)
        ya = np.asarray(y, dtype=complex)
        rot = np.array([(rotation_matrix(n, j) @ x) @ ya for j in range(n)])
        refl = np.array([(reflection_matrix(n, j) @ x) @ ya for j in range(n)])
        orbit = orbit_pairings(make_group(n), x, y)
        np.testing.assert_array_equal(orbit.rot_pairings, rot)
        np.testing.assert_array_equal(orbit.refl_pairings, refl)
        np.testing.assert_array_equal(orbit.big_diag, np.concatenate([rot, refl]))
        assert orbit.a_bound == float(np.max(np.abs(np.concatenate([rot, refl]))))


def test_orbit_pairings_past_the_double_range_are_a_range_error():
    with pytest.raises(DomainError, match="overflow") as info:
        orbit_pairings(make_group(3), (1e200, 0.0), (1e200, 1.0))
    assert info.value.code == "range-error"


def _fresh(G, x, y):
    """The pairings of copies of x and y: new arrays, so nothing remembered is used."""
    return orbit_pairings(G, np.array(x), np.array(y))


def _same_bits(a, b):
    return a.n == b.n and a.a_bound == b.a_bound and a.big_diag.tobytes() == b.big_diag.tobytes()


def test_orbit_pairings_remember_the_last_arrays():
    G, x, y = make_group(5), np.array([0.6, -0.4]), np.array([1.1, 0.3])
    orbit = orbit_pairings(G, x, y)
    assert orbit_pairings(make_group(5), x, y) is orbit
    assert _same_bits(orbit, _fresh(G, x, y))
    # the remembered arrays are shared, so they are read-only
    for arr in (orbit.rot_pairings, orbit.refl_pairings, orbit.big_diag):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_orbit_memo_follows_n():
    x, y = np.array([0.6, -0.4]), np.array([1.1, 0.3])
    three = orbit_pairings(make_group(3), x, y)
    five = orbit_pairings(make_group(5), x, y)
    assert three.n == 3 and five.n == 5
    assert _same_bits(five, _fresh(make_group(5), x, y))


@pytest.mark.parametrize(
    "x0, x1",
    [
        ((0.6, -0.4), (0.7, -0.4)),  # a value
        ((1.3, 0.0), (1.3, -0.0)),  # the sign of zero, equal under ==
    ],
)
def test_orbit_memo_sees_a_point_changed_in_place(x0, x1):
    G, x, y = make_group(4), np.array(x0), np.array([0.5, -1.2])
    before = orbit_pairings(G, x, y)
    x[:] = x1
    after = orbit_pairings(G, x, y)
    assert after is not before
    assert _same_bits(after, _fresh(G, x1, y))
    y[1] = 2.0
    assert _same_bits(orbit_pairings(G, x, y), _fresh(G, x1, (0.5, 2.0)))


def test_orbit_memo_tells_float_from_complex_points():
    G, x = make_group(3), np.array([0.6, -0.4])
    y_float = np.array([1.1, 0.3])
    y_complex = y_float.astype(complex)  # the same values, zero imaginary parts
    as_float = orbit_pairings(G, x, y_float)
    as_complex = orbit_pairings(G, x, y_complex)
    assert as_complex is not as_float
    assert _same_bits(as_complex, _fresh(G, x, y_complex))
    assert orbit_pairings(G, x, y_float) is not as_complex


def test_orbit_memo_ignores_lists():
    G, x, y = make_group(3), [0.6, -0.4], [1.1, 0.3]
    first = orbit_pairings(G, x, y)
    x[0] = 0.2
    second = orbit_pairings(G, x, y)
    assert second is not first
    assert _same_bits(second, _fresh(G, [0.2, -0.4], y))
    point = (0.2, -0.4)
    assert orbit_pairings(G, point, y) is not orbit_pairings(G, point, y)


def test_orbit_memo_revalidates_a_changed_point():
    G, x, y = make_group(3), np.array([0.6, -0.4]), np.array([1.1, 0.3])
    orbit_pairings(G, x, y)
    x[1] = np.nan
    with pytest.raises(DomainError, match="finite"):
        orbit_pairings(G, x, y)
    x.shape = (1, 2)
    x[0, 1] = -0.4
    with pytest.raises(DomainError, match="exactly 2 components"):
        orbit_pairings(G, x, y)


@pytest.mark.parametrize("n", [2, 7, 20])
def test_step_chain_rows_do_not_depend_on_where_the_block_starts(n, rng):
    # each row of a one-row call equals that row of a long block, bit for
    # bit, for the recurrence's column-scaled basis and the series'
    # row-scaled one: the table is sliced to two rows at least, so the step
    # matrices are always a matrix product
    g = complex(*rng.uniform(0.1, 2.0, size=2))
    d = rng.uniform(-2, 2, size=2 * n) + 1j * rng.uniform(-2, 2, size=2 * n)
    signs = _basis_signs(n)
    routes = [
        (_step_coefficients(g, n, 64), np.multiply(signs, d).reshape(3, -1)),
        (_phi_coefficients(g, n, 64), np.multiply(signs, d[:, None]).reshape(3, -1)),
    ]
    for table, basis in routes:
        prev = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        block, row = np.empty((40, 2 * n), dtype=complex), np.empty((1, 2 * n), dtype=complex)
        _step_chain(table, 5, basis, prev, block)
        for j in range(len(block)):
            _step_chain(table, 5 + j, basis, block[j - 1] if j else prev, row)
            assert np.array_equal(row[0], block[j]), j
