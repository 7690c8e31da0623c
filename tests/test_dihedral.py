import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_dihedral.dihedral import (
    is_sigma_invariant,
    make_group,
    orbit_pairings,
    pairing,
    reflection_matrix,
    rotation_matrix,
)
from dunkl_dihedral.errors import DomainError

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def _elements(n):
    """The 2n group elements as matrices: rotations, then reflections."""
    return [rotation_matrix(n, j) for j in range(n)] + [reflection_matrix(n, j) for j in range(n)]


def test_make_group_rejects_small_order():
    with pytest.raises(DomainError, match="dihedral order must be ≥ 2"):
        make_group(1)


def test_n2_actions():
    x = np.array([3.0, 4.0])
    assert np.allclose(reflection_matrix(2, 0) @ x, (3.0, -4.0))
    assert np.allclose(reflection_matrix(2, 1) @ x, (-3.0, 4.0), atol=1e-14)
    assert np.allclose(rotation_matrix(2, 1) @ x, (-3.0, -4.0), atol=1e-14)
    assert np.allclose(rotation_matrix(2, 0) @ x, (3.0, 4.0))


def test_n4_quarter_turn():
    assert np.allclose(rotation_matrix(4, 1) @ np.array([1.0, 0.0]), (0.0, 1.0), atol=1e-15)


def test_n3_positive_roots():
    G = make_group(3)
    expected = [
        (0.0, 1.0),
        (-math.sin(math.pi / 3), math.cos(math.pi / 3)),
        (-math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)),
    ]
    assert np.allclose(G.positive_roots, expected)
    assert np.allclose([math.hypot(*r) for r in G.positive_roots], 1.0)


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


def test_element_matrices_orthogonal():
    for M in _elements(6):
        assert np.allclose(M @ M.T, np.eye(2), atol=1e-15)
