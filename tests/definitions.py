"""Definition-level references the tests check the library's routes against:
the bilinear pairing, the polynomial algebra, T_xi, the group average A and its shifted inverse,
V_k on polynomials, the contour kernel K(t), the system's driving sums, its
closed mirror-axis generating function and its coefficient vectors A_p."""

from __future__ import annotations

import cmath
import math

import numpy as np

from dunkl_dihedral.dihedral import DihedralGroup, OrbitPairings, PlanePoint, _as_point
from dunkl_dihedral.dihedral import reflection_matrix
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.kernel import _contour_rule, _contour_sum
from dunkl_dihedral.polyalg import ParameterK, _h_scalars, _h_weights, _raise_action
from dunkl_dihedral.polyalg import _rotation_sum, _vk_matrices
from dunkl_dihedral.series import SeriesData, _require_sigma_invariant

def pairing(x: PlanePoint, y: PlanePoint) -> complex:
    """Bilinear pairing x1*y1 + x2*y2 -- no complex conjugation."""
    xa = _as_point(x).astype(complex)
    ya = _as_point(y).astype(complex)
    return complex(xa[0] * ya[0] + xa[1] * ya[1])


# ---------------------------------------------------------------------------
# dense bivariate polynomials


class Poly2:
    """Dense bivariate polynomial: ``c[a, b]`` is the coefficient of
    x1^a * x2^b, stored for a + b <= degree bound.  Values are immutable
    after construction; all operations return new polynomials."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DomainError("coefficient table must be square (degree+1 per axis)")
        d = c.shape[0] - 1
        a, b = np.indices(c.shape)
        c[a + b > d] = 0.0  # entries beyond the total-degree bound are not representable
        self.c = c

    @staticmethod
    def zero() -> "Poly2":
        return Poly2(np.zeros((1, 1)))

    @staticmethod
    def constant(value: complex) -> "Poly2":
        return Poly2(np.array([[value]]))

    @staticmethod
    def coordinate(axis: int) -> "Poly2":
        c = np.zeros((2, 2), dtype=complex)
        c[1 - axis, axis] = 1.0
        return Poly2(c)

    @property
    def degree(self) -> int:
        return self.c.shape[0] - 1

    def padded(self, degree: int) -> np.ndarray:
        out = np.zeros((degree + 1, degree + 1), dtype=complex)
        out[: self.c.shape[0], : self.c.shape[1]] = self.c
        return out

    def __add__(self, other: "Poly2") -> "Poly2":
        d = max(self.degree, other.degree)
        return Poly2(self.padded(d) + other.padded(d))

    def __sub__(self, other: "Poly2") -> "Poly2":
        d = max(self.degree, other.degree)
        return Poly2(self.padded(d) - other.padded(d))

    def __mul__(self, other):
        if isinstance(other, Poly2):
            d = self.degree + other.degree
            out = np.zeros((d + 1, d + 1), dtype=complex)
            for a, b in np.argwhere(self.c != 0):
                out[a : a + other.degree + 1, b : b + other.degree + 1] += self.c[a, b] * other.c
            return Poly2(out)
        return Poly2(self.c * complex(other))

    def __rmul__(self, scalar) -> "Poly2":
        return Poly2(self.c * complex(scalar))

    def deriv(self, axis: int) -> "Poly2":
        d = self.degree
        if d == 0:
            return Poly2.zero()
        powers = np.arange(1, d + 1)
        if axis == 0:
            return Poly2(self.c[1:, :d] * powers[:, None])
        return Poly2(self.c[:d, 1:] * powers)

    def evaluate(self, point: PlanePoint) -> complex:
        p = _as_point(point).astype(complex)
        return complex(np.polynomial.polynomial.polyval2d(p[0], p[1], self.c))

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.c))

    def homogeneous_vector(self, m: int) -> np.ndarray:
        """Coefficients of the degree-m part, indexed by the x1-power."""
        if m > self.degree:
            return np.zeros(m + 1, dtype=complex)
        idx = np.arange(m + 1)
        return self.c[idx, m - idx].copy()

    def is_homogeneous(self, m: int, tol: float = 1e-12) -> bool:
        scale = max(self.coeff_norm(), 1.0)
        parts = (self.homogeneous_vector(j) for j in range(self.degree + 1) if j != m)
        return all(np.max(np.abs(v)) <= tol * scale for v in parts)

    def compose(self, matrix: np.ndarray) -> "Poly2":
        """Substitution x -> M x, degree by degree, with the action matrix
        of M raised one degree per step by polyalg._raise_action."""
        mats = np.asarray(matrix, dtype=float)[None]
        act = np.ones((1, 1, 1))
        out = np.zeros_like(self.c)
        for m in range(self.degree + 1):
            if m:
                act = _raise_action(act, mats)
            idx = np.arange(m + 1)
            out[idx, m - idx] = act[0] @ self.homogeneous_vector(m)
        return Poly2(out)


def from_homogeneous_vector(v: np.ndarray, m: int) -> Poly2:
    c = np.zeros((m + 1, m + 1), dtype=complex)
    idx = np.arange(m + 1)
    c[idx, m - idx] = v
    return Poly2(c)


def _pairing_power_vector(ya: np.ndarray, m: int) -> np.ndarray:
    """Homogeneous coefficients of x -> (x1*y1 + x2*y2)^m, indexed by the
    x1-power, for the complex point ya."""
    return np.array([math.comb(m, a) * ya[0] ** a * ya[1] ** (m - a) for a in range(m + 1)])


def pairing_power(y: PlanePoint, m: int) -> Poly2:
    """The polynomial x -> (x1*y1 + x2*y2)^m (binomial coefficients)."""
    return from_homogeneous_vector(_pairing_power_vector(_as_point(y).astype(complex), m), m)


# ---------------------------------------------------------------------------
# the operators: T_xi, the group average A, its shifted inverse, and V_k


def positive_roots(n: int) -> tuple[tuple[float, float], ...]:
    """The unit vectors (-sin(j*pi/n), cos(j*pi/n)), j = 0..n-1; root j is
    orthogonal to the mirror line of reflection j."""
    return tuple((-math.sin(j * math.pi / n), math.cos(j * math.pi / n)) for j in range(n))


def _divide_by_linear_form(num: Poly2, alpha: np.ndarray) -> Poly2:
    """Exact division of ``num`` by the linear form <alpha, x>.

    Rotates coordinates so the form becomes the first axis, performs synthetic
    division there, and rotates back.  The remainder must vanish (the numerator
    is antisymmetric under the reflection fixing the form's kernel); a
    remainder above 1e-10 times the numerator's coefficient norm indicates a
    broken reflection and fails the assertion.
    """
    a1, a2 = float(alpha[0]), float(alpha[1])
    U = np.array([[a1, a2], [-a2, a1]])  # rows: alpha, alpha-perp (unit alpha)
    g = num.compose(U.T).c
    rem = float(np.linalg.norm(g[0, :]))
    tol = 1e-10 * max(num.coeff_norm(), np.finfo(float).tiny)
    assert rem <= tol, (
        f"divided-difference remainder {rem:.3e} exceeds {tol:.3e}; "
        "the numerator does not vanish on the reflecting line"
    )
    d = num.degree
    if d == 0:
        return Poly2.zero()
    return Poly2(g[1:, :d]).compose(U)


def dunkl_apply(G: DihedralGroup, P: ParameterK, xi: PlanePoint, f: Poly2) -> Poly2:
    """Apply the differential-difference operator in direction xi.

    T f = d_xi f + sum over positive roots alpha of
    k * <alpha, xi> * (f - f o sigma_alpha) / <alpha, x>,
    with each divided difference computed by exact polynomial division.
    """
    xv = np.asarray(xi, dtype=float)
    out = complex(xv[0]) * f.deriv(0) + complex(xv[1]) * f.deriv(1)
    for alpha in positive_roots(G.n):
        av = np.array(alpha)
        coef = P.k * (av[0] * xv[0] + av[1] * xv[1])
        if coef == 0:
            continue
        refl = np.eye(2) - 2.0 * np.outer(av, av)
        quot = _divide_by_linear_form(f - f.compose(refl), av)
        out = out + coef * quot
    return out


def a_op(G: DihedralGroup, P: ParameterK, f: Poly2) -> Poly2:
    """k times the sum of f composed with every reflection of the group."""
    d = f.degree
    acc = np.zeros((d + 1, d + 1), dtype=complex)
    for j in range(G.n):
        acc += f.compose(reflection_matrix(G.n, j)).c
    return Poly2(acc * P.k)


def h_coefficients(P: ParameterK, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit-average coefficients (a_j(m), b_j(m)) of the degree-m inverse.

    a_j(m) = delta_{j,0}/(m+gamma) + gamma^2/(n*m*(m+gamma)*(m+2*gamma)),
    b_j(m) = gamma/(n*m*(m+2*gamma)).
    """
    if m < 1:
        raise DomainError("h_coefficients requires degree m >= 1")
    a1, b0, c = _h_scalars(P.gamma, P.n, m)
    a = np.full(P.n, a1, dtype=complex)
    a[0] += c
    b = np.full(P.n, b0, dtype=complex)
    return a, b


def h_matrix(G: DihedralGroup, P: ParameterK, m: int) -> np.ndarray:
    """Matrix of the inverse of (m + gamma - A) on degree-m homogeneous
    coefficient vectors: sum_j a_j(m) R_j + b_j(m) S_j over the rotation and
    reflection action matrices.  Since a_j = a_1 for j >= 1, b_j = b_0, R_0
    is the identity and S_j = diag((-1)^(m-i)) R_j (a reflection is a
    rotation times diag(1, -1), which flips the sign of x2), it is
    diag(w_m) R_m + c_m I with the weights of polyalg._h_weights, which
    polyalg._vk_matrices applies without forming it."""
    if m < 1:
        raise DomainError("h_matrix requires degree m >= 1")
    w, c = _h_weights([P], np.array([m]))
    h = w[0, 0][:, None] * _rotation_sum(G.n, m)
    h[np.diag_indices(m + 1)] += c[0, 0]
    return h


def h_op(G: DihedralGroup, P: ParameterK, m: int, f: Poly2) -> Poly2:
    """Inverse of (m + gamma - A) on homogeneous polynomials of degree m."""
    if m < 1:
        raise DomainError("h_op is defined on homogeneous degrees m >= 1 only")
    P.require_regular()
    if not f.is_homogeneous(m, tol=1e-12):
        raise DomainError(f"h_op input must be homogeneous of degree {m}")
    return from_homogeneous_vector(h_matrix(G, P, m) @ f.homogeneous_vector(m), m)


def intertwine(G: DihedralGroup, P: ParameterK, f: Poly2) -> Poly2:
    """Degree-preserving map fixing constants and conjugating plain partial
    derivatives to the differential-difference operator.  Applied to the
    graded pieces of ``f`` one total degree at a time."""
    P.require_regular()
    mats = _vk_matrices(G, P, f.degree)
    out = np.zeros_like(f.c)
    out[0, 0] = f.c[0, 0]
    for m in range(1, f.degree + 1):
        v = f.homogeneous_vector(m)
        if not np.any(v):
            continue
        idx = np.arange(m + 1)
        out[idx, m - idx] = mats[m] @ v
    return Poly2(out)


def contour_body(t: np.ndarray, inv: np.ndarray, pref: np.ndarray) -> np.ndarray:
    """kernel._contour_sum's rows for the times t alone: zero endpoint
    weights, and the endpoint row dropped."""
    return _contour_sum(t, inv, pref, np.zeros_like(pref))[:-1]


def kernel_K(P: ParameterK, orbit: OrbitPairings, S: SeriesData, t, rho: float, N: int):
    """Contour kernel at the time t, a scalar or an array: (gamma^2/2n) times
    the mean over N equally spaced points of rho * e^{i theta} of
    Phi(z) e^{t/z} / (1 - z <x,y>) (the trapezoidal rule, spectrally accurate
    for periodic analytic data).  Returns a complex for scalar t, else an
    array shaped like t.  The sums are those of ek_integral's contour pass."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise DomainError("time parameter t must lie in [0, 1]")
    inv, pref = _contour_rule(P, orbit, S, rho, N)
    vals = contour_body(t.reshape(-1), inv, pref)
    return complex(vals[0]) if t.ndim == 0 else vals.reshape(t.shape)


# ---------------------------------------------------------------------------
# the contour kernel, and the differential system's driving sums, closed
# mirror-axis form and coefficient vectors


def g_values(orbit: OrbitPairings, z: complex) -> tuple[complex, complex]:
    """The rational driving sums (g(z), g_s(z)) of the differential system."""
    z = complex(z)
    denom_rot = 1.0 - z * orbit.rot_pairings
    denom_refl = 1.0 - z * orbit.refl_pairings
    if np.min(np.abs(denom_rot)) < 1e-14 or np.min(np.abs(denom_refl)) < 1e-14:
        raise DomainError(f"z = {z} hits a pole of the orbit rational sums")
    rot = np.sum(orbit.rot_pairings / denom_rot)
    refl = np.sum(orbit.refl_pairings / denom_refl)
    return complex(rot + refl), complex(rot - refl)


def phi_sigma_invariant(P: ParameterK, orbit: OrbitPairings, z: complex) -> complex:
    """Closed generating function for mirror-axis arguments:
    (2/k) * prod_i (1 - z c_i)^(-k) over the rotation pairings c_i,
    with the principal branch of each power."""
    P.require_regular()
    _require_sigma_invariant(orbit)
    z = complex(z)
    factors = 1.0 - z * orbit.rot_pairings
    if np.any(np.abs(z * orbit.rot_pairings) >= 1.0):
        raise DomainError("closed generating function evaluated outside the unit-pairing disk")
    if np.any((factors.real <= 0) & (np.abs(factors.imag) < 1e-14)):
        raise DomainError("1 - z*c touches the branch cut of the principal power")
    log_sum = np.sum(np.log(factors))
    return complex((2.0 / P.k) * cmath.exp(-P.k * log_sum))


def _recur_by_loop(B, A, gamma, start):
    """Fill A[start:] by the convolution recursion as the double loop over
    B[p-1-i] @ A[i]."""
    for p in range(start, len(A)):
        acc = np.zeros(2, dtype=complex)
        for i in range(p):
            acc += B[p - 1 - i] @ A[i]
        A[p, 0] = acc[0] / p
        A[p, 1] = acc[1] / (p + 2 * gamma)


def _a_coeffs_by_loop(P, orbit, Pmax):
    """The 2x2 convolution matrices B[p], p = 0..Pmax-1, each built from its
    own power sums, and the 2-vector coefficients A[p], p = 0..Pmax, by the
    loop: A[0] = (2n/gamma, 0) is the recursion seed, not a term of the
    vanishing-at-zero solution, and a_coeffs' phi[p] is A[p][0] - A[p][1]."""
    g = P.gamma
    B = np.empty((Pmax, 2, 2), dtype=complex)
    for p in range(Pmax):
        rp, sp = np.sum(orbit.rot_pairings ** (p + 1)), np.sum(orbit.refl_pairings ** (p + 1))
        B[p] = (g / (2.0 * P.n)) * np.array([[rp + sp, -(rp - sp)], [rp - sp, -(rp + sp)]])
    A = np.zeros((Pmax + 1, 2), dtype=complex)
    A[0] = (2.0 * P.n / g, 0.0)
    _recur_by_loop(B, A, g, 1)
    return B, A
