"""Symbolic oracle: dense bivariate polynomial algebra over the complex
numbers, the differential-difference operator attached to the dihedral group,
and the degree-lowering/raising machinery that rebuilds the kernel components
from first principles.

Everything here is deliberately independent of the vectorized recurrence and
the generating-series routes; cross-agreement of the three is the package's
primary correctness argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dihedral import (
    DihedralGroup,
    PlanePoint,
    _as_point,
    reflection_matrix,
    rotation_matrix,
)
from .errors import ConsistencyError, DomainError

# ---------------------------------------------------------------------------
# parameter and Pochhammer data


@dataclass(frozen=True)
class ParameterK:
    """Complex multiplicity parameter k for an order-2n dihedral group.

    gamma = n*k is the sum of k over the positive roots.  The admissibility
    guard excludes gamma = 0 and 2*gamma a negative integer; outside that set
    the inverse operators used by every evaluation route are undefined.
    """

    k: complex
    n: int
    gamma: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "k", complex(self.k))
        if not cmath.isfinite(self.k):
            raise DomainError(f"parameter k = {self.k} must be finite")
        object.__setattr__(self, "gamma", self.n * complex(self.k))

    def regularity_margin(self) -> float:
        """Distance of the parameter from the inadmissible set.

        Returns min(|gamma|, distance of 2*gamma to {-1, -2, -3, ...}).
        """
        two_g = 2.0 * self.gamma
        j = max(1, round(-two_g.real))
        d = min(abs(two_g + j), abs(two_g + j + 1), abs(two_g + max(1, j - 1)))
        return min(abs(self.gamma), d)

    def require_regular(self) -> None:
        """Raise a domain error unless the margin exceeds 1e-12."""
        if abs(self.gamma) <= 1e-12:
            raise DomainError(
                f"gamma = {self.gamma} is zero: series-based evaluation routes "
                "are undefined (use the k = 0 exponential shortcut)"
            )
        if not self.regularity_margin() > 1e-12:
            two_g = 2.0 * self.gamma
            j = max(1, round(-two_g.real))
            raise DomainError(
                f"gamma = {self.gamma} is inadmissible: p + 2*gamma vanishes "
                f"(within 1e-12) at the positive integer p = {j}"
            )


def rising_factorials(z: complex, M: int) -> np.ndarray:
    """[(z)_0, (z)_1, ..., (z)_M] with (z)_m = z(z+1)...(z+m-1).

    Overflow is left to the caller: entries turn infinite.  pochhammer_table
    and factorial_table reject it.
    """
    out = np.empty(M + 1, dtype=complex)
    out[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(M):
            out[m + 1] = out[m] * (z + m)
    return out


def pochhammer_table(P: ParameterK, M: int) -> np.ndarray:
    """The table (1+gamma)_0 .. (1+gamma)_M that normalises the components.

    The one overflow guard for it: a non-finite entry is a range error.
    """
    values = rising_factorials(1.0 + P.gamma, M)
    if not np.all(np.isfinite(values.view(float))):
        raise DomainError(
            f"(1+gamma)_m overflows double precision before m = {M}; reduce M",
            code="range-error",
        )
    return values


def factorial_table(M: int) -> np.ndarray:
    """[0!, 1!, ..., M!] as correctly rounded doubles.  171! overflows a
    double, so M > 170 is a range error."""
    try:
        return np.array([float(math.factorial(m)) for m in range(M + 1)])
    except OverflowError:
        raise DomainError(
            f"m! overflows double precision before m = {M}; reduce M",
            code="range-error",
        ) from None


def h_coefficients(P: ParameterK, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit-average coefficients (a_j(m), b_j(m)) of the degree-m inverse.

    a_j(m) = delta_{j,0}/(m+gamma) + gamma^2/(n*m*(m+gamma)*(m+2*gamma)),
    b_j(m) = gamma/(n*m*(m+2*gamma)).
    """
    if m < 1:
        raise DomainError("h_coefficients requires degree m >= 1")
    g, n = P.gamma, P.n
    a = np.full(n, g * g / (n * m * (m + g) * (m + 2 * g)), dtype=complex)
    a[0] += 1.0 / (m + g)
    b = np.full(n, g / (n * m * (m + 2 * g)), dtype=complex)
    return a, b


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

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "Poly2":
        return Poly2(np.zeros((1, 1)))

    @staticmethod
    def constant(value: complex) -> "Poly2":
        return Poly2(np.array([[value]]))

    @staticmethod
    def coordinate(axis: int) -> "Poly2":
        c = np.zeros((2, 2), dtype=complex)
        if axis == 0:
            c[1, 0] = 1.0
        else:
            c[0, 1] = 1.0
        return Poly2(c)

    @property
    def degree(self) -> int:
        return self.c.shape[0] - 1

    def padded(self, degree: int) -> np.ndarray:
        out = np.zeros((degree + 1, degree + 1), dtype=complex)
        out[: self.c.shape[0], : self.c.shape[1]] = self.c
        return out

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        d = max(self.degree, other.degree)
        return Poly2(self.padded(d) + other.padded(d))

    def __sub__(self, other: "Poly2") -> "Poly2":
        d = max(self.degree, other.degree)
        return Poly2(self.padded(d) - other.padded(d))

    def __neg__(self) -> "Poly2":
        return Poly2(-self.c)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            d = self.degree + other.degree
            out = np.zeros((d + 1, d + 1), dtype=complex)
            for a, b in np.argwhere(self.c != 0):
                out[a : a + other.degree + 1, b : b + other.degree + 1] += (
                    self.c[a, b] * other.c
                )
            return Poly2(out)
        return Poly2(self.c * complex(other))

    def __rmul__(self, scalar) -> "Poly2":
        return Poly2(self.c * complex(scalar))

    def deriv(self, axis: int) -> "Poly2":
        d = self.degree
        if d == 0:
            return Poly2.zero()
        out = np.zeros((d, d), dtype=complex)
        if axis == 0:
            out[:, :] = self.c[1:, :d] * np.arange(1, d + 1)[:, None]
        else:
            out[:, :] = self.c[:d, 1:] * np.arange(1, d + 1)[None, :]
        return Poly2(out)

    def evaluate(self, point: PlanePoint) -> complex:
        p = _as_point(point).astype(complex)
        return complex(np.polynomial.polynomial.polyval2d(p[0], p[1], self.c))

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.c))

    # -- graded structure ----------------------------------------------------

    def homogeneous_vector(self, m: int) -> np.ndarray:
        """Coefficients of the degree-m part, indexed by the x1-power."""
        if m > self.degree:
            return np.zeros(m + 1, dtype=complex)
        idx = np.arange(m + 1)
        return self.c[idx, m - idx].copy()

    def is_homogeneous(self, m: int, tol: float = 1e-12) -> bool:
        scale = max(self.coeff_norm(), 1.0)
        return all(
            np.max(np.abs(self.homogeneous_vector(j))) <= tol * scale
            for j in range(self.degree + 1)
            if j != m
        )

    def compose(self, matrix: np.ndarray) -> "Poly2":
        """Substitution x -> M x, degree by degree via cached action matrices."""
        out = np.zeros_like(self.c)
        for m in range(self.degree + 1):
            v = self.homogeneous_vector(m)
            if not np.any(v):
                continue
            w = _action_matrix(np.asarray(matrix, dtype=float), m) @ v
            idx = np.arange(m + 1)
            out[idx, m - idx] = w
        return Poly2(out)

    def __repr__(self) -> str:
        return f"Poly2(degree={self.degree})"


def from_homogeneous_vector(v: np.ndarray, m: int) -> Poly2:
    c = np.zeros((m + 1, m + 1), dtype=complex)
    idx = np.arange(m + 1)
    c[idx, m - idx] = v
    return Poly2(c)


def _pairing_power_vector(ya: np.ndarray, m: int) -> np.ndarray:
    """Homogeneous coefficients of x -> (x1*y1 + x2*y2)^m, indexed by the
    x1-power, for the complex point ya."""
    return np.array(
        [math.comb(m, a) * ya[0] ** a * ya[1] ** (m - a) for a in range(m + 1)]
    )


def pairing_power(y: PlanePoint, m: int) -> Poly2:
    """The polynomial x -> (x1*y1 + x2*y2)^m (binomial coefficients)."""
    return from_homogeneous_vector(_pairing_power_vector(_as_point(y).astype(complex), m), m)


# Per-degree matrices of x -> f(Mx) on homogeneous coefficient vectors,
# keyed by the matrix bytes (matrices are rebuilt deterministically from n).
_ACTION_CACHE: dict[tuple[bytes, int], np.ndarray] = {}


def _action_matrix(M: np.ndarray, m: int) -> np.ndarray:
    key = (M.tobytes(), m)
    hit = _ACTION_CACHE.get(key)
    if hit is not None:
        return hit

    def binom_pow(c1: float, c2: float, p: int) -> np.ndarray:
        return np.array([math.comb(p, i) * c1**i * c2 ** (p - i) for i in range(p + 1)])

    mat = np.empty((m + 1, m + 1))
    for a_in in range(m + 1):
        p1 = binom_pow(M[0, 0], M[0, 1], a_in)
        p2 = binom_pow(M[1, 0], M[1, 1], m - a_in)
        mat[:, a_in] = np.convolve(p1, p2)
    _ACTION_CACHE[key] = mat
    return mat


# ---------------------------------------------------------------------------
# the differential-difference operator and its divided differences


def _divide_by_linear_form(num: Poly2, alpha: np.ndarray) -> Poly2:
    """Exact division of ``num`` by the linear form <alpha, x>.

    Rotates coordinates so the form becomes the first axis, performs synthetic
    division there, and rotates back.  The remainder must vanish (the numerator
    is antisymmetric under the reflection fixing the form's kernel); a
    remainder above 1e-10 times the numerator's coefficient norm indicates a
    broken reflection and raises.
    """
    a1, a2 = float(alpha[0]), float(alpha[1])
    U = np.array([[a1, a2], [-a2, a1]])  # rows: alpha, alpha-perp (unit alpha)
    g = num.compose(U.T).c
    rem = float(np.linalg.norm(g[0, :]))
    tol = 1e-10 * max(num.coeff_norm(), np.finfo(float).tiny)
    if rem > tol:
        raise ConsistencyError(
            f"divided-difference remainder {rem:.3e} exceeds {tol:.3e}; "
            "the numerator does not vanish on the reflecting line"
        )
    d = num.degree
    if d == 0:
        return Poly2.zero()
    q = g[1:, :d]
    return Poly2(q).compose(U)


def dunkl_apply(G: DihedralGroup, P: ParameterK, xi: PlanePoint, f: Poly2) -> Poly2:
    """Apply the differential-difference operator in direction xi.

    T f = d_xi f + sum over positive roots alpha of
    k * <alpha, xi> * (f - f o sigma_alpha) / <alpha, x>,
    with each divided difference computed by exact polynomial division.
    """
    xv = np.asarray(xi, dtype=float)
    out = complex(xv[0]) * f.deriv(0) + complex(xv[1]) * f.deriv(1)
    for alpha in G.positive_roots:
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


def h_op(G: DihedralGroup, P: ParameterK, m: int, f: Poly2) -> Poly2:
    """Inverse of (m + gamma - A) on homogeneous polynomials of degree m."""
    if m < 1:
        raise DomainError("h_op is defined on homogeneous degrees m >= 1 only")
    P.require_regular()
    if not f.is_homogeneous(m, tol=1e-12):
        raise DomainError(f"h_op input must be homogeneous of degree {m}")
    return from_homogeneous_vector(h_matrix(G, P, m) @ f.homogeneous_vector(m), m)


def h_matrix(G: DihedralGroup, P: ParameterK, m: int) -> np.ndarray:
    """Matrix of the inverse of (m + gamma - A) on degree-m homogeneous
    coefficient vectors: sum_j a_j(m) R_j + b_j(m) S_j over the rotation and
    reflection action matrices.  h_op and the intertwining build share it."""
    a, b = h_coefficients(P, m)
    h = np.zeros((m + 1, m + 1), dtype=complex)
    for j in range(G.n):
        h += a[j] * _action_matrix(rotation_matrix(G.n, j), m)
        h += b[j] * _action_matrix(reflection_matrix(G.n, j), m)
    return h


# ---------------------------------------------------------------------------
# degree-preserving intertwining map, built degree by degree


@lru_cache(maxsize=32)
def _vk_cache(n: int, k: complex) -> list[np.ndarray]:
    """The intertwining matrices built so far for one (n, k), starting at
    degree 0; _vk_matrices extends the list in place.  Bounded, so a sweep
    over fresh k keeps only the most recent parameters."""
    return [np.ones((1, 1), dtype=complex)]


def _vk_matrices(G: DihedralGroup, P: ParameterK, mmax: int) -> list[np.ndarray]:
    """Matrices of the intertwining map on homogeneous coefficient vectors.

    Degree m is built from degree m-1 through V p = sum_i x_i V(d_i(H p)),
    assembled as (m+1)x(m+1) matrices so repeated evaluations are cheap.
    """
    return _extend_vk(G, P, _vk_cache(G.n, complex(P.k)), mmax)


def _extend_vk(
    G: DihedralGroup, P: ParameterK, mats: list[np.ndarray], mmax: int
) -> list[np.ndarray]:
    for m in range(len(mats), mmax + 1):
        # x1 V(d1 p) + x2 V(d2 p): d1 scales the x1-power a by a and lowers
        # it, d2 scales by m - a; multiplying by x1 raises the output index.
        prev, a = mats[m - 1], np.arange(1, m + 1)
        t = np.zeros((m + 1, m + 1), dtype=complex)
        t[1:, 1:] = prev * a
        t[:m, :m] += prev * a[::-1]
        mats.append(t @ h_matrix(G, P, m))
    return mats


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


def oracle_em(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Components E_0 .. E_M evaluated symbolically: for each degree m, apply
    the intertwining map to <., y>^m, evaluate at x, divide by m!."""
    if M < 0:
        raise DomainError("component count M must be nonnegative")
    xa = _as_point(x)
    if xa.dtype.kind == "c" and np.max(np.abs(xa.imag)) > 0:
        raise DomainError("the first argument must be a real plane point")
    P.require_regular()
    out = np.empty(M + 1, dtype=complex)
    out[0] = 1.0
    if M == 0:
        return out
    factorials = factorial_table(M)
    mats = _vk_matrices(G, P, M)
    ya = _as_point(y).astype(complex)
    xr = xa.astype(float)
    for m in range(1, M + 1):
        v = _pairing_power_vector(ya, m)
        powers = np.array([xr[0] ** a * xr[1] ** (m - a) for a in range(m + 1)])
        out[m] = np.dot(mats[m] @ v, powers) / factorials[m]
    return out
