"""Symbolic oracle: dense bivariate polynomial algebra over the complex
numbers, the differential-difference operator attached to the dihedral group,
and the degree-lowering/raising machinery that rebuilds the kernel components
from first principles.

Everything here is deliberately independent of the vectorized recurrence and
the generating-series routes; cross-agreement of the three is the package's
primary correctness argument.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dihedral import DihedralGroup, PlanePoint, _as_point, _orbit_matrices, reflection_matrix
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
        object.__setattr__(self, "gamma", self.n * self.k)
        two_g = 2.0 * self.gamma  # its modulus is finite only if k is
        if not math.isfinite(math.hypot(two_g.real, two_g.imag)):
            raise DomainError(f"parameter k = {self.k} and |2 gamma| = |2 n k| must be finite")

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


# The largest component degree any route evaluates, and the term cap of the
# certified kernel series sum.
MAX_DEGREE = 500


def require_degree(M: int) -> None:
    """The one degree guard: a negative M is a domain error, and M above
    MAX_DEGREE a range error, before any table is allocated."""
    if M < 0:
        raise DomainError("degree M must be nonnegative")
    if M > MAX_DEGREE:
        raise DomainError(f"degree {M} exceeds the limit {MAX_DEGREE}", code="range-error")


def require_finite_table(values: np.ndarray) -> np.ndarray:
    """The overflow guard of a component table E_0..E_M: a non-finite
    entry is a range error, reported at its degree."""
    finite = np.isfinite(values)
    if not finite.all():
        raise DomainError(
            f"the components overflow double precision at degree {int(np.argmin(finite))}",
            code="range-error",
        )
    return values


def rising_factorials(z: complex, M: int) -> np.ndarray:
    """[(z)_0, (z)_1, ..., (z)_M] with (z)_m = z(z+1)...(z+m-1).

    One cumulative product of the factors 1, z, z+1, ..., z+M-1, which
    rounds as the step-by-step products do.  Overflow is left to the caller:
    entries turn infinite.  pochhammer_table rejects it.
    """
    factors = np.empty(M + 1, dtype=complex)
    factors[0] = 1.0
    factors[1:] = z + np.arange(M)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(factors)


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


@lru_cache(maxsize=8)
def factorial_table(M: int) -> np.ndarray:
    """[0!, 1!, ..., M!] as correctly rounded doubles.  171! overflows a
    double, so M > 170 is a range error.  Read-only, since the cache hands
    the same array to every caller."""
    try:
        table = np.array([float(math.factorial(m)) for m in range(M + 1)])
    except OverflowError:
        raise DomainError(
            f"m! overflows double precision before m = {M}; reduce M",
            code="range-error",
        ) from None
    table.setflags(write=False)
    return table


def _h_scalars(g: complex, n: int, m):
    """a_1(m), b_0(m) and 1/(m+gamma) for one degree m, or elementwise for an
    integer array of degrees."""
    nm, mg, m2g = n * m, m + g, m + 2 * g
    return g * g / (nm * mg * m2g), g / (nm * m2g), 1.0 / mg


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
        """Substitution x -> M x, degree by degree, with the action matrix
        of M raised one degree per step by _raise_action."""
        mats = np.asarray(matrix, dtype=float)[None]
        act = np.ones((1, 1, 1))
        out = np.zeros_like(self.c)
        for m in range(self.degree + 1):
            if m:
                act = _raise_action(act, mats)
            idx = np.arange(m + 1)
            out[idx, m - idx] = act[0] @ self.homogeneous_vector(m)
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


def _raise_action(prev: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The action matrices of x -> f(Mx) on degree-m homogeneous coefficient
    vectors (rows and columns indexed by the x1-power), for a stack of 2x2
    matrices M, from those of degree m-1.  Column a is the coefficient vector
    of (M00 x1 + M01 x2)^a (M10 x1 + M11 x2)^(m-a): for a >= 1 it is column
    a-1 times the first form, and column 0 is column 0 times the second."""
    m00, m01, m10, m11 = (mats[:, i, j, None, None] for i in (0, 1) for j in (0, 1))
    m, col = prev.shape[1], prev[:, :, :1]
    out = np.zeros((prev.shape[0], m + 1, m + 1))
    out[:, 1:, 1:] += m00 * prev
    out[:, :m, 1:] += m01 * prev
    out[:, 1:, :1] += m10 * col
    out[:, :m, :1] += m11 * col
    return out


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


@lru_cache(maxsize=8)
def _orbit_action_cache(n: int) -> list:
    """[stack, sums]: the action matrices of the n rotations at the highest
    degree built so far, and their sums for every degree up to it, which
    take 0.6 MB through degree 60.  _rotation_sum extends it in place, so
    no degree is raised twice."""
    one = np.full((1, 1), float(n))
    one.setflags(write=False)
    return [np.ones((n, 1, 1)), [one]]


def _rotation_sum(n: int, m: int) -> np.ndarray:
    """R_m, the sum over j of the degree-m action matrices of the rotations.
    Read-only, since the cache hands the same array to every caller."""
    state = _orbit_action_cache(n)
    sums = state[1]
    for d in range(len(sums), m + 1):
        state[0] = _raise_action(state[0], _orbit_matrices(n)[:n])
        rot = state[0].sum(axis=0)
        rot.setflags(write=False)
        sums.append(rot)
    return sums[m]


def _h_weights(P: ParameterK, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row weights w_m and diagonal c_m of H_m = diag(w_m) R_m + c_m I for
    the degrees ms >= 1, in one array pass: w_m[i] = a_1(m) + b_0(m)
    (-1)^(m-i) (row m of the result, valid for i <= m), the sign read from
    the parity of m-i, and c_m = a_0(m) - a_1(m) = 1/(m+gamma)."""
    a1, b0, c = _h_scalars(P.gamma, P.n, ms)
    sign = 1.0 - 2.0 * ((ms[:, None] - np.arange(ms[-1] + 1)) & 1)
    return a1[:, None] + b0[:, None] * sign, c


def h_matrix(G: DihedralGroup, P: ParameterK, m: int) -> np.ndarray:
    """Matrix of the inverse of (m + gamma - A) on degree-m homogeneous
    coefficient vectors: sum_j a_j(m) R_j + b_j(m) S_j over the rotation and
    reflection action matrices.  Since a_j = a_1 for j >= 1, b_j = b_0, R_0
    is the identity and S_j = diag((-1)^(m-i)) R_j (a reflection is a
    rotation times diag(1, -1), which flips the sign of x2), it is
    diag(w_m) R_m + c_m I with the weights of _h_weights.  h_op uses it;
    _vk_matrices applies the same factors without forming it."""
    if m < 1:
        raise DomainError("h_matrix requires degree m >= 1")
    w, c = _h_weights(P, np.array([m]))
    h = w[0][:, None] * _rotation_sum(G.n, m)
    h[np.diag_indices(m + 1)] += c[0]
    return h


# ---------------------------------------------------------------------------
# degree-preserving intertwining map, built degree by degree


# The intertwining matrices V_0..V_M built so far, by (n, k), least recently
# used first.  _vk_matrices extends a list in place, then keeps at most
# ORACLE_CACHE_LISTS lists whose complex entries together stay within
# ORACLE_CACHE_ELEMENTS: 2^20 entries (16 MiB) hold the lists of 13
# parameters at M = 60 but one at M = 120 (6e5 entries), so a sweep over
# fresh k holds a bounded set however many samples it draws.  The newest
# list is kept even past the budget.
_vk_cache: OrderedDict = OrderedDict()
ORACLE_CACHE_LISTS = 32
ORACLE_CACHE_ELEMENTS = 2**20


def _vk_elements(length: int) -> int:
    """The entries of V_0..V_(length-1): the sum of (m+1)^2 over m < length."""
    return length * (length + 1) * (2 * length + 1) // 6


def _vk_matrices(G: DihedralGroup, P: ParameterK, mmax: int) -> list[np.ndarray]:
    """Matrices of the intertwining map on homogeneous coefficient vectors.

    Degree m is built from degree m-1 through V p = sum_i x_i V(d_i(H p)):
    with t = x1 V_{m-1} d1 + x2 V_{m-1} d2 it is t H_m = (t diag(w_m)) R_m
    + c_m t, one matrix product per degree and H_m never formed.  The
    weights of every new degree come from one call of _h_weights, and the
    degree factors of d1 and d2 are complex, as the matrices are.
    """
    key = (G.n, complex(P.k))
    mats = _vk_cache.pop(key, None) or [np.ones((1, 1), dtype=complex)]
    _vk_cache[key] = mats
    if len(mats) > mmax:
        return mats
    ms = np.arange(len(mats), mmax + 1)
    weights, diag = _h_weights(P, ms)
    powers = np.arange(1, mmax + 1, dtype=complex)
    falling = powers[::-1].copy()  # mmax, ..., 1: its last m entries are m, ..., 1
    for m, w, c in zip(ms.tolist(), weights, diag):
        # d1 scales the x1-power a by a and lowers it, d2 scales by m - a;
        # multiplying by x1 raises the output index.
        prev = mats[m - 1]
        t = np.zeros((m + 1, m + 1), dtype=complex)
        np.multiply(prev, powers[:m], out=t[1:, 1:])
        lower = t[:m, :m]
        lower += prev * falling[mmax - m :]
        v = (t * w[: m + 1]) @ _rotation_sum(G.n, m)
        v += c * t
        mats.append(v)
    while len(_vk_cache) > ORACLE_CACHE_LISTS:
        _vk_cache.popitem(last=False)
    total = sum(_vk_elements(len(v)) for v in _vk_cache.values())
    while total > ORACLE_CACHE_ELEMENTS and len(_vk_cache) > 1:
        total -= _vk_elements(len(_vk_cache.popitem(last=False)[1]))
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


# The largest |gamma| the oracle accepts, and the largest n (M+1)^2, the
# elements of the stack of rotation action matrices it raises to degree M
# (see oracle_em).
ORACLE_MAX_GAMMA = 100.0
ORACLE_MAX_ELEMENTS = 2**22


@lru_cache(maxsize=8)
def _monomial_index(M: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, D) for degrees 0..M: B[m, i] = C(m, i), by Pascal's rule in
    floating point (zero for i > m), and D[m, i] = max(m - i, 0), the
    second coordinate's power.  Read-only, since the cache shares them."""
    binom = np.zeros((M + 1, M + 1))
    binom[:, 0] = 1.0
    for m in range(1, M + 1):
        binom[m, 1 : m + 1] = binom[m - 1, 1 : m + 1] + binom[m - 1, :m]
    m = np.arange(M + 1)
    diff = np.maximum(m[:, None] - m, 0)
    binom.setflags(write=False)
    diff.setflags(write=False)
    return binom, diff


def oracle_em(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Components E_0 .. E_M evaluated symbolically: for each degree m, apply
    the intertwining map to <., y>^m, evaluate at x, divide by m!.

    With X[m, i] = x1^i x2^(m-i) and Y[m, i] = C(m, i) y1^i y2^(m-i), both
    formed once per call from the powers of the coordinates, degree m costs
    X[m] . (V_m Y[m]), and the table is divided by the factorials once.

    |gamma| above ORACLE_MAX_GAMMA = 100 is a range error.  The orbit terms
    of H_m, of size 1/(n m), cancel to O(1/gamma), so the table's rounding
    error grows with |gamma| (at k = 1e20, E_1 came out with the wrong
    sign).  Within the limit, for n <= 12, the table agrees with em_sequence
    to 1e-8 in the measure max(|E_m|, a^m / |(1+gamma)_m|) through M = 12,
    and through M = 40 for real y.  Through M = 60 it does not: the error
    reached 1e-3 for complex y at |gamma| near 1.

    n (M+1)^2 above ORACLE_MAX_ELEMENTS = 2^22 is a range error, refused
    before any matrix is built: _rotation_sum raises the action matrices of
    all n rotations together, so memory grows as n M^2 (32 MB for the stack
    at the limit, about 210 MB peak for the whole process).
    """
    require_degree(M)
    if G.n * (M + 1) ** 2 > ORACLE_MAX_ELEMENTS:
        raise DomainError(
            f"n (M+1)^2 = {G.n * (M + 1) ** 2} exceeds the oracle's element budget "
            f"{ORACLE_MAX_ELEMENTS}; reduce n or M",
            code="range-error",
        )
    xa = _as_point(x)
    if xa.dtype.kind == "c" and np.max(np.abs(xa.imag)) > 0:
        raise DomainError("the first argument must be a real plane point")
    if not abs(P.gamma) <= ORACLE_MAX_GAMMA:
        raise DomainError(
            f"|gamma| = {abs(P.gamma):.6g} exceeds the oracle's limit {ORACLE_MAX_GAMMA:g}",
            code="range-error",
        )
    P.require_regular()
    out = np.empty(M + 1, dtype=complex)
    out[0] = 1.0
    if M == 0:
        return out
    factorials = factorial_table(M)
    ya = _as_point(y).astype(complex)
    xr = xa.astype(float)
    binom, diff = _monomial_index(M)
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _vk_matrices(G, P, M)
        yp, xp = np.ones((2, M + 1), dtype=complex), np.ones((2, M + 1))
        yp[:, 1:], xp[:, 1:] = ya[:, None], xr[:, None]
        yp, xp = np.cumprod(yp, axis=1), np.cumprod(xp, axis=1)
        ys = binom * yp[0] * yp[1][diff]
        xs = (xp[0] * xp[1][diff]).astype(complex)  # so no np.dot below casts
        for m in range(1, M + 1):
            out[m] = np.dot(mats[m] @ ys[m, : m + 1], xs[m, : m + 1])
        out /= factorials
    return require_finite_table(out)
