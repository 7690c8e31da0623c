"""Symbolic oracle: the intertwining map V_k as its matrices on homogeneous
coefficient vectors, built degree by degree from the rotations' action
matrices and the shifted inverse of the group average, and the component
table E_0..E_M read from them.  Also the parameter k with its admissibility
guard, and the Pochhammer and factorial tables every route shares.

The oracle is deliberately independent of the vectorized recurrence and the
generating-series routes; cross-agreement of the routes is the package's
primary correctness argument.  The polynomial algebra, the
differential-difference operator T_xi and V_k applied to polynomials live in
tests/definitions.py, against which the tests check these matrices.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dihedral import DihedralGroup, PlanePoint, _as_point, _orbit_matrices
from .errors import DomainError

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
    """Row weights w_m and diagonal c_m of H_m, the inverse of (m + gamma - A)
    on degree-m coefficient vectors, for the degrees ms >= 1, in one array
    pass.  H_m = sum_j a_j(m) R_j + b_j(m) S_j over the rotation and
    reflection action matrices, with a_j = a_1 for j >= 1, a_0 = a_1 +
    1/(m+gamma) and b_j = b_0 (_h_scalars).  R_0 is the identity and S_j =
    diag((-1)^(m-i)) R_j (a reflection is a rotation times diag(1, -1),
    which flips the sign of x2), so H_m = diag(w_m) R_m + c_m I with
    w_m[i] = a_1(m) + b_0(m) (-1)^(m-i) (row m of the result, valid for
    i <= m), the sign read from the parity of m-i, and c_m = 1/(m+gamma)."""
    a1, b0, c = _h_scalars(P.gamma, P.n, ms)
    sign = 1.0 - 2.0 * ((ms[:, None] - np.arange(ms[-1] + 1)) & 1)
    return a1[:, None] + b0[:, None] * sign, c


# ---------------------------------------------------------------------------
# the intertwining map's matrices, built degree by degree


class _ListCache(OrderedDict):
    """An OrderedDict of matrix lists that keeps `elements`, the entries of
    its lists together, as _vk_matrices adds, extends and evicts them;
    clear() resets it."""

    elements = 0

    def clear(self) -> None:
        super().clear()
        self.elements = 0


# The intertwining matrices V_0..V_M built so far, by (n, k), least recently
# used first.  _vk_matrices extends a list in place, then keeps at most
# ORACLE_CACHE_LISTS lists whose complex entries together stay within
# ORACLE_CACHE_ELEMENTS: 2^20 entries (16 MiB) hold the lists of 13
# parameters at M = 60 but one at M = 120 (6e5 entries), so a sweep over
# fresh k holds a bounded set however many samples it draws.  The newest
# list is kept even past the budget.
_vk_cache = _ListCache()
ORACLE_CACHE_LISTS = 32
ORACLE_CACHE_ELEMENTS = 2**20


def _vk_elements(length: int) -> int:
    """The entries of V_0..V_(length-1): the sum of (m+1)^2 over m < length."""
    return length * (length + 1) * (2 * length + 1) // 6


def _vk_matrices(G: DihedralGroup, P: ParameterK, mmax: int) -> list[np.ndarray]:
    """Matrices of the intertwining map on homogeneous coefficient vectors.

    Degree m is built from degree m-1 through V p = sum_i x_i V(d_i(H p)):
    with t = x1 V_{m-1} d1 + x2 V_{m-1} d2 it is t H_m = (t diag(w_m)) R_m
    + c_m t (_h_weights), one matrix product per degree and H_m never
    formed (tests/definitions.py's h_matrix forms it, for the tests).  The
    weights of every new degree come from one call of _h_weights, and the
    degree factors of d1 and d2 are complex, as the matrices are.
    """
    key = (G.n, complex(P.k))
    mats = _vk_cache.pop(key, None)
    if mats is None:
        mats = [np.ones((1, 1), dtype=complex)]
        _vk_cache.elements += 1
    _vk_cache[key] = mats
    if len(mats) > mmax:
        return mats
    start = len(mats)
    ms = np.arange(start, mmax + 1)
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
    _vk_cache.elements += _vk_elements(len(mats)) - _vk_elements(start)
    while len(_vk_cache) > ORACLE_CACHE_LISTS or (
        _vk_cache.elements > ORACLE_CACHE_ELEMENTS and len(_vk_cache) > 1
    ):
        _vk_cache.elements -= _vk_elements(len(_vk_cache.popitem(last=False)[1]))
    return mats


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
