"""Symbolic oracle: the intertwining map V_k as its matrices on homogeneous
coefficient vectors, built degree by degree from the rotations' action
matrices and the shifted inverse of the group average, and the component
table E_0..E_M read from them.  Also the parameter k with its admissibility
guard, and the Pochhammer and factorial tables every route shares.

The oracle runs on a batch of argument pairs (oracle_tables): at each
degree the parameters whose matrices lack it advance as one stack
(_vk_build), and the components of that degree are read in the same loop.
A batch runs in chunks whose matrices fit the oracle's cache together.
Every step is elementwise or one matrix product per member, so a member's
table is the same, bit for bit, in any batch; oracle_em is the batch of one.

The oracle is deliberately independent of the vectorized recurrence and the
generating-series routes; cross-agreement of the routes is the package's
primary correctness argument.  The polynomial algebra, the
differential-difference operator T_xi and V_k applied to polynomials live in
tests/definitions.py, against which the tests check these matrices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

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


def _h_scalars(g, n, m):
    """a_1(m), b_0(m) and 1/(m+gamma) for one degree m, or elementwise for an
    integer array of degrees; g and n may be columns of a batch's gammas and
    orders.  gamma^2 is formed part by part, as a Python complex product
    forms it: numpy's vectorized complex product fuses its multiplies and
    adds, so a batch's gamma^2 would not round as one member's does."""
    re, im = np.real(g), np.imag(g)
    g2 = np.empty(np.shape(g), dtype=complex)
    g2.real, g2.imag = re * re - im * im, re * im + im * re
    nm, mg, m2g = n * m, m + g, m + 2 * g
    return g2 / (nm * mg * m2g), g / (nm * m2g), 1.0 / mg


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


def _h_weights(params: Sequence[ParameterK], ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row weights w_m and diagonal c_m of H_m, the inverse of (m + gamma - A)
    on degree-m coefficient vectors, for each parameter of a batch and the
    degrees ms >= 1, in one array pass: a (B, len(ms), ms[-1]+1) and a
    (B, len(ms)) array.  H_m = sum_j a_j(m) R_j + b_j(m) S_j over the
    rotation and reflection action matrices, with a_j = a_1 for j >= 1, a_0
    = a_1 + 1/(m+gamma) and b_j = b_0 (_h_scalars).  R_0 is the identity
    and S_j = diag((-1)^(m-i)) R_j (a reflection is a rotation times
    diag(1, -1), which flips the sign of x2), so H_m = diag(w_m) R_m + c_m I
    with w_m[i] = a_1(m) + b_0(m) (-1)^(m-i) (row m of the result, valid for
    i <= m), the sign read from the parity of m-i, and c_m = 1/(m+gamma)."""
    gammas = np.array([P.gamma for P in params], dtype=complex)[:, None]
    a1, b0, c = _h_scalars(gammas, np.array([P.n for P in params])[:, None], ms)
    sign = 1.0 - 2.0 * ((ms[:, None] - np.arange(ms[-1] + 1)) & 1)
    return a1[:, :, None] + b0[:, :, None] * sign, c


# ---------------------------------------------------------------------------
# the intertwining map's matrices, built degree by degree for a batch


# The intertwining matrices V_0..V_M built so far, by (n, k), least recently
# used first.  _vk_build extends lists in place, then keeps at most
# ORACLE_CACHE_LISTS lists whose complex entries together stay within
# ORACLE_CACHE_ELEMENTS: 2^20 entries (16 MiB) hold the lists of 13
# parameters at M = 60 but one at M = 120 (6e5 entries), so a sweep over
# fresh k holds a bounded set however many samples it draws.  The newest
# list is kept even past the budget.  The entries held are computed from
# the list lengths when an eviction asks for them, not counted.
_vk_cache = OrderedDict()
ORACLE_CACHE_LISTS = 32
ORACLE_CACHE_ELEMENTS = 2**20


def _vk_elements(length: int) -> int:
    """The entries of V_0..V_(length-1): the sum of (m+1)^2 over m < length."""
    return length * (length + 1) * (2 * length + 1) // 6


def _vk_evict(keep: int, growth: int = 0) -> None:
    """Evict the least recently used lists while the cache holds more than
    ORACLE_CACHE_LISTS lists, or more than ORACLE_CACHE_ELEMENTS entries
    once `growth` more are built, sparing the `keep` most recent."""
    held = sum(_vk_elements(len(mats)) for mats in _vk_cache.values())
    while len(_vk_cache) > keep and (
        len(_vk_cache) > ORACLE_CACHE_LISTS or held + growth > ORACLE_CACHE_ELEMENTS
    ):
        held -= _vk_elements(len(_vk_cache.popitem(last=False)[1]))


def _vk_fetch(
    members: Sequence[tuple[DihedralGroup, ParameterK]], mmax: int
) -> tuple[list[list[np.ndarray]], list[int]]:
    """The cached list V_0, V_1, ... of each member (G, P) of a batch, in
    order, each moved to the most recently used end (a new list holds V_0 =
    1), and the members whose lists _vk_build extends: one per distinct list
    that lacks degree mmax, in the order of the degree the list starts at.

    The older lists that the finished batch will evict go first, so that
    their memory is free while the batch's matrices are built; the batch's
    own lists wait for _vk_build's eviction, which leaves the cache as one
    list at a time would."""
    lists, build, keys = [], [], set()
    for i, (G, P) in enumerate(members):
        key = (G.n, complex(P.k))
        mats = _vk_cache.pop(key, None) or [np.ones((1, 1), dtype=complex)]
        _vk_cache[key] = mats
        lists.append(mats)
        if len(mats) <= mmax and key not in keys:
            build.append(i)
        keys.add(key)
    build.sort(key=lambda i: len(lists[i]))
    if build:
        growth = sum(_vk_elements(mmax + 1) - _vk_elements(len(lists[i])) for i in build)
        _vk_evict(len(keys), growth)
    return lists, build


def _vk_build(
    lists: list[list[np.ndarray]],
    members: Sequence[tuple[DihedralGroup, ParameterK]],
    build: list[int],
    mmax: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Extend the lists of the members `build` (from _vk_fetch) through
    degree mmax, and yield (m, stack) after each degree m it builds: row r
    of the stack is V_m of member build[r], for the members whose lists
    lacked degree m.  Run it to its end: the cache's eviction follows the
    last degree.

    Degree m is built from degree m-1 through V p = sum_i x_i V(d_i(H p)):
    with t = x1 V_{m-1} d1 + x2 V_{m-1} d2 it is t H_m = (t diag(w_m)) R_m
    + c_m t (_h_weights), one matrix product per degree and H_m never
    formed (tests/definitions.py's h_matrix forms it, for the tests).  The
    lists that lack degree m advance together: t, the weights, each list's
    rotation sum R_m of its own n and the product are (B, m+1, m+1) stacks,
    a list joins the stack at the degree it starts at, and the weights of
    every list and new degree come from one call of _h_weights.  Every
    operation is elementwise or a matrix product per member, so a member's
    matrices round as they do in a batch of one.  The degree factors of d1
    and d2 are complex, as the matrices are.

    Real and imaginary parts below 2^-1022 are set to zero in each new
    stack before it is read or cached: for even n the rotation sums carry
    sin(pi)'s residue, 1.2e-16, which decays in V_m into subnormals (3647
    parts through degree 60 at n = 2), and a product that reads them runs
    several times slower.
    """
    if not build:
        return
    starts = [len(lists[i]) for i in build]
    orders = [members[i][0].n for i in build]
    try:
        weights, diag = _h_weights([members[i][1] for i in build], np.arange(starts[0], mmax + 1))
        powers = np.arange(1, mmax + 1, dtype=complex)
        falling = powers[::-1].copy()  # mmax, ..., 1: its last m entries are m, ..., 1
        stack, active = None, 0
        for j, m in enumerate(range(starts[0], mmax + 1)):
            joined = bisect_right(starts, m)
            if joined > active:
                fresh = np.array([lists[i][m - 1] for i in build[active:joined]])
                stack = np.concatenate((stack, fresh)) if active else fresh
                active = joined
            # d1 scales the x1-power a by a and lowers it, d2 scales by
            # m - a; multiplying by x1 raises the output index.
            t = np.zeros((active, m + 1, m + 1), dtype=complex)
            np.multiply(stack, powers[:m], out=t[:, 1:, 1:])
            lower = t[:, :m, :m]
            lower += stack * falling[mmax - m :]
            # complex, as the product would cast it
            rot = np.array([_rotation_sum(n, m) for n in orders[:active]], dtype=complex)
            stack = (t * weights[:active, j, None, : m + 1]) @ rot
            stack += diag[:active, j, None, None] * t
            parts = stack.view(float)
            np.putmask(parts, np.abs(parts) < 2.0**-1022, 0.0)
            for i, v in zip(build, stack):
                lists[i].append(v.copy())  # so an evicted list frees its own matrices
            yield m, stack
    finally:
        _vk_evict(1)


# The largest |gamma| the oracle accepts, and the largest n (M+1)^2, the
# elements of the stack of rotation action matrices it raises to degree M
# (see oracle_em).
ORACLE_MAX_GAMMA = 100.0
ORACLE_MAX_ELEMENTS = 2**22


@lru_cache(maxsize=8)
def _monomial_index(M: int, members: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, D) for degrees 0..M and a batch of members: C[m, i] = C(m, i), by
    Pascal's rule in floating point (zero for i > m), and D[b, m, i] =
    b (M+1) + max(m - i, 0), where member b's power of the second
    coordinate lies in the flat (members, M+1) table of powers.  Read-only,
    since the cache shares them."""
    binom = np.zeros((M + 1, M + 1))
    binom[:, 0] = 1.0
    for m in range(1, M + 1):
        binom[m, 1 : m + 1] = binom[m - 1, 1 : m + 1] + binom[m - 1, :m]
    m = np.arange(M + 1)
    power = np.maximum(m[:, None] - m, 0) + (M + 1) * np.arange(members)[:, None, None]
    binom.setflags(write=False)
    power.setflags(write=False)
    return binom, power


def _oracle_points(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """One member's refusals, in oracle_em's order, then its points: x as a
    real array and y as a complex one, or None at M = 0, where neither is
    read."""
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
    if M == 0:
        return None
    factorial_table(M)  # m! past the double range is refused before y is read
    ya = _as_point(y).astype(complex)
    return xa.astype(float), ya


def _oracle_chunk(
    members: Sequence[tuple[DihedralGroup, ParameterK, PlanePoint, PlanePoint]],
    points: list,
    M: int,
) -> list[np.ndarray]:
    """The tables of members whose points _oracle_points has read.

    With X[m, i] = x1^i x2^(m-i) and Y[m, i] = C(m, i) y1^i y2^(m-i) per
    member, formed for all members at once from the powers of the
    coordinates, E_m is X[m] . (V_m Y[m]): one BLAS matrix-vector product
    and one BLAS dot product, whether for one member or for each member of
    a stack.  The members whose lists _vk_build starts from V_0 come first,
    and their E_m are read from the stack it yields, in the same degree
    loop.  A member whose list was cached, or that shares another's, is
    read from its list after the loop, by ndarray.dot, which calls the same
    BLAS routines as @ at less cost per call.  The table is divided by the
    factorials once."""
    if M == 0:
        return [np.ones(1, dtype=complex) for _ in members]
    B = len(members)
    pairs = [(G, P) for G, P, _, _ in members]
    lists, build = _vk_fetch(pairs, M)
    built = set(build)
    order = build + [i for i in range(B) if i not in built]
    cold = sum(len(lists[i]) == 1 for i in build)
    xr = np.array([points[i][0] for i in order]).T  # (2, B): coordinate, member
    ya = np.array([points[i][1] for i in order]).T
    binom, power = _monomial_index(M, B)
    table = np.empty((B, M + 1), dtype=complex)
    table[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        yp, xp = np.ones((2, B, M + 1), dtype=complex), np.ones((2, B, M + 1))
        yp[:, :, 1:], xp[:, :, 1:] = ya[:, :, None], xr[:, :, None]
        yp, xp = np.cumprod(yp, axis=2), np.cumprod(xp, axis=2)
        ys = binom * yp[0, :, None] * yp[1].ravel()[power]
        xs = (xp[0, :, None] * xp[1].ravel()[power]).astype(complex)  # so no product casts
        for m, stack in _vk_build(lists, pairs, build, M):
            if cold:
                u = stack[:cold] @ ys[:cold, m, : m + 1, None]
                np.matmul(u.mT, xs[:cold, m, : m + 1, None], out=table[:cold, m, None, None])
        for r in range(cold, B):
            mats, y, x, row = lists[order[r]], ys[r], xs[r], table[r]
            for m in range(1, M + 1):
                row[m] = mats[m].dot(y[m, : m + 1]).dot(x[m, : m + 1])
        table /= factorial_table(M)
    tables = [None] * B
    for r, i in enumerate(order):
        tables[i] = table[r]
    return tables


def oracle_tables(
    members: Sequence[tuple[DihedralGroup, ParameterK, PlanePoint, PlanePoint]], M: int
) -> list[np.ndarray]:
    """The tables E_0..E_M of a batch of members (G, P, x, y), each as
    oracle_em evaluates it alone, bit for bit, with the V_m recursion of
    all members advanced together (_vk_build) and each member's E_m read in
    the same degree loop.

    The members are checked in order, as oracle_em checks one; the first
    member refused ends the batch.  The members before it are evaluated,
    and the first refusal in member order is raised: a table past the
    double range, then the refused member's own refusal.  The batch runs in
    chunks whose intertwining matrices, V_0..V_M per member, together stay
    within ORACLE_CACHE_ELEMENTS (at least one member per chunk), so a
    chunk's lists fit the cache together, and its stacks, at most that
    many entries, stay well within ORACLE_MAX_ELEMENTS.
    """
    members = list(members)
    points, refusal = [], None
    for G, P, x, y in members:
        try:
            points.append(_oracle_points(G, P, x, y, M))
        except DomainError as exc:
            refusal = exc
            break
    tables = []
    if points:
        size = max(1, ORACLE_CACHE_ELEMENTS // _vk_elements(M + 1))
        for lo in range(0, len(points), size):
            hi = min(lo + size, len(points))
            tables += _oracle_chunk(members[lo:hi], points[lo:hi], M)
    for table in tables:
        require_finite_table(table)
    if refusal is not None:
        raise refusal
    return tables


def oracle_em(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Components E_0 .. E_M evaluated symbolically: for each degree m, apply
    the intertwining map to <., y>^m, evaluate at x, divide by m!: degree m
    costs X[m] . (V_m Y[m]) (_oracle_chunk).  The batch of one of
    oracle_tables.

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
    return oracle_tables([(G, P, x, y)], M)[0]
