"""Dihedral group geometry: group elements as 2x2 matrices, bilinear
pairings, orbit pairing data and the orbit growth bound.

The plane is identified with the complex numbers, z = x1 + i*x2.  The group
of order 2n consists of the rotations z -> z*w^(2j) and the reflections
z -> conj(z)*w^(2j) with w = exp(i*pi/n).  An element is its real 2x2
matrix, rotation_matrix(n, j) or reflection_matrix(n, j), and acts on a
point with complex coordinates by the matrix product (the bilinear extension
used everywhere in this package: no complex conjugation in pairings).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import DomainError

PlanePoint = Union[Sequence, np.ndarray]

# The largest n accepted.  Memory and time grow linearly in n: an integral
# and a series op took 4.5 and 5.3 ms at n = 1e4, 36 and 26 ms at 1e5 (2 vCPUs);
# at 1e4 an integral op and a phi table of order 500 peak under 0.4 MiB.
MAX_N = 10_000


def _as_point(x: PlanePoint) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (2,):
        raise DomainError(f"plane point must have exactly 2 components, got shape {arr.shape}")
    if arr.dtype.kind != "c":
        arr = arr.astype(float)
    # two Python scalars: cmath.isfinite on each is cheaper than np.isfinite
    if not all(map(cmath.isfinite, arr.tolist())):
        raise DomainError("plane point components must be finite")
    return arr


@dataclass(frozen=True)
class DihedralGroup:
    n: int


def make_group(n: int) -> DihedralGroup:
    """Build the order-2n dihedral group.  Its data is n alone: the
    elements are rotation_matrix(n, j) and reflection_matrix(n, j), and the
    unit normals of the mirror lines (the positive roots) are built by
    tests/definitions.py, their one reader.  n above MAX_N is a range error.
    """
    if n < 2:
        raise DomainError("dihedral order must be ≥ 2")
    if n > MAX_N:
        raise DomainError(f"dihedral order n = {n} exceeds the limit {MAX_N}", code="range-error")
    return DihedralGroup(n=n)


def rotation_matrix(n: int, j: int) -> np.ndarray:
    """Matrix of the rotation by 2*pi*j/n, recomputed from exact angles."""
    t = 2.0 * math.pi * (j % n) / n
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def reflection_matrix(n: int, j: int) -> np.ndarray:
    """Matrix of r^j*sigma, i.e. z -> conj(z)*exp(2i*pi*j/n)."""
    t = 2.0 * math.pi * (j % n) / n
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [s, -c]])


@dataclass(frozen=True)
class OrbitPairings:
    """All 2n orbit pairings of a fixed argument pair.

    ``rot_pairings[j]`` is the pairing of r^j x with y, ``refl_pairings[j]``
    that of r^j sigma x with y.  ``a_bound`` is the maximum modulus over the
    whole orbit; it governs every radius of convergence downstream and may be
    zero (callers must branch on that rather than divide).
    """

    rot_pairings: np.ndarray
    refl_pairings: np.ndarray
    a_bound: float
    big_diag: np.ndarray  # rot_pairings followed by refl_pairings, length 2n

    @property
    def n(self) -> int:
        return len(self.rot_pairings)

    @property
    def xy(self) -> complex:
        """The plain pairing of x with y (the j = 0 rotation entry)."""
        return complex(self.rot_pairings[0])


@lru_cache(maxsize=32)
def _orbit_matrices(n: int) -> np.ndarray:
    """The 2n group matrices stacked, rotations r^0..r^(n-1) first, then
    the reflections r^j sigma.  Read-only, since the cache shares it."""
    mats = np.array(
        [rotation_matrix(n, j) for j in range(n)] + [reflection_matrix(n, j) for j in range(n)]
    )
    mats.setflags(write=False)
    return mats


@lru_cache(maxsize=32)
def _basis_signs(n: int) -> np.ndarray:
    """The (3, 2n, 2n) patterns I, W W^T and Ws Ws^T of the orbit-sum steps; read-only."""
    ws = np.repeat([1.0, -1.0], n)
    signs = np.stack([np.eye(2 * n), np.ones((2 * n, 2 * n)), np.multiply.outer(ws, ws)])
    signs.setflags(write=False)
    return signs


# Complex entries a block of the orbit-sum chains holds, its step matrices
# when dense and its states when structured (1 MiB either way).
BLOCK_ENTRIES = 2**16


def _step_chain(
    table: np.ndarray, start: int, basis: np.ndarray, prev: np.ndarray, out: np.ndarray
) -> None:
    """Write into the rows of out the chain prev -> T_start prev -> ..., one
    ndarray.dot per row (np.dot less its __array_function__ dispatch, bit
    for bit: 0.49 against 0.69 us per 10 x 10 complex product, 2 vCPUs), T_j
    being row j of the coefficient table times the (3, (2n)^2) basis, all of
    a block from one product.  The table is sliced to two rows at least:
    numpy hands one row to its matrix-vector routine, which rounds
    otherwise, and a row would depend on where its block starts."""
    n2 = out.shape[1]
    steps = table[start : start + max(len(out), 2)].dot(basis).reshape(-1, n2, n2)
    for T, row in zip(steps, out):
        T.dot(prev, out=row)
        prev = row


def _add_orbit_sums(dy: np.ndarray, m: int, g: complex, shift: np.ndarray) -> None:
    """Add the orbit-sum terms of the degree-m step to the (2, n) array
    dy = D Y, in place:

    Y' = D Y + gamma/(2n(m+1)) <DY, W> W - gamma/(2n(m+1+2g)) <DY, Ws> Ws

    with D the diagonal of orbit pairings, W all ones and Ws the ones/minus-
    ones split; all inner products are bilinear (no conjugation).  One row
    sum gives both inner products; it is np.add.reduce, which ndarray.sum
    calls through a Python wrapper.  shift is a (2, 1) buffer of the
    caller's, which receives the two halves' corrections.  Its callers:
    y_step, _structured_advance, and a_coeffs' structured step (series).

    The inner products are sums of 2n entries, so they can pass the double
    range where their 1/(2n) share, and the state, do not: there they are
    formed again from the entries divided by 2n, and a state overflows only
    where its exact value leaves the range, as the dense step's does."""
    parts = 2 * dy.shape[1]
    rot, refl = np.add.reduce(dy, axis=1).tolist()
    if not (cmath.isfinite(rot + refl) and cmath.isfinite(rot - refl)):
        rot, refl = np.add.reduce(dy / parts, axis=1).tolist()
        parts = 1
    s_w = (g / (parts * (m + 1))) * (rot + refl)
    corr = (g / (parts * (m + 1 + 2 * g))) * (rot - refl)
    shift[0, 0] = s_w - corr
    shift[1, 0] = s_w + corr
    dy += shift


# The last call of orbit_pairings, as one (key, result) pair, so that one
# assignment replaces both: its _orbit_key and its result.
_last_orbit: list = [(None, None)]


def _orbit_key(n: int, x, y) -> tuple | None:
    """What the result of orbit_pairings depends on, for ndarray points:
    n, the two arrays themselves, their shapes, dtypes and bytes.  None for
    other inputs (lists, tuples), which are not remembered."""
    if type(x) is not np.ndarray or type(y) is not np.ndarray:
        return None
    return (n, x, y, x.shape, y.shape, x.dtype, y.dtype, x.tobytes(), y.tobytes())


def orbit_pairings(G: DihedralGroup, x: PlanePoint, y: PlanePoint) -> OrbitPairings:
    """The orbit pairings of (x, y).  The orbit points come from one stacked
    product with the group matrices, which rounds as the product with each
    matrix does; np.vecdot then pairs every point with y in one call, and
    rounds as the 1-D product of each point with y does (vecdot conjugates
    its first argument, so the points enter conjugated twice).  The one
    overflow guard for the pairings: a non-finite orbit bound is a range
    error.

    The last result is remembered: a call with the same n and the same two
    ndarrays, unchanged in shape, dtype and bytes, returns it without
    validating the points again (they were validated when it was made).
    So the routes of one sample, each called with (G, P, x, y, M), share one
    computation.  The arrays of the result are read-only."""
    key, (last_key, last) = _orbit_key(G.n, x, y), _last_orbit[0]
    # the arrays by identity first, since == on arrays compares elementwise;
    # key == last_key then finds them identical and compares the rest
    same_arrays = last_key is not None and last_key[1] is x and last_key[2] is y
    if key is not None and same_arrays and key == last_key:
        return last
    xa = _as_point(x)
    ya = _as_point(y).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        big = np.vecdot(np.conj(_orbit_matrices(G.n) @ xa), ya)
        a_bound = float(np.maximum.reduce(np.abs(big)))  # np.max, less its wrapper
    if not math.isfinite(a_bound):
        raise DomainError("the orbit pairings overflow double precision", code="range-error")
    big.setflags(write=False)
    orbit = OrbitPairings(
        rot_pairings=big[: G.n],
        refl_pairings=big[G.n :],
        a_bound=a_bound,
        big_diag=big,
    )
    _last_orbit[0] = key, orbit
    return orbit


def is_sigma_invariant(orbit: OrbitPairings) -> bool:
    """True when the rotation and reflection pairings agree as multisets,
    within 1e-12 times max(1, a).

    This is the operational test that x or y lies on the base mirror axis;
    the closed product forms are valid exactly in that case.  The pairings
    are finite (orbit_pairings guards them), so the plain comparison gives
    the boolean np.allclose(rtol=0) would.
    """
    order = lambda v: v[np.lexsort((v.imag, v.real))]
    gap = np.abs(order(orbit.rot_pairings) - order(orbit.refl_pairings))
    return bool(np.all(gap <= 1e-12 * max(1.0, orbit.a_bound)))
