"""Kernel components by the vectorized orbit recurrence.

The state is a plain complex array of length 2n: entry i holds the
component at r^i x for i < n and at r^(i-n) sigma x for i >= n.

y_step(values, m, P, orbit) raises the degree of the unscaled state
Y_m = (1+gamma)_m * components from m to m+1.  state_blocks carries the
components themselves, the scaled states, so no rising factorial is formed:
the step from degree m divides by m+1+gamma.  It yields them in blocks, a
(rows, 2n) array whose rows are the states at consecutive degrees, and it
takes the step one of two ways:

- up to DENSE_MAX_N, as a matrix: the scaled step matrices
  T_m = (diag(d) + alpha_m W d^T - beta_m Ws (Ws o d)^T) / (m+1+gamma) of a
  whole block come from one product, a (count, 3) coefficient table times
  the orbit's three fixed (2n)^2 basis matrices, and each degree is then one
  matrix-vector product.  Its cost is the 4n^2 entries of T_m, against the
  nine numpy calls of the structured step, so it wins for small n only.
- above it, structured: divide by m+1+gamma, multiply in place by the
  orbit pairings (as pairings * quotient), add the orbit sums in place.
  This is y_step's arithmetic in y_step's order, bit for bit; both share
  the orbit-sum update, _add_orbit_sums, and both multiply in the order
  pairings * state, since numpy's vectorized complex product does not
  always round a*b as it rounds b*a.

state_blocks yields plain states and guards nothing: em_sequence guards its
table with require_finite_table, as the other routes do, and the series
certificate, which reads each state's sup norm, guards that norm.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, orbit_pairings
from .polyalg import ParameterK, require_degree, require_finite_table

# The largest n whose step is a dense matrix.  24 states took 27-49 us dense
# against 115-180 us structured at n = 2, 53-56 against 113-121 us at
# n = 12, 103-178 against 127-218 us at n = 20, 132-189 against 129-200 us at
# n = 22 and 262-304 against 120-166 us at n = 32 (three runs each, 2 vCPUs,
# one BLAS thread).
DENSE_MAX_N = 20
# Complex entries a block holds: its step matrices when dense, its states
# when structured (1 MiB either way).
_BLOCK_ENTRIES = 2**16


def _add_orbit_sums(dy: np.ndarray, m: int, g: complex, shift: np.ndarray) -> None:
    """Add the orbit-sum terms of the degree-m step to the (2, n) array
    dy = D Y, in place:

    Y' = D Y + gamma/(2n(m+1)) <DY, W> W - gamma/(2n(m+1+2g)) <DY, Ws> Ws

    with D the diagonal of orbit pairings, W all ones and Ws the ones/minus-
    ones split; all inner products are bilinear (no conjugation).  One row
    sum gives both inner products; it is np.add.reduce, which ndarray.sum
    calls through a Python wrapper.  shift is a (2, 1) buffer of the
    caller's, which receives the two halves' corrections.

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


def y_step(values: np.ndarray, m: int, P: ParameterK, orbit: OrbitPairings) -> np.ndarray:
    """One degree-raising step of the orbit recurrence, from the degree-m
    state to the degree-(m+1) state: the orbit pairings times values, then
    the orbit sums of _add_orbit_sums.  It returns a fresh array.  The
    caller checks that P is admissible, once per table."""
    dy = (orbit.big_diag * values).reshape(2, orbit.n)
    _add_orbit_sums(dy, m, P.gamma, np.empty((2, 1), dtype=complex))
    return dy.reshape(-1)


@lru_cache(maxsize=DENSE_MAX_N)
def _basis_signs(n: int) -> np.ndarray:
    """The (3, 2n, 2n) patterns I, W W^T and Ws Ws^T of _step_basis's
    matrices: entries 0 and +-1.  Read-only, since the cache shares it."""
    ws = np.repeat([1.0, -1.0], n)
    signs = np.stack([np.eye(2 * n), np.ones((2 * n, 2 * n)), np.multiply.outer(ws, ws)])
    signs.setflags(write=False)
    return signs


def _step_basis(orbit: OrbitPairings) -> np.ndarray:
    """The three (2n)^2 matrices diag(d), W d^T and Ws (Ws o d)^T of the
    orbit pairings d, flattened into the rows of a (3, 4n^2) array: column j
    of each pattern of _basis_signs times d_j, which is exact."""
    return np.multiply(_basis_signs(orbit.n), orbit.big_diag).reshape(3, -1)


@lru_cache(maxsize=32)
def _step_coefficients(g: complex, n: int, rows: int) -> np.ndarray:
    """The (rows, 3) table whose row j is (1, alpha_j, -beta_j)/(j+1+gamma),
    with alpha_j = gamma/(2n(j+1)) and beta_j = gamma/(2n(j+1+2 gamma)):
    (1, gamma/2n, -gamma/2n) over (1, j+1, j+1+2 gamma), then over
    j+1+gamma.  Each entry is two divisions, so no gamma^2 is formed: it
    overflows past |gamma| ~ 1.3e154.  An entry does not depend on rows.
    Cached, so the points of one parameter share their tables; read-only,
    since the cache shares it."""
    j1 = np.arange(1.0, rows + 1.0)[:, None]
    h = g / (2 * n)
    coef = np.array([1.0, h, -h]) / (j1 * [0.0, 1.0, 1.0] + [1.0, 0.0, 2.0 * g]) / (j1 + g)
    coef.setflags(write=False)
    return coef


def _step_matrices(g: complex, n: int, basis: np.ndarray, m: int, count: int) -> np.ndarray:
    """The scaled step matrices T_m .. T_(m+count-1) as a
    (count, 2n, 2n) array: rows m.. of a coefficient table of at least 32
    rows, a power of two, times the basis in one product.  A one-row table
    is padded to two, so that the product is always a matrix product: numpy
    hands a one-row table to the matrix-vector routine, which rounds
    otherwise, and a state would then depend on where its block starts."""
    end = m + max(count, 2)
    coef = _step_coefficients(g, n, max(32, 1 << (end - 1).bit_length()))[m:end]
    return np.dot(coef, basis)[:count].reshape(count, 2 * n, 2 * n)


def state_blocks(
    P: ParameterK, orbit: OrbitPairings, rows: int, total: int
) -> Iterator[np.ndarray]:
    """The scaled states at degrees 0 .. total-1 as consecutive blocks: the
    first block has min(rows, total) rows and begins with the all-ones state
    of degree 0, and each later block has twice the rows of the one before,
    at most _BLOCK_ENTRIES / (2n)^2 of them when dense and _BLOCK_ENTRIES /
    2n when structured (and at least one), until total states are out.
    Row i of a block is the state one degree above row i-1; entry 0 of a
    state is E_m.  A state does not depend on how the degrees are cut into
    blocks.  A yielded block is never written again, so a caller may keep
    it.  A state past the double range turns inf or nan and stays so;
    callers guard what they read and run the loop under
    np.errstate(over="ignore", invalid="ignore")."""
    n, n2 = orbit.n, 2 * orbit.n
    advance = _dense_advance(P, orbit) if n <= DENSE_MAX_N else _structured_advance(P, orbit)
    cap = max(1, _BLOCK_ENTRIES // (n2 * n2 if n <= DENSE_MAX_N else n2))
    block = np.ones((min(rows, total, cap), n2), dtype=complex)
    advance(block[1:], block[0], 0)
    done = len(block)
    yield block
    while done < total:
        rows = min(2 * len(block), total - done, cap)
        prev, block = block[-1], np.empty((rows, n2), dtype=complex)
        advance(block, prev, done - 1)
        done += rows
        yield block


Advance = Callable[[np.ndarray, np.ndarray, int], None]


def _dense_advance(P: ParameterK, orbit: OrbitPairings) -> Advance:
    """advance(out, prev, m) writes the states at degrees m+1, m+2, ...
    into the rows of out, from prev, the state at degree m: one product
    with T_j per degree, with the step matrices of the whole block formed
    at once."""
    g, n, basis = P.gamma, orbit.n, _step_basis(orbit)

    def advance(out: np.ndarray, prev: np.ndarray, m: int) -> None:
        for T, row in zip(_step_matrices(g, n, basis, m, len(out)), out):
            np.dot(T, prev, out=row)
            prev = row

    return advance


def _structured_advance(P: ParameterK, orbit: OrbitPairings) -> Advance:
    """advance(out, prev, m) as _dense_advance's, by y_step's arithmetic:
    each row is the row before divided by j+1+gamma, multiplied in place by
    the pairings (as pairings * quotient), plus the orbit sums."""
    g, n = P.gamma, orbit.n
    diag, shift = orbit.big_diag.reshape(2, n), np.empty((2, 1), dtype=complex)

    def advance(out: np.ndarray, prev: np.ndarray, m: int) -> None:
        for j, row in enumerate(out, m):
            state = row.reshape(2, n)
            np.divide(prev.reshape(2, n), j + 1 + g, out=state)
            np.multiply(diag, state, out=state)
            _add_orbit_sums(state, j, g, shift)
            prev = row

    return advance


def em_sequence(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Components E_0 .. E_M at (x, y) as a complex array: entry 0 of the
    first M+1 scaled states."""
    require_degree(M)
    P.require_regular()
    blocks = state_blocks(P, orbit_pairings(G, x, y), M + 1, M + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.concatenate([block[:, 0] for block in blocks])
    return require_finite_table(table)
