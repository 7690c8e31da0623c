"""Kernel components by the vectorized orbit recurrence.

The state is a plain complex array of length 2n: entry i holds the
component at r^i x for i < n and at r^(i-n) sigma x for i >= n.  A step
works on the state viewed as a (2, n) array, its rotation and reflection
halves, so one row sum gives both orbit sums and one broadcast adds both
corrections.

y_step(values, m, P, orbit) raises the degree of the unscaled state
Y_m = (1+gamma)_m * components from m to m+1.  scaled_states carries the
components themselves, so no rising factorial is formed: each step divides
the state by m+1+gamma into a fresh array, multiplies it in place by the
orbit pairings and adds the orbit sums in place.  Both share the orbit-sum
update, _add_orbit_sums, and both multiply in the order pairings * state,
since numpy's vectorized complex product does not always round a*b as it
rounds b*a.  scaled_states yields plain states and guards nothing:
em_sequence guards its table with require_finite_table, as the other routes
do, and the series certificate, which reads each state's sup norm, guards
that norm.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterator

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, orbit_pairings
from .polyalg import ParameterK, require_degree, require_finite_table


def _add_orbit_sums(dy: np.ndarray, m: int, g: complex, shift: np.ndarray) -> None:
    """Add the orbit-sum terms of the degree-m step to the (2, n) array
    dy = D Y, in place:

    Y' = D Y + gamma/(2n(m+1)) <DY, W> W - gamma/(2n(m+1+2g)) <DY, Ws> Ws

    with D the diagonal of orbit pairings, W all ones and Ws the ones/minus-
    ones split; all inner products are bilinear (no conjugation).  One row
    sum gives both inner products; it is np.add.reduce, which ndarray.sum
    calls through a Python wrapper.  shift is a (2, 1) buffer of the
    caller's, which receives the two halves' corrections."""
    n = dy.shape[1]
    rot, refl = np.add.reduce(dy, axis=1).tolist()
    s_w = (g / (2 * n * (m + 1))) * (rot + refl)
    corr = (g / (2 * n * (m + 1 + 2 * g))) * (rot - refl)
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


def scaled_states(P: ParameterK, orbit: OrbitPairings) -> Iterator[np.ndarray]:
    """The scaled states at degrees 0, 1, 2, ...: all ones, then
    y_step(state / (m+1+gamma), m, P, orbit), which is the unscaled step
    divided by m+1+gamma since y_step is linear.  Entry i is the component at
    the i-th orbit point, so entry 0 is E_m.

    The step is y_step's arithmetic in y_step's order, bit for bit: divide
    into a fresh (2, n) array, multiply it in place by the pairings (as
    pairings * quotient), add the orbit sums in place.  The generator keeps
    the (2, n) view of the pairings and the corrections' buffer, and yields
    the state's flat view; a yielded array is never written again, so a
    caller may keep it.  A state past the double range turns inf or nan and
    stays so; callers guard what they read and run the loop under
    np.errstate(over="ignore", invalid="ignore")."""
    g, diag = P.gamma, orbit.big_diag.reshape(2, orbit.n)
    shift = np.empty((2, 1), dtype=complex)
    state = np.ones((2, orbit.n), dtype=complex)
    for m in count():
        yield state.ravel()
        state = np.divide(state, m + 1 + g)
        np.multiply(diag, state, out=state)
        _add_orbit_sums(state, m, g, shift)


def em_sequence(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Components E_0 .. E_M at (x, y) as a complex array: entry 0 of the
    first M+1 scaled states."""
    require_degree(M)
    P.require_regular()
    states = scaled_states(P, orbit_pairings(G, x, y))
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.array([state[0] for state in islice(states, M + 1)], dtype=complex)
    return require_finite_table(table)
