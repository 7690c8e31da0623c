"""Kernel components by the vectorized orbit recurrence.

The state is a plain complex array of length 2n: entry i holds the
component at r^i x for i < n and at r^(i-n) sigma x for i >= n.
y_step(values, m, P, orbit) raises the degree of the unscaled state
Y_m = (1+gamma)_m * components from m to m+1.  scaled_states carries the
components themselves, so no rising factorial is formed.  It yields plain
states and guards nothing: em_sequence guards its table with
require_finite_table, as the other routes do, and the series certificate,
which reads each state's sup norm, guards that norm.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterator

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, orbit_pairings
from .polyalg import ParameterK, require_degree, require_finite_table


def y_step(values: np.ndarray, m: int, P: ParameterK, orbit: OrbitPairings) -> np.ndarray:
    """One degree-raising step of the orbit recurrence, from the degree-m
    state to the degree-(m+1) state.

    Y' = D Y + gamma/(2n(m+1)) <DY, W> W - gamma/(2n(m+1+2g)) <DY, Ws> Ws
    with D the diagonal of orbit pairings, W all ones and Ws the ones/minus-
    ones split; all inner products are bilinear (no conjugation).  DY is
    viewed as its rotation and reflection halves, so one row sum gives both
    inner products; it is np.add.reduce, which ndarray.sum calls through a
    Python wrapper.  The caller checks that P is admissible, once per table.
    """
    n, g = orbit.n, P.gamma
    dy = (orbit.big_diag * values).reshape(2, n)
    rot, refl = np.add.reduce(dy, axis=1).tolist()
    s_w = (g / (2 * n * (m + 1))) * (rot + refl)
    corr = (g / (2 * n * (m + 1 + 2 * g))) * (rot - refl)
    dy[0] += s_w - corr
    dy[1] += s_w + corr
    return dy.reshape(-1)


def scaled_states(P: ParameterK, orbit: OrbitPairings) -> Iterator[np.ndarray]:
    """The scaled states at degrees 0, 1, 2, ...: all ones, then
    y_step(state / (m+1+gamma), m, P, orbit), which is the unscaled step
    divided by m+1+gamma since y_step is linear.  Entry i is the component at
    the i-th orbit point, so entry 0 is E_m.  A state past the double range
    turns inf or nan and stays so; callers guard what they read and run the
    loop under np.errstate(over="ignore", invalid="ignore")."""
    state = np.ones(2 * orbit.n, dtype=complex)
    for m in count():
        yield state
        state = y_step(state / (m + 1 + P.gamma), m, P, orbit)


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
