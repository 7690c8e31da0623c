"""Kernel components by the vectorized orbit recurrence.

The state is a plain complex array of length 2n: entry i holds the
component at r^i x for i < n and at r^(i-n) sigma x for i >= n, multiplied
by the rising factorial (1+gamma)_m.  It starts as all ones at degree 0, and
y_step(values, m, P, orbit) raises its degree from m to m+1.  The component
itself is the first entry divided by (1+gamma)_m.  Division is deferred: the
state is propagated unscaled and divided once per requested degree to avoid
repeated rounding.  The divisor table comes from polyalg.pochhammer_table,
which owns the overflow guard: a degree whose (1+gamma)_m is not a finite
double is a range error there.
"""

from __future__ import annotations

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, orbit_pairings
from .errors import DomainError
from .polyalg import ParameterK, pochhammer_table

# Beyond this degree the unscaled state would need renormalization; the
# operations error instead of silently rescaling.
MAX_DEGREE = 200


def y_step(values: np.ndarray, m: int, P: ParameterK, orbit: OrbitPairings) -> np.ndarray:
    """One degree-raising step of the orbit recurrence, from the degree-m
    state to the degree-(m+1) state.

    Y' = D Y + gamma/(2n(m+1)) <DY, W> W - gamma/(2n(m+1+2g)) <DY, Ws> Ws
    with D the diagonal of orbit pairings, W all ones and Ws the ones/minus-
    ones split; all inner products are bilinear (no conjugation).  The caller
    checks that P is admissible, once per table.
    """
    n, g = orbit.n, P.gamma
    dy = orbit.big_diag * values
    s_w = np.sum(dy)
    s_ws = np.sum(dy[:n]) - np.sum(dy[n:])
    out = dy.copy()
    out += (g / (2 * n * (m + 1))) * s_w
    corr = (g / (2 * n * (m + 1 + 2 * g))) * s_ws
    out[:n] -= corr
    out[n:] += corr
    return out


def em_sequence(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Components E_0 .. E_M at (x, y) as a complex array."""
    if M < 0:
        raise DomainError("component count M must be nonnegative")
    if M > MAX_DEGREE:
        raise DomainError(
            f"degree {M} exceeds the renormalization-free limit {MAX_DEGREE}; "
            "reduce M",
            code="range-error",
        )
    P.require_regular()
    return orbit_em_table(P, orbit_pairings(G, x, y), M)


def orbit_em_table(P: ParameterK, orbit: OrbitPairings, M: int) -> np.ndarray:
    """Components E_0 .. E_M from precomputed orbit pairings: the first state
    entry at each degree divided by (1+gamma)_m."""
    poch = pochhammer_table(P, M)
    out = np.empty(M + 1, dtype=complex)
    Y = np.ones(2 * orbit.n, dtype=complex)
    out[0] = Y[0] / poch[0]
    for m in range(M):
        Y = y_step(Y, m, P, orbit)
        out[m + 1] = Y[0] / poch[m + 1]
    return out
