"""Kernel components by the vectorized orbit recurrence.

The state is the 2n-vector of Pochhammer-scaled component values over the
rotation orbit of x and of sigma x; one step raises the degree by one.  The
component itself is the first entry divided by the rising factorial
(1+gamma)_m.  Division is deferred: the state is propagated unscaled and
divided once per requested degree to avoid repeated rounding.  The divisor
table comes from polyalg.pochhammer_table, which owns the overflow guard: a
degree whose (1+gamma)_m is not a finite double is a range error there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, act, orbit_pairings
from .errors import DomainError
from .polyalg import ParameterK, h_coefficients, pochhammer_table

# Beyond this degree the unscaled state would need renormalization; the
# operations error instead of silently rescaling.
MAX_DEGREE = 200


@dataclass(frozen=True)
class StateVector:
    """Pochhammer-scaled orbit values at one degree: values[i] holds the
    component at r^i x for i < n and at r^(i-n) sigma x for i >= n,
    multiplied by (1+gamma)_m."""

    m: int
    values: np.ndarray
    n: int


@dataclass(frozen=True)
class CoeffMatrices:
    """Sup norms of the two degree-(m+1) transition matrices."""

    m: int
    a_mat_norm: float
    b_mat_norm: float


def initial_state(n: int) -> StateVector:
    return StateVector(m=0, values=np.ones(2 * n, dtype=complex), n=n)


def y_step(Y: StateVector, P: ParameterK, orbit: OrbitPairings) -> StateVector:
    """One degree-raising step of the orbit recurrence.

    Y' = D Y + gamma/(2n(m+1)) <DY, W> W - gamma/(2n(m+1+2g)) <DY, Ws> Ws
    with D the diagonal of orbit pairings, W all ones and Ws the ones/minus-
    ones split; all inner products are bilinear (no conjugation).
    """
    P.require_regular()
    n, g, m = Y.n, P.gamma, Y.m
    dy = orbit.big_diag * Y.values
    s_w = np.sum(dy)
    s_ws = np.sum(dy[:n]) - np.sum(dy[n:])
    out = dy.copy()
    out += (g / (2 * n * (m + 1))) * s_w
    corr = (g / (2 * n * (m + 1 + 2 * g))) * s_ws
    out[:n] -= corr
    out[n:] += corr
    return StateVector(m=m + 1, values=out, n=n)


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
    poch = pochhammer_table(P, M).values
    out = np.empty(M + 1, dtype=complex)
    Y = initial_state(orbit.n)
    for m in range(M + 1):
        if m > 0:
            Y = y_step(Y, P, orbit)
        out[m] = Y.values[0] / poch[m]
    return out


def em_scalar_check(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, m: int
) -> complex:
    """Degree m+1 component rebuilt from the scalar orbit recurrence.

    Evaluates E_{m+1}(x,y) = sum_j a_j(m+1) <r^j x, y> E_m(r^j x, y)
    + sum_j b_j(m+1) <r^j s x, y> E_m(r^j s x, y), with the degree-m values
    obtained by independent propagation at every orbit point.  Serves as an
    internal cross-check of y_step's vectorized bookkeeping.
    """
    if m < 0:
        raise DomainError("degree m must be nonnegative")
    orbit = orbit_pairings(G, x, y)
    a, b = h_coefficients(P, m + 1)
    total = 0.0 + 0.0j
    for j in range(G.n):
        xr = act(G.rotation(j), x)
        total += a[j] * orbit.rot_pairings[j] * em_sequence(G, P, xr, y, m)[m]
    for j in range(G.n):
        xs = act(G.reflection(j), x)
        total += b[j] * orbit.refl_pairings[j] * em_sequence(G, P, xs, y, m)[m]
    return complex(total)


def coeff_matrix_norms(P: ParameterK, m: int) -> CoeffMatrices:
    """Sup norms of the degree-(m+1) transition matrices.

    The rotation-block matrix is 1/(m+1+gamma) times the identity plus
    gamma^2/(n(m+1)(m+1+gamma)(m+1+2gamma)) times the all-ones matrix; the
    reflection block is gamma/(n(m+1)(m+1+2gamma)) times all ones.
    """
    if m < 0:
        raise DomainError("degree m must be nonnegative")
    P.require_regular()
    g, n = P.gamma, P.n
    a_norm = abs(1.0 / (m + 1 + g)) + n * abs(
        g * g / (n * (m + 1) * (m + 1 + g) * (m + 1 + 2 * g))
    )
    b_norm = n * abs(g / (n * (m + 1) * (m + 1 + 2 * g)))
    return CoeffMatrices(m=m, a_mat_norm=float(a_norm), b_mat_norm=float(b_norm))


def step_growth_bound(P: ParameterK, m: int) -> float:
    """Provable one-step growth factor per unit orbit bound.

    ||Y_{m+1}|| <= |m+1+gamma| * (||A_m|| + ||B_m||) * a(x,y) * ||Y_m||.
    The |m+1+gamma| factor undoes the Pochhammer scaling between the state
    and the transition matrices; without it the stepwise bound fails.
    """
    norms = coeff_matrix_norms(P, m)
    return float(abs(m + 1 + P.gamma) * (norms.a_mat_norm + norms.b_mat_norm))
