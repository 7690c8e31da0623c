"""Power-series solution of the orbit differential system and the generating
function of the kernel components.

The 2x2 first-order system driven by the rational sums g, g_s has a unique
holomorphic solution vanishing at the origin; its coefficients follow a
convolution recursion seeded by (2n/gamma, 0), one step of the orbit
recurrence's kind per order.  The generating function combines the seed
with the solution's components, and the degree-m kernel component is the
m-th Cauchy-product coefficient of the generating function against
1/(1 - z<x,y>).  When x or y lies on the base mirror axis both the solution
and the generating function collapse to closed product forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dihedral import BLOCK_ENTRIES, DihedralGroup, OrbitPairings, PlanePoint, _add_orbit_sums
from .dihedral import _basis_signs, _step_chain, is_sigma_invariant, orbit_pairings
from .errors import DomainError
from .polyalg import ParameterK, factorial_table, pochhammer_table
from .polyalg import require_degree, require_finite_table, rising_factorials

# The largest n whose a_coeffs step is a dense matrix: at orders 25/40/120 it took 104/144/382
# against 103/150/441 us structured at n = 14, 112/156/416 against 99/151/463 at 15 (best of 7,
# 2 vCPUs, one BLAS thread).
DENSE_MAX_N = 14


@dataclass(frozen=True)
class SeriesData:
    """Truncated series data for one argument pair: phi[p], p = 0..order,
    the generating-function coefficients, phi[0] = 2n/gamma and phi[p] =
    A_p[0] - A_p[1] for the system's coefficient vectors A_p (a_coeffs)."""

    order: int
    phi: np.ndarray  # (order + 1,) complex


def a_coeffs(P: ParameterK, orbit: OrbitPairings, Pmax: int) -> SeriesData:
    """Series data through order Pmax.

    The system's coefficient vectors follow the recursion A_0 = (2n/gamma, 0)
    (the seed, not a term of the vanishing-at-zero solution) and, for p >= 1,
    A_p = diag(1/p, 1/(p+2*gamma)) * sum_{i<p} B_{p-1-i} A_i.  In u = A0 - A1
    (phi) and v = A0 + A1: u_p = alpha_p (R_p + S_p) - beta_p (R_p - S_p),
    v_p with +beta_p, alpha_p = gamma/(2np), beta_p = gamma/(2n(p+2 gamma)),
    R_p = sum_{i<p} r_(p-i) u_i, S_p = sum_{i<p} s_(p-i) v_i for the rotation
    and reflection power sums r, s.  R_p = sum_j h_j(p) with h_j(p) =
    sum_{i<p} c_j^(p-i) u_i over the rotation pairings c_j, so h_j(p+1) =
    c_j (h_j(p) + u_p); S_p alike.  The 2n sums H_p, from H_0 = (2n/gamma)
    W, take one step per order, H_(p+1) = D (I + alpha_p W W^T - beta_p Ws
    Ws^T) H_p (D = diag(pairings), W all ones, Ws the ones/minus-ones split:
    the recurrence's step transposed); phi[p] = alpha_p W^T H_p - beta_p
    Ws^T H_p.  Up to DENSE_MAX_N the step is one matrix-vector product of
    the chain the recurrence shares, dihedral._step_chain.  Above it, it is
    the recurrence's structured step: multiply in place by D to H_p, then
    dihedral._add_orbit_sums at m = p - 1, whose alpha and beta are alpha_p
    and beta_p, so that its first shift is phi[p].  B_0 ~ 0 by the orbit sum
    rule, so A_1 ~ 0.  Non-finite phi is a range error.
    """
    if Pmax < 0:
        raise DomainError("truncation order must be nonnegative")
    P.require_regular()
    with np.errstate(over="ignore", invalid="ignore"):
        u = (_phi_dense if P.n <= DENSE_MAX_N else _phi_structured)(P.gamma, orbit, Pmax)
    if not np.isfinite(u).all():
        raise DomainError(
            f"the series coefficients overflow double precision before order {Pmax}",
            code="range-error",
        )
    return SeriesData(order=Pmax, phi=u)


@lru_cache(maxsize=32)
def _phi_coefficients(g: complex, n: int, rows: int) -> np.ndarray:
    """Rows (1, alpha_p, -beta_p) by order p, row 0 (1, 0, 0); read-only."""
    coef = np.add.outer(np.arange(float(rows)), np.array([0.0, 0.0, 2.0 * g]))
    coef[:, 0] = coef[0, 1] = 1.0
    np.divide(np.array([1.0, g / (2 * n), -g / (2 * n)]), coef, out=coef)
    coef[0, 1:] = 0.0
    coef.setflags(write=False)
    return coef


def _phi_dense(g: complex, orbit: OrbitPairings, Pmax: int) -> np.ndarray:
    """phi by the sums H_p, from H_0 = (2n/gamma) W (row 0's step is D)."""
    n, n2, cap = orbit.n, 2 * orbit.n, max(1, BLOCK_ENTRIES // (2 * orbit.n) ** 2)
    basis = np.multiply(_basis_signs(n), orbit.big_diag[:, None]).reshape(3, -1)  # row-scaled
    rows = max(32, 1 << Pmax.bit_length())  # a cache of larger tables would hold 6 MB each
    table = (_phi_coefficients if rows <= 2048 else _phi_coefficients.__wrapped__)(g, n, rows)
    plus_minus = np.array([[1.0, 1.0], [1.0, -1.0]])  # (R, S) to (R + S, R - S)
    phi, prev = np.full(Pmax + 1, 2.0 * n / g), np.full(n2, 2.0 * n / g)
    for m in range(1, Pmax + 1, cap):  # H_m .. H_(m+count-1) from H_(m-1)
        count = min(cap, Pmax + 1 - m)
        states = np.empty((count, n2), dtype=complex)
        _step_chain(table, m - 1, basis, prev, states)
        prev = states[-1]
        sums = np.dot(np.add.reduce(states.reshape(count, 2, n), axis=2), plus_minus)
        np.add.reduce(sums * table[m : m + count, 1:], axis=1, out=phi[m : m + count])
    return phi


def _phi_structured(g: complex, orbit: OrbitPairings, Pmax: int) -> np.ndarray:
    """phi by the sums H_p, one structured step per order (see a_coeffs)."""
    n = orbit.n
    phi = np.full(Pmax + 1, 2.0 * n / g, dtype=complex)
    state = np.full((2, n), 2.0 * n / g, dtype=complex)
    diag, shift = orbit.big_diag.reshape(2, n), np.empty((2, 1), dtype=complex)
    for p in range(1, Pmax + 1):
        np.multiply(diag, state, out=state)
        _add_orbit_sums(state, p - 1, g, shift)
        phi[p] = shift[0, 0]
    return phi


def _cauchy_prefixes(c: list[complex], s: complex) -> list[complex]:
    """sum_{j<=m} c[j] s^(m-j) for every m: the Cauchy products of c with the
    geometric series of s, by one cumulative Horner pass
    acc_m = s * acc_{m-1} + c[m].  Callers pass c as Python complex values
    (ndarray.tolist()), whose products and sums round as numpy's do; their
    divisions do not, so the callers divide by the Pochhammer table in numpy,
    whose array division rounds as its scalar division does."""
    acc, out = 0.0 + 0.0j, []
    for cm in c:
        acc = acc * s + cm
        out.append(acc)
    return out


def em_genseries(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Components E_0 .. E_M as the Cauchy-product coefficients of
    (gamma/2n) * Phi against the geometric series of <x,y>."""
    require_degree(M)
    poch = pochhammer_table(P, M)
    orbit = orbit_pairings(G, x, y)
    S = a_coeffs(P, orbit, M)
    pref = P.gamma / (2.0 * P.n)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = [pref * acc for acc in _cauchy_prefixes(S.phi.tolist(), orbit.xy)]
        table = np.array(scaled) / poch
    return require_finite_table(table)


def _require_sigma_invariant(orbit: OrbitPairings) -> None:
    if not is_sigma_invariant(orbit):
        raise DomainError(
            "closed product forms require x or y on the base mirror axis "
            "(rotation and reflection pairings must agree as multisets)"
        )


def em_closed_sigma(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """Closed-form components E_0 .. E_M for mirror-axis arguments.

    The inner multinomial sum over compositions is computed by convolving the
    n univariate binomial series sum_v (k)_v / v! c_i^v z^v up to order M,
    which produces identical coefficients at polynomial cost.
    """
    require_degree(M)
    P.require_regular()
    orbit = orbit_pairings(G, x, y)
    _require_sigma_invariant(orbit)
    factorials = factorial_table(M)
    poch = pochhammer_table(P, M)

    inner = np.zeros(M + 1, dtype=complex)
    inner[0] = 1.0
    powers = np.arange(M + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        binomial = rising_factorials(P.k, M) / factorials
        for c in orbit.rot_pairings:
            inner = np.convolve(inner, binomial * np.power(c, powers))[: M + 1]
        table = np.array(_cauchy_prefixes(inner.tolist(), orbit.xy)) / poch
    return require_finite_table(table)
