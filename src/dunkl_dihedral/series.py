"""Power-series solution of the orbit differential system and the generating
function of the kernel components.

The 2x2 first-order system driven by the rational sums g, g_s has a unique
holomorphic solution vanishing at the origin; its coefficients satisfy a
convolution recursion seeded by (2n/gamma, 0).  The generating function
combines the seed with the solution's components, and the degree-m kernel
component is the m-th Cauchy-product coefficient of the generating function
against 1/(1 - z<x,y>).  When x or y lies on the base mirror axis both the
solution and the generating function collapse to closed product forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, is_sigma_invariant, orbit_pairings
from .errors import DomainError
from .polyalg import ParameterK, factorial_table, pochhammer_table
from .polyalg import require_degree, require_finite_table, rising_factorials


@dataclass(frozen=True)
class SeriesData:
    """Truncated series data for one argument pair: phi[p], p = 0..order,
    the generating-function coefficients, phi[0] = 2n/gamma and phi[p] =
    A_p[0] - A_p[1] for the system's coefficient vectors A_p (a_coeffs)."""

    order: int
    phi: np.ndarray  # (order + 1,) complex


def a_coeffs(P: ParameterK, orbit: OrbitPairings, Pmax: int) -> SeriesData:
    """Series data through order Pmax.

    The coefficient vectors of the system's solution follow the convolution
    recursion A_0 = (2n/gamma, 0) (the seed, not a term of the
    vanishing-at-zero solution) and, for p >= 1,
    A_p = diag(1/p, 1/(p+2*gamma)) * sum_{i<p} B_{p-1-i} A_i.
    With r_p, s_p the rotation and reflection power sums, B_p A_i is
    (gamma/2n) (r_p u_i + s_p v_i, r_p u_i - s_p v_i) in u = A0 - A1,
    v = A0 + A1, so only u, which is phi, and v are kept.  Each order takes
    both sums from one np.vecdot of the reversed power sums, stacked and
    conjugated once (vecdot conjugates its first argument), against the
    stacked (u, v) rows; the order's scalar arithmetic runs on Python
    complex.  The orbit sum rule forces B_0 ~ 0 and hence A_1 ~ 0.  The one
    overflow guard for the series: a coefficient phi[p] that is not finite
    is a range error (u is not finite where A_p is not).
    """
    if Pmax < 0:
        raise DomainError("truncation order must be nonnegative")
    P.require_regular()
    n, g = P.n, P.gamma

    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.arange(1, Pmax + 1)[:, None]
        rp = (orbit.rot_pairings[None, :] ** powers).sum(axis=1)
        sp = (orbit.refl_pairings[None, :] ** powers).sum(axis=1)
        pref = g / (2.0 * n)

        # u and v stored as the rows of uv by order, the power sums reversed:
        # the convolution sums sum_{i<p} r_{p-1-i} u_i and s_{p-1-i} v_i are
        # one vecdot of contiguous slices.
        rev = np.conj(np.stack([rp[::-1], sp[::-1]]))
        uv = np.empty((2, Pmax + 1), dtype=complex)
        u, v = uv
        u[0] = v[0] = 2.0 * n / g
        two_g = 2 * g
        for p in range(1, Pmax + 1):
            ru, sv = np.vecdot(rev[:, Pmax - p :], uv[:, :p]).tolist()
            ru, sv = pref * ru, pref * sv
            a0, a1 = (ru + sv) / p, (ru - sv) / (p + two_g)
            u[p], v[p] = a0 - a1, a0 + a1
    if not np.isfinite(u).all():
        raise DomainError(
            f"the series coefficients overflow double precision before order {Pmax}",
            code="range-error",
        )
    return SeriesData(order=Pmax, phi=u)


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
