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

import cmath
from dataclasses import dataclass

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, is_sigma_invariant, orbit_pairings
from .errors import DomainError
from .polyalg import ParameterK, factorial_table, pochhammer_table
from .polyalg import require_degree, require_finite_table, rising_factorials


@dataclass(frozen=True)
class SeriesData:
    """Truncated series data for one argument pair.

    B[p] are the 2x2 convolution matrices for p = 0..order-1, A[p] the
    2-vector coefficients for p = 0..order (A[0] is the recursion seed, not a
    term of the vanishing-at-zero solution), and phi[p] the generating-
    function coefficients: phi[0] = 2n/gamma, phi[p] = A[p][0] - A[p][1].
    """

    order: int
    B: np.ndarray  # (order, 2, 2) complex
    A: np.ndarray  # (order + 1, 2) complex
    phi: np.ndarray  # (order + 1,) complex


def a_coeffs(P: ParameterK, orbit: OrbitPairings, Pmax: int) -> SeriesData:
    """Series data through order Pmax.

    A[0] = (2n/gamma, 0); for p >= 1,
    A[p] = diag(1/p, 1/(p+2*gamma)) * sum_{i<p} B[p-1-i] A[i].
    With r_p, s_p the rotation and reflection power sums, B[p] A[i] is
    (gamma/2n) (r_p u_i + s_p v_i, r_p u_i - s_p v_i) in u = A0 - A1,
    v = A0 + A1.  Each order takes both sums from one np.vecdot of the
    reversed power sums, stacked and conjugated once (vecdot conjugates its
    first argument), against the stacked (u, v) rows; the order's scalar
    arithmetic runs on Python complex.  The orbit sum rule forces B[0] ~ 0
    and hence A[1] ~ 0.  The one overflow guard for the series: a
    coefficient that is not finite is a range error.
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
        s_plus, s_minus = rp + sp, rp - sp
        B = pref * np.stack([s_plus, -s_minus, s_minus, -s_plus], axis=-1).reshape(Pmax, 2, 2)

        # u and v stored as the rows of uv by order, the power sums reversed:
        # the convolution sums sum_{i<p} r_{p-1-i} u_i and s_{p-1-i} v_i are
        # one vecdot of contiguous slices.
        rev = np.conj(np.stack([rp[::-1], sp[::-1]]))
        uv = np.empty((2, Pmax + 1), dtype=complex)
        u, v = uv
        u[0] = v[0] = seed = 2.0 * n / g
        rows, two_g = [(seed, 0j)], 2 * g
        for p in range(1, Pmax + 1):
            ru, sv = np.vecdot(rev[:, Pmax - p :], uv[:, :p]).tolist()
            ru, sv = pref * ru, pref * sv
            a0, a1 = (ru + sv) / p, (ru - sv) / (p + two_g)
            rows.append((a0, a1))
            u[p], v[p] = a0 - a1, a0 + a1
        A = np.array(rows)
        phi = u
    if not (np.isfinite(A).all() and np.isfinite(phi).all()):
        raise DomainError(
            f"the series coefficients overflow double precision before order {Pmax}",
            code="range-error",
        )
    return SeriesData(order=Pmax, B=B, A=A, phi=phi)


def g_values(orbit: OrbitPairings, z: complex) -> tuple[complex, complex]:
    """The rational driving sums (g(z), g_s(z)) of the differential system."""
    z = complex(z)
    denom_rot = 1.0 - z * orbit.rot_pairings
    denom_refl = 1.0 - z * orbit.refl_pairings
    if np.min(np.abs(denom_rot)) < 1e-14 or np.min(np.abs(denom_refl)) < 1e-14:
        raise DomainError(f"z = {z} hits a pole of the orbit rational sums")
    rot = np.sum(orbit.rot_pairings / denom_rot)
    refl = np.sum(orbit.refl_pairings / denom_refl)
    return complex(rot + refl), complex(rot - refl)


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


def phi_sigma_invariant(P: ParameterK, orbit: OrbitPairings, z: complex) -> complex:
    """Closed generating function for mirror-axis arguments:
    (2/k) * prod_i (1 - z c_i)^(-k) over the rotation pairings c_i,
    with the principal branch of each power."""
    P.require_regular()
    _require_sigma_invariant(orbit)
    z = complex(z)
    factors = 1.0 - z * orbit.rot_pairings
    if np.any(np.abs(z * orbit.rot_pairings) >= 1.0):
        raise DomainError(
            "closed generating function evaluated outside the unit-pairing disk"
        )
    if np.any((factors.real <= 0) & (np.abs(factors.imag) < 1e-14)):
        raise DomainError("1 - z*c touches the branch cut of the principal power")
    log_sum = np.sum(np.log(factors))
    return complex((2.0 / P.k) * cmath.exp(-P.k * log_sum))


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
