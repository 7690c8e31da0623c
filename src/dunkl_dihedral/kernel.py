"""Full kernel evaluation with certified truncation tails, the contour /
weighted-time integral representation, and the growth-bound checks.

Also owns the effective radius-safety constant delta: the maximum of the
convolution-recursion constant 2|gamma| sup_p max(1, p/|p+2 gamma|) and the
largest transition-matrix norm sum, floored at 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, orbit_pairings
from .errors import ConvergenceError, DomainError
from .polyalg import ParameterK, h_coefficients
from .recurrence import em_sequence, orbit_em_table
from .series import SeriesData, a_coeffs, em_closed_sigma

MAX_TERMS = 500
# Elements of the e^{t/z} matrix built at once by kernel_K (64 MB of complex).
# Blocks of hundreds of rows keep the BLAS row sums' bits; one-row blocks do not.
_CONTOUR_BLOCK = 2**22
_LOG_E2_HALF = 2.0 - math.log(2.0)  # log(e^2 / 2)
_LOG_HALF = math.log(0.5)
# Terms of the bound-constant summation scanned before giving up.
_BOUND_SUM_TERMS = 5001


@dataclass(frozen=True)
class KernelResult:
    value: complex
    method: str  # "series-sum" | "integral" | "sigma-closed" | "exp-shortcut"
    terms_used: int | None = None
    nodes_used: int | None = None
    tail_estimate: float = 0.0


@dataclass(frozen=True)
class DeltaConstant:
    delta_series: float
    delta_matrix: float
    delta_effective: float


def transition_norm_sum(P: ParameterK, m: int) -> float:
    """Sup norm of the degree-(m+1) rotation-block transition matrix plus
    that of the reflection block, m >= 0.  With (a, b) = h_coefficients(P,
    m+1), the rotation block is 1/(m+1+gamma) times the identity plus a[1]
    times all ones, and the reflection block is b[0] times all ones."""
    a, b = h_coefficients(P, m + 1)
    return abs(1.0 / (m + 1 + P.gamma)) + P.n * abs(complex(a[1])) + P.n * abs(complex(b[0]))


@lru_cache(maxsize=256)
def delta_effective(P: ParameterK) -> DeltaConstant:
    """Radius-safety constant for the given parameter.

    delta_series = 2|gamma| * sup_p max(1, p / |p + 2 gamma|), with the sup
    scanned over p = 1..P* and, when Re(gamma) < 0, closed by the decreasing
    tail envelope p/(p - 2|gamma|); for Re(gamma) >= 0 the ratio never
    exceeds 1.  delta_matrix is the largest transition-norm sum, scanned
    until the (eventually decreasing) sums are verified to be falling.
    """
    P.require_regular()
    g = P.gamma
    mod2g = 2.0 * abs(g)

    p_star = math.ceil(mod2g * 101.0) + 1
    p = np.arange(1, p_star + 1, dtype=float)
    ratios = p / np.abs(p + 2.0 * g)
    sup_term = float(np.max(ratios))
    if g.real < 0:
        sup_term = max(sup_term, p_star / (p_star - mod2g))
    delta_series = mod2g * max(1.0, sup_term)

    span = math.ceil(10.0 * (1.0 + abs(g))) + 2
    sums = [transition_norm_sum(P, m) for m in range(span)]
    while not (sums[-1] <= sums[-2] <= sums[-3]):
        sums.extend(transition_norm_sum(P, m) for m in range(len(sums), 2 * len(sums)))
    delta_matrix = float(max(sums))

    return DeltaConstant(
        delta_series=delta_series,
        delta_matrix=delta_matrix,
        delta_effective=max(1.0, delta_series, delta_matrix),
    )


# ---------------------------------------------------------------------------
# certified series summation


def _require_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError("tolerance must be positive and finite")


def _log_abs_pochhammer(gamma: complex, M: int) -> np.ndarray:
    """log |(1+gamma)_m| for m = 0..M, summed in order."""
    return np.cumsum([0.0] + [math.log(abs(1.0 + gamma + m)) for m in range(M)])


def _log_component_bound(P: ParameterK, delta_a: float, M: int) -> np.ndarray:
    """log of the component bound (e^2/2) (m+2)^2 (delta a)^m / |(1+gamma)_m|
    for m = 0..M (delta a > 0), in log space so no scan overflows."""
    m = np.arange(M + 1)
    return (
        _LOG_E2_HALF
        + 2.0 * np.log(m + 2)
        + m * math.log(delta_a)
        - _log_abs_pochhammer(P.gamma, M)
    )


def certified_terms(P: ParameterK, delta_a: float, tol: float) -> tuple[int, float]:
    """Smallest M <= MAX_TERMS with a certified component tail below tol.

    The degree-m component is bounded by _log_component_bound; once the term
    ratio falls below 1/2 (it is decreasing from degree ceil(-Re gamma) on)
    the tail closes geometrically, so the tail beyond M is at most twice the
    first omitted bound.
    """
    _require_tol(tol)
    if delta_a == 0.0:
        return 0, 0.0
    m_mono = max(0, math.ceil(-P.gamma.real))
    log_term = _log_component_bound(P, delta_a, MAX_TERMS + 2)
    for M in range(MAX_TERMS + 1):
        m1 = M + 1
        if m1 <= m_mono or log_term[m1 + 1] - log_term[m1] >= _LOG_HALF:
            continue
        lt = log_term[m1]
        tail = 2.0 * math.exp(lt) if lt < 700.0 else math.inf
        if tail < tol:
            return M, tail
    raise ConvergenceError(
        f"component tail not certified within {MAX_TERMS} terms "
        f"(delta * a = {delta_a:.6g}); the argument pair is too large "
        "for double-precision series summation"
    )


def _certified_sum(
    P: ParameterK, orbit: OrbitPairings, tol: float, method: str, table
) -> KernelResult:
    """Sum of the component table E_0..E_M, table(M), over the certified term
    count; a vanishing orbit bound gives 1 exactly."""
    if orbit.a_bound == 0.0:
        return KernelResult(value=1.0 + 0.0j, method=method, terms_used=1)
    da = delta_effective(P).delta_effective * orbit.a_bound
    M, tail = certified_terms(P, da, tol)
    return KernelResult(
        value=complex(sum(table(M))), method=method, terms_used=M + 1, tail_estimate=tail
    )


def ek_series(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, tol: float
) -> KernelResult:
    """Kernel value by summing components until the certified tail is below
    tol.  Shortcuts: k = 0 gives exp(<x,y>) exactly; a vanishing orbit bound
    gives 1 exactly."""
    _require_tol(tol)
    if P.k == 0:
        orbit = orbit_pairings(G, x, y)
        return KernelResult(
            value=cmath.exp(orbit.xy), method="exp-shortcut", terms_used=0
        )
    P.require_regular()
    orbit = orbit_pairings(G, x, y)
    return _certified_sum(P, orbit, tol, "series-sum", lambda M: orbit_em_table(P, orbit, M))


def ek_sigma_closed(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, tol: float
) -> KernelResult:
    """Kernel value by summing the closed-form components (mirror-axis
    arguments only), with the same certified tail rule as ek_series."""
    _require_tol(tol)
    P.require_regular()
    orbit = orbit_pairings(G, x, y)
    return _certified_sum(
        P, orbit, tol, "sigma-closed", lambda M: em_closed_sigma(G, P, x, y, M)
    )


# ---------------------------------------------------------------------------
# contour kernel and the weighted-time integral representation


def series_for_radius(
    P: ParameterK, orbit: OrbitPairings, rho: float, tol: float
) -> SeriesData:
    """Series data truncated so the generating-function tail on |z| = rho is
    below tol: order doubled from 40 until
    (2n/|gamma|)(delta a rho)^(P+1)/(1-da rho) drops under the target."""
    order = 40
    da_rho = delta_effective(P).delta_effective * orbit.a_bound * rho
    if da_rho >= 1.0:
        raise DomainError(
            f"contour radius {rho:.6g} is outside the guaranteed disk "
            f"(delta * a * rho = {da_rho:.6g} >= 1)"
        )
    amp = 2.0 * P.n / abs(P.gamma)
    while da_rho > 0.0 and amp * da_rho ** (order + 1) / (1.0 - da_rho) >= tol:
        order *= 2
        if order > 1 << 16:
            raise ConvergenceError("series order cap exceeded while targeting tail")
    return a_coeffs(P, orbit, order)


def kernel_K(
    P: ParameterK,
    orbit: OrbitPairings,
    S: SeriesData,
    t: float | np.ndarray,
    rho: float,
    N: int,
) -> complex | np.ndarray:
    """Contour kernel at the time t, a scalar or an array: (gamma^2/2n) times
    the mean over N equally spaced points of rho * e^{i theta} of
    Phi(z) e^{t/z} / (1 - z <x,y>) (the trapezoidal rule, spectrally accurate
    for periodic analytic data).  Returns a complex for scalar t, else an
    array shaped like t.  The times x nodes matrix is built in row blocks, so
    memory stays bounded however many times and nodes a pass asks for."""
    if N < 8:
        raise DomainError("contour rule needs at least 8 nodes")
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise DomainError("time parameter t must lie in [0, 1]")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError("contour radius must be positive and finite")
    nodes = rho * np.exp(2j * np.pi * np.arange(N) / N)
    denom = 1.0 - nodes * orbit.xy
    if np.min(np.abs(denom)) < 1e-12:
        raise DomainError("contour passes through the geometric-series pole")
    pref = (
        (P.gamma**2 / (2.0 * P.n))
        * np.polynomial.polynomial.polyval(nodes, S.phi)
        / denom
        / N
    )
    inv = 1.0 / nodes
    flat = t.reshape(-1)
    rows = max(1, _CONTOUR_BLOCK // N)
    vals = np.empty(flat.size, dtype=complex)
    for i in range(0, flat.size, rows):
        vals[i : i + rows] = np.exp(np.multiply.outer(flat[i : i + rows], inv)) @ pref
    return complex(vals[0]) if t.ndim == 0 else vals.reshape(t.shape)


def _panel_nodes(levels: int, splits: int, gl_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on geometrically graded panels of (0, 1].
    Grading handles the endpoint behaviour of the substituted weight."""
    base_x, base_w = np.polynomial.legendre.leggauss(gl_order)
    xs, ws = [], []
    for j in range(levels):
        hi = 2.0 ** (-j)
        lo = 2.0 ** (-j - 1) if j < levels - 1 else 0.0
        edges = np.linspace(lo, hi, splits + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            xs.append(mid + half * base_x)
            ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def ek_integral(
    G: DihedralGroup,
    P: ParameterK,
    x: PlanePoint,
    y: PlanePoint,
    tol: float,
    rho_scale: float = 1.0,
) -> KernelResult:
    """Kernel value by the weighted-time integral of the contour kernel,
    valid for Re(gamma) > 0.

    The endpoint weight (1-t)^(gamma-1) is removed by substituting
    s = 1 - t, s = u^q with q = max(1, ceil(1/Re gamma)); the remaining
    integrand q u^(q gamma - 1) K(1 - u^q) is integrated on geometrically
    graded Gauss-Legendre panels.  Contour nodes and panel splits are doubled
    together until two successive passes agree within tol.

    Conditioning note: the contour integrand oscillates with magnitude about
    e^(2 delta a) against a much smaller result, so for delta * a beyond
    roughly 10 double precision cannot reach tight tolerances; use the series
    route there.
    """
    _require_tol(tol)
    P.require_regular()
    g = P.gamma
    if g.real <= 0:
        raise DomainError("integral representation requires Re(γ)>0")
    if not (0.0 < rho_scale < 2.0):
        raise DomainError("rho_scale must keep the contour inside the guarded disk")

    orbit = orbit_pairings(G, x, y)
    delta = delta_effective(P).delta_effective
    a = orbit.a_bound
    rho = rho_scale / (2.0 * delta * a) if a > 0.0 else 1.0
    S = series_for_radius(P, orbit, rho, tol * 1e-3)

    q = max(1, math.ceil(1.0 / g.real))
    qg = q * g
    # Grading depth: the innermost panel touches u = 0, where the substituted
    # weight is merely continuous; its whole contribution (hence its
    # quadrature error) sits below tolerance at this depth.
    L = min(60, max(6, math.ceil(math.log2(100.0 / tol) / (q * g.real))))

    def one_pass(N: int, splits: int) -> complex:
        u, w = _panel_nodes(L, splits, 16)
        k_vals = kernel_K(P, orbit, S, 1.0 - u**q, rho, N)
        weight = q * np.exp((qg - 1.0) * np.log(u))
        return complex(np.sum(w * weight * k_vals))

    N, splits = 64, 1
    prev = one_pass(N, splits)
    for _ in range(7):
        N, splits = 2 * N, 2 * splits
        cur = one_pass(N, splits)
        if abs(cur - prev) <= 0.3 * tol * max(1.0, abs(cur)):
            return KernelResult(
                value=cur,
                method="integral",
                nodes_used=N,
                tail_estimate=abs(cur - prev),
            )
        prev = cur
    raise ConvergenceError(
        f"integral representation did not stabilize within {N} contour nodes "
        f"(delta * a = {delta * a:.6g})"
    )


# ---------------------------------------------------------------------------
# growth-bound checks


@dataclass(frozen=True)
class EmBoundReport:
    max_ratio: float
    passed: bool


@dataclass(frozen=True)
class EkBoundReport:
    ratio: float
    constant: float
    passed: bool


def check_em_bound(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int, nu: int
) -> EmBoundReport:
    """Verify the component bound |E_m| <= (e^2/2)(m+2)^2 (delta a)^m /
    |(1+gamma)_m| for m = 1..M; reports the worst ratio (0 when there is
    nothing to check).  A bound past the double range gives ratio 0; one
    that underflows to 0 gives ratio 0 where |E_m| = 0 too, else inf."""
    if M < 0:
        raise DomainError("component count M must be nonnegative")
    if nu < 0:
        raise DomainError("nu must be a nonnegative integer")
    if P.gamma.real <= -nu:
        raise DomainError(f"bound check requires Re(gamma) > -nu = {-nu}")
    orbit = orbit_pairings(G, x, y)
    if orbit.a_bound == 0.0:
        return EmBoundReport(max_ratio=0.0, passed=True)
    da = delta_effective(P).delta_effective * orbit.a_bound
    abs_em = np.abs(em_sequence(G, P, x, y, M)[1:])
    with np.errstate(over="ignore"):  # a bound past the double range holds
        bound = np.exp(_log_component_bound(P, da, M)[1:])
    ratios = np.divide(abs_em, bound, out=np.where(abs_em > 0, np.inf, 0.0), where=bound > 0)
    max_ratio = float(np.max(ratios, initial=0.0))
    return EmBoundReport(max_ratio=max_ratio, passed=max_ratio <= 1.0 + 1e-9)


def ek_bound_constant(P: ParameterK, nu: int, delta_a: float) -> float:
    """Constant assembled from the component-bound summation: the numeric
    closure of (e^2/2) sum_m (m+2)^2 (delta a)^m / |(1+gamma)_m|, divided by
    (delta a + 1)^(nu+2) e^(delta a)."""
    if delta_a == 0.0:
        return 2.0 * math.e**2
    log_term = _log_component_bound(P, delta_a, _BOUND_SUM_TERMS)
    total = 0.0
    for m in range(_BOUND_SUM_TERMS):
        term = math.exp(log_term[m]) if log_term[m] < 700.0 else math.inf
        total += term
        closing = m > -P.gamma.real and log_term[m + 1] - log_term[m] < _LOG_HALF
        if closing and term < 1e-16 * max(total, 1.0):
            return total / ((delta_a + 1.0) ** (nu + 2) * math.exp(delta_a))
        if not math.isfinite(total):
            break
    raise ConvergenceError(
        f"bound-constant summation did not close (delta a = {delta_a:.6g})"
    )


def check_ek_bound(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, nu: int
) -> EkBoundReport:
    """Ratio |E_k| / ((delta a + 1)^(nu+2) e^(delta a)) at one grid point,
    against the assembled summation constant."""
    if nu < 1:
        raise DomainError("nu must be a positive integer for the kernel bound")
    if P.gamma.real <= -nu:
        raise DomainError(f"bound check requires Re(gamma) > -nu = {-nu}")
    orbit = orbit_pairings(G, x, y)
    if P.k == 0:
        value = cmath.exp(orbit.xy)
        da = orbit.a_bound
        constant = 2.0 * math.e**2
    else:
        da = delta_effective(P).delta_effective * orbit.a_bound
        value = ek_series(G, P, x, y, 1e-10).value
        constant = ek_bound_constant(P, nu, da)
    ratio = abs(value) / ((da + 1.0) ** (nu + 2) * math.exp(da))
    return EkBoundReport(ratio=float(ratio), constant=float(constant), passed=ratio <= constant)
