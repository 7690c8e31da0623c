"""Full kernel evaluation by a certified series sum, the contour /
weighted-time integral representation, and the growth-bound checks.

Also owns the effective radius-safety constant delta: the maximum of the
convolution-recursion constant 2|gamma| sup_p max(1, p/|p+2 gamma|) and the
largest transition-matrix norm sum, floored at 1.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator

import numpy as np

from .dihedral import DihedralGroup, OrbitPairings, PlanePoint, orbit_pairings
from .errors import ConvergenceError, DomainError
from .polyalg import MAX_DEGREE, ParameterK, require_degree
from .recurrence import em_sequence, state_blocks
from .series import SeriesData, a_coeffs

# Elements of the e^{t/z} matrix built at once by _contour_sum in
# ek_integral's passes (64 MB of complex): a block holds
# _CONTOUR_BLOCK // (N//2 + 1) times against the half of the N nodes that is
# exponentiated, so memory stays bounded for any N and any number of times.
_CONTOUR_BLOCK = 2**22
# Contour nodes of ek_integral's last doubling pass.
_MAX_NODES = 8192
_LOG_E2_HALF = 2.0 - math.log(2.0)  # log(e^2 / 2)
_LOG_HALF = math.log(0.5)
# logs of the smallest normal double and of the largest double
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)
_ULP = 2.0**-53
# Largest series order series_for_radius picks.
_MAX_ORDER = 1 << 16
# Terms of the bound-constant summation scanned before giving up.
_BOUND_SUM_TERMS = 5001
# States past the a-priori term count in certified_terms' first block.
_FIRST_BLOCK_MARGIN = 2
# Orders l < 24 of the endpoint series, and l!.
_ENDPOINT_ORDERS = np.arange(24)
_ENDPOINT_FACTORIALS = np.cumprod(np.maximum(_ENDPOINT_ORDERS, 1))


@dataclass(frozen=True)
class KernelResult:
    value: complex
    method: str  # "series-sum" | "integral" | "exp-shortcut"
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
    that of the reflection block, m >= 0.  With a_1 and b_0 the orbit-average
    coefficients of the degree-(m+1) inverse (polyalg._h_scalars), the
    rotation block is 1/(m+1+gamma) times the identity plus a_1 times all
    ones, and the reflection block is b_0 times all ones.  The moduli
    |a_1| = |gamma/(m+1+gamma)| |b_0| and |b_0| = |gamma/(m+1+2 gamma)| /
    (n (m+1)) are taken factor by factor, so no gamma^2 is formed: it
    overflows past |gamma| ~ 1.3e154."""
    m1, g = m + 1, P.gamma
    b0 = abs(g / (m1 + 2 * g)) / (P.n * m1)
    return abs(1.0 / (m1 + g)) + P.n * (abs(g / (m1 + g)) * b0) + P.n * b0


@lru_cache(maxsize=256)
def delta_effective(P: ParameterK) -> DeltaConstant:
    """Radius-safety constant for the given parameter, read where each
    supremum is attained.  p / |p + 2 gamma| stays below 1 when
    Re(gamma) >= 0, else peaks once over p > 0, at p* = |2 gamma|^2 /
    (-2 Re gamma), cut at 2^512 (past it the peak is 1 to rounding).  Each
    term of transition_norm_sum falls once m+1 >= -2 Re(gamma).  Refused
    when -2 Re(gamma) >= MAX_DEGREE + 1: no certified sum closes there.
    """
    P.require_regular()
    g = P.gamma
    if -2.0 * g.real >= MAX_DEGREE + 1:
        raise ConvergenceError(
            f"-2 Re(gamma) = {-2.0 * g.real:.6g} exceeds the degree limit {MAX_DEGREE}"
        )
    mod2g = 2.0 * abs(g)
    p = np.ones(1)
    if g.real < 0:
        p_star = min(mod2g * (mod2g / (-2.0 * g.real)), 2.0**512)
        p = np.maximum(1.0, [np.floor(p_star), np.ceil(p_star)])
    delta_series = mod2g * max(1.0, float(np.max(p / np.abs(p + 2.0 * g))))
    span = max(1, math.ceil(-2.0 * g.real))
    delta_matrix = max(transition_norm_sum(P, m) for m in range(span))

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


def _log_abs_pochhammer(gamma: complex, M: int, start: int = 0, carry: float = 0.0) -> np.ndarray:
    """log |(1+gamma)_m| for m = start..M, summed in order from carry, the
    entry at start, so that a table built piece by piece rounds as the
    whole table does."""
    return np.cumsum([carry] + [math.log(abs(1.0 + gamma + m)) for m in range(start, M)])


def _log_component_bound(delta_a: float, m: np.ndarray, log_poch: np.ndarray) -> np.ndarray:
    """log of the component bound (e^2/2) (m+2)^2 (delta a)^m / |(1+gamma)_m|
    at the degrees m (delta a > 0), with log_poch = log |(1+gamma)_m| from
    _log_abs_pochhammer, in log space so no scan overflows.  A delta a past
    the double range is a convergence error."""
    if not math.isfinite(delta_a):
        raise ConvergenceError(f"delta * a = {delta_a:.6g} is past the double range")
    return _LOG_E2_HALF + 2.0 * np.log(m + 2) + m * math.log(delta_a) - log_poch


def _first_block(a: float, gamma: complex, tol: float) -> int:
    """Rows of certified_terms' first block of states: the a-priori term
    count, the first M+1 at which its stop rule holds with the a-priori size
    a^M / |(1+gamma)_M| in place of the state's sup norm, plus
    _FIRST_BLOCK_MARGIN.  Over the 171 ops of a kernel-series round (bench
    seeds 1 to 4) the term count lay from 1 below to 4 above the a-priori
    count (median 0), so 2 ops per round read a second block.  Over the
    seed-1 and seed-2 rounds certified_terms took 57-65 us per op with this
    first block (minimum to median of 40 passes), this loop's 6 us
    included, against 61-68 and 62-71 us with a fixed 16 or 24 rows, and
    was the faster in 29 and 33 of the 40 paired passes (2 vCPUs, one BLAS
    thread).  The loop writes out envelope(M) and the stop rule as
    certified_terms' loop does."""
    g, r = abs(gamma), gamma.real
    size, M1 = 1.0, 1
    while M1 <= MAX_DEGREE and not (
        M1 > -2.0 * r
        and (rho := a * (1.0 + g / M1 + g / (M1 + 2.0 * r)) / (M1 + r)) <= 0.5
        and 2.0 * rho * size < tol
    ):
        size *= a / abs(M1 + gamma)
        M1 += 1
    return M1 + _FIRST_BLOCK_MARGIN


def certified_terms(P: ParameterK, orbit: OrbitPairings, tol: float) -> tuple[complex, int, float]:
    """Sum E_0 + ... + E_M of the scaled orbit states; returns the sum, the
    term count M+1 and the tail estimate.  It reads the states in the blocks
    of recurrence.state_blocks, the first one sized by _first_block, and
    takes the sup norms of a whole block, which the certificate reads, in one
    reduction; the scan over the states is the per-state bookkeeping below.
    It owns the states' overflow guard: a norm that is not finite (inf, or
    nan from inf - inf) is a range error.

    Since |m+1+c gamma| >= m+1+c Re(gamma), each step from degree M on
    multiplies the state's sup norm by at most envelope(M), which falls with
    M, once M+1 > -2 Re(gamma).  The sum stops at the first such M with
    envelope(M) <= 1/2 and truncation tail 2 envelope(M) |state_M| < tol.
    It is refused before the first step when the envelope at MAX_DEGREE
    exceeds 1/2 (or -2 Re(gamma) reaches MAX_DEGREE + 1), since then no M up
    to the cap certifies; after the steps when none did; or when the rounding
    floor exceeds tol * max(1, |sum|).  The floor, an estimate and not a
    proof, is 2^-53 times the sum of w_m max(|state_m|, a^m / |(1+gamma)_m|):
    the a-priori size is the scale of rounding that the steps amplify when
    Re(gamma) < 0, and w_m >= 1 the largest sensitivity to the rounding of
    gamma, |gamma| (1/|j+1+gamma| + 2/|j+1+2 gamma|) for j < m, of the
    divisions that formed state m.  The tail estimate adds the floor.
    """
    a, g, r = orbit.a_bound, abs(P.gamma), P.gamma.real

    def envelope(M: int) -> float:
        return a * (1.0 + g / (M + 1) + g / (M + 1 + 2.0 * r)) / (M + 1 + r)

    # An envelope above 1/2 at the cap certifies no M, and the states could
    # overflow before the cap: refuse without stepping.
    if MAX_DEGREE + 1 <= -2.0 * r:
        raise ConvergenceError(
            f"component sum refused before its first term: -2 Re(gamma) = {-2.0 * r:.6g} "
            f"is past the degree cap {MAX_DEGREE}, so no term count up to it certifies the tail "
            f"(a = {a:.6g}, |gamma| = {g:.6g})"
        )
    if (cap_envelope := envelope(MAX_DEGREE)) > 0.5:
        raise ConvergenceError(
            f"component sum refused before its first term: the step envelope at the degree cap "
            f"{MAX_DEGREE} is {cap_envelope:.3g} > 1/2, so no term count up to it certifies the "
            f"tail (a = {a:.6g}, |gamma| = {g:.6g}); the argument pair is too large for "
            "double-precision series summation"
        )
    # The loop writes out envelope(M) and max() and sums on a Python complex:
    # the same operations in the same order, without their call overhead.
    gamma, gamma2, r2, neg_r2 = P.gamma, 2.0 * P.gamma, 2.0 * r, -2.0 * r
    total, mass, prior, weight = 0.0j, 0.0, 1.0, 1.0
    # each block's column of components, and the sup norms of the whole
    # block in one reduction (ndarray.max, less its wrapper)
    blocks = state_blocks(P, orbit, _first_block(a, P.gamma, tol), MAX_DEGREE + 1)
    states = chain.from_iterable(
        zip(block[:, 0].tolist(), np.maximum.reduce(np.abs(block), axis=1).tolist())
        for block in blocks
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for M, (term, norm) in enumerate(states):
            if not math.isfinite(norm):
                raise DomainError(
                    f"the orbit state overflows double precision at degree {M}",
                    code="range-error",
                )
            M1 = M + 1
            total += term
            mass += weight * (prior if prior > norm else norm)
            if (
                M1 > neg_r2
                and (rho := a * (1.0 + g / M1 + g / (M1 + r2)) / (M1 + r)) <= 0.5
                and 2.0 * rho * norm < tol
            ):
                floor, size = 2.0**-53 * mass, abs(total)
                if floor > tol * (size if size > 1.0 else 1.0):
                    raise ConvergenceError(
                        f"rounding floor {floor:.3g} of the component sum exceeds the tolerance "
                        f"(sum {size:.3g}); the terms cancel, or gamma is near a singular value"
                    )
                return total, M1, 2.0 * rho * norm + floor
            denom = abs(M1 + gamma)
            prior *= a / denom
            sens = g / denom + 2.0 * g / abs(M1 + gamma2)
            weight = sens if sens > weight else weight
    raise ConvergenceError(
        f"component tail not certified within {MAX_DEGREE} terms (a = {a:.6g}, "
        f"|gamma| = {g:.6g}); the argument pair is too large for double-precision series summation"
    )


def ek_series(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, tol: float
) -> KernelResult:
    """Kernel value by the certified sum of certified_terms.  Shortcuts:
    k = 0 gives exp(<x,y>) exactly, a range error past the double range; a
    vanishing orbit bound gives 1 exactly."""
    _require_tol(tol)
    if P.k == 0:
        orbit = orbit_pairings(G, x, y)
        try:
            value = cmath.exp(orbit.xy)
        except OverflowError:
            raise DomainError(
                f"exp(<x,y>) = exp({orbit.xy.real:.6g}) overflows double precision",
                code="range-error",
            ) from None
        return KernelResult(value=value, method="exp-shortcut", terms_used=0)
    P.require_regular()
    orbit = orbit_pairings(G, x, y)
    if orbit.a_bound == 0.0:
        return KernelResult(value=1.0 + 0.0j, method="series-sum", terms_used=1)
    value, terms, tail = certified_terms(P, orbit, tol)
    return KernelResult(value=value, method="series-sum", terms_used=terms, tail_estimate=tail)


# ---------------------------------------------------------------------------
# the weighted-time integral of the contour kernel


def series_for_radius(
    P: ParameterK, orbit: OrbitPairings, rho: float, tol: float, log_amp: float = 0.0
) -> SeriesData:
    """Series data truncated at the smallest order P whose bound on the tail
    of Phi on |z| = rho, times the amplification e^log_amp, is at most tol.

    The bound is a majorant read from a_coeffs' recursion.  Lemma: with
    C = delta_series and a the orbit bound, |phi_p| <= 2 v_p for every p,
    where v_p = v_0 (C)_p a^p / p! and v_0 = 2n/|gamma|.  Proof: every orbit
    pairing has modulus at most a, so the power sums r, s that B_q carries
    are at most n a^(q+1) in modulus; with |u|, |v| <= 2 |A| (sup norms),
    B_q A = (gamma/2n) (r u + s v, r u - s v) has norm at most
    2|gamma| a^(q+1) |A|.  By C's definition, 2|gamma| max(1/p,
    1/|p + 2 gamma|) <= C/p.  So, by induction from |A_0| = 2n/|gamma|,
    |A_p| <= v_p, with v_p = (C/p) sum_(i<p) a^(p-i) v_i for p >= 1.  The
    generating function V of v then solves z V' = C (a z/(1 - a z)) V, so
    V = v_0 (1 - a z)^(-C), whose coefficients are the v_p above; and
    |phi_p| = |A_p[0] - A_p[1]| <= 2 v_p.

    On |z| = rho, with x = a rho and q_p = (C)_p x^p / p!, the tail past P
    is at most 2 v_0 sum_(p>P) q_p.  The term ratio q_(p+1)/q_p =
    (C + p) x/(p + 1) falls toward x when C >= 1 and rises toward it when
    C < 1, so past P + 1 it is at most r = x max(1, (C+P+1)/(P+2)), and the
    tail is at most 2 v_0 q_(P+1)/(1 - r).  The radius must keep x = a rho
    < 1 (else a domain error); then r < 1 for every P > (C x + x - 2)/(1 -
    x), and no order below that stops the scan, since its 1 - r is not
    positive.  The orders are scanned
    upward on the ratio alone, against the target over 2 v_0 e^log_amp,
    which is formed in log space: a target below the double range is a
    convergence error, raised before a_coeffs runs, as is an order past
    2^16."""
    a = orbit.a_bound
    if a * rho >= 1.0:
        raise DomainError(
            f"contour radius {rho:.6g} is outside the guaranteed disk "
            f"(a * rho = {a * rho:.6g} >= 1)"
        )
    log_eps = -math.inf
    if tol > 0.0:
        log_eps = math.log(tol) - log_amp - math.log(4.0 * P.n) + math.log(abs(P.gamma))
    if log_eps < _LOG_TINY:
        raise ConvergenceError(
            f"the series truncation target on |z| = {rho:.6g} is below the double range: "
            f"a Phi error there reaches the value amplified by e^{log_amp:.6g}"
        )
    eps = math.exp(min(log_eps, -_LOG_TINY))  # capped where it would overflow
    C, x = delta_effective(P).delta_series, a * rho
    q = C * x  # q_(p+1) at p = 0
    for p in range(_MAX_ORDER):
        ratio = (C + p + 1) * x / (p + 2)  # q_(p+2) / q_(p+1)
        if q <= eps * (1.0 - (ratio if ratio > x else x)):
            return a_coeffs(P, orbit, p)
        q *= ratio
    raise ConvergenceError("series order cap exceeded while targeting tail")


def contour_radius(a: float, C: float) -> float:
    """The radius rho in (0, 1/(2a)] that minimises 1/rho - C log(1 - a rho),
    the log of the contour integrand's amplification (see ek_integral): the
    root 2/(a + sqrt(a^2 + 4 C a)) of C a rho^2 + a rho = 1, capped at 1/(2a),
    which it passes when C < 2a.  The square root is taken as hypot(a,
    2 sqrt(C) sqrt(a)), so nothing cancels, squares or multiplies out of the
    double range before the radius itself does: for a > 0 and C >= 2e-12
    (|gamma| > 1e-12) the radius is at most 1/sqrt(C a) < 1e168, never inf."""
    return min(0.5 / a, 2.0 / (a + math.hypot(a, 2.0 * math.sqrt(C) * math.sqrt(a))))


@lru_cache(maxsize=8)
def _circle_tables(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For N contour nodes rho w^j, w = e^(2 pi i/N): the roots w^j for j =
    0..N//2, root N/2 of an even N stored as exactly -1 (e^(i pi) rounds to
    -1 + 1.2e-16i), followed by the conjugates of roots (N-1)//2..1 as nodes
    N//2+1..N-1, so node N-j is the exact conjugate of node j for every j;
    cos(2 pi j/N) for j < N; and the endpoint powers w^(-j l), l < 24, as an
    (N, 24) table read from the conjugated circle at j l mod N, so row N-j is
    the exact conjugate of row j.  Read-only, since the cache shares them."""
    roots = np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)
    if N % 2 == 0:
        roots[N // 2] = -1.0
    circle = np.concatenate([roots, np.conj(roots[(N - 1) // 2 : 0 : -1])])
    cosines = np.cos(2.0 * np.pi * np.arange(N) / N)
    powers = np.conj(circle)[np.multiply.outer(np.arange(N), _ENDPOINT_ORDERS) % N]
    for arr in (circle, cosines, powers):
        arr.setflags(write=False)
    return circle, cosines, powers


def _contour_rule(
    P: ParameterK, orbit: OrbitPairings, S: SeriesData, rho: float, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """The N-point trapezoidal rule on |z| = rho for the contour kernel: the
    reciprocals of nodes 0..N//2, and the weights of all N nodes,
    (gamma^2/2n) Phi(z) / (N (1 - z <x,y>)).  The nodes are rho w^j, w =
    e^(2 pi i/N), taken as rho times the circle of _circle_tables: node N-j
    stays the exact conjugate of node j, since a real factor commutes with
    conjugation.  So Phi(z_j) / N is the inverse FFT of the coefficients
    phi_p rho^p folded mod N."""
    if N < 8:
        raise DomainError("contour rule needs at least 8 nodes")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError("contour radius must be positive and finite")
    nodes = rho * _circle_tables(N)[0]
    half = nodes[: N // 2 + 1]
    denom = 1.0 - nodes * orbit.xy
    if np.minimum.reduce(np.abs(denom)) < 1e-12:  # np.min, less its wrapper
        raise DomainError("contour passes through the geometric-series pole")
    # rho = mant 2^expo: the power of two is applied last, by ldexp, so no
    # power of rho overflows where phi_p rho^p does not (a tiny orbit bound)
    mant, expo = math.frexp(rho)
    p = np.arange(S.phi.size)
    buf = np.zeros(-(-p.size // N) * N, dtype=complex)
    terms = (S.phi * mant**p).view(float).reshape(-1, 2)
    np.ldexp(terms, (expo * p)[:, None], out=buf[: p.size].view(float).reshape(-1, 2))
    folded = np.add.reduce(buf.reshape(-1, N), axis=0)
    pref = (P.gamma * P.gamma / (2.0 * P.n)) * np.fft.ifft(folded) / denom
    return 1.0 / half, pref


def _contour_sum(
    t: np.ndarray, inv: np.ndarray, pref: np.ndarray, end_pref: np.ndarray
) -> np.ndarray:
    """sum_j pref_j e^{t/z_j} for each time of the flat array t, followed by
    one row sum_j end_pref_j e^{1/z_j}.  Since t is real, e^{t/conj z} =
    conj(e^{t/z}): only the nodes 0..N//2 are exponentiated, and node N-j
    enters as the conjugate of node j.  pref may hold several weight vectors
    as columns, shape (N, c); each is summed from the same exponentials, and
    the result then has shape (t.size + 1, c).  end_pref is shaped like pref.

    Time 1 is appended to t, so the endpoint row is read from the last row
    of the same exponential matrix, by its own products: the body rows and
    the endpoint row are each summed as if alone."""
    N, h = pref.shape[0], inv.size
    lo = (N - 1) // 2
    mirrored = np.conj(pref[N - 1 : N - 1 - lo : -1])
    times = np.concatenate((t, (1.0,)))
    rows = max(1, _CONTOUR_BLOCK // h)
    vals = np.empty((times.size,) + pref.shape[1:], dtype=complex)
    for i in range(0, times.size, rows):
        e = np.exp(np.multiply.outer(times[i : i + rows], inv))
        body = e[: t.size - i]
        vals[i : i + body.shape[0]] = body @ pref[:h] + np.conj(body[:, 1 : 1 + lo] @ mirrored)
    last, end_mirrored = e[-1:], np.conj(end_pref[N - 1 : N - 1 - lo : -1])
    vals[-1] = (last @ end_pref[:h] + np.conj(last[:, 1 : 1 + lo] @ end_mirrored))[0]
    return vals


@lru_cache(maxsize=16)
def _panel_layout(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For `panels` panels, in _log_panels' output order (the 16-point rule
    panel by panel, then the 8-point rule): each node's odd multiplier
    2i+1 of its panel i, and its base node and weight on [-1, 1], the
    Gauss-Legendre rules built on a miss.  Read-only, since the cache
    shares them."""
    rules = [np.polynomial.legendre.leggauss(points) for points in (16, 8)]
    base = (np.concatenate(part) for part in zip(*rules))
    odd = (2.0 * np.arange(panels) + 1.0)[:, None]
    layout = tuple(
        np.concatenate([grid[:, :16].reshape(-1), grid[:, 16:].reshape(-1)])
        for grid in np.broadcast_arrays(odd, *base)
    )
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _log_panels(lo: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on `panels`
    equal panels of [lo, 0], panel by panel, followed by those of the
    8-point rule on the same panels: over the cached layout, the midpoint
    lo + half (2i+1) of panel i plus half times the base node, half being
    the panels' half-width.  No panels give no nodes."""
    odd, base_x, base_w = _panel_layout(panels)
    half = -lo / (2 * panels) if panels else 0.0
    return (lo + half * odd) + half * base_x, half * base_w


def _embedded_half(pref: np.ndarray) -> np.ndarray:
    """Weights of the N/2-node rule on the N-node grid: 2 pref_j at the even
    nodes j, 0 at the odd ones.  Even node 2j of the N-node rule is node j of
    the N/2-node rule, and ifft_N(f_N)[2j] = ifft_{N/2}(f_{N/2})[j] / 2 for
    the coefficients f_K folded mod K, so these are its weights exactly."""
    half = np.zeros_like(pref)
    half[::2] = 2.0 * pref[::2]
    return half


def _endpoint_coefficients(gamma: complex, s0: float) -> np.ndarray:
    """coef_l = s0^gamma / (l! (gamma+l)), l < 24: the integral of s^(gamma-1) e^(-s/z) over
    [0, s0] is sum_l coef_l (-s0/z)^l.  On the contour |s0/z| <= 1, so the terms fall like
    1/l!, and the tail after 24 lies below 2^-78 of the first term's scale."""
    return s0**gamma / (_ENDPOINT_FACTORIALS * (gamma + _ENDPOINT_ORDERS))


def _pass_floor(
    weight: np.ndarray, t: np.ndarray, pref: np.ndarray, rho: float, end_mass: float
) -> float:
    """Rounding floor of one contour pass, body and endpoint (see ek_integral).  On the body,
    sum_j |pref_j| e^(t Re(1/z_j)) is log-convex in t, so it lies below its chord f0^(1-t) f1^t."""
    N = pref.size
    mag = np.abs(pref)
    f0 = float(np.add.reduce(mag))  # np.sum, less its wrapper
    f1 = float(mag @ np.exp(_circle_tables(N)[1] / rho))
    body = float(np.add.reduce(np.abs(weight) * (f1 / f0) ** t))
    return 2.0**-53 * (f0 * body + f1 * end_mass)


def ek_integral(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, tol: float
) -> KernelResult:
    """Kernel value by the weighted-time integral of the contour kernel,
    int_0^1 s^(gamma-1) K(1-s) ds, valid for Re(gamma) > 0.  A vanishing
    orbit bound gives 1 exactly.

    The contour radius is rho = contour_radius(a, C), C = delta_series and
    a the orbit bound: the minimiser of 1/rho - C log(1 - a rho), the log of
    the amplification below, capped at 1/(2a).  Phi's majorant
    (series_for_radius) holds on every |z| < 1/a, inside Phi's poles 1/c_i,
    |c_i| <= a.
    For C >> a the radius is about 1/sqrt(C a), so the integrand grows like
    e^(sqrt(C a)), where the radius 1/(2 delta a), delta >= C, gave e^(2
    delta a).  A radius that underflows to 0 is a convergence error.

    The integral is split at s0 = min(1, rho), rho the contour radius, so
    that |s0/z| <= 1 on the contour.  On [0, s0], K(1-s) = sum_j pref_j
    e^(1/z_j) e^(-s/z_j) is integrated term by term (_endpoint_coefficients):
    at node z_j = rho w^j the series is sum_l coef_l (-s0/rho)^l w^(-j l),
    one product with the endpoint powers of _circle_tables.  On [s0, 1],
    s = e^v leaves the smooth e^(gamma v) K(1 - e^v), integrated by 16-point
    Gauss-Legendre on ceil(-log s0) * splits equal panels of [log s0, 0],
    none where s0 = 1.  A pass whose time weights all underflow is refused.

    Truncation: an error e in Phi on |z| = rho moves each contour weight's
    share of K(t), t in [0, 1], by at most (|gamma|^2/2n) e e^(1/rho) /
    (1 - rho a) in all, since |1 - z <x,y>| >= 1 - rho a.  The value takes
    that times the mass its rule puts on |s^(gamma-1)|: sum_l |coef_l|
    (s0/rho)^l on [0, s0], and (1 - s0^Re(gamma))/Re(gamma) on [s0, 1], the
    integral that the panels sum.  That mass is about 1/Re(gamma) for real
    gamma and stays bounded as Re(gamma) -> 0 with Im(gamma) fixed.
    series_for_radius takes this amplification, in log space, and truncates
    Phi where the bound on the value's truncation error is at most
    min(tol 1e-3, 2^-53), so that the truncation term of the tail is at most
    one rounding unit of a unit value.  A factor gamma^2/2n past the double
    range is a range error.

    One pass reads three sums from one blocked e^(t/z) matrix: Q, the
    value, with N nodes and 16-point panels; Q_half, the N/2-node rule on
    the even nodes (_embedded_half); and Q_8, N nodes with 8-point panels.
    The same matrix serves the endpoint piece: time 1 is appended to the
    panel times, and its row, with the endpoint weights, gives the [0, s0]
    sums of Q and Q_half (_contour_sum), so a pass exponentiates once.
    The pass stops when the spread |Q - Q_half| + |Q - Q_8| is at most
    0.3 tol max(1, |Q|), or when it is at most twice the pass's rounding
    floor (below) and at most tol max(1, |Q|): more nodes do not shrink
    rounding noise.  A spread within twice the floor but above tol is
    refused.  Otherwise nodes and splits are doubled, up to 8192 nodes.
    The first N is the smallest power of two >= max(64, 3e/rho), so that
    the embedded N/2 rule resolves e^(t/z), whose Laurent terms
    (t/rho)^m/m! fall below 1 only past m = e t/rho.  nodes_used is the N
    of the last pass.

    Conditioning: the contour integrand oscillates with magnitude about
    e^(1/rho) against a much smaller result.  Each pass estimates its
    rounding of Q by the floor 2^-53 (sum_i |w_i| f0^(1-t_i) f1^(t_i) +
    f1 sum_l |coef_l| (s0/rho)^l), with w_i the body's weights, f0 =
    sum_j |pref_j| and f1 = sum_j |pref_j| e^(Re(1/z_j)), and is refused
    when that floor exceeds tol * max(1, |Q|); use the series route
    there.  The floor is an estimate, not a bound: it ignores the growth of
    summation error with the number of terms.  The tail estimate is
    |Q - Q_half| + |Q - Q_8| of the last pass plus its floor plus the
    truncation bound min(tol 1e-3, 2^-53).
    """
    _require_tol(tol)
    P.require_regular()
    g = P.gamma
    if g.real <= 0:
        raise DomainError("integral representation requires Re(γ)>0")

    orbit = orbit_pairings(G, x, y)
    a = orbit.a_bound
    if a == 0.0:
        return KernelResult(value=1.0 + 0.0j, method="integral", nodes_used=0)
    rho = contour_radius(a, delta_effective(P).delta_series)
    if rho == 0.0:
        raise ConvergenceError(
            f"the contour radius underflows: a = {a:.6g} is past the double range"
        )
    log_weight = 2.0 * math.log(abs(g)) - math.log(2.0 * P.n)
    if log_weight > _LOG_HUGE:
        raise DomainError(
            f"the contour weights' factor gamma^2/2n = e^{log_weight:.6g} is past the double range",
            code="range-error",
        )
    s0 = min(1.0, rho)
    # the endpoint series' terms at z = rho: coef_l (-s0/rho)^l
    end_terms = _endpoint_coefficients(g, s0) * (-s0 / rho) ** _ENDPOINT_ORDERS
    end_mass = float(np.add.reduce(np.abs(end_terms)))
    # the amplification of a Phi error on |z| = rho into the value (above)
    mass = end_mass - math.expm1(g.real * math.log(s0)) / g.real
    log_amp = log_weight + 1.0 / rho - math.log1p(-rho * a) + math.log(mass)
    truncation = min(tol * 1e-3, _ULP)
    S = series_for_radius(P, orbit, rho, truncation, log_amp)

    def one_pass(N: int, splits: int) -> tuple[complex, float, float]:
        panels = math.ceil(-math.log(s0)) * splits  # none where s0 = 1
        v, w = _log_panels(math.log(s0), panels)
        t = 1.0 - np.exp(v)
        body_weights = w * np.exp(g * v)
        if end_mass == 0.0 and not body_weights.any():
            raise ConvergenceError(
                f"every time weight of the contour pass underflows to 0 (s0^gamma = 0 at s0 = "
                f"{s0:.6g}, gamma = {g:.6g}), against a mass of {mass:.3g}; use the series route"
            )
        n16 = 16 * panels
        weight, weight8 = body_weights[:n16], body_weights[n16:]
        inv, pref = _contour_rule(P, orbit, S, rho, N)
        prefs = np.column_stack([pref, _embedded_half(pref)])
        end_prefs = prefs * (_circle_tables(N)[2] @ end_terms)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _contour_sum(t, inv, prefs, end_prefs)
            body, end = sums[:-1], sums[-1]
            value, value_half = weight @ body[:n16] + end
            value8 = weight8 @ body[n16:, 0] + end[0]
            floor = _pass_floor(weight, t[:n16], pref, rho, end_mass)
        # An overflowing integrand leaves a sum inf or nan; the headroom of
        # 4 keeps the differences in the double range.
        if not all(cmath.isfinite(4.0 * complex(v)) for v in (value, value_half, value8)):
            raise ConvergenceError(
                f"a contour pass with {N} nodes overflows double precision "
                f"(radius {rho:.6g}, a = {a:.6g})"
            )
        if floor > tol * max(1.0, abs(value)):
            raise ConvergenceError(
                f"rounding floor {floor:.3g} of the contour pass with {N} nodes exceeds the "
                f"tolerance (value {abs(value):.3g}, radius {rho:.6g}, a = {a:.6g}); "
                "use the series route"
            )
        spread = float(abs(value - value_half) + abs(value - value8))
        return complex(value), spread, floor

    # the node floor: the smallest power of two >= 3e/rho, at least 64
    N, splits = 64, 1
    while N < _MAX_NODES and N * rho < 3.0 * math.e:
        N *= 2
    while True:
        value, spread, floor = one_pass(N, splits)
        scale = tol * max(1.0, abs(value))
        # a spread within twice the floor is rounding noise, which more nodes
        # do not shrink: the pass then stands or falls by the spread itself
        noise = spread <= 2.0 * floor
        if spread <= 0.3 * scale or (noise and spread <= scale):
            return KernelResult(
                value=value,
                method="integral",
                nodes_used=N,
                tail_estimate=spread + floor + truncation,
            )
        if noise:
            raise ConvergenceError(
                f"rounding floor {floor:.3g} of the contour pass with {N} nodes explains its "
                f"spread {spread:.3g}, which exceeds the tolerance (value {abs(value):.3g}, "
                f"radius {rho:.6g}, a = {a:.6g}); use the series route"
            )
        if N == _MAX_NODES:
            raise ConvergenceError(
                f"integral representation did not stabilize within {N} contour nodes "
                f"(radius {rho:.6g}, a = {a:.6g})"
            )
        N, splits = 2 * N, 2 * splits


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
    require_degree(M)
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
        log_bound = _log_component_bound(da, np.arange(M + 1), _log_abs_pochhammer(P.gamma, M))
        bound = np.exp(log_bound[1:])
    ratios = np.divide(abs_em, bound, out=np.where(abs_em > 0, np.inf, 0.0), where=bound > 0)
    max_ratio = float(np.max(ratios, initial=0.0))
    return EmBoundReport(max_ratio=max_ratio, passed=max_ratio <= 1.0 + 1e-9)


def _log_term_pairs(P: ParameterK, delta_a: float) -> Iterator[tuple[float, float]]:
    """(log term m, log term m+1) of the component bound for m <
    _BOUND_SUM_TERMS.  The table is built in pieces of doubling size, only as
    far as it is read; each piece carries the Pochhammer sum on, so every
    entry rounds as in the whole table."""
    lo, carry, size = 0, 0.0, 64
    while lo < _BOUND_SUM_TERMS:
        hi = min(lo + size, _BOUND_SUM_TERMS)
        log_poch = _log_abs_pochhammer(P.gamma, hi, lo, carry)
        log_term = _log_component_bound(delta_a, np.arange(lo, hi + 1), log_poch).tolist()
        yield from zip(log_term, log_term[1:])
        lo, carry, size = hi, float(log_poch[-1]), 2 * size


def ek_bound_constant(P: ParameterK, delta_a: float) -> float:
    """Constant assembled from the component-bound summation: the numeric
    closure of (e^2/2) sum_m (m+2)^2 (delta a)^m / |(1+gamma)_m|."""
    if delta_a == 0.0:
        return 2.0 * math.e**2
    total = 0.0
    for m, (here, ahead) in enumerate(_log_term_pairs(P, delta_a)):
        term = math.exp(here) if here < 700.0 else math.inf
        total += term
        closing = m > -P.gamma.real and ahead - here < _LOG_HALF
        if closing and term < 1e-16 * max(total, 1.0):
            return total
        if not math.isfinite(total):
            break
    raise ConvergenceError(
        f"bound-constant summation did not close (delta a = {delta_a:.6g})"
    )


def check_ek_bound(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, nu: int
) -> EkBoundReport:
    """Ratio |E_k| / ((delta a + 1)^(nu+2) e^(delta a)) at one grid point,
    against the assembled summation constant over the same scale.  A scale
    past the double range is inf, so the ratios against it read 0, as in
    check_em_bound."""
    if nu < 1:
        raise DomainError("nu must be a positive integer for the kernel bound")
    if P.gamma.real <= -nu:
        raise DomainError(f"bound check requires Re(gamma) > -nu = {-nu}")
    orbit = orbit_pairings(G, x, y)
    # k = 0 scales by a itself; delta * 0 = 0: a vanishing orbit bound
    # skips delta and its refusal
    da = orbit.a_bound
    if P.k != 0 and orbit.a_bound:
        da *= delta_effective(P).delta_effective
    value = ek_series(G, P, x, y, 1e-10).value
    too_large = (nu + 2) * math.log1p(da) + da > 709.0
    scale = math.inf if too_large else (da + 1.0) ** (nu + 2) * math.exp(da)
    constant = 2.0 * math.e**2 if P.k == 0 else ek_bound_constant(P, da) / scale
    ratio = abs(value) / scale
    return EkBoundReport(ratio=float(ratio), constant=float(constant), passed=ratio <= constant)
