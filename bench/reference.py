"""High-precision references for the benchmark's output checks.

Everything here is computed with mpmath at REF_DPS digits from closed forms
of the Dunkl kernel, without importing the program under test:

* n = 2: the group is Z2 x Z2, so the kernel is the product of two rank-one
  kernels e^t 1F1(k; 2k+1; -2t), t = x_i y_i, and its degree-m component is
  sum_{a+b=m} (x1 y1)^a (x2 y2)^b / (b_a b_b) with
  b_{2j} = 2^{2j} j! (k+1/2)_j and b_{2j+1} = 2^{2j+1} j! (k+1/2)_{j+1}.
* x on the mirror axis (x2 = 0), any n: the generating function is
  (2/k) prod_i (1 - z c_i)^(-k) over the rotation pairings c_i, so
  E_m = sum_{j<=m} F_j <x,y>^(m-j) / (1+gamma)_m, where F_j are the
  coefficients of prod_i (1 - z c_i)^(-k).  They are generated here from the
  logarithmic derivative, m F_m = k sum_{p=1..m} (sum_i c_i^p) F_{m-p}.
"""

from __future__ import annotations

import mpmath

REF_DPS = 30


def _mpc(v) -> mpmath.mpc:
    return mpmath.mpc(complex(v).real, complex(v).imag)


def _b_n2(k: mpmath.mpc, m: int) -> mpmath.mpc:
    j, odd = divmod(m, 2)
    return 2**m * mpmath.factorial(j) * mpmath.rf(k + 0.5, j + odd)


def n2_components(k: complex, x, y, m_max: int) -> list[complex]:
    """E_0..E_m_max for n = 2 at real points x, y."""
    with mpmath.workdps(REF_DPS):
        kk = _mpc(k)
        t1 = mpmath.mpf(x[0]) * mpmath.mpf(y[0])
        t2 = mpmath.mpf(x[1]) * mpmath.mpf(y[1])
        b = [_b_n2(kk, m) for m in range(m_max + 1)]
        return [
            complex(mpmath.fsum(t1**a * t2 ** (m - a) / (b[a] * b[m - a]) for a in range(m + 1)))
            for m in range(m_max + 1)
        ]


def n2_kernel(k: complex, x, y) -> complex:
    """E_k(x, y) for n = 2 at real points x, y."""
    with mpmath.workdps(REF_DPS):
        kk = _mpc(k)
        value = mpmath.mpf(1)
        for xi, yi in zip(x, y):
            t = mpmath.mpf(xi) * mpmath.mpf(yi)
            value *= mpmath.exp(t) * mpmath.hyp1f1(kk, 2 * kk + 1, -2 * t)
        return complex(value)


def _rotation_pairings(n: int, x1: float, y) -> list[mpmath.mpf]:
    """<r^j x, y> for x = (x1, 0), r the rotation by 2 pi / n."""
    x1 = mpmath.mpf(x1)
    y1, y2 = mpmath.mpf(y[0]), mpmath.mpf(y[1])
    return [
        x1 * (mpmath.cos(2 * mpmath.pi * j / n) * y1 + mpmath.sin(2 * mpmath.pi * j / n) * y2)
        for j in range(n)
    ]


class _MirrorSeries:
    """Components E_0, E_1, ... on the mirror axis, one degree at a time."""

    def __init__(self, n: int, k: complex, x, y):
        if x[1] != 0.0:
            raise ValueError("mirror-axis reference needs x = (x1, 0)")
        self.k = _mpc(k)
        self.gamma = n * self.k
        self.c = _rotation_pairings(n, x[0], y)
        self.s = self.c[0]
        self.sigma = [None]  # power sums sum_i c_i^p, p >= 1
        self.F = [mpmath.mpf(1)]
        self.T = mpmath.mpf(1)  # sum_j F_j s^(m-j)
        self.poch = mpmath.mpf(1)  # (1+gamma)_m
        self.m = 0

    def next(self) -> mpmath.mpc:
        """Return E_m and advance to degree m + 1."""
        value = self.T / self.poch
        m = self.m + 1
        self.sigma.append(mpmath.fsum(ci**m for ci in self.c))
        self.F.append(self.k * mpmath.fsum(self.sigma[p] * self.F[m - p] for p in range(1, m + 1)) / m)
        self.T = self.s * self.T + self.F[m]
        self.poch *= self.gamma + m
        self.m = m
        return value


def mirror_components(n: int, k: complex, x, y, m_max: int) -> list[complex]:
    """E_0..E_m_max for x on the mirror axis."""
    with mpmath.workdps(REF_DPS):
        series = _MirrorSeries(n, k, x, y)
        return [complex(series.next()) for _ in range(m_max + 1)]


def mirror_kernel(n: int, k: complex, x, y) -> complex:
    """E_k(x, y) for x on the mirror axis.

    Summation stops past degree e*a + 20, a = max_i |c_i|, once ten
    consecutive components fall below 10^-(REF_DPS+2) of the running sum
    of their moduli.
    """
    with mpmath.workdps(REF_DPS + 5):
        series = _MirrorSeries(n, k, x, y)
        a = max(abs(ci) for ci in series.c)
        m_min = int(mpmath.e * a) + 20
        total, mass, small = mpmath.mpc(0), mpmath.mpf(0), 0
        eps = mpmath.mpf(10) ** (-(REF_DPS + 2))
        while small < 10:
            term = series.next()
            total += term
            mass += abs(term)
            small = small + 1 if series.m > m_min and abs(term) < eps * mass else 0
            if series.m > 5000:
                raise ArithmeticError("mirror-axis kernel series did not close")
        return complex(total)
