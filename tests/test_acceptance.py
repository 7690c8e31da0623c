"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them).  Tolerances are
pinned here and nowhere else."""

import io
import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from conftest import poly_rel_err, random_poly, rel_err, residual_check
from dunkl_dihedral.cli import EXIT_OK, main
from dunkl_dihedral.dihedral import is_sigma_invariant, make_group, orbit_pairings, pairing
from dunkl_dihedral.kernel import (
    check_ek_bound,
    check_em_bound,
    delta_effective,
    ek_integral,
    ek_series,
)
from dunkl_dihedral.polyalg import (
    ParameterK,
    a_op,
    dunkl_apply,
    h_op,
    intertwine,
    oracle_em,
    pairing_power,
)
from dunkl_dihedral.recurrence import em_sequence
from dunkl_dihedral.sampling import draw_instance
from dunkl_dihedral.series import a_coeffs, em_closed_sigma, em_genseries

E1, E2 = (1.0, 0.0), (0.0, 1.0)


@contextmanager
def criterion(name: str, limit: float | None = None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {limit:.0f}s limit")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        timing = f" ({elapsed:.2f}s" + (f", limit {limit:.0f}s)" if limit else ")")
        print(f"\ncriterion {name}: {status}{timing}")


@lru_cache(maxsize=1)
def standard_instances():
    """The seeded 50-instance standard set; every fifth lies on the mirror
    axis.  min_xy rejects nearly orthogonal pairs, where relative comparison
    of the degree-1 component degenerates to comparing rounding noise."""
    rng = np.random.default_rng(987654321)
    return tuple(
        draw_instance(rng, sigma_invariant=(i % 5 == 4), min_xy=1e-3)
        for i in range(50)
    )


def test_criterion_1_degree_one_identity():
    with criterion("1 (degree-1 component identity)", limit=1.0):
        rng = np.random.default_rng(1001)
        for i in range(200):
            inst = draw_instance(rng, sigma_invariant=(i % 5 == 4), min_xy=1e-2)
            G, P = inst.group(), inst.parameter()
            expected = pairing(inst.x, inst.y) / (1.0 + P.gamma)
            orbit = orbit_pairings(G, inst.x, inst.y)
            values = [
                em_sequence(G, P, inst.x, inst.y, 1)[1],
                em_genseries(G, P, inst.x, inst.y, 1)[1],
                oracle_em(G, P, inst.x, inst.y, 1)[1],
            ]
            if is_sigma_invariant(orbit):
                values.append(em_closed_sigma(G, P, inst.x, inst.y, 1)[1])
            for v in values:
                assert rel_err(v, expected) <= 1e-12


def test_criterion_2_four_way_method_agreement():
    with criterion("2 (four-way method agreement)", limit=60.0):
        for inst in standard_instances():
            G, P = inst.group(), inst.parameter()
            orbit = orbit_pairings(G, inst.x, inst.y)
            ems = em_sequence(G, P, inst.x, inst.y, 30)
            oracle = oracle_em(G, P, inst.x, inst.y, 20)
            for m in range(21):
                assert rel_err(ems[m], oracle[m]) <= 1e-9
            gen = em_genseries(G, P, inst.x, inst.y, 30)
            for m in range(31):
                assert rel_err(ems[m], gen[m]) <= 1e-9
            if is_sigma_invariant(orbit):
                closed = em_closed_sigma(G, P, inst.x, inst.y, 20)
                for m in range(21):
                    assert rel_err(ems[m], closed[m]) <= 1e-10


def test_criterion_3_defining_eigen_relation():
    with criterion("3 (defining eigen-relation)", limit=30.0):
        rng = np.random.default_rng(1003)
        for _ in range(20):
            inst = draw_instance(rng, n_choices=(2, 3, 4, 5))
            G, P = inst.group(), inst.parameter()
            polys = [
                (1.0 / math.factorial(m)) * intertwine(G, P, pairing_power(inst.y, m))
                for m in range(12)
            ]
            for m in range(11):
                for axis, xi in enumerate((E1, E2)):
                    lhs = dunkl_apply(G, P, xi, polys[m + 1])
                    rhs = complex(inst.y[axis]) * polys[m]
                    assert poly_rel_err(lhs, rhs) <= 1e-9


def test_criterion_4_operator_identities():
    with criterion("4 (operator identities)", limit=10.0):
        rng = np.random.default_rng(1004)
        for n in (2, 3, 5, 7):
            G = make_group(n)
            P = ParameterK(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4)), n)
            while not P.regularity_margin() >= 0.1:
                P = ParameterK(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4)), n)
            f = random_poly(rng, 8)
            for axis, xi in enumerate((E1, E2)):
                lhs = dunkl_apply(G, P, xi, intertwine(G, P, f))
                rhs = intertwine(G, P, f.deriv(axis))
                assert poly_rel_err(lhs, rhs) <= 1e-9
            for m in range(1, 9):
                h = random_poly(rng, m, homogeneous=True)
                g = (m + P.gamma) * h - a_op(G, P, h)
                assert poly_rel_err(h_op(G, P, m, g), h) <= 1e-10


def test_criterion_5_structural_zeros():
    with criterion("5 (structural zeros of the coefficient recursion)"):
        for inst in standard_instances():
            P = inst.parameter()
            orbit = orbit_pairings(inst.group(), inst.x, inst.y)
            S = a_coeffs(P, orbit, 10)
            assert S.A[0, 0] == 2.0 * inst.n / P.gamma
            assert S.A[0, 1] == 0.0
            b0_scale = abs(P.gamma) * orbit.a_bound + 1e-300
            assert np.max(np.abs(S.B[0])) <= 1e-12 * b0_scale
            a1_scale = (2.0 * inst.n / abs(P.gamma)) * max(1.0, orbit.a_bound)
            assert np.max(np.abs(S.A[1])) <= 1e-12 * a1_scale


def test_criterion_6_coefficient_bound():
    with criterion("6 (coefficient growth bound)"):
        for inst in standard_instances():
            P = inst.parameter()
            orbit = orbit_pairings(inst.group(), inst.x, inst.y)
            S = a_coeffs(P, orbit, 80)
            da = delta_effective(P).delta_effective * orbit.a_bound
            amp = 2.0 * inst.n / abs(P.gamma)
            norms = np.linalg.norm(S.A, axis=1)
            for p in range(81):
                assert norms[p] <= amp * da**p * (1.0 + 1e-9)


def test_criterion_7_differential_system_residual():
    with criterion("7 (differential-system residual)"):
        for inst in standard_instances():
            P = inst.parameter()
            orbit = orbit_pairings(inst.group(), inst.x, inst.y)
            S = a_coeffs(P, orbit, 80)
            da = delta_effective(P).delta_effective * orbit.a_bound
            radius = 1.0 / (4.0 * da) if da > 0 else 0.25
            for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                assert residual_check(P, orbit, S, radius * np.exp(1j * theta)) <= 1e-8


def test_criterion_8_integral_representation():
    with criterion("8 (integral representation)", limit=60.0):
        rng = np.random.default_rng(1008)
        # delta*a capped per the documented conditioning limit of the contour
        # quadrature; the orbit bound itself stays below 2
        for n in (2, 3, 5):
            for k in (0.3, 1.0, 2.5):
                G, P = make_group(n), ParameterK(k, n)
                x = rng.uniform(0.3, 1.0, size=2)
                y = rng.uniform(0.3, 1.0, size=2)
                da = delta_effective(P).delta_effective * orbit_pairings(G, x, y).a_bound
                if da > 4.0:
                    y = y * (4.0 / da)
                assert orbit_pairings(G, x, y).a_bound <= 2.0
                s = ek_series(G, P, x, y, 1e-12)
                i = ek_integral(G, P, x, y, 1e-8)
                assert rel_err(s.value, i.value) <= 1e-6
        # complex parameter with positive real part
        G, P = make_group(2), ParameterK(0.5 + 0.3j, 2)
        x, y = np.array([0.8, 0.3]), np.array([0.5, 0.6])
        s = ek_series(G, P, x, y, 1e-12)
        i = ek_integral(G, P, x, y, 1e-8)
        assert rel_err(s.value, i.value) <= 1e-6
        # stability under contour-radius perturbation
        for _ in range(3):
            inst = draw_instance(rng, positive_gamma=True, delta_a_cap=3.0)
            G, P = inst.group(), inst.parameter()
            lo = ek_integral(G, P, inst.x, inst.y, 1e-9, rho_scale=0.75)
            hi = ek_integral(G, P, inst.x, inst.y, 1e-9, rho_scale=1.25)
            assert rel_err(lo.value, hi.value) <= 1e-8


def test_criterion_9_growth_bounds():
    with criterion("9 (component and kernel growth bounds)"):
        # the component bound holds for every admissible parameter: pick the
        # smallest nonneg nu with Re(gamma) > -nu per instance
        for inst in standard_instances():
            P = inst.parameter()
            nu = max(0, math.floor(-P.gamma.real) + 1)
            rep = check_em_bound(inst.group(), P, inst.x, inst.y, 60, nu)
            assert rep.max_ratio <= 1.0 + 1e-9
        # dedicated negative real-part cases: gamma in (-nu, 0), nu in {1, 2}
        cases = [
            (3, -0.15, 1),        # gamma = -0.45
            (4, -0.1125, 1),      # gamma = -0.45
            (2, -0.65, 2),        # gamma = -1.3
            (3, complex(-0.15, 0.1), 1),
        ]
        rng = np.random.default_rng(1009)
        for n, k, nu in cases:
            G, P = make_group(n), ParameterK(k, n)
            for _ in range(3):
                x = rng.uniform(-1, 1, size=2)
                y = rng.uniform(-1, 1, size=2)
                rep = check_em_bound(G, P, x, y, 60, nu)
                assert rep.max_ratio <= 1.0 + 1e-9
        # kernel bound over the standard grid (positive real part, nu = 1);
        # instances are restricted to the certified summation range
        worst, checked = 0.0, 0
        for inst in standard_instances():
            P = inst.parameter()
            if P.gamma.real <= 0:
                continue
            da = delta_effective(P).delta_effective * orbit_pairings(
                inst.group(), inst.x, inst.y
            ).a_bound
            if da > 8.0:
                continue
            rep = check_ek_bound(inst.group(), P, inst.x, inst.y, 1)
            assert rep.passed
            worst = max(worst, rep.ratio / rep.constant)
            checked += 1
        assert checked >= 5 and 0.0 < worst <= 1.0


def test_criterion_10_degenerations():
    with criterion("10 (degenerations)"):
        G = make_group(3)
        P = ParameterK(0.5, 3)
        assert ek_series(G, P, (0.0, 0.0), (1.0, 2.0), 1e-12).value == 1.0
        tiny = ek_series(make_group(3), ParameterK(1e-5, 3), (1.0, 0.0), (0.5, 0.5), 1e-12)
        target = math.exp(0.5)
        assert abs(tiny.value - target) <= 1e-3 * target
        for x, y in (((0.0, 0.0), (1.0, 1.0)), ((0.7, -0.2), (0.0, 0.0))):
            ems = em_sequence(G, P, x, y, 8)
            assert ems[0] == 1.0 and np.all(ems[1:] == 0.0)


def test_criterion_11_cli_determinism():
    with criterion("11 (CLI determinism)"):
        argv = ["crosscheck", "--seed", "20250809", "--samples", "50", "--tol", "1e-8"]
        out1, out2 = io.StringIO(), io.StringIO()
        assert main(argv, out=out1) == EXIT_OK
        assert main(argv, out=out2) == EXIT_OK
        assert out1.getvalue() == out2.getvalue()
        assert len(out1.getvalue().strip().split("\n")) == 52  # header + 50 + overall
