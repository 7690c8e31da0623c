"""kernel.certified_terms against a frozen copy of its earlier loop.

The loop now writes out the step envelope and max(), sums on a Python
complex, and takes the sup norms of a whole block of states in one
reduction.  Read on the same states, it must do the same floating-point
operations in the same order, so on every draw it returns the same (value,
term count, tail) to the bit, or raises the same error class with the same
message.
"""

import math
from itertools import chain

import numpy as np

from dunkl_dihedral.dihedral import make_group, orbit_pairings
from dunkl_dihedral.errors import ConvergenceError, DomainError
from dunkl_dihedral.kernel import _first_block, certified_terms
from dunkl_dihedral.polyalg import MAX_DEGREE, ParameterK
from dunkl_dihedral.recurrence import state_blocks


def reference_certified_terms(P, orbit, tol):
    """The loop as it read before the per-term bookkeeping was written out
    (kept verbatim, docstring aside), reading the states one by one from the
    blocks certified_terms reads."""
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
    total, mass, prior, weight = 0.0j, 0.0, 1.0, 1.0
    first = _first_block(a, P.gamma, tol)
    states = chain.from_iterable(state_blocks(P, orbit, first, MAX_DEGREE + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for M, state in enumerate(states):
            norm = float(np.maximum.reduce(np.abs(state)))  # ndarray.max, less its wrapper
            if not math.isfinite(norm):
                raise DomainError(
                    f"the orbit state overflows double precision at degree {M}",
                    code="range-error",
                )
            total += state[0]
            mass += weight * max(norm, prior)
            if M + 1 > -2.0 * r and (rho := envelope(M)) <= 0.5 and 2.0 * rho * norm < tol:
                floor = 2.0**-53 * mass
                if floor > tol * max(1.0, abs(total)):
                    raise ConvergenceError(
                        f"rounding floor {floor:.3g} of the component sum exceeds the tolerance "
                        f"(sum {abs(total):.3g}); the terms cancel, or gamma is near a singular value"
                    )
                return complex(total), M + 1, 2.0 * rho * norm + floor
            denom = abs(M + 1 + P.gamma)
            prior *= a / denom
            weight = max(weight, g / denom + 2.0 * g / abs(M + 1 + 2.0 * P.gamma))
    raise ConvergenceError(
        f"component tail not certified within {MAX_DEGREE} terms (a = {a:.6g}, "
        f"|gamma| = {g:.6g}); the argument pair is too large for double-precision series summation"
    )


def _outcome(fn, P, orbit, tol):
    try:
        value, terms, tail = fn(P, orbit, tol)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "code", None)
    # repr tells -0.0 from 0.0 and shows every bit of a double
    return type(value), repr(value), type(terms), terms, type(tail), repr(tail)


def _unit(rng):
    t = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(t), math.sin(t)


def _draws(seed=20261019):
    """(kind, n, k, x, y, tol) draws, 30 or 60 of each kind."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        # moderate pairs, complex k, Re(gamma) of either sign
        n = int(rng.integers(2, 9))
        gamma = complex(rng.uniform(-0.9, 3.0), rng.uniform(-2.0, 2.0))
        rx, ry = rng.uniform(0.2, 2.0), rng.uniform(0.2, 6.0)
        ux, uy = _unit(rng), _unit(rng)
        yield ("moderate", n, gamma / n, (rx * ux[0], rx * ux[1]), (ry * uy[0], ry * uy[1]),
               10.0 ** rng.uniform(-14, -6))
    for _ in range(60):
        # Re(gamma) < 0, down to where the sum needs many steps before its envelope applies
        n = int(rng.integers(2, 9))
        gamma = complex(-rng.uniform(0.01, 40.0), rng.uniform(-3.0, 3.0))
        rx, ry = rng.uniform(0.2, 1.5), rng.uniform(0.2, 3.0)
        ux, uy = _unit(rng), _unit(rng)
        yield ("negative", n, gamma / n, (rx * ux[0], rx * ux[1]), (ry * uy[0], ry * uy[1]),
               1e-12)
    for _ in range(60):
        # |gamma| up to 300 in every direction of the right half plane and a bit past it
        n = int(rng.integers(2, 9))
        mod, arg = rng.uniform(20.0, 300.0), rng.uniform(-0.6 * math.pi, 0.6 * math.pi)
        gamma = mod * complex(math.cos(arg), math.sin(arg))
        rx, ry = rng.uniform(0.5, 4.0), rng.uniform(0.5, 12.0)
        ux, uy = _unit(rng), _unit(rng)
        yield ("large", n, gamma / n, (rx * ux[0], rx * ux[1]), (ry * uy[0], ry * uy[1]), 1e-12)
    for _ in range(60):
        # the mirror-axis cancellation recipe: x1 in +-[0.5, 8] on the axis,
        # |y| <= 12 with y on the axis half the time, small k
        n = int(rng.choice([3, 5]))
        k = complex(rng.uniform(0.05, 0.8), rng.choice([0.0, rng.uniform(-0.4, 0.4)]))
        x = (rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0), 0.0)
        ry = rng.uniform(0.5, 12.0)
        uy = (rng.choice([-1.0, 1.0]), 0.0) if rng.uniform() < 0.5 else _unit(rng)
        yield ("mirror", n, k, x, (ry * uy[0], ry * uy[1]), 1e-12)
    for _ in range(30):
        # imaginary y, so |E_k| < 1 while the states reach e^a: the rounding
        # floor is read against tol * max(1, |sum|), not tol * |sum|
        n = int(rng.integers(2, 9))
        ry, uy = rng.uniform(3.0, 6.0), _unit(rng)
        x, y = (rng.uniform(3.0, 6.0), 0.0), (0.0, 0.0, ry * uy[0], ry * uy[1])
        k, tol = complex(rng.uniform(0.5, 2.0), 0.0), 10.0 ** rng.uniform(-12, -9)
        yield ("small-sum", n, k, x, y, tol)
    for _ in range(30):
        # -2 Re(gamma) past the degree cap: refused before the first term
        n = int(rng.integers(2, 9))
        gamma = complex(-rng.uniform(250.6, 400.0), rng.uniform(-5.0, 5.0))
        yield ("past-cap", n, gamma / n, (1.0, 0.0), (0.5, 0.5), 1e-12)
    for _ in range(30):
        # the envelope at the cap above 1/2: refused before the first term
        # (a >= <x, y> >= 400, so the envelope is at least 400/501)
        n = int(rng.integers(2, 9))
        y = (rng.choice([-1.0, 1.0]) * rng.uniform(40.0, 80.0), rng.uniform(-5.0, 5.0))
        yield ("cap-envelope", n, complex(rng.uniform(0.1, 2.0), 0.0), (10.0, 0.0), y, 1e-12)


def test_certified_terms_matches_its_earlier_loop_bit_for_bit():
    kinds = {}
    for kind, n, k, x, y, tol in _draws():
        P = ParameterK(k, n)
        y = np.array(y if len(y) == 2 else [complex(y[0], y[2]), complex(y[1], y[3])])
        orbit = orbit_pairings(make_group(n), np.array(x), y)
        new = _outcome(certified_terms, P, orbit, tol)
        assert new == _outcome(reference_certified_terms, P, orbit, tol), (kind, n, k, x, y, tol)
        kinds.setdefault(kind, []).append(new)
    assert sum(map(len, kinds.values())) >= 300
    # the draws reach every exit of the loop
    values = [o for outcomes in kinds.values() for o in outcomes if o[0] is complex]
    assert len(values) >= 150
    assert sum(o[0] is complex for o in kinds["negative"]) >= 40
    assert sum(o[0] is complex for o in kinds["large"]) >= 40
    refusals = [o[1] for outcomes in kinds.values() for o in outcomes if o[0] is ConvergenceError]
    assert sum("rounding floor" in text for text in refusals) >= 3
    assert sum(o[0] is complex and abs(complex(o[1])) < 0.1 for o in kinds["small-sum"]) >= 15
    for kind, phrase in [("past-cap", "-2 Re(gamma)"), ("cap-envelope", "step envelope")]:
        assert all(o[0] is ConvergenceError and phrase in o[1] for o in kinds[kind])
