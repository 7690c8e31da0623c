"""Seeded random instance generation shared by the CLI cross-check and the
test suite.  All draws come from a caller-supplied numpy Generator, so a
fixed seed reproduces the exact instance stream."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import DihedralGroup, make_group, orbit_pairings
from .kernel import delta_effective
from .polyalg import ParameterK

DEFAULT_ORDERS = (2, 3, 4, 5, 7)
# Least regularity margin of a drawn k, and largest orbit bound of a drawn pair.
MARGIN = 0.1
MAX_A = 2.0


@dataclass(frozen=True)
class Instance:
    n: int
    k: complex
    x: np.ndarray
    y: np.ndarray

    def group(self) -> DihedralGroup:
        return make_group(self.n)

    def parameter(self) -> ParameterK:
        return ParameterK(self.k, self.n)


def draw_parameter(
    rng: np.random.Generator,
    n: int,
    positive_gamma: bool = False,
    real_k: bool = False,
) -> ParameterK:
    """Draw k with regularity margin at least MARGIN."""
    while True:
        re = rng.uniform(0.05, 1.2) if positive_gamma else rng.uniform(-1.2, 1.2)
        im = 0.0 if real_k else rng.uniform(-0.6, 0.6)
        P = ParameterK(complex(re, im), n)
        if P.regularity_margin() >= MARGIN:
            return P


def draw_instance(
    rng: np.random.Generator,
    n_choices: tuple[int, ...] = DEFAULT_ORDERS,
    sigma_invariant: bool = False,
    positive_gamma: bool = False,
    real_k: bool = False,
    complex_y: bool = False,
    min_xy: float = 0.0,
    delta_a_cap: float | None = None,
) -> Instance:
    """One random instance with norms <= 2 and orbit bound <= MAX_A.

    ``min_xy`` rejects nearly orthogonal argument pairs (where relative
    comparisons of the degree-1 component degenerate); ``delta_a_cap``
    additionally rescales y so delta * a stays below the cap, keeping the
    contour quadrature inside its double-precision conditioning range.
    """
    n = n_choices[int(rng.integers(len(n_choices)))]
    P = draw_parameter(rng, n, positive_gamma=positive_gamma, real_k=real_k)
    G = make_group(n)
    while True:
        x = rng.uniform(-1.4, 1.4, size=2)
        if sigma_invariant:
            x[1] = 0.0
        if complex_y:
            y = rng.uniform(-1.0, 1.0, size=2) + 1j * rng.uniform(-1.0, 1.0, size=2)
        else:
            y = rng.uniform(-1.4, 1.4, size=2)
        orbit = orbit_pairings(G, x, y)
        if orbit.a_bound == 0.0:
            continue
        scale = MAX_A / orbit.a_bound
        if scale < 1.0:
            y = y * scale
            orbit = orbit_pairings(G, x, y)
        if delta_a_cap is not None:
            da = delta_effective(P).delta_effective * orbit.a_bound
            if da > delta_a_cap:
                y = y * (delta_a_cap / da)
                orbit = orbit_pairings(G, x, y)
        if abs(orbit.xy) < min_xy * max(orbit.a_bound, 1e-30):
            continue
        return Instance(n=n, k=P.k, x=x, y=y)
