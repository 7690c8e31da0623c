"""Dihedral group geometry: group elements as 2x2 matrices, bilinear
pairings, orbit pairing data and the orbit growth bound.

The plane is identified with the complex numbers, z = x1 + i*x2.  The group
of order 2n consists of the rotations z -> z*w^(2j) and the reflections
z -> conj(z)*w^(2j) with w = exp(i*pi/n).  An element is its real 2x2
matrix, rotation_matrix(n, j) or reflection_matrix(n, j), and acts on a
point with complex coordinates by the matrix product (the bilinear extension
used everywhere in this package: no complex conjugation in pairings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError

PlanePoint = Union[Sequence, np.ndarray]


def _as_point(x: PlanePoint) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (2,):
        raise DomainError(f"plane point must have exactly 2 components, got shape {arr.shape}")
    if arr.dtype.kind != "c":
        arr = arr.astype(float)
        finite = np.all(np.isfinite(arr))
    else:
        finite = np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))
    if not finite:
        raise DomainError("plane point components must be finite")
    return arr


@dataclass(frozen=True)
class DihedralGroup:
    n: int
    positive_roots: tuple[tuple[float, float], ...]


def make_group(n: int) -> DihedralGroup:
    """Build the order-2n dihedral symmetry data.

    Positive roots are the unit vectors (-sin(j*pi/n), cos(j*pi/n)),
    j = 0..n-1; root j is orthogonal to the mirror line of reflection j.
    """
    if n < 2:
        raise DomainError("dihedral order must be ≥ 2")
    roots = tuple(
        (-math.sin(j * math.pi / n), math.cos(j * math.pi / n)) for j in range(n)
    )
    return DihedralGroup(n=n, positive_roots=roots)


def rotation_matrix(n: int, j: int) -> np.ndarray:
    """Matrix of the rotation by 2*pi*j/n, recomputed from exact angles."""
    t = 2.0 * math.pi * (j % n) / n
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def reflection_matrix(n: int, j: int) -> np.ndarray:
    """Matrix of r^j*sigma, i.e. z -> conj(z)*exp(2i*pi*j/n)."""
    t = 2.0 * math.pi * (j % n) / n
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [s, -c]])


def pairing(x: PlanePoint, y: PlanePoint) -> complex:
    """Bilinear pairing x1*y1 + x2*y2 -- no complex conjugation."""
    xa = _as_point(x).astype(complex)
    ya = _as_point(y).astype(complex)
    return complex(xa[0] * ya[0] + xa[1] * ya[1])


@dataclass(frozen=True)
class OrbitPairings:
    """All 2n orbit pairings of a fixed argument pair.

    ``rot_pairings[j]`` is the pairing of r^j x with y, ``refl_pairings[j]``
    that of r^j sigma x with y.  ``a_bound`` is the maximum modulus over the
    whole orbit; it governs every radius of convergence downstream and may be
    zero (callers must branch on that rather than divide).
    """

    rot_pairings: np.ndarray
    refl_pairings: np.ndarray
    a_bound: float
    big_diag: np.ndarray  # rot_pairings followed by refl_pairings, length 2n

    @property
    def n(self) -> int:
        return len(self.rot_pairings)

    @property
    def xy(self) -> complex:
        """The plain pairing of x with y (the j = 0 rotation entry)."""
        return complex(self.rot_pairings[0])


def orbit_pairings(G: DihedralGroup, x: PlanePoint, y: PlanePoint) -> OrbitPairings:
    xa = _as_point(x)
    ya = _as_point(y).astype(complex)
    rot = np.array([(rotation_matrix(G.n, j) @ xa) @ ya for j in range(G.n)])
    refl = np.array([(reflection_matrix(G.n, j) @ xa) @ ya for j in range(G.n)])
    big = np.concatenate([rot, refl])
    return OrbitPairings(
        rot_pairings=rot,
        refl_pairings=refl,
        a_bound=float(np.max(np.abs(big))),
        big_diag=big,
    )


def is_sigma_invariant(orbit: OrbitPairings) -> bool:
    """True when the rotation and reflection pairings agree as multisets,
    within 1e-12 times max(1, a).

    This is the operational test that x or y lies on the base mirror axis;
    the closed product forms are valid exactly in that case.
    """
    scale = max(1.0, orbit.a_bound)
    order = lambda v: v[np.lexsort((v.imag, v.real))]
    return bool(
        np.allclose(
            order(orbit.rot_pairings),
            order(orbit.refl_pairings),
            rtol=0.0,
            atol=1e-12 * scale,
        )
    )
