import numpy as np
import pytest

from dunkl_dihedral.dihedral import OrbitPairings
from dunkl_dihedral.errors import DomainError
from dunkl_dihedral.polyalg import ParameterK, Poly2
from dunkl_dihedral.series import SeriesData, g_values


def rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def poly_rel_err(p: Poly2, q: Poly2) -> float:
    d = max(p.degree, q.degree)
    pc, qc = p.padded(d), q.padded(d)
    scale = max(np.max(np.abs(pc)), np.max(np.abs(qc)))
    return float(np.max(np.abs(pc - qc)) / scale) if scale > 0 else 0.0


def random_poly(rng: np.random.Generator, degree: int, homogeneous: bool = False) -> Poly2:
    c = rng.standard_normal((degree + 1, degree + 1)) + 1j * rng.standard_normal(
        (degree + 1, degree + 1)
    )
    if homogeneous:
        a, b = np.indices(c.shape)
        c[a + b != degree] = 0.0
    return Poly2(c)


def eval_q(S: SeriesData, z: complex) -> np.ndarray:
    """The truncated vanishing-at-zero solution Q(z) = sum_{p>=1} A[p] z^p."""
    z = complex(z)
    q = np.zeros(2, dtype=complex)
    for p in range(S.order, 0, -1):
        q = (q + S.A[p]) * z
    return q


def eval_q_prime(S: SeriesData, z: complex) -> np.ndarray:
    z = complex(z)
    q = np.zeros(2, dtype=complex)
    for p in range(S.order, 1, -1):
        q = (q + p * S.A[p]) * z
    if S.order >= 1:
        q = q + S.A[1]
    return q


def residual_check(
    P: ParameterK, orbit: OrbitPairings, S: SeriesData, z: complex
) -> float:
    """Euclidean norm of the differential-system residual of the truncated
    solution at z."""
    z = complex(z)
    if z == 0:
        raise DomainError("residual is evaluated away from the origin")
    g_val, gs_val = g_values(orbit, z)
    q = eval_q(S, z)
    qp = eval_q_prime(S, z)
    lam = (P.gamma / (2.0 * P.n)) * np.array(
        [[g_val, -gs_val], [gs_val, -g_val]], dtype=complex
    )
    rhs = np.array([g_val, gs_val], dtype=complex) + lam @ q
    rhs[1] -= (2.0 * P.gamma / z) * q[1]
    return float(np.linalg.norm(qp - rhs))




@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250809)
