"""Dense complex linear algebra kernel.

Hermitian eigendecomposition, unitary exponentials of Hermitian generators,
commutators and expectation values.  Everything operates on plain complex
numpy arrays; matrices are square, states are 1-D and normalized.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERM_TOL = 1e-10


def as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def hermiticity_defect(M) -> float:
    """max |M - M^dagger| over entries (inf if the difference overflows)."""
    M = as_matrix(M)
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(M - M.conj().T)))


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    M = as_matrix(M)
    if not np.all(np.isfinite(M)):  # a NaN defect would pass "defect > tol"
        raise NotHermitian(f"{name} has non-finite entries")
    defect = hermiticity_defect(M)
    if defect > HERM_TOL:
        raise NotHermitian(f"{name} is not Hermitian (defect {defect:.3e} > {HERM_TOL:.1e})")
    return M


def require_same_dim(A, B) -> tuple[np.ndarray, np.ndarray]:
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return A, B


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    pivot = V[np.argmax(np.abs(V) > 1e-8, axis=0), np.arange(V.shape[1])]
    turn = pivot != 0  # a zero column has a zero pivot and stays as it is
    V = V.copy()
    V[:, turn] *= np.abs(pivot[turn]) / pivot[turn]
    return V


def herm_eig(M):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and each
    eigenvector phase-fixed so its first significant component is real
    positive, which makes repeated runs reproducible.
    """
    M = require_hermitian(M)
    w, V = np.linalg.eigh(M)
    return w, _fix_phases(V)


def expm_phase_eig(w, V, t: float) -> np.ndarray:
    """exp(-i t A) from a precomputed eigendecomposition of A."""
    return (V * np.exp(-1j * t * w)) @ V.conj().T


def commutator(A, B) -> np.ndarray:
    A, B = require_same_dim(A, B)
    return A @ B - B @ A


def anticommutator(A, B) -> np.ndarray:
    A, B = require_same_dim(A, B)
    return A @ B + B @ A


def expectation(psi, M) -> complex:
    """<psi|M|psi> for a normalized state psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    M = as_matrix(M)
    if M.shape[0] != psi.shape[0]:
        raise DimensionMismatch(
            f"state dim {psi.shape[0]} does not match matrix dim {M.shape[0]}"
        )
    return complex(np.vdot(psi, M @ psi))
