"""Dense complex linear algebra kernel.

Hermitian eigendecomposition, unitary exponentials of Hermitian generators,
commutators and expectation values.  Everything operates on plain complex
numpy arrays; matrices are square, states are 1-D and normalized.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERM_TOL = 1e-10
UNITARY_TOL = 1e-12


def as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def hermiticity_defect(M) -> float:
    """max |M - M^dagger| over entries."""
    M = as_matrix(M)
    return float(np.max(np.abs(M - M.conj().T)))


def unitarity_defect(U) -> float:
    """max |U^dagger U - I| over entries."""
    U = as_matrix(U)
    return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))


def require_hermitian(M, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    M = as_matrix(M)
    defect = hermiticity_defect(M)
    if defect > tol:
        raise NotHermitian(f"{name} is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return M


def require_same_dim(A, B) -> tuple[np.ndarray, np.ndarray]:
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return A, B


def state_vector(amplitudes) -> np.ndarray:
    """Normalize a complex amplitude vector into a state."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise DimensionMismatch("cannot normalize the zero vector")
    return psi / norm


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        idx = np.argmax(np.abs(col) > 1e-8)
        pivot = col[idx]
        if pivot != 0:
            V[:, k] = col * (abs(pivot) / pivot)
    return V


def herm_eig(M, tol: float = HERM_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and each
    eigenvector phase-fixed so its first significant component is real
    positive, which makes repeated runs reproducible.
    """
    M = require_hermitian(M, tol)
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
