"""Dense complex linear algebra kernel.

Hermiticity checks, the Hermitian eigendecomposition, eigenvalues of
metric stacks and unitary exponentials of Hermitian generators.  Everything
operates on plain complex numpy arrays; matrices are square.
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


def hermiticity(M):
    """(defect, bound): max |M - M^dagger| (inf on overflow) and the largest
    passing defect, HERM_TOL * max(1, max|M|), as roundoff grows with M; a
    defect within HERM_TOL passes any bound, and M is then not read again."""
    M = as_matrix(M)
    with np.errstate(over="ignore"):
        defect = float(np.max(np.abs(M - M.conj().T)))
    if defect <= HERM_TOL:
        return defect, HERM_TOL
    return defect, HERM_TOL * max(1.0, float(np.max(np.abs(M))))


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    M = as_matrix(M)
    if not np.all(np.isfinite(M)):  # a NaN defect would pass "defect > tol"
        raise NotHermitian(f"{name} has non-finite entries")
    defect, bound = hermiticity(M)
    if defect > bound:
        raise NotHermitian(f"{name} is not Hermitian (defect {defect:.3e} > {bound:.1e})")
    return M


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    pivot = V[np.argmax(np.abs(V) > 1e-8, axis=0), np.arange(V.shape[1])]
    turn = pivot != 0  # a zero column has a zero pivot and stays as it is
    V = V.copy()
    V[:, turn] *= np.abs(pivot[turn]) / pivot[turn]
    return V


def herm_eig(M, check: bool = True):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and each
    eigenvector phase-fixed so its first significant component is real
    positive, which makes repeated runs reproducible.  ``check=False`` skips
    ``require_hermitian`` for a complex matrix that has already passed it.
    """
    if check:
        M = require_hermitian(M)
    w, V = np.linalg.eigh(M)
    return w, _fix_phases(V)


def eigvalsh(g) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a (..., M, M) stack,
    NaN for a matrix with a non-finite entry: LAPACK raises on one or returns
    finite values."""
    finite = np.all(np.isfinite(g), axis=(-2, -1))[..., None]
    w = np.linalg.eigvalsh(np.where(finite[..., None], g, 0.0))
    return np.where(finite, w, np.nan)


def expm_phase_eig(w, V, t) -> np.ndarray:
    """exp(-i t A) from an eigendecomposition of A; t a scalar or a (..., 1, 1) stack."""
    return (V * np.exp(-1j * t * w)) @ V.conj().T
