"""Dense complex linear algebra kernel.

Hermiticity checks, the Hermitian eigendecomposition, eigenvalues of
metric stacks and unitary exponentials of Hermitian generators.  Everything
operates on plain complex numpy arrays; matrices are square.

``herm_eig`` picks one of three routes from the lower triangle of its
matrix, the only part ``np.linalg.eigh`` reads: a diagonal matrix (spin
S_z) is sorted, a tridiagonal one with a zero diagonal (the ladder
operators S_x, S_y, x and p) takes the SVD of a half-size real block, and
any other takes a complex ``eigh``.
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
    size = np.abs(pivot)
    turn = size > 0  # a zero column has a zero pivot and stays as it is
    unit = np.divide(size, pivot, out=np.ones_like(pivot), where=turn)
    return np.multiply(V, unit, out=V.copy(), where=turn)


def herm_eig(M, check: bool = True):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and each
    eigenvector phase-fixed so its first significant component is real
    positive, which makes repeated runs reproducible.  ``check=False`` skips
    ``require_hermitian`` for a complex matrix that has already passed it.

    The route is chosen from the lower triangle alone, the part that
    ``np.linalg.eigh`` reads: a diagonal matrix takes its stably sorted real
    diagonal and the identity's columns in that order, a tridiagonal one
    with a zero diagonal takes the SVD of its half-size even-odd block
    (``_ladder_eig``), and any other takes a complex ``eigh``.
    """
    if check:
        M = require_hermitian(M)
    diag, sub = M.diagonal().real, M.diagonal(-1)
    below = np.count_nonzero(np.tril(M, -1))
    if below == 0:  # the identity's columns are phase-fixed already
        order = np.argsort(diag, kind="stable")
        return diag[order], np.eye(len(diag), dtype=complex)[:, order]
    if below == np.count_nonzero(sub) and not diag.any():
        w, V = _ladder_eig(sub)
    else:
        w, V = np.linalg.eigh(M)
    return w, _fix_phases(V)


def _ladder_eig(sub):
    """Eigenpairs of the Hermitian tridiagonal matrix with a zero diagonal and
    subdiagonal ``sub``, ascending.

    It is D T D^dagger, with T real (|sub| off the diagonal) and D the unit
    phases chained along ``sub``.  T couples even sites only to odd ones, so
    the SVD B = U S W^T of its even-odd block gives every eigenpair
    (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205, 1965): -s and +s with
    (u, -+w) / sqrt(2), and 0 with (u, 0) for each left singular vector past
    the last column (one when the dimension is odd).
    """
    d = len(sub) + 1
    n = d // 2
    mag = np.abs(sub)
    phase = np.ones(d, dtype=complex)  # a zero entry passes the phase on unchanged
    np.cumprod(np.divide(sub, mag, out=np.ones_like(sub), where=mag > 0), out=phase[1:])
    B = np.zeros((d - n, n))  # even sites by odd sites
    np.fill_diagonal(B, mag[0::2])  # sub[2i] couples sites 2i and 2i + 1
    np.fill_diagonal(B[1:], mag[1::2])  # sub[2i + 1] couples sites 2i + 2 and 2i + 1
    U, s, Wt = np.linalg.svd(B)
    u, v = U[:, :n] * 0.5**0.5, Wt.T * 0.5**0.5
    V = np.zeros((d, d), dtype=complex)
    V[0::2] = np.hstack([u, U[:, n:], u[:, ::-1]])  # -s (s descends), 0, +s
    V[1::2, :n], V[1::2, d - n:] = -v, v[:, ::-1]
    V *= phase[:, None]
    w = np.zeros(d)
    w[:n], w[d - n:] = -s, s[::-1]
    return w, V


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
