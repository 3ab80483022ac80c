"""Circuit unitaries, state evolution and the analytic Fubini-Study metric.

Two independent closed-form routes are provided: one from exact state
derivatives of the ordered exponential product, one from covariances of the
conjugated circuit generators.  They must agree to roundoff.  The first is
the production kernel (``metric_batch``, batched over points); the second,
like ``evolve``/``build_unitary`` behind the finite-difference oracles, is
kept as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg, linalg
from .errors import DimensionMismatch, MissingParameter
from .liealg import LieAlgebraRep

# points per metric_batch block; bounds the (M+1, B, d) work stack on large grids
BLOCK_NODES = 128


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered factorization U = prod_j exp(-i theta_j A_j).

    factors is a sequence of (generator name, parameter name) pairs; each
    parameter drives exactly one factor.
    """

    algebra: LieAlgebraRep
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((g, p) for g, p in self.factors))
        seen = set()
        for gname, pname in self.factors:
            self.algebra.index(gname)  # raises UnknownGenerator
            if pname in seen:
                raise ValueError(f"parameter {pname!r} drives more than one factor")
            seen.add(pname)

    @property
    def parameter_names(self) -> tuple:
        return tuple(p for _g, p in self.factors)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def angles(self, point) -> np.ndarray:
        """Parameter values in factor order; raises MissingParameter."""
        try:
            vals = [float(point[p]) for p in self.parameter_names]
        except KeyError as exc:
            raise MissingParameter(f"no value for parameter {exc.args[0]!r}") from None
        if not all(np.isfinite(vals)):
            raise ValueError("parameter values must be finite")
        return np.asarray(vals)

    def factor_unitaries(self, point):
        """exp(-i theta_j A_j) for each factor, using cached eigendecompositions."""
        angles = self.angles(point)
        out = []
        for (gname, _), t in zip(self.factors, angles):
            w, V = self.algebra.generator_eig(gname)
            out.append(linalg.expm_phase_eig(w, V, t))
        return out


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric real metric at one parameter point."""

    g: np.ndarray
    gamma: float
    point: dict
    parameter_names: tuple

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", (g + g.T) / 2)
        object.__setattr__(self, "point", dict(self.point))
        object.__setattr__(self, "parameter_names", tuple(self.parameter_names))


def build_unitary(circuit: CircuitSpec, point) -> np.ndarray:
    """Ordered left-to-right product of the factor exponentials."""
    U = np.eye(circuit.dim, dtype=complex)
    for F in circuit.factor_unitaries(point):
        U = U @ F
    return U


def _initial_state(circuit: CircuitSpec, psi_i) -> np.ndarray:
    psi_i = np.asarray(psi_i, dtype=complex).ravel()
    if psi_i.shape[0] != circuit.dim:
        raise DimensionMismatch(
            f"state dim {psi_i.shape[0]} does not match circuit dim {circuit.dim}"
        )
    return psi_i


def evolve(circuit: CircuitSpec, point, psi_i) -> np.ndarray:
    return build_unitary(circuit, point) @ _initial_state(circuit, psi_i)


def _tangent_stack(circuit: CircuitSpec, angles: np.ndarray, psi_i: np.ndarray) -> np.ndarray:
    """Evolved states and their parameter derivatives for a block of points.

    Returns X of shape (M+1, B, d) with X[j] = d psi/d theta_j for j < M and
    X[M] = psi, each a row vector, so a factor F acts as X @ F.T.  The row
    index leads so that every active slab X[j:] is contiguous and each factor
    is one (k B, d) x (d, d) product.

    d/d(theta_j) U = F_1 .. F_{j-1} (-i A_j) F_j .. F_M, so the factors are
    applied right to left on the cached eigenbasis A_j = V diag(w) V^dagger:
    F_j = V diag(exp(-i theta_j w)) V^dagger, and right after F_j the row
    -i A_j psi is added, which every factor further left then carries.  This
    is the reverse-mode O(M^2) mat-vec scheme of Jones & Gacon
    (arXiv:2009.02823); no d x d product is ever formed.
    """
    m = len(circuit.factors)
    b, d = angles.shape[0], circuit.dim
    X = np.empty((m + 1, b, d), dtype=complex)
    X[m] = psi_i
    for j in range(m - 1, -1, -1):
        w, V = circuit.algebra.generator_eig(circuit.factors[j][0])
        # Y[1:] holds the active rows in the eigenbasis, Y[0] the new row
        Y = np.empty((m - j + 1, b, d), dtype=complex)
        np.matmul(X[j + 1:].reshape(-1, d), V.conj(), out=Y[1:].reshape(-1, d))
        Y[1:] *= np.exp(-1j * angles[:, j, None] * w)
        np.multiply(Y[-1], -1j * w, out=Y[0])
        np.matmul(Y.reshape(-1, d), V.T, out=X[j:].reshape(-1, d))
    return X


def state_derivatives(circuit: CircuitSpec, point, psi_i):
    """Exact partial derivatives of the evolved state, one per parameter.

    The derivative rows of the metric kernel for a batch of one point.  The
    returned vectors are tangent vectors, not normalized states.
    """
    psi_i = _initial_state(circuit, psi_i)
    X = _tangent_stack(circuit, circuit.angles(point)[None], psi_i)
    return list(X[:-1, 0])


def metric_batch(circuit: CircuitSpec, angles, psi_i, gamma: float = 1.0) -> np.ndarray:
    """Metrics (B, M, M) for a (B, M) array of angles in factor order.

    The production metric kernel: g_mn = gamma^2 Re(<psi_m|psi_n> -
    <psi_m|psi><psi|psi_n>) from the rows of ``_tangent_stack``, taken
    BLOCK_NODES points at a time so memory stays flat on large grids.
    """
    psi_i = _initial_state(circuit, psi_i)
    m = len(circuit.factors)
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != m:
        raise DimensionMismatch(f"expected a (B, {m}) array of angles, got shape {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise ValueError("parameter values must be finite")
    out = np.empty((angles.shape[0], m, m))
    for start in range(0, angles.shape[0], BLOCK_NODES):
        X = _tangent_stack(circuit, angles[start:start + BLOCK_NODES], psi_i)
        D, psi = X[:m].conj(), X[m]
        overlaps = np.einsum("mbd,nbd->bmn", D, X[:m])
        proj = np.einsum("mbd,bd->bm", D, psi)
        out[start:start + BLOCK_NODES] = (overlaps - proj[:, :, None]
                                          * proj[:, None, :].conj()).real
    return gamma**2 * out


def metric_from_derivatives(psi, derivs, gamma: float = 1.0,
                            point=None, parameter_names=None) -> MetricTensor:
    """g_mn = gamma^2 Re(<psi_m|psi_n> - <psi_m|psi><psi|psi_n>).

    Gauge-invariant: a global phase on psi (with derivatives adjusted
    accordingly) leaves the result unchanged.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    D = np.stack([np.asarray(d, dtype=complex).ravel() for d in derivs], axis=1)
    if D.shape[0] != psi.shape[0]:
        raise DimensionMismatch("derivative vectors do not match the state dimension")
    overlaps = D.conj().T @ D
    proj = D.conj().T @ psi
    g = gamma**2 * (overlaps - np.outer(proj, proj.conj())).real
    m = D.shape[1]
    if parameter_names is None:
        parameter_names = tuple(f"p{k + 1}" for k in range(m))
    return MetricTensor(g, gamma, dict(point or {}), parameter_names)


def metric_from_tilde(circuit: CircuitSpec, point, psi_i,
                      gamma: float = 1.0) -> MetricTensor:
    """g_ij = (gamma^2/2) <{Delta A~_i, Delta A~_j}> in the initial state.

    A~_j are the conjugated circuit generators and Delta subtracts the
    expectation value.  Equals metric_from_derivatives to roundoff.
    """
    vectors = local_basis_vectors(circuit, point, psi_i, gamma)
    W = np.stack(vectors, axis=1)
    g = (W.conj().T @ W).real
    return MetricTensor(g, gamma, dict(point), circuit.parameter_names)


def local_basis_vectors(circuit: CircuitSpec, point, psi_i, gamma: float = 1.0):
    """gamma * Delta A~_j |psi_i> per parameter; their real Gram matrix is the metric."""
    psi_i = _initial_state(circuit, psi_i)
    tildes = liealg.tilde_by_conjugation(circuit.algebra, circuit, point)
    out = []
    for T in tildes:
        mean = linalg.expectation(psi_i, T).real
        out.append(gamma * (T @ psi_i - mean * psi_i))
    return out
