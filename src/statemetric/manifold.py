"""Circuit unitaries, state evolution and the analytic Fubini-Study metric.

Two independent closed-form routes: exact state derivatives of the ordered
exponential product, and, for a closed algebra, gamma^2 Re(C^* K C^T) from
the adjoint coefficients C of the conjugated generators and the generators'
covariance K; they agree to roundoff.  The first is the production kernel
(``metric_batch``; ``metric_jets`` adds the metric's derivatives); the second
(``tilde_metric_batch``), like the finite-difference oracles, is a check.
Each takes a (B, M) array of angles; a point is a batch of one.  The one
point form, ``build_unitary``, forms the whole unitary for the Euler-angle
bridge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import liealg, linalg
from .errors import DimensionMismatch, DuplicateParameter, MissingParameter, NonFiniteAngle
from .liealg import LieAlgebraRep

# points per block of metric_batch and the oracles; bounds their work stacks
# on large grids
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
        for k, (gname, pname) in enumerate(self.factors):
            self.algebra.index(gname)  # raises UnknownGenerator
            if pname in seen:
                raise DuplicateParameter(
                    f"parameter {pname!r} drives more than one factor", factor=k)
            seen.add(pname)

    @property
    def parameter_names(self) -> tuple:
        return tuple(p for _g, p in self.factors)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def angles(self, point) -> np.ndarray:
        """Parameter values in factor order; raises MissingParameter, and
        NonFiniteAngle as ``angle_batch`` does."""
        try:
            vals = [float(point[p]) for p in self.parameter_names]
        except KeyError as exc:
            raise MissingParameter(f"no value for parameter {exc.args[0]!r}") from None
        return self.angle_batch([vals])[0]

    @functools.cached_property
    def _spectral_radii(self) -> np.ndarray:
        """max |w| over the eigenvalues w of each factor's generator."""
        return np.array([np.max(np.abs(self.algebra.generator_eig(g)[0]))
                         for g, _p in self.factors])

    def angle_batch(self, angles) -> np.ndarray:
        """A (B, M) array of angles in factor order, as a float array; raises
        NonFiniteAngle, naming the parameter, unless every phase theta * w of
        every factor is finite (so a finite angle can still be refused)."""
        m = len(self.factors)
        angles = np.asarray(angles, dtype=float)
        if angles.ndim != 2 or angles.shape[1] != m:
            raise DimensionMismatch(
                f"expected a (B, {m}) array of angles, got shape {angles.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(angles * self._spectral_radii)
        if not finite.all():
            b, j = np.argwhere(~finite)[0]
            raise NonFiniteAngle(f"parameter {self.factors[j][1]!r}: angle "
                                 f"{angles[b, j].item()!r} gives a phase theta * w that "
                                 "is not finite")
        return angles


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric real metric at one parameter point."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", (g + g.T) / 2)


def build_unitary(circuit: CircuitSpec, point) -> np.ndarray:
    """Ordered left-to-right product of the factor exponentials."""
    U = np.eye(circuit.dim, dtype=complex)
    for (gname, _), t in zip(circuit.factors, circuit.angles(point)):
        U = U @ linalg.expm_phase_eig(*circuit.algebra.generator_eig(gname), t)
    return U


def _initial_state(circuit: CircuitSpec, psi_i) -> np.ndarray:
    psi_i = np.asarray(psi_i, dtype=complex).ravel()
    if psi_i.shape[0] != circuit.dim:
        raise DimensionMismatch(
            f"state dim {psi_i.shape[0]} does not match circuit dim {circuit.dim}"
        )
    return psi_i


def evolve_batch(circuit: CircuitSpec, angles, psi_i) -> np.ndarray:
    """Evolved states (B, d) for a (B, M) array of angles in factor order.

    The factors act right to left as mat-vecs on the cached eigenbases,
    F = V diag(exp(-i theta w)) V^dagger, each on all B states at once; no
    d x d unitary is formed.
    """
    angles = circuit.angle_batch(angles)
    X = np.broadcast_to(_initial_state(circuit, psi_i), (angles.shape[0], circuit.dim))
    for j in range(len(circuit.factors) - 1, -1, -1):
        w, V = circuit.algebra.generator_eig(circuit.factors[j][0])
        X = ((X @ V.conj()) * np.exp(-1j * angles[:, j, None] * w)) @ V.T
    return X


@functools.cache
def _jet_plan(m: int, order: int):
    """Row bookkeeping of an order-``order`` ``_tangent_stack`` on m factors.

    spawns[j] = (src, power): right after factor j, carried row src (counted
    from the top of the carried slab) spawns (-i A_j)^power times itself.
    up[a, r] is the row of d/d theta_a of row r (0 for rows of top order).
    """
    rows, spawns = [(0,) * m], [None] * m
    for j in range(m - 1, -1, -1):
        born = [(r, p) for r, alpha in enumerate(rows)
                for p in range(1, order - sum(alpha) + 1)]
        spawns[j] = np.array(born).T
        rows = [rows[r][:j] + (p,) + rows[r][j + 1:] for r, p in born] + rows
    index = {alpha: r for r, alpha in enumerate(rows)}
    up = np.array([[index.get(alpha[:a] + (alpha[a] + 1,) + alpha[a + 1:], 0)
                    for alpha in rows] for a in range(m)])
    return spawns, up


def _tangent_stack(circuit: CircuitSpec, angles: np.ndarray, psi_i: np.ndarray,
                   order: int = 1) -> np.ndarray:
    """Evolved states and their parameter derivatives for a block of points.

    Returns X of shape (R, B, d), one row d^alpha psi per multi-index
    |alpha| <= order (R = 20 at M = 3, order 3), psi last; at order 1,
    X[j] = d psi/d theta_j.  Rows are row vectors, so a factor F acts as
    X @ F.T: two (k B, d) x (d, d) products per factor, for k rows.

    d^p/d theta_j^p F_j = (-i A_j)^p F_j, so the factors are applied right
    to left on the cached eigenbasis A_j = V diag(w) V^dagger, and right
    after F_j each carried row of order o < order spawns (-i A_j)^p row for
    p = 1 .. order - o, in front of the carried rows.  At order 1 this is the
    reverse-mode O(M^2) mat-vec scheme of Jones & Gacon (arXiv:2009.02823);
    no d x d product is formed.
    """
    spawns, _ = _jet_plan(len(circuit.factors), order)
    d = circuit.dim
    X = np.broadcast_to(psi_i, (1, angles.shape[0], d))
    for j in range(len(circuit.factors) - 1, -1, -1):
        w, V = circuit.algebra.generator_eig(circuit.factors[j][0])
        src, power = spawns[j]
        # carried rows in the eigenbasis, with the rows they spawn in front
        Y = (X.reshape(-1, d) @ V.conj()).reshape(X.shape)
        Y *= np.exp(-1j * angles[:, j, None] * w)
        Y = np.concatenate([Y[src] * (-1j * w) ** power[:, None, None], Y])
        X = (Y.reshape(-1, d) @ V.T).reshape(Y.shape)
    return X


def _by_block(block_fn, circuit: CircuitSpec, angles) -> np.ndarray:
    """Metrics (B, M, M) from ``block_fn`` on BLOCK_NODES points at a time, so
    the work stacks stay bounded on large batches."""
    angles = circuit.angle_batch(angles)
    m = len(circuit.factors)
    out = np.empty((angles.shape[0], m, m))
    for start in range(0, angles.shape[0], BLOCK_NODES):
        out[start:start + BLOCK_NODES] = block_fn(angles[start:start + BLOCK_NODES])
    return out


def metric_batch(circuit: CircuitSpec, angles, psi_i, gamma: float = 1.0) -> np.ndarray:
    """Metrics (B, M, M) for a (B, M) array of angles in factor order.

    The production metric kernel: g_mn = gamma^2 Re(<psi_m|psi_n> -
    <psi_m|psi><psi|psi_n>) from the rows of ``_tangent_stack``, taken
    BLOCK_NODES points at a time so memory stays flat on large grids.
    """
    psi_i = _initial_state(circuit, psi_i)
    m = len(circuit.factors)

    def block(a):
        X = _tangent_stack(circuit, a, psi_i)
        return projector_metric(X[m], X[:m].swapaxes(0, 1))

    return gamma**2 * _by_block(block, circuit, angles)


def metric_jets(circuit: CircuitSpec, angles, psi_i, gamma: float = 1.0):
    """Metrics g (B, M, M) at a (B, M) array of angles in factor order and
    their exact derivatives dg[b, m, n, a] = d_a g_mn, d2g[b, m, n, a, c] =
    d_a d_c g_mn, for a handful of points (unblocked).  g_mn = gamma^2
    Re(G[m, n] - G[m, psi] G[psi, n]) on the Gram matrix G of the order-3
    rows of ``_tangent_stack``; d_a G[r, t] = G[d_a r, t] + G[r, d_a t].
    """
    psi_i = _initial_state(circuit, psi_i)
    m = len(circuit.factors)
    X = _tangent_stack(circuit, circuit.angle_batch(angles), psi_i, order=3)
    G = np.einsum("rbd,sbd->brs", X.conj(), X)
    up = _jet_plan(m, 3)[1]
    s = np.append(up[:, -1], len(X) - 1)  # rows of d_0 psi .. d_{m-1} psi, psi
    u = up[:, s].T  # u[t, a]: row of d_a (slot t)
    uu = up[:, u].transpose(1, 2, 0)  # uu[t, a, c]: row of d_c d_a (slot t)
    # J[0], J[1][..., a], J[2][..., a, c]: G[slot t, slot t'], d_a of it, d_c d_a of it
    J = [G[:, s[:, None], s],
         G[:, u[:, None], s[:, None]] + G[:, s[:, None, None], u],
         G[:, uu[:, None], s[:, None, None]] + G[:, u[:, None, :, None], u[:, None]]
         + G[:, u[:, None, None], u[:, :, None]] + G[:, s[:, None, None, None], uu]]
    A, P = [j[:, :m, :m] for j in J], [j[:, :m, m] for j in J]
    Q = [p.conj() for p in P]  # G[psi, n] = conj G[n, psi]
    g = A[0] - np.einsum("bm,bn->bmn", P[0], Q[0])
    dg = (A[1] - np.einsum("bma,bn->bmna", P[1], Q[0])
          - np.einsum("bm,bna->bmna", P[0], Q[1]))
    cross = np.einsum("bma,bnc->bmnac", P[1], Q[1])
    d2g = (A[2] - np.einsum("bmac,bn->bmnac", P[2], Q[0]) - cross - cross.swapaxes(-1, -2)
           - np.einsum("bm,bnac->bmnac", P[0], Q[2]))
    return tuple(gamma**2 * x.real for x in (g, dg, d2g))


def projector_metric(psi, derivs, gamma: float = 1.0) -> np.ndarray:
    """g_mn = gamma^2 Re(<psi_m|psi_n> - <psi_m|psi><psi|psi_n>) for a stack
    of states psi (..., d) and their derivatives (..., M, d).

    Gauge-invariant: a global phase on psi (with derivatives adjusted
    accordingly) leaves the result unchanged.
    """
    proj = np.einsum("...md,...d->...m", derivs.conj(), psi)
    g = (np.einsum("...md,...nd->...mn", derivs.conj(), derivs)
         - proj[..., :, None] * proj[..., None, :].conj()).real
    return gamma**2 * g


def tilde_metric_batch(circuit: CircuitSpec, angles, psi_i,
                       gamma: float = 1.0) -> np.ndarray:
    """g = gamma^2 Re(C^* K C^T), (B, M, M) for a (B, M) array of angles in
    factor order: row j of C (``liealg.tilde_coefficients``) expands A~_j over
    the algebra, and K_kl = <Delta A_k psi_i|Delta A_l psi_i> is the generators'
    covariance in the initial state (Delta subtracts the mean).  Forms no
    d x d matrix; raises NotClosed for an open algebra.
    """
    psi_i = _initial_state(circuit, psi_i)
    C = liealg.tilde_coefficients(circuit.algebra, circuit, angles)
    A_psi = np.stack([G @ psi_i for G in circuit.algebra.generators])
    dA_psi = A_psi - (A_psi @ psi_i.conj()).real[:, None] * psi_i
    K = dA_psi.conj() @ dA_psi.T
    return gamma**2 * np.einsum("bmk,kl,bnl->bmn", C.conj(), K, C).real
