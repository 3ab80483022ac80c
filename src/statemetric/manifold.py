"""Circuit unitaries, state evolution and the analytic Fubini-Study metric.

Two independent closed-form routes: exact state derivatives of the ordered
exponential product, and covariances of the conjugated circuit generators;
they agree to roundoff.  The first is the production kernel (``metric_batch``;
taken to order 3, ``metric_jets`` adds the metric's derivatives); the second
(``tilde_metric_batch``), like ``evolve_batch`` behind the finite-difference
oracles, is kept as an independent check.  Each takes a (B, M) array of
angles; the point forms are batches of one.
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
        """Parameter values in factor order; raises MissingParameter."""
        try:
            vals = [float(point[p]) for p in self.parameter_names]
        except KeyError as exc:
            raise MissingParameter(f"no value for parameter {exc.args[0]!r}") from None
        if not all(np.isfinite(vals)):
            raise NonFiniteAngle("parameter values must be finite")
        return np.asarray(vals)

    def angle_batch(self, angles) -> np.ndarray:
        """A (B, M) array of finite angles in factor order, as a float array."""
        m = len(self.factors)
        angles = np.asarray(angles, dtype=float)
        if angles.ndim != 2 or angles.shape[1] != m:
            raise DimensionMismatch(
                f"expected a (B, {m}) array of angles, got shape {angles.shape}")
        if not np.all(np.isfinite(angles)):
            raise NonFiniteAngle("parameter values must be finite")
        return angles


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric real metric at one parameter point."""

    g: np.ndarray
    gamma: float
    point: dict
    parameter_names: tuple

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", (g + g.T) / 2)
        object.__setattr__(self, "point", dict(self.point))
        object.__setattr__(self, "parameter_names", tuple(self.parameter_names))


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


def evolve(circuit: CircuitSpec, point, psi_i) -> np.ndarray:
    """The evolved state at one point: ``evolve_batch`` for a batch of one."""
    return evolve_batch(circuit, circuit.angles(point)[None], psi_i)[0]


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
        D, psi = X[:m].conj(), X[m]
        overlaps = np.einsum("mbd,nbd->bmn", D, X[:m])
        proj = np.einsum("mbd,bd->bm", D, psi)
        return (overlaps - proj[:, :, None] * proj[:, None, :].conj()).real

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


def _tilde_vectors(circuit: CircuitSpec, angles, psi_i, gamma: float) -> np.ndarray:
    """The local basis vectors gamma * Delta A~_j |psi_i> as a (B, M, d) stack
    for (B, M) angles; their real Gram matrix is the metric."""
    psi_i = _initial_state(circuit, psi_i)
    tildes = liealg.tilde_by_conjugation(circuit.algebra, circuit, angles)
    T_psi = np.einsum("bmij,j->bmi", tildes, psi_i)
    mean = np.einsum("d,bmd->bm", psi_i.conj(), T_psi).real
    return gamma * (T_psi - mean[..., None] * psi_i)


def tilde_metric_batch(circuit: CircuitSpec, angles, psi_i,
                       gamma: float = 1.0) -> np.ndarray:
    """g_ij = (gamma^2/2) <{Delta A~_i, Delta A~_j}> in the initial state, as
    (B, M, M) for a (B, M) array of angles in factor order.

    A~_j are the conjugated circuit generators and Delta subtracts the
    expectation value.  Equals ``metric_batch`` to roundoff.
    """
    W = _tilde_vectors(circuit, angles, psi_i, gamma)
    return np.einsum("bmd,bnd->bmn", W.conj(), W).real

