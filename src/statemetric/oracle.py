"""Independent finite-difference ground truth for the metric.

Two oracles: central differences of the state fed through the projector
formula, and a fidelity-based quadratic form that never sees phases at all.
Both know nothing about tilde operators or structure constants.  Each takes
a (B, M) array of angles and evolves the shifted points of each block (up to
``manifold.BLOCK_ENTRIES`` state entries) as one array in one ``evolve_batch`` call.
``fd_metric`` is the one point form, a batch of one; no module of the package
calls it, and ``perfbench/workloads.py`` reads it.
"""

from __future__ import annotations

import numpy as np

from .errors import StepOutOfRange
from .manifold import CircuitSpec, MetricTensor, _by_block, evolve_batch, projector_metric

STEP_MIN = 1e-6
STEP_MAX = 1e-2
DEFAULT_STEP = 1e-4


def _check_step(h: float) -> float:
    h = float(h)
    if not (STEP_MIN <= h <= STEP_MAX):
        raise StepOutOfRange(f"step {h:g} outside [{STEP_MIN:g}, {STEP_MAX:g}]")
    return h


def _evolve_shifted(circuit: CircuitSpec, angles, offsets, psi_i) -> np.ndarray:
    """States (B, K, d) at angles + each of the K rows of ``offsets`` (K, M)."""
    shifted = angles[:, None, :] + offsets
    psi = evolve_batch(circuit, shifted.reshape(-1, angles.shape[1]), psi_i)
    return psi.reshape(shifted.shape[:-1] + psi.shape[-1:])


def fd_metric_batch(circuit: CircuitSpec, angles, psi_i, gamma: float = 1.0,
                    h: float = DEFAULT_STEP) -> np.ndarray:
    """Metrics (B, M, M) from O(h^2) central differences of the evolved state."""
    h = _check_step(h)
    m = len(circuit.factors)
    steps = h * np.eye(m)
    offsets = np.concatenate([np.zeros((1, m)), steps, -steps])

    def block(a):
        psi = _evolve_shifted(circuit, a, offsets, psi_i)
        derivs = (psi[:, 1:m + 1] - psi[:, m + 1:]) / (2 * h)
        return projector_metric(psi[:, 0], derivs, gamma)

    return _by_block(block, circuit, angles, len(offsets) * circuit.dim)


def fd_metric(circuit: CircuitSpec, point, psi_i, gamma: float = 1.0,
              h: float = DEFAULT_STEP) -> MetricTensor:
    """``fd_metric_batch`` at one point."""
    angles = circuit.angles(point)[None]
    return MetricTensor(fd_metric_batch(circuit, angles, psi_i, gamma, h)[0])


def fidelity_metric_batch(circuit: CircuitSpec, angles, psi_i, gamma: float = 1.0,
                          h: float = DEFAULT_STEP) -> np.ndarray:
    """Metrics (B, M, M) from state overlaps only; exactly phase-insensitive.

    Quadratic form along a direction v:
        q(v) = gamma^2 (1 - |<psi(x - h v)|psi(x + h v)>|^2) / (4 h^2),
    symmetric about the point so the error is O(h^2).  Off-diagonals via the
    polarization identity q(e_m + e_n) - q(e_m) - q(e_n) over 2.
    """
    h = _check_step(h)
    m = len(circuit.factors)
    eye = np.eye(m)
    upper = np.triu_indices(m, 1)
    steps = h * np.concatenate([eye, eye[upper[0]] + eye[upper[1]]])
    offsets = np.concatenate([steps, -steps])
    k = len(steps)

    def block(a):
        psi = _evolve_shifted(circuit, a, offsets, psi_i)
        overlap = np.einsum("bkd,bkd->bk", psi[:, k:].conj(), psi[:, :k])
        q = gamma**2 * (1.0 - np.abs(overlap) ** 2) / (4 * h * h)
        diag = q[:, :m]
        g = np.zeros((len(q), m, m))
        g[:, np.arange(m), np.arange(m)] = diag
        mixed = (q[:, m:] - diag[:, upper[0]] - diag[:, upper[1]]) / 2
        g[:, upper[0], upper[1]] = g[:, upper[1], upper[0]] = mixed
        return g

    return _by_block(block, circuit, angles, len(offsets) * circuit.dim)


