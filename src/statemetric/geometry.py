"""Metric fields, curvature diagnostics and manifold classification.

Curvature is obtained by finite differences of the analytically computed
metric (generators are arbitrary user matrices, so symbolic derivatives are
unavailable): Gaussian curvature of 2-parameter sections via the Brioschi
formula, scalar curvature of full-rank 3-parameter metrics via Christoffel
symbols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSection,
    EmptyGrid,
    InsufficientGrid,
    MissingParameter,
)
from .manifold import MetricTensor, metric_batch
from .models import Model

CURVATURE_STEP = 1e-3
RANK_TOL = 1e-10
FLAT_K_TOL = 1e-5
FLAT_GRID_TOL = 1e-8
SPHERE_K_VARIATION = 1e-4


def metric_stack(model: Model, angles, gamma: float | None = None) -> np.ndarray:
    """Symmetric analytic metrics (B, M, M) at a (B, M) array of angles in
    circuit-parameter order, from one kernel call."""
    g = metric_batch(model.circuit, angles, model.initial_state,
                     model.gamma if gamma is None else gamma)
    return (g + g.swapaxes(-1, -2)) / 2


def metric_at(model: Model, point, gamma: float | None = None) -> MetricTensor:
    """Analytic metric of a model at one parameter point (derivative path)."""
    g = model.gamma if gamma is None else gamma
    angles = model.circuit.angles(point)[None]
    return MetricTensor(metric_stack(model, angles, g)[0], g, point,
                        model.circuit.parameter_names)


@dataclass(frozen=True)
class GridSpec:
    """Swept parameter ranges (name -> (min, max, count)) plus fixed values."""

    sweeps: dict
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sweeps", dict(self.sweeps))
        object.__setattr__(self, "fixed", dict(self.fixed))
        if not self.sweeps:
            raise EmptyGrid("at least one swept parameter is required")
        for name, (lo, hi, count) in self.sweeps.items():
            if int(count) < 1:
                raise EmptyGrid(f"sweep {name!r} has count {count}")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise EmptyGrid(f"sweep {name!r} has non-finite bounds")

    def angles(self, parameter_names) -> np.ndarray:
        """Node angles (N, M) with one column per parameter, in the given order.

        Nodes are row-major over the sweeps in declaration order (the last
        sweep varies fastest); fixed values are broadcast.  Raises
        MissingParameter if a swept name is not a parameter or a parameter is
        neither swept nor fixed.
        """
        names = tuple(parameter_names)
        unknown = [n for n in self.sweeps if n not in names]
        if unknown:
            raise MissingParameter(f"swept {unknown} are not circuit parameters {list(names)}")
        missing = [p for p in names if p not in self.sweeps and p not in self.fixed]
        if missing:
            raise MissingParameter(f"parameters {missing} are neither swept nor fixed")
        axes = [np.linspace(lo, hi, int(count)) for lo, hi, count in self.sweeps.values()]
        mesh = dict(zip(self.sweeps, np.meshgrid(*axes, indexing="ij")))
        out = np.empty((next(iter(mesh.values())).size, len(names)))
        for k, p in enumerate(names):
            out[:, k] = mesh[p].ravel() if p in mesh else self.fixed[p]
        return out


@dataclass(frozen=True)
class MetricField:
    """Metrics over a parameter grid: ``angles`` (N, M) and ``g`` (N, M, M),
    columns in circuit-parameter order, nodes in ``GridSpec.angles`` order."""

    grid: GridSpec
    angles: np.ndarray
    g: np.ndarray
    model: Model
    gamma: float


def metric_field(model: Model, grid: GridSpec, gamma: float | None = None) -> MetricField:
    g = model.gamma if gamma is None else gamma
    angles = grid.angles(model.circuit.parameter_names)
    return MetricField(grid, angles, metric_stack(model, angles, g), model, g)


def _above_cutoff(w: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Which eigenvalues (ascending along the last axis) count towards the rank."""
    return w > tol * np.fmax(1.0, w[..., -1:])


def rank_analysis(metric: MetricTensor, tol: float = RANK_TOL):
    """(rank, null_directions) via eigendecomposition of the symmetric metric."""
    w, V = np.linalg.eigh(metric.g)
    keep = _above_cutoff(w, tol)
    return int(np.count_nonzero(keep)), V[:, ~keep]


def _stencil_metrics(model: Model, nodes: np.ndarray, gamma) -> np.ndarray:
    """Metrics at a stack of stencil nodes (..., M), all in one kernel call."""
    m = nodes.shape[-1]
    g = metric_batch(model.circuit, nodes.reshape(-1, m), model.initial_state, gamma)
    return g.reshape(nodes.shape[:-1] + (m, m))


def gauss_curvature_from_fn(metric_fn, u: float, v: float,
                            step: float = CURVATURE_STEP) -> float:
    """Brioschi formula with second-order central differences of E, F, G."""
    # m[i+1][j+1] is the 2x2 section metric at (u + i step, v + j step)
    m = np.array([[metric_fn(u + i * step, v + j * step) for j in (-1, 0, 1)]
                  for i in (-1, 0, 1)])
    return _brioschi(m, step)


def _brioschi(m: np.ndarray, d: float) -> float:
    """Gaussian curvature from a (3, 3, 2, 2) stencil of section metrics."""
    E, F, G = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]

    def du(c):
        return (c[2, 1] - c[0, 1]) / (2 * d)

    def dv(c):
        return (c[1, 2] - c[1, 0]) / (2 * d)

    E_u, E_v = du(E), dv(E)
    F_u, F_v = du(F), dv(F)
    G_u, G_v = du(G), dv(G)
    E_vv = (E[1, 2] - 2 * E[1, 1] + E[1, 0]) / d**2
    G_uu = (G[2, 1] - 2 * G[1, 1] + G[0, 1]) / d**2
    F_uv = (F[2, 2] - F[2, 0] - F[0, 2] + F[0, 0]) / (4 * d**2)

    e, f, g = E[1, 1], F[1, 1], G[1, 1]
    det = e * g - f * f
    if det <= 1e-10:
        raise DegenerateSection(f"section metric determinant {det:.3e} too small")
    top = np.array([
        [-E_vv / 2 + F_uv - G_uu / 2, E_u / 2, F_u - E_v / 2],
        [F_v - G_u / 2, e, f],
        [G_v / 2, f, g],
    ])
    bottom = np.array([
        [0.0, E_v / 2, G_u / 2],
        [E_v / 2, e, f],
        [G_u / 2, f, g],
    ])
    return float((np.linalg.det(top) - np.linalg.det(bottom)) / det**2)


def gauss_curvature(model: Model, point, section, gamma: float | None = None,
                    step: float = CURVATURE_STEP) -> float:
    """Gaussian curvature of a 2-parameter coordinate section at a point."""
    g = model.gamma if gamma is None else gamma
    section = tuple(section)
    if len(section) != 2 or section[0] == section[1]:
        raise DegenerateSection(f"section must be two distinct parameters, got {section}")
    i, j = (list(model.circuit.parameter_names).index(s) for s in section)
    x0 = model.circuit.angles(point)
    nodes = np.tile(x0, (3, 3, 1))
    for k, a in enumerate((-1, 0, 1)):
        nodes[k, :, i] = x0[i] + a * step
        nodes[:, k, j] = x0[j] + a * step
    m = _stencil_metrics(model, nodes, g)
    return _brioschi(m[..., [i, j], :][..., [i, j]], step)


def scalar_curvature(model: Model, point, gamma: float | None = None,
                     step: float = CURVATURE_STEP) -> float:
    """Scalar curvature from Christoffel symbols, all by finite differences.

    Diagnostic output only; intended for full-rank metrics.
    """
    g0 = model.gamma if gamma is None else gamma
    names = list(model.circuit.parameter_names)
    n = len(names)
    x0 = np.array([float(point[p]) for p in names])

    # Christoffel symbols at x0 and x0 +- step e_a, each from the metric at
    # its own centre and centre +- step e_c
    offsets = np.zeros((2 * n + 1, n))
    for a in range(n):
        offsets[2 * a + 1, a] = step
        offsets[2 * a + 2, a] = -step
    centres = x0 + offsets
    g_all = _stencil_metrics(model, centres[:, None, :] + offsets, g0)

    def christoffel(gs):
        ginv = np.linalg.inv(gs[0])
        dg = (gs[1::2] - gs[2::2]) / (2 * step)
        # Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_jl - d_l g_jk)
        return 0.5 * np.einsum("il,jlk->ijk", ginv,
                               dg.transpose(0, 1, 2) + dg.transpose(2, 1, 0)
                               - dg.transpose(1, 0, 2))

    gams = np.array([christoffel(gs) for gs in g_all])
    gam = gams[0]
    dgam = (gams[1::2] - gams[2::2]) / (2 * step)
    # Ricci_jl = d_i Gamma^i_jl - d_j Gamma^i_il + G^i_ip G^p_jl - G^i_jp G^p_il
    ricci = (np.einsum("iijl->jl", dgam) - np.einsum("jiil->jl", dgam)
             + np.einsum("iip,pjl->jl", gam, gam)
             - np.einsum("ijp,pil->jl", gam, gam))
    return float(np.einsum("jl,jl->", np.linalg.inv(g_all[0, 0]), ricci))


@dataclass(frozen=True)
class CurvatureReport:
    classification: str  # flat | sphere | degenerate | generic
    rank: int
    null_directions: np.ndarray
    gaussian_curvature: float | None
    radius: float | None
    scalar_curvature: float | None
    section: tuple | None

    def label(self) -> str:
        if self.classification == "sphere":
            return f"sphere(R={self.radius:.6g})"
        if self.classification == "degenerate":
            return f"degenerate(rank={self.rank})"
        return self.classification


def _best_section(g: np.ndarray) -> tuple:
    """Coordinate pair (i, j) maximizing the minimal section determinant over
    a (N, M, M) stack of metrics."""
    pairs = list(itertools.combinations(range(g.shape[-1]), 2))
    i, j = np.array(pairs).T
    scores = np.min(g[:, i, i] * g[:, j, j] - g[:, i, j] ** 2, axis=0)
    return pairs[int(np.argmax(scores))]


def classify(field: MetricField, k_samples: int = 5) -> CurvatureReport:
    """Label a metric field as flat, a sphere of some radius, degenerate or
    generic.

    Needs at least 3 nodes per swept parameter.  Gaussian curvature is
    sampled at a handful of grid nodes of the dominant nondegenerate
    2-section; a sphere requires constant positive curvature there.
    """
    for name, (_lo, _hi, count) in field.grid.sweeps.items():
        if int(count) < 3:
            raise InsufficientGrid(f"sweep {name!r} needs >= 3 nodes, has {count}")
    g = field.g
    nodes, dim = g.shape[:2]

    w, V = np.linalg.eigh(g)
    keep = _above_cutoff(w)
    rank = int(np.max(np.count_nonzero(keep, axis=-1)))
    null_dirs = V[nodes // 2][:, ~keep[nodes // 2]]

    scale = max(1.0, float(np.max(np.abs(g))))
    grid_variation = float(np.max(g.max(axis=0) - g.min(axis=0)))

    if rank < 2:
        if rank == 0:
            return CurvatureReport("degenerate", 0, null_dirs, None, None, None, None)
        cls = "flat" if grid_variation <= FLAT_GRID_TOL else "degenerate"
        return CurvatureReport(cls, rank, null_dirs, None, None, None, None)

    names = field.model.circuit.parameter_names
    section = tuple(names[k] for k in _best_section(g))
    step = nodes // k_samples if nodes > k_samples else 1
    sample_nodes = [dict(zip(names, x)) for x in field.angles[::step][:k_samples]]
    curvatures = []
    for node in sample_nodes:
        try:
            # Richardson-extrapolate the O(step^2) stencil error so the
            # inferred sphere radius is good to ~1e-8
            k1 = gauss_curvature(field.model, node, section, field.gamma,
                                 CURVATURE_STEP)
            k2 = gauss_curvature(field.model, node, section, field.gamma,
                                 CURVATURE_STEP / 2)
            curvatures.append((4 * k2 - k1) / 3)
        except DegenerateSection:
            continue
    if not curvatures:
        return CurvatureReport("degenerate", rank, null_dirs, None, None, None, section)
    curvatures = np.array(curvatures)
    k_mean = float(np.mean(curvatures))
    k_spread = float(np.max(np.abs(curvatures - k_mean)))

    scal = None
    if rank == dim and dim == 3:
        scal = scalar_curvature(field.model, sample_nodes[len(sample_nodes) // 2],
                                field.gamma)

    if grid_variation <= FLAT_GRID_TOL * scale and np.max(np.abs(curvatures)) <= FLAT_K_TOL:
        return CurvatureReport("flat", rank, null_dirs, k_mean, None, scal, section)
    if k_mean > 0 and k_spread <= SPHERE_K_VARIATION * abs(k_mean):
        return CurvatureReport("sphere", rank, null_dirs, k_mean,
                               float(1.0 / np.sqrt(k_mean)), scal, section)
    if rank < dim:
        return CurvatureReport("degenerate", rank, null_dirs, k_mean, None, scal, section)
    return CurvatureReport("generic", rank, null_dirs, k_mean, None, scal, section)
