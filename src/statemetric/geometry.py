"""Metric fields, curvature diagnostics and manifold classification.

Curvature is exact: ``manifold.metric_jets`` gives the metric with its
first and second parameter derivatives from order-3 state jets, one batched
Christoffel/Ricci contraction of those jets gives the scalar curvature, and
the Gaussian curvature of a 2-parameter coordinate section is half the
scalar curvature of its 2x2 sub-jet.  ``classify`` and the CLI ``curvature``
command label curvature samples with one rule, ``curvature_label``.  Rules
are relative to the metric's scale, so a manifold reads alike at every gamma;
an eigenvalue or a variation of g below RANK_TOL (the one absolute floor) is zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSection,
    EmptyGrid,
    InsufficientGrid,
    MissingParameter,
)
from . import linalg
from .manifold import metric_batch, metric_jets
from .models import Model

RANK_TOL = 1e-10
FLAT_K_TOL = 1e-5
FLAT_GRID_TOL = 1e-8
SPHERE_K_VARIATION = 1e-4
# grid nodes at which classify samples the Gaussian curvature
K_SAMPLES = 5


def metric_stack(model: Model, angles) -> np.ndarray:
    """Symmetric analytic metrics (B, M, M) at a (B, M) array of angles in
    circuit-parameter order, from one kernel call."""
    g = metric_batch(model.circuit, angles, model.initial_state, model.gamma)
    return (g + g.swapaxes(-1, -2)) / 2


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
            with np.errstate(over="ignore"):  # np.linspace would overflow on it
                span = np.float64(hi) - np.float64(lo)
            if not np.isfinite(span):
                raise EmptyGrid(f"sweep {name!r}: max - min overflows a float")
        nodes = math.prod(int(count) for _, _, count in self.sweeps.values())
        if nodes > np.iinfo(np.intp).max // np.dtype(float).itemsize:
            raise EmptyGrid(f"the sweeps make {nodes} nodes, more than an array can hold")

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


def metric_field(model: Model, grid: GridSpec) -> MetricField:
    angles = grid.angles(model.circuit.parameter_names)
    return MetricField(grid, angles, metric_stack(model, angles), model)


def ranks(g) -> np.ndarray:
    """Rank of each metric in a (..., M, M) stack: the count of eigenvalues w
    above RANK_TOL * max(1, w_max); 0 for a metric that is not finite."""
    w = linalg.eigvalsh(g)
    return np.count_nonzero(w > RANK_TOL * np.fmax(1.0, w[..., -1:]), axis=-1)


def scalar_from_jets(g, dg, d2g) -> np.ndarray:
    """Scalar curvature (B,) of metrics g (B, n, n) from their exact
    derivatives dg[b, i, j, a] = d_a g_ij and d2g[b, i, j, a, c] = d_a d_c g_ij,
    NaN where ``ranks`` finds g rank-deficient; twice K if n = 2.

    R = g^jl R_jl, R_jl = d_i Gamma^i_jl - d_j Gamma^i_il + Gamma^i_ip Gamma^p_jl
    - Gamma^i_jp Gamma^p_il, Gamma^i_jk = g^il (d_j g_lk + d_k g_lj - d_l g_jk) / 2.
    """
    def first_kind(t):  # t[b, l, k, j, ...] = d_j g_lk  ->  Gamma_ljk
        return (t.swapaxes(2, 3) + t - np.moveaxis(t, 3, 1)) / 2

    regular = ranks(g) == g.shape[-1]
    ginv = np.linalg.inv(np.where(regular[:, None, None], g, np.eye(g.shape[-1])))
    gam = np.einsum("bil,bljk->bijk", ginv, first_kind(dg))
    # d_a g^il = -g^ip d_a g_pq g^ql
    dgam = (np.einsum("bil,bljka->bijka", ginv, first_kind(d2g))
            - np.einsum("bip,bpqa,bqjk->bijka", ginv, dg, gam))
    ricci = (np.einsum("bijli->bjl", dgam) - np.einsum("biilj->bjl", dgam)
             + np.einsum("biip,bpjl->bjl", gam, gam)
             - np.einsum("bijp,bpil->bjl", gam, gam))
    return np.where(regular, np.einsum("bjl,bjl->b", ginv, ricci), np.nan)


def section_curvatures(model: Model, angles, section):
    """(K, jets): Gaussian curvature (B,) of the section of two distinct
    parameters at each row of a (B, M) array of angles, NaN where it is
    degenerate, and the full ``metric_jets`` there.  Raises MissingParameter
    for an unknown name, DegenerateSection for a repeated one."""
    names = model.circuit.parameter_names
    section = tuple(section)
    if len(section) != 2 or section[0] == section[1]:
        raise DegenerateSection(f"section must be two distinct parameters, got {section}")
    for p in section:
        if p not in names:
            raise MissingParameter(f"unknown section parameter {p!r}")
    jets = metric_jets(model.circuit, angles, model.initial_state, model.gamma)
    idx = [names.index(p) for p in section]
    sub = []
    for j in jets:  # the section's 2 x 2 (x 2 (x 2)) sub-jets
        for axis in range(1, j.ndim):
            j = j.take(idx, axis=axis)
        sub.append(j)
    return scalar_from_jets(*sub) / 2, jets


def gauss_curvature(model: Model, point, section) -> float:
    """Gaussian curvature of a 2-parameter coordinate section at a point."""
    k, _ = section_curvatures(model, model.circuit.angles(point)[None], section)
    if np.isnan(k[0]):
        raise DegenerateSection(f"section {tuple(section)} is degenerate at {point}")
    return float(k[0])


def curvature_label(k, g) -> str:
    """flat, sphere or generic from finite Gaussian curvature samples k and
    the metrics g (N, M, M) they were taken among.

    Flat: each entry of g varies by at most max(FLAT_GRID_TOL max|g|, RANK_TOL)
    and every |k| max|g| <= FLAT_K_TOL (k scales as 1/g).  Sphere: two or more samples
    with a positive mean and a spread within SPHERE_K_VARIATION of it.
    """
    scale = np.max(np.abs(g))
    if (np.max(g.max(axis=0) - g.min(axis=0)) <= max(FLAT_GRID_TOL * scale, RANK_TOL)
            and np.max(np.abs(k)) * scale <= FLAT_K_TOL):
        return "flat"
    mean = float(np.mean(k))
    if len(k) > 1 and mean > 0 and np.max(np.abs(k - mean)) <= SPHERE_K_VARIATION * mean:
        return "sphere"
    return "generic"


@dataclass(frozen=True)
class CurvatureReport:
    classification: str  # flat | sphere | degenerate | generic
    rank: int
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


def classify(field: MetricField) -> CurvatureReport:
    """Label a metric field as flat, a sphere of some radius, degenerate or
    generic.

    Needs at least 3 nodes per swept parameter.  Gaussian curvature is
    sampled at a handful of grid nodes of the dominant nondegenerate
    2-section; a sphere requires constant positive curvature there.  The
    scalar curvature at the middle sample is reported when the metric has
    full rank, for any number of parameters.
    """
    for name, (_lo, _hi, count) in field.grid.sweeps.items():
        if int(count) < 3:
            raise InsufficientGrid(f"sweep {name!r} needs >= 3 nodes, has {count}")
    g = field.g
    nodes, dim = g.shape[:2]

    rank = int(np.max(ranks(g)))
    if rank < 2:  # a line has no intrinsic curvature
        flat = rank == 1 and curvature_label(np.zeros(1), g) == "flat"
        return CurvatureReport("flat" if flat else "degenerate", rank, None, None, None, None)

    names = field.model.circuit.parameter_names
    section = tuple(names[k] for k in _best_section(g))
    step = nodes // K_SAMPLES if nodes > K_SAMPLES else 1
    samples = field.angles[::step][:K_SAMPLES]
    k, jets = section_curvatures(field.model, samples, section)
    curvatures = k[np.isfinite(k)]
    if not curvatures.size:
        return CurvatureReport("degenerate", rank, None, None, None, section)
    k_mean = float(np.mean(curvatures))

    scal = None
    if rank == dim:
        scal = float(scalar_from_jets(*jets)[len(samples) // 2])

    cls = curvature_label(curvatures, g)
    if cls == "generic" and rank < dim:
        cls = "degenerate"
    radius = float(1.0 / np.sqrt(k_mean)) if cls == "sphere" else None
    return CurvatureReport(cls, rank, k_mean, radius, scal, section)
