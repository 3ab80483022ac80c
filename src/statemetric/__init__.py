"""Fubini-Study metrics and curvature diagnostics of quantum state manifolds
generated by ordered products of Lie-algebra exponentials."""

from . import errors, geometry, liealg, linalg, manifest, manifold, models, oracle, verify
from .geometry import GridSpec, classify, gauss_curvature, metric_at, metric_field, rank_analysis
from .liealg import LieAlgebraRep, extract_structure_constants, validate_algebra
from .manifold import CircuitSpec, MetricTensor, build_unitary, evolve
from .models import (
    Model,
    OscillatorModelSpec,
    SpinModelSpec,
    TwoSpinModelSpec,
    build_model,
    euler_from_time,
    oscillator_model,
    spin_model,
    spin_operators,
    two_spin_model,
)
from .oracle import fd_metric, fidelity_metric

__version__ = "0.1.0"
