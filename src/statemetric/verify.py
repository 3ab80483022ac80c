"""Self-verification suite.

Reproduces every closed-form result the package claims, at fixed tolerances:
sphere metrics and radii for spin rotations and the two-spin systems, the
flat oscillator plane, agreement of the analytic metric routes with the
finite-difference oracles, the adjoint/conjugation equivalence, and the
Euler-angle/evolution-time bridge.  Used both by the CLI ``verify`` command
and by the test suite.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import geometry, liealg, linalg, models, oracle
from .geometry import GridSpec, metric_stack
from .manifold import tilde_metric_batch
from .models import (
    OscillatorModelSpec,
    SpinModelSpec,
    TwoSpinModelSpec,
    oscillator_model,
    spin_model,
    two_spin_model,
)

SEED = 20240811

# tilde entries (points x M d^2) per adjoint_equivalence block; bounds the
# (B, M, d, d) stacks of both routes
BLOCK_ENTRIES = 2**15

SQ2 = 1 / np.sqrt(2)


def catalog():
    """Models every multi-route agreement criterion runs over, freshly built."""
    return {
        "spin_half_up": spin_model(SpinModelSpec(s=0.5, m=0.5)),
        "spin_1_m0": spin_model(SpinModelSpec(s=1, m=0)),
        "spin_1_superposition": spin_model(SpinModelSpec(s=1, coefficients=(SQ2, 0, SQ2))),
        "spin_3half": spin_model(SpinModelSpec(s=1.5, m=0.5)),
        "oscillator_n0": oscillator_model(OscillatorModelSpec(n=0)),
        "oscillator_n1": oscillator_model(OscillatorModelSpec(n=1)),
        "two_spin_dm_xx": two_spin_model(TwoSpinModelSpec("dm_xx", initial="up_down")),
        "two_spin_sum": two_spin_model(TwoSpinModelSpec("sum", initial="up_up")),
        "two_spin_directional": two_spin_model(
            TwoSpinModelSpec("directional", eta=np.pi / 2, chi=0.0, initial="plus_minus")),
    }


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str


def _result(check_id, passed, detail):
    return CheckResult(check_id, bool(passed), detail)


def _sphere_angles(rng, count, m):
    """(count, m) angles uniform in (-pi, pi), then theta_2 (column 1)
    redrawn in (0.2, pi - 0.2) away from the coordinate poles."""
    angles = rng.uniform(-np.pi, np.pi, (count, m))
    angles[:, 1] = rng.uniform(0.2, np.pi - 0.2, count)
    return angles


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _peak(*values) -> float:
    """The largest value, NaN if any is NaN, so that a NaN residual fails its
    gate; builtin max drops a NaN that does not come first."""
    return float(np.max(values))


def _worst(pairs):
    """(residual, name) of the largest residual in (name, residual) pairs; like
    ``_peak``, np.argmax takes a NaN for the largest."""
    names, values = zip(*pairs)
    k = int(np.argmax(values))
    return float(values[k]), names[k]


def check_three_way_agreement(models=None) -> CheckResult:
    """Derivative vs tilde metric (gamma^2 Re(C^* K C^T), no d x d matrix) to
    1e-10, either vs fd oracle to 1e-6."""
    rng = np.random.default_rng(SEED)
    analytic, worst_fd = [], 0.0
    for name, model in (models or catalog()).items():
        circuit, psi, gamma = model.circuit, model.initial_state, model.gamma
        angles = rng.uniform(-1.0, 1.0, (20, len(model.parameter_names)))
        g_d = metric_stack(model, angles)
        g_t = tilde_metric_batch(circuit, angles, psi, gamma)
        g_f = oracle.fd_metric_batch(circuit, angles, psi, gamma, h=1e-4)
        analytic.append((name, _max_abs(g_d - g_t)))
        worst_fd = _peak(worst_fd, _max_abs(g_d - g_f), _max_abs(g_t - g_f))
    worst_analytic, where = _worst(analytic)
    ok = worst_analytic <= 1e-10 and worst_fd <= 1e-6
    return _result("three_way_agreement", ok,
                   f"max |deriv - tilde| = {worst_analytic:.2e} (worst: {where}), "
                   f"max |analytic - fd| = {worst_fd:.2e}")


def check_sphere_metrics() -> CheckResult:
    """Eigenstate spin metric diag(R^2 sin^2 t2, R^2, 0) and curvature 1/R^2."""
    rng = np.random.default_rng(SEED + 1)
    worst_metric, worst_k = 0.0, 0.0
    for s in (0.5, 1.0, 1.5, 2.0):
        for m in np.arange(-s, s + 0.5, 1.0):
            model = spin_model(SpinModelSpec(s=s, m=float(m)))
            r2 = 0.5 * model.gamma**2 * (s * (s + 1) - m * m)
            angles = _sphere_angles(rng, 5, len(model.parameter_names))
            expected = np.zeros((5, 3, 3))
            expected[:, 0, 0] = r2 * np.sin(angles[:, 1]) ** 2
            expected[:, 1, 1] = r2
            worst_metric = _peak(worst_metric, _max_abs(metric_stack(model, angles) - expected))
            point = {"theta_1": 0.4, "theta_2": 1.1, "theta_3": -0.6}
            k = geometry.gauss_curvature(model, point, ("theta_1", "theta_2"))
            worst_k = _peak(worst_k, abs(k - 1 / r2) * r2)
    ok = worst_metric <= 1e-10 and worst_k <= 1e-3
    return _result("sphere_metrics", ok,
                   f"max metric deviation = {worst_metric:.2e}, "
                   f"max relative curvature error = {worst_k:.2e}")


def check_oscillator_flat(models=None) -> CheckResult:
    """g = diag(c, c) with c = gamma^2 (2n+1)/2, constant over the grid."""
    models = models or catalog()
    worst_diag, worst_off, worst_var = 0.0, 0.0, 0.0
    for n in (0, 1, 2):  # n = 0 and 1 are in the catalog
        model = models.get(f"oscillator_n{n}") or oscillator_model(OscillatorModelSpec(n=n))
        c = model.gamma**2 * (2 * n + 1) / 2
        g = geometry.metric_field(
            model, GridSpec({"theta": (-1.0, 1.0, 5), "phi": (-1.0, 1.0, 5)})).g
        worst_diag = _peak(worst_diag, _max_abs(g[:, 0, 0] - c), _max_abs(g[:, 1, 1] - c))
        worst_off = _peak(worst_off, _max_abs(g[:, 0, 1]))
        worst_var = _peak(worst_var, np.max(g.max(axis=0) - g.min(axis=0)))
    ok = worst_diag <= 1e-6 and worst_off <= 1e-8 and worst_var <= 1e-6
    return _result("oscillator_flat", ok,
                   f"max diagonal error = {worst_diag:.2e}, max off-diagonal = "
                   f"{worst_off:.2e}, max grid variation = {worst_var:.2e}")


def check_two_spin_spheres(models=None) -> CheckResult:
    """All three two-spin variants classify as sphere(gamma/2)."""
    models = models or catalog()
    grid = GridSpec({"theta_1": (0.1, 3.0, 5), "theta_2": (0.3, np.pi - 0.3, 5)},
                    {"theta_3": 0.2})
    details, ok = [], True
    for key in ("two_spin_dm_xx", "two_spin_sum", "two_spin_directional"):
        model = models[key]
        report = geometry.classify(geometry.metric_field(model, grid))
        err = abs((report.radius or np.inf) - model.gamma / 2)
        ok = ok and report.classification == "sphere" and err <= 1e-6
        details.append(f"{key}: {report.label()} (|R - gamma/2| = {err:.2e})")
    return _result("two_spin_spheres", ok, "; ".join(details))


def check_adjoint_equivalence(models=None) -> CheckResult:
    """Adjoint-representation tilde operators equal direct conjugation.

    Both routes take the 50 points of each model in blocks of at most
    BLOCK_ENTRIES // (M d^2) points and are compared block by block on the
    active block of each tilde generator.
    """
    models = models or catalog()
    rng = np.random.default_rng(SEED + 2)
    cases = {
        "so3": models["spin_1_m0"],
        "heisenberg": models["oscillator_n0"],
        "two_spin_dm_xx": models["two_spin_dm_xx"],
        "two_spin_sum": models["two_spin_sum"],
    }
    residuals = []
    for name, model in cases.items():
        rep, circuit = model.rep, model.circuit
        m = len(circuit.factors)
        angles = rng.uniform(-1.0, 1.0, (50, m))
        step = max(1, BLOCK_ENTRIES // (m * rep.dim**2))
        for start in range(0, len(angles), step):
            block = angles[start:start + step]
            d = rep.block_norm(liealg.tilde_by_adjoint(rep, circuit, block)
                               - liealg.tilde_by_conjugation(rep, circuit, block))
            residuals.append((name, d))
    worst, where = _worst(residuals)
    return _result("adjoint_equivalence", worst <= 1e-10,
                   f"max |adjoint - conjugation| = {worst:.2e} (worst: {where})")


def check_algebra_validation() -> CheckResult:
    """Spin structure constants cyclic i, Jacobi tight, Heisenberg brackets."""
    worst_c, worst_j = 0.0, 0.0
    for s in (0.5, 1.0, 1.5, 3.0):
        rep = spin_model(SpinModelSpec(s=s, m=s)).rep
        c = rep.constants
        expected = np.zeros_like(c)
        expected[0, 1, 2] = expected[1, 2, 0] = expected[2, 0, 1] = 1j
        expected[1, 0, 2] = expected[2, 1, 0] = expected[0, 2, 1] = -1j
        worst_c = _peak(worst_c, _max_abs(c - expected))
        worst_j = _peak(worst_j, rep.jacobi_residual())
    osc = oscillator_model(OscillatorModelSpec(n=0))
    heis = liealg.validate_algebra(osc.rep, "heisenberg", 1)
    worst_h = _peak(*(ch.residual for ch in heis.checks))
    ok = worst_c <= 1e-12 and worst_j <= 1e-10 and worst_h <= 1e-9
    return _result("algebra_validation", ok,
                   f"max |c - i_cyclic| = {worst_c:.2e}, jacobi = {worst_j:.2e}, "
                   f"heisenberg bracket residual = {worst_h:.2e}")


def check_degeneracy() -> CheckResult:
    """Every eigenstate-initial spin model has metric rank exactly 2."""
    rng = np.random.default_rng(SEED + 3)
    worst_null, bad_rank = 0.0, []
    for s, m in ((0.5, 0.5), (0.5, -0.5), (1.0, 1.0), (1.0, 0.0), (2.0, 1.0)):
        model = spin_model(SpinModelSpec(s=s, m=m))
        g = metric_stack(model, _sphere_angles(rng, 10, len(model.parameter_names)))
        ranks = geometry.ranks(g)
        worst_null = _peak(worst_null, _max_abs(linalg.eigvalsh(g)[:, 0]))
        bad_rank += [(s, m, int(rank)) for rank in ranks if rank != 2]
    ok = worst_null <= 1e-10 and not bad_rank
    return _result("degeneracy", ok,
                   f"max null eigenvalue = {worst_null:.2e}, "
                   f"wrong ranks: {bad_rank or 'none'}")


def check_euler_bridge() -> CheckResult:
    """exp(-iHt) stays on the |ud>/|du> subspace; extracted angles check out."""
    rng = np.random.default_rng(SEED + 4)
    worst_leak, worst_tan, worst_block = 0.0, 0.0, 0.0
    count = 0
    while count < 20:
        j1, j2, hz = rng.uniform(-2, 2, 3)
        t = rng.uniform(-3, 3)
        if abs(j1) < 0.1:
            continue
        count += 1
        report = models.euler_bridge_report(j1, j2, hz, t)
        worst_leak = _peak(worst_leak, report["subspace_leak"])
        if not np.isnan(report["tan_residual"]):
            worst_tan = _peak(worst_tan, report["tan_residual"])
        worst_block = _peak(worst_block, report["block_mismatch"])
    ok = worst_leak <= 1e-12 and worst_tan <= 1e-8 and worst_block <= 1e-10
    return _result("euler_bridge", ok,
                   f"max subspace leak = {worst_leak:.2e}, max tan residual = "
                   f"{worst_tan:.2e}, max block mismatch = {worst_block:.2e}")


def check_spin1_superposition(models=None) -> CheckResult:
    """Variances (1, 1, 0, 0) for (|1> + |-1>)/sqrt(2); metric matches oracle."""
    rng = np.random.default_rng(SEED + 5)
    model = (models or catalog())["spin_1_superposition"]
    psi = model.initial_state
    sz, sx, sy = (model.rep.generator(n) for n in ("Sz", "Sx", "Sy"))

    def mean(op):
        return np.vdot(psi, op @ psi).real

    def var(op):
        return mean(op @ op) - mean(op)**2

    def cov(op1, op2):
        d1 = op1 - mean(op1) * np.eye(3)
        d2 = op2 - mean(op2) * np.eye(3)
        return mean(d1 @ d2 + d2 @ d1)

    values = np.array([var(sz), var(sx), var(sy), cov(sx, sy)])
    var_err = float(np.max(np.abs(values - np.array([1.0, 1.0, 0.0, 0.0]))))

    angles = rng.uniform(-1.0, 1.0, (10, len(model.parameter_names)))
    worst_fd = _max_abs(metric_stack(model, angles) - oracle.fd_metric_batch(
        model.circuit, angles, psi, model.gamma))
    ok = var_err <= 1e-10 and worst_fd <= 1e-6
    return _result("spin1_superposition", ok,
                   f"variance error = {var_err:.2e}, max |metric - oracle| = {worst_fd:.2e}")


def check_oracle_quality(models=None) -> CheckResult:
    """fd oracle converges at order 2; fidelity oracle agrees with it."""
    model = (models or catalog())["spin_1_superposition"]
    pt = {"theta_1": 0.3, "theta_2": 0.7, "theta_3": 1.1}
    angles = model.circuit.angles(pt)[None]
    g_a = metric_stack(model, angles)[0]
    steps = np.array([1e-2, 1e-3, 1e-4])
    errs = np.array([
        _max_abs(oracle.fd_metric_batch(model.circuit, angles, model.initial_state,
                                        model.gamma, h=h)[0] - g_a)
        for h in steps
    ])
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    g_f = oracle.fd_metric_batch(model.circuit, angles, model.initial_state, model.gamma)[0]
    g_q = oracle.fidelity_metric_batch(model.circuit, angles, model.initial_state,
                                       model.gamma)[0]
    agree = _max_abs(g_f - g_q)
    ok = abs(slope - 2.0) <= 0.3 and agree <= 1e-5
    return _result("oracle_quality", ok,
                   f"convergence slope = {slope:.3f}, |fd - fidelity| = {agree:.2e}")


ALL_CHECKS = (
    check_three_way_agreement,
    check_sphere_metrics,
    check_oscillator_flat,
    check_two_spin_spheres,
    check_adjoint_equivalence,
    check_algebra_validation,
    check_degeneracy,
    check_euler_bridge,
    check_spin1_superposition,
    check_oracle_quality,
)

CHECK_IDS = tuple(fn.__name__.removeprefix("check_") for fn in ALL_CHECKS)


def run_checks(only: str | None = None):
    """Run the suite, optionally filtered by substring of the check id.

    The catalog is built at most once per run and handed, read-only, to
    every check that takes ``models``.
    """
    results, models = [], None
    for fn in ALL_CHECKS:
        check_id = fn.__name__.removeprefix("check_")
        if only and only not in check_id:
            continue
        if "models" in inspect.signature(fn).parameters:
            models = models or MappingProxyType(catalog())
            results.append(fn(models))
        else:
            results.append(fn())
    return results
