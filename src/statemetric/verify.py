"""Self-verification suite.

Reproduces every closed-form result the package claims, at fixed tolerances:
sphere metrics and radii for spin rotations and the two-spin systems, the
flat oscillator plane, agreement of the analytic metric routes with the
finite-difference oracles, the adjoint/conjugation equivalence, and the
Euler-angle/evolution-time bridge.  Used both by the CLI ``verify`` command
and by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, liealg, linalg, models, oracle
from .geometry import GridSpec, metric_at
from .manifold import metric_from_tilde
from .models import (
    OscillatorModelSpec,
    SpinModelSpec,
    TwoSpinModelSpec,
    oscillator_model,
    spin_model,
    two_spin_model,
)

SEED = 20240811

SQ2 = 1 / np.sqrt(2)


def catalog():
    """Models every multi-route agreement criterion runs over."""
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


def _random_points(rng, names, count, low=-1.0, high=1.0):
    return [dict(zip(names, rng.uniform(low, high, len(names)))) for _ in range(count)]


def check_three_way_agreement() -> CheckResult:
    """Derivative vs tilde metric to 1e-10, either vs fd oracle to 1e-6."""
    rng = np.random.default_rng(SEED)
    worst_analytic, worst_fd, where = 0.0, 0.0, ""
    for name, model in catalog().items():
        for pt in _random_points(rng, model.parameter_names, 20):
            g_d = metric_at(model, pt)
            g_t = metric_from_tilde(model.circuit, pt, model.initial_state, model.gamma)
            g_f = oracle.fd_metric(model.circuit, pt, model.initial_state,
                                   model.gamma, h=1e-4)
            da = float(np.max(np.abs(g_d.g - g_t.g)))
            df = max(float(np.max(np.abs(g_d.g - g_f.g))),
                     float(np.max(np.abs(g_t.g - g_f.g))))
            if da > worst_analytic:
                worst_analytic, where = da, name
            worst_fd = max(worst_fd, df)
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
            for pt in _random_points(rng, model.parameter_names, 5,
                                     low=-np.pi, high=np.pi):
                pt["theta_2"] = float(rng.uniform(0.2, np.pi - 0.2))
                expected = np.diag([r2 * np.sin(pt["theta_2"]) ** 2, r2, 0.0])
                worst_metric = max(worst_metric, float(np.max(np.abs(
                    metric_at(model, pt).g - expected))))
            point = {"theta_1": 0.4, "theta_2": 1.1, "theta_3": -0.6}
            k = geometry.gauss_curvature(model, point, ("theta_1", "theta_2"))
            worst_k = max(worst_k, abs(k - 1 / r2) * r2)
    ok = worst_metric <= 1e-10 and worst_k <= 1e-3
    return _result("sphere_metrics", ok,
                   f"max metric deviation = {worst_metric:.2e}, "
                   f"max relative curvature error = {worst_k:.2e}")


def check_oscillator_flat() -> CheckResult:
    """g = diag(c, c) with c = gamma^2 (2n+1)/2, constant over the grid."""
    worst_diag, worst_off, worst_var = 0.0, 0.0, 0.0
    for n in (0, 1, 2):
        model = oscillator_model(OscillatorModelSpec(mass=1.0, omega=1.0, n=n))
        c = model.gamma**2 * (2 * n + 1) / 2
        field = geometry.metric_field(
            model, GridSpec({"theta": (-1.0, 1.0, 5), "phi": (-1.0, 1.0, 5)}))
        g = field.g
        worst_diag = max(worst_diag,
                         float(np.max(np.abs(g[:, 0, 0] - c))),
                         float(np.max(np.abs(g[:, 1, 1] - c))))
        worst_off = max(worst_off, float(np.max(np.abs(g[:, 0, 1]))))
        worst_var = max(worst_var, float(np.max(g.max(axis=0) - g.min(axis=0))))
    ok = worst_diag <= 1e-6 and worst_off <= 1e-8 and worst_var <= 1e-6
    return _result("oscillator_flat", ok,
                   f"max diagonal error = {worst_diag:.2e}, max off-diagonal = "
                   f"{worst_off:.2e}, max grid variation = {worst_var:.2e}")


def check_two_spin_spheres() -> CheckResult:
    """All three two-spin variants classify as sphere(gamma/2)."""
    grid = GridSpec({"theta_1": (0.1, 3.0, 5), "theta_2": (0.3, np.pi - 0.3, 5)},
                    {"theta_3": 0.2})
    details, ok = [], True
    for key in ("two_spin_dm_xx", "two_spin_sum", "two_spin_directional"):
        model = catalog()[key]
        report = geometry.classify(geometry.metric_field(model, grid))
        err = abs((report.radius or np.inf) - model.gamma / 2)
        ok = ok and report.classification == "sphere" and err <= 1e-6
        details.append(f"{key}: {report.label()} (|R - gamma/2| = {err:.2e})")
    return _result("two_spin_spheres", ok, "; ".join(details))


def check_adjoint_equivalence() -> CheckResult:
    """Adjoint-representation tilde operators equal direct conjugation."""
    rng = np.random.default_rng(SEED + 2)
    cases = {
        "so3": catalog()["spin_1_m0"],
        "heisenberg": catalog()["oscillator_n0"],
        "two_spin_dm_xx": catalog()["two_spin_dm_xx"],
        "two_spin_sum": catalog()["two_spin_sum"],
    }
    worst, where = 0.0, ""
    for name, model in cases.items():
        for pt in _random_points(rng, model.parameter_names, 50):
            ta = liealg.tilde_by_adjoint(model.rep, model.circuit, pt)
            tc = liealg.tilde_by_conjugation(model.rep, model.circuit, pt)
            d = max(model.rep.block_norm(a - c) for a, c in zip(ta, tc))
            if d > worst:
                worst, where = d, name
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
        worst_c = max(worst_c, float(np.max(np.abs(c - expected))))
        worst_j = max(worst_j, rep.jacobi_residual())
    osc = oscillator_model(OscillatorModelSpec(n=0))
    heis = liealg.validate_algebra(osc.rep, "heisenberg", 1)
    worst_h = max(ch.residual for ch in heis.checks)
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
        for pt in _random_points(rng, model.parameter_names, 10,
                                 low=-np.pi, high=np.pi):
            pt["theta_2"] = float(rng.uniform(0.2, np.pi - 0.2))
            g = metric_at(model, pt)
            w = np.linalg.eigvalsh(g.g)
            rank, _ = geometry.rank_analysis(g)
            worst_null = max(worst_null, abs(float(w[0])))
            if rank != 2:
                bad_rank.append((s, m, rank))
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
        spec = TwoSpinModelSpec("dm_xx", j1=j1, j2=j2, hz=hz)
        U = models.dm_xx_evolution(spec, t)
        inside, outside = [1, 2], [0, 3]
        worst_leak = max(worst_leak,
                         float(np.max(np.abs(U[np.ix_(inside, outside)]))),
                         float(np.max(np.abs(U[np.ix_(outside, inside)]))))
        report = models.euler_bridge_report(spec, t)
        if not np.isnan(report["tan_residual"]):
            worst_tan = max(worst_tan, report["tan_residual"])
        worst_block = max(worst_block, report["block_mismatch"])
    ok = worst_leak <= 1e-12 and worst_tan <= 1e-8 and worst_block <= 1e-10
    return _result("euler_bridge", ok,
                   f"max subspace leak = {worst_leak:.2e}, max tan residual = "
                   f"{worst_tan:.2e}, max block mismatch = {worst_block:.2e}")


def check_spin1_superposition() -> CheckResult:
    """Variances (1, 1, 0, 0) for (|1> + |-1>)/sqrt(2); metric matches oracle."""
    rng = np.random.default_rng(SEED + 5)
    model = catalog()["spin_1_superposition"]
    psi = model.initial_state
    sz, sx, sy = (model.rep.generator(n) for n in ("Sz", "Sx", "Sy"))

    def var(op):
        mean = linalg.expectation(psi, op).real
        return linalg.expectation(psi, op @ op).real - mean**2

    def cov(op1, op2):
        d1 = op1 - linalg.expectation(psi, op1).real * np.eye(3)
        d2 = op2 - linalg.expectation(psi, op2).real * np.eye(3)
        return linalg.expectation(psi, linalg.anticommutator(d1, d2)).real

    values = np.array([var(sz), var(sx), var(sy), cov(sx, sy)])
    var_err = float(np.max(np.abs(values - np.array([1.0, 1.0, 0.0, 0.0]))))

    worst_fd = 0.0
    for pt in _random_points(rng, model.parameter_names, 10):
        g_a = metric_at(model, pt)
        g_f = oracle.fd_metric(model.circuit, pt, model.initial_state, model.gamma)
        worst_fd = max(worst_fd, float(np.max(np.abs(g_a.g - g_f.g))))
    ok = var_err <= 1e-10 and worst_fd <= 1e-6
    return _result("spin1_superposition", ok,
                   f"variance error = {var_err:.2e}, max |metric - oracle| = {worst_fd:.2e}")


def check_oracle_quality() -> CheckResult:
    """fd oracle converges at order 2; fidelity oracle agrees with it."""
    model = catalog()["spin_1_superposition"]
    pt = {"theta_1": 0.3, "theta_2": 0.7, "theta_3": 1.1}
    g_a = metric_at(model, pt)
    steps = np.array([1e-2, 1e-3, 1e-4])
    errs = np.array([
        float(np.max(np.abs(oracle.fd_metric(model.circuit, pt, model.initial_state,
                                             model.gamma, h=h).g - g_a.g)))
        for h in steps
    ])
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    g_f = oracle.fd_metric(model.circuit, pt, model.initial_state, model.gamma)
    g_q = oracle.fidelity_metric(model.circuit, pt, model.initial_state, model.gamma)
    agree = float(np.max(np.abs(g_f.g - g_q.g)))
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
    """Run the suite, optionally filtered by substring of the check id."""
    results = []
    for fn in ALL_CHECKS:
        check_id = fn.__name__.removeprefix("check_")
        if only and only not in check_id:
            continue
        results.append(fn())
    return results
