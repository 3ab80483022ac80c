"""The batched verify checks against point-by-point references.

Each reference draws the same points in the same order as the check and
evaluates them one at a time, each as a batch of one; the check must reach
the same verdict, name the same worst model and report the same residuals
up to rounding.
"""

import re

import numpy as np
import pytest

from statemetric import geometry, liealg, models, oracle, verify
from statemetric.geometry import metric_stack
from statemetric.manifold import tilde_metric_batch
from statemetric.models import SpinModelSpec, spin_model

CATALOG = verify.catalog()


def _numbers(detail):
    return [float(x) for x in re.findall(r"\d\.\d+e[+-]\d+", detail)]


def point_metric(model, point):
    return metric_stack(model, model.circuit.angles(point)[None])[0]


def _points(rng, names, count, low=-1.0, high=1.0):
    return [dict(zip(names, rng.uniform(low, high, len(names)))) for _ in range(count)]


def reference_three_way():
    rng = np.random.default_rng(verify.SEED)
    worst_analytic, worst_fd, where = 0.0, 0.0, ""
    for name, model in CATALOG.items():
        for pt in _points(rng, model.parameter_names, 20):
            g_d = point_metric(model, pt)
            g_t = tilde_metric_batch(model.circuit, model.circuit.angles(pt)[None],
                                     model.initial_state, model.gamma)[0]
            g_f = oracle.fd_metric(model.circuit, pt, model.initial_state, model.gamma,
                                   h=1e-4).g
            da = float(np.max(np.abs(g_d - g_t)))
            if da > worst_analytic:
                worst_analytic, where = da, name
            worst_fd = max(worst_fd, float(np.max(np.abs(g_d - g_f))),
                           float(np.max(np.abs(g_t - g_f))))
    return worst_analytic <= 1e-10 and worst_fd <= 1e-6, where, (worst_analytic, worst_fd)


def reference_spin1_superposition():
    rng = np.random.default_rng(verify.SEED + 5)
    model = CATALOG["spin_1_superposition"]
    worst_fd = 0.0
    for pt in _points(rng, model.parameter_names, 10):
        g_f = oracle.fd_metric(model.circuit, pt, model.initial_state, model.gamma)
        worst_fd = max(worst_fd, float(np.max(np.abs(point_metric(model, pt) - g_f.g))))
    return worst_fd <= 1e-6, worst_fd


def reference_degeneracy():
    rng = np.random.default_rng(verify.SEED + 3)
    worst_null, bad_rank = 0.0, []
    for s, m in ((0.5, 0.5), (0.5, -0.5), (1.0, 1.0), (1.0, 0.0), (2.0, 1.0)):
        model = spin_model(SpinModelSpec(s=s, m=m))
        for pt in _points(rng, model.parameter_names, 10, low=-np.pi, high=np.pi):
            pt["theta_2"] = float(rng.uniform(0.2, np.pi - 0.2))
            g = point_metric(model, pt)
            worst_null = max(worst_null, abs(float(np.linalg.eigvalsh(g)[0])))
            rank = int(geometry.ranks(g))
            if rank != 2:
                bad_rank.append((s, m, rank))
    return worst_null <= 1e-10 and not bad_rank, worst_null, bad_rank


def test_three_way_agreement_matches_pointwise():
    result = verify.check_three_way_agreement(CATALOG)
    passed, where, residuals = reference_three_way()
    assert result.passed == passed
    assert f"(worst: {where})" in result.detail
    assert _numbers(result.detail) == pytest.approx(residuals, rel=0.1, abs=1e-14)


def test_spin1_superposition_matches_pointwise():
    result = verify.check_spin1_superposition(CATALOG)
    passed, worst_fd = reference_spin1_superposition()
    assert result.passed == passed
    assert _numbers(result.detail)[1] == pytest.approx(worst_fd, rel=1e-2)


def test_degeneracy_matches_pointwise():
    result = verify.check_degeneracy()
    passed, worst_null, bad_rank = reference_degeneracy()
    assert result.passed == passed
    assert _numbers(result.detail)[0] == pytest.approx(worst_null, rel=0.1, abs=1e-16)
    assert f"wrong ranks: {bad_rank or 'none'}" in result.detail


def test_degeneracy_reports_wrong_ranks(monkeypatch):
    # a rank rule that keeps every eigenvalue flags every point
    monkeypatch.setattr(geometry, "ranks", lambda g: np.full(g.shape[:-2], g.shape[-1]))
    result = verify.check_degeneracy()
    assert not result.passed
    assert result.detail.count(", 3)") == 5 * 10
    assert "(0.5, 0.5, 3)" in result.detail and "(2.0, 1.0, 3)" in result.detail


# a route whose output turns NaN, and the checks that read it
NAN_ROUTES = {
    "tilde_metric_batch": (verify, {"three_way_agreement"}),
    "tilde_by_adjoint": (liealg, {"adjoint_equivalence"}),
    "metric_stack": (verify, {"three_way_agreement", "sphere_metrics", "degeneracy",
                              "spin1_superposition", "oracle_quality"}),
}


@pytest.mark.parametrize("route", sorted(NAN_ROUTES))
def test_a_nan_route_fails_its_checks(monkeypatch, route):
    # a NaN residual must reach its gate and fail, not drop out of a running max
    module, readers = NAN_ROUTES[route]
    real = getattr(module, route)
    monkeypatch.setattr(module, route, lambda *args: np.full_like(real(*args), np.nan))
    results = verify.run_checks()
    assert {r.check_id for r in results if not r.passed} == readers
    assert all("nan" in r.detail for r in results if r.check_id in readers)


def test_euler_bridge_sees_a_small_leak(monkeypatch):
    # a coupling below the SubspaceLeak threshold must still fail the check
    orig = models.two_spin_generators

    def leaky(variant, eta=0.0, chi=0.0):
        a1, a2, a3 = orig(variant, eta, chi)
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = bad[1, 0] = 1e-11
        return a1 + bad, a2, a3

    models._dm_xx_circuit()  # cache the real circuit; the leak is in H only
    monkeypatch.setattr(models, "two_spin_generators", leaky)
    result = verify.check_euler_bridge()
    assert not result.passed
    assert _numbers(result.detail)[0] > 1e-12


def test_euler_bridge_fits_no_model_per_sample(monkeypatch):
    # the dm_xx circuit holds no Hamiltonian coefficient: it is fitted once
    # and every report, whatever its spec, reuses it
    models._dm_xx_circuit()

    def refit(spec):
        raise AssertionError("two_spin_model called per sample")

    monkeypatch.setattr(models, "two_spin_model", refit)
    assert verify.check_euler_bridge().passed


def test_oscillator_flat_builds_only_n2(monkeypatch):
    # n = 0 and n = 1 come from the shared catalog; only n = 2 is built
    built = []
    orig = verify.oscillator_model

    def counting(spec):
        built.append(spec.n)
        return orig(spec)

    monkeypatch.setattr(verify, "oscillator_model", counting)
    result = verify.check_oscillator_flat(CATALOG)
    assert result.passed and built == [2]
