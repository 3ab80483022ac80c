import numpy as np
import pytest

from statemetric import oracle
from statemetric.errors import DimensionMismatch, PointMismatch, StepOutOfRange
from statemetric.manifold import MetricTensor, metric_from_tilde
from statemetric.models import (
    OscillatorModelSpec,
    SpinModelSpec,
    TwoSpinModelSpec,
    oscillator_model,
    spin_model,
    two_spin_model,
)


def analytic(model, point):
    return metric_from_tilde(model.circuit, point, model.initial_state, model.gamma)


@pytest.fixture(scope="module")
def superpos():
    return spin_model(SpinModelSpec(s=1, coefficients=(0.6, 0.0, 0.8)))


class TestFdMetric:
    def test_matches_analytic_spin(self, superpos):
        rng = np.random.default_rng(41)
        for _ in range(5):
            pt = dict(zip(superpos.parameter_names, rng.uniform(-2, 2, 3)))
            rep = oracle.compare(analytic(superpos, pt),
                                 oracle.fd_metric(superpos.circuit, pt,
                                                  superpos.initial_state),
                                 tol=1e-6)
            assert rep.passed, rep.max_abs_diff

    def test_matches_analytic_oscillator(self):
        model = oscillator_model(OscillatorModelSpec(n=1))
        pt = {"theta": 0.4, "phi": -0.3}
        g = oracle.fd_metric(model.circuit, pt, model.initial_state).g
        assert np.allclose(g, np.diag([1.5, 1.5]), atol=1e-6)

    def test_second_order_convergence(self, superpos):
        pt = {"theta_1": 0.7, "theta_2": 1.1, "theta_3": -0.5}
        exact = analytic(superpos, pt).g
        errs = [np.max(np.abs(oracle.fd_metric(superpos.circuit, pt,
                                               superpos.initial_state, h=h).g - exact))
                for h in (4e-3, 2e-3, 1e-3)]
        for big, small in zip(errs, errs[1:]):
            assert big / small == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("h", [1e-7, 0.1, 0.0, -1e-4])
    def test_step_range_enforced(self, superpos, h):
        pt = dict.fromkeys(superpos.parameter_names, 0.1)
        with pytest.raises(StepOutOfRange):
            oracle.fd_metric(superpos.circuit, pt, superpos.initial_state, h=h)


class TestFidelityMetric:
    def test_agrees_with_fd(self, superpos):
        rng = np.random.default_rng(43)
        for _ in range(5):
            pt = dict(zip(superpos.parameter_names, rng.uniform(-2, 2, 3)))
            a = oracle.fd_metric(superpos.circuit, pt, superpos.initial_state)
            b = oracle.fidelity_metric(superpos.circuit, pt, superpos.initial_state)
            assert oracle.compare(a, b, tol=1e-5).passed

    def test_matches_analytic_two_spin(self):
        model = two_spin_model(TwoSpinModelSpec(variant="dm_xx", initial="up_down"))
        pt = {"theta_1": 0.9, "theta_2": 1.3, "theta_3": -0.2}
        rep = oracle.compare(analytic(model, pt),
                             oracle.fidelity_metric(model.circuit, pt,
                                                    model.initial_state),
                             tol=1e-6)
        assert rep.passed

    def test_gamma_scaling(self, superpos):
        pt = {"theta_1": 0.2, "theta_2": 0.8, "theta_3": 0.4}
        g1 = oracle.fidelity_metric(superpos.circuit, pt, superpos.initial_state,
                                    gamma=1.0).g
        g3 = oracle.fidelity_metric(superpos.circuit, pt, superpos.initial_state,
                                    gamma=3.0).g
        assert np.max(np.abs(g3 - 9.0 * g1)) <= 1e-12

    def test_step_range_enforced(self, superpos):
        pt = dict.fromkeys(superpos.parameter_names, 0.1)
        with pytest.raises(StepOutOfRange):
            oracle.fidelity_metric(superpos.circuit, pt, superpos.initial_state, h=1.0)


class TestCompare:
    def _metric(self, g, point, names=("a", "b")):
        return MetricTensor(np.asarray(g, dtype=float), 1.0, point, names)

    def test_reports_worst_component(self):
        a = self._metric([[1.0, 0.0], [0.0, 1.0]], {"a": 0.0, "b": 0.0})
        b = self._metric([[1.0, 0.0], [0.0, 1.5]], {"a": 0.0, "b": 0.0})
        rep = oracle.compare(a, b, tol=1e-6)
        assert not rep.passed
        assert rep.max_abs_diff == pytest.approx(0.5)
        assert rep.worst_component == (1, 1)

    def test_point_mismatch(self):
        a = self._metric(np.eye(2), {"a": 0.0, "b": 0.0})
        b = self._metric(np.eye(2), {"a": 1e-6, "b": 0.0})
        with pytest.raises(PointMismatch):
            oracle.compare(a, b, tol=1e-6)

    def test_name_mismatch(self):
        a = self._metric(np.eye(2), {"a": 0.0, "b": 0.0})
        b = self._metric(np.eye(2), {"a": 0.0, "c": 0.0}, names=("a", "c"))
        with pytest.raises(DimensionMismatch):
            oracle.compare(a, b, tol=1e-6)

    def test_identical_metrics_pass(self):
        a = self._metric(np.eye(2), {"a": 0.3, "b": 0.4})
        rep = oracle.compare(a, a, tol=0.0)
        assert rep.passed and rep.max_abs_diff == 0.0
