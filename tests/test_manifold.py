import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import linalg
from statemetric.errors import DimensionMismatch, MissingParameter
from statemetric.manifold import (
    CircuitSpec,
    build_unitary,
    evolve,
    local_basis_vectors,
    metric_from_derivatives,
    metric_from_tilde,
    state_derivatives,
)
from statemetric.models import (
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
)

SQ2 = np.sqrt(2)


@pytest.fixture(scope="module")
def half():
    return spin_model(SpinModelSpec(s=0.5, m=0.5))


@pytest.fixture(scope="module")
def one_m0():
    return spin_model(SpinModelSpec(s=1, m=0))


def rand_points(model, count, seed):
    rng = np.random.default_rng(seed)
    return [dict(zip(model.parameter_names, rng.uniform(-np.pi, np.pi, len(model.parameter_names))))
            for _ in range(count)]


class TestCircuitSpec:
    def test_parameter_names_in_factor_order(self, half):
        assert half.circuit.parameter_names == ("theta_1", "theta_2", "theta_3")

    def test_missing_parameter(self, half):
        with pytest.raises(MissingParameter, match="theta_3"):
            half.circuit.angles({"theta_1": 0.0, "theta_2": 0.0})

    def test_duplicate_parameter_rejected(self, half):
        with pytest.raises(ValueError):
            CircuitSpec(half.rep, (("Sz", "a"), ("Sx", "a")))

    def test_nonfinite_angle_rejected(self, half):
        with pytest.raises(ValueError):
            half.circuit.angles({"theta_1": np.nan, "theta_2": 0.0, "theta_3": 0.0})


class TestBuildUnitary:
    def test_zero_point_is_identity(self, half):
        U = build_unitary(half.circuit, dict.fromkeys(half.parameter_names, 0.0))
        assert np.max(np.abs(U - np.eye(2))) <= 1e-14

    def test_frozen_spin_half_value(self, half):
        # exp(-i pi/2 Sz) exp(-i pi/2 Sx) written out by hand
        U = build_unitary(half.circuit, {"theta_1": np.pi / 2, "theta_2": np.pi / 2,
                                         "theta_3": 0.0})
        expected = np.array([[0.5 - 0.5j, -0.5 - 0.5j],
                             [0.5 - 0.5j, 0.5 + 0.5j]])
        assert np.max(np.abs(U - expected)) <= 1e-12

    def test_order_matters(self, half):
        swapped = CircuitSpec(half.rep, (("Sx", "theta_2"), ("Sz", "theta_1")))
        pt = {"theta_1": 0.7, "theta_2": 1.1}
        forward = CircuitSpec(half.rep, (("Sz", "theta_1"), ("Sx", "theta_2")))
        assert np.max(np.abs(build_unitary(forward, pt) - build_unitary(swapped, pt))) > 0.1

    def test_unitarity(self, one_m0):
        for pt in rand_points(one_m0, 5, 23):
            assert linalg.unitarity_defect(build_unitary(one_m0.circuit, pt)) <= 1e-12


class TestEvolve:
    def test_pi_rotation_flips_spin(self, half):
        psi = evolve(half.circuit, {"theta_1": 0.0, "theta_2": np.pi, "theta_3": 0.0},
                     [1.0, 0.0])
        assert abs(abs(psi[1]) - 1.0) <= 1e-12
        assert abs(psi[0]) <= 1e-12

    def test_norm_preserved(self, one_m0):
        for pt in rand_points(one_m0, 5, 29):
            psi = evolve(one_m0.circuit, pt, one_m0.initial_state)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_dimension_mismatch(self, half):
        with pytest.raises(DimensionMismatch):
            evolve(half.circuit, dict.fromkeys(half.parameter_names, 0.0), [1, 0, 0])


class TestStateDerivatives:
    def test_overlap_with_state_is_tilde_expectation(self, one_m0):
        # <psi|d_j psi> = -i <psi_i|A~_j|psi_i>
        from statemetric.liealg import tilde_by_conjugation
        pt = {"theta_1": 0.3, "theta_2": 1.2, "theta_3": -0.4}
        psi = evolve(one_m0.circuit, pt, one_m0.initial_state)
        derivs = state_derivatives(one_m0.circuit, pt, one_m0.initial_state)
        tildes = tilde_by_conjugation(one_m0.rep, one_m0.circuit, pt)
        for d, T in zip(derivs, tildes):
            lhs = np.vdot(psi, d)
            rhs = -1j * linalg.expectation(one_m0.initial_state, T)
            assert abs(lhs - rhs) <= 1e-12

    def test_matches_finite_differences_with_h2_convergence(self, one_m0):
        pt = {"theta_1": 0.5, "theta_2": 0.9, "theta_3": 1.4}
        derivs = state_derivatives(one_m0.circuit, pt, one_m0.initial_state)
        errs = []
        for h in (2e-3, 1e-3):
            worst = 0.0
            for k, name in enumerate(one_m0.parameter_names):
                up = dict(pt); up[name] += h
                dn = dict(pt); dn[name] -= h
                fd = (evolve(one_m0.circuit, up, one_m0.initial_state)
                      - evolve(one_m0.circuit, dn, one_m0.initial_state)) / (2 * h)
                worst = max(worst, float(np.max(np.abs(fd - derivs[k]))))
            errs.append(worst)
        assert errs[1] <= 1e-6
        # halving the step should cut the error by about four
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


class TestMetric:
    def test_spin_half_equator(self, half):
        # eigenstate sphere of radius 1/2: g = diag(R^2 sin^2 t2, R^2, 0)-like
        pt = {"theta_1": 0.0, "theta_2": np.pi / 2, "theta_3": 0.0}
        derivs = state_derivatives(half.circuit, pt, half.initial_state)
        psi = evolve(half.circuit, pt, half.initial_state)
        g = metric_from_derivatives(psi, derivs).g
        assert np.allclose(g, np.diag([0.25, 0.25, 0.0]), atol=1e-12)

    def test_fiber_direction_has_zero_length(self, half):
        # theta_3 rotates an S_z eigenstate by a phase only
        for pt in rand_points(half, 5, 31):
            g = metric_from_tilde(half.circuit, pt, half.initial_state).g
            assert abs(g[2, 2]) <= 1e-12

    def test_two_routes_agree(self, one_m0):
        for pt in rand_points(one_m0, 10, 37):
            psi = evolve(one_m0.circuit, pt, one_m0.initial_state)
            derivs = state_derivatives(one_m0.circuit, pt, one_m0.initial_state)
            g1 = metric_from_derivatives(psi, derivs, point=pt,
                                         parameter_names=one_m0.parameter_names).g
            g2 = metric_from_tilde(one_m0.circuit, pt, one_m0.initial_state).g
            assert np.max(np.abs(g1 - g2)) <= 1e-12

    def test_oscillator_ground_state(self):
        model = oscillator_model(OscillatorModelSpec())
        pt = {"theta": 0.3, "phi": -0.2}
        g = metric_from_tilde(model.circuit, pt, model.initial_state).g
        # variances of |0>: <x^2> = <p^2> = 1/2 at m = omega = 1
        assert np.allclose(g, np.diag([0.5, 0.5]), atol=1e-10)

    def test_gauge_invariance(self, one_m0):
        pt = {"theta_1": 0.8, "theta_2": 1.1, "theta_3": -0.6}
        phase = np.exp(1j * 1.234)
        g1 = metric_from_tilde(one_m0.circuit, pt, one_m0.initial_state).g
        g2 = metric_from_tilde(one_m0.circuit, pt, phase * one_m0.initial_state).g
        assert np.max(np.abs(g1 - g2)) <= 1e-12

    def test_gamma_scale_law(self, one_m0):
        pt = {"theta_1": 0.2, "theta_2": 0.7, "theta_3": 1.9}
        g1 = metric_from_tilde(one_m0.circuit, pt, one_m0.initial_state, gamma=1.0).g
        g2 = metric_from_tilde(one_m0.circuit, pt, one_m0.initial_state, gamma=2.0).g
        assert np.max(np.abs(g2 - 4.0 * g1)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_positive_semidefinite(self, seed):
        model = spin_model(SpinModelSpec(s=1, coefficients=(0.6, 0.0, 0.8)))
        rng = np.random.default_rng(seed)
        pt = dict(zip(model.parameter_names, rng.uniform(-np.pi, np.pi, 3)))
        g = metric_from_tilde(model.circuit, pt, model.initial_state).g
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    def test_metric_tensor_symmetrized(self):
        from statemetric.manifold import MetricTensor
        m = MetricTensor(np.array([[1.0, 2.0], [0.0, 3.0]]), 1.0, {}, ("a", "b"))
        assert np.array_equal(m.g, m.g.T)


class TestLocalBasisVectors:
    def test_orthogonal_to_initial_state(self, one_m0):
        pt = {"theta_1": 0.4, "theta_2": 1.0, "theta_3": -1.1}
        for v in local_basis_vectors(one_m0.circuit, pt, one_m0.initial_state):
            assert abs(np.vdot(one_m0.initial_state, v).real) <= 1e-12

    def test_gram_matrix_real_part_is_metric(self, one_m0):
        pt = {"theta_1": -0.9, "theta_2": 0.6, "theta_3": 0.3}
        vs = local_basis_vectors(one_m0.circuit, pt, one_m0.initial_state)
        W = np.stack(vs, axis=1)
        g = metric_from_tilde(one_m0.circuit, pt, one_m0.initial_state).g
        assert np.max(np.abs((W.conj().T @ W).real - g)) <= 1e-12

    def test_dimension_mismatch(self, one_m0):
        with pytest.raises(DimensionMismatch):
            local_basis_vectors(one_m0.circuit,
                                dict.fromkeys(one_m0.parameter_names, 0.1), [1.0, 0.0])
