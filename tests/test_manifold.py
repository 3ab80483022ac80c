import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import liealg, manifold, oracle, verify
from statemetric.errors import (
    DimensionMismatch,
    DuplicateParameter,
    MissingParameter,
    NonFiniteAngle,
    NotClosed,
    StatemetricError,
)
from statemetric.liealg import LieAlgebraRep, extract_structure_constants
from statemetric.manifold import (
    CircuitSpec,
    _tangent_stack,
    build_unitary,
    derivative_metric_batch,
    evolve_batch,
    metric_batch,
    projector_metric,
)
from statemetric.models import (
    OSCILLATOR_PARAM_BOUND,
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
)

from statemetric.verify import catalog

SQ2 = np.sqrt(2)
CATALOG = catalog()


@pytest.fixture(scope="module")
def half():
    return spin_model(SpinModelSpec(s=0.5, m=0.5))


@pytest.fixture(scope="module")
def one_m0():
    return spin_model(SpinModelSpec(s=1, m=0))


def state_at(circuit, point, psi_i):
    """The evolved state at one point: a batch of one."""
    return evolve_batch(circuit, circuit.angles(point)[None], psi_i)[0]


def tangent_rows(circuit, point, psi_i):
    """d psi/d theta_j at one point: the derivative rows of ``_tangent_stack``."""
    return _tangent_stack(circuit, circuit.angles(point)[None], psi_i)[:-1, 0]


def tilde_metric(circuit, point, psi_i, gamma=1.0):
    """The kernel, gamma^2 Re(C^* K C^T) from the tilde coefficients, at one point."""
    return metric_batch(circuit, circuit.angles(point)[None], psi_i, gamma)[0]


def departure_from_unitary(U):
    return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))


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
        with pytest.raises(DuplicateParameter, match="'a' drives more than one factor"):
            CircuitSpec(half.rep, (("Sz", "a"), ("Sx", "a")))

    def test_nonfinite_angle_rejected(self, half):
        with pytest.raises(ValueError):
            half.circuit.angles({"theta_1": np.nan, "theta_2": 0.0, "theta_3": 0.0})

    def test_nonfinite_angle_is_a_domain_error(self, half):
        with pytest.raises(StatemetricError, match="finite"):
            half.circuit.angles({"theta_1": 0.0, "theta_2": np.inf, "theta_3": 0.0})
        with pytest.raises(StatemetricError, match="finite"):
            half.circuit.angle_batch([[0.0, 0.0, np.nan]])

    @pytest.mark.parametrize("s,angle", [(1.5, 1.7e308), (1.5, -1.7e308), (2, 1e308)])
    def test_overflowing_phase_rejected(self, s, angle):
        # finite angles whose phase theta * w, w = s an eigenvalue of S_x, overflows
        circuit = spin_model(SpinModelSpec(s=s, m=0.5 if s == 1.5 else 0)).circuit
        circuit.angle_batch([[0.0, np.finfo(float).max / (2 * s), 0.0]])  # a finite phase
        with pytest.raises(NonFiniteAngle, match=re.escape(f"parameter 'theta_2': angle {angle!r} ")):
            circuit.angle_batch([[0.0, 0.0, 0.0], [0.0, angle, 0.0]])


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
            assert departure_from_unitary(build_unitary(one_m0.circuit, pt)) <= 1e-12


class TestEvolve:
    def test_pi_rotation_flips_spin(self, half):
        psi = state_at(half.circuit, {"theta_1": 0.0, "theta_2": np.pi, "theta_3": 0.0},
                       [1.0, 0.0])
        assert abs(abs(psi[1]) - 1.0) <= 1e-12
        assert abs(psi[0]) <= 1e-12

    def test_norm_preserved(self, one_m0):
        for pt in rand_points(one_m0, 5, 29):
            psi = state_at(one_m0.circuit, pt, one_m0.initial_state)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_dimension_mismatch(self, half):
        with pytest.raises(DimensionMismatch):
            state_at(half.circuit, dict.fromkeys(half.parameter_names, 0.0), [1, 0, 0])


class TestBatches:
    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_evolve_batch_rows_equal_unitary_on_state(self, key):
        model = CATALOG[key]
        names = model.parameter_names
        angles = np.random.default_rng(61).uniform(-1.0, 1.0, (6, len(names)))
        states = evolve_batch(model.circuit, angles, model.initial_state)
        assert states.shape == (6, model.rep.dim)
        for row, a in zip(states, angles):
            U = build_unitary(model.circuit, dict(zip(names, a)))
            assert np.max(np.abs(row - U @ model.initial_state)) <= 1e-14

    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_tilde_metric_rows_equal_point_calls(self, key):
        model = CATALOG[key]
        names = model.parameter_names
        angles = np.random.default_rng(67).uniform(-1.0, 1.0, (5, len(names)))
        batch = metric_batch(model.circuit, angles, model.initial_state, model.gamma)
        for row, a in zip(batch, angles):
            g = tilde_metric(model.circuit, dict(zip(names, a)),
                             model.initial_state, model.gamma)
            assert np.max(np.abs(row - g)) <= 1e-14

    @pytest.mark.parametrize("kernel", [metric_batch, oracle.fd_metric_batch,
                                        oracle.fidelity_metric_batch],
                             ids=["metric", "fd", "fidelity"])
    def test_block_size_changes_no_bit(self, monkeypatch, kernel):
        model = CATALOG["two_spin_directional"]
        angles = np.random.default_rng(73).uniform(-1.0, 1.0, (7, 3))
        blocks = []
        for entries in (1, 2**40):  # one point per block; one block
            monkeypatch.setattr(manifold, "BLOCK_ENTRIES", entries)
            blocks.append(kernel(model.circuit, angles, model.initial_state, model.gamma))
        assert blocks[0].tobytes() == blocks[1].tobytes()

    def test_bad_angle_arrays(self, half):
        with pytest.raises(DimensionMismatch):
            evolve_batch(half.circuit, np.zeros((2, 2)), half.initial_state)
        with pytest.raises(ValueError):
            evolve_batch(half.circuit, np.array([[0.0, np.inf, 0.0]]), half.initial_state)
        with pytest.raises(DimensionMismatch):
            evolve_batch(half.circuit, np.zeros((2, 3)), [1.0, 0.0, 0.0])


class TestStateDerivatives:
    def test_overlap_with_state_is_tilde_expectation(self, one_m0):
        # <psi|d_j psi> = -i <psi_i|A~_j|psi_i>
        from statemetric.liealg import tilde_by_conjugation
        pt = {"theta_1": 0.3, "theta_2": 1.2, "theta_3": -0.4}
        psi = state_at(one_m0.circuit, pt, one_m0.initial_state)
        derivs = tangent_rows(one_m0.circuit, pt, one_m0.initial_state)
        tildes = tilde_by_conjugation(one_m0.rep, one_m0.circuit,
                                      one_m0.circuit.angles(pt)[None])[0]
        for d, T in zip(derivs, tildes):
            lhs = np.vdot(psi, d)
            rhs = -1j * np.vdot(one_m0.initial_state, T @ one_m0.initial_state)
            assert abs(lhs - rhs) <= 1e-12

    def test_matches_finite_differences_with_h2_convergence(self, one_m0):
        pt = {"theta_1": 0.5, "theta_2": 0.9, "theta_3": 1.4}
        derivs = tangent_rows(one_m0.circuit, pt, one_m0.initial_state)
        errs = []
        for h in (2e-3, 1e-3):
            worst = 0.0
            for k, name in enumerate(one_m0.parameter_names):
                up = dict(pt); up[name] += h
                dn = dict(pt); dn[name] -= h
                fd = (state_at(one_m0.circuit, up, one_m0.initial_state)
                      - state_at(one_m0.circuit, dn, one_m0.initial_state)) / (2 * h)
                worst = max(worst, float(np.max(np.abs(fd - derivs[k]))))
            errs.append(worst)
        assert errs[1] <= 1e-6
        # halving the step should cut the error by about four
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


class TestMetric:
    def test_spin_half_equator(self, half):
        # eigenstate sphere of radius 1/2: g = diag(R^2 sin^2 t2, R^2, 0)-like
        pt = {"theta_1": 0.0, "theta_2": np.pi / 2, "theta_3": 0.0}
        derivs = tangent_rows(half.circuit, pt, half.initial_state)
        psi = state_at(half.circuit, pt, half.initial_state)
        g = projector_metric(psi, np.stack(derivs))
        assert np.allclose(g, np.diag([0.25, 0.25, 0.0]), atol=1e-12)

    def test_fiber_direction_has_zero_length(self, half):
        # theta_3 rotates an S_z eigenstate by a phase only
        for pt in rand_points(half, 5, 31):
            g = tilde_metric(half.circuit, pt, half.initial_state)
            assert abs(g[2, 2]) <= 1e-12

    def test_two_routes_agree(self, one_m0):
        for pt in rand_points(one_m0, 10, 37):
            psi = state_at(one_m0.circuit, pt, one_m0.initial_state)
            derivs = tangent_rows(one_m0.circuit, pt, one_m0.initial_state)
            g1 = projector_metric(psi, np.stack(derivs))
            g2 = tilde_metric(one_m0.circuit, pt, one_m0.initial_state)
            assert np.max(np.abs(g1 - g2)) <= 1e-12

    def test_oscillator_ground_state(self):
        model = oscillator_model(OscillatorModelSpec())
        pt = {"theta": 0.3, "phi": -0.2}
        g = tilde_metric(model.circuit, pt, model.initial_state)
        # variances of |0>: <x^2> = <p^2> = 1/2 at m = omega = 1
        assert np.allclose(g, np.diag([0.5, 0.5]), atol=1e-10)

    def test_gauge_invariance(self, one_m0):
        pt = {"theta_1": 0.8, "theta_2": 1.1, "theta_3": -0.6}
        phase = np.exp(1j * 1.234)
        g1 = tilde_metric(one_m0.circuit, pt, one_m0.initial_state)
        g2 = tilde_metric(one_m0.circuit, pt, phase * one_m0.initial_state)
        assert np.max(np.abs(g1 - g2)) <= 1e-12

    def test_gamma_scale_law(self, one_m0):
        pt = {"theta_1": 0.2, "theta_2": 0.7, "theta_3": 1.9}
        g1 = tilde_metric(one_m0.circuit, pt, one_m0.initial_state, gamma=1.0)
        g2 = tilde_metric(one_m0.circuit, pt, one_m0.initial_state, gamma=2.0)
        assert np.max(np.abs(g2 - 4.0 * g1)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_positive_semidefinite(self, seed):
        model = spin_model(SpinModelSpec(s=1, coefficients=(0.6, 0.0, 0.8)))
        rng = np.random.default_rng(seed)
        pt = dict(zip(model.parameter_names, rng.uniform(-np.pi, np.pi, 3)))
        g = tilde_metric(model.circuit, pt, model.initial_state)
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    @pytest.mark.parametrize("s, m", [(20, 20), (20, -20), (20, 0), (20, 7),
                                      (40, 40), (40, -40), (40, 0), (40, -13)])
    def test_large_spin_eigenstate_sphere(self, s, m):
        # the closed form to the benchmark's SPIN_METRIC_TOL (1e-10); at s = 40
        # the worst of these reads 5e-11
        model = spin_model(SpinModelSpec(s=s, m=m, gamma=2.0))
        angles = np.random.default_rng(100 * s + m).uniform(-np.pi, np.pi, (200, 3))
        g = metric_batch(model.circuit, angles, model.initial_state, model.gamma)
        r2 = 0.5 * model.gamma**2 * (s * (s + 1) - m * m)
        want = np.zeros_like(g)
        want[:, 0, 0] = r2 * np.sin(angles[:, 1]) ** 2
        want[:, 1, 1] = r2
        assert np.max(np.abs(g - want)) <= 1e-10

    def test_metric_tensor_symmetrized(self):
        from statemetric.manifold import MetricTensor
        m = MetricTensor(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.array_equal(m.g, m.g.T)


class TestTildeRouteContract:
    """The kernel ``metric_batch`` is gamma^2 Re(C^* K C^T) over the algebra."""

    def test_dimension_mismatch(self, one_m0):
        with pytest.raises(DimensionMismatch):
            metric_batch(one_m0.circuit, np.full((1, 3), 0.1), [1.0, 0.0])

    def test_refuses_unclosed_rep(self):
        rep = spin_model(SpinModelSpec(s=0.5, m=0.5)).rep
        broken = LieAlgebraRep(rep.names, rep.generators, rep.constants,
                               closure_residual=1e-3)
        circuit = CircuitSpec(broken, ((rep.names[0], "a"), (rep.names[1], "b")))
        with pytest.raises(NotClosed):
            metric_batch(circuit, np.zeros((7, 2)), [1.0, 0.0])

    def test_row_does_not_depend_on_the_batch(self, one_m0):
        # each point carries its own phases through the same plans, so a
        # large angle elsewhere in the batch changes no bit of this row
        a = np.array([[0.1, 0.7, 0.3]])
        alone = metric_batch(one_m0.circuit, a, one_m0.initial_state)
        beside = metric_batch(one_m0.circuit, np.vstack([a, [[0.1, 1e6, 0.3]]]),
                              one_m0.initial_state)
        assert alone[0].tobytes() == beside[0].tobytes()

    @pytest.mark.parametrize("route", ["metric", "adjoint"])
    @pytest.mark.parametrize("theta", [1e300, 1e308])
    def test_large_angle_stays_bounded(self, one_m0, route, theta):
        # eigen-phases of modulus 1: the coefficients cannot grow with theta.
        # A RuntimeWarning on the way fails the test (pyproject filterwarnings)
        angles = np.array([[0.1, 0.7, 0.3], [0.1, theta, 0.3]])
        if route == "metric":
            g = metric_batch(one_m0.circuit, angles, one_m0.initial_state)
            diag = np.diagonal(g, axis1=1, axis2=2)
            assert np.all(diag >= -1e-15) and np.all(diag <= 1.0 + 1e-12)  # gamma rho = 1
        else:
            tildes = liealg.tilde_by_adjoint(one_m0.rep, one_m0.circuit, angles)
            assert np.all(np.isfinite(tildes))
            assert one_m0.rep.block_norm(tildes) <= 1.0 + 1e-12  # the spectrum of A_j

    def test_needs_no_conjugation(self, one_m0, monkeypatch):
        def refuse(*args):
            raise AssertionError("tilde_by_conjugation called")

        monkeypatch.setattr(liealg, "tilde_by_conjugation", refuse)
        angles = np.random.default_rng(71).uniform(-1.0, 1.0, (4, 3))
        g_t = metric_batch(one_m0.circuit, angles, one_m0.initial_state)
        g_d = derivative_metric_batch(one_m0.circuit, angles, one_m0.initial_state)
        assert np.max(np.abs(g_t - g_d)) <= 1e-13
        assert verify.check_three_way_agreement(CATALOG).passed


class TestReparametrization:
    @settings(max_examples=30, deadline=None)
    @given(key=st.sampled_from(sorted(CATALOG)), seed=st.integers(0, 2**32 - 1))
    def test_scaled_generators_give_c_g_c(self, key, seed):
        # exp(-i (theta / c) (c A)) = exp(-i theta A): scaling generator k by
        # c_k and its angles by 1 / c_k reaches the same states, in coordinates
        # where the metric is C g C with C = diag(c of each factor's generator)
        model = CATALOG[key]
        rep = model.rep
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.25, 4.0, rep.size) * rng.choice([-1.0, 1.0], rep.size)
        scaled = extract_structure_constants([ck * G for ck, G in zip(c, rep.generators)],
                                             rep.names, rep.active_dim)
        circuit = CircuitSpec(scaled, model.circuit.factors)
        cj = c[[rep.index(gname) for gname, _ in model.circuit.factors]]
        bound = OSCILLATOR_PARAM_BOUND if rep.active_dim else np.pi
        theta = rng.uniform(-bound, bound, (4, len(cj)))
        g = metric_batch(model.circuit, theta, model.initial_state, model.gamma)
        expected = cj[:, None] * g * cj
        tol = 1e-12 * max(1.0, float(np.max(np.abs(g))))
        for route in (metric_batch, derivative_metric_batch):
            got = route(circuit, theta / cj, model.initial_state, model.gamma)
            assert np.max(np.abs(got - expected)) <= tol, route.__name__


SPIN_40 = spin_model(SpinModelSpec(s=40, m=3, gamma=2.0))
LARGE_ANGLE_MODELS = {**CATALOG, "spin_40": SPIN_40}


class TestLargeAngles:
    """Eigen-phases have modulus 1, and a finite series only grows on the
    central generator, whose K row is zero: no accepted angle gives an
    unbounded metric."""

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(sorted(LARGE_ANGLE_MODELS)), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(0.0, 300.0))
    def test_diagonal_within_the_variance_bound(self, key, seed, exponent):
        # g_mm = gamma^2 Var(A~_m) in psi_i, and A~_m has the spectrum of A_m
        model = LARGE_ANGLE_MODELS[key]
        circuit = model.circuit
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-1.0, 1.0, (4, len(circuit.factors))) * 10.0**exponent
        circuit.angle_batch(angles)  # accepted: theta * w is finite up to 1e300
        g = metric_batch(circuit, angles, model.initial_state, model.gamma)
        bound = model.gamma**2 * circuit._spectral_radii**2
        diag = np.diagonal(g, axis1=1, axis2=2)
        assert np.all(diag >= -1e-12 * bound) and np.all(diag <= bound * (1 + 1e-12))

    @settings(max_examples=40, deadline=None)
    @given(key=st.sampled_from(sorted(k for k, m in LARGE_ANGLE_MODELS.items()
                                      if m.rep.active_dim is None)),
           seed=st.integers(0, 2**32 - 1), exponent=st.floats(0.0, 9.0))
    def test_routes_agree_to_the_angle_ulp(self, key, seed, exponent):
        # an angle is known to ulp(theta), a phase to ulp(theta) rho; the
        # worst of the catalog and spin 40 read 8 units of this bound
        model = LARGE_ANGLE_MODELS[key]
        circuit = model.circuit
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-1.0, 1.0, (4, len(circuit.factors))) * 10.0**exponent
        rho = float(np.max(circuit._spectral_radii))
        unit = model.gamma**2 * rho**2 * (np.spacing(np.max(np.abs(angles))) * rho
                                          + np.finfo(float).eps)
        g_k = metric_batch(circuit, angles, model.initial_state, model.gamma)
        g_d = derivative_metric_batch(circuit, angles, model.initial_state, model.gamma)
        assert np.max(np.abs(g_k - g_d)) <= 100 * unit


def su11_model(truncation=48, k=1.0):
    """The discrete series of su(1,1) with Bargmann index k, truncated:
    K0 |n> = (n + k) |n>, K+ |n> = sqrt((n + 1)(n + 2k)) |n + 1>, K1 and K2
    the Hermitian parts of K+, with [K1, K2] = -i K0, from |0>."""
    n = np.arange(truncation)
    raise_ = np.diag(np.sqrt((n[:-1] + 1) * (n[:-1] + 2 * k)), -1).astype(complex)
    k1 = (raise_ + raise_.conj().T) / 2
    k2 = (raise_ - raise_.conj().T) / 2j
    k0 = np.diag(n + k).astype(complex)
    rep = extract_structure_constants((k1, k2, k0), ("K1", "K2", "K0"),
                                      active_dim=truncation // 2)
    psi = np.zeros(truncation, dtype=complex)
    psi[0] = 1.0
    return CircuitSpec(rep, (("K1", "a"), ("K2", "b"), ("K0", "c"))), psi


class TestNonCompactAlgebra:
    def test_boost_takes_the_general_eigenbasis(self):
        # ad_K2 is not self-adjoint in any positive Gram metric: its plan
        # grows as exp(|theta|), from eigenvalues +-i
        circuit, _ = su11_model()
        rep = circuit.algebra
        boost, rotation = rep.adjoint_plan(rep.index("K2")), rep.adjoint_plan(rep.index("K0"))
        assert np.max(np.abs(boost.lam.imag)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rotation.lam.imag)) == 0.0

    def test_kernel_equals_the_derivative_route(self):
        # within angles where the truncation does not reach the last levels
        circuit, psi = su11_model()
        angles = np.random.default_rng(97).uniform(-0.5, 0.5, (20, 3))
        g_k = metric_batch(circuit, angles, psi)
        g_d = derivative_metric_batch(circuit, angles, psi)
        assert np.max(np.abs(g_k - g_d)) <= 1e-10
