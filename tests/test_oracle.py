import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import manifold, oracle
from statemetric.errors import StepOutOfRange
from statemetric.geometry import metric_stack
from statemetric.manifold import tilde_metric_batch
from statemetric.models import (
    OSCILLATOR_PARAM_BOUND,
    OscillatorModelSpec,
    SpinModelSpec,
    TwoSpinModelSpec,
    oscillator_model,
    spin_model,
    two_spin_model,
)
from statemetric.verify import catalog

CATALOG = catalog()


def analytic(model, point):
    return tilde_metric_batch(model.circuit, model.circuit.angles(point)[None],
                              model.initial_state, model.gamma)[0]


def fd_at(circuit, point, psi_i, gamma=1.0, h=oracle.DEFAULT_STEP):
    return oracle.fd_metric(circuit, point, psi_i, gamma, h).g


def fidelity_at(circuit, point, psi_i, gamma=1.0, h=oracle.DEFAULT_STEP):
    """The fidelity oracle at one point: a batch of one."""
    return oracle.fidelity_metric_batch(circuit, circuit.angles(point)[None], psi_i, gamma, h)[0]


@pytest.fixture(scope="module")
def superpos():
    return spin_model(SpinModelSpec(s=1, coefficients=(0.6, 0.0, 0.8)))


class TestFdMetric:
    def test_matches_analytic_spin(self, superpos):
        rng = np.random.default_rng(41)
        for _ in range(5):
            pt = dict(zip(superpos.parameter_names, rng.uniform(-2, 2, 3)))
            g_fd = oracle.fd_metric(superpos.circuit, pt, superpos.initial_state).g
            diff = np.max(np.abs(analytic(superpos, pt) - g_fd))
            assert diff <= 1e-6, diff

    def test_matches_analytic_oscillator(self):
        model = oscillator_model(OscillatorModelSpec(n=1))
        pt = {"theta": 0.4, "phi": -0.3}
        g = oracle.fd_metric(model.circuit, pt, model.initial_state).g
        assert np.allclose(g, np.diag([1.5, 1.5]), atol=1e-6)

    def test_second_order_convergence(self, superpos):
        pt = {"theta_1": 0.7, "theta_2": 1.1, "theta_3": -0.5}
        exact = analytic(superpos, pt)
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
            a = fd_at(superpos.circuit, pt, superpos.initial_state)
            b = fidelity_at(superpos.circuit, pt, superpos.initial_state)
            assert np.max(np.abs(a - b)) <= 1e-5

    def test_matches_analytic_two_spin(self):
        model = two_spin_model(TwoSpinModelSpec(variant="dm_xx", initial="up_down"))
        pt = {"theta_1": 0.9, "theta_2": 1.3, "theta_3": -0.2}
        g = fidelity_at(model.circuit, pt, model.initial_state)
        assert np.max(np.abs(analytic(model, pt) - g)) <= 1e-6

    def test_gamma_scaling(self, superpos):
        pt = {"theta_1": 0.2, "theta_2": 0.8, "theta_3": 0.4}
        g1 = fidelity_at(superpos.circuit, pt, superpos.initial_state, gamma=1.0)
        g3 = fidelity_at(superpos.circuit, pt, superpos.initial_state, gamma=3.0)
        assert np.max(np.abs(g3 - 9.0 * g1)) <= 1e-12

    def test_step_range_enforced(self, superpos):
        pt = dict.fromkeys(superpos.parameter_names, 0.1)
        with pytest.raises(StepOutOfRange):
            fidelity_at(superpos.circuit, pt, superpos.initial_state, h=1.0)


# a row of a batch may differ from its batch-of-one call only by the rounding
# of the states, which the oracles amplify by 1/h and 1/h^2
BATCH_ROW_TOL = {"fd": 1e-12, "fidelity": 1e-7}
ORACLES = {"fd": (oracle.fd_metric_batch, fd_at),
           "fidelity": (oracle.fidelity_metric_batch, fidelity_at)}


class TestBatches:
    @pytest.mark.parametrize("kind", sorted(ORACLES))
    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_rows_equal_batch_of_one(self, key, kind):
        model = CATALOG[key]
        batch_fn, point_fn = ORACLES[kind]
        names = model.parameter_names
        angles = np.random.default_rng(71).uniform(-1.0, 1.0, (5, len(names)))
        batch = batch_fn(model.circuit, angles, model.initial_state, model.gamma)
        assert batch.shape == (5, len(names), len(names))
        for row, a in zip(batch, angles):
            g = point_fn(model.circuit, dict(zip(names, a)), model.initial_state,
                         model.gamma)
            assert np.max(np.abs(row - g)) <= BATCH_ROW_TOL[kind]

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_blocks_bound_the_shifted_states(self, monkeypatch, superpos, kind):
        # 10 points in blocks of 4: three evolve calls of at most 4 points'
        # shifted states each, and the same rows as one unblocked call
        batch_fn = ORACLES[kind][0]
        angles = np.random.default_rng(5).uniform(-1.0, 1.0, (10, 3))
        whole = batch_fn(superpos.circuit, angles, superpos.initial_state)
        sizes = []

        def counting(circuit, shifted, psi_i):
            sizes.append(len(shifted))
            return manifold.evolve_batch(circuit, shifted, psi_i)

        monkeypatch.setattr(manifold, "BLOCK_NODES", 4)
        monkeypatch.setattr(oracle, "evolve_batch", counting)
        blocked = batch_fn(superpos.circuit, angles, superpos.initial_state)
        per_point = sizes[-1] // 2
        assert sizes == [4 * per_point, 4 * per_point, 2 * per_point]
        assert np.max(np.abs(blocked - whole)) <= BATCH_ROW_TOL[kind]

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_step_range_enforced(self, superpos, kind):
        with pytest.raises(StepOutOfRange):
            ORACLES[kind][0](superpos.circuit, np.zeros((2, 3)), superpos.initial_state,
                             h=1.0)

    @settings(max_examples=30, deadline=None)
    @given(key=st.sampled_from(sorted(CATALOG)), seed=st.integers(0, 2**32 - 1),
           count=st.integers(1, 8))
    def test_fd_batch_matches_kernel(self, key, seed, count):
        model = CATALOG[key]
        bound = OSCILLATOR_PARAM_BOUND if model.rep.active_dim else np.pi
        angles = np.random.default_rng(seed).uniform(
            -bound, bound, (count, len(model.parameter_names)))
        g_fd = oracle.fd_metric_batch(model.circuit, angles, model.initial_state,
                                      model.gamma)
        assert np.max(np.abs(g_fd - metric_stack(model, angles))) <= 1e-6

