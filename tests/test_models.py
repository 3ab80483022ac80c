import numpy as np
import pytest

from statemetric import oracle
from statemetric.errors import (
    BadNormalization,
    BadVariant,
    InvalidOscillator,
    InvalidSpin,
    NonFiniteAngle,
    SubspaceLeak,
    TruncationTooSmall,
    UnknownModel,
)
from statemetric.geometry import metric_stack
from statemetric.manifold import build_unitary
from statemetric.models import (
    MAX_HILBERT_DIM,
    MODEL_IDS,
    OscillatorModelSpec,
    SpinModelSpec,
    TwoSpinModelSpec,
    build_model,
    euler_bridge_report,
    euler_from_time,
    oscillator_model,
    spin_model,
    spin_operators,
    two_spin_generators,
    two_spin_model,
)


def point_metric(model, point):
    """The analytic metric at one point: a batch of one."""
    return metric_stack(model, model.circuit.angles(point)[None])[0]


class TestSpinOperators:
    def test_spin_half_matrices(self):
        sx, sy, sz = spin_operators(0.5)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(sz, [[0.5, 0], [0, -0.5]])

    def test_spin_one_sz_and_ladder(self):
        sx, _, sz = spin_operators(1)
        assert np.allclose(np.diag(sz), [1, 0, -1])
        assert np.allclose(sx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2))

    @pytest.mark.parametrize("s", [0.5, 1, 1.5, 2, 2.5, 3])
    def test_commutation_and_casimir(self, s):
        sx, sy, sz = spin_operators(s)
        assert np.max(np.abs((sx @ sy - sy @ sx) - 1j * sz)) <= 1e-12
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(casimir, s * (s + 1) * np.eye(sx.shape[0]), atol=1e-12)

    def test_invalid_spin(self):
        with pytest.raises(InvalidSpin):
            spin_operators(0.7)
        with pytest.raises(InvalidSpin):
            spin_operators(0)

    @pytest.mark.parametrize("s", [MAX_HILBERT_DIM / 2, 1e9, 1e300, 1e308])  # 2s = inf at 1e308
    def test_dimension_above_maximum(self, s):
        with pytest.raises(InvalidSpin, match="maximum"):
            spin_operators(s)
        with pytest.raises(InvalidSpin, match="maximum"):
            spin_model(SpinModelSpec(s=s, m=0.5))


class TestSpinModel:
    def test_eigenstate_sphere_metric(self):
        # g = diag(R^2 sin^2 t2, R^2, 0) with R^2 = (s(s+1) - m^2)/2
        model = spin_model(SpinModelSpec(s=1.5, m=0.5))
        R2 = (1.5 * 2.5 - 0.25) / 2
        t2 = 1.2
        g = point_metric(model, {"theta_1": 0.4, "theta_2": t2, "theta_3": -0.9})
        assert np.allclose(g, np.diag([R2 * np.sin(t2) ** 2, R2, 0.0]), atol=1e-12)

    def test_gamma_rescales_radius(self):
        model = spin_model(SpinModelSpec(s=0.5, m=0.5, gamma=3.0))
        g = point_metric(model, {"theta_1": 0.0, "theta_2": np.pi / 2, "theta_3": 0.0})
        assert g[1, 1] == pytest.approx(9.0 * 0.25, abs=1e-12)

    def test_coefficient_order_is_ascending_m(self):
        # coefficients (1, 0, 0) means pure m = -s, i.e. the last basis vector
        model = spin_model(SpinModelSpec(s=1, coefficients=(1.0, 0.0, 0.0)))
        assert np.allclose(model.initial_state, [0, 0, 1])

    def test_superposition_rank_matches_operator_variances(self):
        # C_{-1} = C_1 = 1/sqrt2 is annihilated by S_y, so one tangent
        # direction collapses and the metric cannot reach full rank
        model = spin_model(SpinModelSpec(s=1, coefficients=(1 / np.sqrt(2), 0.0,
                                                            1 / np.sqrt(2))))
        sy = model.rep.generator("Sy")
        assert np.max(np.abs(sy @ model.initial_state)) <= 1e-12
        g = point_metric(model, {"theta_1": 0.7, "theta_2": 0.3, "theta_3": 1.1})
        assert np.linalg.matrix_rank(g, tol=1e-10) == 2

    def test_invalid_m(self):
        with pytest.raises(InvalidSpin):
            spin_model(SpinModelSpec(s=1, m=0.5))

    def test_unnormalized_coefficients(self):
        with pytest.raises(BadNormalization):
            spin_model(SpinModelSpec(s=0.5, coefficients=(1.0, 1.0)))

    def test_norm_message_shows_a_plain_float(self):
        coeffs = (0.1, 0.2j, 0.3, -0.4, 0.5 + 0.1j)
        with pytest.raises(BadNormalization) as exc:
            spin_model(SpinModelSpec(s=2, coefficients=coeffs))
        assert str(exc.value) == ("state norm 0.7483314773547883 deviates from 1 "
                                  "by more than 1e-12")

    def test_missing_initial_state(self):
        with pytest.raises(BadNormalization):
            spin_model(SpinModelSpec(s=0.5))

    @pytest.mark.parametrize("m", [1, -1])
    def test_m_with_coefficients(self, m):
        with pytest.raises(BadNormalization, match="either m or a coefficient list, not both"):
            spin_model(SpinModelSpec(s=1, m=m, coefficients=(0, 0, 1)))


class TestOscillatorModel:
    @pytest.mark.parametrize("n,diag", [(0, 0.5), (1, 1.5), (2, 2.5)])
    def test_flat_metric_level_n(self, n, diag):
        model = oscillator_model(OscillatorModelSpec(n=n))
        g = point_metric(model, {"theta": 0.3, "phi": -0.4})
        assert np.allclose(g, np.diag([diag, diag]), atol=1e-10)

    def test_mass_frequency_scaling(self):
        # <x^2> = (2n+1)/(2 m w), <p^2> = m w (2n+1)/2 in level n
        model = oscillator_model(OscillatorModelSpec(mass=2.0, omega=3.0, n=1))
        g = point_metric(model, {"theta": 0.0, "phi": 0.0})
        assert g[0, 0] == pytest.approx(3 / 12, abs=1e-10)
        assert g[1, 1] == pytest.approx(9.0, abs=1e-10)
        assert abs(g[0, 1]) <= 1e-10

    def test_commutator_exact_below_edge(self):
        model = oscillator_model(OscillatorModelSpec())
        x = model.rep.generator("x")
        p = model.rep.generator("p")
        N = x.shape[0]
        com = x @ p - p @ x
        assert np.allclose(com[: N - 1, : N - 1], 1j * np.eye(N - 1), atol=1e-12)
        # the defect lives entirely in the last diagonal entry
        assert com[N - 1, N - 1] == pytest.approx(1j * (1 - N), abs=1e-9)

    def test_truncation_too_small(self):
        with pytest.raises(TruncationTooSmall):
            oscillator_model(OscillatorModelSpec(n=10, truncation=14))

    @pytest.mark.parametrize("truncation", [MAX_HILBERT_DIM + 1, 10**9])
    def test_truncation_above_maximum(self, truncation):
        with pytest.raises(InvalidOscillator, match="maximum"):
            oscillator_model(OscillatorModelSpec(truncation=truncation))

    def test_invalid_physical_constants(self):
        for spec in (OscillatorModelSpec(mass=-1.0), OscillatorModelSpec(omega=0.0),
                     OscillatorModelSpec(mass=float("nan")),
                     OscillatorModelSpec(omega=float("inf")), OscillatorModelSpec(n=-1),
                     # the product overflows or underflows
                     OscillatorModelSpec(mass=1e200, omega=1e200),
                     OscillatorModelSpec(mass=1e-200, omega=1e-200)):
            with pytest.raises(InvalidOscillator):
                oscillator_model(spec)


class TestTwoSpinGenerators:
    def test_site_operators_built_once_and_read_only(self):
        from statemetric.models import _site_ops
        first, second = _site_ops()
        assert _site_ops() is _site_ops()
        for op in first + second:
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 1.0

    @pytest.mark.parametrize("variant", ["dm_xx", "sum"])
    def test_so3_brackets(self, variant):
        a1, a2, a3 = two_spin_generators(variant)
        assert np.max(np.abs((a1 @ a2 - a2 @ a1) - 1j * a3)) <= 1e-12
        assert np.max(np.abs((a2 @ a3 - a3 @ a2) - 1j * a1)) <= 1e-12
        assert np.max(np.abs((a3 @ a1 - a1 @ a3) - 1j * a2)) <= 1e-12

    def test_directional_reduces_to_z_axis(self):
        for a, b in zip(two_spin_generators("directional", eta=0.0, chi=0.0),
                        two_spin_generators("dm_xx")):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_directional_so3_generic_axis(self):
        a1, a2, a3 = two_spin_generators("directional", eta=1.1, chi=2.3)
        assert np.max(np.abs((a1 @ a2 - a2 @ a1) - 1j * a3)) <= 1e-12

    def test_unknown_variant(self):
        with pytest.raises(BadVariant):
            two_spin_generators("xyz")


class TestTwoSpinModel:
    def test_dm_xx_sphere_radius_half(self):
        model = two_spin_model(TwoSpinModelSpec(variant="dm_xx", initial="up_down"))
        t2 = 0.9
        g = point_metric(model, {"theta_1": 0.2, "theta_2": t2, "theta_3": 0.5})
        assert np.allclose(g, np.diag([0.25 * np.sin(t2) ** 2, 0.25, 0.0]), atol=1e-12)

    def test_sum_variant_up_up(self):
        model = two_spin_model(TwoSpinModelSpec(variant="sum", initial="up_up"))
        g = point_metric(model, {"theta_1": 0.1, "theta_2": np.pi / 2, "theta_3": 0.8})
        assert g[1, 1] == pytest.approx(0.25, abs=1e-12)

    def test_directional_bloch_initial(self):
        model = two_spin_model(TwoSpinModelSpec(variant="directional", eta=np.pi / 2,
                                                chi=0.0, initial="plus_minus"))
        assert abs(np.linalg.norm(model.initial_state) - 1.0) <= 1e-12
        g = point_metric(model, {"theta_1": 0.3, "theta_2": 1.0, "theta_3": 0.2})
        assert np.linalg.matrix_rank(g, tol=1e-10) == 2

    def test_explicit_amplitudes(self):
        model = two_spin_model(TwoSpinModelSpec(initial=(0.0, 1.0, 0.0, 0.0)))
        assert np.allclose(model.initial_state, [0, 1, 0, 0])

    def test_bad_initial(self):
        with pytest.raises(BadVariant):
            two_spin_model(TwoSpinModelSpec(initial="sideways"))
        with pytest.raises(BadNormalization):
            two_spin_model(TwoSpinModelSpec(initial=(1.0, 0.0)))

    @pytest.mark.parametrize("variant,initial,angles", [
        ("directional", "up_down", {"chi": np.inf}),
        ("sum", "up_up", {"eta": -np.inf}),
        ("dm_xx", "plus_minus", {"eta": np.nan}),
    ])
    def test_non_finite_direction_refused(self, variant, initial, angles):
        # before any trig function sees it, so no RuntimeWarning and no NaN state
        with pytest.raises(NonFiniteAngle, match="eta and chi must be finite"):
            two_spin_model(TwoSpinModelSpec(variant, initial=initial, **angles))


class TestEulerBridge:
    def test_t_zero_gives_identity_angles(self):
        t1, t2, t3 = euler_from_time(1.0, 0.5, 0.3, 0.0)
        assert abs(t1) <= 1e-12 and abs(t2) <= 1e-12 and abs(t3) <= 1e-12

    def test_angle_difference_encodes_coupling_ratio(self):
        t1, _, t3 = euler_from_time(0.8, -0.6, 0.4, 0.7)
        assert np.tan((t1 - t3) / 2) == pytest.approx(-0.6 / 0.8, abs=1e-10)

    def test_circuit_reproduces_subspace_block(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            j1 = rng.uniform(0.3, 1.5) * rng.choice([-1, 1])
            report = euler_bridge_report(j1, rng.uniform(-1, 1), rng.uniform(-1, 1),
                                         rng.uniform(0.1, 2.0))
            assert report["block_mismatch"] <= 1e-10
            assert report["tan_residual"] <= 1e-8 or np.isnan(report["tan_residual"])

    def test_gauge_ranges(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            t1, t2, t3 = euler_from_time(rng.uniform(0.2, 1.0), rng.uniform(-1, 1),
                                         rng.uniform(-1, 1), rng.uniform(0.0, 3.0))
            assert 0.0 <= t2 <= np.pi
            assert -np.pi < t1 <= np.pi and -np.pi < t3 <= np.pi

    def test_evolution_frequency(self):
        # the subspace block of exp(-iHt) returns to +/- identity when
        # 2 omega t = 2 pi with omega = sqrt(hz^2 + J1^2 + J2^2)/2
        omega = np.sqrt(0.9**2 + 0.6**2 + 0.3**2) / 2
        t1, t2, t3 = euler_from_time(0.6, 0.3, 0.9, np.pi / omega)
        U = build_unitary(two_spin_model(TwoSpinModelSpec("dm_xx")).circuit,
                          {"theta_1": t1, "theta_2": t2, "theta_3": t3})
        B = U[1:3, 1:3]
        off = max(abs(B[0, 1]), abs(B[1, 0]))
        assert off <= 1e-10
        assert abs(abs(B[0, 0]) - 1.0) <= 1e-10

    def test_subspace_leak_detected(self, monkeypatch):
        # perturb the Hamiltonian so it couples |ud>/|du> to the complement
        import statemetric.models as models_mod

        orig = models_mod.two_spin_generators

        def leaky(variant, eta=0.0, chi=0.0):
            a1, a2, a3 = orig(variant, eta, chi)
            bad = np.zeros((4, 4), dtype=complex)
            bad[0, 1] = bad[1, 0] = 0.05
            return a1 + bad, a2, a3

        monkeypatch.setattr(models_mod, "two_spin_generators", leaky)
        with pytest.raises(SubspaceLeak):
            euler_from_time(1.0, 1.0, 1.0, 1.0)


class TestCatalog:
    def test_all_ids_buildable(self):
        defaults = {"spin": {"s": 0.5, "m": 0.5}, "oscillator": {}}
        for mid in MODEL_IDS:
            model = build_model(mid, **defaults.get(mid, {}))
            assert model.name.startswith(mid.split("_")[0])

    def test_unknown_id(self):
        with pytest.raises(UnknownModel):
            build_model("qubit_lattice")

    @pytest.mark.parametrize("model_id", ["dm_xx", "two_spin_", "two_spin_spin"])
    def test_bare_or_unknown_variant_is_unknown_id(self, model_id):
        with pytest.raises(UnknownModel):
            build_model(model_id)

    def test_ids_follow_the_variants(self):
        assert MODEL_IDS == ("spin", "oscillator", "two_spin_dm_xx", "two_spin_sum",
                             "two_spin_directional")

    def test_catalog_models_pass_their_oracles(self):
        for mid, params in (("spin", {"s": 1, "m": 1}),
                            ("two_spin_sum", {"initial": "up_up"})):
            model = build_model(mid, **params)
            pt = dict.fromkeys(model.parameter_names, 0.8)
            a = point_metric(model, pt)
            b = oracle.fd_metric(model.circuit, pt, model.initial_state, model.gamma)
            assert np.max(np.abs(a - b.g)) <= 1e-6
