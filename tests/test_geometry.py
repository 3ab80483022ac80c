from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import geometry, manifold
from statemetric.errors import (
    DegenerateSection,
    EmptyGrid,
    InsufficientGrid,
    MissingParameter,
)
from statemetric.geometry import (
    GridSpec,
    classify,
    curvature_label,
    gauss_curvature,
    metric_field,
    metric_stack,
    ranks,
    scalar_from_jets,
    section_curvatures,
)
from statemetric.manifold import metric_jets
from statemetric.models import (
    OscillatorModelSpec,
    SpinModelSpec,
    TwoSpinModelSpec,
    oscillator_model,
    spin_model,
    two_spin_model,
)
from statemetric.verify import catalog


@pytest.fixture(scope="module")
def spin1():
    return spin_model(SpinModelSpec(s=1, m=0))


@pytest.fixture(scope="module")
def osc():
    return oscillator_model(OscillatorModelSpec())


def pointwise(model, x):
    """The metric at one row of a field's angles, as a batch of one."""
    point = dict(zip(model.parameter_names, x))
    return metric_stack(model, model.circuit.angles(point)[None])[0]


class TestGridSpec:
    def test_points_row_major(self):
        grid = GridSpec({"a": (0.0, 1.0, 2), "b": (0.0, 2.0, 3)}, fixed={"c": 7.0})
        angles = grid.angles(("c", "b", "a"))
        assert angles.shape == (6, 3)
        # columns follow the requested names; the last sweep varies fastest
        assert angles[:3, 1].tolist() == [0.0, 1.0, 2.0]
        assert angles[:3, 2].tolist() == [0.0, 0.0, 0.0]
        assert angles[3, 2] == 1.0
        assert np.all(angles[:, 0] == 7.0)

    def test_missing_and_unknown_parameters(self):
        grid = GridSpec({"a": (0.0, 1.0, 2)}, fixed={"c": 7.0})
        with pytest.raises(MissingParameter):
            grid.angles(("a", "b", "c"))  # b is neither swept nor fixed
        with pytest.raises(MissingParameter):
            grid.angles(("b", "c"))  # a is swept but not a parameter

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            GridSpec({})
        with pytest.raises(EmptyGrid):
            GridSpec({"a": (0.0, 1.0, 0)})
        with pytest.raises(EmptyGrid):
            GridSpec({"a": (0.0, np.inf, 3)})

    def test_more_nodes_than_an_array_holds(self, monkeypatch):
        # 1.6e19 nodes: refused in the constructor, before numpy sees a count
        monkeypatch.setattr(np, "linspace", None)  # a call fails
        with pytest.raises(EmptyGrid, match="16000000000000000000 nodes"):
            GridSpec({"a": (0.0, 1.0, 4 * 10**9), "b": (0.0, 1.0, 4 * 10**9)})


class TestMetricField:
    def test_node_count_and_order(self, spin1):
        grid = GridSpec({"theta_2": (0.5, 1.5, 3)},
                        fixed={"theta_1": 0.1, "theta_3": 0.2})
        field = metric_field(spin1, grid)
        assert field.angles.shape == (3, 3) and field.g.shape == (3, 3, 3)
        assert field.angles.tolist() == [[0.1, 0.5, 0.2], [0.1, 1.0, 0.2], [0.1, 1.5, 0.2]]
        assert np.array_equal(field.g, field.g.swapaxes(1, 2))

    def test_matches_pointwise_metric(self, spin1):
        grid = GridSpec({"theta_2": (0.4, 1.2, 3)},
                        fixed={"theta_1": 0.0, "theta_3": 0.3})
        field = metric_field(spin1, grid)
        for x, g in zip(field.angles, field.g):
            assert np.max(np.abs(g - pointwise(spin1, x))) <= 1e-14

    def test_missing_parameter(self, spin1):
        with pytest.raises(MissingParameter):
            metric_field(spin1, GridSpec({"theta_2": (0.0, 1.0, 3)}))

    @pytest.mark.parametrize("key", sorted(catalog()))
    def test_batch_matches_pointwise_on_catalog(self, key):
        model = catalog()[key]
        first, second, *rest = model.parameter_names
        grid = GridSpec({first: (-1.0, 1.3, 4), second: (0.2, 2.9, 5)},
                        fixed=dict.fromkeys(rest, 0.7))
        field = metric_field(model, grid)
        for x, g in zip(field.angles, field.g):
            assert np.max(np.abs(g - pointwise(model, x))) <= 1e-14

    def test_batch_crosses_block_boundary(self, monkeypatch, spin1):
        block = 128  # points per block: M + 1 = 4 rows of d = 3 entries each
        monkeypatch.setattr(manifold, "BLOCK_ENTRIES", block * 4 * 3)
        count = 2 * block + 3
        grid = GridSpec({"theta_1": (-1.0, 1.0, count), "theta_2": (0.3, 2.5, 2)},
                        fixed={"theta_3": 0.4})
        field = metric_field(spin1, grid)
        assert len(field.g) > 4 * block
        for x, g in zip(field.angles, field.g):
            assert np.max(np.abs(g - pointwise(spin1, x))) <= 1e-14


CATALOG = catalog()


@st.composite
def catalog_grids(draw):
    """A catalog model and a grid sweeping 1..M of its parameters in random
    order, with 1..4 nodes per sweep and the rest fixed."""
    model = CATALOG[draw(st.sampled_from(sorted(CATALOG)))]
    names = draw(st.permutations(model.parameter_names))
    swept = draw(st.integers(1, len(names)))
    angle = st.floats(-2.0, 2.0)
    sweeps = {n: (draw(angle), draw(angle), draw(st.integers(1, 4))) for n in names[:swept]}
    fixed = {n: draw(angle) for n in names[swept:]}
    return model, GridSpec(sweeps, fixed)


# gamma log-uniform in [1e-3, 1e4]
LOG_GAMMA = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)


class TestFieldProperties:
    @settings(max_examples=50, deadline=None)
    @given(catalog_grids())
    def test_nodes_match_batches_of_one(self, case):
        model, grid = case
        field = metric_field(model, grid)
        counts = [int(c) for _lo, _hi, c in grid.sweeps.values()]
        assert field.angles.shape == (int(np.prod(counts)), len(model.parameter_names))
        for k, p in enumerate(model.parameter_names):
            if p in grid.fixed:
                assert np.all(field.angles[:, k] == grid.fixed[p])
        for x, g in zip(field.angles, field.g):
            assert np.max(np.abs(g - pointwise(model, x))) <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(catalog_grids(), LOG_GAMMA)
    def test_gamma_scales_by_its_square(self, case, gamma):
        model, grid = case
        base = metric_field(replace(model, gamma=1.0), grid).g
        scaled = metric_field(replace(model, gamma=gamma), grid).g
        scale = gamma**2 * max(1.0, float(np.max(np.abs(base))))
        assert np.max(np.abs(scaled - gamma**2 * base)) <= 1e-14 * scale

    @settings(max_examples=50, deadline=None)
    @given(catalog_grids(), st.floats(-np.pi, np.pi))
    def test_global_phase_leaves_metric_unchanged(self, case, phase):
        model, grid = case
        shifted = replace(model, initial_state=np.exp(1j * phase) * model.initial_state)
        diff = metric_field(shifted, grid).g - metric_field(model, grid).g
        assert np.max(np.abs(diff)) <= 1e-13


class TestRankAnalysis:
    def test_full_rank(self):
        assert ranks(np.diag([2.0, 1.0, 0.5])) == 3

    def test_eigenstate_sphere_rank_two(self, spin1):
        point = {"theta_1": 0.3, "theta_2": 1.1, "theta_3": -0.7}
        g = metric_stack(spin1, spin1.circuit.angles(point)[None])[0]
        assert ranks(g) == 2
        # the null direction is the pure-phase theta_3 axis
        w, V = np.linalg.eigh(g)
        assert np.allclose(np.abs(V[:, 0]), [0, 0, 1], atol=1e-8)

    def test_zero_metric(self):
        assert ranks(np.zeros((2, 2))) == 0

    def test_cutoff_scales_with_largest_eigenvalue(self):
        assert ranks(np.diag([1e6, 1e-5, 0.0])) == 1

    def test_stack_ranks_equal_per_metric_ranks(self, spin1):
        angles = np.random.default_rng(13).uniform(0.2, 1.4, (4, 3))
        stack = np.concatenate([metric_stack(spin1, angles),
                                [np.diag([2.0, 1.0, 0.5]), np.zeros((3, 3))]])
        stack = stack.reshape(2, 3, 3, 3)
        expected = [[ranks(g) for g in row] for row in stack]
        assert ranks(stack).tolist() == expected == [[2, 2, 2], [2, 3, 0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_metric_has_rank_zero(self, bad):
        g = np.diag([2.0, 1.0, 0.5])
        g[0, 0] = bad
        assert ranks(np.stack([g, np.eye(3)])).tolist() == [0, 3]


def surface(E, F, G):
    """Jets (g, dg, d2g) of a 2-surface at one point, batch of one, from
    (value, d_u, d_v, d_uu, d_uv, d_vv) of each of E, F, G."""
    g, dg, d2g = np.zeros((1, 2, 2)), np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2, 2))
    for (i, j), (v, du, dv, duu, duv, dvv) in zip(((0, 0), (0, 1), (1, 1)), (E, F, G)):
        for a, b in ((i, j), (j, i)):
            g[0, a, b] = v
            dg[0, a, b] = du, dv
            d2g[0, a, b] = [[duu, duv], [duv, dvv]]
    return g, dg, d2g


def gauss(E, F, G):
    """Gaussian curvature of a 2-surface from its jets: half the scalar curvature."""
    return scalar_from_jets(*surface(E, F, G))[0] / 2


class TestBrioschi:
    """Check the jet curvature against 2-surfaces with known curvature,
    supplied as exact metric jets with no quantum model behind them."""

    def test_round_sphere(self):
        R, v = 2.0, 1.1  # E = R^2 sin^2 v, F = 0, G = R^2
        E = (R**2 * np.sin(v) ** 2, 0.0, R**2 * np.sin(2 * v), 0.0, 0.0, 2 * R**2 * np.cos(2 * v))
        K = gauss(E, (0.0,) * 6, (R**2,) + (0.0,) * 5)
        assert K == pytest.approx(1.0 / R**2, abs=1e-14)

    def test_flat_polar_coordinates(self):
        u = 1.3  # E = 1, F = 0, G = u^2
        K = gauss((1.0,) + (0.0,) * 5, (0.0,) * 6, (u**2, 2 * u, 0.0, 2.0, 0.0, 0.0))
        assert abs(K) <= 1e-15

    def test_hyperbolic_plane(self):
        e = np.exp(2 * 0.1)  # E = 1, F = 0, G = exp(2u) at u = 0.1
        K = gauss((1.0,) + (0.0,) * 5, (0.0,) * 6, (e, 2 * e, 0.0, 4 * e, 0.0, 0.0))
        assert K == pytest.approx(-1.0, abs=1e-14)

    def test_off_diagonal_terms_exercised(self):
        # E = 1 + v^2, F = v, G = 1 has constant curvature -1 (the
        # off-diagonal F enters the Christoffel symbols, unlike the diagonal cases)
        v = 0.7
        K = gauss((1.0 + v**2, 0.0, 2 * v, 0.0, 0.0, 2.0), (v, 0.0, 1.0, 0.0, 0.0, 0.0),
                  (1.0,) + (0.0,) * 5)
        assert K == pytest.approx(-1.0, abs=1e-14)

    def test_degenerate_section(self, spin1):
        # a zero metric has no curvature: NaN in a batch, an error at a point
        assert np.isnan(gauss(*[(0.0,) * 6] * 3))
        # at theta_2 = 0 the (theta_1, theta_3) section has zero area
        with pytest.raises(DegenerateSection):
            gauss_curvature(spin1, {"theta_1": 0.3, "theta_2": 0.0, "theta_3": 0.1},
                            ("theta_1", "theta_3"))


class TestGaussCurvature:
    def test_spin_sphere(self, spin1):
        # R = (1/sqrt2) sqrt(s(s+1) - m^2) = 1 for s=1, m=0, so K = 1
        K = gauss_curvature(spin1, {"theta_1": 0.2, "theta_2": 1.0, "theta_3": 0.5},
                            ("theta_1", "theta_2"))
        assert K == pytest.approx(1.0, abs=1e-12)

    def test_oscillator_flat(self, osc):
        K = gauss_curvature(osc, {"theta": 0.1, "phi": -0.2}, ("theta", "phi"))
        assert abs(K) <= 1e-8

    def test_bad_section(self, spin1):
        pt = {"theta_1": 0.1, "theta_2": 1.0, "theta_3": 0.0}
        with pytest.raises(DegenerateSection):
            gauss_curvature(spin1, pt, ("theta_1", "theta_1"))
        with pytest.raises(MissingParameter):
            gauss_curvature(spin1, pt, ("theta_1", "bogus"))

    def test_batch_skips_degenerate_rows(self, spin1):
        # theta_2 = 0 is a coordinate pole of the (theta_1, theta_2) sphere;
        # the other row of the same call keeps its curvature
        angles = np.array([[0.3, 0.0, 0.1], [0.3, 1.2, 0.1]])
        k, (g, dg, d2g) = section_curvatures(spin1, angles, ("theta_1", "theta_2"))
        assert np.isnan(k[0]) and k[1] == pytest.approx(1.0, abs=1e-12)
        assert g.shape == (2, 3, 3) and dg.shape == (2, 3, 3, 3) and d2g.shape == (2, 3, 3, 3, 3)


class TestMetricJets:
    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_jets_match_central_differences(self, key):
        model = CATALOG[key]
        m = len(model.parameter_names)
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (2, m))
        g, dg, d2g = metric_jets(model.circuit, x, model.initial_state, model.gamma)
        assert np.max(np.abs(g - geometry.metric_stack(model, x))) <= 1e-14

        def shifted(*steps):
            return geometry.metric_stack(model, x + sum(steps, np.zeros(m)))

        h, e = 1e-4, np.eye(m)
        fd = np.stack([(shifted(h * e[a]) - shifted(-h * e[a])) / (2 * h)
                       for a in range(m)], axis=-1)
        assert np.max(np.abs(dg - fd)) <= 1e-7
        h = 1e-3
        fd2 = np.stack([np.stack([(shifted(h * e[a], h * e[c]) - shifted(h * e[a], -h * e[c])
                                   - shifted(-h * e[a], h * e[c])
                                   + shifted(-h * e[a], -h * e[c])) / (4 * h * h)
                                  for c in range(m)], axis=-1) for a in range(m)], axis=-2)
        assert np.max(np.abs(d2g - fd2)) <= 1e-5

    @pytest.mark.parametrize("coeffs", [
        (0.6, 0.0, 0.8),
        (0.3, 0.4, 0.5, 0.6, np.sqrt(1 - 0.86)),
    ], ids=["spin1", "spin2"])
    def test_scalar_curvature_constant_on_su2_orbit(self, coeffs):
        # the circuit sweeps the SU(2) orbit of the state, a homogeneous
        # space: its scalar curvature is the same at every regular point
        model = spin_model(SpinModelSpec(s=(len(coeffs) - 1) / 2, coefficients=coeffs))
        angles = [[0.4, 1.1, 0.7], [-1.3, 0.5, 2.0], [2.2, 2.6, -0.4], [0.0, 1.6, 0.0]]
        R = scalar_from_jets(*metric_jets(model.circuit, angles, model.initial_state))
        assert np.all(np.isfinite(R))
        assert np.max(np.abs(R - R[0])) <= 1e-9 * max(1.0, abs(R[0]))


def test_scalar_curvature_full_rank_spin1():
    # a generic spin-1 superposition gives a rank-3 metric; the scalar
    # curvature of the sampled 3-manifold stays finite and O(1)
    model = spin_model(SpinModelSpec(s=1, coefficients=(0.6, 0.0, 0.8)))
    R = scalar_from_jets(*metric_jets(model.circuit, [[0.4, 1.1, 0.7]],
                                      model.initial_state))[0]
    assert np.isfinite(R)
    assert abs(R) < 50.0


class TestCurvatureLabel:
    g_flat = np.array([np.eye(2), np.eye(2)])
    g_varying = np.array([np.eye(2), 2 * np.eye(2)])

    def test_flat_needs_a_constant_metric(self):
        assert curvature_label(np.array([0.0, 1e-6]), self.g_flat) == "flat"
        assert curvature_label(np.array([0.0, 0.0]), self.g_varying) == "generic"
        # both gates are relative: k scales as 1 / g, the variation as g
        assert curvature_label(np.array([0.0, 1e-3]), 1e-3 * self.g_flat) == "flat"
        assert curvature_label(np.array([0.0, 1e-6]), 1e2 * self.g_flat) == "generic"
        assert curvature_label(np.array([0.0, 0.0]), 1e-9 * self.g_varying) == "generic"
        # a variation below RANK_TOL is none, as an eigenvalue below it is zero
        assert curvature_label(np.array([0.0, 0.0]), 1e-20 * self.g_varying) == "flat"

    def test_sphere_needs_constant_positive_samples(self):
        assert curvature_label(np.array([4.0, 4.0 * (1 + 0.9e-4)]), self.g_varying) == "sphere"
        assert curvature_label(np.array([4.0, 4.0 * (1 + 3e-4)]), self.g_varying) == "generic"
        assert curvature_label(np.array([-1.0, -1.0]), self.g_varying) == "generic"
        # one sample cannot show that the curvature is constant
        assert curvature_label(np.array([4.0]), self.g_varying) == "generic"


class TestClassify:
    def grid3(self, fixed=None):
        return GridSpec({"theta_1": (0.2, 1.0, 3), "theta_2": (0.6, 1.4, 3)},
                        fixed=fixed or {"theta_3": 0.1})

    def test_sphere(self, spin1):
        report = classify(metric_field(spin1, self.grid3()))
        assert report.classification == "sphere"
        assert report.rank == 2
        assert report.radius == pytest.approx(1.0, abs=1e-6)
        assert report.label().startswith("sphere(R=")

    def test_sphere_radius_tracks_spin(self):
        model = spin_model(SpinModelSpec(s=1.5, m=0.5))
        report = classify(metric_field(model, self.grid3()))
        expected = np.sqrt((1.5 * 2.5 - 0.25) / 2)
        assert report.classification == "sphere"
        assert report.radius == pytest.approx(expected, abs=1e-6)

    def test_flat(self, osc):
        grid = GridSpec({"theta": (-0.5, 0.5, 3), "phi": (-0.5, 0.5, 3)})
        report = classify(metric_field(osc, grid))
        assert report.classification == "flat"
        assert report.rank == 2
        assert report.label() == "flat"
        # full rank at M = 2: the scalar curvature is reported, and it is 0
        assert abs(report.scalar_curvature) <= 1e-12

    def test_two_spin_sphere(self):
        model = two_spin_model(TwoSpinModelSpec(variant="dm_xx", initial="up_down"))
        report = classify(metric_field(model, self.grid3()))
        assert report.classification == "sphere"
        assert report.radius == pytest.approx(0.5, abs=1e-6)

    def test_rank_one_phase_line_is_flat(self, spin1):
        # at theta_2 = 0 the theta_1/theta_3 rotations only move phases; the
        # single surviving direction has constant length, so the manifold
        # collapses to a flat line
        grid = GridSpec({"theta_1": (0.1, 0.9, 3), "theta_3": (0.1, 0.9, 3)},
                        fixed={"theta_2": 0.0})
        report = classify(metric_field(spin1, grid))
        assert report.classification == "flat"
        assert report.rank == 1

    def test_rank_zero_is_degenerate(self, spin1):
        # a one-factor circuit whose generator annihilates the state: the
        # metric is identically zero
        from statemetric.manifold import CircuitSpec
        from statemetric.models import Model
        null = Model(name="null", rep=spin1.rep,
                     circuit=CircuitSpec(spin1.rep, (("Sz", "t"),)),
                     initial_state=spin1.initial_state)
        report = classify(metric_field(null, GridSpec({"t": (0.0, 1.0, 3)})))
        assert report.classification == "degenerate"
        assert report.rank == 0
        assert report.label() == "degenerate(rank=0)"

    def test_generic_superposition(self):
        # a spin-2 state spread over all five levels: full-rank metric whose
        # section curvature is not constant
        coeffs = (0.3, 0.4, 0.5, 0.6, np.sqrt(1 - 0.86))
        model = spin_model(SpinModelSpec(s=2, coefficients=coeffs))
        report = classify(metric_field(model, self.grid3()))
        assert report.classification == "generic"
        assert report.rank == 3

    def test_rank_matches_pointwise_analysis(self):
        # the field's rank against ranks node by node
        for model in CATALOG.values():
            first, second, *rest = model.parameter_names
            field = metric_field(model, GridSpec({first: (0.2, 1.0, 3), second: (0.6, 1.4, 3)},
                                                 fixed=dict.fromkeys(rest, 0.1)))
            report = classify(field)
            assert report.rank == max(ranks(g) for g in field.g)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(CATALOG) + ["spin_1_rank3"]), LOG_GAMMA)
    def test_gamma_leaves_the_shape(self, key, gamma):
        # gamma only scales the metric: the label and rank stay, the radius
        # scales as gamma and the curvatures as 1 / gamma^2
        model = CATALOG.get(key) or spin_model(SpinModelSpec(s=1, coefficients=(0.6, 0.0, 0.8)))
        first, second, *rest = model.parameter_names
        grid = GridSpec({first: (0.2, 1.0, 3), second: (0.6, 1.4, 3)}, dict.fromkeys(rest, 0.1))
        base = classify(metric_field(replace(model, gamma=1.0), grid))
        report = classify(metric_field(replace(model, gamma=gamma), grid))
        assert (report.classification, report.rank) == (base.classification, base.rank)
        if report.rank == len(model.parameter_names):
            assert np.isfinite(report.scalar_curvature)
        for value, power, expected in ((report.radius, -1, base.radius),
                                       (report.gaussian_curvature, 2, base.gaussian_curvature),
                                       (report.scalar_curvature, 2, base.scalar_curvature)):
            if expected is None:
                assert value is None
            else:
                assert value * gamma**power == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_insufficient_grid(self, spin1):
        grid = GridSpec({"theta_1": (0.0, 1.0, 2), "theta_2": (0.5, 1.0, 3)},
                        fixed={"theta_3": 0.0})
        with pytest.raises(InsufficientGrid):
            classify(metric_field(spin1, grid))
