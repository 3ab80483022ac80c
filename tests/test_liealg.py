import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import geometry, liealg, linalg, manifest, manifold, verify
from statemetric.errors import (
    DependentGenerators,
    DimensionMismatch,
    NotClosed,
    NotHermitian,
    UnknownGenerator,
)
from statemetric.liealg import (
    extract_structure_constants,
    detect_kind,
    tilde_by_adjoint,
    tilde_by_conjugation,
    validate_algebra,
)
from statemetric.manifold import CircuitSpec
from statemetric.models import (
    OSCILLATOR_PARAM_BOUND,
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
    spin_operators,
    two_spin_generators,
)
from statemetric.verify import catalog


def spin_rep(s=0.5):
    sx, sy, sz = spin_operators(s)
    return extract_structure_constants((sz, sx, sy), names=("Sz", "Sx", "Sy"))


class TestExtractStructureConstants:
    def test_spin_half_cyclic_constants(self):
        rep = spin_rep(0.5)
        # ordering (Sz, Sx, Sy): [Sz, Sx] = i Sy, [Sx, Sy] = i Sz, [Sy, Sz] = i Sx
        assert np.allclose(rep.constants[0, 1], [0, 0, 1j], atol=1e-12)
        assert np.allclose(rep.constants[1, 2], [1j, 0, 0], atol=1e-12)
        assert np.allclose(rep.constants[2, 0], [0, 1j, 0], atol=1e-12)
        assert rep.closure_residual <= 1e-12

    @pytest.mark.parametrize("s", [0.5, 1, 1.5, 2, 3])
    def test_constants_independent_of_spin(self, s):
        rep = spin_rep(s)
        ref = spin_rep(0.5)
        assert np.max(np.abs(rep.constants - ref.constants)) <= 1e-11

    def test_antisymmetry_exact(self):
        rep = spin_rep(1.5)
        assert np.array_equal(rep.constants, -np.transpose(rep.constants, (1, 0, 2)))

    def test_purely_imaginary_constants(self):
        assert spin_rep(2).constant_purity() <= 1e-12

    def test_truncated_ladder_constants(self):
        rep = oscillator_model(OscillatorModelSpec(truncation=64)).rep
        # [x, p] = i 1 away from the truncation edge
        assert np.allclose(rep.constants[0, 1], [0, 0, 1j], atol=1e-9)
        assert rep.active_dim == 16

    def test_not_closed(self):
        sx, sy, _ = spin_operators(0.5)
        with pytest.raises(NotClosed):
            extract_structure_constants((sx, sy))

    @pytest.mark.parametrize("s,scale", [(3, 1e3), (1, 1e4)])
    def test_closure_bound_scales_with_the_generators(self, s, scale):
        # the fit residual is roundoff that grows as scale^2: above the
        # absolute CLOSURE_TOL, within the bound relative to the entries
        sx, sy, sz = spin_operators(s)
        rep = extract_structure_constants([scale * G for G in (sz, sx, sy)])
        assert rep.closed and rep.closure_residual > liealg.CLOSURE_TOL
        circuit = CircuitSpec(rep, (("A1", "a"), ("A2", "b")))
        dim = 2 * s + 1
        assert tilde_by_adjoint(rep, circuit, np.zeros((1, 2))).shape == (1, 2, dim, dim)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e4])
    def test_open_pair_refused_at_any_scale(self, scale):
        sx, sy, sz = spin_operators(0.5)
        with pytest.raises(NotClosed):
            extract_structure_constants([scale * G for G in (sx, sy)])
        # [Sz, Sx] = i Sy leaves the span once Sy is shifted by 1e-6
        with pytest.raises(NotClosed):
            extract_structure_constants([scale * G for G in (sz, sx, sy + 1e-6 * np.eye(2))])

    @staticmethod
    def lstsq_reference(rep):
        """The constants from one ``lstsq`` fit per pair."""
        gens, k, n = rep.generators, rep.active_dim, rep.size
        basis = np.stack([G[:k, :k].ravel() for G in gens], axis=1)
        constants = np.zeros((n, n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                com = liealg._bracket(gens[i], gens[j], k).ravel()
                coeff, *_ = np.linalg.lstsq(basis, com, rcond=None)
                constants[i, j], constants[j, i] = coeff, -coeff
        return constants

    @pytest.mark.parametrize("rep", [
        *(model.rep for model in catalog().values()),
        oscillator_model(OscillatorModelSpec(truncation=128)).rep,
        extract_structure_constants([1e3 * G for G in spin_operators(3)]),
    ], ids=[*catalog(), "oscillator_128", "spin_3_x1e3"])
    def test_fit_matches_per_pair_lstsq(self, rep):
        # one QR for every pair against lstsq per pair: roundoff apart (the
        # worst of these read 2.4e-13 on constants of size 1e3)
        constants = self.lstsq_reference(rep)
        scale = max(1.0, float(np.max(np.abs(constants))))
        assert rep.closed
        assert np.max(np.abs(rep.constants - constants)) <= 1e-13 * scale

    @pytest.mark.parametrize("which, pair", [
        ("random", "[A1, A2]"),  # every pair is open: the first one is named
        ("sz_one_sx", "[A1, A3]"),  # [Sz, 1] closes, [Sz, Sx] = i Sy does not
    ])
    def test_first_open_pair_is_named(self, which, pair):
        if which == "random":
            rng = np.random.default_rng(3)
            gens = [M + M.conj().T for M in rng.normal(size=(3, 3, 3))]
        else:
            sx, _, sz = spin_operators(1)
            gens = [sz, np.eye(3), sx]
        with pytest.raises(NotClosed, match=re.escape(pair) + " leaves the span"):
            extract_structure_constants(gens)

    def test_closure_bound(self):
        assert liealg.closure_bound([0.5, 0.5]) == liealg.CLOSURE_TOL
        assert liealg.closure_bound([3.0, 1e3, 2e3]) == liealg.CLOSURE_TOL * 2e6

    def test_dependent_generators(self):
        sx, _, _ = spin_operators(0.5)
        with pytest.raises(DependentGenerators):
            extract_structure_constants((sx, 2 * sx))

    @pytest.mark.parametrize("entry", [1e308, 1e200, -1.7976931348623157e308, 1e308 + 1e308j])
    def test_overflowing_entry_names_generator(self, entry):
        # finite, but its square is not: refused by name, without a RuntimeWarning
        sx, sy, sz = spin_operators(1)
        big = sx.copy()
        big[0, 1], big[1, 0] = entry, np.conj(entry)
        message = f"generator 'Sx' has an entry of magnitude {abs(entry):.3e}; its entries overflow"
        with pytest.raises(DependentGenerators, match="^" + re.escape(message)):
            extract_structure_constants((sz, big, sy), names=("Sz", "Sx", "Sy"))

    def test_non_hermitian_names_generator(self):
        sx, sy, sz = spin_operators(0.5)
        # the bound grows with the entries; a defect of 1e-6 relative does not pass
        for scale in (1.0, 1e6):
            with pytest.raises(NotHermitian, match="'Sy'"):
                extract_structure_constants(
                    [scale * G for G in (sz, sx, sy + 1e-6 * np.array([[0, 1], [0, 0]]))],
                    names=("Sz", "Sx", "Sy"))

    def test_abelian_pair(self):
        rep = extract_structure_constants((np.diag([1.0, 0]).astype(complex),
                                           np.diag([0, 1.0]).astype(complex)))
        assert np.max(np.abs(rep.constants)) == 0.0
        assert detect_kind(rep) == "abelian"

    def test_unknown_generator_lookup(self):
        with pytest.raises(UnknownGenerator):
            spin_rep().index("Sw")


class TestGeneratorEig:
    @pytest.mark.parametrize("key", ["spin_1_m0", "oscillator_n1", "two_spin_dm_xx"])
    def test_one_hermiticity_pass_per_generator(self, key, monkeypatch):
        # the load checks each generator; its eigendecomposition does not check it again
        text = manifest.emit(catalog()[key])
        checked = []
        real = linalg.require_hermitian
        monkeypatch.setattr(linalg, "require_hermitian",
                            lambda M, name="matrix": checked.append(name) or real(M, name))
        model = manifest.parse_manifest(manifest.loads(text))
        geometry.metric_stack(model, np.full((2, len(model.parameter_names)), 0.4))
        assert sorted(checked) == sorted(f"generator {n!r}" for n in model.rep.names)
        assert len(model.rep._eig_cache) == len({g for g, _ in model.circuit.factors})

    @pytest.mark.parametrize("key", ["spin_3half", "oscillator_n1", "two_spin_dm_xx"])
    def test_eigenpairs_equal_the_checked_decomposition(self, key):
        rep = catalog()[key].rep
        for name, G in zip(rep.names, rep.generators):
            for got, want in zip(rep.generator_eig(name), linalg.herm_eig(G)):
                assert got.tobytes() == want.tobytes()


class TestActiveBlockBracket:
    @staticmethod
    def integer_hermitian(rng, d):
        """Hermitian, with small Gaussian integer entries: every product and
        sum of a bracket is exact, whatever its summation order."""
        M = rng.integers(-9, 10, (d, d)) + 1j * rng.integers(-9, 10, (d, d))
        return M + M.conj().T

    def test_random_pair(self):
        rng = np.random.default_rng(29)
        A, B = self.integer_hermitian(rng, 8), self.integer_hermitian(rng, 8)
        assert np.array_equal(liealg._bracket(A, B, 5), (A @ B - B @ A)[:5, :5])
        assert np.array_equal(liealg._bracket(A, B, None), A @ B - B @ A)

    def test_oscillator(self):
        rep = oscillator_model(OscillatorModelSpec()).rep
        x, p, k = rep.generator("x"), rep.generator("p"), rep.active_dim
        assert np.array_equal(liealg._bracket(x, p, k), (x @ p - p @ x)[:k, :k])

    def test_trailing_block_does_not_enter_the_fit(self):
        # the bracket's k x k block reads rows :k and columns :k of each
        # factor, never the trailing (d - k) x (d - k) block
        rep = oscillator_model(OscillatorModelSpec()).rep
        k, d = rep.active_dim, rep.dim
        rng = np.random.default_rng(31)
        gens = []
        for G in rep.generators:
            G = G.copy()
            G[k:, k:] = self.integer_hermitian(rng, d - k)
            gens.append(G)
        other = extract_structure_constants(gens, rep.names, active_dim=k)
        assert np.array_equal(other.constants, rep.constants)
        assert other.closure_residual == rep.closure_residual


class TestValidateAlgebra:
    def test_so3_passes_up_to_spin3(self):
        for s in (0.5, 1, 1.5, 2, 2.5, 3):
            report = validate_algebra(spin_rep(s), "so3")
            assert report.passed
            assert max(c.residual for c in report.checks) <= 1e-10

    def test_jacobi_residual_small(self):
        assert spin_rep(1).jacobi_residual() <= 1e-12

    @pytest.mark.parametrize("s", [2, 3])
    def test_jacobi_bound_scales_with_the_constants(self, s):
        # the constants grow with the generators, the Jacobi terms with their square
        sx, sy, sz = spin_operators(s)
        rep = extract_structure_constants((1e4 * sz, 1e4 * sx, 1e4 * sy))
        c_max = float(np.max(np.abs(rep.constants)))
        assert rep.jacobi_residual() > liealg.JACOBI_TOL
        assert rep.jacobi_bound() == liealg.JACOBI_TOL * c_max**2
        assert validate_algebra(rep, "generic").passed

    def test_scaled_heisenberg_passes(self):
        # each bracket is held to the closure bound of its two generators
        k = 1e3
        rep = oscillator_model(OscillatorModelSpec()).rep
        x, p, one = rep.generators
        scaled = extract_structure_constants((k * x, k * p, k * k * one), names=rep.names,
                                             active_dim=rep.active_dim)
        assert validate_algebra(scaled, "heisenberg", n=1).passed
        assert detect_kind(scaled) == "heisenberg(1)"

    def test_heisenberg_on_active_block(self):
        rep = oscillator_model(OscillatorModelSpec()).rep
        report = validate_algebra(rep, "heisenberg", n=1)
        assert report.passed

    def test_heisenberg_fails_on_full_matrix(self):
        rep = oscillator_model(OscillatorModelSpec()).rep
        full = liealg.LieAlgebraRep(rep.names, rep.generators, rep.constants,
                                    rep.closure_residual, active_dim=None)
        assert not validate_algebra(full, "heisenberg", n=1).passed

    def test_so3_reports_failure_without_raising(self):
        sx, sy, sz = spin_operators(0.5)
        rep = extract_structure_constants((sz, sx, -sy), names=("Sz", "Sx", "A3"))
        report = validate_algebra(rep, "so3")
        assert not report.passed

    def test_wrong_size_raises(self):
        with pytest.raises(ValueError):
            validate_algebra(spin_rep(), "heisenberg", n=2)
        with pytest.raises(ValueError):
            validate_algebra(spin_rep(), "su17")


class TestDetectKind:
    def test_spin(self):
        assert detect_kind(spin_rep(1.5)) == "so3"

    def test_oscillator(self):
        rep = oscillator_model(OscillatorModelSpec()).rep
        assert detect_kind(rep) == "heisenberg(1)"

    def test_flipped_sign_is_generic(self):
        sx, sy, sz = spin_operators(0.5)
        rep = extract_structure_constants((sz, sx, -sy))
        assert detect_kind(rep) == "generic"

    def test_two_spin_variants_are_so3(self):
        for variant in ("dm_xx", "sum"):
            rep = extract_structure_constants(two_spin_generators(variant))
            assert detect_kind(rep) == "so3"

    def test_catalog_kinds(self):
        kinds = {key: detect_kind(model.rep) for key, model in catalog().items()}
        assert kinds == {key: "heisenberg(1)" if key.startswith("oscillator") else "so3"
                         for key in kinds}

    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e4, 1e8, 1e10, 1e12])
    def test_scaled_commuting_set_is_abelian(self, k):
        # three matrices with a common random eigenbasis: the fitted constants
        # are roundoff of size k, read against a bound of the same scale
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        gens = [k * (q * rng.normal(size=8)) @ q.conj().T for _ in range(3)]
        gens = [(G + G.conj().T) / 2 for G in gens]
        assert detect_kind(extract_structure_constants(gens)) == "abelian"

    @pytest.mark.parametrize("k", [1e-6, 1e4])
    def test_scaled_so3_is_generic(self, k):
        # [k Sx, k Sy] = i k (k Sz): neither commuting nor so(3) brackets
        sx, sy, sz = spin_operators(1)
        assert detect_kind(extract_structure_constants((k * sx, k * sy, k * sz))) == "generic"


def at_point(route, model, point, rep=None):
    """A tilde route at one point: a batch of one, row 0."""
    return route(rep or model.rep, model.circuit, model.circuit.angles(point)[None])[0]


class TestTildeOperators:
    def test_identity_point(self):
        model = spin_model(SpinModelSpec(s=1, m=0))
        point = {"theta_1": 0.0, "theta_2": 0.0, "theta_3": 0.0}
        tildes = at_point(tilde_by_conjugation, model, point)
        for T, (gname, _) in zip(tildes, model.circuit.factors):
            assert np.max(np.abs(T - model.rep.generator(gname))) <= 1e-14

    def test_last_factor_unconjugated(self):
        model = spin_model(SpinModelSpec(s=0.5, m=0.5))
        point = {"theta_1": 0.4, "theta_2": 1.1, "theta_3": -0.7}
        tildes = at_point(tilde_by_conjugation, model, point)
        assert np.max(np.abs(tildes[-1] - model.rep.generator("Sz"))) <= 1e-14

    def test_so3_closed_form(self):
        # For the circuit exp(-i t1 Sz) exp(-i t2 Sx) exp(-i t3 Sz):
        #   A~_2 = cos(t3) Sx - sin(t3) Sy
        #   A~_1 = cos(t2) Sz + sin(t2) sin(t3) Sx + sin(t2) cos(t3) Sy
        model = spin_model(SpinModelSpec(s=1.5, m=0.5))
        sx, sy, sz = spin_operators(1.5)
        t2, t3 = 0.9, -1.3
        point = {"theta_1": 0.6, "theta_2": t2, "theta_3": t3}
        t = at_point(tilde_by_conjugation, model, point)
        assert np.max(np.abs(t[1] - (np.cos(t3) * sx - np.sin(t3) * sy))) <= 1e-12
        expected1 = (np.cos(t2) * sz + np.sin(t2) * np.sin(t3) * sx
                     + np.sin(t2) * np.cos(t3) * sy)
        assert np.max(np.abs(t[0] - expected1)) <= 1e-12

    def test_heisenberg_translation(self):
        # exp(i phi p) x exp(-i phi p) = x + phi on the active block
        model = oscillator_model(OscillatorModelSpec())
        phi = 0.37
        point = {"theta": 0.21, "phi": phi}
        t = at_point(tilde_by_conjugation, model, point)
        x = model.rep.generator("x")
        ident = model.rep.generator("1")
        assert model.rep.block_norm(t[0] - (x + phi * ident)) <= 1e-10
        assert model.rep.block_norm(t[1] - model.rep.generator("p")) <= 1e-14

    def test_spectrum_preserved(self):
        model = spin_model(SpinModelSpec(s=2, m=1))
        point = {"theta_1": 1.2, "theta_2": 0.8, "theta_3": 2.1}
        for T in at_point(tilde_by_conjugation, model, point):
            w = np.linalg.eigvalsh(T)
            assert np.allclose(w, [-2, -1, 0, 1, 2], atol=1e-10)


class TestAdjointRoute:
    def test_matches_conjugation_spin(self):
        model = spin_model(SpinModelSpec(s=1, m=0))
        rng = np.random.default_rng(17)
        for _ in range(10):
            point = dict(zip(model.parameter_names, rng.uniform(-np.pi, np.pi, 3)))
            tc = at_point(tilde_by_conjugation, model, point)
            ta = at_point(tilde_by_adjoint, model, point)
            for a, b in zip(tc, ta):
                assert model.rep.block_norm(a - b) <= 1e-10

    def test_matches_conjugation_truncated_heisenberg(self):
        # nilpotent adjoint: the exponential terminates after the linear term
        model = oscillator_model(OscillatorModelSpec())
        point = {"theta": 0.8, "phi": -0.5}
        tc = at_point(tilde_by_conjugation, model, point)
        ta = at_point(tilde_by_adjoint, model, point)
        for a, b in zip(tc, ta):
            assert model.rep.block_norm(a - b) <= 1e-10

    def test_adjoint_coefficient_vector_heisenberg(self):
        model = oscillator_model(OscillatorModelSpec())
        phi = 0.37
        ta = at_point(tilde_by_adjoint, model, {"theta": 0.0, "phi": phi})
        x = model.rep.generator("x")
        ident = model.rep.generator("1")
        assert model.rep.block_norm(ta[0] - (x + phi * ident)) <= 1e-12

    def test_adjoint_refuses_unclosed_rep(self):
        sx, sy, sz = spin_operators(0.5)
        rep = extract_structure_constants((sz, sx, sy), names=("Sz", "Sx", "Sy"))
        broken = liealg.LieAlgebraRep(rep.names, rep.generators, rep.constants,
                                      closure_residual=1e-3)
        circuit = CircuitSpec(rep, (("Sz", "a"), ("Sx", "b")))
        with pytest.raises(NotClosed):
            tilde_by_adjoint(broken, circuit, circuit.angles({"a": 0.1, "b": 0.2})[None])
        with pytest.raises(NotClosed):
            tilde_by_adjoint(broken, circuit, np.zeros((7, 2)))

    def test_adjoint_matrices_antihermitian_structure(self):
        rep = spin_rep(1)
        ad = rep.adjoint_matrices()
        # so(3) adjoint matrices are i times real antisymmetric matrices
        for m in range(3):
            assert np.max(np.abs(ad[m] + ad[m].T)) <= 1e-12
            assert np.max(np.abs(ad[m].real)) <= 1e-12


CATALOG = catalog()
ROUTES = {"adjoint": tilde_by_adjoint, "conjugation": tilde_by_conjugation}


class TestBatchedRoutes:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_rows_equal_batch_of_one(self, key, route):
        model, fn = CATALOG[key], ROUTES[route]
        angles = np.random.default_rng(5).uniform(-1.0, 1.0, (6, len(model.parameter_names)))
        batch = fn(model.rep, model.circuit, angles)
        d = model.rep.dim
        assert batch.shape == (6, len(model.parameter_names), d, d)
        for row, a in zip(batch, angles):
            assert np.max(np.abs(row - fn(model.rep, model.circuit, a[None])[0])) <= 1e-14

    def test_batch_crossing_the_check_block_boundary(self):
        # 3 blocks + 1 point of the adjoint_equivalence check at once and
        # blockwise give the same worst residual
        model = CATALOG["oscillator_n0"]
        rep, circuit = model.rep, model.circuit
        step = manifold.BLOCK_ENTRIES // (len(circuit.factors) * rep.dim**2)
        angles = np.random.default_rng(9).uniform(-1.0, 1.0, (3 * step + 1, 2))

        def worst(batch):
            return rep.block_norm(tilde_by_adjoint(rep, circuit, batch)
                                  - tilde_by_conjugation(rep, circuit, batch))

        whole = worst(angles)
        blockwise = max(worst(angles[s:s + step]) for s in range(0, len(angles), step))
        assert whole == pytest.approx(blockwise, rel=0, abs=1e-14)
        assert whole <= 1e-10

    def test_check_residual_does_not_depend_on_blocking(self, monkeypatch):
        blocked = verify.check_adjoint_equivalence()
        monkeypatch.setattr(manifold, "BLOCK_ENTRIES", 2**30)  # one block per model
        assert verify.check_adjoint_equivalence() == blocked

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_rejects_bad_angle_arrays(self, route):
        model = CATALOG["spin_1_m0"]
        fn = ROUTES[route]
        with pytest.raises(DimensionMismatch):
            fn(model.rep, model.circuit, np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch):
            fn(model.rep, model.circuit, np.zeros(3))
        with pytest.raises(ValueError):
            fn(model.rep, model.circuit, np.array([[0.0, np.nan, 0.0]]))

    def test_check_makes_one_expm_call_per_block(self, monkeypatch):
        calls = []
        expm = liealg._expm

        def counting_expm(A):
            calls.append(A.shape)
            return expm(A)

        monkeypatch.setattr(liealg, "_expm", counting_expm)
        result = verify.check_adjoint_equivalence()
        assert result.passed
        blocks, stacks = 0, []
        for key in ("spin_1_m0", "oscillator_n0", "two_spin_dm_xx", "two_spin_sum"):
            rep, m = CATALOG[key].rep, len(CATALOG[key].circuit.factors)
            count = -(-50 // (manifold.BLOCK_ENTRIES // (m * rep.dim**2)))
            blocks += count
            # factor 0 acts on no row: only factors 1..M-1 are exponentiated
            stacks += [(m - 1, rep.size, rep.size)] * count
        assert len(calls) == blocks
        assert sum(shape[0] for shape in calls) == 4 * 50
        assert [shape[1:] for shape in calls] == stacks

    @settings(max_examples=40, deadline=None)
    @given(key=st.sampled_from(sorted(CATALOG)), seed=st.integers(0, 2**32 - 1),
           count=st.integers(1, 9))
    def test_adjoint_equals_conjugation(self, key, seed, count):
        # every catalog algebra is closed; the oscillator only on its active
        # block, for angles within the bound its truncation is certified for
        model = CATALOG[key]
        bound = OSCILLATOR_PARAM_BOUND if model.rep.active_dim else np.pi
        angles = np.random.default_rng(seed).uniform(
            -bound, bound, (count, len(model.parameter_names)))
        ta = tilde_by_adjoint(model.rep, model.circuit, angles)
        tc = tilde_by_conjugation(model.rep, model.circuit, angles)
        assert model.rep.block_norm(ta - tc) <= 1e-10


def _heisenberg_ad():
    """Exact adjoint matrices of x, p, 1 with [x, p] = i 1."""
    ad = np.zeros((3, 3, 3), dtype=complex)
    ad[0, 2, 1] = 1j   # (ad_x)_{1,p} = c_{x,p}^1
    ad[1, 2, 0] = -1j  # (ad_p)_{1,x} = c_{p,x}^1
    return ad


class TestExpm:
    def test_so3_gives_rodrigues_rotation(self):
        # i theta ad_m = theta K with K real antisymmetric and K^3 = -K, so
        # exp(theta K) = I + sin(theta) K + (1 - cos(theta)) K^2
        K = 1j * spin_rep(1).adjoint_matrices()
        assert np.max(np.abs(K @ K @ K + K)) <= 1e-15
        theta = np.array([-7.0, -2.5, -0.3, 0.0, 1e-3, 0.9, 3.1, 12.0])
        t = theta[:, None, None, None]
        rodrigues = np.eye(3) + np.sin(t) * K + (1 - np.cos(t)) * (K @ K)
        assert np.max(np.abs(liealg._expm(t * K) - rodrigues)) <= 1e-14

    def test_heisenberg_gives_exactly_identity_plus_generator(self):
        # nilpotent: ad^2 = 0, so the series stops after the linear term and
        # squaring (I + X)^2 = I + 2X adds no rounding
        ad = _heisenberg_ad()
        a = np.array([0.0, 0.37, -2.0, 11.0, 1e3])[:, None, None, None]
        b = np.array([1.5, 0.0, -0.7, 40.0, -3.0])[:, None, None, None]
        X = 1j * (a * ad[0] + b * ad[1] + (a - b) * ad[2])
        assert np.array_equal(liealg._expm(X), np.eye(3) + X)

    def test_zero_gives_identity(self):
        zero = 0.0 * spin_rep(1).adjoint_matrices()
        assert np.array_equal(liealg._expm(zero), np.broadcast_to(np.eye(3), zero.shape))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), n=st.integers(1, 6),
           norm=st.floats(2.0, 40.0))
    def test_inverse_is_exponential_of_negative(self, seed, count, n, norm):
        # anti-Hermitian stack scaled to a largest 1-norm of 2..40, so the
        # result is squared 3 to 8 times
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
        Y = 1j * (H + H.conj().swapaxes(-1, -2))
        Y *= norm / np.max(np.abs(Y).sum(axis=-2))
        product = liealg._expm(Y) @ liealg._expm(-Y)
        assert np.max(np.abs(product - np.eye(n))) <= 1e-12
