import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import linalg
from statemetric.errors import NotHermitian
from statemetric.models import spin_operators


def random_hermitian(rng, dim):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (M + M.conj().T) / 2


def departure_from_unitary(U):
    """max |U^dagger U - I| over entries."""
    return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))


def expm_phase(A, t):
    """exp(-i t A) the way the package builds it: eigendecomposition, then phases."""
    return linalg.expm_phase_eig(*linalg.herm_eig(A), t)


class TestHermEig:
    def test_diagonal_input(self):
        w, V = linalg.herm_eig(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(w, [-1.0, 1.0])
        # ascending order means columns are swapped identity columns
        assert np.allclose(np.abs(V), [[0, 1], [1, 0]])

    def test_pauli_x_spectrum(self):
        w, _ = linalg.herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    def test_spin1_sx_spectrum(self):
        sx, _, _ = spin_operators(1)
        w, _ = linalg.herm_eig(sx)
        assert np.allclose(w, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 8, 17):
            M = random_hermitian(rng, dim)
            w, V = linalg.herm_eig(M)
            assert np.max(np.abs((V * w) @ V.conj().T - M)) <= 1e-10
            assert departure_from_unitary(V) <= 1e-10

    def test_phase_fixing_deterministic(self):
        rng = np.random.default_rng(11)
        M = random_hermitian(rng, 5)
        w1, V1 = linalg.herm_eig(M)
        w2, V2 = linalg.herm_eig(M.copy())
        assert np.array_equal(V1, V2)

    def test_fix_phases_matches_loop_reference(self):
        def reference(V):
            V = V.copy()
            for k in range(V.shape[1]):
                col = V[:, k]
                pivot = col[np.argmax(np.abs(col) > 1e-8)]
                if pivot != 0:
                    V[:, k] = col * (abs(pivot) / pivot)
            return V

        rng = np.random.default_rng(11)
        blocks = [np.linalg.eigh(random_hermitian(rng, d))[1] for d in (3, 64, 256)]
        blocks += [np.linalg.eigh(op)[1] for s in (0.5, 1, 7.5, 40) for op in spin_operators(s)]
        V = blocks[0].copy()
        V[0, 0] = 0.0  # a leading zero entry moves the pivot down
        V[:, 1] = complex(-0.0, -0.0)  # a zero pivot: the column is left alone
        V[:2, 2] = 1e-9  # entries below the threshold are skipped
        for V in blocks + [V]:
            assert linalg._fix_phases(V).tobytes() == reference(V).tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotHermitian, match="non-finite"):
            linalg.require_hermitian(np.array([[bad, 0], [0, 1]], dtype=complex))


class TestExpmPhase:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(3)
        A = random_hermitian(rng, 4)
        assert np.allclose(expm_phase(A, 0.0), np.eye(4), atol=1e-14)

    def test_spin_half_sign_flip(self):
        # full 2*pi rotation of a spin-1/2 flips the sign of the state
        A = np.diag([0.5, -0.5]).astype(complex)
        assert np.max(np.abs(expm_phase(A, 2 * np.pi) + np.eye(2))) <= 1e-12

    def test_pi_rotation_about_y_swaps_basis(self):
        _, sy, _ = spin_operators(0.5)
        U = expm_phase(sy, np.pi)
        # exp(-i pi S_y) = [[0, -1], [1, 0]]: maps up to down with unit weight
        assert np.allclose(U, [[0, -1], [1, 0]], atol=1e-14)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        A = random_hermitian(rng, 6)
        assert departure_from_unitary(expm_phase(A, 1.7)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_additivity(self, seed, s, t):
        A = random_hermitian(np.random.default_rng(seed), 3)
        left = expm_phase(A, s) @ expm_phase(A, t)
        assert np.max(np.abs(left - expm_phase(A, s + t))) <= 1e-10

