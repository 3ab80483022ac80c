import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import linalg
from statemetric.errors import NotHermitian
from statemetric.models import (
    OscillatorModelSpec,
    oscillator_model,
    spin_operators,
    two_spin_generators,
)


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


def ladder(sub):
    """The Hermitian tridiagonal matrix with a zero diagonal and subdiagonal ``sub``."""
    sub = np.asarray(sub, dtype=complex)
    return np.diag(sub, -1) + np.diag(sub.conj(), 1)


# Bound on herm_eig's structured routes, relative to max|M|.  The worst of
# 20,000 random ladders (d <= 40, magnitudes 1e-4..1e4, some entries zero)
# read 4.6e-15 on the eigenvalues (against eigvalsh), 1.4e-14 on the
# reconstruction and 5.6e-15 on unitarity; complex eigh read 5.0e-15,
# 4.1e-15 and 1.2e-10 on the same draws.
STRUCTURED_TOL = 1e-13


@st.composite
def ladder_subdiagonals(draw):
    """Subdiagonals of ladders: zero entries split the matrix into blocks,
    and entries of 1.0 repeat singular values across them."""
    d = draw(st.integers(1, 40))
    size = {"min_size": d - 1, "max_size": d - 1}
    entry = st.one_of(st.just(0.0), st.just(1.0), st.floats(-4, 4).map(lambda e: 10.0**e))
    mag = np.array(draw(st.lists(entry, **size)), dtype=float)
    angle = np.array(draw(st.lists(st.floats(-np.pi, np.pi), **size)), dtype=float)
    return mag * np.exp(1j * angle)


class TestStructuredRoutes:
    @settings(max_examples=100, deadline=None)
    @given(ladder_subdiagonals())
    def test_ladder_eigenpairs(self, sub):
        M = ladder(sub)
        d = M.shape[0]
        scale = max(1e-300, float(np.max(np.abs(M))))
        w, V = linalg.herm_eig(M)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - np.linalg.eigvalsh(M))) <= STRUCTURED_TOL * scale
        assert np.max(np.abs((V * w) @ V.conj().T - M)) <= STRUCTURED_TOL * scale
        assert departure_from_unitary(V) <= STRUCTURED_TOL
        # _fix_phases: each column's first component above 1e-8 is real positive
        pivot = V[np.argmax(np.abs(V) > 1e-8, axis=0), np.arange(d)]
        assert np.all(pivot.real > 0) and np.max(np.abs(pivot.imag)) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]), min_size=1, max_size=12))
    def test_diagonal_is_stably_sorted(self, entries):
        order = np.argsort(entries, kind="stable")
        w, V = linalg.herm_eig(np.diag(entries).astype(complex))
        assert np.array_equal(w, np.array(entries)[order])
        assert np.array_equal(V, np.eye(len(entries))[:, order])

    @pytest.mark.parametrize("M", [np.eye(5, dtype=complex), two_spin_generators("sum")[0]],
                             ids=["identity", "two_spin_sum_A1"])
    def test_repeated_diagonal(self, M):
        order = np.argsort(M.diagonal().real, kind="stable")
        w, V = linalg.herm_eig(M)
        assert np.array_equal(w, M.diagonal().real[order])
        assert np.array_equal(V, np.eye(len(w))[:, order])


def _oscillator_generator(name):
    rep = oscillator_model(OscillatorModelSpec(truncation=32)).rep
    return rep.generator(name)


def _tridiagonal_with_diagonal():
    return ladder([1.0, 2j, -0.5, 1.5]) + np.diag([0.0, 0.3, 0.0, -1.0, 0.0])


def _beyond_band_below():
    M = ladder([1.0, 2j, -0.5, 1.5])
    M[3, 0] = M[0, 3] = 0.25
    return M


class TestRouteSelection:
    """The LAPACK call each matrix takes, counted on ``linalg``'s numpy."""

    @staticmethod
    def count_calls(monkeypatch, M):
        calls = []
        for name in ("eigh", "svd"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        w, V = linalg.herm_eig(M, check=False)
        return calls, w, V

    @pytest.mark.parametrize("M, route", [
        (spin_operators(1.5)[2], []),
        (spin_operators(1.5)[0], ["svd"]),
        (spin_operators(2)[1], ["svd"]),
        (_oscillator_generator("x"), ["svd"]),
        (_oscillator_generator("p"), ["svd"]),
        (_oscillator_generator("1"), []),
        (two_spin_generators("sum")[0], []),
        (two_spin_generators("dm_xx")[1], ["svd"]),
        (two_spin_generators("sum")[1], ["eigh"]),  # zero diagonal, but anti-diagonal
        (_tridiagonal_with_diagonal(), ["eigh"]),
        (_beyond_band_below(), ["eigh"]),
    ], ids=["Sz", "Sx", "Sy", "osc_x", "osc_p", "osc_identity", "two_spin_sum_A1",
            "two_spin_dm_xx_A2", "two_spin_sum_A2", "nonzero_diagonal", "beyond_band_below"])
    def test_route_and_reconstruction(self, monkeypatch, M, route):
        calls, w, V = self.count_calls(monkeypatch, M)
        assert calls == route
        scale = float(np.max(np.abs(M)))
        assert np.max(np.abs((V * w) @ V.conj().T - M)) <= STRUCTURED_TOL * scale
        assert departure_from_unitary(V) <= STRUCTURED_TOL

    @pytest.mark.parametrize("base, route", [
        (ladder([1.0, 2j, -0.5, 1.5]), ["svd"]),
        (np.diag([2.0, -1.0, 0.5, 0.0, 3.0]).astype(complex), []),
    ], ids=["ladder", "diagonal"])
    def test_upper_triangle_is_not_read(self, monkeypatch, base, route):
        # an entry beyond the band in the upper triangle alone: eigh reads the
        # lower triangle (UPLO='L') and so does the route choice
        M = base.copy()
        M[0, 3] = 5.0 - 2.0j
        assert np.linalg.eigvalsh(M).tobytes() == np.linalg.eigvalsh(base).tobytes()
        calls, w, V = self.count_calls(monkeypatch, M)
        assert calls == route
        want = linalg.herm_eig(base)
        assert w.tobytes() == want[0].tobytes() and V.tobytes() == want[1].tobytes()


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

