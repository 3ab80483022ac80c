"""Built-in model catalog.

Each constructor returns a Model bundling a Lie algebra representation, a
circuit and an initial state: arbitrary-spin rotations, the truncated
harmonic oscillator driven by position/momentum translations, and three
two-qubit systems whose interaction operators close into so(3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadNormalization,
    BadVariant,
    InvalidOscillator,
    InvalidSpin,
    NonFiniteAngle,
    SubspaceLeak,
    TruncationTooSmall,
    UnknownModel,
)
from .liealg import LieAlgebraRep, extract_structure_constants
from .manifold import CircuitSpec, build_unitary, evolve_batch


@dataclass(frozen=True)
class Model:
    """A ready-to-evaluate catalog entry."""

    name: str
    rep: LieAlgebraRep
    circuit: CircuitSpec
    initial_state: np.ndarray
    gamma: float = 1.0

    @property
    def parameter_names(self) -> tuple:
        return self.circuit.parameter_names


# largest deviation from 1 of the norm of a given state vector
NORM_TOL = 1e-12


def normalized(amps):
    """(amps / |amps|, |amps|), from amps scaled exactly by the power of two above
    their largest real or imaginary part, so nothing over- or underflows."""
    x = np.array(amps, dtype=complex).ravel().view(float)  # complex / subnormal overflows
    e = np.frexp(np.max(np.abs(x)))[1]
    x = np.ldexp(x, -e).view(complex)
    n = np.linalg.norm(x)
    with np.errstate(all="ignore"):  # the caller refuses a zero or non-finite norm
        return x / n, np.ldexp(n, e)


def _normalized(amps) -> np.ndarray:
    psi, norm = normalized(amps)
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
        raise BadNormalization(f"state norm {float(norm)!r} deviates from 1 by more than "
                               f"{NORM_TOL:g}")
    return psi


# Largest Hilbert dimension a catalog model is built at (spin 2s + 1,
# oscillator truncation); each dense generator then takes 16 MiB.
MAX_HILBERT_DIM = 1024

# ---------------------------------------------------------------------------
# spin-s rotations


def _half_integer_spin(s) -> float:
    """s as a positive half-integer of dimension 2s + 1 <= MAX_HILBERT_DIM, or InvalidSpin."""
    two_s = 2 * s
    if np.isfinite(s) and two_s + 1 > MAX_HILBERT_DIM:  # 2s may overflow to inf
        raise InvalidSpin(f"spin {s} needs dimension 2s + 1 = {two_s + 1:.0f}, "
                          f"above the maximum {MAX_HILBERT_DIM}")
    if not (np.isfinite(s) and abs(two_s - round(two_s)) <= 1e-12 and s >= 0.5):
        raise InvalidSpin(f"spin must be a positive half-integer, got {s}")
    return round(two_s) / 2


def spin_operators(s):
    """(S_x, S_y, S_z) for spin s in the S_z eigenbasis ordered m = s..-s."""
    s = _half_integer_spin(s)
    m = np.arange(s, -s - 0.5, -1.0)
    sz = np.diag(m).astype(complex)
    # raising operator: <m+1|S+|m> = sqrt(s(s+1) - m(m+1))
    sp = np.zeros_like(sz)
    for i in range(1, len(m)):
        sp[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return sx, sy, sz


@dataclass(frozen=True)
class SpinModelSpec:
    """Spin value plus initial state: either the S_z eigenvalue m or a full
    coefficient list over eigenstates ordered by ascending m (-s..s)."""

    s: float = 0.5
    m: float | None = None
    coefficients: tuple | None = None
    gamma: float = 1.0


def spin_model(spec: SpinModelSpec) -> Model:
    """Euler-angle rotation manifold of a spin-s state.

    The circuit is exp(-i t1 Sz) exp(-i t2 Sx) exp(-i t3 Sz); an eigenstate
    initial state produces a sphere of radius (gamma/sqrt(2)) sqrt(s(s+1)-m^2).
    """
    sx, sy, sz = spin_operators(spec.s)
    s = round(2 * spec.s) / 2
    dim = sx.shape[0]
    if spec.coefficients is not None and spec.m is not None:
        raise BadNormalization("spin model needs either m or a coefficient list, not both")
    if spec.coefficients is not None:
        if len(spec.coefficients) != dim:
            raise BadNormalization(f"expected {dim} coefficients, got {len(spec.coefficients)}")
        psi = _normalized(np.asarray(spec.coefficients, dtype=complex)[::-1])
    elif spec.m is not None:
        if not abs(spec.m) <= s + 1e-12 or abs((s - spec.m) - round(s - spec.m)) > 1e-12:
            raise InvalidSpin(f"m = {spec.m} is not an eigenvalue of S_z for s = {s}")
        psi = np.zeros(dim, dtype=complex)
        psi[round(s - spec.m)] = 1.0
    else:
        raise BadNormalization("spin model needs either m or a coefficient list")
    rep = extract_structure_constants((sz, sx, sy), names=("Sz", "Sx", "Sy"))
    circuit = CircuitSpec(rep, (("Sz", "theta_1"), ("Sx", "theta_2"), ("Sz", "theta_3")))
    return Model(name="spin", rep=rep, circuit=circuit, initial_state=psi, gamma=spec.gamma)


# ---------------------------------------------------------------------------
# truncated harmonic oscillator


@dataclass(frozen=True)
class OscillatorModelSpec:
    mass: float = 1.0
    omega: float = 1.0
    n: int = 0
    truncation: int = 64
    gamma: float = 1.0


# parameter bound the oscillator catalog entry is certified for; the
# truncation leakage check at build time uses it
OSCILLATOR_PARAM_BOUND = 1.0


def oscillator_model(spec: OscillatorModelSpec) -> Model:
    """Position/momentum translations of a Fock state |n> on a truncated space.

    Generators (x, p, 1) close into the Heisenberg algebra away from the
    truncation edge; the representation carries an active block on which all
    operator-level comparisons are performed.
    """
    mw = float(spec.mass) * float(spec.omega)  # x and p scale as sqrt(mw)
    if not (0 < spec.mass < np.inf and 0 < spec.omega < np.inf and 0 < mw < np.inf):
        raise InvalidOscillator("mass, frequency and their product must be positive and finite")
    N = int(spec.truncation)
    n = int(spec.n)
    if n < 0:
        raise InvalidOscillator(f"level n must be non-negative, got {n}")
    if N > MAX_HILBERT_DIM:
        raise InvalidOscillator(f"truncation {N} is above the maximum dimension "
                                f"{MAX_HILBERT_DIM}")
    if N <= n + 4:
        raise TruncationTooSmall(f"truncation {N} must exceed n + 4 = {n + 4}")
    a = np.zeros((N, N), dtype=complex)
    for k in range(1, N):
        a[k - 1, k] = np.sqrt(k)
    ad = a.conj().T
    x = (ad + a) / np.sqrt(2 * mw)
    p = 1j * np.sqrt(mw / 2) * (ad - a)
    ident = np.eye(N, dtype=complex)

    active = max(n + 5, N // 4)
    rep = extract_structure_constants((x, p, ident), names=("x", "p", "1"),
                                      active_dim=active)
    circuit = CircuitSpec(rep, (("x", "theta"), ("p", "phi")))
    psi = np.zeros(N, dtype=complex)
    psi[n] = 1.0

    # certify the truncation for the documented parameter range
    b = OSCILLATOR_PARAM_BOUND
    worst = evolve_batch(circuit, [[b, b]], psi)[0]
    tail = float(np.linalg.norm(worst[-4:]))
    if tail > 1e-8:
        raise TruncationTooSmall(
            f"population {tail:.3e} in the top Fock levels at |theta|,|phi| <= {b}"
        )
    return Model(name="oscillator", rep=rep, circuit=circuit, initial_state=psi,
                 gamma=spec.gamma)


# ---------------------------------------------------------------------------
# two-spin systems

_UP = np.array([1.0, 0.0], dtype=complex)
_DOWN = np.array([0.0, 1.0], dtype=complex)

TWO_SPIN_VARIANTS = ("dm_xx", "sum", "directional")


@dataclass(frozen=True)
class TwoSpinModelSpec:
    """Two spin-1/2 sites; basis ordered |uu>, |ud>, |du>, |dd>.

    variant "dm_xx": z-axis Dzyaloshinsky-Moriya + XX exchange + staggered
    field; "sum": the partner Hamiltonian acting on the |uu>/|dd> subspace;
    "directional": the generalization along an arbitrary unit vector given by
    polar/azimuthal angles (eta, chi).  ``initial`` is either a keyword
    (up_up, up_down, down_up, down_down, plus_minus, minus_plus) or an
    explicit 4-component amplitude vector.  The Hamiltonian couplings do not
    shape the manifold; they pick a path on it (``euler_from_time``).
    """

    variant: str = "dm_xx"
    eta: float = 0.0
    chi: float = 0.0
    initial: object = "up_down"
    gamma: float = 1.0


@functools.cache
def _site_ops():
    """Read-only (S_x, S_y, S_z) of the first and of the second site."""
    sx, sy, sz = spin_operators(0.5)
    eye = np.eye(2, dtype=complex)
    first = tuple(np.kron(op, eye) for op in (sx, sy, sz))
    second = tuple(np.kron(eye, op) for op in (sx, sy, sz))
    for op in first + second:
        op.flags.writeable = False
    return first, second


def _bloch_pair(eta: float, chi: float):
    """Spin-1/2 states along +/- the unit vector with polar eta, azimuth chi."""
    plus = np.cos(eta / 2) * _UP + np.sin(eta / 2) * np.exp(1j * chi) * _DOWN
    minus = -np.sin(eta / 2) * _UP + np.cos(eta / 2) * np.exp(1j * chi) * _DOWN
    return plus, minus


def two_spin_generators(variant: str, eta: float = 0.0, chi: float = 0.0):
    """The so(3) triple (A_1, A_2, A_3) for a two-spin variant."""
    if variant == "dm_xx":  # the directional triple along z
        return two_spin_generators("directional")
    (sx1, sy1, sz1), (sx2, sy2, sz2) = _site_ops()
    if variant == "sum":
        a1 = (sz1 + sz2) / 2
        a2 = sx1 @ sx2 - sy1 @ sy2
        a3 = sx1 @ sy2 + sy1 @ sx2
    elif variant == "directional":
        nvec = np.array([np.sin(eta) * np.cos(chi),
                         np.sin(eta) * np.sin(chi),
                         np.cos(eta)])
        s1 = (sx1, sy1, sz1)
        s2 = (sx2, sy2, sz2)
        n_s1 = sum(nvec[i] * s1[i] for i in range(3))
        n_s2 = sum(nvec[i] * s2[i] for i in range(3))
        a1 = (n_s1 - n_s2) / 2
        cross = sum(nvec[i] * (s1[(i + 1) % 3] @ s2[(i + 2) % 3]
                               - s1[(i + 2) % 3] @ s2[(i + 1) % 3])
                    for i in range(3))
        a2 = cross
        a3 = sum(s1[i] @ s2[i] for i in range(3)) - n_s1 @ n_s2
    else:
        raise BadVariant(f"unknown two-spin variant {variant!r}; "
                         f"expected one of {TWO_SPIN_VARIANTS}")
    return a1, a2, a3


def _two_spin_initial(spec: TwoSpinModelSpec) -> np.ndarray:
    if isinstance(spec.initial, str):
        plus, minus = _bloch_pair(spec.eta, spec.chi)
        table = {
            "up_up": np.kron(_UP, _UP),
            "up_down": np.kron(_UP, _DOWN),
            "down_up": np.kron(_DOWN, _UP),
            "down_down": np.kron(_DOWN, _DOWN),
            "plus_minus": np.kron(plus, minus),
            "minus_plus": np.kron(minus, plus),
        }
        if spec.initial not in table:
            raise BadVariant(f"unknown initial-state keyword {spec.initial!r}")
        return table[spec.initial]
    psi = np.asarray(spec.initial, dtype=complex).ravel()
    if psi.shape[0] != 4:
        raise BadNormalization("two-spin initial state needs 4 amplitudes")
    return _normalized(psi)


def two_spin_model(spec: TwoSpinModelSpec) -> Model:
    if not np.all(np.isfinite([spec.eta, spec.chi])):
        raise NonFiniteAngle(f"eta and chi must be finite, got {spec.eta!r} and {spec.chi!r}")
    a1, a2, a3 = two_spin_generators(spec.variant, spec.eta, spec.chi)
    rep = extract_structure_constants((a1, a2, a3), names=("A1", "A2", "A3"))
    circuit = CircuitSpec(rep, (("A1", "theta_1"), ("A2", "theta_2"), ("A1", "theta_3")))
    psi = _two_spin_initial(spec)
    return Model(name=f"two_spin_{spec.variant}", rep=rep, circuit=circuit,
                 initial_state=psi, gamma=spec.gamma)


# ---------------------------------------------------------------------------
# Euler-angle / evolution-time bridge for the dm_xx Hamiltonian

_SUBSPACE = (1, 2)  # |ud>, |du>


def _wrap_angle(x: float) -> float:
    """Wrap into (-pi, pi]."""
    w = (x + np.pi) % (2 * np.pi) - np.pi
    return np.pi if w <= -np.pi + 1e-15 else float(w)


def _zxz_angles(B: np.ndarray):
    """Euler angles of a 2x2 special-unitary B = Rz(t1) Rx(t2) Rz(t3).

    Gauge: t2 in [0, pi], t1 and t3 in (-pi, pi].  At the t2 = 0 or pi
    degeneracy only the sum (resp. difference) is determined; the free
    combination is set to zero.
    """
    b00, b10 = B[0, 0], B[1, 0]
    t2 = 2 * np.arctan2(abs(b10), abs(b00))
    total = -2 * np.angle(b00) if abs(b00) > 1e-12 else 0.0
    diff = 2 * (np.angle(b10) + np.pi / 2) if abs(b10) > 1e-12 else 0.0
    return _wrap_angle((total + diff) / 2), float(t2), _wrap_angle((total - diff) / 2)


def dm_xx_evolution(j1: float, j2: float, hz: float, t: float) -> np.ndarray:
    """exp(-iHt) for H = hz A1 + J1 A2 + J2 A3 of the dm_xx generators."""
    a1, a2, a3 = two_spin_generators("dm_xx")
    H = hz * a1 + j1 * a2 + j2 * a3
    return linalg.expm_phase_eig(*linalg.herm_eig(H), t)


def _subspace_leak(U: np.ndarray) -> float:
    """Largest entry of U coupling the |ud>/|du> subspace to its complement."""
    inside = list(_SUBSPACE)
    outside = [k for k in range(4) if k not in inside]
    return max(float(np.max(np.abs(U[np.ix_(inside, outside)]))),
               float(np.max(np.abs(U[np.ix_(outside, inside)]))))


def _euler_angles(U: np.ndarray):
    """Euler angles of the subspace block of a dm_xx evolution U and the
    subspace leak of U; raises SubspaceLeak if U couples the subspace to its
    complement."""
    leak = _subspace_leak(U)
    if leak > 1e-10:
        raise SubspaceLeak(f"evolution couples the invariant subspace (|elem| = {leak:.3e})")

    inside = list(_SUBSPACE)
    B = U[np.ix_(inside, inside)]
    B = B / np.sqrt(np.linalg.det(B))  # special-unitary up to an overall sign

    # rotate the basis so the restricted A2 block becomes sigma_x / 2
    a2 = two_spin_generators("dm_xx")[1]
    c = a2[np.ix_(inside, inside)][0, 1]
    D = np.diag([1.0, np.conj(c) / abs(c)])
    return _zxz_angles(D.conj().T @ B @ D), leak


@functools.cache
def _dm_xx_circuit() -> CircuitSpec:
    """The dm_xx circuit; it holds no Hamiltonian coupling, so one serves
    every set of couplings."""
    return two_spin_model(TwoSpinModelSpec("dm_xx")).circuit


def euler_from_time(j1: float, j2: float, hz: float, t: float):
    """Euler angles reproducing exp(-iHt) of the dm_xx Hamiltonian
    H = hz A1 + J1 A2 + J2 A3 on the invariant |ud>/|du> subspace.

    Returns (theta_1, theta_2, theta_3) such that the circuit
    exp(-i t1 A1) exp(-i t2 A2) exp(-i t3 A1) matches the subspace block of
    exp(-iHt) up to a global phase.  Raises SubspaceLeak if the evolution
    couples the subspace to its complement.
    """
    return _euler_angles(dm_xx_evolution(j1, j2, hz, t))[0]


def euler_bridge_report(j1: float, j2: float, hz: float, t: float) -> dict:
    """Angles plus the residuals of the time/angle relations.

    ``tan_residual`` checks tan((t1 - t3)/2) = J2/J1; ``block_mismatch`` is
    the max deviation of the circuit's subspace block from exp(-iHt)'s block
    after aligning global phases; ``subspace_leak`` is the largest entry of
    exp(-iHt) that couples the subspace to its complement.
    """
    U = dm_xx_evolution(j1, j2, hz, t)
    (t1, t2, t3), leak = _euler_angles(U)
    Ufull = build_unitary(_dm_xx_circuit(),
                          {"theta_1": t1, "theta_2": t2, "theta_3": t3})

    inside = list(_SUBSPACE)
    B = U[np.ix_(inside, inside)]
    Bc = Ufull[np.ix_(inside, inside)]
    idx = np.unravel_index(np.argmax(np.abs(B)), B.shape)
    phase = B[idx] / Bc[idx]
    block_mismatch = float(np.max(np.abs(phase * Bc - B)))

    if j1 != 0 and abs(np.sin(t2 / 2)) > 1e-8:
        tan_residual = abs(np.tan((t1 - t3) / 2) - j2 / j1)
    else:
        tan_residual = float("nan")
    return {
        "angles": (t1, t2, t3),
        "tan_residual": tan_residual,
        "block_mismatch": block_mismatch,
        "subspace_leak": leak,
    }


# ---------------------------------------------------------------------------
# catalog access for the CLI and the verification suite

MODEL_IDS = ("spin", "oscillator") + tuple(f"two_spin_{v}" for v in TWO_SPIN_VARIANTS)


def build_model(model_id: str, **params) -> Model:
    """Construct a catalog model from its id and keyword parameters."""
    if model_id == "spin":
        return spin_model(SpinModelSpec(**params))
    if model_id == "oscillator":
        return oscillator_model(OscillatorModelSpec(**params))
    variant = model_id.removeprefix("two_spin_")
    if variant != model_id and variant in TWO_SPIN_VARIANTS:
        return two_spin_model(TwoSpinModelSpec(variant=variant, **params))
    raise UnknownModel(f"unknown model id {model_id!r}; known: {MODEL_IDS}")
