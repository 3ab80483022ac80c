"""Lie algebras as matrix representations.

Extracts structure constants from a generator list, validates known algebra
kinds, and computes conjugated ("tilde") generators both by direct matrix
conjugation and through the adjoint representation.  The two routes are
independent and must agree; the second is the closed form of the
nested-commutator expansion of a conjugation by a product of exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DependentGenerators, NotClosed, UnknownGenerator

CLOSURE_TOL = 1e-9
JACOBI_TOL = 1e-10
GRAM_COND_MAX = 1e8


@dataclass(frozen=True)
class LieAlgebraRep:
    """Named Hermitian generators plus their structure constants.

    constants[i, j, k] is c_ij^k in [A_i, A_j] = sum_k c_ij^k A_k.
    ``active_dim``, when set, restricts norm-based comparisons to the leading
    block of that size; used for truncated representations (e.g. Fock-space
    ladder operators) whose closure fails only at the truncation edge.
    """

    names: tuple
    generators: tuple
    constants: np.ndarray
    closure_residual: float
    active_dim: int | None = None
    _eig_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownGenerator(f"no generator named {name!r}") from None

    def generator(self, name: str) -> np.ndarray:
        return self.generators[self.index(name)]

    def generator_eig(self, name: str):
        """Cached eigendecomposition of a generator (they never change)."""
        if name not in self._eig_cache:
            self._eig_cache[name] = linalg.herm_eig(self.generator(name))
        return self._eig_cache[name]

    def adjoint_matrices(self) -> np.ndarray:
        """ad_m with (ad_m)_{k,l} = c_{m,l}^k; exponentiates to conjugation."""
        return np.transpose(self.constants, (0, 2, 1))

    def block_norm(self, M: np.ndarray) -> float:
        """max-abs entry norm, restricted to the active block when set."""
        if self.active_dim is not None:
            M = M[: self.active_dim, : self.active_dim]
        return float(np.max(np.abs(M)))

    def jacobi_residual(self) -> float:
        """Max residual of the Jacobi identity on the structure constants."""
        c = self.constants
        # sum_m c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l = 0
        t1 = np.einsum("ijm,mkl->ijkl", c, c)
        t2 = np.einsum("jkm,mil->ijkl", c, c)
        t3 = np.einsum("kim,mjl->ijkl", c, c)
        return float(np.max(np.abs(t1 + t2 + t3)))

    def constant_purity(self) -> float:
        """Max |Re c|; purely imaginary constants for Hermitian generators."""
        return float(np.max(np.abs(self.constants.real)))


def extract_structure_constants(
    generators,
    names=None,
    active_dim: int | None = None,
    closure_tol: float = CLOSURE_TOL,
) -> LieAlgebraRep:
    """Fit c_ij^k by least squares on vectorized generators.

    Only pairs i < j are solved; antisymmetry is enforced by negation.
    Raises NotClosed if any commutator leaves the generator span by more than
    ``closure_tol`` (measured on the active block when ``active_dim`` is set),
    and DependentGenerators if the generators are not linearly independent.
    """
    generators = tuple(generators)
    if names is None:
        names = tuple(f"A{i + 1}" for i in range(len(generators)))
    names = tuple(names)
    if len(names) != len(generators):
        raise ValueError("names and generators differ in length")
    gens = tuple(linalg.require_hermitian(G, name=f"generator {name!r}")
                 for name, G in zip(names, generators))
    n = len(gens)
    d = gens[0].shape[0]
    for G in gens:
        if G.shape[0] != d:
            raise DependentGenerators("generators have mixed dimensions")

    def block(M):
        return M[:active_dim, :active_dim] if active_dim is not None else M

    basis = np.stack([block(G).ravel() for G in gens], axis=1)
    gram = basis.conj().T @ basis
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_COND_MAX:
        raise DependentGenerators(
            f"generator Gram matrix condition number {cond:.3e} exceeds {GRAM_COND_MAX:.1e}"
        )

    constants = np.zeros((n, n, n), dtype=complex)
    residual = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            com = linalg.commutator(gens[i], gens[j])
            coeff, *_ = np.linalg.lstsq(basis, block(com).ravel(), rcond=None)
            fitted = sum(c * G for c, G in zip(coeff, gens))
            resid = float(np.max(np.abs(block(com - fitted))))
            if resid > closure_tol:
                raise NotClosed(
                    f"[{names[i]}, {names[j]}] leaves the span "
                    f"(residual {resid:.3e} > {closure_tol:.1e})"
                )
            residual = max(residual, resid)
            constants[i, j] = coeff
            constants[j, i] = -coeff
    return LieAlgebraRep(names, gens, constants, residual, active_dim)


@dataclass(frozen=True)
class BracketCheck:
    label: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> BracketCheck:
        return max(self.checks, key=lambda c: c.residual / c.tol)


def validate_algebra(rep: LieAlgebraRep, kind: str, n: int = 1) -> ValidationReport:
    """Check the defining brackets of a known algebra kind.

    kind "heisenberg" expects generators ordered A_1..A_n, B_1..B_n, C and
    checks [A_j, B_l] = i delta_jl C with everything else commuting;
    kind "so3" checks the three cyclic brackets [A_1, A_2] = i A_3 etc.;
    kind "generic" checks only the Jacobi identity.  Failures are reported,
    never raised.
    """
    checks = []

    def add(label, lhs, rhs, tol=CLOSURE_TOL):
        checks.append(BracketCheck(label, rep.block_norm(lhs - rhs), tol))

    if kind == "heisenberg":
        if rep.size != 2 * n + 1:
            raise ValueError(f"heisenberg({n}) needs {2 * n + 1} generators, got {rep.size}")
        A = rep.generators[:n]
        B = rep.generators[n:2 * n]
        C = rep.generators[2 * n]
        zero = np.zeros_like(C)
        for j in range(n):
            for l in range(n):
                target = 1j * C if j == l else zero
                add(f"[A{j + 1}, B{l + 1}]", linalg.commutator(A[j], B[l]), target)
                add(f"[A{j + 1}, A{l + 1}]", linalg.commutator(A[j], A[l]), zero)
                add(f"[B{j + 1}, B{l + 1}]", linalg.commutator(B[j], B[l]), zero)
            add(f"[A{j + 1}, C]", linalg.commutator(A[j], C), zero)
            add(f"[B{j + 1}, C]", linalg.commutator(B[j], C), zero)
    elif kind == "so3":
        if rep.size != 3:
            raise ValueError(f"so3 needs 3 generators, got {rep.size}")
        A1, A2, A3 = rep.generators
        add("[A1, A2] - iA3", linalg.commutator(A1, A2), 1j * A3)
        add("[A2, A3] - iA1", linalg.commutator(A2, A3), 1j * A1)
        add("[A3, A1] - iA2", linalg.commutator(A3, A1), 1j * A2)
    elif kind == "generic":
        pass
    else:
        raise ValueError(f"unknown algebra kind {kind!r}")

    checks.append(BracketCheck("jacobi", rep.jacobi_residual(), JACOBI_TOL))
    return ValidationReport(kind, tuple(checks))


def detect_kind(rep: LieAlgebraRep, tol: float = 1e-9) -> str:
    """Best-effort label for a validated algebra; used by reporting only."""
    if rep.size == 3:
        if validate_algebra(rep, "so3").passed:
            return "so3"
    if rep.size % 2 == 1 and rep.size >= 3:
        n = (rep.size - 1) // 2
        try:
            if validate_algebra(rep, "heisenberg", n).passed:
                return f"heisenberg({n})"
        except ValueError:
            pass
    if float(np.max(np.abs(rep.constants))) <= tol:
        return "abelian"
    return "generic"


def _circuit_factors(rep: LieAlgebraRep, circuit, theta):
    """(generator index, angle) per factor, in circuit order."""
    angles = circuit.angles(theta)
    return [(rep.index(gname), angles[k])
            for k, (gname, _pname) in enumerate(circuit.factors)]


def tilde_by_conjugation(rep: LieAlgebraRep, circuit, theta):
    """Conjugate each circuit generator by the downstream factors.

    For factor j with generator A_j the result is W^dagger A_j W where W is
    the product of the circuit factors after j.
    """
    factors = _circuit_factors(rep, circuit, theta)
    tildes = [None] * len(factors)
    W = np.eye(rep.dim, dtype=complex)
    for j in range(len(factors) - 1, -1, -1):
        idx, angle = factors[j]
        tildes[j] = W.conj().T @ rep.generators[idx] @ W
        if j > 0:
            w, V = rep.generator_eig(rep.names[idx])
            W = linalg.expm_phase_eig(w, V, angle) @ W
    return tildes


def tilde_by_adjoint(rep: LieAlgebraRep, circuit, theta):
    """Same conjugation computed entirely in the adjoint representation.

    The coefficient vector of each tilde generator is a product of
    exp(i theta_k ad_k) over the downstream factors applied to a basis unit
    vector; the matrix is then reassembled from the generator basis.
    """
    # the only scipy user: importing it here keeps scipy.linalg off start-up
    import scipy.linalg

    if rep.closure_residual > CLOSURE_TOL:
        raise NotClosed(
            f"closure residual {rep.closure_residual:.3e} exceeds {CLOSURE_TOL:.1e}"
        )
    factors = _circuit_factors(rep, circuit, theta)
    ad = rep.adjoint_matrices()
    exps = [scipy.linalg.expm(1j * angle * ad[idx]) for idx, angle in factors]
    gens = np.stack(rep.generators)
    tildes = []
    prod = np.eye(rep.size, dtype=complex)  # product over downstream factors
    for j in range(len(factors) - 1, -1, -1):
        idx, _ = factors[j]
        # prod applied to the unit vector e_idx
        tildes.append(np.tensordot(prod[:, idx], gens, axes=(0, 0)))
        prod = prod @ exps[j]
    tildes.reverse()
    return tildes
