"""Lie algebras as matrix representations.

Extracts structure constants from a generator list, validates known algebra
kinds, and computes conjugated ("tilde") generators both by direct matrix
conjugation and through the adjoint representation.  The two routes are
independent and must agree; the second is the closed form of the
nested-commutator expansion of a conjugation by a product of exponentials.

The structure-constant fit and ``validate_algebra`` form each bracket only
on the active block (``_bracket``, from the first k rows and columns of its
two generators): no d x d commutator or reconstruction is built.

Both routes take a (B, M) array of angles in factor order, as
``manifold.metric_batch`` does, and return the (B, M, d, d) stack of tilde
generators; a single point is a batch of one.  The adjoint route sums the
generators with their (B, M, n) coefficients (``tilde_coefficients``, all
that the metric kernel ``manifold.metric_batch`` needs).  Each factor
carries the coefficient rows through exp(i theta ad_k) by a plan built once
per generator and cached on the rep (``LieAlgebraRep.adjoint_plan``): a
finite series when ad_k is nilpotent, and otherwise its eigenbasis, from
``eigh`` after symmetrizing by the generators' Gram matrix, so every phase
has modulus 1 and the coefficients stay bounded at any angle.  Nothing
there has the size of the Hilbert dimension.  The conjugation applies each
factor from ``linalg.expm_phase_eig`` to the whole stack at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DependentGenerators, NotClosed, UnknownGenerator

# bracket residual bounds for generators (closure) and structure constants
# (Jacobi) with entries of at most 1; see closure_bound and jacobi_bound
CLOSURE_TOL = 1e-9
JACOBI_TOL = 1e-10
GRAM_COND_MAX = 1e8
# the structure-constant fit's roundoff, relative to max(1, max|ad_k|)^j for
# a j-th power: an adjoint entry within it is zero, and an ad_k whose j-th
# power over j! is within it is nilpotent (the Heisenberg x and p)
NILPOTENT_TOL = 1e-14
# relative departure of ad_k from self-adjointness in the Gram metric that
# the eigen plan still symmetrizes away
ADJOINT_HERM_TOL = 1e-10


class AdjointPlan:
    """exp(i theta ad_k) on coefficient row vectors, for a stack of angles.

    With ``lam`` set, it is the eigen plan: rows -> ((rows @ left) *
    exp(i theta lam)) @ right.  Otherwise it is the finite series: ``terms``
    lists (ad_k^j / j!)^T for j = 1..J (none for ad_k = 0), and rows ->
    rows + sum_j (i theta)^j rows @ (ad_k^j / j!)^T.
    """

    __slots__ = ("left", "lam", "right", "terms")

    def __init__(self, left=None, lam=None, right=None, terms=None):
        self.left, self.lam, self.right, self.terms = left, lam, right, terms

    def carry(self, rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """rows (B, k, n) times exp(i theta[b] ad_k)^T, point by point."""
        b, k, n = rows.shape
        if self.lam is not None:
            Y = (rows.reshape(-1, n) @ self.left).reshape(b, k, n)
            Y *= np.exp(1j * theta[:, None, None] * self.lam)
            return (Y.reshape(-1, n) @ self.right).reshape(b, k, n)
        out, power = rows, 1
        for term in self.terms:  # (i theta)^j rows @ (ad_k^j / j!)^T
            power = power * 1j * theta[:, None, None]
            out = out + power * (rows @ term)
        return out


def gram_root(gram: np.ndarray):
    """(R, R^-1) for a positive definite Gram matrix: R = L^dagger, upper
    triangular, from its Cholesky factor, so Gram = R^dagger R."""
    R = np.linalg.cholesky(gram).conj().T
    return R, np.linalg.inv(R)


def adjoint_plan(ad: np.ndarray, root) -> AdjointPlan:
    """The plan for exp(i theta ad) of one adjoint matrix, given the
    ``gram_root`` (R, R^-1) of the Gram matrix of the generators it acts on.

    For a compact algebra, ad is self-adjoint in the Hilbert-Schmidt inner
    product x^dagger Gram y, so H = R ad R^-1 is Hermitian: ``eigh`` of its
    Hermitian part gives real eigenvalues, and |exp(i theta lam)| = 1 at
    every theta (an H within roundoff of zero, a central generator, gives
    the identity).  Otherwise, if ad is nilpotent, the finite series
    (``_nilpotent_series``; the Heisenberg x and p).  An ad that is neither
    (a truncated non-compact algebra) takes a general ``eig``, and a
    defective one raises DependentGenerators.
    """
    R, R_inv = root
    H = R @ ad @ R_inv
    size = float(np.max(np.abs(H)))
    if np.max(np.abs(H - H.conj().T)) <= ADJOINT_HERM_TOL * max(1.0, size):
        if size <= NILPOTENT_TOL:
            return AdjointPlan(terms=[])
        lam, U = np.linalg.eigh((H + H.conj().T) / 2)
        # ad = P diag(lam) P^-1 with P = R^-1 U; on row vectors,
        # rows @ exp(i theta ad)^T = ((rows @ P^-T) * phases) @ P^T
        return AdjointPlan(left=(U.conj().T @ R).T, lam=lam, right=(R_inv @ U).T)
    terms = _nilpotent_series(ad)
    if terms is not None:
        return AdjointPlan(terms=terms)
    lam, P = np.linalg.eig(ad)
    cond = np.linalg.cond(P)
    if not cond <= GRAM_COND_MAX:
        raise DependentGenerators("an adjoint matrix is neither nilpotent nor "
                                  f"diagonalizable (eigenbasis condition number {cond:.3e})")
    return AdjointPlan(left=np.linalg.inv(P).T, lam=lam, right=P.T)


def _nilpotent_series(ad: np.ndarray):
    """The list of (ad^j / j!)^T for j = 1..J, or None when ad is not
    nilpotent.  Entries within NILPOTENT_TOL * max(1, max|ad|) are the
    fit's roundoff and read as zero; the series stops before the first power
    ad^j / j! within NILPOTENT_TOL * max(1, max|ad|)^j."""
    n = len(ad)
    scale = max(1.0, float(np.max(np.abs(ad))))
    a = np.where(np.abs(ad) > NILPOTENT_TOL * scale, ad, 0)
    terms, power = [], np.eye(n)
    for j in range(1, n + 1):
        power = power @ a / j
        if np.max(np.abs(power)) <= NILPOTENT_TOL * scale**j:
            return terms
        terms.append(power.T)
    return None


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
    _plan_cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        """Cached eigendecomposition of a generator (they never change);
        ``extract_structure_constants`` has checked its Hermiticity."""
        if name not in self._eig_cache:
            self._eig_cache[name] = linalg.herm_eig(self.generator(name), check=False)
        return self._eig_cache[name]

    def adjoint_matrices(self) -> np.ndarray:
        """ad_m with (ad_m)_{k,l} = c_{m,l}^k; exponentiates to conjugation."""
        return np.transpose(self.constants, (0, 2, 1))

    def adjoint_plan(self, k: int) -> AdjointPlan:
        """Cached ``adjoint_plan`` of generator k, with the Gram matrix of the
        generators' active blocks, on which the structure constants were fit."""
        if k not in self._plan_cache:
            self._plan_cache[k] = adjoint_plan(self.adjoint_matrices()[k], self._gram_root)
        return self._plan_cache[k]

    @functools.cached_property
    def _gram_root(self):
        basis = _basis(self.generators, self.active_dim)
        return gram_root(basis.conj().T @ basis)

    def active_block(self, M: np.ndarray) -> np.ndarray:
        """The active block of a matrix or a stack of matrices (all of it
        when no active block is set)."""
        return M[..., : self.active_dim, : self.active_dim]

    def block_norm(self, M: np.ndarray) -> float:
        """max-abs entry norm over the active block."""
        return float(np.max(np.abs(self.active_block(M))))

    def jacobi_residual(self) -> float:
        """Max residual of the Jacobi identity on the structure constants."""
        c = self.constants
        # sum_m c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l = 0
        t1 = np.einsum("ijm,mkl->ijkl", c, c)
        t2 = np.einsum("jkm,mil->ijkl", c, c)
        t3 = np.einsum("kim,mjl->ijkl", c, c)
        return float(np.max(np.abs(t1 + t2 + t3)))

    def jacobi_bound(self) -> float:
        """Largest Jacobi residual that still passes: each term is a product
        of two structure constants, so JACOBI_TOL * max(1, max|c|)^2."""
        return JACOBI_TOL * max(1.0, float(np.max(np.abs(self.constants)))) ** 2

    def constant_purity(self) -> float:
        """Max |Re c|; purely imaginary constants for Hermitian generators."""
        return float(np.max(np.abs(self.constants.real)))

    @functools.cached_property
    def closed(self) -> bool:
        """Whether the fit residual is within the closure bound of the
        generators' active blocks."""
        return self.closure_residual <= closure_bound(
            [self.block_norm(G) for G in self.generators])


def closure_bound(peaks) -> float:
    """Largest commutator-fit residual that still counts as closed, for
    generators whose largest entries (on the active block) are ``peaks``.

    The roundoff of [A_i, A_j] grows with |A_i|max |A_j|max, so the bound is
    CLOSURE_TOL * max(1, product of the two largest peaks); for one pair
    that is the pair's own product.
    """
    return CLOSURE_TOL * max(1.0, float(np.prod(np.sort(peaks)[-2:])))


def _basis(generators, k: int | None) -> np.ndarray:
    """The leading k x k blocks of the generators (all of them when k is
    None), vectorized as the columns of a (k^2, n) matrix."""
    return np.stack([G[:k, :k].ravel() for G in generators], axis=1)


def _bracket(X: np.ndarray, Y: np.ndarray, k: int | None) -> np.ndarray:
    """The leading k x k block of [X, Y] (all of it when k is None), formed
    from the first k rows and columns only."""
    return X[:k] @ Y[:, :k] - Y[:k] @ X[:, :k]


def extract_structure_constants(
    generators,
    names=None,
    active_dim: int | None = None,
) -> LieAlgebraRep:
    """Fit c_ij^k by least squares on vectorized generators, every pair from
    one QR factorization of the generator basis.

    Only pairs i < j are solved; antisymmetry is enforced by negation.
    Raises NotClosed if any commutator leaves the generator span by more than
    ``closure_bound`` of its pair (measured on the active block when
    ``active_dim`` is set),
    and DependentGenerators if the generators are not linearly independent
    or their entries overflow the Gram matrix.
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

    basis = _basis(gens, active_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = basis.conj().T @ basis
        peak = np.array([np.max(np.abs(G[:active_dim, :active_dim])) for G in gens])
        if not np.all(np.isfinite(gram)):
            top = int(np.argmax(peak))
            raise DependentGenerators(
                f"generator {names[top]!r} has an entry of magnitude {peak[top]:.3e}; "
                "its entries overflow the generator Gram matrix")
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_COND_MAX:
        raise DependentGenerators(
            f"generator Gram matrix condition number {cond:.3e} exceeds {GRAM_COND_MAX:.1e}"
        )

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coms = np.empty((basis.shape[0], len(pairs)), dtype=complex)
    for c, (i, j) in enumerate(pairs):
        coms[:, c] = _bracket(gens[i], gens[j], active_dim).ravel()
    Q, R = np.linalg.qr(basis)
    coeffs = np.linalg.solve(R, Q.conj().T @ coms)
    resids = np.max(np.abs(coms - basis @ coeffs), axis=0)

    constants = np.zeros((n, n, n), dtype=complex)
    residual = 0.0
    for (i, j), coeff, resid in zip(pairs, coeffs.T, resids):
        bound = closure_bound(peak[[i, j]])
        if not resid <= bound:
            raise NotClosed(
                f"[{names[i]}, {names[j]}] leaves the span "
                f"(residual {resid:.3e} > {bound:.1e})"
            )
        residual = max(residual, float(resid))
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


def validate_algebra(rep: LieAlgebraRep, kind: str, n: int = 1) -> ValidationReport:
    """Check the defining brackets of a known algebra kind.

    kind "heisenberg" expects generators ordered A_1..A_n, B_1..B_n, C and
    checks [A_j, B_l] = i delta_jl C with everything else commuting;
    kind "so3" checks the three cyclic brackets [A_1, A_2] = i A_3 etc.;
    kind "generic" checks only the Jacobi identity.  Each bracket residual
    is held to the ``closure_bound`` of its two generators, and the Jacobi
    residual to ``jacobi_bound``.  Failures are reported, never raised.
    """
    checks = []

    def add(label, X, Y, rhs):
        bound = closure_bound([rep.block_norm(X), rep.block_norm(Y)])
        com = _bracket(X, Y, rep.active_dim)
        checks.append(BracketCheck(label, rep.block_norm(com - rep.active_block(rhs)), bound))

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
                add(f"[A{j + 1}, B{l + 1}]", A[j], B[l], target)
                add(f"[A{j + 1}, A{l + 1}]", A[j], A[l], zero)
                add(f"[B{j + 1}, B{l + 1}]", B[j], B[l], zero)
            add(f"[A{j + 1}, C]", A[j], C, zero)
            add(f"[B{j + 1}, C]", B[j], C, zero)
    elif kind == "so3":
        if rep.size != 3:
            raise ValueError(f"so3 needs 3 generators, got {rep.size}")
        A1, A2, A3 = rep.generators
        add("[A1, A2] - iA3", A1, A2, 1j * A3)
        add("[A2, A3] - iA1", A2, A3, 1j * A1)
        add("[A3, A1] - iA2", A3, A1, 1j * A2)
    elif kind == "generic":
        pass
    else:
        raise ValueError(f"unknown algebra kind {kind!r}")

    checks.append(BracketCheck("jacobi", rep.jacobi_residual(), rep.jacobi_bound()))
    return ValidationReport(kind, tuple(checks))


def detect_kind(rep: LieAlgebraRep) -> str:
    """Best-effort label for a validated algebra; used by reporting only.

    "abelian" comes first, with a bound per constant that scales with the
    generators: c_ij^k fits [A_i, A_j], whose roundoff grows as p_i p_j,
    with A_k of size p_k (p the active-block peaks), so |c_ij^k| <=
    CLOSURE_TOL p_i p_j / p_k.  The so3 and Heisenberg bracket bounds grow
    as the square of the peaks and would swallow a commuting set's targets.
    """
    p = np.array([rep.block_norm(G) for G in rep.generators])
    if np.all(np.abs(rep.constants) <= CLOSURE_TOL * p[:, None, None] * p[:, None] / p):
        return "abelian"
    if rep.size == 3:
        if validate_algebra(rep, "so3").passed:
            return "so3"
    if rep.size % 2 == 1 and rep.size >= 3:
        n = (rep.size - 1) // 2
        if validate_algebra(rep, "heisenberg", n).passed:
            return f"heisenberg({n})"
    return "generic"


def _factor_indices(rep: LieAlgebraRep, circuit) -> list:
    """Generator index of each circuit factor, in circuit order."""
    return [rep.index(gname) for gname, _pname in circuit.factors]


def tilde_by_conjugation(rep: LieAlgebraRep, circuit, angles) -> np.ndarray:
    """Conjugate each circuit generator by the downstream factors.

    ``angles`` is a (B, M) array in factor order; the result is (B, M, d, d)
    with [b, j] = W^dagger A_j W, W the product of the circuit factors after
    factor j at point b.  The conjugation is applied one factor at a time,
    F^dagger X F, with the (B, d, d) stack of factors F from
    ``linalg.expm_phase_eig`` on the generator's cached eigenbasis.
    """
    angles = circuit.angle_batch(angles)
    idx = _factor_indices(rep, circuit)
    b, m, d = angles.shape[0], len(idx), rep.dim
    tildes = np.empty((b, m, d, d), dtype=complex)
    tildes[:] = np.stack(rep.generators)[idx]
    # row j takes factor k for every k > j, innermost (k = j + 1) first
    for k in range(1, m):
        w, V = rep.generator_eig(rep.names[idx[k]])
        F = linalg.expm_phase_eig(w, V, angles[:, k, None, None])[:, None]
        tildes[:, :k] = F.conj().swapaxes(-1, -2) @ tildes[:, :k] @ F
    return tildes


def tilde_coefficients(rep: LieAlgebraRep, circuit, angles) -> np.ndarray:
    """Coefficients C (B, M, n) of the tilde generators, A~_j = sum_k C_jk A_k,
    for a (B, M) array of angles in factor order.  Row j is e_{idx_j} carried
    through exp(i theta_k ad_k) for each downstream factor k, by the cached
    ``LieAlgebraRep.adjoint_plan`` of its generator.  Raises NotClosed for an
    open algebra, and NonFiniteAngle, naming the parameter of the largest
    phase at the point, for coefficients that are not finite.
    """
    if not rep.closed:
        raise NotClosed(f"closure residual {rep.closure_residual:.3e} exceeds its bound")
    angles = circuit.angle_batch(angles)
    idx = _factor_indices(rep, circuit)
    b, m = angles.shape
    # row j starts as e_{idx_j}; factor k acts on the rows j < k, innermost
    # (k = j + 1) first
    coeff = np.zeros((b, m, rep.size), dtype=complex)
    coeff[:, np.arange(m), idx] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, m):
            coeff[:, :k] = rep.adjoint_plan(idx[k]).carry(coeff[:, :k], angles[:, k])
    circuit.require_finite(angles, coeff, "adjoint coefficients")
    return coeff


def tilde_by_adjoint(rep: LieAlgebraRep, circuit, angles) -> np.ndarray:
    """``tilde_by_conjugation`` through the adjoint representation: the
    generators summed with ``tilde_coefficients``, (B, M, d, d)."""
    return np.einsum("bmk,kij->bmij", tilde_coefficients(rep, circuit, angles),
                     np.stack(rep.generators))
