"""Physical model assembly.

Validates the physics input (hermitian Hamiltonian, positive semidefinite
decay matrix, Lindblad operators), extracts the spectral data of the decay
matrix, builds the decay operator B that feeds the decay-product space, and
assembles Liouvillian superoperators in column-stacking convention.

Both master equations have the form rho' = -i(G rho - rho G†) + sum_k K rho K†,
whose Liouvillian is L = -i I(x)G + i conj(G)(x)I + sum_k conj(K)(x)K; one
:class:`MasterEquation` holds G and the jumps K for every setting.  The
enlarged model (:class:`EnlargedModel`) is the pair (spec, B): on the direct
sum of system and decay spaces the decay sector is passive, with no
Hamiltonian and no jump acting on it, and the d_f x d_s matrix B maps system
states only into it.  So a block-diagonal state stays block-diagonal: rho_ss
evolves alone under L_ss, built by the same formula from G = H - (i/2)(B†B +
sum A†A) and the Lindblad operators A (``EnlargedModel.system_liouvillian``),
rho_sf stays zero, and rho_ff' = B rho_ss B† (:func:`decay_feed`).  Every run
works on that subspace; the padded d_tot x d_tot operators and the d_tot^2 x
d_tot^2 Liouvillian are derived from (spec, B) only for the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError, DimensionError, NotPSDError, NumericsError
from .linalg import HermitianBasis, as_matrix, frobenius, hermitian_eig, require_hermitian

DEFAULT_HERMITICITY_TOL = 1e-10
# Eigenvalues of the decay matrix at or below this (times max(1, ||Gamma||_F))
# count as zero when classifying the null space.
DEFAULT_ZERO_TOL = 1e-12

__all__ = [
    "DecayOperator",
    "EnlargedModel",
    "GammaDecomposition",
    "Liouvillian",
    "MasterEquation",
    "SystemSpec",
    "assemble_liouvillian",
    "assemble_liouvillian_wwa",
    "build_decay_operator",
    "decompose_gamma",
    "effective_hamiltonian",
    "embed_operators",
    "embed_state",
    "validate_spec",
]


@dataclass(frozen=True)
class MasterEquation:
    """rho' = -i(G rho - rho G†) + sum_k K rho K† for a generator G and
    jump operators K, all d x d."""

    generator: np.ndarray
    jumps: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, hamiltonian: np.ndarray, jumps, loss=None) -> MasterEquation:
        """G = H - (i/2)(loss + sum_k K†K).

        Folds every anticommutator of the master equation into one
        non-hermitian generator, so each right-hand side needs only
        2 + 2*len(jumps) products.  ``loss`` is Gamma on the system space,
        B†B on the system block of the enlarged space, and absent on the
        padded enlarged space, where B is one of the jumps.  Raises
        :class:`NumericsError` when G overflows.
        """
        gram = np.zeros(hamiltonian.shape, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for k in jumps:
                gram += k.conj().T @ k
            if loss is not None:
                gram = loss + gram
            gen = hamiltonian - 0.5j * gram
        if not np.isfinite(gen).all():
            raise NumericsError("the generator G has entries that are not finite")
        return cls(generator=gen, jumps=tuple(jumps))

    @cached_property
    def generator_adjoint(self) -> np.ndarray:
        return self.generator.conj().T

    @cached_property
    def jump_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple((k, k.conj().T) for k in self.jumps)

    def rhs(self, rho) -> np.ndarray:
        """The derivative rho' of a d x d state."""
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != self.generator.shape:
            raise DimensionError(f"state has shape {rho.shape}, expected {self.generator.shape}")
        out = -1j * (self.generator @ rho - rho @ self.generator_adjoint)
        for k, k_dag in self.jump_pairs:
            out += k @ rho @ k_dag
        return out

    def liouvillian(self) -> Liouvillian:
        """L = -i I(x)G + i conj(G)(x)I + sum_k conj(K)(x)K: the column-stacking
        matrix of :meth:`rhs`."""
        gen = self.generator
        eye = np.eye(gen.shape[0], dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            mat = -1j * np.kron(eye, gen) + 1j * np.kron(gen.conj(), eye)
            for k in self.jumps:
                mat += np.kron(k.conj(), k)
        if not np.isfinite(mat).all():
            raise NumericsError("the Liouvillian has entries that are not finite")
        return Liouvillian(matrix=mat, dim=gen.shape[0])


@dataclass(frozen=True)
class SystemSpec:
    """Physics input for a decaying open system.

    ``hamiltonian`` is the hermitian part of the effective Hamiltonian,
    ``decay_matrix`` the positive semidefinite decay-rate matrix, and
    ``lindblad_ops`` the decoherence/dissipation operators, all d_s x d_s.
    ``d_f`` is the dimension reserved for the decay-product space.
    """

    d_s: int
    d_f: int
    hamiltonian: np.ndarray
    decay_matrix: np.ndarray
    lindblad_ops: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.d_s < 1 or self.d_f < 1:
            raise DimensionError("d_s and d_f must be positive integers")
        object.__setattr__(self, "hamiltonian", as_matrix(self.hamiltonian))
        object.__setattr__(self, "decay_matrix", as_matrix(self.decay_matrix))
        object.__setattr__(
            self, "lindblad_ops", tuple(as_matrix(a) for a in self.lindblad_ops)
        )
        shape = (self.d_s, self.d_s)
        if self.hamiltonian.shape != shape:
            raise DimensionError(
                f"hamiltonian has shape {self.hamiltonian.shape}, expected {shape}"
            )
        if self.decay_matrix.shape != shape:
            raise DimensionError(
                f"decay matrix has shape {self.decay_matrix.shape}, expected {shape}"
            )
        for k, a in enumerate(self.lindblad_ops):
            if a.shape != shape:
                raise DimensionError(
                    f"lindblad operator {k} has shape {a.shape}, expected {shape}"
                )

    @cached_property
    def equation(self) -> MasterEquation:
        """The system-space equation: G = H - (i/2)(Gamma + sum A†A), jumps A."""
        return MasterEquation.build(self.hamiltonian, self.lindblad_ops, loss=self.decay_matrix)


def effective_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Non-hermitian effective Hamiltonian H - (i/2) Gamma."""
    return spec.hamiltonian - 0.5j * spec.decay_matrix


def validate_spec(spec: SystemSpec, tol: float = DEFAULT_HERMITICITY_TOL) -> SystemSpec:
    """Check hermiticity of H and Gamma, positivity of Gamma, and that the
    decay space is large enough (d_f >= rank Gamma).  Returns ``spec``
    unchanged when every invariant holds.
    """
    require_hermitian(spec.hamiltonian, tol, "H")
    gamma = require_hermitian(spec.decay_matrix, tol, "Gamma")
    lam = np.linalg.eigvalsh(gamma)
    if lam[0] < -tol:
        raise NotPSDError(f"Gamma has eigenvalue {lam[0]:.3e} < -{tol:g}")
    cut = DEFAULT_ZERO_TOL * max(1.0, frobenius(gamma))
    rank = int(np.count_nonzero(lam > cut))
    if spec.d_f < rank:
        raise DimensionError(
            f"d_f={spec.d_f} is smaller than rank(Gamma)={rank}; "
            "the decay space must satisfy d_f >= rank"
        )
    return spec


@dataclass(frozen=True)
class GammaDecomposition:
    """Strictly positive decay rates and their orthonormal modes.

    ``modes`` holds the eigenvectors of the decay matrix as columns, ordered
    by descending rate; ``rank + null_dim`` equals the system dimension.
    """

    rates: np.ndarray
    modes: np.ndarray
    rank: int
    null_dim: int


def _lex_key(col: np.ndarray):
    return tuple((round(float(z.real), 12), round(float(z.imag), 12)) for z in col)


def decompose_gamma(gamma, zero_tol: float = DEFAULT_ZERO_TOL) -> GammaDecomposition:
    """Spectral decomposition of the decay matrix.

    Eigenvalues at or below ``zero_tol * max(1, ||Gamma||_F)`` are classified
    as zero and counted in ``null_dim``; anything below the negative of that
    threshold raises :class:`NotPSDError`.  Ties between equal rates are
    broken by lexicographic order of the (sign-fixed) eigenvectors so the
    output is deterministic.
    """
    g = as_matrix(gamma)
    if g.shape[0] != g.shape[1]:
        raise DimensionError(f"decay matrix must be square, got {g.shape}")
    eig = hermitian_eig(g)
    cut = zero_tol * max(1.0, frobenius(g))
    lam = eig.eigenvalues
    if lam[0] < -cut:
        raise NotPSDError(f"decay matrix has eigenvalue {lam[0]:.3e} < -{cut:.3e}")
    keep = [j for j in range(lam.size) if lam[j] > cut]
    order = sorted(keep, key=lambda j: (-lam[j], _lex_key(eig.eigenvectors[:, j])))
    rates = np.array([lam[j] for j in order], dtype=float)
    modes = eig.eigenvectors[:, order]
    return GammaDecomposition(
        rates=rates, modes=modes, rank=len(order), null_dim=g.shape[0] - len(order)
    )


@dataclass(frozen=True)
class DecayOperator:
    """Map from the system space into the decay space.

    ``matrix`` is d_f x d_s with matrix† matrix equal to the decay matrix;
    ``coeffs`` is the d_f x rank coefficient matrix expressing it over the
    decay modes.
    """

    matrix: np.ndarray
    coeffs: np.ndarray

    @cached_property
    def gram(self) -> np.ndarray:
        """matrix† @ matrix; equals the decay matrix by construction."""
        return self.matrix.conj().T @ self.matrix


def build_decay_operator(
    dec: GammaDecomposition, d_f: int, coeffs=None
) -> DecayOperator:
    """Construct a decay operator from spectral data.

    With ``coeffs=None`` each decaying mode feeds exactly one decay state
    with amplitude sqrt(rate); rows beyond ``rank`` stay zero when
    ``d_f > rank``.  A custom d_f x rank matrix is accepted if it satisfies
    coeffs† @ coeffs = diag(rates) within 1e-8, which is exactly the
    condition for matrix† matrix to reproduce the decay matrix.
    """
    if d_f < dec.rank:
        raise DimensionError(f"d_f={d_f} is smaller than rank={dec.rank}")
    if coeffs is None:
        b = np.zeros((d_f, dec.rank), dtype=np.complex128)
        for j in range(dec.rank):
            b[j, j] = math.sqrt(dec.rates[j])
    else:
        b = as_matrix(coeffs)
        if b.shape != (d_f, dec.rank):
            raise DimensionError(
                f"coefficient matrix has shape {b.shape}, expected {(d_f, dec.rank)}"
            )
        resid = frobenius(b.conj().T @ b - np.diag(dec.rates))
        if resid > 1e-8:
            raise ConstraintError(
                f"coefficients violate coeffs† coeffs = diag(rates): residual {resid:.3e}"
            )
    return DecayOperator(matrix=b @ dec.modes.conj().T, coeffs=b)


@dataclass(frozen=True)
class EnlargedModel:
    """The enlarged model: the system operators and the d_f x d_s decay
    operator B (``decay.matrix``), which maps system states into decay
    states.  The padded d_tot x d_tot operators are derived from them on
    demand, for the test oracles and :func:`rhs_enlarged`; no run builds
    them."""

    spec: SystemSpec
    decay: DecayOperator

    def __post_init__(self):
        if self.decay.matrix.shape != (self.d_f, self.d_s):
            raise DimensionError(
                f"decay operator has shape {self.decay.matrix.shape}, "
                f"expected {(self.d_f, self.d_s)}"
            )

    @property
    def d_s(self) -> int:
        return self.spec.d_s

    @property
    def d_f(self) -> int:
        return self.spec.d_f

    @property
    def d_tot(self) -> int:
        return self.d_s + self.d_f

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """diag(H, 0): the hermitian part only; the decay is carried by B."""
        return _embed_block(self.spec.hamiltonian, self.d_s, self.d_f)

    @cached_property
    def lindblad_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(_embed_block(a, self.d_s, self.d_f) for a in self.spec.lindblad_ops)

    @cached_property
    def decay_op(self) -> np.ndarray:
        """B in the lower-left block; nilpotent by construction."""
        out = np.zeros((self.d_tot, self.d_tot), dtype=np.complex128)
        out[self.d_s :, : self.d_s] = self.decay.matrix
        return out

    @cached_property
    def equation(self) -> MasterEquation:
        """The enlarged-space equation: G = H - (i/2) sum K†K, where the jumps
        K are the embedded Lindblad operators plus the decay operator."""
        return MasterEquation.build(self.hamiltonian, self.lindblad_ops + (self.decay_op,))

    @cached_property
    def liouvillian(self) -> Liouvillian:
        """The d_tot^2 x d_tot^2 enlarged-space Liouvillian: a test oracle."""
        return self.equation.liouvillian()

    @cached_property
    def system_equation(self) -> MasterEquation:
        """The equation of the system block: G = H - (i/2)(B†B + sum A†A),
        jumps A; the padded generator is diag(G, 0).  It takes B†B, not
        Gamma, which B†B equals only up to rounding and the eigenvalues that
        :func:`decompose_gamma` drops, so that the ``cp`` check certifies the
        map the enlarged model generates and the ``equivalence`` check tests
        B†B = Gamma."""
        return MasterEquation.build(
            self.spec.hamiltonian, self.spec.lindblad_ops, loss=self.decay.gram
        )

    @cached_property
    def system_liouvillian(self) -> Liouvillian:
        """L_ss: the d_s^2 x d_s^2 Liouvillian of :attr:`system_equation`,
        the system block of :attr:`liouvillian` without assembling it.
        exp(tL) restricted to the system block is exp(t L_ss)."""
        return self.system_equation.liouvillian()


def decay_feed(b: np.ndarray, rho) -> np.ndarray:
    """B rho B† for the d_f x d_s decay block B, of one d_s x d_s matrix or
    of each matrix in an (m, d_s, d_s) stack: rho_ff' on the block-diagonal
    subspace."""
    return b @ rho @ b.conj().T


def feed_columns(b: np.ndarray, x) -> np.ndarray:
    """L_fs @ x, for L_fs the ff <- ss block of the enlarged Liouvillian:
    each column vec(rho_j) of ``x`` (d_s^2 rows) becomes vec(B rho_j B†),
    by :func:`decay_feed` instead of the d_f^2 x d_s^2 Kronecker matrix."""
    d_f, d_s = b.shape
    x = np.asarray(x, dtype=np.complex128)
    m = x.shape[1]
    # Row j of x.T, read as d_s x d_s in C order, is rho_j^T; so
    # conj(B) rho_j^T B^T = (B rho_j B†)^T, whose C-order rows are vec().
    return decay_feed(b.conj(), x.T.reshape(m, d_s, d_s)).reshape(m, d_f * d_f).T


def _embed_block(m: np.ndarray, d_s: int, d_f: int) -> np.ndarray:
    out = np.zeros((d_s + d_f, d_s + d_f), dtype=np.complex128)
    out[:d_s, :d_s] = m
    return out


def embed_state(rho_ss, d_f: int) -> np.ndarray:
    """Block-diagonal embedding diag(rho_ss, 0) into the enlarged space."""
    rho = as_matrix(rho_ss)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"state must be square, got {rho.shape}")
    return _embed_block(rho, rho.shape[0], d_f)


def embed_operators(spec: SystemSpec, decay: DecayOperator) -> EnlargedModel:
    """The enlarged model of ``spec`` with the decay operator ``decay``."""
    return EnlargedModel(spec, decay)


@dataclass(frozen=True)
class Liouvillian:
    """Evolution generator in column-stacking form:
    d vec(rho)/dt = matrix @ vec(rho)."""

    matrix: np.ndarray
    dim: int

    @cached_property
    def real_form(self) -> np.ndarray:
        """The matrix in the real coordinates of :class:`HermitianBasis`, built
        once: the ``cp`` check and the ``nonsingular`` step exponentiate the
        real form of the cached ``EnlargedModel.system_liouvillian``."""
        return HermitianBasis(self.dim).real_form(self.matrix)


def assemble_liouvillian(hamiltonian, lindblad_ops=(), decay_op=None) -> Liouvillian:
    """Superoperator matrix of the trace-preserving master equation
    -i[H, rho] plus the dissipator over all given jump operators, as
    :meth:`MasterEquation.liouvillian` with G = H - (i/2) sum K†K."""
    h = as_matrix(hamiltonian)
    if h.shape[0] != h.shape[1]:
        raise DimensionError(f"hamiltonian must be square, got {h.shape}")
    ops = [as_matrix(k) for k in lindblad_ops]
    if decay_op is not None:
        ops.append(as_matrix(decay_op))
    for k in ops:
        if k.shape != h.shape:
            raise DimensionError(f"jump operator has shape {k.shape}, expected {h.shape}")
    return MasterEquation.build(h, ops).liouvillian()


def assemble_liouvillian_wwa(spec: SystemSpec) -> Liouvillian:
    """Superoperator matrix of the system-space master equation with the
    non-hermitian effective Hamiltonian (trace non-increasing)."""
    return spec.equation.liouvillian()
