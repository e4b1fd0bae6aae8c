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
evolves alone under L_ss, the Liouvillian of G = H - (i/2)(B†B + sum A†A)
and the Lindblad operators A (``EnlargedModel.system_equation``), rho_sf
stays zero, and rho_ff' = L_fs rho_ss = B rho_ss B† (:func:`decay_feed`).
Every run works on that subspace: the direct step with the right-hand side
alone, and the stepper and the generator checks with
``MasterEquation.real_form``, [L_ss; L_fs] as one real matrix in the
coordinates of :class:`HermitianBasis`, built in O(d^4) from the columns of
G, the jumps and the feed.  The Kronecker Liouvillians, the padded
d_tot x d_tot operators and the d_tot^2 x d_tot^2 Liouvillian are derived
from (spec, B) only for the test oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError, DimensionError, NotPSDError, NumericsError
from .linalg import DEFAULT_HERMITICITY_TOL, _phase_fixed_eig, as_matrix, hermitian_basis
from .linalg import frobenius, require_hermitian

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
    jump operators K, all d x d, which feeds rho_ff' = F rho F† into a decay
    sector through the d_f x d matrix ``feed`` F; without one, d_f = 0."""

    generator: np.ndarray
    jumps: tuple[np.ndarray, ...]
    feed: np.ndarray | None = None

    def __post_init__(self):
        if self.feed is None:
            empty = np.zeros((0, self.generator.shape[0]), dtype=np.complex128)
            object.__setattr__(self, "feed", empty)

    @classmethod
    def build(cls, hamiltonian: np.ndarray, jumps, loss=None, feed=None) -> MasterEquation:
        """G = H - (i/2)(loss + sum_k K†K).

        Folds every anticommutator of the master equation into one
        non-hermitian generator, so each right-hand side needs only
        2 + 2*len(jumps) products.  ``loss`` is Gamma on the system space,
        B†B on the system block of the enlarged space, and absent on the
        padded enlarged space, where B is one of the jumps.  ``feed`` is B
        on the system block of the enlarged space.  Raises
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
        return cls(generator=gen, jumps=tuple(jumps), feed=feed)

    @cached_property
    def generator_adjoint(self) -> np.ndarray:
        return self.generator.conj().T

    @cached_property
    def jump_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple((k, k.conj().T) for k in self.jumps)

    def rhs(self, rho) -> np.ndarray:
        """The derivative rho' of a d x d state, or of each state in an
        (n, d, d) stack."""
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape[-2:] != self.generator.shape:
            raise DimensionError(f"state has shape {rho.shape}, expected {self.generator.shape}")
        out = -1j * (self.generator @ rho - rho @ self.generator_adjoint)
        for k, k_dag in self.jump_pairs:
            out += k @ rho @ k_dag
        return out

    def norm_bound(self, order) -> float:
        """An upper bound, 2||G|| + sum_K ||K||^2 over the jumps and the feed
        F, on the ``order``-norm (1 or 2) of the generator [[L_ss, 0], [L_fs,
        0]] of (vec rho, vec rho_ff), from ||A (x) B|| = ||A|| ||B||, with
        no d^2 x d^2 matrix built (O(d^2) work for the 1-norm); an empty feed
        adds nothing.  A bound that overflows is inf, without numpy's
        warning."""
        with np.errstate(over="ignore"):
            bound = 2.0 * float(np.linalg.norm(self.generator, order))
            for k in self.jumps + (self.feed,):
                if k.size:
                    norm = float(np.linalg.norm(k, order))
                    bound += norm * norm
        return bound

    @cached_property
    def real_form(self) -> np.ndarray:
        """[L_ss; L_fs], the map rho -> (rhs(rho), F rho F†), as one real
        (d^2 + d_f^2) x d^2 matrix in the coordinates of :class:`HermitianBasis`,
        built once: column k holds the coordinates of the images of the k-th
        basis matrix.  The stepper builds its steps, and the ``cp`` and
        asymptotics checks and the step-size fallback norm read theirs, from
        this matrix.

        The k-th basis matrix is u = f E_rc + s E_cr, with s = conj(f) off
        the diagonal and s = 0 on it, so its images are sums of outer
        products of operator columns, O(d^2) work per column and no matrix
        product: G u = f G[:, r] e_c^T + s G[:, c] e_r^T, and K u K† =
        f K[:, r] K[:, c]† + s K[:, c] K[:, r]†, the same for F.  A matrix Y
        and Y† have the same coordinates, so each image Y + Y† is taken as
        the coordinates of 2Y: of -2i G u + sum_k g K[:, r] K[:, c]† for
        the rhs, with g = f norms_sq, and of g F[:, r] F[:, c]† for the
        feed.  The map preserves hermiticity, so the imaginary parts that
        the coordinates drop are rounding."""
        d, d_f = self.generator.shape[0], self.feed.shape[0]
        basis, basis_f = hermitian_basis(d), hermitian_basis(d_f)
        n_s = d * d
        out = np.empty((n_s + d_f * d_f, n_s))
        ks = np.arange(n_s)
        rows, cols = ks % d, ks // d
        weights = basis.norms_sq * basis.first
        gen_cols = -2j * self.generator.T  # row r is -2i G[:, r]
        jump_cols = [(k.T, k.T.conj()) for k in self.jumps]
        feed_cols = (self.feed.T, self.feed.T.conj())
        # Chunks of basis matrices whose stacks of images take about 512 KiB:
        # at d = d_f = 12, 16, 30 and 40 (one BLAS thread, 2 MiB of L2) the
        # build took 0.9, 2.4, 16 and 52 ms, and 0.6, 1.3, 17 and 63 ms in
        # 128 KiB chunks.  Chunks below 512 KiB of a build from products
        # raised the peak RSS of the d = 30 ``exact`` all-checks run from 223
        # to 273 MB, a heap effect not measured again for this build.
        k = max(1, 2**19 // (16 * max(n_s, d_f * d_f)))
        for i in range(0, n_s, k):
            j = min(i + k, n_s)
            r, c, g = rows[i:j], cols[i:j], weights[i:j]
            z = _outer_sum(jump_cols, r, c, g, d)
            at = np.arange(j - i)
            z[at, :, c] += basis.first[i:j, None] * gen_cols[r]
            z[at, :, r] += basis.second[i:j, None] * gen_cols[c]
            out[:n_s, i:j] = basis.coords(z).T
            if d_f:
                out[n_s:, i:j] = basis_f.coords(_outer_sum((feed_cols,), r, c, g, d_f)).T
        return out

    def liouvillian(self) -> Liouvillian:
        """L = -i I(x)G + i conj(G)(x)I + sum_k conj(K)(x)K: the column-stacking
        matrix of :meth:`rhs`.  No run builds it: it is the test oracle of
        :attr:`real_form`."""
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

    @cached_property
    def decomposition(self) -> GammaDecomposition:
        """:func:`decompose_gamma` of the decay matrix, taken once: both
        :func:`validate_spec` and the run read it.  ``random_system`` hands
        over the one that sized its d_f."""
        return decompose_gamma(self.decay_matrix)


def effective_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Non-hermitian effective Hamiltonian H - (i/2) Gamma."""
    return spec.hamiltonian - 0.5j * spec.decay_matrix


def validate_spec(spec: SystemSpec) -> SystemSpec:
    """Check hermiticity of H at ``DEFAULT_HERMITICITY_TOL``, Gamma by its
    decomposition ``spec.decomposition``, which the run reuses, and that the
    decay space is large enough (d_f >= rank Gamma).  Returns ``spec``
    unchanged when every invariant holds.
    """
    require_hermitian(spec.hamiltonian, DEFAULT_HERMITICITY_TOL, "H")
    rank = spec.decomposition.rank
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


def decompose_gamma(gamma) -> GammaDecomposition:
    """Spectral decomposition of the decay matrix: the one decision on it.

    Gamma must be hermitian within ``DEFAULT_HERMITICITY_TOL``
    (:class:`NotHermitianError`).  Eigenvalues at or below the zero cut
    ``DEFAULT_ZERO_TOL * max(1, ||Gamma||_F)`` are classified as zero and
    counted in ``null_dim``; one below -min(``DEFAULT_HERMITICITY_TOL``, cut)
    raises :class:`NotPSDError`.  Ties between equal rates are broken by
    lexicographic order of the (sign-fixed) eigenvectors so the output is
    deterministic.
    """
    g = as_matrix(gamma)
    if g.shape[0] != g.shape[1]:
        raise DimensionError(f"decay matrix must be square, got {g.shape}")
    eig = _phase_fixed_eig(require_hermitian(g, DEFAULT_HERMITICITY_TOL, "Gamma"))
    cut = DEFAULT_ZERO_TOL * max(1.0, frobenius(g))
    lam, bound = eig.eigenvalues, min(DEFAULT_HERMITICITY_TOL, cut)
    if lam[0] < -bound:
        raise NotPSDError(f"Gamma has eigenvalue {lam[0]:.3e} < -{bound:.3g}")
    # Descending rate, then the eigenvectors' lexicographic order among
    # exactly equal rates; the keys are built only for those ties.
    by_rate = sorted((j for j in range(lam.size) if lam[j] > cut), key=lambda j: -lam[j])
    order = []
    for _, tie in itertools.groupby(by_rate, key=lambda j: lam[j]):
        tie = list(tie)
        if len(tie) > 1:
            tie.sort(key=lambda j: _lex_key(eig.eigenvectors[:, j]))
        order += tie
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
        jumps A, feed B; the padded generator is diag(G, 0).  It takes B†B,
        not Gamma, which B†B equals only up to rounding and the eigenvalues
        that :func:`decompose_gamma` drops, so that the ``cp`` check
        certifies the map the enlarged model generates and the
        ``equivalence`` check tests B†B = Gamma.  Its
        :attr:`MasterEquation.real_form` holds the blocks L_ss and L_fs of
        :attr:`liouvillian`; exp(tL) restricted to the system block is
        exp(t L_ss)."""
        return MasterEquation.build(
            self.spec.hamiltonian, self.spec.lindblad_ops, loss=self.decay.gram,
            feed=self.decay.matrix,
        )


def decay_feed(b: np.ndarray, rho) -> np.ndarray:
    """B rho B† for the d_f x d_s decay block B, of one d_s x d_s matrix or
    of each matrix in an (m, d_s, d_s) stack: rho_ff' on the block-diagonal
    subspace."""
    return b @ rho @ b.conj().T


def _outer_sum(cols, r, c, g, d: int) -> np.ndarray:
    # The stack of sum_k g[m] K[:, r[m]] K[:, c[m]]†, one d x d matrix per
    # entry m, from the pairs (K^T, conj(K^T)) in ``cols``.
    out = np.zeros((len(r), d, d), dtype=np.complex128)
    for kt, kt_conj in cols:
        out += (g[:, None] * kt[r])[:, :, None] * kt_conj[c][:, None, :]
    return out


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
