"""Dense complex linear algebra used throughout the toolkit.

Matrices are plain numpy arrays of dtype complex128.  The vectorization
convention is column stacking, vec([[a, b], [c, d]]) = (a, c, b, d), for
which vec(A X B) = (B^T kron A) vec(X).  :class:`HermitianBasis` gives
hermitian matrices real coordinates, in which a map that preserves
hermiticity, such as a Liouvillian, is a real matrix.

:func:`expm` is the one matrix exponential.  Besides a square matrix it
takes a stacked pair [A; C], which stands for the block matrix [[A, 0], [C,
0]] of a generator whose second sector is passive, and returns the first
block column [E; Phi] of its exponential without building the block
matrix.  It is a truncated Taylor series with scaling and squaring: the
degree and the number of halvings are picked from the input's 1-norm by
the fewest matrix products, within backward-error bounds that make the
series exact to the unit roundoff, and it takes no linear solve.  Its
Taylor kernel also builds the stepper's ``rk4`` step, the polynomial of
degree 4.  Pairs compose by :func:`_then`, which the stepper's powers use
too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotHermitianError

# The hermiticity bound of the operators, the decay matrix, the samples and
# the Choi matrices; the initial state is gated at evolution's
# HERMITICITY_DRIFT_TOL.
DEFAULT_HERMITICITY_TOL = 1e-10

__all__ = [
    "HermitianBasis",
    "HermitianEigen",
    "as_matrix",
    "expm",
    "frobenius",
    "hermitian_basis",
    "hermitian_eig",
    "require_hermitian",
    "unvec",
    "vec",
]


def as_matrix(m, dtype=np.complex128) -> np.ndarray:
    """Coerce ``m`` to a 2-D array of ``dtype``, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return as_matrix(m).reshape(-1, order="F")


def unvec(v, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; ``cols`` defaults to ``rows``."""
    if cols is None:
        cols = rows
    a = np.asarray(v, dtype=np.complex128).reshape(-1)
    if a.size != rows * cols:
        raise DimensionError(f"cannot reshape length {a.size} into {rows}x{cols}")
    return a.reshape((rows, cols), order="F")


class HermitianBasis:
    """The hermitian basis U of d x d matrices: vec() of E_ii, E_ij + E_ji
    and i(E_ij - E_ji) for i < j, one column per vec index k.

    These hermitian matrices are mutually orthogonal and span all d x d
    matrices.  The coordinates of a hermitian matrix are real: its diagonal
    and the real and imaginary parts of its upper triangle.  Column k has
    ``first[k]`` at row k and ``second[k]`` at row ``kt[k]``, the vec index
    of the transposed entry, and no other entry; each is 0, 1 or +-i, so the
    changes of basis below are two scaled copies that round at most once per
    entry, and U itself is never built.  The permutation ``kt`` is a
    transpose of the d x d index grid, so it is applied as a reshape and a
    swap of axes, not a gather.  Its arrays are read-only, so that the
    basis :func:`hermitian_basis` shares cannot be changed.
    """

    def __init__(self, d: int):
        k = np.arange(d * d)
        row, col = k % d, k // d
        self.d = d
        self.kt = row * d + col
        self.first = np.where(row <= col, 1.0, -1j)
        self.second = np.where(row < col, 1.0, np.where(row > col, 1j, 0.0))
        self.norms_sq = np.where(row == col, 1.0, 2.0)  # squared column norms
        for a in (self.kt, self.first, self.second, self.norms_sq):
            a.flags.writeable = False

    def _swap(self, m: np.ndarray, axis: int) -> np.ndarray:
        # m with the index k of ``axis`` (0 or -1) taken to kt[k], in a copy.
        d = self.d
        if axis == 0:
            grid = m.reshape((d, d) + m.shape[1:]).swapaxes(0, 1)
        else:
            grid = m.reshape(m.shape[:-1] + (d, d)).swapaxes(-1, -2)
        return grid.reshape(m.shape)

    def left(self, m: np.ndarray) -> np.ndarray:
        """U @ m."""
        out = self._swap(m, 0) * self.second[self.kt][:, None]
        out += self.first[:, None] * m
        return out

    def right_inverse(self, m: np.ndarray) -> np.ndarray:
        """m @ U^-1 = m U† / norms_sq."""
        scale = self.second.conj() / self.norms_sq
        out = self._swap(m, -1) * scale[self.kt]
        out += m * (self.first.conj() / self.norms_sq)
        return out

    def coords(self, rho: np.ndarray) -> np.ndarray:
        """Real coordinates of a hermitian d x d matrix, or of each matrix in
        an (n, d, d) stack, one row per matrix: Re(U^-1 vec(rho)), where
        U^-1 = U† / norms_sq."""
        shape = rho.shape[:-2] + (self.d * self.d,)
        # vec(rho)[kt] is vec(rho^T), which is rho's rows laid end to end.
        out = rho.reshape(shape) * self.second.conj()
        out += self.first.conj() * np.swapaxes(rho, -1, -2).reshape(shape)  # vec()
        out /= self.norms_sq
        return out.real

    def matrices(self, coords: np.ndarray) -> np.ndarray:
        """The d x d matrices with real coordinates ``coords``, one per row."""
        v = coords * self.first + self._swap(coords, -1) * self.second[self.kt]  # rows of (U h)^T
        # The row count is given, not inferred, so that d = 0 gives (n, 0, 0).
        return v.reshape(len(coords), self.d, self.d).transpose(0, 2, 1)  # vec() stacks columns


@functools.cache
def hermitian_basis(d: int) -> HermitianBasis:
    """The one :class:`HermitianBasis` of dimension d, built on first use
    and shared by every later caller."""
    return HermitianBasis(d)


def frobenius(m) -> float:
    """Frobenius norm.  Only a sum of squares that overflows (entries above
    about 1.3e154) is taken again, scaled by the largest |entry|."""
    a = np.asarray(m)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == np.inf and np.isfinite(a).all():
        scale = float(np.abs(a).max())
        norm = scale * float(np.linalg.norm(a / scale))
    return norm


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")


def _squares(a: np.ndarray):
    # ||a||_F^2 over the last two axes, from a float64 view of a, or of its
    # transpose, whose rows are contiguous; a copy only when neither has
    # them.  One matrix gives a float from one dot product.
    if a.shape[-1] > 1 and a.strides[-1] != a.itemsize:
        a = np.swapaxes(a, -1, -2)
    if a.ndim == 2:
        a = a.reshape(-1)
    if a.shape[-1] > 1 and a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    if np.iscomplexobj(a):
        a = a.view(a.real.dtype)
    if a.ndim == 1:
        return float(np.dot(a, a))
    return np.einsum("...ij,...ij->...", a, a)


def require_hermitian(a: np.ndarray, tol: float, where: str = "matrix") -> np.ndarray:
    """Symmetrized copy of a matrix, or of each matrix in an (n, d, d) stack.

    Raises :class:`NotHermitianError` naming the first matrix whose deviation
    ||a - a†||_F exceeds ``tol * max(1, ||a||_F)``; the bound is scaled so
    that tiny and large inputs are judged consistently, and a deviation that
    is NaN or overflows fails, without numpy's warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        half = np.conj(np.swapaxes(a, -1, -2))
        half -= a  # a† - a, worked on in place to keep one temporary
        if a.ndim == 2:  # one matrix, in Python floats; max keeps a NaN
            dev = math.sqrt(_squares(half))
            bound = tol * max(math.sqrt(_squares(a)), 1.0)
            bad = [] if dev <= bound and dev != math.inf else [0]
        else:
            dev = np.sqrt(_squares(half))
            bound = tol * np.maximum(1.0, np.sqrt(_squares(a)))
            bad = np.flatnonzero(~(dev <= bound) | (dev == np.inf))
    if len(bad):
        i = int(bad[0])
        name = where if a.ndim == 2 else f"{where} {i}"
        raise NotHermitianError(
            f"{name} deviates from hermiticity by {float(np.ravel(dev)[i]):.3e} "
            f"(allowed {float(np.ravel(bound)[i]):.3e})"
        )
    half *= 0.5
    half += a
    return half


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral data of a hermitian matrix: eigenvalues ascending, orthonormal
    eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> HermitianEigen:
    """Eigendecomposition of a hermitian matrix, gated by
    :func:`require_hermitian` at ``DEFAULT_HERMITICITY_TOL``.

    Each eigenvector is rotated by a global phase so that its largest-magnitude
    component is real and positive, making the output deterministic enough for
    golden tests.
    """
    a = as_matrix(m)
    _require_square(a)
    return _phase_fixed_eig(require_hermitian(a, DEFAULT_HERMITICITY_TOL))


def _phase_fixed_eig(h: np.ndarray) -> HermitianEigen:
    # The eigendecomposition of the gated copy h, phases fixed as above.
    lam, v = np.linalg.eigh(h)
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        v[:, j] /= v[k, j] / abs(v[k, j])
    return HermitianEigen(eigenvalues=lam, eigenvectors=v)


def _then(first: np.ndarray, then: np.ndarray, n: int, out=None) -> np.ndarray:
    """The composition of stacked pairs of n columns: [E_b E_a; F_a + F_b
    E_a] for ``first`` = [E_a; F_a] followed by ``then`` = [E_b; F_b], the
    first block column of [[E_b, 0], [F_b, I]] [[E_a, 0], [F_a, I]].  A
    square pair has no F rows, and its composition is the product E_b E_a.
    ``then`` may be a stack of pairs, and the result is written to ``out``
    when given."""
    out = np.matmul(then, first[:n], out=out)
    if len(first) > n:  # the add costs 1 us even when empty
        out[..., n:, :] += first[n:]
    return out


def _block(m: int) -> int:
    # The block size k, at least 2 so that the Horner multiplier X^k is a
    # product; of two sizes with the same products, the smaller holds fewer.
    return max(2, math.isqrt(m))


# The Taylor approximants of exp: (degree m, theta_m, products).  theta_m is
# the largest ||X||_1 for which T_m(X) = exp(X + dX) with ||dX|| <= 2^-53 ||X||
# (Higham, Functions of Matrices, SIAM 2008, Table A.3; Al-Mohy, Higham,
# SIAM J. Sci. Comput. 33, 488 (2011)).  The degrees are those that
# Paterson-Stockmeyer evaluation in blocks of k terms reaches with 1, 2, ...,
# 9 products: k - 1 for the powers and (m - 1) // k for the Horner steps
# (Paterson, Stockmeyer, SIAM J. Comput. 2, 60 (1973)).
_TAYLOR = tuple(
    (m, theta, _block(m) - 1 + (m - 1) // _block(m))
    for m, theta in (
        (2, 2.58e-8), (4, 3.40e-4), (6, 9.07e-3), (9, 8.96e-2), (12, 3.00e-1),
        (16, 7.81e-1), (20, 1.44), (25, 2.43), (30, 3.54),
    )
)
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR[-1][0] + 1))


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(m, s): the degree and the squarings of the fewest products in all,
    and of the fewer squarings on a tie, for an input of 1-norm ``norm``;
    s is the least with norm / 2^s <= theta_m.  A norm that overflows
    raises OverflowError."""
    best = None
    for m, theta, products in _TAYLOR:
        s = 0
        if norm > theta:
            s = math.ceil(math.log2(norm / theta))
            # The quotient is rounded; the test below is exact.
            if math.ldexp(norm, -s) > theta:
                s += 1
            elif s and math.ldexp(norm, 1 - s) <= theta:
                s -= 1
        if best is None or (products + s, s) < best[:2]:
            best = (products + s, s, m)
        if not s:  # every higher degree costs more products
            break
    return best[2], best[1]


def _taylor(a: np.ndarray, scale: float, m: int, n: int) -> np.ndarray:
    # The first block column of T_m(M) for M the stacked pair X = scale * a,
    # by Paterson-Stockmeyer: the powers X^1..X^k, and Horner's rule in X^k
    # over blocks of k terms, the last block running to X^k.  A step is M^k
    # P(M), the stacked product X^k @ P[:n], since P(M) has the pair P as its
    # first block column; the identity is [I; 0], added to the top block's
    # diagonal.  X^1 is ``a`` itself, scaled where it is used, and two
    # buffers take turns as the product and as the scratch of the scaled
    # powers, so that besides X^2..X^k only they are held.  Scaling by a
    # power of 2 is exact, so for expm's scales every array has the bits it
    # would have from a scaled copy of ``a``; another scale, such as the rk4
    # step's h, rounds differently, at the level of the unit roundoff.
    k = _block(m)
    top = a[:n] * scale if scale != 1.0 else a[:n]  # X^1's top block
    powers = [None, a, a @ top]
    if scale != 1.0:
        powers[2] *= scale
    for _ in range(k - 2):
        powers.append(powers[-1] @ top)
    del top
    steps = (m - 1) // k
    acc, spare = np.empty(a.shape, a.dtype), np.empty(a.shape, a.dtype)  # C order: see below
    for j in range(steps, -1, -1):
        if j < steps:
            np.matmul(powers[k], acc[:n], out=spare)
            acc, spare = spare, acc
        for i in range(1, (m - j * k if j == steps else k - 1) + 1):
            out = acc if j == steps and i == 1 else spare
            np.multiply(powers[i], _INV_FACTORIALS[j * k + i], out=out)
            if i == 1 and scale != 1.0:
                out *= scale
            if out is spare:
                acc += spare
        diagonal = acc.reshape(-1)[: n * n : n + 1]  # a view, as acc is C-contiguous
        diagonal += _INV_FACTORIALS[j * k]
    return acc


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring, of a square A or of a
    stacked pair [A; C] of n columns, A being n x n.

    The pair stands for the block matrix M = [[A, 0], [C, 0]], whose
    exponential is [[E, 0], [Phi, I]]; the result is its first block column
    [E; Phi], and E = exp(A) alone for a square input.  M is never built
    (Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  The input is
    halved s times and a truncated Taylor series of degree m is evaluated,
    with m and s picked from the 1-norm of M by the fewest matrix products
    (:func:`_taylor_plan`); the bounds theta_m make the approximant's
    backward error at most the unit roundoff, so it needs no linear solve.
    Every power M^k, k >= 1, is [[A^k, 0], [C A^(k-1), 0]], so each is the
    stacked product x @ y[:n] of two lower powers, and the identity is the
    pair [I; 0].  The result is squared back up by the composition
    :func:`_then` of the pair with itself (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)).  A real input stays real, at a quarter of the
    complex cost.
    """
    a = as_matrix(m, np.float64 if np.isrealobj(m) else np.complex128)
    n = a.shape[1]
    if a.shape[0] < n:
        raise DimensionError(f"expected a square matrix or a stacked pair, got shape {a.shape}")
    degree, squarings = _taylor_plan(float(np.linalg.norm(a, 1)) if n else 0.0)
    pair = _taylor(a, 2.0**-squarings, degree, n)
    for _ in range(squarings):
        pair = _then(pair, pair, n)
    return pair
