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
matrix.  Pairs compose by :func:`_then`, which the stepper's powers use too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotHermitianError

__all__ = [
    "HermitianBasis",
    "HermitianEigen",
    "as_matrix",
    "expm",
    "frobenius",
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
    swap of axes, not a gather.
    """

    def __init__(self, d: int):
        k = np.arange(d * d)
        row, col = k % d, k // d
        self.d = d
        self.kt = row * d + col
        self.first = np.where(row <= col, 1.0, -1j)
        self.second = np.where(row < col, 1.0, np.where(row > col, 1j, 0.0))
        self.norms_sq = np.where(row == col, 1.0, 2.0)  # squared column norms

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


def _frobenius_each(a: np.ndarray) -> np.ndarray:
    # ||a||_F over the last two axes, without complex temporaries.
    re, im = a.real, a.imag
    return np.sqrt(
        np.einsum("...ij,...ij->...", re, re) + np.einsum("...ij,...ij->...", im, im)
    )


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
        dev = _frobenius_each(half)
        bound = tol * np.maximum(1.0, _frobenius_each(a))
    bad = np.flatnonzero(~(dev <= bound) | (dev == np.inf))
    if bad.size:
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


def hermitian_eig(m, tol: float = 1e-10) -> HermitianEigen:
    """Eigendecomposition of a hermitian matrix.

    Each eigenvector is rotated by a global phase so that its largest-magnitude
    component is real and positive, making the output deterministic enough for
    golden tests.
    """
    a = as_matrix(m)
    _require_square(a)
    lam, v = np.linalg.eigh(require_hermitian(a, tol))
    v = v.copy()
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        v[:, j] /= v[k, j] / abs(v[k, j])
    return HermitianEigen(eigenvalues=lam, eigenvectors=v)


# Coefficients of the diagonal order-6 Pade approximant of exp.
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def _then(first: np.ndarray, then: np.ndarray, n: int, out=None) -> np.ndarray:
    """The composition of stacked pairs of n columns: [E_b E_a; F_a + F_b
    E_a] for ``first`` = [E_a; F_a] followed by ``then`` = [E_b; F_b], the
    first block column of [[E_b, 0], [F_b, I]] [[E_a, 0], [F_a, I]].  A
    square pair has no F rows, and its composition is the product E_b E_a.
    ``then`` may be a stack of pairs, and the result is written to ``out``
    when given."""
    out = np.matmul(then, first[:n], out=out)
    out[..., n:, :] += first[n:]
    return out


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring, of a square A or of a
    stacked pair [A; C] of n columns, A being n x n.

    The pair stands for the block matrix M = [[A, 0], [C, 0]], whose
    exponential is [[E, 0], [Phi, I]]; the result is its first block column
    [E; Phi], and E = exp(A) alone for a square input.  M is never built
    (Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  The input is
    halved until its 1-norm, that of M, is at most 0.5, a diagonal Pade
    approximant of order 6 is evaluated, and the result is squared back up.
    Every power M^k, k >= 1, is [[A^k, 0], [C A^(k-1), 0]], so each is the
    stacked product x @ y[:n] of two lower powers, and the identity is the
    pair [I; 0].  The denominator is then [[D, 0], [D_C, I]] and the
    numerator [[N, 0], [N_C, I]], so E = D^-1 N by one solve of n columns,
    and Phi = N_C - D_C E.  Each squaring is the composition :func:`_then`
    of the pair with itself (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)).  A real input stays real, at a quarter of the complex cost.
    """
    a = as_matrix(m, np.float64 if np.isrealobj(m) else np.complex128)
    n = a.shape[1]
    if a.shape[0] < n:
        raise DimensionError(f"expected a square matrix or a stacked pair, got shape {a.shape}")
    norm = float(np.linalg.norm(a, 1)) if n else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0**squarings)
    eye = np.eye(*a.shape, dtype=a.dtype)
    c = _PADE6
    a2 = a @ a[:n]
    a4 = a2 @ a2[:n]
    odd = a @ (c[1] * eye[:n] + c[3] * a2[:n] + c[5] * a4[:n])
    del a
    even = c[0] * eye + c[2] * a2 + c[4] * a4 + c[6] * (a2 @ a4[:n])
    # Drop the powers before the solve, which holds two more n x n arrays.
    del eye, a2, a4
    pair, den = even + odd, even - odd  # the numerator becomes [E; Phi]
    del even, odd
    pair[:n] = np.linalg.solve(den[:n], pair[:n])
    pair[n:] -= den[n:] @ pair[:n]
    for _ in range(squarings):
        pair = _then(pair, pair, n)
    return pair
