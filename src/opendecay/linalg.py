"""Dense complex linear algebra used throughout the toolkit.

Matrices are plain numpy arrays of dtype complex128.  The vectorization
convention is column stacking, vec([[a, b], [c, d]]) = (a, c, b, d), for
which vec(A X B) = (B^T kron A) vec(X).  :class:`HermitianBasis` gives
hermitian matrices real coordinates, in which a map that preserves
hermiticity, such as a Liouvillian, is a real matrix.
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
    changes of basis below are gathers that round at most once per entry,
    and U itself is never built.
    """

    def __init__(self, d: int):
        k = np.arange(d * d)
        row, col = k % d, k // d
        self.d = d
        self.kt = row * d + col
        self.first = np.where(row <= col, 1.0, -1j)
        self.second = np.where(row < col, 1.0, np.where(row > col, 1j, 0.0))
        self.norms_sq = np.where(row == col, 1.0, 2.0)  # squared column norms

    def left(self, m: np.ndarray) -> np.ndarray:
        """U @ m."""
        out = m[self.kt] * self.second[self.kt][:, None]
        out += self.first[:, None] * m
        return out

    def right(self, m: np.ndarray) -> np.ndarray:
        """m @ U."""
        out = m[:, self.kt]
        out *= self.second
        out += m * self.first
        return out

    def left_inverse(self, m: np.ndarray) -> np.ndarray:
        """U^-1 @ m = U† m / norms_sq."""
        out = m[self.kt]
        out *= self.second.conj()[:, None]
        out += self.first.conj()[:, None] * m
        out /= self.norms_sq[:, None]
        return out

    def right_inverse(self, m: np.ndarray) -> np.ndarray:
        """m @ U^-1 = m U† / norms_sq."""
        scale = self.second.conj() / self.norms_sq
        out = m[:, self.kt] * scale[self.kt]
        out += m * (self.first.conj() / self.norms_sq)
        return out

    def real_form(self, superop: np.ndarray) -> np.ndarray:
        """Re(U^-1 superop U) for a d^2 x d^2 superoperator.  For one that
        preserves hermiticity the imaginary part is rounding-level, and the
        real matrix maps coordinates to coordinates.  A copy, not a view, so
        that a cached real form does not keep the complex product alive."""
        return self.left_inverse(self.right(superop)).real.copy()

    def coords(self, rho: np.ndarray) -> np.ndarray:
        """Real coordinates of a hermitian d x d matrix."""
        return self.left_inverse(rho.reshape(-1, 1, order="F"))[:, 0].real

    def matrices(self, coords: np.ndarray) -> np.ndarray:
        """The d x d matrices with real coordinates ``coords``, one per row."""
        v = coords * self.first + coords[:, self.kt] * self.second[self.kt]  # rows of (U h)^T
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
    that tiny and large inputs are judged consistently, and a NaN deviation
    fails.
    """
    half = np.conj(np.swapaxes(a, -1, -2))
    half -= a  # a† - a, worked on in place to keep one temporary
    dev = _frobenius_each(half)
    bound = tol * np.maximum(1.0, _frobenius_each(a))
    bad = np.flatnonzero(~(dev <= bound))
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


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The input is halved until its 1-norm is at most 0.5, a diagonal Pade
    approximant of order 6 is evaluated, and the result is squared back up.
    A real input stays real, at a quarter of the complex cost.
    """
    a = as_matrix(m, np.float64 if np.isrealobj(m) else np.complex128)
    _require_square(a)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1)) if n else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0**squarings)
    eye = np.eye(n, dtype=a.dtype)
    c = _PADE6
    a2 = a @ a
    a4 = a2 @ a2
    odd = a @ (c[1] * eye + c[3] * a2 + c[5] * a4)
    del a
    even = c[0] * eye + c[2] * a2 + c[4] * a4 + c[6] * (a2 @ a4)
    # Drop the powers before the solve, which holds two more n x n arrays.
    del eye, a2, a4
    num, den = even + odd, even - odd
    del even, odd
    result = np.linalg.solve(den, num)
    for _ in range(squarings):
        result = result @ result
    return result
