"""Verification of structural claims on computed trajectories.

Covers positivity of the density matrix and its blocks, complete positivity
of dynamical maps via Choi matrices, and of exp(tL) at every t >= 0 via
the Choi matrix of the generator L, trace behaviour, the asymptotic decay
rate and limit of a non-singular decay matrix from the generator alone,
purity (mixedness), and the amplitude-damping Kraus pair of the single
decay channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .evolution import Trajectory, _check_rate_time
from .linalg import DEFAULT_HERMITICITY_TOL, HermitianBasis, frobenius, hermitian_basis
from .linalg import require_hermitian
from .model import GammaDecomposition

TRACE_TARGET = 1.0  # the total trace the enlarged evolution conserves
# Tolerances of the asymptotics check: the relative slack of its decay rate,
# with which exp(-gamma0 (1 - 5e-8) t) stays within the (1 + 1e-6) of the
# sampled bound it replaced up to the horizon t = 20/gamma0, and the absolute
# gap of its decay limit.
ASYMPTOTICS_RATE_TOL = 5e-8
ASYMPTOTICS_LIMIT_TOL = 1e-7

__all__ = [
    "ChoiMatrix",
    "KrausPair",
    "VerificationReport",
    "apply_kraus",
    "asymptotics_check",
    "check_cp",
    "check_cp_generator",
    "check_positivity",
    "check_trace",
    "choi_matrix",
    "choi_of_superoperator",
    "kraus_amplitude_damping",
    "mixedness",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: fails exactly when ``measured`` exceeds
    ``tolerance``; ``not_applicable`` marks checks whose precondition does
    not hold (these never count as failures)."""

    name: str
    status: str  # "pass" | "fail" | "not_applicable"
    measured: float
    tolerance: float
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def _report(name: str, measured: float, tolerance: float, **meta) -> VerificationReport:
    status = "pass" if measured <= tolerance else "fail"
    return VerificationReport(
        name=name, status=status, measured=float(measured), tolerance=float(tolerance),
        meta=meta,
    )


def _shortfall(low: float) -> float:
    # How far ``low`` lies below zero.  NaN stays NaN, so the report fails.
    return 0.0 if low >= 0 else -low


def check_positivity(traj: Trajectory, tol: float = 1e-8) -> VerificationReport:
    """Smallest eigenvalue of every sample must stay above ``-tol``; for an
    enlarged run, of the block-diagonal state its two blocks make up.  Reads
    ``traj.min_eigenvalues``, whose hermiticity gate raises
    :class:`NotHermitianError` on a sample that is not hermitian."""
    worst = float(traj.min_eigenvalues.min())
    return _report(
        "positivity", _shortfall(worst), tol,
        min_eigenvalue=worst, n_samples=len(traj),
    )


def check_trace(traj: Trajectory, tol: float = 1e-8) -> VerificationReport:
    """Largest deviation of the total trace from TRACE_TARGET across samples;
    for an enlarged run the total is the sum of its two blocks' traces."""
    worst = float(np.abs(traj.traces.sum(axis=0) - TRACE_TARGET).max())
    return _report("trace", worst, tol, target=TRACE_TARGET, n_samples=len(traj))


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a dynamical map sampled at time ``t``; positive
    semidefinite exactly when the map is completely positive."""

    matrix: np.ndarray
    dim: int
    t: float | None = None


def choi_matrix(map_eval, d: int, t: float | None = None) -> ChoiMatrix:
    """Build sum_ij E_ij kron map(E_ij) for a linear map on d x d matrices.

    Matrix units are decomposed into hermitian combinations before being fed
    to ``map_eval`` (propagators only accept hermitian states) and the images
    are recombined by linearity.
    """
    if d < 1:
        raise DimensionError("map dimension must be positive")
    images: dict[tuple[int, int], np.ndarray] = {}

    def run(m) -> np.ndarray:
        out = np.asarray(map_eval(m), dtype=np.complex128)
        if out.ndim != 2 or out.shape[0] != out.shape[1]:
            raise DimensionError(f"map returned shape {out.shape}, expected square")
        return out

    for i in range(d):
        unit = np.zeros((d, d), dtype=np.complex128)
        unit[i, i] = 1.0
        images[(i, i)] = run(unit)
    for i in range(d):
        for j in range(i + 1, d):
            real_part = np.zeros((d, d), dtype=np.complex128)
            real_part[i, j] = real_part[j, i] = 0.5
            imag_part = np.zeros((d, d), dtype=np.complex128)
            imag_part[i, j] = -0.5j
            imag_part[j, i] = 0.5j
            v_re = run(real_part)
            v_im = run(imag_part)
            images[(i, j)] = v_re + 1j * v_im
            images[(j, i)] = v_re - 1j * v_im
    d_out = images[(0, 0)].shape[0]
    out = np.zeros((d * d_out, d * d_out), dtype=np.complex128)
    for (i, j), img in images.items():
        if img.shape != (d_out, d_out):
            raise DimensionError("map returned inconsistent output shapes")
        out[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out] = img
    return ChoiMatrix(matrix=out, dim=d, t=t)


def choi_of_superoperator(superop, d: int, t: float | None = None) -> ChoiMatrix:
    """The Choi matrix sum_ij E_ij kron map(E_ij) of the linear map whose
    column-stacking matrix is ``superop`` (d_out^2 x d^2).

    vec(map(E_ij)) is column i + j d of ``superop``, so the Choi matrix is a
    reshuffle of its entries: no map evaluations.
    """
    s = np.asarray(superop, dtype=np.complex128)
    d_out = math.isqrt(s.shape[0])
    if s.ndim != 2 or d_out * d_out != s.shape[0] or s.shape[1] != d * d:
        raise DimensionError(f"superoperator has shape {s.shape}, expected (d_out^2, {d * d})")
    # s[a + b d_out, i + j d] = map(E_ij)[a, b] goes to row i d_out + a,
    # column j d_out + b.
    choi = s.reshape(d_out, d_out, d, d).transpose(3, 1, 2, 0).reshape(d * d_out, d * d_out)
    return ChoiMatrix(matrix=choi, dim=d, t=t)


def check_cp(choi: ChoiMatrix, tol: float = 1e-8) -> VerificationReport:
    """Complete positivity via the smallest Choi eigenvalue."""
    sym = require_hermitian(choi.matrix, DEFAULT_HERMITICITY_TOL, "Choi matrix")
    low = float(np.linalg.eigvalsh(sym)[0])
    return _report("cp", _shortfall(low), tol, min_eigenvalue=low, t=choi.t)


def _choi_rows(grid, own, swapped, basis: HermitianBasis, i0: int, i1: int) -> np.ndarray:
    # Rows i d + a, i0 <= i < i1, of the Choi matrix C[i d + a, j d + b] =
    # S[a + b d, i + j d] of S = U L U^-1, the vec() form of the real L
    # whose columns are ``grid`` [r, j, i].  Its columns c = i + j d are
    # those of L at c and kt[c] = j + i d, weighted as
    # HermitianBasis.right_inverse weights them, and taken through
    # ``basis.left``; the rows reshuffle as in choi_of_superoperator.
    d, w = basis.d, i1 - i0
    cols = grid[:, :, i0:i1] * own[:, i0:i1]
    cols += grid[:, i0:i1].swapaxes(1, 2) * swapped[:, i0:i1]
    s = basis.left(cols.reshape(d * d, d * w))
    return s.reshape(d, d, d, w).transpose(3, 1, 2, 0).reshape(w * d, d * d)


def check_cp_generator(real_ss, jumps, tol: float = 1e-8) -> VerificationReport:
    """Complete positivity of exp(tL) at every t >= 0, from the generator L
    alone: ``real_ss`` is L as a real d^2 x d^2 matrix in the coordinates of
    :class:`HermitianBasis`, and ``jumps`` are the A_k of its Lindblad form
    L = -i(G rho - rho G†) + sum_k A_k rho A_k†.

    A hermiticity-preserving L, as every real L is, generates CP maps for
    every t exactly when P C P is positive semidefinite, for C the Choi
    matrix of L (in the row order of :func:`choi_of_superoperator`) and P
    the projector off Omega = vec(I)/sqrt(d) (Gorini, Kossakowski,
    Sudarshan, J. Math. Phys. 17, 821 (1976); Wolf, Eisert, Cubitt, Cirac,
    PRL 101, 150402 (2008)).  Every G term of C has Omega on one side, so P
    removes it and P C P = P (sum_k v_k v_k†) P, with v_k[i d + a] =
    A_k[a, i].  Weyl's inequality then gives lambda_min(P C P) >= -||P X
    P||_F for X = C - sum_k v_k v_k†, in O(d^4) work.  ``measured`` is that
    residual over ||C||_F, so the verdict does not change under L -> cL.
    Only when it exceeds ``tol`` does one ``eigvalsh`` of the gated P C P
    decide, with ``measured`` max(0, -lambda_min) / ||C||_F.  A residual
    that is not finite fails.

    X is built in row blocks into one d^4 complex array, which is projected
    in place and whose norm is taken by row blocks, so no second d^4 array
    is held on the bound's path.
    """
    real_ss = np.asarray(real_ss, dtype=np.float64)
    n = real_ss.shape[-1]
    d = math.isqrt(n)
    if real_ss.shape != (n, n) or d * d != n:
        raise DimensionError(f"generator has shape {real_ss.shape}, expected (d^2, d^2)")
    basis = hermitian_basis(d)
    grid = real_ss.reshape(n, d, d)  # [r, j, i]: column i + j d
    own = (basis.first.conj() / basis.norms_sq).reshape(d, d)
    swapped = (basis.second.conj() / basis.norms_sq).reshape(d, d).T
    v = np.array([np.ravel(a.T) for a in jumps], dtype=np.complex128).reshape(-1, n).T
    v_h = v.conj().T
    # Row blocks of k values of i, about 256 KiB each.
    k = max(1, 2**18 // (16 * d**3))
    blocks = [slice(i * d, min(i + k, d) * d) for i in range(0, d, k)]
    x = np.empty((n, n), dtype=np.complex128)
    norms = []
    for rows in blocks:
        c = _choi_rows(grid, own, swapped, basis, rows.start // d, rows.stop // d)
        norms.append(frobenius(c))
        np.subtract(c, v[rows] @ v_h, out=x[rows])
    # P X P in place: Omega has 1/sqrt(d) at the rows i d + i, every
    # (d + 1)-th, so Omega Omega† X subtracts the mean of those rows from
    # each of them, and X Omega Omega† the same of the columns.
    x[:: d + 1] -= x[:: d + 1].sum(axis=0) / d
    x[:, :: d + 1] -= x[:, :: d + 1].sum(axis=1, keepdims=True) / d
    scale = math.hypot(*norms)
    residual = math.hypot(*(frobenius(x[rows]) for rows in blocks))
    unit = scale or 1.0  # with C = 0 the residual stays absolute
    meta = {"residual": residual, "scale": scale}
    measured = residual / unit
    if not (math.isfinite(measured) and measured > tol):
        return _report("cp", measured, tol, decided_by="bound", **meta)
    # P C P = P X P + (P V)(P V)†, with P V projected as X was.
    v[:: d + 1] -= v[:: d + 1].sum(axis=0) / d
    v_h = v.conj().T
    for rows in blocks:
        x[rows] += v[rows] @ v_h
    sym = require_hermitian(x, DEFAULT_HERMITICITY_TOL, "projected Choi matrix")
    del x
    low = float(np.linalg.eigvalsh(sym)[0])
    return _report(
        "cp", _shortfall(low) / unit, tol, decided_by="eigvalsh", min_eigenvalue=low, **meta
    )


def mixedness(rho) -> float:
    """Purity Tr(rho^2); one for pure states, below one for mixed states."""
    a = np.asarray(rho, dtype=np.complex128)
    sym = require_hermitian(a, DEFAULT_HERMITICITY_TOL, "state")
    return float(np.trace(sym @ sym).real)


def asymptotics_check(
    real_form, rho0, dec: GammaDecomposition, cp: VerificationReport
) -> VerificationReport:
    """Decay limits for a non-singular decay matrix, from the generator
    alone: ``real_form`` is [L_ss; L_fs], the map rho_ss -> (rho_ss',
    rho_ff') as a real (d^2 + d_f^2) x d^2 matrix in the coordinates of
    :class:`HermitianBasis` (``MasterEquation.real_form`` of the system-block
    equation), ``rho0`` the initial system block, and ``cp`` the
    :func:`check_cp_generator` report of L_ss.  Nothing is propagated.

    The rate bound.  d/dt Tr rho_ss = Tr(X rho_ss) for X = L_ss†(I), which
    is -B†B because the A terms preserve the trace.  Tr U_k = 1 for the
    diagonal basis matrices and 0 for the others, so the sum of the rows of
    L_ss at the diagonal coordinates is the trace row, Tr L_ss(U_k) =
    Tr(X U_k), whose entries over the squared column norms are the
    coordinates of X.  When every rho_ss(t) is positive semidefinite, which
    ``cp`` certifies, Tr(X rho_ss) <= lambda_max(X) Tr rho_ss, and
    Gronwall's inequality gives Tr rho_ss(t) <= exp(lambda_max t) Tr rho0
    for every t >= 0; with ||rho_ss||_F <= Tr rho_ss, the norm too.  It
    passes when lambda_max(X) <= -gamma0 (1 - ASYMPTOTICS_RATE_TOL), for the
    smallest decay rate gamma0.

    The decay limit.  W = int_0^inf rho_ss dt = -L_ss^-1 rho0, from one LU
    solve, and rho_ff(inf) = B W B†, the fed rows L_fs applied to W.  It
    passes when |Tr rho_ff(inf) - Tr rho0| <= ASYMPTOTICS_LIMIT_TOL: all that
    leaves the system block arrives in the decay block.  A singular solve
    reads NaN and fails, and ``meta`` holds the solve's relative residual
    ||L_ss w + x0|| / (||L_ss||_F ||w|| + ||x0||).

    ``measured`` is the largest of the rate excess, the limit gap and the
    ``cp`` measure, each over its tolerance, so the report fails exactly when
    measured > 1 (a NaN fails).  Under L -> cL, rho0 fixed, no ratio
    changes.  Both parts round at about u ||L_ss|| / gamma0 relative, for the
    unit roundoff u, so a generator whose gamma0 lies below about 1e-9
    ||L_ss||, from a nearly singular decay matrix or jumps far stronger than
    the slowest decay, can fail on rounding alone.  Returns a
    ``not_applicable`` report when the decay matrix is singular: L_ss is then
    singular and the system block need not empty.
    """
    if dec.null_dim > 0:
        return VerificationReport(
            name="asymptotics",
            status="not_applicable",
            measured=float("nan"),
            tolerance=float("nan"),
            meta={"reason": "decay matrix is singular", "null_dim": dec.null_dim},
        )
    gen = np.asarray(real_form, dtype=np.float64)
    n_s = gen.shape[-1]
    d, d_f = math.isqrt(n_s), math.isqrt(max(len(gen) - n_s, 0))
    if gen.ndim != 2 or d * d != n_s or n_s + d_f * d_f != len(gen):
        raise DimensionError(f"generator has shape {gen.shape}, expected (d^2 + d_f^2, d^2)")
    loss, fed = gen[:n_s], gen[n_s:]
    basis = hermitian_basis(d)
    x0 = basis.coords(np.asarray(rho0, dtype=np.complex128))
    tr0 = float(x0[:: d + 1].sum())
    gamma0 = float(dec.rates.min())
    # A generator that is not finite reads NaN, without numpy's warnings.
    with np.errstate(all="ignore"):
        row = loss[:: d + 1].sum(axis=0)
        top = math.nan
        if np.isfinite(row).all():
            x = basis.matrices((row / basis.norms_sq)[None])[0]
            top = float(np.linalg.eigvalsh(x)[-1])
        try:
            w = -np.linalg.solve(loss, x0)
        except np.linalg.LinAlgError:  # singular
            w = np.full(n_s, math.nan)
        limit = float(fed[:: d_f + 1].sum(axis=0) @ w)
        residual = frobenius(loss @ w + x0) / (frobenius(loss) * frobenius(w) + frobenius(x0))
    ratios = (
        (top + gamma0) / (ASYMPTOTICS_RATE_TOL * gamma0),
        abs(limit - tr0) / ASYMPTOTICS_LIMIT_TOL,
        cp.measured / cp.tolerance,
    )
    return _report(
        "asymptotics", np.max(ratios), 1.0,
        gamma0=gamma0, max_trace_rate=top, trace0=tr0, decay_limit=limit, residual=residual,
    )


@dataclass(frozen=True)
class KrausPair:
    """Amplitude-damping channel operators: ``m0`` damps the unstable
    amplitude, ``m1`` transfers it into the decay state with probability
    ``prob``.  Normalization m0†m0 + m1†m1 = 1 is enforced on construction."""

    m0: np.ndarray
    m1: np.ndarray
    prob: float

    def __post_init__(self):
        resid = frobenius(
            self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1 - np.eye(2)
        )
        if not resid <= 1e-12:  # a NaN fails too
            raise ValueError(f"Kraus normalization residual {resid:.3e}")


def kraus_amplitude_damping(rate: float, t: float) -> KrausPair:
    """Kraus pair of the single decay channel at time ``t`` with damping
    probability p = 1 - exp(-rate * t)."""
    _check_rate_time(rate, t)
    p = -math.expm1(-rate * t)
    m0 = np.array([[math.sqrt(1.0 - p), 0.0], [0.0, 1.0]], dtype=np.complex128)
    m1 = np.array([[0.0, 0.0], [math.sqrt(p), 0.0]], dtype=np.complex128)
    return KrausPair(m0=m0, m1=m1, prob=p)


def apply_kraus(rho0, pair: KrausPair) -> np.ndarray:
    """Channel action sum_j M_j rho0 M_j†."""
    rho = np.asarray(rho0, dtype=np.complex128)
    if rho.shape != pair.m0.shape:
        raise DimensionError(f"state has shape {rho.shape}, expected {pair.m0.shape}")
    return pair.m0 @ rho @ pair.m0.conj().T + pair.m1 @ rho @ pair.m1.conj().T
