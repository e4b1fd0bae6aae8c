"""Verification of structural claims on computed trajectories.

Covers positivity of the density matrix and its blocks, complete positivity
of dynamical maps via Choi matrices, trace behaviour, the asymptotic decay
limits for a non-singular decay matrix, purity (mixedness), and the
amplitude-damping Kraus pair of the single decay channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .evolution import Trajectory, _check_rate_time
from .linalg import DEFAULT_HERMITICITY_TOL, frobenius, require_hermitian
from .model import GammaDecomposition

TRACE_TARGET = 1.0  # the total trace the enlarged evolution conserves
# Tolerances of the asymptotics check's exponential bound and final limits.
ASYMPTOTICS_BOUND_TOL = 1e-8
ASYMPTOTICS_LIMIT_TOL = 1e-7

__all__ = [
    "ChoiMatrix",
    "KrausPair",
    "VerificationReport",
    "apply_kraus",
    "asymptotics_check",
    "asymptotics_horizon",
    "check_cp",
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


def mixedness(rho) -> float:
    """Purity Tr(rho^2); one for pure states, below one for mixed states."""
    a = np.asarray(rho, dtype=np.complex128)
    sym = require_hermitian(a, DEFAULT_HERMITICITY_TOL, "state")
    return float(np.trace(sym @ sym).real)


def asymptotics_horizon(dec: GammaDecomposition) -> float:
    """20/gamma0, for the smallest decay rate gamma0: the time that the run
    checked by :func:`asymptotics_check` must reach."""
    return 20.0 / float(dec.rates.min())


def asymptotics_check(traj: Trajectory, dec: GammaDecomposition) -> VerificationReport:
    """Decay limits for a non-singular decay matrix, from the system blocks
    ``traj.states`` alone, of any trajectory: an enlarged run's decay blocks
    are not read, so a system-space run of the same system block gives the
    same report.

    Verifies the exponential bound Tr rho_ss(t) <= Tr rho_ss(0) *
    exp(-gamma0 * t) * (1 + 1e-6) at every sample, and, at the final time
    (which must reach 20/gamma0), that the system block has emptied into the
    decay sector: its norm and trace are at most 1e-7.  ``measured`` is the
    worst residual divided by its tolerance, so the report fails exactly when
    measured > 1.  Returns a ``not_applicable`` report when the decay matrix
    is singular.

    The limit ratios only shape ``measured``; they decide no verdict of
    their own.  For a trace-one start whose run reaches 20/gamma0 and whose
    final system block is positive semidefinite, the bound at the last
    sample is at most e^-20 (1 + 1e-6) ~ 2.1e-9, and ||rho_ss||_F <=
    Tr rho_ss, so a final norm or trace above 1e-7 already exceeds the bound
    by more than its 1e-8 tolerance and fails ``bound_excess``.
    """
    if dec.null_dim > 0:
        return VerificationReport(
            name="asymptotics",
            status="not_applicable",
            measured=float("nan"),
            tolerance=float("nan"),
            meta={"reason": "decay matrix is singular", "null_dim": dec.null_dim},
        )
    gamma0, horizon = float(dec.rates.min()), asymptotics_horizon(dec)
    t_end = float(traj.times[-1])
    traces = traj.traces[0]
    tr0 = float(traces[0])
    # math.exp per sample keeps the bound's bits; np.max keeps a NaN trace.
    decay = np.array([math.exp(-gamma0 * t) for t in traj.times.tolist()])
    excess = float(np.max(traces - tr0 * decay * (1.0 + 1e-6)))
    ss_norm = frobenius(traj.states[-1])
    # The trace still to move into the decay block.  For a trace-preserving
    # run it is 1 - Tr rho_ff, which the ``trace`` check tests; taken from
    # rho_ss it reflects the state, not the cancellation in 1 - Tr rho_ff.
    ss_trace = abs(float(traces[-1]))
    ratios = {
        "bound_excess": excess / ASYMPTOTICS_BOUND_TOL,
        "final_ss_norm": ss_norm / ASYMPTOTICS_LIMIT_TOL,
        "final_ss_trace": ss_trace / ASYMPTOTICS_LIMIT_TOL,
    }
    measured = float(np.max(list(ratios.values())))
    horizon_ok = t_end >= horizon * (1.0 - 1e-9)
    if not horizon_ok:
        # Too short to certify the limits; report the shortfall as a failure.
        measured = max(measured, horizon / max(t_end, 1e-300))
    return VerificationReport(
        name="asymptotics",
        status="pass" if (measured <= 1.0 and horizon_ok) else "fail",
        measured=float(measured),
        tolerance=1.0,
        meta={
            "gamma0": gamma0,
            "horizon": horizon,
            "t_end": t_end,
            "horizon_ok": horizon_ok,
            "bound_excess": excess,
            "final_ss_norm": ss_norm,
            "final_ss_trace": ss_trace,
        },
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
