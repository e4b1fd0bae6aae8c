"""Time evolution of density matrices.

Provides the right-hand sides of the system-space master equation (with the
non-hermitian effective Hamiltonian), the trace-preserving enlarged-space
equation, and its block-decoupled form; a fixed-step RK4 integrator; the exact
superoperator-exponential propagator used as an oracle; the cumulative
quadrature for the decay block; and the closed form of the single-channel
decay.

Both master equations are linear and autonomous, d vec(rho)/dt = L vec(rho),
so one classical RK4 step is exactly the matrix polynomial
P(dt L) = I + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24.  For a state of
dimension d <= SUPEROP_MAX_DIM (d_tot on the enlarged space, d_s on the
system space) the ``rk4`` method builds P once from the Liouvillian and then
spends one d^2 x d^2 matvec per step; the ``exact`` method runs the same loop
with expm(dt L).  Larger states take the direct right-hand-side RK4, whose
step costs O(d^3) instead of O(d^4).  The crossover, measured per step at one
BLAS thread (2-core AMD EPYC, numpy 2.4.6, OpenBLAS 0.3.31) with the
Liouvillian assembly and the build of P included: at d = 16 the stepper costs
37, 25 and 14 us over 500, 1000 and 5000 steps against 44-47 us direct; at
d = 18 it costs 65 and 43 us over 500 and 1000 steps against 50-52 us; at
d = 20, 108 and 69 us against 53-57 us.  16 is the largest size at which the
stepper wins from 500 steps on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GridError, NumericsError
from .linalg import as_matrix, expm, unvec, vec
from .model import (
    DecayOperator,
    EnlargedModel,
    Liouvillian,
    MasterEquation,
    SystemSpec,
    assemble_liouvillian_wwa,
)

# Allowed per-step hermiticity drift before the integrator aborts.
HERMITICITY_DRIFT_TOL = 1e-9
# Largest state dimension d for which RK4 runs as one precomputed
# d^2 x d^2 step matrix; the module docstring gives the measured crossover.
SUPEROP_MAX_DIM = 16
# Largest step count t_max/dt an IntegratorConfig accepts.  A step costs
# ~1 us (stepper, small d) to ~0.2 ms (direct RK4, d_tot = 24), so this caps
# one evolution at seconds to half an hour instead of letting a tiny dt ask
# for unbounded work and a sample list of unbounded length.
MAX_STEPS = 10**7

__all__ = [
    "BlockDensity",
    "IntegratorConfig",
    "Trajectory",
    "closed_form_1d",
    "evolve_blocks",
    "evolve_enlarged",
    "evolve_wwa",
    "integrate_rk4",
    "propagate_exact",
    "rho_ff_quadrature",
    "rhs_blocks",
    "rhs_enlarged",
    "rhs_wwa",
]


@dataclass(frozen=True)
class BlockDensity:
    """Density matrix on the enlarged space, addressed by blocks: system
    (ss), coherences (sf, fs), and decay products (ff)."""

    rho_ss: np.ndarray
    rho_sf: np.ndarray
    rho_fs: np.ndarray
    rho_ff: np.ndarray

    @classmethod
    def from_full(cls, rho, d_s: int) -> "BlockDensity":
        a = as_matrix(rho)
        if a.shape[0] != a.shape[1] or a.shape[0] < d_s:
            raise DimensionError(f"cannot split shape {a.shape} at d_s={d_s}")
        return cls(
            rho_ss=a[:d_s, :d_s],
            rho_sf=a[:d_s, d_s:],
            rho_fs=a[d_s:, :d_s],
            rho_ff=a[d_s:, d_s:],
        )

    def to_full(self) -> np.ndarray:
        return np.block([[self.rho_ss, self.rho_sf], [self.rho_fs, self.rho_ff]])

    @property
    def total_trace(self) -> float:
        return float(np.trace(self.rho_ss).real + np.trace(self.rho_ff).real)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: strictly increasing times and one state per time.

    ``d_s`` is set for enlarged-space runs so samples can be addressed by
    block; it stays ``None`` for system-space-only runs.
    """

    times: np.ndarray
    states: tuple[np.ndarray, ...]
    d_s: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", tuple(self.states))
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if len(self.states) != self.times.size:
            raise ValueError("states and times must have equal length")

    def __len__(self) -> int:
        return int(self.times.size)

    def blocks(self, i: int) -> BlockDensity:
        if self.d_s is None:
            raise DimensionError("trajectory has no block structure (d_s unset)")
        return BlockDensity.from_full(self.states[i], self.d_s)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration setup.

    The grid is k*dt for k = 0..round(t_max/dt); samples are taken every
    ``sample_stride`` steps plus the final step.  ``t_max = 0`` yields the
    degenerate single-sample trajectory at t = 0.  ``t_max/dt`` may not
    exceed ``MAX_STEPS``.
    """

    dt: float
    t_max: float
    sample_stride: int = 1
    method: str = "rk4"

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.t_max < math.inf:
            raise ValueError("t_max must be non-negative and finite")
        if self.t_max > 0 and self.dt > self.t_max * (1 + 1e-12):
            raise ValueError("dt must not exceed t_max")
        if self.t_max / self.dt > MAX_STEPS:
            raise ValueError(
                f"t_max/dt = {self.t_max / self.dt:.6g} steps exceeds MAX_STEPS = {MAX_STEPS}"
            )
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be at least 1")
        if self.method not in ("rk4", "exact"):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def n_steps(self) -> int:
        if self.t_max == 0:
            return 0
        return max(1, int(round(self.t_max / self.dt)))

    def sampled_steps(self) -> list[int]:
        n = self.n_steps
        ks = list(range(0, n + 1, self.sample_stride))
        if ks[-1] != n:
            ks.append(n)
        return ks


def rhs_wwa(rho, spec: SystemSpec) -> np.ndarray:
    """Derivative of the system-space density matrix: non-hermitian effective
    Hamiltonian plus the Lindblad dissipator."""
    return spec.equation.rhs(rho)


def rhs_enlarged(rho, model: EnlargedModel) -> np.ndarray:
    """Derivative on the enlarged space: hermitian Hamiltonian commutator plus
    the dissipator over the embedded Lindblad operators and the decay
    operator.  Trace-free by construction."""
    return model.equation.rhs(rho)


def rhs_blocks(blocks: BlockDensity, spec: SystemSpec, decay: DecayOperator) -> BlockDensity:
    """Block-decoupled derivative.

    The system block evolves under the effective Hamiltonian built from the
    decay operator's gram matrix, the coherence blocks decay independently,
    and the decay block grows as B rho_ss B†.
    """
    if blocks.rho_ss.shape != (spec.d_s, spec.d_s):
        raise DimensionError(
            f"rho_ss has shape {blocks.rho_ss.shape}, expected {(spec.d_s,) * 2}"
        )
    if decay.matrix.shape != (spec.d_f, spec.d_s):
        raise DimensionError(
            f"decay operator has shape {decay.matrix.shape}, "
            f"expected {(spec.d_f, spec.d_s)}"
        )
    eq = MasterEquation.build(spec.hamiltonian, spec.lindblad_ops, loss=decay.gram)
    d_ss = eq.rhs(blocks.rho_ss)
    d_sf = -1j * (eq.generator @ blocks.rho_sf)
    d_fs = 1j * (blocks.rho_fs @ eq.generator_adjoint)
    d_ff = decay.matrix @ blocks.rho_ss @ decay.matrix.conj().T
    return BlockDensity(rho_ss=d_ss, rho_sf=d_sf, rho_fs=d_fs, rho_ff=d_ff)


def _check_grid(cfg: IntegratorConfig) -> int:
    n = cfg.n_steps
    if abs(n * cfg.dt - cfg.t_max) > 1e-9 * max(1.0, cfg.t_max):
        warnings.warn(
            f"t_max={cfg.t_max!r} is not an integer multiple of dt={cfg.dt!r}; "
            f"integrating to {n * cfg.dt!r}",
            stacklevel=4,
        )
    return n


def _sample(advance, x0, to_state, cfg: IntegratorConfig, d_s, drift_tol) -> Trajectory:
    """The sampling loop shared by every integrator.

    ``advance(x)`` moves the state ``x`` one ``dt`` forward and re-symmetrizes
    it, returning the new state and the hermiticity drift ||rho - rho†||_F it
    had before symmetrization; a drift above ``drift_tol`` aborts the run.
    ``to_state`` turns a kept state into the density matrix stored in the
    trajectory.
    """
    n = _check_grid(cfg)
    dt = cfg.dt
    wanted = cfg.sampled_steps()
    x = x0
    times = [0.0]
    states = [to_state(x)]
    wi = 1  # wanted[0] == 0 always
    for k in range(1, n + 1):
        x, drift = advance(x)
        if not drift <= drift_tol:  # a NaN drift fails too
            raise NumericsError(
                f"hermiticity drift {drift:.3e} at step {k} exceeds {drift_tol:g}"
            )
        if wi < len(wanted) and wanted[wi] == k:
            times.append(k * dt)
            states.append(to_state(x))
            wi += 1
    return Trajectory(times=np.array(times), states=tuple(states), d_s=d_s)


def integrate_rk4(
    rhs,
    rho0,
    cfg: IntegratorConfig,
    d_s: int | None = None,
    drift_tol: float = HERMITICITY_DRIFT_TOL,
) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta.

    The state is re-symmetrized after every step; the pre-symmetrization
    hermiticity drift is monitored and a :class:`NumericsError` is raised if
    it ever exceeds ``drift_tol``.
    """
    dt = cfg.dt

    def advance(rho):
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        rho_dag = rho.conj().T
        return 0.5 * (rho + rho_dag), float(np.linalg.norm(rho - rho_dag))

    return _sample(advance, as_matrix(rho0).copy(), np.asarray, cfg, d_s, drift_tol)


def propagate_exact(liouv: Liouvillian, rho0, t: float) -> np.ndarray:
    """Exact propagation: unvec(expm(L t) @ vec(rho0))."""
    if t < 0:
        raise ValueError("t must be non-negative")
    rho = as_matrix(rho0)
    if rho.shape != (liouv.dim, liouv.dim):
        raise DimensionError(f"state has shape {rho.shape}, expected {(liouv.dim,) * 2}")
    return unvec(expm(liouv.matrix * t) @ vec(rho), liouv.dim)


def _rk4_polynomial(a: np.ndarray) -> np.ndarray:
    # I + a + a^2/2 + a^3/6 + a^4/24 in Horner form: for the linear
    # autonomous equation dx/dt = L x with a = dt L, one classical RK4 step
    # is exactly this matrix.
    eye = np.eye(a.shape[0], dtype=np.complex128)
    p = eye + a / 4.0
    p = eye + (a @ p) / 3.0
    p = eye + (a @ p) / 2.0
    return eye + a @ p


def _hermitian_basis(d: int) -> np.ndarray:
    """Columns: vec() of E_ii, E_ij + E_ji and i(E_ij - E_ji) for i < j.

    These hermitian matrices are mutually orthogonal and span all d x d
    matrices.  The coordinates of a hermitian matrix are real: its diagonal
    and the real and imaginary parts of its upper triangle.  Every entry is
    0, 1 or +-i, so a change to this basis rounds at most once per entry.
    """
    n = d * d
    k = np.arange(n)
    row, col = k % d, k // d
    kt = k.reshape(d, d).T.ravel()  # vec index of the transposed entry
    u = np.zeros((n, n), dtype=np.complex128)
    u[k, k] = np.where(row <= col, 1.0, -1j)
    off = row != col
    u[kt[off], k[off]] = np.where(row < col, 1.0, 1j)[off]
    return u


def _evolve_linear(liouv: Liouvillian, rho0, cfg: IntegratorConfig, d_s=None) -> Trajectory:
    """Evolve d vec(rho)/dt = L vec(rho) with one precomputed step matrix:
    expm(L dt) for the exact method, the RK4 polynomial of L dt otherwise.

    The state is held as its real coordinates h in the basis U of
    :func:`_hermitian_basis`.  With Q = U^-1 step U, one step maps h to Q h:
    Re(Q) h is the re-symmetrized next state and Im(Q) h, scaled by the
    column norms w of U, has norm ||rho - rho†||_F / 2.  So each step is one
    matvec with the stacked real matrix [Re Q; w Im Q].
    """
    d = liouv.dim
    rho = as_matrix(rho0)
    if rho.shape != (d, d):
        raise DimensionError(f"state has shape {rho.shape}, expected {(d, d)}")
    a = liouv.matrix * cfg.dt
    step = expm(a) if cfg.method == "exact" else _rk4_polynomial(a)
    u = _hermitian_basis(d)
    norms_sq = (np.abs(u) ** 2).sum(axis=0)  # 1 on the diagonal, 2 off it
    w = np.sqrt(norms_sq)
    u_inv = u.conj().T / norms_sq[:, None]
    q = u_inv @ step @ u
    stacked = np.concatenate((q.real, w[:, None] * q.imag))
    n = d * d

    def advance(h):
        y = stacked @ h
        anti = y[n:]
        return y[:n], 2.0 * math.sqrt(anti @ anti)

    c0 = u_inv @ vec(rho)
    drift = 2.0 * float(np.linalg.norm(w * c0.imag))
    if drift > HERMITICITY_DRIFT_TOL:
        raise NumericsError(
            f"initial state deviates from hermiticity by {drift:.3e} "
            f"(allowed {HERMITICITY_DRIFT_TOL:g})"
        )
    return _sample(
        advance, c0.real.copy(), lambda h: unvec(u @ h, d).copy(), cfg, d_s, HERMITICITY_DRIFT_TOL
    )


def evolve_wwa(spec: SystemSpec, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the system-space master equation with the configured method."""
    if cfg.method == "exact" or spec.d_s <= SUPEROP_MAX_DIM:
        return _evolve_linear(assemble_liouvillian_wwa(spec), rho0, cfg)
    return integrate_rk4(lambda r: rhs_wwa(r, spec), rho0, cfg)


def evolve_enlarged(model: EnlargedModel, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the enlarged-space master equation with the configured method."""
    if cfg.method == "exact" or model.d_tot <= SUPEROP_MAX_DIM:
        return _evolve_linear(model.liouvillian, rho0, cfg, d_s=model.d_s)
    return integrate_rk4(lambda r: rhs_enlarged(r, model), rho0, cfg, d_s=model.d_s)


def evolve_blocks(
    spec: SystemSpec, decay: DecayOperator, rho0, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the block-decoupled equations (RK4 only); same trajectory as
    the full enlarged equation, computed block by block."""
    if cfg.method != "rk4":
        raise ValueError("evolve_blocks supports the rk4 method only")

    def rhs(rho):
        return rhs_blocks(BlockDensity.from_full(rho, spec.d_s), spec, decay).to_full()

    return integrate_rk4(rhs, rho0, cfg, d_s=spec.d_s)


def rho_ff_quadrature(decay: DecayOperator, traj: Trajectory) -> list[np.ndarray]:
    """Decay block by cumulative composite trapezoid over B rho_ss(t') B†.

    ``traj`` must hold the system-block trajectory on a uniform grid; the
    result starts from a zero decay block.
    """
    times = traj.times
    b = decay.matrix
    if times.size == 1:
        return [np.zeros((b.shape[0], b.shape[0]), dtype=np.complex128)]
    diffs = np.diff(times)
    h = float(diffs[0])
    if np.any(np.abs(diffs - h) > 1e-9 * h):
        raise GridError("time grid is not uniform")
    arr = np.stack([np.asarray(s, dtype=np.complex128) for s in traj.states])
    if arr.shape[1:] != (b.shape[1], b.shape[1]):
        raise DimensionError(
            f"system states have shape {arr.shape[1:]}, expected {(b.shape[1],) * 2}"
        )
    g = b[None, :, :] @ arr @ b.conj().T[None, :, :]
    cum = np.cumsum(g, axis=0)
    out = h * (cum - 0.5 * (g[0][None, :, :] + g))
    out[0] = 0.0
    return [out[k] for k in range(out.shape[0])]


def closed_form_1d(rate: float, t: float) -> BlockDensity:
    """Closed form of the single decay channel started in the unstable state:
    diag(exp(-rate*t), 1 - exp(-rate*t))."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if t < 0:
        raise ValueError("t must be non-negative")
    surv = float(np.exp(-rate * t))
    return BlockDensity(
        rho_ss=np.array([[surv]], dtype=np.complex128),
        rho_sf=np.zeros((1, 1), dtype=np.complex128),
        rho_fs=np.zeros((1, 1), dtype=np.complex128),
        rho_ff=np.array([[1.0 - surv]], dtype=np.complex128),
    )
