"""Time evolution of density matrices.

Provides the right-hand sides of the system-space master equation (with the
non-hermitian effective Hamiltonian) and of the trace-preserving
enlarged-space equation; a fixed-step RK4 integrator; the exact
superoperator-exponential propagator used as an oracle; the cumulative
quadrature for the decay block; and the closed form of the single-channel
decay.

Both master equations are linear and autonomous, d vec(rho)/dt = L vec(rho),
so one classical RK4 step is exactly the matrix polynomial
P(dt L) = I + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24.

The enlarged space is evolved on its block-diagonal invariant subspace (see
:mod:`opendecay.model`): in the coordinates (vec rho_ss, vec rho_ff) its
generator is [[L_ss, 0], [L_fs, 0]], so a step of length h is
[[E, 0], [Phi, I]], with d_s^2 + d_f^2 coordinates instead of d_tot^2.  The
``rk4`` step has E = P(h L_ss) and Phi = h L_fs (I + a/2 + a^2/6 + a^3/24)
for a = h L_ss; the ``exact`` step takes E and Phi from one expm of
[[h L_ss, 0], [h L_fs, 0]] (Van Loan, IEEE Trans. Autom. Control 23, 395
(1978)).

For d_s <= SUPEROP_MAX_DIM, on either space, the ``rk4`` method builds its
step once and then spends one real matvec per step; ``exact`` always does.
Larger system blocks take the direct right-hand-side RK4, whose step costs
O(d_s^3) instead of O(d_s^4); on the enlarged space it evolves rho_ss with
the system-block equation and accumulates rho_ff from the RK4 stages.  The
crossover, measured per step for a d x d state at one BLAS thread (2-core AMD
EPYC, numpy 2.4.6, OpenBLAS 0.3.31) with the Liouvillian assembly and the
build of P included: at d = 16 the stepper costs 37, 25 and 14 us over 500,
1000 and 5000 steps against 44-47 us direct; at d = 18 it costs 65 and 43 us
over 500 and 1000 steps against 50-52 us; at d = 20, 108 and 69 us against
53-57 us.  16 is the largest size at which the stepper wins from 500 steps
on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DimensionError, GridError, NumericsError
from .linalg import HermitianBasis, as_matrix, expm, unvec, vec
from .model import (
    DecayOperator,
    EnlargedModel,
    Liouvillian,
    SystemSpec,
    assemble_liouvillian_wwa,
)

# Allowed per-step hermiticity drift before the integrator aborts.
HERMITICITY_DRIFT_TOL = 1e-9
# Largest system dimension d_s for which RK4 runs as one precomputed step
# matrix; the module docstring gives the measured crossover.
SUPEROP_MAX_DIM = 16
# Largest d_s at which the enlarged stepper's matvec carries the zero and
# identity blocks along, because one matvec costs less than the numpy calls
# that skip them (see _evolve_steps).  Measured over 500 rk4 steps, build
# included, carried against skipped: 3.3 against 4.6 ms at d_s = 4, 4.5
# against 5.0 ms at 6, 7.1 against 7.0 ms at 8, 33 against 19 ms at 12.
FOLD_MAX_DIM = 6
# Largest step count t_max/dt an IntegratorConfig accepts.  A step costs
# ~1 us (stepper, small d) to ~0.3 ms (direct RK4 on the enlarged space at
# d_s = 30), so this caps one evolution at seconds to about an hour instead
# of letting a tiny dt ask for unbounded work and a sample list of unbounded
# length.
MAX_STEPS = 10**7

__all__ = [
    "BlockDensity",
    "IntegratorConfig",
    "Trajectory",
    "closed_form_1d",
    "evolve_enlarged",
    "evolve_wwa",
    "integrate_rk4",
    "propagate_exact",
    "propagate_nonsingular",
    "rho_ff_quadrature",
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
        return cls._split(as_matrix(rho), d_s)

    @classmethod
    def _split(cls, a: np.ndarray, d_s: int) -> "BlockDensity":
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < d_s:
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
        # The integrators store finite complex arrays; skip from_full's check.
        return BlockDensity._split(np.asarray(self.states[i]), self.d_s)


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


def _check_grid(cfg: IntegratorConfig) -> int:
    n = cfg.n_steps
    if abs(n * cfg.dt - cfg.t_max) > 1e-9 * max(1.0, cfg.t_max):
        warnings.warn(
            f"t_max={cfg.t_max!r} is not an integer multiple of dt={cfg.dt!r}; "
            f"integrating to {n * cfg.dt!r}",
            stacklevel=4,
        )
    return n


def _sample(advance, x0, cfg: IntegratorConfig, drift_tol, keep) -> np.ndarray:
    """The sampling loop shared by every integrator; returns the sample times.

    ``advance(x)`` moves the state ``x`` one ``dt`` forward and re-symmetrizes
    it, returning the new state and the hermiticity drift ||rho - rho†||_F it
    had before symmetrization; a drift above ``drift_tol`` aborts the run.
    ``keep(i, x)`` stores ``x`` as sample i of ``len(cfg.sampled_steps())``,
    into an array the caller allocated, so that a run holds no object per
    sample.
    """
    n = _check_grid(cfg)
    dt = cfg.dt
    wanted = cfg.sampled_steps()
    x = x0
    keep(0, x)
    wi = 1  # wanted[0] == 0 always
    for k in range(1, n + 1):
        x, drift = advance(x)
        if not drift <= drift_tol:  # a NaN drift fails too
            raise NumericsError(
                f"hermiticity drift {drift:.3e} at step {k} exceeds {drift_tol:g}"
            )
        if wi < len(wanted) and wanted[wi] == k:
            keep(wi, x)
            wi += 1
    return np.array(wanted) * dt


def _rk4_stages(rhs, rho, dt: float):
    k1 = rhs(rho)
    k2 = rhs(rho + (0.5 * dt) * k1)
    k3 = rhs(rho + (0.5 * dt) * k2)
    k4 = rhs(rho + dt * k3)
    return k1, k2, k3, k4


def _symmetrized(rho):
    rho_dag = rho.conj().T
    return 0.5 * (rho + rho_dag), float(np.linalg.norm(rho - rho_dag))


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
        k1, k2, k3, k4 = _rk4_stages(rhs, rho, dt)
        return _symmetrized(rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))

    rho = as_matrix(rho0)
    states = np.empty((len(cfg.sampled_steps()),) + rho.shape, dtype=np.complex128)
    times = _sample(advance, rho, cfg, drift_tol, states.__setitem__)
    return Trajectory(times=times, states=tuple(states), d_s=d_s)


def propagate_exact(liouv: Liouvillian, rho0, t: float) -> np.ndarray:
    """Exact propagation: unvec(expm(L t) @ vec(rho0))."""
    if t < 0:
        raise ValueError("t must be non-negative")
    rho = as_matrix(rho0)
    if rho.shape != (liouv.dim, liouv.dim):
        raise DimensionError(f"state has shape {rho.shape}, expected {(liouv.dim,) * 2}")
    return unvec(expm(liouv.matrix * t) @ vec(rho), liouv.dim)


def _rk4_polynomial(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # I + a + a^2/2 + a^3/6 + a^4/24 in Horner form: for the linear
    # autonomous equation dx/dt = L x with a = dt L, one classical RK4 step
    # is exactly this matrix.  Also returns its inner factor
    # I + a/2 + a^2/6 + a^3/24, which a fed block integrates with.
    eye = np.eye(a.shape[0], dtype=np.complex128)
    p = eye + a / 4.0
    p = eye + (a @ p) / 3.0
    p = eye + (a @ p) / 2.0
    return eye + a @ p, p


def _evolve_steps(
    q: list, h0, dims: tuple[int, int], cfg: IntegratorConfig, d_s=None
) -> Trajectory:
    """Sample h <- [[Q_ss, 0], [Q_fs, I]] h from h0, for the step blocks
    ``q`` = [Q_ss] or [Q_ss, Q_fs] in the coordinates of
    :class:`HermitianBasis`, of dimensions ``dims`` = (d, d_f); d_f is 0
    without a fed block.  ``q`` is emptied once the step matrix is built.

    The state is held as its real coordinates h.  With Q = U^-1 step U for
    the basis U, one step maps h to Q h: Re(Q) h is the re-symmetrized next
    state and Im(Q) h, scaled by the column norms w of U, has norm
    ||rho - rho†||_F / 2 over both blocks.  So each step is one matvec with
    the stacked real matrix [Re Q; w Im Q].  While d is small the identity
    block rides along in that matrix, so that a step costs one matvec and
    one norm in Python; above FOLD_MAX_DIM the matvec skips the zero and
    identity blocks and the fed block is added on.
    """
    d, d_f = dims
    n_s, n = d * d, d * d + d_f * d_f
    basis_ss, basis_ff = HermitianBasis(d), HermitianBasis(d_f)
    w = np.sqrt(np.concatenate((basis_ss.norms_sq, basis_ff.norms_sq)))
    cols = np.empty((2 * n, n_s))
    np.concatenate([block.real for block in q], out=cols[:n])
    np.concatenate([block.imag for block in q], out=cols[n:])
    cols[n:] *= w[:, None]
    q.clear()  # free the blocks

    if d_f and d > FOLD_MAX_DIM:

        def advance(h):
            y = cols @ h[:n_s]
            y[n_s:n] += h[n_s:]
            anti = y[n:]
            return y[:n], 2.0 * math.sqrt(anti @ anti)

    else:
        stacked = cols
        if d_f:
            stacked = np.zeros((2 * n, n))
            stacked[:, :n_s] = cols
            stacked[n_s:n, n_s:] = np.eye(n - n_s)

        def advance(h):
            y = stacked @ h
            anti = y[n:]
            return y[:n], 2.0 * math.sqrt(anti @ anti)

    hs = np.empty((len(cfg.sampled_steps()), n))
    times = _sample(advance, h0, cfg, HERMITICITY_DRIFT_TOL, hs.__setitem__)
    states = np.zeros((hs.shape[0], d + d_f, d + d_f), dtype=np.complex128)
    states[:, :d, :d] = basis_ss.matrices(hs[:, :n_s])
    if d_f:
        states[:, d:, d:] = basis_ff.matrices(hs[:, n_s:])
    return Trajectory(times=times, states=tuple(states), d_s=d_s)


def _require_hermitian_start(rho: np.ndarray) -> None:
    drift = float(np.linalg.norm(rho - rho.conj().T))
    if drift > HERMITICITY_DRIFT_TOL:
        raise NumericsError(
            f"initial state deviates from hermiticity by {drift:.3e} "
            f"(allowed {HERMITICITY_DRIFT_TOL:g})"
        )


def _evolve_linear(liouv: Liouvillian, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve d vec(rho)/dt = L vec(rho) with one precomputed step matrix:
    expm(L dt) for the exact method, the RK4 polynomial of L dt otherwise."""
    d = liouv.dim
    rho = as_matrix(rho0)
    if rho.shape != (d, d):
        raise DimensionError(f"state has shape {rho.shape}, expected {(d, d)}")
    _require_hermitian_start(rho)
    a = liouv.matrix * cfg.dt
    step = expm(a) if cfg.method == "exact" else _rk4_polynomial(a)[0]
    del a
    basis = HermitianBasis(d)
    q = [basis.left_inverse(basis.right(step))]
    del step
    return _evolve_steps(q, basis.coords(rho), (d, 0), cfg)


def _split_initial(model: EnlargedModel, rho0) -> tuple[np.ndarray, np.ndarray]:
    # The enlarged space is evolved on its block-diagonal subspace, so the
    # initial state must lie in it.
    d, d_tot = model.d_s, model.d_tot
    rho = as_matrix(rho0)
    if rho.shape != (d_tot, d_tot):
        raise DimensionError(f"state has shape {rho.shape}, expected {(d_tot, d_tot)}")
    _require_hermitian_start(rho)
    for name, block in (("sf", rho[:d, d:]), ("fs", rho[d:, :d])):
        if np.any(block):
            raise ConstraintError(
                f"initial state has a nonzero {name} block; the enlarged space is "
                "evolved on its block-diagonal subspace only"
            )
    return rho[:d, :d], rho[d:, d:]


def _subspace_step(model: EnlargedModel, h: float, route: str) -> list[np.ndarray]:
    """[Q_ss, Q_fs]: the blocks of one step [[E, 0], [Phi, I]] of length h
    on (vec rho_ss, vec rho_ff), built from the enlarged operators and
    given in the coordinates of :class:`HermitianBasis`.

    ``rk4``: E = P(a), Phi = h L_fs (I + a/2 + a^2/6 + a^3/24), a = h L_ss.
    ``exact``: both from expm([[a, 0], [h L_fs, 0]]).  ``nonsingular``:
    E = expm(a) and Phi = L_fs L_ss^-1 (E - I), by a solve; exact when L_ss
    is invertible, at half the size of the augmented expm.  Its E and the
    solve are taken in real arithmetic, on the real form of L_ss.
    """
    d_s, d_f = model.d_s, model.d_f
    basis_s, basis_f = HermitianBasis(d_s), HermitianBasis(d_f)
    l_ss = model.system_liouvillian.matrix
    n_s = l_ss.shape[0]
    if route == "nonsingular":
        gen = basis_s.real_form(l_ss)
        q_ss = expm(gen * h)
        try:
            y = np.linalg.solve(gen, q_ss - np.eye(n_s))  # U^-1 L_ss^-1 (E - I) U
        except np.linalg.LinAlgError as e:
            raise NumericsError(f"the system-block Liouvillian is singular: {e}") from e
        return [q_ss, basis_f.left_inverse(model.feed(basis_s.left(y)))]
    a = l_ss * h
    if route == "rk4":
        e, phi = _rk4_polynomial(a)
        del a
        phi = model.feed(phi)
        phi *= h
    else:
        n = n_s + d_f * d_f
        aug = np.zeros((n, n), dtype=np.complex128)
        aug[:n_s, :n_s] = a
        aug[n_s:, :n_s] = model.feed(np.eye(n_s)) * h
        del a
        step = expm(aug)
        e, phi = step[:n_s, :n_s], step[n_s:, :n_s]
    # One side of one block at a time, each replacing its input, so that the
    # build holds few d_s^2 x d_s^2 arrays at once.
    e = basis_s.right(e)
    e = basis_s.left_inverse(e)
    phi = basis_s.right(phi)
    phi = basis_f.left_inverse(phi)
    return [e, phi]


def _evolve_subspace(model: EnlargedModel, rho0, cfg: IntegratorConfig, route: str) -> Trajectory:
    rho_ss, rho_ff = _split_initial(model, rho0)
    d_s, d_f = model.d_s, model.d_f
    h0 = np.concatenate(
        (HermitianBasis(d_s).coords(rho_ss), HermitianBasis(d_f).coords(rho_ff))
    )
    return _evolve_steps(_subspace_step(model, cfg.dt, route), h0, (d_s, d_f), cfg, d_s=d_s)


def _evolve_blocks_rk4(model: EnlargedModel, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Direct RK4 on the subspace: rho_ss with the system-block equation,
    rho_ff accumulated from the RK4 stages.  The stages of rho_ff' =
    B rho_ss B† are B s_i B† for the stage states s_i of rho_ss, so its RK4
    increment is B (h rho_ss + (h^2/6)(k1 + k2 + k3)) B†."""
    rho_ss, rho_ff = _split_initial(model, rho0)
    rhs = model.system_equation.rhs
    d_s, d_f = model.d_s, model.d_f
    b = model.decay_op[d_s:, :d_s]
    b_dag = b.conj().T
    dt = cfg.dt

    def advance(x):
        r, f = x
        k1, k2, k3, k4 = _rk4_stages(rhs, r, dt)
        f = f + b @ (dt * r + (dt * dt / 6.0) * (k1 + k2 + k3)) @ b_dag
        r, drift_ss = _symmetrized(r + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        f, drift_ff = _symmetrized(f)
        return (r, f), math.hypot(drift_ss, drift_ff)

    states = np.zeros((len(cfg.sampled_steps()), d_s + d_f, d_s + d_f), dtype=np.complex128)

    def keep(i, x):
        states[i, :d_s, :d_s], states[i, d_s:, d_s:] = x

    times = _sample(advance, (rho_ss, rho_ff), cfg, HERMITICITY_DRIFT_TOL, keep)
    return Trajectory(times=times, states=tuple(states), d_s=d_s)


def evolve_wwa(spec: SystemSpec, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the system-space master equation with the configured method."""
    if cfg.method == "exact" or spec.d_s <= SUPEROP_MAX_DIM:
        return _evolve_linear(assemble_liouvillian_wwa(spec), rho0, cfg)
    return integrate_rk4(lambda r: rhs_wwa(r, spec), rho0, cfg)


def evolve_enlarged(model: EnlargedModel, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the enlarged-space master equation with the configured method.

    ``rho0`` must be block-diagonal: a nonzero sf or fs block raises
    :class:`ConstraintError` before any work.  The trajectory holds the full
    d_tot x d_tot states, with zero sf and fs blocks.
    """
    if cfg.method == "exact" or model.d_s <= SUPEROP_MAX_DIM:
        return _evolve_subspace(model, rho0, cfg, cfg.method)
    return _evolve_blocks_rk4(model, rho0, cfg)


def propagate_nonsingular(model: EnlargedModel, rho0, t_max: float, n_steps: int) -> Trajectory:
    """Exact propagation of a block-diagonal ``rho0`` on the enlarged space,
    sampled at k t_max / n_steps for k = 0..n_steps.

    For a model whose system block decays completely, so that L_ss is
    invertible (a non-singular decay matrix): the fed block of each step
    comes from a solve with L_ss instead of the augmented expm of the
    ``exact`` method, which is twice its size.  The asymptotics check runs on
    it.
    """
    cfg = IntegratorConfig(dt=t_max / n_steps, t_max=t_max)
    return _evolve_subspace(model, rho0, cfg, "nonsingular")


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
