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

One engine evolves both spaces.  The enlarged space is evolved on its
block-diagonal invariant subspace (see :mod:`opendecay.model`): in the
coordinates (vec rho_ss, vec rho_ff) its generator is [[L_ss, 0], [L_fs, 0]],
where L_fs feeds rho_ff' = B rho_ss B† from the d_f x d_s decay block B, so a
step of length h is [[E, 0], [Phi, I]], with d_s^2 + d_f^2 coordinates
instead of d_tot^2.  The system space is the same engine with an empty decay
sector, d_f = 0, and its own L_ss, built from H - (i/2) Gamma without B, so
that the ``equivalence`` check still tests B†B = Gamma.  The ``rk4`` step has
E = P(h L_ss) and Phi = h L_fs (I + a/2 + a^2/6 + a^3/24) for a = h L_ss; the
``exact`` step takes E and Phi from one expm of [[h L_ss, 0], [h L_fs, 0]]
(Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).

For d_s <= SUPEROP_MAX_DIM the ``rk4`` method builds its step once and then
spends one real matvec per step; ``exact`` always does.  Larger system blocks
take the direct right-hand-side RK4, whose step costs O(d_s^3) instead of
O(d_s^4): it evolves rho_ss with the system-block equation and accumulates
rho_ff from the RK4 stages.  The crossover, measured per step for a d x d
state at one BLAS thread (2-core AMD EPYC, numpy 2.4.6, OpenBLAS 0.3.31)
with the Liouvillian assembly and the build of P included: at d = 16 the
stepper costs 37, 25 and 14 us over 500, 1000 and 5000 steps against
44-47 us direct; at d = 18 it costs 65 and 43 us over 500 and 1000 steps
against 50-52 us; at d = 20, 108 and 69 us against 53-57 us.  16 is the
largest size at which the stepper wins from 500 steps on.

A :class:`Trajectory` holds its states as one read-only (n, d, d) complex
array, the one the engine fills.
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
    decay_feed,
    feed_columns,
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
# of letting a tiny dt ask for unbounded work.
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


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: strictly increasing times and one state per time.

    ``states`` is stored as one read-only (n, d, d) complex array, so that
    code which writes into a sample fails instead of changing it.  ``d_s``
    is set for enlarged-space runs so samples can be addressed by block; it
    stays ``None`` for system-space-only runs.
    """

    times: np.ndarray
    states: np.ndarray
    d_s: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        # A view, so that an array the caller passed in stays writable.
        states = np.asarray(self.states, dtype=np.complex128).view()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise ValueError(f"states must be an (n, d, d) array, got shape {states.shape}")
        if len(states) != self.times.size:
            raise ValueError("states and times must have equal length")

    def __len__(self) -> int:
        return int(self.times.size)

    def blocks(self, i: int) -> BlockDensity:
        if self.d_s is None:
            raise DimensionError("trajectory has no block structure (d_s unset)")
        # The integrators store finite complex arrays; skip from_full's check.
        return BlockDensity._split(self.states[i], self.d_s)


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

    @property
    def n_samples(self) -> int:
        """The number of samples, ceil(n_steps / sample_stride) + 1."""
        return -(-self.n_steps // self.sample_stride) + 1

    def sampled_steps(self) -> np.ndarray:
        return np.minimum(np.arange(self.n_samples) * self.sample_stride, self.n_steps)


def rhs_wwa(rho, spec: SystemSpec) -> np.ndarray:
    """Derivative of the system-space density matrix: non-hermitian effective
    Hamiltonian plus the Lindblad dissipator."""
    return spec.equation.rhs(rho)


def rhs_enlarged(rho, model: EnlargedModel) -> np.ndarray:
    """Derivative on the enlarged space: hermitian Hamiltonian commutator plus
    the dissipator over the embedded Lindblad operators and the decay
    operator.  Trace-free by construction."""
    return model.equation.rhs(rho)


def _check_grid(cfg: IntegratorConfig) -> None:
    # Called by each public integrator itself, so that stacklevel 3 names
    # that integrator's caller.
    n = cfg.n_steps
    if abs(n * cfg.dt - cfg.t_max) > 1e-9 * max(1.0, cfg.t_max):
        warnings.warn(
            f"t_max={cfg.t_max!r} is not an integer multiple of dt={cfg.dt!r}; "
            f"integrating to {n * cfg.dt!r}",
            stacklevel=3,
        )


def _sample(advance, x0, cfg: IntegratorConfig, keep) -> np.ndarray:
    """The sampling loop shared by every integrator; returns the sample times.

    ``advance(x)`` moves the state ``x`` one ``dt`` forward and re-symmetrizes
    it, returning the new state and the hermiticity drift ||rho - rho†||_F it
    had before symmetrization; a drift above HERMITICITY_DRIFT_TOL aborts the
    run.  ``keep(i, x)`` stores ``x`` as sample i of ``cfg.n_samples``, into
    an array the caller allocated, so that a run holds no object per sample.
    """
    n, stride = cfg.n_steps, cfg.sample_stride
    x = x0
    keep(0, x)
    wi = 1
    for k in range(1, n + 1):
        x, drift = advance(x)
        if not drift <= HERMITICITY_DRIFT_TOL:  # a NaN drift fails too
            raise NumericsError(
                f"hermiticity drift {drift:.3e} at step {k} exceeds {HERMITICITY_DRIFT_TOL:g}"
            )
        if k % stride == 0 or k == n:
            keep(wi, x)
            wi += 1
    return cfg.sampled_steps() * cfg.dt


def _rk4_stages(rhs, rho, dt: float):
    k1 = rhs(rho)
    k2 = rhs(rho + (0.5 * dt) * k1)
    k3 = rhs(rho + (0.5 * dt) * k2)
    k4 = rhs(rho + dt * k3)
    return k1, k2, k3, k4


def _symmetrized(rho):
    rho_dag = rho.conj().T
    return 0.5 * (rho + rho_dag), float(np.linalg.norm(rho - rho_dag))


def integrate_rk4(rhs, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta of any right-hand side.

    The state is re-symmetrized after every step; the pre-symmetrization
    hermiticity drift is monitored and a :class:`NumericsError` is raised if
    it ever exceeds HERMITICITY_DRIFT_TOL.  No run path uses it: it is the
    oracle that the engine is tested against.
    """
    _check_grid(cfg)
    dt = cfg.dt

    def advance(rho):
        k1, k2, k3, k4 = _rk4_stages(rhs, rho, dt)
        return _symmetrized(rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))

    rho = as_matrix(rho0)
    states = np.empty((cfg.n_samples,) + rho.shape, dtype=np.complex128)
    times = _sample(advance, rho, cfg, states.__setitem__)
    return Trajectory(times=times, states=states)


def propagate_exact(liouv: Liouvillian, rho0, t: float) -> np.ndarray:
    """Exact propagation: unvec(expm(L t) @ vec(rho0))."""
    if t < 0:
        raise ValueError("t must be non-negative")
    rho = as_matrix(rho0)
    if rho.shape != (liouv.dim, liouv.dim):
        raise DimensionError(f"state has shape {rho.shape}, expected {(liouv.dim,) * 2}")
    return unvec(expm(liouv.matrix * t) @ vec(rho), liouv.dim)


def _evolve_steps(q: list, h0, dims: tuple[int, int], cfg: IntegratorConfig):
    """Sample h <- [[Q_ss, 0], [Q_fs, I]] h from h0, for the step blocks
    ``q`` = [Q_ss, Q_fs] in the coordinates of :class:`HermitianBasis`, of
    dimensions ``dims`` = (d, d_f); Q_fs has no rows when d_f is 0.  ``q``
    is emptied once the step matrix is built.  Returns the sample times and
    states.

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

    hs = np.empty((cfg.n_samples, n))
    times = _sample(advance, h0, cfg, hs.__setitem__)
    states = np.zeros((hs.shape[0], d + d_f, d + d_f), dtype=np.complex128)
    states[:, :d, :d] = basis_ss.matrices(hs[:, :n_s])
    if d_f:
        states[:, d:, d:] = basis_ff.matrices(hs[:, n_s:])
    return times, states


def _split_initial(rho0, d_s: int, d_f: int) -> tuple[np.ndarray, np.ndarray]:
    # The engine evolves the block-diagonal subspace, so the initial state
    # must lie in it; with d_f = 0 that is the whole system space.
    d = d_s + d_f
    rho = as_matrix(rho0)
    if rho.shape != (d, d):
        raise DimensionError(f"state has shape {rho.shape}, expected {(d, d)}")
    drift = float(np.linalg.norm(rho - rho.conj().T))
    if drift > HERMITICITY_DRIFT_TOL:
        raise NumericsError(
            f"initial state deviates from hermiticity by {drift:.3e} "
            f"(allowed {HERMITICITY_DRIFT_TOL:g})"
        )
    for name, block in (("sf", rho[:d_s, d_s:]), ("fs", rho[d_s:, :d_s])):
        if np.any(block):
            raise ConstraintError(
                f"initial state has a nonzero {name} block; the enlarged space is "
                "evolved on its block-diagonal subspace only"
            )
    return rho[:d_s, :d_s], rho[d_s:, d_s:]


def _step_blocks(l_ss: np.ndarray, b: np.ndarray, h: float, route: str) -> list[np.ndarray]:
    """[Q_ss, Q_fs]: the blocks of one step [[E, 0], [Phi, I]] of length h
    on (vec rho_ss, vec rho_ff), for the system-block Liouvillian ``l_ss``
    and the decay block ``b``, in the coordinates of :class:`HermitianBasis`.

    ``rk4``: E = P(a), Phi = h L_fs (I + a/2 + a^2/6 + a^3/24), a = h L_ss.
    ``exact``: both from expm([[a, 0], [h L_fs, 0]]).  ``nonsingular``:
    E = expm(a) and Phi = L_fs L_ss^-1 (E - I), by a solve; exact when L_ss
    is invertible, at half the size of the augmented expm.  Its E and the
    solve are taken in real arithmetic, on the real form of L_ss.
    """
    d_f, d_s = b.shape
    basis_s, basis_f = HermitianBasis(d_s), HermitianBasis(d_f)
    n_s = l_ss.shape[0]
    if route == "nonsingular":
        gen = basis_s.real_form(l_ss)
        q_ss = expm(gen * h)
        try:
            y = np.linalg.solve(gen, q_ss - np.eye(n_s))  # U^-1 L_ss^-1 (E - I) U
        except np.linalg.LinAlgError as e:
            raise NumericsError(f"the system-block Liouvillian is singular: {e}") from e
        return [q_ss, basis_f.left_inverse(feed_columns(b, basis_s.left(y)))]
    a = l_ss * h
    if route == "rk4":
        # E = I + a + a^2/2 + a^3/6 + a^4/24 in Horner form: for the linear
        # autonomous equation dx/dt = L x with a = dt L, one classical RK4
        # step is exactly this matrix.  phi ends as its inner factor.
        eye = np.eye(n_s, dtype=np.complex128)
        phi = eye + a / 4.0
        phi = eye + (a @ phi) / 3.0
        phi = eye + (a @ phi) / 2.0
        e = eye + a @ phi
        del a, eye
        phi = feed_columns(b, phi)
        phi *= h
    else:
        n = n_s + d_f * d_f
        aug = np.zeros((n, n), dtype=np.complex128)
        aug[:n_s, :n_s] = a
        aug[n_s:, :n_s] = feed_columns(b, np.eye(n_s)) * h
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


def _evolve(equation, liouvillian, b: np.ndarray, x0, cfg: IntegratorConfig, route: str):
    """The one engine: evolve the block-diagonal state ``x0`` = (rho_ss,
    rho_ff) under the system-block ``equation``, with rho_ff' = B rho_ss B†
    for the d_f x d_s decay block ``b``; d_f = 0 is the system space.

    ``rk4`` above SUPEROP_MAX_DIM runs the direct RK4: rho_ss by the
    equation, and rho_ff by B (h rho_ss + (h^2/6)(k1 + k2 + k3)) B†, as the
    stages of rho_ff' are B s_i B† for the stages s_i of rho_ss.  The other
    routes run the stepper (:func:`_step_blocks`) on L_ss = ``liouvillian()``.
    """
    d_f, d = b.shape
    dt = cfg.dt
    if route == "rk4" and d > SUPEROP_MAX_DIM:
        rhs = equation.rhs

        def advance(x):
            r, f = x
            k1, k2, k3, k4 = _rk4_stages(rhs, r, dt)
            r_next, drift = _symmetrized(r + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
            if d_f:  # an empty decay sector costs no work
                fed = decay_feed(b, dt * r + (dt * dt / 6.0) * (k1 + k2 + k3))
                f, drift_ff = _symmetrized(f + fed)
                drift = math.hypot(drift, drift_ff)
            return (r_next, f), drift

        states = np.zeros((cfg.n_samples, d + d_f, d + d_f), dtype=np.complex128)

        def keep(i, x):
            states[i, :d, :d], states[i, d:, d:] = x

        times = _sample(advance, x0, cfg, keep)
    else:
        h0 = np.concatenate((HermitianBasis(d).coords(x0[0]), HermitianBasis(d_f).coords(x0[1])))
        q = _step_blocks(liouvillian().matrix, b, dt, route)
        times, states = _evolve_steps(q, h0, (d, d_f), cfg)
    return Trajectory(times=times, states=states, d_s=d if d_f else None)


def _evolve_model(model: EnlargedModel, rho0, cfg: IntegratorConfig, route: str) -> Trajectory:
    # The initial state is checked before any operator of the run is built.
    x0 = _split_initial(rho0, model.d_s, model.d_f)
    b = model.decay_op[model.d_s :, : model.d_s]
    return _evolve(model.system_equation, lambda: model.system_liouvillian, b, x0, cfg, route)


def evolve_wwa(spec: SystemSpec, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the system-space master equation with the configured method:
    the engine with an empty decay sector."""
    _check_grid(cfg)
    x0 = _split_initial(rho0, spec.d_s, 0)
    b = np.zeros((0, spec.d_s), dtype=np.complex128)
    return _evolve(spec.equation, lambda: assemble_liouvillian_wwa(spec), b, x0, cfg, cfg.method)


def evolve_enlarged(model: EnlargedModel, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the enlarged-space master equation with the configured method.

    ``rho0`` must be block-diagonal: a nonzero sf or fs block raises
    :class:`ConstraintError` before any work.  The trajectory holds the full
    d_tot x d_tot states, with zero sf and fs blocks.
    """
    _check_grid(cfg)
    return _evolve_model(model, rho0, cfg, cfg.method)


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
    return _evolve_model(model, rho0, cfg, "nonsingular")


def rho_ff_quadrature(decay: DecayOperator, traj: Trajectory) -> np.ndarray:
    """Decay block by cumulative composite trapezoid over B rho_ss(t') B†.

    ``traj`` must hold the system-block trajectory on a uniform grid; the
    result, one d_f x d_f block per sample, starts from a zero decay block.
    """
    times = traj.times
    b = decay.matrix
    if times.size == 1:
        return np.zeros((1, b.shape[0], b.shape[0]), dtype=np.complex128)
    diffs = np.diff(times)
    h = float(diffs[0])
    if np.any(np.abs(diffs - h) > 1e-9 * h):
        raise GridError("time grid is not uniform")
    if traj.states.shape[1:] != (b.shape[1], b.shape[1]):
        raise DimensionError(
            f"system states have shape {traj.states.shape[1:]}, expected {(b.shape[1],) * 2}"
        )
    g = decay_feed(b, traj.states)
    cum = np.cumsum(g, axis=0)
    out = h * (cum - 0.5 * (g[0][None, :, :] + g))
    out[0] = 0.0
    return out


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
