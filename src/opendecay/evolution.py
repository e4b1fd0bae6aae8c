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
instead of d_tot^2.  Every run starts from diag(rho_ss, 0), the paper's
state with no decay products yet, so the engine and its entry points take
only the d_s x d_s system block.  The system space is the same engine with
an empty decay sector, d_f = 0, and its own L_ss, built from H - (i/2) Gamma
without B, so that the ``equivalence`` check still tests B†B = Gamma.  The ``rk4`` step has
E = P(h L_ss) and Phi = h L_fs (I + a/2 + a^2/6 + a^3/24) for a = h L_ss; the
``exact`` step takes E and Phi from one expm of [[h L_ss, 0], [h L_fs, 0]]
(Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).

For d_s <= SUPEROP_MAX_DIM the ``rk4`` method builds its step once and then
advances a block of steps per real matvec; ``exact`` always does.  In the
real coordinates (s, f) of :class:`HermitianBasis` a step is h <- Q h, and
its real part [[E, 0], [Phi, I]] is the re-symmetrized next state, so j steps
from (s, f) reach (E^j s, f + Phi (I + E + ... + E^(j-1)) s).  One matrix that
stacks these rows for j = 1..B, built once with the powers by doubling, gives
B states from one matvec.  The hermiticity drift of step j is 2 ||w Im Q
E^(j-1) s|| for the column norms w of the basis; with R the triangular factor
of the QR decomposition of w Im Q, ||w Im Q x|| = ||R x|| for every x, so B
more blocks of d_s^2 rows, R E^(j-1), after all the state rows give every
drift of the block as one contiguous slice, unchanged in exact arithmetic
(the system space, whose w Im Q is square already, takes it as R).
One dot product clears a block; only a block that fails it is replayed step
by step, to name the step that fails.

B is as many steps as fit in BLOCK_BYTES, and at least one.  Measured on the
evolutions of the shipped scenarios, both spaces with ``rk4``, at one BLAS
thread (2-core Intel Xeon, 48 KiB L1d and 2 MiB L2 per core, numpy 2.4.6,
OpenBLAS 0.3.31), best of 5 to 15 on a shared host: single-decay,
two-level-decay and random take 92, 103 and 51 ms at one step per matvec;
3.6, 18 and 9.9 ms
at 4 KiB; 1.4, 6.9 and 3.8 ms at 16 KiB; 1.3-2.0, 2.8-4.7 and 2.0-3.3 ms at
64 KiB; and no less at 256 KiB (1.5-2.7, 2.2-4.0 and 1.7-2.8 ms) or 1 MiB.
64 KiB is the smallest of these sizes at which all three reach that floor,
where the Python cost per block is a small share.  Larger blocks still help
at d_s 4 to 8 (d_s = 6, 1000 steps: 9.2-14 ms at 64 KiB, 4.8-7.4 ms at
256 KiB), where a 64 KiB block of the enlarged space holds 10, 2 and 1
steps at d_s = d_f = 4, 6 and 8.  From d_s = 8 on one step fills the block,
so the matrix is the step itself, with d_s^2 drift rows.

Larger system blocks take the direct right-hand-side RK4, whose step costs
O(d_s^3) instead of O(d_s^4): it evolves rho_ss with the system-block
equation and accumulates rho_ff from the RK4 stages.  The crossover, measured
per step for a d x d system-space state on the same host, with the
Liouvillian assembly and the build of the step included: at d = 16 the
stepper costs 63, 53 and 32 us over 500, 1000 and 5000 steps against 85-116
us direct; at d = 18, 106, 71 and 57 us against 85-106 us; at d = 20, 223,
179 and 133 us against 130-146 us.  16 is the largest size at which the
stepper wins from 500 steps on.

A :class:`Trajectory` holds the read-only (n, d, d) complex arrays the engine
fills; for an enlarged-space run, its system and decay blocks.  It caches
the per-sample numbers that the CSV table and the checks read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, GridError, NumericsError
from .linalg import HermitianBasis, as_matrix, expm, require_hermitian, unvec, vec
from .model import (
    DEFAULT_HERMITICITY_TOL,
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
# Size of the stepper's block matrix, which advances as many steps per
# matvec as fit in it; the module docstring gives the measurements.
BLOCK_BYTES = 64 * 1024
# Largest step count t_max/dt an IntegratorConfig accepts.  A step costs
# ~0.1-0.3 us (stepper in blocks, d_s <= 2) to ~0.3 ms (direct RK4 on the
# enlarged space at d_s = 30), so this caps one evolution at about a second
# to about an hour instead of letting a tiny dt ask for unbounded work.
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _read_only_stack(a, name: str, times: np.ndarray) -> np.ndarray:
    # A view, so that an array the caller passed in stays writable.
    a = _read_only(np.asarray(a, dtype=np.complex128).view())
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"{name} must be an (n, d, d) array, got shape {a.shape}")
    if len(a) != times.size:
        raise ValueError(f"{name} and times must have equal length")
    return a


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: strictly increasing times and one state per time.

    ``states`` is stored as one read-only (n, d, d) complex array, so that
    code which writes into a sample fails instead of changing it.  An
    enlarged-space run holds its block-diagonal states as the (n, d_s, d_s)
    system blocks in ``states`` and the (n, d_f, d_f) decay blocks, read-only
    too, in ``decay``; any other trajectory has ``decay = None``.  The
    per-sample numbers below are computed on first use and cached, read-only.
    """

    times: np.ndarray
    states: np.ndarray
    decay: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "states", _read_only_stack(self.states, "states", self.times))
        if self.decay is not None:
            object.__setattr__(self, "decay", _read_only_stack(self.decay, "decay", self.times))

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The diagonal blocks: ``(states,)``, or ``(states, decay)``."""
        return (self.states,) if self.decay is None else (self.states, self.decay)

    @cached_property
    def traces(self) -> np.ndarray:
        """The real trace of each block of each sample, one row per block."""
        return _read_only(np.array([np.trace(b, axis1=1, axis2=2).real for b in self.blocks]))

    @cached_property
    def purity(self) -> np.ndarray:
        """Tr(rho^2) of each sample, the sum of its blocks' purities."""
        return _read_only(np.sum([np.einsum("nij,nji->n", b, b).real for b in self.blocks], axis=0))

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        """The smallest eigenvalue of each sample, from the union of its
        blocks' spectra (NaN stays NaN), after the hermiticity gate: a sample
        that fails :func:`require_hermitian` raises, and nothing is cached."""
        sym = [require_hermitian(b, DEFAULT_HERMITICITY_TOL, "sample") for b in self.blocks]
        return _read_only(np.min([np.linalg.eigvalsh(b)[:, 0] for b in sym], axis=0))


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


def _sample(advance, x0, cfg: IntegratorConfig, outs: tuple, block: int = 1) -> np.ndarray:
    """The sampling loop shared by every integrator; returns the sample times.

    ``advance(x, r)`` moves the state ``x`` forward by ``r`` <= ``block``
    steps of ``dt``, re-symmetrizing after each, and returns ``(x_next,
    rows, defect)``: the state after the last step; one array per array of
    ``outs``, whose row j < r is the state after step j + 1; and a flat real
    array of r equal parts, part j holding the hermiticity defect (rho -
    rho†)/2 that step j + 1 left before symmetrization, or numbers of the
    same norm.  Samples are copied from ``rows`` into ``outs``, except
    sample 0, ``x0``, which the caller stores.

    A drift ||rho - rho†||_F above HERMITICITY_DRIFT_TOL aborts the run.  One
    dot product clears a whole block.  Only when it fails is the block
    replayed one step at a time from ``x``, so that the error names the step
    and the drift that a one-step loop would.
    """
    n, stride = cfg.n_steps, cfg.sample_stride
    steps = cfg.sampled_steps()
    limit = (0.5 * HERMITICITY_DRIFT_TOL) ** 2
    x, k, i = x0, 0, 1
    while k < n:
        r = min(block, n - k)
        x_next, rows, defect = advance(x, r)
        if not defect @ defect <= limit:  # a NaN fails too
            y = x
            for j in range(k + 1, k + r + 1):
                y, _, one = advance(y, 1)
                drift = 2.0 * math.sqrt(one @ one)
                if not drift <= HERMITICITY_DRIFT_TOL:
                    raise NumericsError(
                        f"hermiticity drift {drift:.3e} at step {j} exceeds "
                        f"{HERMITICITY_DRIFT_TOL:g}"
                    )
        k += r
        hi = k // stride + 1 if k < n else steps.size  # samples at steps <= k
        if hi > i:
            at = steps[i:hi] - (k - r + 1)
            for out, a in zip(outs, rows):
                out[i:hi] = a[at]
            i = hi
        x = x_next
    return steps * cfg.dt


def _rk4_stages(rhs, rho, dt: float):
    k1 = rhs(rho)
    k2 = rhs(rho + (0.5 * dt) * k1)
    k3 = rhs(rho + (0.5 * dt) * k2)
    k4 = rhs(rho + dt * k3)
    return k1, k2, k3, k4


def _symmetrized(rho):
    # (rho + rho†)/2, and the defect (rho - rho†)/2 as real numbers of the
    # same norm, for _sample.
    rho_dag = rho.conj().T
    return 0.5 * (rho + rho_dag), (0.5 * (rho - rho_dag)).view(np.float64).ravel()


def integrate_rk4(rhs, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta of any right-hand side.

    The state is re-symmetrized after every step; the pre-symmetrization
    hermiticity drift is monitored and a :class:`NumericsError` is raised if
    it ever exceeds HERMITICITY_DRIFT_TOL.  No run path uses it: it is the
    oracle that the engine is tested against.
    """
    _check_grid(cfg)
    dt = cfg.dt

    def advance(rho, _):  # one step per call
        k1, k2, k3, k4 = _rk4_stages(rhs, rho, dt)
        rho, defect = _symmetrized(rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        return rho, (rho[None],), defect

    rho = as_matrix(rho0)
    states = np.empty((cfg.n_samples,) + rho.shape, dtype=np.complex128)
    states[0] = rho
    times = _sample(advance, rho, cfg, (states,))
    return Trajectory(times=times, states=states)


def propagate_exact(liouv: Liouvillian, rho0, t: float) -> np.ndarray:
    """Exact propagation: unvec(expm(L t) @ vec(rho0))."""
    if t < 0:
        raise ValueError("t must be non-negative")
    rho = as_matrix(rho0)
    if rho.shape != (liouv.dim, liouv.dim):
        raise DimensionError(f"state has shape {rho.shape}, expected {(liouv.dim,) * 2}")
    return unvec(expm(liouv.matrix * t) @ vec(rho), liouv.dim)


def _block_matrix(q: list, w: np.ndarray, block: int) -> np.ndarray:
    """The real matrix that advances the stepper ``block`` steps at once.

    For the step blocks ``q`` = [Q_ss, Q_fs] of :func:`_step_blocks`, with E
    = Re Q_ss and Phi = Re Q_fs, rows (j - 1) n .. j n - 1 of the result,
    for j = 1..block, map the system coordinates s to the state after j
    steps less the fed block's start, [E^j; Phi (I + E + ... + E^(j-1))] s.
    The block * d_s^2 rows after all of those map s to R E^(j-1) s, half the
    hermiticity drift of step j, for the triangular QR factor R of D = w Im
    Q, or for D itself when it is square.  The powers come by doubling, in
    place.  ``q`` is emptied.
    """
    q_ss, q_fs = q
    q.clear()
    n_s = q_ss.shape[0]
    n = n_s + q_fs.shape[0]
    m = np.empty((block * (n + n_s), n_s))
    g = m[: block * n].reshape(block, n, n_s)
    dr = m[block * n :].reshape(block, n_s, n_s)
    g[0, :n_s] = q_ss.real
    g[0, n_s:] = q_fs.real
    defect = dr[0] if n == n_s else np.empty((n, n_s))
    defect[:n_s] = q_ss.imag
    defect[n_s:] = q_fs.imag
    del q_ss, q_fs  # free the step blocks before the build
    defect *= w[:, None]
    if n > n_s:
        # ||D x|| = ||R x|| for every x: the drift with d_s^2 rows, not n.
        dr[0] = np.linalg.qr(defect, mode="r")
    del defect
    j = 1  # g and dr hold steps 1..j
    while j < block:
        c = min(j, block - j)
        e_j = g[j - 1, :n_s]
        # Step j + i is step i followed by j steps: [E^i E^j; F_j + F_i E^j]
        # for the fed rows F_i, and R E^(i-1) E^j.
        np.matmul(g[:c], e_j, out=g[j : j + c])
        g[j : j + c, n_s:] += g[j - 1, n_s:]
        np.matmul(dr[:c], e_j, out=dr[j : j + c])
        j += c
    return m


def _evolve_steps(q: list, h0, dims: tuple[int, int], cfg: IntegratorConfig):
    """Sample h <- [[Q_ss, 0], [Q_fs, I]] h from h0, for the step blocks
    ``q`` = [Q_ss, Q_fs] in the coordinates of :class:`HermitianBasis`, of
    dimensions ``dims`` = (d, d_f); Q_fs has no rows when d_f is 0.  ``q``
    is emptied once the step matrix is built.  Returns the sample times and
    the system and decay blocks.

    The state is held as its real coordinates h = (s, f).  With Q = U^-1
    step U for the basis U, one step maps h to Q h: Re(Q) h is the
    re-symmetrized next state and Im(Q) h, scaled by the column norms w of
    U, has norm ||rho - rho†||_F / 2 over both blocks.  One matvec with the
    matrix of :func:`_block_matrix` advances a block of B steps: it gives
    the B states, to which f is added, and their B drifts, which are NaN
    when a state inside the block is not finite.  B is as large as
    BLOCK_BYTES allows, and at least 1.
    """
    d, d_f = dims
    n_s, n = d * d, d * d + d_f * d_f
    basis_ss, basis_ff = HermitianBasis(d), HermitianBasis(d_f)
    w = np.sqrt(np.concatenate((basis_ss.norms_sq, basis_ff.norms_sq)))
    block = max(1, min(cfg.n_steps, BLOCK_BYTES // (8 * (n + n_s) * n_s)))
    m = _block_matrix(q, w, block)
    rows = block * n

    def advance(h, r):
        y = m @ h[:n_s]
        ys = y[:rows].reshape(block, n)
        if d_f:  # the add costs 2 us even when empty
            ys[:r, n_s:] += h[n_s:]
        defect = y[rows : rows + r * n_s]
        if r > 1:
            inner = y[: (r - 1) * n]  # the states before the last
            if not math.isfinite(inner @ inner):
                # A one-step loop takes the drift after a state that is not
                # finite as NaN; the drift rows, applied to h, miss that state.
                defect = defect * math.nan
        return ys[r - 1], (ys,), defect

    hs = np.empty((cfg.n_samples, n))
    hs[0] = h0
    times = _sample(advance, h0, cfg, (hs,), block)
    if not np.isfinite(hs[-1]).all():
        # A step's drift is read from the state before it, which leaves only
        # the last state unchecked.
        raise NumericsError(f"the state after step {cfg.n_steps} is not finite")
    return times, basis_ss.matrices(hs[:, :n_s]), basis_ff.matrices(hs[:, n_s:])


def _check_initial(rho0, d: int) -> np.ndarray:
    # The system block of the initial state; the decay block starts at zero.
    rho = as_matrix(rho0)
    if rho.shape != (d, d):
        raise DimensionError(f"state has shape {rho.shape}, expected {(d, d)}")
    drift = float(np.linalg.norm(rho - rho.conj().T))
    if drift > HERMITICITY_DRIFT_TOL:
        raise NumericsError(
            f"initial state deviates from hermiticity by {drift:.3e} "
            f"(allowed {HERMITICITY_DRIFT_TOL:g})"
        )
    return rho


def _step_blocks(liouv: Liouvillian, b: np.ndarray, h: float, route: str) -> list[np.ndarray]:
    """[Q_ss, Q_fs]: the blocks of one step [[E, 0], [Phi, I]] of length h
    on (vec rho_ss, vec rho_ff), for the system-block Liouvillian ``liouv``
    and the decay block ``b``, in the coordinates of :class:`HermitianBasis`.

    ``rk4``: E = P(a), Phi = h L_fs (I + a/2 + a^2/6 + a^3/24), a = h L_ss.
    ``exact``: both from expm([[a, 0], [h L_fs, 0]]).  ``nonsingular``:
    E = expm(a) and Phi = L_fs L_ss^-1 (E - I), by a solve; exact when L_ss
    is invertible, at half the size of the augmented expm.  Its E and the
    solve are taken in real arithmetic, on the real form of L_ss.
    """
    d_f, d_s = b.shape
    basis_s, basis_f = HermitianBasis(d_s), HermitianBasis(d_f)
    l_ss = liouv.matrix
    n_s = l_ss.shape[0]
    if route == "nonsingular":
        gen = liouv.real_form
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


def _evolve(equation, liouvillian, b: np.ndarray, rho0, cfg: IntegratorConfig, route: str):
    """The one engine: evolve diag(``rho0``, 0), for the checked system block
    ``rho0``, under the system-block ``equation``, with rho_ff' = B rho_ss B†
    for the d_f x d_s decay block ``b``; d_f = 0 is the system space.

    ``rk4`` above SUPEROP_MAX_DIM runs the direct RK4: rho_ss by the
    equation, and rho_ff by B (h rho_ss + (h^2/6)(k1 + k2 + k3)) B†, as the
    stages of rho_ff' are B s_i B† for the stages s_i of rho_ss.  The other
    routes run the stepper (:func:`_step_blocks`) on L_ss = ``liouvillian()``.
    A state that overflows ends in a NumericsError, not in numpy's warnings.
    """
    d_f, d = b.shape
    dt = cfg.dt
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below end it
        if route == "rk4" and d > SUPEROP_MAX_DIM:
            rhs = equation.rhs

            def advance(x, _):  # one step per call
                s, f = x
                k1, k2, k3, k4 = _rk4_stages(rhs, s, dt)
                s_next, defect = _symmetrized(s + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
                if d_f:  # an empty decay sector costs no work
                    fed = decay_feed(b, dt * s + (dt * dt / 6.0) * (k1 + k2 + k3))
                    f, defect_ff = _symmetrized(f + fed)
                    defect = np.concatenate((defect, defect_ff))
                return (s_next, f), (s_next[None], f[None]), defect

            states = np.empty((cfg.n_samples, d, d), dtype=np.complex128)
            decay = np.zeros((cfg.n_samples, d_f, d_f), dtype=np.complex128)
            states[0] = rho0
            times = _sample(advance, (rho0, decay[0]), cfg, (states, decay))
        else:
            h0 = np.concatenate((HermitianBasis(d).coords(rho0), np.zeros(d_f * d_f)))
            q = _step_blocks(liouvillian(), b, dt, route)
            if not all(np.isfinite(x).all() for x in q):
                raise NumericsError(f"the {route} step of length {dt:g} is not finite")
            times, states, decay = _evolve_steps(q, h0, (d, d_f), cfg)
    return Trajectory(times=times, states=states, decay=decay if d_f else None)


def _evolve_model(model: EnlargedModel, rho0, cfg: IntegratorConfig, route: str) -> Trajectory:
    # The initial state is checked before any operator of the run is built.
    rho0 = _check_initial(rho0, model.d_s)
    b = model.decay.matrix
    return _evolve(model.system_equation, lambda: model.system_liouvillian, b, rho0, cfg, route)


def evolve_wwa(spec: SystemSpec, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the system-space master equation with the configured method:
    the engine with an empty decay sector."""
    _check_grid(cfg)
    rho0 = _check_initial(rho0, spec.d_s)
    b = np.zeros((0, spec.d_s), dtype=np.complex128)
    return _evolve(spec.equation, lambda: assemble_liouvillian_wwa(spec), b, rho0, cfg, cfg.method)


def evolve_enlarged(model: EnlargedModel, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the enlarged-space master equation with the configured method
    from diag(``rho0``, 0): ``rho0`` is the d_s x d_s system block, and the
    decay block starts at zero.  Any other shape raises
    :class:`DimensionError` before any work.  The trajectory holds the
    system blocks in ``states`` and the decay blocks in ``decay``.
    """
    _check_grid(cfg)
    return _evolve_model(model, rho0, cfg, cfg.method)


def propagate_nonsingular(model: EnlargedModel, rho0, t_max: float, n_steps: int) -> Trajectory:
    """Exact propagation on the enlarged space from diag(``rho0``, 0), for the
    system block ``rho0``, sampled at k t_max / n_steps for k = 0..n_steps.

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

    ``traj.states`` must hold system blocks on a uniform grid, as every run
    does; the result, one d_f x d_f block per sample, starts from zero.
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
