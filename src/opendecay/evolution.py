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
without B, so that the ``equivalence`` check still tests B†B = Gamma.  These
two evolutions are the only propagations of a run: the ``cp`` and
asymptotics checks certify the generator.  Every step, power and propagator
of [[L_ss, 0], [L_fs, 0]] is held as its stacked pair [E; Phi], its first
block column.
Both steps are Taylor polynomials of the stacked pair h [L_ss; L_fs],
evaluated by the one kernel of :mod:`opendecay.linalg`, which works on
pairs throughout and never builds the (d_s^2 + d_f^2)^2 block matrix (Van
Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  The ``rk4`` step is
P(h M) for M = [[L_ss, 0], [L_fs, 0]], the kernel at degree 4 in 2 stacked
products, 2 n n_s^2 multiply-adds for the n = d_s^2 + d_f^2 rows and n_s =
d_s^2 columns of the pair.  The ``exact`` step is
:func:`opendecay.linalg.expm` of the pair: the kernel on the halved pair,
its degree and the halvings picked from the 1-norm by the fewest products,
with no linear solve, squared back up by the pair composition below.

The stepper builds the run's step once, if the run has a step, and then
advances a block of sample intervals per real matvec, by either method,
where the cost rule (below) prices it cheaper than the direct step.
The generator maps hermitian matrices to hermitian matrices, so in the real
coordinates (s, f) of :class:`HermitianBasis` it is one real matrix
[L_ss; L_fs], ``MasterEquation.real_form`` of the system-block equation,
built once per equation from the columns of its operators, and every
step is built from it in real arithmetic: the step [[E, 0], [Phi, I]] maps
coordinates to coordinates and cannot leave the hermitian matrices, so it
needs no re-symmetrization and leaves no drift to watch.  j steps from (s,
f) reach (E^j s, f + Phi_j s), Phi_j = Phi (I + E + ... + E^(j-1)).  The
stepper goes in units of u steps: u = S = ``sample_stride`` when the jump
pays (by the cost rule), else u = 1.  The unit's pair [E^u; Phi_u] comes
from the one-step pair by binary powering, where a steps and then b steps make
[E^b E^a; Phi_a + Phi_b E^a], the pair composition that ``expm`` squares
with too (powers by squaring, as in Higham, SIAM J. Matrix Anal. Appl. 26,
1179 (2005)); the short last interval of n_steps mod S steps gets its own
pair the same way.  One matrix stacks the rows
[E^(ju); Phi_(ju)] of the states after j = 1..B units, built once from the
unit's pair with the powers by doubling, so one matvec gives B states, B
samples when u = S, and applies the fed rows once per unit.  The map
rho -> -i(G rho - rho G†) + sum_k K rho K† takes hermitian matrices to
hermitian matrices for every G and K, so the stepper checks only what can
fail, and calls no right-hand side: per block, every state the block
reaches is tested for finiteness.  When one fails, the first unit that
reached a state that is not finite is replayed one step at a time from the
state before it, with the one-step pair rebuilt, and the error names the
first step whose state is not finite.  The direct step re-symmetrizes
every state it reaches and tests it for finiteness in the same way, and
watches no drift: a run whose state grows ends at the same step, in the
same words, on every route.

B is as many units as fit in BLOCK_BYTES, 65536 // (8 n n_s) for the n =
d_s^2 + d_f^2 rows and n_s = d_s^2 columns of a unit, and at least one:
4096, 256, 16, 3 and 1 samples (steps, when the run does not jump) for the
enlarged space at d_s = d_f = 1, 2, 4, 6 and 8.  Measured when a unit was
always a step, on the evolutions of the shipped scenarios, both spaces
with ``rk4``, at one BLAS thread (2-core Intel Xeon, 48 KiB L1d and 2 MiB
L2 per core, numpy 2.4.6, OpenBLAS 0.3.31), best of 5 to 15 on a shared
host, when each step still carried d_s^2 drift rows: single-decay,
two-level-decay and random take 92, 103 and 51 ms at one step per matvec;
3.6, 18 and 9.9 ms at 4 KiB; 1.4, 6.9 and 3.8 ms at 16 KiB; 1.3-2.0,
2.8-4.7 and 2.0-3.3 ms at 64 KiB; and no less at 256 KiB (1.5-2.7, 2.2-4.0
and 1.7-2.8 ms) or 1 MiB.  64 KiB is the smallest of these sizes at which
all three reach that floor, where the Python cost per block is a small
share.  Larger blocks still help at d_s 4 to 8: on the real step, both
``rk4`` evolutions of 1000 steps at stride 10 take 2.4-2.9, 6.2-7.0 and
17-23 ms at 64 KiB against 1.5-2.1, 3.0-3.5 and 11 ms at 256 KiB, for d_s =
4, 6 and 8 (best and median of 15).  From d_s = 8 on one unit fills the
block, so the matrix is the unit's pair itself.

One cost rule, :func:`_plan`, decides how a run goes, for either method.
From d_s, d_f, the step count, the stride and the interval count, it prices
one step per matvec row, one sample interval per row and the direct step,
in multiply-adds at the rate of the stepper's matvecs, and takes the
cheapest.  The method enters only through the degree m and the halvings
sigma of its direct step (:func:`_direct_plan`): (4, 0) for ``rk4``, and
for ``exact`` linalg's plan for dt times the O(d_s^2) bound
``MasterEquation.norm_bound(1)``.  The direct step is priced per
right-hand side, N 2^sigma (m/4) (DIRECT_STEP + 8 d_s^3) for N steps; the
stepper adds to its unit the build of the method's step, the products of
linalg's Taylor polynomial of degree m and sigma squarings, at the
products' rate.

Without a short interval the jump pays when P d_s^2 < PRODUCT_SPEEDUP I (S -
1): the fed rows scale both sides alike.  PRODUCT_SPEEDUP = 8 is the
measured speed of a product per flop over that of a matvec.  On the stepper
alone (enlarged space with d_f = d_s, the one-step pair built beforehand, on
the host above, best of 5, of 2 from d_s = 24), for S of 2 to 250 and I of
1 to 100, the jump breaks even at x = I (S - 1) / (P d_s^2) of about 0.15 at
d_s = 12, 0.25 at 16, 0.11 at 24 and 0.11 at 30; at d_s = 2 and 6 it is
never slower by more than 0.003 ms.  The rule jumps from x = 1/8.  At d_s =
30 and S = 50, 10 intervals (x = 0.08) take 306 ms one step per matvec and
337 ms with the jump; 30 intervals (x = 0.23) take 891 and 362 ms.

The direct step (:func:`_direct_step`) evolves rho_ss with the system-block
equation and accumulates rho_ff from the same Taylor sums, matrix-free:
O(d_s^3) work per right-hand side against the stepper's O(d_s^4) matvec and
O(d_s^6) build, but call-bound, and it builds neither the real form nor a
step.  Per step and evolution, on the host above, the rk4 step (four
right-hand sides) takes 74-92 us at d_s = 8, 81-108 us at 12 and 16, and
133-270 us at 20 and 24, while the stepper's matvecs of pairs too large for
L2 (d_s >= 24) run at 2.0-2.7 multiply-adds per ns.  DIRECT_STEP = 250000
multiply-adds, about 100 us at that rate, is its fixed term per four
right-hand sides; 8 d_s^3 is the 64 d_s^3 real multiply-adds of their
complex d_s x d_s products (G rho, rho G†, and K rho K† for one jump) at
the products' rate.  Priced by those products alone, d_s = 16 at stride 1
would go direct.  Both evolutions (seed 42, dt = 1e-3, the real forms built
beforehand, best of 3 per run) by either route, and the route the rule
takes and the fixed threshold d_s <= 16 that it replaced took, for
``rk4``; the stepper runs at the unit that the rule gives it, and the rows
at d_s = 17, 24 and 30 are medians of 5 alternating pairs of the rule
against the threshold:

    d_s  t_max  S    direct    stepper           rule     threshold
    16   1      1    229 ms    73 ms (1 step)    stepper  stepper
    17   0.5    10   102 ms    29 ms (jump)      stepper  direct
    24   5      50   1555 ms   331 ms (jump)     stepper  direct
    30   5      50   2151 ms   894 ms (jump)     stepper  direct
    40   5      50   3.6 s     5.6 s (jump)      direct   direct
    24   0.05   10   21 ms     125 ms (1 step)   direct   direct
    40   0.05   10   47 ms     1.7 s (1 step)    direct   direct
    24   1      1    445 ms    557 ms (1 step)   direct   direct

and for ``exact``, whose direct step is (9, 0) in every row, the enlarged
plus the system-space evolution, medians of 3 to 5 runs (one at d_s = 64),
with the route the rule takes for each:

    d_s  t_max  S    direct          stepper                  rule
    17   0.05   10   10 + 9 ms       15 + 7 ms (1 step)       stepper
    30   0.05   10   21 + 20 ms      279 + 140 ms (1 step)    direct
    40   0.05   10   35 + 32 ms      1368 + 642 ms (1 step)   direct
    64   0.05   10   0.19 + 0.18 s   31.2 + 15.3 s (1 step)   direct
    30   5      50   2.20 + 2.21 s   0.83 + 0.41 s (jump)     stepper
    40   5      50   3.57 + 3.17 s   3.69 + 1.65 s (jump)     direct, stepper

The d_s = 64 ``exact`` evolutions on the direct route peak at 2.1 MB under
tracemalloc; the stepper's real form alone is 268 MB.

Every route stores each sample as the real coordinates it reaches, one row
of d_s^2 + d_f^2 numbers: the stepper its rows as they are, the direct step
the coordinates of each state it keeps.  A :class:`Trajectory` holds those
rows, 8 n (d_s^2 + d_f^2) bytes for n samples, half the complex blocks.  It
takes the per-sample numbers that the CSV table and the checks read from
the coordinates, in real arithmetic, and caches them: the traces are sums
of diagonal coordinates, the purity a weighted sum of squares, and the
smallest eigenvalue the coordinate itself at d = 1, a closed form at d = 2
and, above, one ``eigvalsh`` per chunk of about 256 KiB of expanded blocks.
Its complex ``states`` and ``decay`` blocks are derived on first use, for
library callers; no run path builds them.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, GridError, NumericsError
from .linalg import _then, as_matrix, expm, hermitian_basis, require_hermitian, unvec, vec
from .linalg import _TAYLOR, DEFAULT_HERMITICITY_TOL, _taylor, _taylor_plan
from .model import DecayOperator, EnlargedModel, Liouvillian, SystemSpec, decay_feed

# The hermiticity bound of the initial-state gate (_check_initial), and the
# per-step drift that the integrate_rk4 oracle allows.
HERMITICITY_DRIFT_TOL = 1e-9
# Fixed cost of four right-hand sides of the direct step (one rk4 step), the
# Python and numpy calls of their evaluation, in multiply-adds at the rate
# of the stepper's matvecs; the cost rule (_plan) prices the direct route
# with it, and the module docstring gives the measurements.
DIRECT_STEP = 250_000
# Size of the stepper's block matrix, which advances as many units (steps,
# or sample intervals) per matvec as fit in it; the module docstring gives
# the measurements.
BLOCK_BYTES = 64 * 1024
# How many times faster per flop the stepper's products (its build and
# powering) run than its matvecs, in the cost rule (_plan); the module
# docstring gives the measurements.
PRODUCT_SPEEDUP = 8
# The stacked products of linalg's Taylor polynomial of each degree; the
# cost rule (_plan) prices a step build with them.
_PRODUCTS = {m: products for m, _, products in _TAYLOR}
# Largest step count t_max/dt an IntegratorConfig accepts.  A step costs
# ~0.1-0.3 us (stepper in blocks, d_s <= 2) to ~0.3 ms (direct rk4 step on
# the enlarged space at d_s = 30), so this caps one evolution at about a second
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


class Trajectory:
    """Sampled evolution: strictly increasing times and one state per time.

    Every sample is hermitian, so a trajectory holds it as its real
    coordinates in :class:`HermitianBasis`: ``coords`` is one read-only (n,
    d^2) float array, one row per sample.  An enlarged-space run holds its
    block-diagonal states as the coordinates of the d_s x d_s system block
    followed by those of the d_f x d_f decay block, (n, d_s^2 + d_f^2);
    ``dims`` is (d,) or (d_s, d_f).  The engine fills ``coords`` and builds
    no matrix of a sample.

    ``Trajectory(times, states, decay)`` builds a trajectory from (n, d, d)
    stacks of the system blocks and, for an enlarged-space one, the decay
    blocks.  ``states`` and ``decay`` (None for a single block) are read-only
    complex arrays, so that code which writes into a sample fails instead of
    changing it: the stacks given, as read-only views, or for an engine
    trajectory the matrices of its coordinates, derived on first use for
    library callers; no run path reads them.

    The per-sample numbers below are computed on first use from the
    coordinates, by one formula each, and cached, read-only.  The only
    branch is the hermiticity gate: coordinates keep only a matrix's
    hermitian part, so a trajectory built from matrices gates its samples
    before it takes their smallest eigenvalues, while the engine's samples
    are hermitian by construction.
    """

    def __init__(self, times, states, decay=None):
        times = self._set_times(times)
        blocks = [_read_only_stack(states, "states", times)]
        if decay is not None:
            blocks.append(_read_only_stack(decay, "decay", times))
        self.__dict__.update(
            dims=tuple(b.shape[1] for b in blocks), states=blocks[0],
            decay=blocks[1] if decay is not None else None, _gated=True,
        )

    @classmethod
    def _of_coords(cls, times, coords: np.ndarray, dims: tuple) -> "Trajectory":
        """The trajectory of the rows ``coords`` of coordinates of blocks of
        dimensions ``dims``, which it holds as they are, read-only."""
        traj = cls.__new__(cls)
        traj._set_times(times)
        traj.__dict__.update(dims=tuple(dims), coords=_read_only(coords), _gated=False)
        return traj

    def _set_times(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.__dict__["times"] = times
        return times

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is read-only: cannot set {name!r}")

    def __len__(self) -> int:
        return int(self.times.size)

    @cached_property
    def coords(self) -> np.ndarray:
        """The samples' rows of coordinates: of the given matrices' hermitian
        parts, for a trajectory built from matrices.  A sample that is not
        finite has coordinates that are not finite, without numpy's
        warnings."""
        with np.errstate(over="ignore", invalid="ignore"):
            rows = [hermitian_basis(d).coords(b) for d, b in zip(self.dims, self.blocks)]
        return _read_only(np.concatenate(rows, axis=1))

    @cached_property
    def states(self) -> np.ndarray:
        """The (n, d, d) system blocks, the matrices of the coordinates."""
        d = self.dims[0]
        return _read_only(hermitian_basis(d).matrices(self.coords[:, : d * d]))

    @cached_property
    def decay(self) -> np.ndarray | None:
        """The (n, d_f, d_f) decay blocks of an enlarged-space run, else None."""
        if len(self.dims) == 1:
            return None
        d, d_f = self.dims
        return _read_only(hermitian_basis(d_f).matrices(self.coords[:, d * d :]))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The diagonal blocks: ``(states,)``, or ``(states, decay)``."""
        return (self.states,) if self.decay is None else (self.states, self.decay)

    def _block_coords(self):
        # Each block's coordinates as an (n, d, d) real view of ``coords``,
        # coordinate i d + j at [:, i, j]: its diagonal is that of the block.
        start = 0
        for d in self.dims:
            yield self.coords[:, start : start + d * d].reshape(len(self), d, d)
            start += d * d

    @cached_property
    def traces(self) -> np.ndarray:
        """The trace of each block of each sample, one row per block: the sum
        of its diagonal coordinates, added column by column, which numpy
        does faster than a reduction over a short axis."""
        out = np.empty((len(self.dims), len(self)))
        for row, c in zip(out, self._block_coords()):
            row[:] = c[:, 0, 0]
            for i in range(1, c.shape[-1]):
                row += c[:, i, i]
        return _read_only(out)

    @cached_property
    def purity(self) -> np.ndarray:
        """Tr(rho^2) of each sample, the sum of its blocks' purities: the sum
        of its squared coordinates weighted by the basis's squared column
        norms.  A finite state whose purity overflows reads inf, without
        numpy's warning."""
        norms_sq = np.concatenate([hermitian_basis(d).norms_sq for d in self.dims])
        with np.errstate(over="ignore"):
            return _read_only(np.square(self.coords) @ norms_sq)

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        """The smallest eigenvalue of each sample, from the union of its
        blocks' spectra, by :func:`_smallest_eigenvalues` of each block's
        coordinates (NaN stays NaN).  A trajectory built from matrices gates
        each block first: a sample that fails :func:`require_hermitian`
        raises, and nothing is cached.  One block at a time, gated and then
        reduced, so that one symmetrized copy is held at once."""
        per_block = []
        for i, c in enumerate(self._block_coords()):
            if self._gated:
                require_hermitian(self.blocks[i], DEFAULT_HERMITICITY_TOL, "sample")
            per_block.append(_smallest_eigenvalues(c))
        return _read_only(functools.reduce(np.minimum, per_block))


# Bytes of the complex matrices that _smallest_eigenvalues expands at a time
# above d = 2.
EIGEN_CHUNK_BYTES = 2**18


def _smallest_eigenvalues(c: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each hermitian d x d matrix of an (n, d, d)
    real stack of coordinates, laid out as :meth:`Trajectory._block_coords`
    lays them out; NaN for a matrix whose coordinates are not all finite.

    At d = 1 the matrix is its coordinate.  At d = 2 the matrix [[a, b],
    [b*, e]] has the coordinates (a, Im b, Re b, e), and its smallest
    eigenvalue is the closed form m - hypot((a - e)/2, |b|), m = (a + e)/2,
    with |b| = hypot(Im b, Re b): the entries are halved before they are
    summed, so that no finite block overflows.  Above, the matrices are
    expanded in chunks of about EIGEN_CHUNK_BYTES, each taken by one
    ``eigvalsh``, so that no complex array of the whole stack is built.
    """
    n, d = len(c), c.shape[-1]
    if d == 1:
        return c[:, 0, 0].copy()
    if d == 2:
        a, e = 0.5 * c[:, 0, 0], 0.5 * c[:, 1, 1]
        return (a + e) - np.hypot(a - e, np.hypot(c[:, 0, 1], c[:, 1, 0]))
    basis, k = hermitian_basis(d), max(1, EIGEN_CHUNK_BYTES // (16 * d * d))
    out = np.full(n, np.nan)
    for i in range(0, n, k):
        h = c[i : i + k].reshape(-1, d * d)
        finite = np.isfinite(h).all(axis=1)
        out[i : i + k][finite] = np.linalg.eigvalsh(basis.matrices(h[finite]))[:, 0]
    return out


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
        if isinstance(self.sample_stride, bool) or not isinstance(self.sample_stride, int):
            raise ValueError(f"sample_stride must be an integer, got {self.sample_stride!r}")
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


def _sample(
    advance, x0, cfg: IntegratorConfig, outs: tuple, block: int = 1, jump: int = 1
) -> np.ndarray:
    """The sampling loop shared by every integrator; returns the sample times.

    The run goes in units of ``jump`` steps of ``dt``, where ``jump`` is 1 or
    ``cfg.sample_stride``, and ends with a short unit of the n_steps mod
    ``jump`` steps left, if any.  ``advance(x, k, r)`` moves the state ``x`` after
    step ``k`` forward by ``r`` <= ``block`` whole units, or by the short
    unit with r = 1, and returns ``(x_next, rows)``: the state after them,
    and one array per array of ``outs`` whose row j < r is the state after
    unit j + 1.  It raises :class:`NumericsError` for a step that fails the
    integrator's monitor.  Samples are copied from ``rows`` into ``outs``,
    except sample 0, ``x0``, which the caller stores.
    """
    n, stride = cfg.n_steps, cfg.sample_stride
    steps = cfg.sampled_steps()
    x, k, i = x0, 0, 1
    while k < n:
        r = min(block, (n - k) // jump) or 1  # the short unit goes alone
        x, rows = advance(x, k, r)
        end = min(k + r * jump, n)
        hi = end // stride + 1 if end < n else steps.size  # samples at steps <= end
        if hi > i:
            at = (steps[i:hi] - k - 1) // jump
            for out, a in zip(outs, rows):
                out[i:hi] = a[at]
            i = hi
        k = end
    return steps * cfg.dt


def _rk4_stages(rhs, rho, dt: float):
    k1 = rhs(rho)
    k2 = rhs(rho + (0.5 * dt) * k1)
    k3 = rhs(rho + (0.5 * dt) * k2)
    k4 = rhs(rho + dt * k3)
    return k1, k2, k3, k4


def _symmetrized(rho):
    # (rho + rho†)/2, and the defect (rho - rho†)/2 as real numbers of the
    # same norm, for _check_defect.
    rho_dag = rho.conj().T
    return 0.5 * (rho + rho_dag), (0.5 * (rho - rho_dag)).view(np.float64).ravel()


def _check_defect(defect: np.ndarray, step: int) -> None:
    # The drift ||rho - rho†||_F of a step is twice the defect's norm.  A
    # defect that is not finite, whose drift is NaN or inf, is a state that
    # is not finite, reported as the stepper reports one.
    drift = 2.0 * math.sqrt(defect @ defect)
    if drift <= HERMITICITY_DRIFT_TOL:
        return
    if not np.isfinite(defect).all():
        raise NumericsError(f"the state after step {step} is not finite")
    raise NumericsError(
        f"hermiticity drift {drift:.3e} at step {step} exceeds {HERMITICITY_DRIFT_TOL:g}"
    )


def integrate_rk4(rhs, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta of any right-hand side.

    It starts, as the engine does, from the copy of ``rho0`` that
    :func:`_check_initial` returns.  The state is re-symmetrized after every
    step; the pre-symmetrization hermiticity drift is monitored, and a
    :class:`NumericsError` names the first step whose state is not finite
    or whose drift exceeds HERMITICITY_DRIFT_TOL.  No run path uses it: it
    is the oracle that the engine is tested against.
    """
    _check_grid(cfg)
    dt = cfg.dt

    def advance(rho, k, _):  # one step per call
        k1, k2, k3, k4 = _rk4_stages(rhs, rho, dt)
        rho, defect = _symmetrized(rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        _check_defect(defect, k + 1)
        return rho, (rho[None],)

    rho = as_matrix(rho0)
    rho = _check_initial(rho, len(rho))  # the engine's start
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


def _block_matrix(pair: np.ndarray, block: int) -> np.ndarray:
    """The real matrix that advances the stepper ``block`` units at once.

    For the stacked pair [E_u; Phi_u] of a unit of u steps, rows (j - 1) n
    .. j n - 1 of the result, for j = 1..block, map the system coordinates s
    to the state after j units less the fed block's start, [E_u^j; Phi_u (I
    + E_u + ... + E_u^(j-1))] s.  The powers come by doubling, in place.  A
    block of one unit is ``pair`` itself.
    """
    if block == 1:
        return pair
    n, n_s = pair.shape
    m = np.empty((block * n, n_s))
    g = m.reshape(block, n, n_s)
    g[0] = pair
    j = 1  # g holds units 1..j
    while j < block:
        c = min(j, block - j)
        # Unit j + i is unit i after j units.
        _then(g[j - 1], g[:c], n_s, out=g[j : j + c])
        j += c
    return m


def _step_powers(square: np.ndarray, counts: tuple) -> list:
    """The stacked pairs [E^c; Phi (I + E + ... + E^(c-1))], one per count c
    of ``counts`` (None where c is 0), by binary powering of the stacked
    one-step pair ``square`` = [E; Phi].

    The squares are shared: the counts take the bit length of the largest,
    less one, squarings, and one product more per further set bit of each
    count.  A count of 1 returns the one-step pair itself.
    """
    n_s = square.shape[1]
    pairs = [None] * len(counts)
    bit = 1
    while True:
        for i, c in enumerate(counts):
            if c & bit:
                pairs[i] = square if pairs[i] is None else _then(pairs[i], square, n_s)
        bit <<= 1
        if bit > max(counts):
            return pairs
        square = _then(square, square, n_s)


def _direct_plan(equation, cfg: IntegratorConfig) -> tuple[int, float]:
    """(m, halvings) of the direct step of ``cfg.method``: 2^halvings
    substeps of dt / 2^halvings, each the degree-m Taylor polynomial of the
    substep's generator.  ``rk4`` is (4, 0), one classical RK4 step.
    ``exact`` takes linalg's plan (:func:`opendecay.linalg._taylor_plan`) for
    dt times ``equation.norm_bound(1)``, an upper bound on the 1-norm of
    [[L_ss, 0], [L_fs, 0]], so that each substep is exp(hL) within the
    backward-error bound theta_m.  A product that overflows gives infinite
    halvings, which the cost rule prices out of reach."""
    if cfg.method == "rk4":
        return 4, 0
    try:
        return _taylor_plan(cfg.dt * equation.norm_bound(1))
    except OverflowError:
        return _TAYLOR[-1][0], math.inf


def _plan(equation, cfg: IntegratorConfig) -> int:
    """The one cost rule: how a run of the engine on the system-block
    ``equation`` goes, as the number of steps that one matvec row of the
    stepper advances, 1 or ``cfg.sample_stride``, or 0 for the direct step.

    Every way is priced in multiply-adds at the rate of the stepper's
    matvecs, for the n = d^2 + d_f^2 rows and n_s = d^2 columns of a unit's
    pair, over the N steps of the run in I sample intervals of S = min(stride,
    N) steps:

    - one step per row: N matvecs, N n n_s;
    - one interval per row: I matvecs, and P products of n n_s^2 at
      PRODUCT_SPEEDUP times the matvecs' rate, for the P = bit_length(S) +
      popcount(S) - 2 of the powering and popcount(N mod S) - 1 more for a
      short last interval;
    - the direct step, for the (m, halvings) of :func:`_direct_plan`:
      N 2^halvings (m/4) (DIRECT_STEP + 8 d^3), per four right-hand sides,
      where 8 d^3 is the 64 d^3 real multiply-adds of four complex d x d
      products (G rho, rho G† and K rho K† of one jump) at PRODUCT_SPEEDUP.

    The stepper takes the cheaper unit, and the run takes the direct step
    where it costs less than that unit plus the build of the method's step:
    the products of linalg's degree-m Taylor polynomial (_TAYLOR) and one
    per halving, n n_s^2 multiply-adds each at the products' rate.  For
    ``rk4``, (4, 0), that is 2 products.  Neither way counts the real form
    [L_ss; L_fs], O(d^4) work cached per equation and shared with the
    ``cp`` check.  A run of no steps takes the stepper, which builds
    neither the real form nor a step, for either method.
    """
    steps = cfg.n_steps
    if not steps:
        return 1
    d_f, d = equation.feed.shape
    n_s, n = d * d, d * d + d_f * d_f
    stride = min(cfg.sample_stride, steps)
    tail = steps % stride
    products = stride.bit_length() + stride.bit_count() - 2 + max(tail.bit_count() - 1, 0)
    one = steps * n * n_s
    jump = products * n * n_s * n_s / PRODUCT_SPEEDUP + (cfg.n_samples - 1) * n * n_s
    unit = cfg.sample_stride if jump < one else 1
    m, halvings = _direct_plan(equation, cfg)
    build = (_PRODUCTS[m] + halvings) * n * n_s * n_s / PRODUCT_SPEEDUP
    # A float holds 2^1023 at most, and from far below it the stepper wins.
    substeps = 2.0 ** min(halvings, 1023)
    direct = steps * (DIRECT_STEP + 64 * d**3 / PRODUCT_SPEEDUP) * (m / 4) * substeps
    return 0 if direct < build + min(one, jump) else unit


def _evolve_steps(build, h0, dims: tuple[int, int], cfg: IntegratorConfig, jump: int):
    """Sample h <- [[E, 0], [Phi, I]] h from h0, for the stacked real step
    [E; Phi] that ``build()`` returns, in the coordinates of
    :class:`HermitianBasis`, of dimensions ``dims`` = (d, d_f); Phi has no
    rows when d_f is 0.  Returns the sample times and the (n, d^2 + d_f^2)
    rows of the samples' coordinates.

    The state is held as its real coordinates h = (s, f).  Each unit of
    ``jump`` steps, the sample stride or a single step as :func:`_plan`
    chose, is one row block of the matrix of :func:`_block_matrix`,
    built from the unit's pair; the short last interval has its own pair.
    One matvec advances a block of B units, to whose fed rows f is added; B
    is as large as BLOCK_BYTES allows, and at least 1.  A real step leaves
    no hermiticity drift, so the monitor is a finiteness test of every state
    a block reaches.  When it fails, the first unit that reached a state
    that is not finite is replayed one step at a time from the state before
    it, with the one-step pair rebuilt, so that the error names the first
    step whose state is not finite.
    """
    d, d_f = dims
    n_s, n = d * d, d * d + d_f * d_f
    n_steps = cfg.n_steps
    full, tail = divmod(n_steps, jump)
    block = max(1, min(full, BLOCK_BYTES // (8 * n * n_s)))
    # A run of no steps builds no step.
    m, m_tail = _step_powers(build(), (jump if full else 0, tail)) if n_steps else (None, None)
    if full:
        m = _block_matrix(m, block)

    def step(mat, h, r=1):  # the first r units of ``mat`` from h
        ys = (mat @ h[:n_s]).reshape(-1, n)[:r]
        if d_f:  # the add costs 2 us even when empty
            ys[:, n_s:] += h[n_s:]
        return ys

    def advance(h, k, r):
        ys = step(m if k + jump <= n_steps else m_tail, h, r)
        # isfinite, not a dot product, which overflows on a finite state.
        if not np.isfinite(ys).all():
            fail(h, k, ys)
        return ys[-1], (ys,)

    def fail(h, k, ys):
        j = int(np.flatnonzero(~np.isfinite(ys).all(axis=1))[0])
        y, k = (h if j == 0 else ys[j - 1]), k + j * jump
        pair = build()
        for i in range(k + 1, min(k + jump, n_steps) + 1):
            y = step(pair, y)[0]
            if not np.isfinite(y).all():
                break
        # Without a break, only the jump took the unit's last state past the
        # largest float.
        raise NumericsError(f"the state after step {i} is not finite")

    hs = np.empty((cfg.n_samples, n))
    hs[0] = h0
    return _sample(advance, h0, cfg, (hs,), block, jump), hs


def _check_initial(rho0, d: int) -> np.ndarray:
    """The one decision on an initial system block (the decay block starts at
    zero): its shape (d, d), and hermiticity at HERMITICITY_DRIFT_TOL.
    Returns the gate's symmetrized copy, which every route starts from; an
    exactly hermitian ``rho0`` is that copy bit for bit."""
    rho = as_matrix(rho0)
    if rho.shape != (d, d):
        raise DimensionError(f"initial state has shape {rho.shape}, expected {(d, d)}")
    return require_hermitian(rho, HERMITICITY_DRIFT_TOL, "initial state")


def _step_blocks(gen: np.ndarray, h: float, method: str) -> np.ndarray:
    """[E; Phi]: the stacked pair of one step [[E, 0], [Phi, I]] of length h
    on the real coordinates (s, f) of :class:`HermitianBasis`, for the real
    form ``gen`` = [L_ss; L_fs] of n_s = d_s^2 columns; float64 throughout.
    With d_f = 0, ``gen`` is the square L_ss and the pair is E alone.

    ``rk4``: the degree-4 Taylor polynomial of the stacked pair h [L_ss;
    L_fs], the first block column of P(M) for M = h [[L_ss, 0], [L_fs, 0]]:
    for the linear autonomous equation dx/dt = L x, one classical RK4 step
    is exactly that matrix.  It is :func:`opendecay.linalg._taylor` with h
    as its scale, in 2 stacked products of n n_s^2 multiply-adds for the n
    rows of ``gen``, and holds no scaled copy of ``gen``.
    ``exact``: :func:`expm` of the stacked pair h [L_ss; L_fs], the first
    block column of exp(M).
    """
    if method == "exact":
        return expm(gen * h)
    return _taylor(gen, h, 4, gen.shape[1])


def _direct_step(equation, cfg: IntegratorConfig):
    """The one direct step, of either method, and the ``advance`` of
    :func:`_sample` that takes it over one sample interval: steps of dt that
    move (rho_ss, rho_ff) forward under the system-block ``equation`` L, with
    rho_ff' = B rho_ss B† for its d_f x d_s feed B, each in 2^halvings
    substeps of h = dt / 2^halvings, for the (m, halvings) of
    :func:`_direct_plan`.  The state is held as its matrices (rho_ss,
    rho_ff); the row of the sample that ends the interval is their
    coordinates in :class:`HermitianBasis`, as the stepper's rows are, so
    that only sampled states are converted.

    Each substep is the degree-m Taylor polynomial of the action of h [[L_ss,
    0], [L_fs, 0]] in Horner form, matrix-free (Al-Mohy, Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)): y = s, then y = s + (h/j) L(y) for j = m ..
    2, and s <- s + h L(y), rho_ff <- rho_ff + B (h y) B†.  That is m
    right-hand sides of d x d matrices per substep; the fed block takes the
    sum h y = sum_k h^k L^(k-1) s / k! of the same polynomial.  At (4, 0) it
    is one classical RK4 step of the linear equation.  Each step's state is
    re-symmetrized and then tested for finiteness, as the stepper tests its
    states: a NumericsError names the first step whose state is not finite.
    """
    rhs, b = equation.rhs, equation.feed
    m, halvings = _direct_plan(equation, cfg)
    h = cfg.dt / 2**halvings
    basis_s, basis_f = hermitian_basis(b.shape[1]), hermitian_basis(b.shape[0])

    def advance(x, k, _):  # one sample interval per call
        s, f = x
        for step in range(k + 1, min(k + cfg.sample_stride, cfg.n_steps) + 1):
            for _ in range(2**halvings):
                y = s
                for j in range(m, 1, -1):
                    y = rhs(y)
                    y *= h / j
                    y += s
                y *= h
                s = s + rhs(y)
                if len(b):  # an empty decay sector costs no product
                    f = f + decay_feed(b, y)
            s, f = (0.5 * (a + a.conj().T) for a in (s, f))
            if not (np.isfinite(s).all() and np.isfinite(f).all()):
                raise NumericsError(f"the state after step {step} is not finite")
        return (s, f), (np.concatenate((basis_s.coords(s), basis_f.coords(f)))[None],)

    return advance


def _evolve(equation, rho0, cfg: IntegratorConfig):
    """The one engine: evolve diag(``rho0``, 0), for the system block
    ``rho0`` that :func:`_check_initial` returned, under the system-block
    ``equation``, with rho_ff' = B rho_ss B† for its d_f x d_s feed B;
    d_f = 0 is the system space.  Every route starts from ``rho0`` as it
    is, and stores its coordinates as sample 0.  Returns the trajectory of
    the rows of coordinates the route fills.

    The cost rule :func:`_plan` picks how the run goes, from ``cfg.method``
    among the rest: the direct step of :func:`_direct_step`, or the stepper
    (:func:`_step_blocks`, :func:`_evolve_steps`) in the unit the rule
    chose, on the equation's real form [L_ss; L_fs], which only a run with a
    step builds.  A state that overflows ends in a NumericsError that names
    the first step whose state is not finite, on either route, not in
    numpy's warnings.
    """
    d_f, d = equation.feed.shape
    dt = cfg.dt
    unit = _plan(equation, cfg)
    h0 = np.concatenate((hermitian_basis(d).coords(rho0), np.zeros(d_f * d_f)))
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below end it
        if not unit:
            hs = np.empty((cfg.n_samples, h0.size))
            hs[0] = h0
            x0 = (rho0, np.zeros((d_f, d_f), dtype=np.complex128))
            times = _sample(_direct_step(equation, cfg), x0, cfg, (hs,), jump=cfg.sample_stride)
        else:
            def build():  # the stacked step [E; Phi]
                try:
                    pair = _step_blocks(equation.real_form, dt, cfg.method)
                    if np.isfinite(pair).all():
                        return pair
                except (ValueError, OverflowError):  # exact: dt L, or its 1-norm, overflows
                    pass
                raise NumericsError(f"the {cfg.method} step of length {dt:g} is not finite")

            times, hs = _evolve_steps(build, h0, (d, d_f), cfg, unit)
    return Trajectory._of_coords(times, hs, (d, d_f) if d_f else (d,))


def evolve_wwa(spec: SystemSpec, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the system-space master equation with the configured method:
    the engine with an empty decay sector."""
    _check_grid(cfg)
    rho0 = _check_initial(rho0, spec.d_s)
    return _evolve(spec.equation, rho0, cfg)


def evolve_enlarged(model: EnlargedModel, rho0, cfg: IntegratorConfig) -> Trajectory:
    """Evolve the enlarged-space master equation with the configured method
    from diag(``rho0``, 0): ``rho0`` is the d_s x d_s system block, and the
    decay block starts at zero.  Any other shape raises
    :class:`DimensionError` before any work.  The trajectory holds the
    system blocks in ``states`` and the decay blocks in ``decay``.
    """
    _check_grid(cfg)
    # The initial state is checked before any operator of the run is built.
    rho0 = _check_initial(rho0, model.d_s)
    return _evolve(model.system_equation, rho0, cfg)


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


def _check_rate_time(rate: float, t: float) -> None:
    # The arguments of the single decay channel's closed forms.
    for name, x in (("rate", rate), ("t", t)):
        if not 0 <= x < math.inf:  # a NaN fails too
            raise ValueError(f"{name} must be non-negative and finite")


def closed_form_1d(rate: float, t: float) -> BlockDensity:
    """Closed form of the single decay channel started in the unstable state:
    diag(exp(-rate*t), 1 - exp(-rate*t))."""
    _check_rate_time(rate, t)
    surv = float(np.exp(-rate * t))
    return BlockDensity(
        rho_ss=np.array([[surv]], dtype=np.complex128),
        rho_sf=np.zeros((1, 1), dtype=np.complex128),
        rho_fs=np.zeros((1, 1), dtype=np.complex128),
        rho_ff=np.array([[1.0 - surv]], dtype=np.complex128),
    )
