"""Seeded random model generation.

Random matrices come from a SplitMix-style 64-bit generator (the standard
reference constants) with Box-Muller sampling, so a given seed reproduces the
same model in any implementation of the same scheme.  :class:`SplitMix64` is
the reference stream; a matrix is drawn from it at once, bit-identical to
drawing it entry by entry.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SystemSpec, decompose_gamma

__all__ = ["SplitMix64", "random_system"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Generated operator entries are rescaled to this peak magnitude (well inside
# the unit bound) to keep generator norms modest for fixed-step integration.
PEAK_ENTRY = 0.5
# Most complex entries one random_system call may draw.  Each costs about
# 0.26 us (one numpy mix of its two states and one Box-Muller pair through
# ``math``), so the cap keeps generation near a quarter of a second however
# large a config asks d_s or n_lindblad to be.
MAX_ENTRIES = 10**6


class SplitMix64:
    """Deterministic 64-bit stream; ``uniform`` yields doubles in [0, 1)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        if self._spare is not None:
            g, self._spare = self._spare, None
            return g
        u = 0.0
        while u == 0.0:
            u = self.uniform()
        v = self.uniform()
        r = math.sqrt(-2.0 * math.log(u))
        self._spare = r * math.sin(2.0 * math.pi * v)
        return r * math.cos(2.0 * math.pi * v)


def _gaussian_matrix(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    """The next rows x cols complex entries of ``rng``, row by row, each
    (g1 + i g2) / sqrt(2) for the two Gaussians of one Box-Muller pair.

    While no u is 0, entry m takes the uniforms of states seed + k * golden
    for k = 2m + 1 and 2m + 2, so all of them are mixed at once as a uint64
    array.  Box-Muller then runs per pair through ``math``, since numpy's
    log, cos and sin may differ from it in the last bit, so every entry
    equals the scalar stream's.  A u of exactly 0, which the scalar stream
    skips, sends the whole matrix to the scalar stream from the same state.
    The stream must not be halfway through a pair, as random_system's never
    is.
    """
    n = rows * cols
    z = np.arange(1, 2 * n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(rng._state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    uniforms = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u, v = uniforms[0::2], uniforms[1::2]
    if not u.all():
        return _scalar_gaussian_matrix(rng, rows, cols)
    rng._state = (rng._state + 2 * n * _GOLDEN) & _MASK
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u.tolist()), np.float64, n))
    angle = (2.0 * math.pi * v).tolist()
    scale = math.sqrt(2.0)
    out = np.empty((rows, cols), dtype=np.complex128)
    out.real = (r * np.fromiter(map(math.cos, angle), np.float64, n) / scale).reshape(rows, cols)
    out.imag = (r * np.fromiter(map(math.sin, angle), np.float64, n) / scale).reshape(rows, cols)
    return out


def _scalar_gaussian_matrix(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    out = np.empty((rows, cols), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = complex(rng.gaussian(), rng.gaussian()) / math.sqrt(2.0)
    return out


def _rescale(m: np.ndarray) -> np.ndarray:
    peak = float(np.abs(m).max()) if m.size else 0.0
    if peak == 0.0:
        return m
    return m * (PEAK_ENTRY / peak)


def random_system(
    seed: int,
    d_s: int,
    n_lindblad: int = 1,
    rank: int | None = None,
) -> tuple[SystemSpec, np.ndarray]:
    """Generate a valid system plus a PSD trace-one initial state.

    The Hamiltonian is a symmetrized complex Gaussian matrix, the decay
    matrix is G†G for a Gaussian G with ``rank`` rows (guaranteeing positive
    semidefiniteness at the requested rank), and each Lindblad operator is an
    unconstrained Gaussian matrix; every operator is rescaled to peak entry
    magnitude ``PEAK_ENTRY``.  The decay dimension is set to the realized rank
    of the decay matrix.  Returns ``(spec, rho0)``.  Raises ``ValueError``
    for a request that would draw more than ``MAX_ENTRIES`` entries.
    """
    if d_s < 1:
        raise ValueError("d_s must be positive")
    if rank is None:
        rank = d_s
    if not 1 <= rank <= d_s:
        raise ValueError(f"rank must lie in [1, {d_s}], got {rank}")
    if n_lindblad < 0:
        raise ValueError("n_lindblad must be non-negative")
    entries = (2 + n_lindblad) * d_s * d_s + rank * d_s
    if entries > MAX_ENTRIES:
        raise ValueError(
            f"d_s={d_s}, rank={rank}, n_lindblad={n_lindblad} would draw {entries} "
            f"entries, more than MAX_ENTRIES = {MAX_ENTRIES}"
        )
    rng = SplitMix64(seed)
    w = _gaussian_matrix(rng, d_s, d_s)
    hamiltonian = _rescale(0.5 * (w + w.conj().T))
    g = _gaussian_matrix(rng, rank, d_s)
    gamma = _rescale(g.conj().T @ g)
    ops = tuple(_rescale(_gaussian_matrix(rng, d_s, d_s)) for _ in range(n_lindblad))
    r = _gaussian_matrix(rng, d_s, d_s)
    s = r.conj().T @ r
    trace = float(np.trace(s).real)
    rho0 = s / trace if trace > 1e-12 else np.eye(d_s, dtype=np.complex128) / d_s
    dec = decompose_gamma(gamma)
    spec = SystemSpec(
        d_s=d_s,
        d_f=max(dec.rank, 1),
        hamiltonian=hamiltonian,
        decay_matrix=gamma,
        lindblad_ops=ops,
    )
    spec.__dict__["decomposition"] = dec  # validate_spec reads it, not decomposes again
    return spec, rho0
