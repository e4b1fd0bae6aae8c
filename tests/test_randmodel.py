import hashlib
import math

import numpy as np
import pytest

from opendecay import randmodel
from opendecay.model import decompose_gamma, validate_spec
from opendecay.randmodel import SplitMix64, random_system

# Published output of the SplitMix64 reference algorithm for seed 0.
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_splitmix64_reference_stream():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(5)) == SEED0_STREAM


def test_splitmix64_uniform_range():
    rng = SplitMix64(123)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_splitmix64_gaussian_moments():
    rng = SplitMix64(7)
    xs = np.array([rng.gaussian() for _ in range(20000)])
    assert abs(xs.mean()) < 0.05
    assert abs(xs.std() - 1.0) < 0.05


def test_random_system_deterministic():
    a_spec, a_rho = random_system(99, d_s=3, n_lindblad=2)
    b_spec, b_rho = random_system(99, d_s=3, n_lindblad=2)
    assert np.array_equal(a_spec.hamiltonian, b_spec.hamiltonian)
    assert np.array_equal(a_spec.decay_matrix, b_spec.decay_matrix)
    assert np.array_equal(a_rho, b_rho)
    c_spec, _ = random_system(100, d_s=3, n_lindblad=2)
    assert not np.array_equal(a_spec.hamiltonian, c_spec.hamiltonian)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 5])
def test_random_system_always_valid(seed):
    spec, rho0 = random_system(seed, d_s=3, n_lindblad=2)
    validate_spec(spec)
    assert np.abs(spec.hamiltonian).max() <= 1.0 + 1e-12
    assert np.abs(spec.decay_matrix).max() <= 1.0 + 1e-12
    for a in spec.lindblad_ops:
        assert np.abs(a).max() <= 1.0 + 1e-12
    assert abs(np.trace(rho0).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho0)[0] >= -1e-12


def test_random_system_rank_control():
    spec, _ = random_system(3, d_s=3, rank=2)
    dec = decompose_gamma(spec.decay_matrix)
    assert dec.rank == 2 and dec.null_dim == 1
    assert spec.d_f == 2


def test_random_system_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_system(0, d_s=2, rank=3)


# -- the vectorized draw against the scalar SplitMix64 stream -------------------

_MASK = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _scalar_gaussian_matrix(rng, rows, cols):
    # The draw entry by entry from the public reference stream: two Gaussians
    # of one Box-Muller pair per complex entry.
    out = np.empty((rows, cols), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = complex(rng.gaussian(), rng.gaussian()) / math.sqrt(2.0)
    return out


def _scalar_random_system(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(randmodel, "_gaussian_matrix", _scalar_gaussian_matrix)
        return random_system(*args, **kwargs)


def _assert_same_system(got, want):
    (spec, rho0), (ref_spec, ref_rho0) = got, want
    assert spec.d_f == ref_spec.d_f
    assert np.array_equal(spec.hamiltonian, ref_spec.hamiltonian)
    assert np.array_equal(spec.decay_matrix, ref_spec.decay_matrix)
    assert len(spec.lindblad_ops) == len(ref_spec.lindblad_ops)
    for a, b in zip(spec.lindblad_ops, ref_spec.lindblad_ops):
        assert np.array_equal(a, b)
    assert np.array_equal(rho0, ref_rho0)


@pytest.mark.parametrize("seed", [0, 42, 777, 2**64 - 1])
@pytest.mark.parametrize("d_s", [1, 2, 5, 16, 17])
def test_random_system_is_bit_identical_to_the_scalar_stream(monkeypatch, seed, d_s):
    for rank in sorted({1, d_s}):
        for n_lindblad in (0, 1, 3):
            args = (seed, d_s, n_lindblad, rank)
            _assert_same_system(random_system(*args), _scalar_random_system(monkeypatch, *args))


def _unmix(x: int) -> int:
    # The state whose SplitMix64 output is x: the inverse of the mixing.
    def unshift(y, s):
        z = y
        for _ in range(64 // s + 1):
            z = y ^ (z >> s)
        return z

    x = unshift(x, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 2**64)) & _MASK
    x = unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _MASK
    return unshift(x, 30)


@pytest.mark.parametrize("entry", [0, 7, 300])
def test_a_zero_uniform_falls_back_to_the_scalar_stream(monkeypatch, entry):
    # The seed whose uniform u of entry ``entry`` (its (2 entry + 1)-th draw)
    # is exactly 0; the scalar stream skips it, shifting every later entry.
    seed = (_unmix(0) - (2 * entry + 1) * _GOLDEN) & _MASK
    rng = SplitMix64(seed)
    draws = [rng.uniform() for _ in range(2 * entry + 1)]
    assert draws[-1] == 0.0 and all(draws[:-1])
    for d_s in (1, 5, 16):
        args = (seed, d_s, 1, d_s)
        _assert_same_system(random_system(*args), _scalar_random_system(monkeypatch, *args))


def test_random_system_bytes_are_pinned():
    # sha256 of H, Gamma, the Lindblad operator and rho0 of the d_s = 16 model
    # at seed 42, as drawn entry by entry before the draw was vectorized.
    spec, rho0 = random_system(42, 16)
    digest = hashlib.sha256()
    for a in (spec.hamiltonian, spec.decay_matrix, *spec.lindblad_ops, rho0):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert spec.d_f == 16
    assert digest.hexdigest() == "43e151e9381f265084f497a1bed4c9f5bd6931f8149cdf1ffcbe78a81355244c"
