import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opendecay.errors import DimensionError, NotHermitianError
from opendecay.linalg import (
    adjoint,
    expm,
    hermitian_eig,
    kron,
    matmul,
    min_eigenvalue_hermitian,
    unvec,
    vec,
)
from opendecay.model import SystemSpec, build_decay_operator, decompose_gamma, embed_operators
from opendecay.randmodel import random_system

RNG = np.random.default_rng(7)


def random_complex(rows, cols, rng=RNG):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(d, rng=RNG):
    m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return 0.5 * (m + m.conj().T)


complex_3x3 = arrays(
    np.complex128,
    (3, 3),
    elements=st.complex_numbers(
        min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
    ),
)


# -- adjoint ------------------------------------------------------------------


def test_adjoint_identity():
    assert np.array_equal(adjoint(np.eye(2)), np.eye(2))


def test_adjoint_lower_left_block():
    b = 2.0 - 3.0j
    m = np.array([[0, 0], [b, 0]])
    expected = np.array([[0, np.conj(b)], [0, 0]])
    assert np.array_equal(adjoint(m), expected)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(complex_3x3)
def test_adjoint_involution(m):
    assert np.array_equal(adjoint(adjoint(m)), m)


def test_adjoint_rejects_nan():
    with pytest.raises(ValueError):
        adjoint(np.array([[np.nan, 0], [0, 0]]))


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    m = random_complex(3, 3)
    assert np.allclose(matmul(np.eye(3), m), m, atol=0)


def test_matmul_decay_gram():
    # hand expansion: [[0,0],[g,0]] @ [[0,conj(g)],[0,0]] = diag(0, |g|^2)
    g = np.sqrt(2.0)
    b = np.array([[0, 0], [g, 0]])
    prod = matmul(b, adjoint(b))
    assert np.allclose(prod, np.diag([0.0, 2.0]), atol=1e-15)


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionError):
        matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_associative():
    a, b, c = (random_complex(3, 3) for _ in range(3))
    left = matmul(matmul(a, b), c)
    right = matmul(a, matmul(b, c))
    assert np.abs(left - right).max() < 1e-12


# -- hermitian_eig ------------------------------------------------------------


def test_hermitian_eig_diagonal():
    eig = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=0)
    assert np.allclose(np.abs(eig.eigenvectors), [[0, 1], [1, 0]], atol=1e-15)


def test_hermitian_eig_coupled_pair():
    # characteristic polynomial lambda^2 - 4 lambda + 3 -> eigenvalues 1, 3
    eig = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    s = 1 / np.sqrt(2)
    assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-14)
    # sign convention: largest-magnitude component real positive
    assert np.allclose(eig.eigenvectors[:, 0], [s, -s], atol=1e-14)
    assert np.allclose(eig.eigenvectors[:, 1], [s, s], atol=1e-14)


def test_hermitian_eig_zero_matrix():
    eig = hermitian_eig(np.zeros((2, 2)))
    assert np.array_equal(eig.eigenvalues, [0.0, 0.0])


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_hermitian_eig_reconstruction(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        m = random_hermitian(d, rng)
        eig = hermitian_eig(m)
        v, lam = eig.eigenvectors, eig.eigenvalues
        assert np.linalg.norm(m - v @ np.diag(lam) @ v.conj().T) <= 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10
        assert np.all(np.diff(lam) >= 0)


# -- expm ---------------------------------------------------------------------


def _taylor_expm(m, terms=20):
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def test_expm_zero():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=0)


def test_expm_diagonal_decay():
    # exp(-Gamma t) at Gamma = 1, t = ln 2 halves the population
    out = expm(np.diag([-np.log(2.0)]))
    assert abs(out[0, 0] - 0.5) < 1e-14


def test_expm_rotation_is_unitary():
    theta = 0.7
    u = expm(np.array([[0.0, -theta], [theta, 0.0]]))
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-10
    assert np.allclose(
        u, [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], atol=1e-13
    )


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_complex(4, 4, rng)
        m /= max(1.0, np.linalg.norm(m))  # keep within the oracle's radius
        assert np.linalg.norm(expm(m) - _taylor_expm(m)) <= 1e-10


def test_expm_inverse_property():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = random_complex(4, 4, rng)
        m *= 5.0 / max(5.0, np.linalg.norm(m))
        assert np.linalg.norm(expm(m) @ expm(-m) - np.eye(4)) <= 1e-9


def test_expm_block_diagonal():
    a = random_complex(2, 2)
    b = random_complex(3, 3)
    full = np.zeros((5, 5), dtype=complex)
    full[:2, :2] = a
    full[2:, 2:] = b
    out = expm(full)
    assert np.linalg.norm(out[:2, :2] - expm(a)) <= 1e-10
    assert np.linalg.norm(out[2:, 2:] - expm(b)) <= 1e-10
    assert np.linalg.norm(out[:2, 2:]) <= 1e-12


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
@pytest.mark.parametrize("d_s, seed", [(2, 7), (3, 8)])
def test_expm_matches_scipy_on_stiff_liouvillians(d_s, seed, scale):
    # Decay and Lindblad rates scaled by `scale` (the operators A by its
    # square root): stiff, non-normal generators with ||L|| up to ~1e3.
    sl = pytest.importorskip("scipy.linalg")
    spec, _ = random_system(seed, d_s, n_lindblad=2)
    spec = SystemSpec(
        d_s=spec.d_s,
        d_f=spec.d_f,
        hamiltonian=spec.hamiltonian,
        decay_matrix=spec.decay_matrix * scale,
        lindblad_ops=tuple(a * np.sqrt(scale) for a in spec.lindblad_ops),
    )
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), spec.d_f)
    liouv = embed_operators(spec, decay).liouvillian.matrix
    for t in (0.1, 1.0):
        ref = sl.expm(liouv * t)
        assert np.linalg.norm(expm(liouv * t) - ref) <= 1e-12 * np.linalg.norm(ref)


# -- kron / vec / unvec --------------------------------------------------------


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diag():
    out = kron(np.diag([2.0, 3.0]), np.eye(2))
    assert np.allclose(out, np.diag([2.0, 2.0, 3.0, 3.0]), atol=0)


def test_vec_column_stacking():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])


def test_vec_zero():
    assert np.array_equal(vec(np.zeros((2, 3))), np.zeros(6))


def test_unvec_round_trip():
    m = random_complex(3, 3)
    assert np.array_equal(unvec(vec(m), 3, 3), m)


def test_unvec_length_mismatch():
    with pytest.raises(DimensionError):
        unvec(np.zeros(5), 2, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_vec_kron_identity(d):
    # vec(A X B) = (B^T kron A) vec(X), brute-forced on both sides
    rng = np.random.default_rng(20 + d)
    for _ in range(5):
        a, x, b = (random_complex(d, d, rng) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = kron(b.T, a) @ vec(x)
        assert np.abs(lhs - rhs).max() <= 1e-12


# -- min_eigenvalue_hermitian ---------------------------------------------------


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue_hermitian(np.diag([0.3, 0.7])) == pytest.approx(0.3)


def test_min_eigenvalue_coupled():
    assert min_eigenvalue_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)


def test_min_eigenvalue_negative():
    assert min_eigenvalue_hermitian(-np.eye(2)) == pytest.approx(-1.0)


def test_min_eigenvalue_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        min_eigenvalue_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
