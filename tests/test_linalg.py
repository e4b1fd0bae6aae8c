import math

import numpy as np
import pytest

from opendecay import cli, linalg
from opendecay.analysis import ChoiMatrix, check_cp, check_positivity, mixedness
from opendecay.errors import DimensionError, NotHermitianError, ValidationError
from opendecay.evolution import Trajectory
from opendecay.linalg import (
    HermitianBasis,
    as_matrix,
    expm,
    frobenius,
    hermitian_basis,
    hermitian_eig,
    require_hermitian,
    unvec,
    vec,
)
from opendecay.model import (
    MasterEquation,
    SystemSpec,
    build_decay_operator,
    decompose_gamma,
    embed_operators,
    validate_spec,
)
from opendecay.randmodel import random_system

RNG = np.random.default_rng(7)


def random_complex(rows, cols, rng=RNG):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(d, rng=RNG):
    m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return 0.5 * (m + m.conj().T)


# -- HermitianBasis -------------------------------------------------------------


@pytest.mark.parametrize("d", [0, 1, 3])
def test_hermitian_basis_matrices_invert_coords(d):
    # d = 0 is the empty decay sector of a system-space run: (n, 0)
    # coordinates give (n, 0, 0) matrices.
    basis = HermitianBasis(d)
    rhos = np.array([random_hermitian(d) for _ in range(3)]).reshape(3, d, d)
    coords = np.array([basis.coords(rho) for rho in rhos]).reshape(3, d * d)
    out = basis.matrices(coords)
    assert out.shape == (3, d, d)
    np.testing.assert_allclose(out, rhos, rtol=0, atol=1e-15)


def test_hermitian_basis_is_built_once_per_dimension_and_read_only():
    basis = hermitian_basis(3)
    assert hermitian_basis(3) is basis and hermitian_basis(2) is not basis
    for a in (basis.kt, basis.first, basis.second, basis.norms_sq):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def explicit_basis(d):
    # U built column by column from its definition: column k = r + c d is
    # vec(E_rr) on the diagonal, vec(E_rc + E_cr) for r < c and
    # vec(i(E_cr - E_rc)) for r > c.
    u = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d * d):
        r, c = k % d, k // d
        m = np.zeros((d, d), dtype=complex)
        if r == c:
            m[r, r] = 1.0
        elif r < c:
            m[r, c] = m[c, r] = 1.0
        else:
            m[c, r], m[r, c] = 1j, -1j
        u[:, k] = m.reshape(-1, order="F")
    return u


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_basis_changes_of_basis_match_explicit_matrix(d):
    u = explicit_basis(d)
    u_inv = np.linalg.inv(u)
    basis = HermitianBasis(d)
    np.testing.assert_array_equal(np.diag(u.conj().T @ u).real, basis.norms_sq)
    m = random_complex(d * d, d * d)
    for got, want in ((basis.left(m), u @ m), (basis.right_inverse(m), m @ u_inv)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(basis.right_inverse(m) @ u, m, rtol=0, atol=1e-14)
    # The coordinates of a stack, one row per matrix, and of each matrix.
    rhos = np.array([random_hermitian(d) for _ in range(3)])
    want = (u_inv @ rhos.transpose(0, 2, 1).reshape(3, d * d).T).T
    assert np.abs(want.imag).max() <= 1e-15
    np.testing.assert_allclose(basis.coords(rhos), want.real, rtol=0, atol=1e-15)
    for rho, row in zip(rhos, basis.coords(rhos)):
        assert np.array_equal(basis.coords(rho), row)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_basis_real_form_of_a_liouvillian(d):
    # A Liouvillian preserves hermiticity, so U^-1 L U is real up to
    # rounding; the equation's real form, built from the columns of its
    # operators, is that matrix and maps coordinates to coordinates.  With a
    # feed F of d_f rows it has the rows U_f^-1 (conj(F) (x) F) U below.
    spec, rho0 = random_system(30 + d, d_s=d, n_lindblad=1)
    liouv = spec.equation.liouvillian().matrix
    u = explicit_basis(d)
    full = np.linalg.solve(u, liouv @ u)
    assert np.abs(full.imag).max() <= 1e-13
    basis = HermitianBasis(d)
    gen = spec.equation.real_form
    assert gen.dtype == np.float64 and gen.shape == (d * d, d * d)
    np.testing.assert_allclose(gen, full.real, rtol=0, atol=1e-13)
    rate = unvec(liouv @ vec(rho0), d)
    np.testing.assert_allclose(gen @ basis.coords(rho0), basis.coords(rate), rtol=0, atol=1e-13)
    feed = random_complex(2, d)
    fed = MasterEquation(spec.equation.generator, spec.equation.jumps, feed).real_form
    fed_full = np.linalg.solve(explicit_basis(2), np.kron(feed.conj(), feed) @ u)
    assert np.abs(fed_full.imag).max() <= 1e-13
    assert np.array_equal(fed[: d * d], gen)
    np.testing.assert_allclose(fed[d * d :], fed_full.real, rtol=0, atol=1e-13)


def test_hermiticity_gate_refuses_a_deviation_that_overflows():
    # ||a - a†||_F of [[1 + 9e307i]] overflows, and so does ||a||_F: the gate
    # fails the matrix instead of passing inf <= inf, and numpy warns of
    # nothing (warnings are errors under pytest).
    a = np.array([[1.0 + 9e307j]])
    with pytest.raises(NotHermitianError, match="deviates from hermiticity by inf"):
        require_hermitian(a, 1e-9)
    with pytest.raises(ValidationError, match="initial_state deviates from hermiticity"):
        cli._validate_initial_state(a, 1)


# -- as_matrix ------------------------------------------------------------------


def test_adjoint_rejects_nan():
    # Every operator and state enters through as_matrix, which rejects NaN.
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 0]]))


# -- frobenius ------------------------------------------------------------------


def test_frobenius_rescales_only_when_the_sum_of_squares_overflows():
    # Above about 1.3e154 the plain sum of squares is inf; the norm is not.
    assert frobenius([[1e200]]) == 1e200
    assert frobenius([[3e200, 4e200j]]) == pytest.approx(5e200, rel=1e-15)
    assert frobenius(np.full((2, 2), 1e308)) == np.inf  # 2e308 is beyond the float range
    m = random_complex(4, 4)
    assert frobenius(m) == float(np.linalg.norm(m))


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


# -- the hermiticity gate, through each caller --------------------------------

# caller: (tolerance, error raised, call on a 2 x 2 matrix)
GATE_CALLERS = {
    "hermitian_eig": (1e-10, NotHermitianError, hermitian_eig),
    "validate_spec H": (
        1e-10,
        NotHermitianError,
        lambda a: validate_spec(SystemSpec(d_s=2, d_f=2, hamiltonian=a, decay_matrix=np.eye(2))),
    ),
    "validate_spec Gamma": (
        1e-10,
        NotHermitianError,
        lambda a: validate_spec(SystemSpec(d_s=2, d_f=2, hamiltonian=np.eye(2), decay_matrix=a)),
    ),
    "check_positivity": (
        1e-10, NotHermitianError, lambda a: check_positivity(Trajectory(times=[0.0], states=(a,)))
    ),
    "check_cp": (1e-10, NotHermitianError, lambda a: check_cp(ChoiMatrix(matrix=a, dim=1))),
    "mixedness": (1e-10, NotHermitianError, mixedness),
    "initial_state": (1e-9, ValidationError, lambda a: cli._validate_initial_state(a, 2)),
}


@pytest.mark.parametrize("caller", list(GATE_CALLERS))
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_hermiticity_gate_tolerance(caller, scale):
    tol, error, call = GATE_CALLERS[caller]
    # diag(1/2, 1/2), a unit-trace state, plus an anti-hermitian part with
    # ||a - a†||_F = scale * tol; ||a||_F < 1, so the allowed deviation is tol.
    eps = scale * tol / np.sqrt(2.0)
    a = np.array([[0.5, eps], [0.0, 0.5]], dtype=np.complex128)
    if scale < 1:
        call(a)
    else:
        with pytest.raises(error, match="deviates from hermiticity"):
            call(a)


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
    model = embed_operators(spec, decay)
    liouv = model.liouvillian.matrix
    # The real pair [L_ss; L_fs] of the system-block equation, against the
    # first n_s columns of the exponential of [[L_ss, 0], [L_fs, 0]].
    pair = model.system_equation.real_form
    n_s, n = pair.shape[1], pair.shape[0]
    aug = np.zeros((n, n))
    aug[:, :n_s] = pair
    for t in (0.1, 1.0):
        ref = sl.expm(liouv * t)
        assert np.linalg.norm(expm(liouv * t) - ref) <= 1e-12 * np.linalg.norm(ref)
        ref = sl.expm(aug * t)[:, :n_s]
        out = expm(pair * t)
        assert out.shape == (n, n_s) and out.dtype == np.float64
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def _generator_inputs(d_s, seed):
    # The generator of a random model as the four kinds of input: L_ss and
    # the pair [L_ss; L_fs], in real coordinates and as complex vec()
    # superoperators taken from the enlarged Kronecker Liouvillian.
    spec, _ = random_system(seed, d_s, n_lindblad=2)
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), spec.d_f)
    model = embed_operators(spec, decay)
    real = model.system_equation.real_form
    d_tot = model.d_tot
    idx = np.arange(d_tot * d_tot).reshape((d_tot, d_tot), order="F")
    ss, ff = idx[:d_s, :d_s].ravel(order="F"), idx[d_s:, d_s:].ravel(order="F")
    full = model.liouvillian.matrix
    pair = full[np.concatenate((ss, ff))][:, ss]
    return {"square real": real[: d_s * d_s], "pair real": real,
            "square complex": pair[: d_s * d_s], "pair complex": pair}


def _block_column(sl, pair):
    # The first n columns of exp([[A, 0], [C, 0]]) for the pair [A; C].
    n = pair.shape[1]
    aug = np.zeros((pair.shape[0],) * 2, dtype=pair.dtype)
    aug[:, :n] = pair
    return sl.expm(aug)[:, :n]


@pytest.mark.parametrize("norm", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("d_s, seed", [(2, 7), (3, 8)])
def test_expm_matches_scipy_from_tiny_to_large_norms(d_s, seed, norm):
    # Every kind of input, scaled to the 1-norm ``norm``: square and pair,
    # real and complex, in C and in Fortran order.  At 1e4 the system block
    # has decayed below the smallest float, and both give exact zeros there.
    sl = pytest.importorskip("scipy.linalg")
    for kind, m in _generator_inputs(d_s, seed).items():
        m = m * (norm / np.linalg.norm(m, 1))
        want = _block_column(sl, m)
        for a in (np.ascontiguousarray(m), np.asfortranarray(m)):
            got = expm(a)
            assert got.shape == m.shape and got.dtype == m.dtype, kind
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), kind


@pytest.mark.parametrize("norm", [1e-6, 1e-2, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("kind", ["pair real", "pair complex"])
@pytest.mark.parametrize("d_s, seed", [(2, 7), (3, 8), (4, 9)])
def test_expm_pair_rows_match_the_square_exponential(d_s, seed, kind, norm):
    # [E; Phi] of the pair has exp(A) as its first n rows, although the
    # pair's larger norm may pick another degree and more squarings.  From a
    # norm of about 30 the decayed E differs by more, up to 4e-15 relative at
    # 1e2, as two plans' rounding is amplified by the squarings.
    pair = _generator_inputs(d_s, seed)[kind]
    pair = pair * (norm / np.linalg.norm(pair, 1))
    n = pair.shape[1]
    square = expm(pair[:n])
    assert np.linalg.norm(expm(pair)[:n] - square) <= 1e-15 * np.linalg.norm(square)


def test_expm_takes_no_linear_solve(monkeypatch):
    # The Taylor approximant needs no solve and no inverse, at any degree.
    def refuse(*args, **kwargs):
        raise AssertionError("expm called a linear solve")

    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    m = _generator_inputs(3, 8)["pair complex"]
    for norm in (0.0, 1e-8, 1e-3, 0.5, 2.0, 3.0, 1e3):
        for a in (m, m.real, m[: m.shape[1]]):
            expm(a * (norm / np.linalg.norm(a, 1)))


def _plan_oracle(norm):
    # The rule by brute force: for each degree the fewest halvings that bring
    # the norm to theta_m, then the fewest products in all, and on a tie the
    # fewer squarings.
    best = None
    for m, theta, products in linalg._TAYLOR:
        s = 0
        while math.ldexp(norm, -s) > theta:
            s += 1
        if best is None or (products + s, s) < best[0]:
            best = (products + s, s), (m, s)
    return best[1]


def test_taylor_degrees_are_the_paterson_stockmeyer_optimal_ones():
    # Degree m costs min over k of (k - 1) + (m - 1) // k products, and each
    # tabled degree is the highest that its product count reaches.
    def cost(m):
        return min(k - 1 + (m - 1) // k for k in range(1, m + 1))

    table = [(m, products) for m, _, products in linalg._TAYLOR]
    assert table == [(max(m for m in range(2, 40) if cost(m) <= p), p) for p in range(1, 10)]
    assert all(cost(m) == p == linalg._block(m) - 1 + (m - 1) // linalg._block(m) for m, p in table)


def test_taylor_plan_at_the_theta_boundaries():
    # Just below, at and just above theta_m 2^s the rule's choice changes
    # where the brute force's does; the 1-norm 2.06 of 0.1 L_ss of the
    # d_s = 16 benchmark model takes degree 25 and no squaring.
    assert linalg._taylor_plan(2.06) == (25, 0)
    assert linalg._taylor_plan(2.43) == (25, 0)
    assert linalg._taylor_plan(math.nextafter(2.43, math.inf)) == (20, 1)
    assert linalg._taylor_plan(0.0) == (2, 0)
    for _, theta, _ in linalg._TAYLOR:
        for s in range(4):
            edge = math.ldexp(theta, s)
            for norm in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                m, squarings = linalg._taylor_plan(norm)
                assert (m, squarings) == _plan_oracle(norm), norm
                theta_m = dict((d, t) for d, t, _ in linalg._TAYLOR)[m]
                assert math.ldexp(norm, -squarings) <= theta_m
                assert squarings == 0 or math.ldexp(norm, 1 - squarings) > theta_m


@pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
def test_expm_of_no_columns_is_empty(shape):
    for dtype in (np.float64, np.complex128):
        out = expm(np.zeros(shape, dtype=dtype))
        assert out.shape == shape and out.dtype == dtype


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="non-finite"):
        expm(np.array([[0.0, bad], [0.0, 0.0]]))


@pytest.mark.parametrize("shape", [(3, 4), (4,)], ids=["wide", "one-dimensional"])
def test_expm_rejects_wide_and_one_dimensional_input(shape):
    # A matrix with fewer rows than columns is neither square nor a
    # stacked pair [A; C].
    with pytest.raises(DimensionError):
        expm(np.zeros(shape))


# -- vec / unvec --------------------------------------------------------------


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
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.abs(lhs - rhs).max() <= 1e-12
