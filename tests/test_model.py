import numpy as np
import pytest

from opendecay.errors import (
    ConstraintError,
    DimensionError,
    NotHermitianError,
    NotPSDError,
    NumericsError,
)
from opendecay.evolution import IntegratorConfig, evolve_enlarged, rhs_enlarged, rhs_wwa
from opendecay.linalg import HermitianBasis, expm, hermitian_eig, unvec, vec
from opendecay.model import (
    DEFAULT_ZERO_TOL,
    MasterEquation,
    SystemSpec,
    assemble_liouvillian,
    assemble_liouvillian_wwa,
    build_decay_operator,
    decompose_gamma,
    effective_hamiltonian,
    embed_operators,
    validate_spec,
)
from opendecay.randmodel import random_system


def single_decay_spec(m=1.0, gamma=1.0):
    return SystemSpec(d_s=1, d_f=1, hamiltonian=[[m]], decay_matrix=[[gamma]])


def random_hermitian(d, rng):
    m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return 0.5 * (m + m.conj().T)


# -- validate_spec -------------------------------------------------------------


def test_validate_minimal_single_decay():
    spec = single_decay_spec()
    assert validate_spec(spec) is spec


def test_validate_rejects_negative_gamma():
    with pytest.raises(NotPSDError):
        validate_spec(SystemSpec(d_s=1, d_f=1, hamiltonian=[[0.0]], decay_matrix=[[-1.0]]))


def test_validate_rejects_small_decay_space():
    spec = SystemSpec(d_s=2, d_f=1, hamiltonian=np.zeros((2, 2)), decay_matrix=np.eye(2))
    with pytest.raises(DimensionError):
        validate_spec(spec)


def test_validate_counts_huge_rates():
    # ||Gamma||_F of 1.4e200 must not overflow the zero cut to inf, which
    # would count both rates as zero.
    spec = SystemSpec(d_s=2, d_f=1, hamiltonian=np.zeros((2, 2)), decay_matrix=1e200 * np.eye(2))
    with pytest.raises(DimensionError, match="rank\\(Gamma\\)=2"):
        validate_spec(spec)


def test_validate_rejects_nonhermitian_h():
    spec = SystemSpec(
        d_s=2, d_f=2, hamiltonian=[[0.0, 1.0], [0.0, 0.0]], decay_matrix=np.eye(2)
    )
    with pytest.raises(NotHermitianError):
        validate_spec(spec)


def test_spec_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        SystemSpec(d_s=2, d_f=1, hamiltonian=np.zeros((3, 3)), decay_matrix=np.eye(2))


# -- decompose_gamma -----------------------------------------------------------


def test_decompose_diagonal_with_null_space():
    dec = decompose_gamma(np.diag([1.0, 0.0]))
    assert dec.rank == 1 and dec.null_dim == 1
    assert np.allclose(dec.rates, [1.0], atol=0)
    assert np.allclose(dec.modes[:, 0], [1.0, 0.0], atol=1e-15)


def test_decompose_coupled_pair():
    dec = decompose_gamma(np.array([[2.0, 1.0], [1.0, 2.0]]))
    s = 1 / np.sqrt(2)
    assert dec.rank == 2 and dec.null_dim == 0
    assert np.allclose(dec.rates, [3.0, 1.0], atol=1e-14)  # descending
    assert np.allclose(dec.modes[:, 0], [s, s], atol=1e-14)
    assert np.allclose(dec.modes[:, 1], [s, -s], atol=1e-14)


def test_decompose_zero_matrix():
    dec = decompose_gamma(np.zeros((2, 2)))
    assert dec.rank == 0 and dec.null_dim == 2
    assert dec.rates.size == 0


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_validate_agrees_with_the_run_decomposition(scale):
    # Around the bound -1e-10, the relative bound and the zero cut of
    # decompose_gamma, 1e-12 max(1, ||Gamma||_F): validate_spec rejects every
    # Gamma that decompose_gamma rejects, and where both pass it counts the
    # same rank (d_f = rank passes, d_f = rank - 1 does not).
    def outcome(gamma, d_f):
        d = len(gamma)
        try:
            validate_spec(SystemSpec(d_s=d, d_f=d_f, hamiltonian=np.zeros((d, d)), decay_matrix=gamma))
        except (NotPSDError, DimensionError) as e:
            return type(e)

    rng = np.random.default_rng(7)
    rejected = ranked = 0
    for d in (2, 3, 5):
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        for bound in (1e-10, 1e-12 * max(1.0, scale * np.sqrt(d - 1))):
            for x in bound * np.array([-1.001, -1.0, -0.999, 0.999, 1.0, 1.001]):
                gamma = (u * np.r_[np.full(d - 1, scale), x]) @ u.conj().T
                try:
                    rank = decompose_gamma(gamma).rank
                except NotPSDError:
                    assert outcome(gamma, d) is NotPSDError
                    rejected += 1
                    continue
                if outcome(gamma, rank) is not NotPSDError:  # -1e-10 rejects more
                    assert outcome(gamma, rank) is None
                    assert outcome(gamma, rank - 1) is DimensionError
                    ranked += 1
    assert rejected and ranked


def test_decompose_gamma_is_the_one_decision_on_gamma():
    # ||Gamma||_F = 1000 puts the zero cut at 1e-9: the eigenvalue -5e-10
    # lies above -cut but below the one reject bound -min(1e-10, cut), so a
    # library call rejects it as parsing does.  validate_spec reports
    # decompose_gamma's errors, named for Gamma, and its rank.
    gamma = np.diag([1000.0, -5e-10])
    with pytest.raises(NotPSDError, match="^Gamma has eigenvalue -5.000e-10 < -1e-10$"):
        decompose_gamma(gamma)
    spec = SystemSpec(d_s=2, d_f=2, hamiltonian=np.zeros((2, 2)), decay_matrix=gamma)
    with pytest.raises(NotPSDError, match="-5.000e-10"):
        validate_spec(spec)
    lopsided = SystemSpec(d_s=2, d_f=2, hamiltonian=np.zeros((2, 2)), decay_matrix=[[1, 1e-3], [0, 1]])
    with pytest.raises(NotHermitianError, match="^Gamma deviates from hermiticity"):
        validate_spec(lopsided)
    spec = SystemSpec(d_s=2, d_f=1, hamiltonian=np.zeros((2, 2)), decay_matrix=np.diag([2.0, 0.0]))
    assert validate_spec(spec) is spec and spec.decomposition.rank == 1
    assert spec.decomposition is spec.decomposition


def test_decompose_keeps_a_huge_rate():
    dec = decompose_gamma([[1e200]])
    assert dec.rank == 1 and dec.rates[0] == 1e200


def test_decompose_rejects_negative():
    with pytest.raises(NotPSDError):
        decompose_gamma(np.diag([1.0, -0.5]))


def _tuple_key_order(gamma):
    # The reference order: one sort by (-rate, rounded eigenvector entries)
    # over every kept eigenvalue, with the keys built for every column.
    eig = hermitian_eig(gamma)
    lam, vecs = eig.eigenvalues, eig.eigenvectors
    cut = DEFAULT_ZERO_TOL * max(1.0, float(np.linalg.norm(gamma)))

    def key(j):
        col = vecs[:, j]
        return -lam[j], tuple((round(float(z.real), 12), round(float(z.imag), 12)) for z in col)

    order = sorted((j for j in range(lam.size) if lam[j] > cut), key=key)
    return lam[order], vecs[:, order]


def _rotated(rates, seed):
    rng = np.random.default_rng(seed)
    n = len(rates)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    g = q @ np.diag(rates) @ q.conj().T
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize(
    "gamma",
    [
        np.eye(4),
        np.diag([2.0, 1.0, 2.0, 1.0, 0.0, 1.0]),
        np.diag([0.5, 0.5, 0.25]) + 0j,
        _rotated([1.0, 1.0, 1.0, 0.5, 0.5], 3),
        _rotated([2.0, 2.0, 0.0, 0.0], 4),
    ],
    ids=["identity", "repeated", "repeated-complex", "rotated-degenerate", "rotated-singular"],
)
def test_decompose_gamma_orders_ties_as_the_tuple_key_sort(gamma):
    dec = decompose_gamma(gamma)
    rates, modes = _tuple_key_order(gamma)
    assert np.array_equal(dec.rates, rates)
    assert np.array_equal(dec.modes, modes)


def test_decompose_reconstruction_property():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gamma = g.conj().T @ g
        dec = decompose_gamma(gamma)
        rebuilt = dec.modes @ np.diag(dec.rates) @ dec.modes.conj().T
        assert np.linalg.norm(rebuilt - gamma) <= 1e-10
        assert np.linalg.norm(dec.modes.conj().T @ dec.modes - np.eye(dec.rank)) <= 1e-12


# -- build_decay_operator --------------------------------------------------------


def test_build_single_rate():
    dec = decompose_gamma(np.array([[2.25]]))
    op = build_decay_operator(dec, 1)
    assert np.allclose(op.matrix, [[1.5]], atol=1e-15)


def test_build_diagonal_rates():
    dec = decompose_gamma(np.diag([4.0, 1.0]))
    op = build_decay_operator(dec, 2)
    assert np.allclose(np.abs(op.matrix), np.diag([2.0, 1.0]), atol=1e-14)
    assert np.linalg.norm(op.gram - np.diag([4.0, 1.0])) <= 1e-10


def test_build_zero_gamma():
    dec = decompose_gamma(np.zeros((2, 2)))
    op = build_decay_operator(dec, 2)
    assert np.array_equal(op.matrix, np.zeros((2, 2)))


def test_build_rejects_small_decay_space():
    dec = decompose_gamma(np.eye(2))
    with pytest.raises(DimensionError):
        build_decay_operator(dec, 1)


def test_build_custom_coefficients():
    dec = decompose_gamma(np.diag([4.0, 1.0]))
    # rotate the canonical coefficients by a unitary on the decay space
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    op = build_decay_operator(dec, 2, coeffs=u @ np.diag([2.0, 1.0]))
    assert np.linalg.norm(op.gram - np.diag([4.0, 1.0])) <= 1e-10


def test_build_rejects_bad_coefficients():
    dec = decompose_gamma(np.diag([4.0, 1.0]))
    with pytest.raises(ConstraintError):
        build_decay_operator(dec, 2, coeffs=np.eye(2))


def test_gram_matches_gamma_property(corpus):
    for m in corpus:
        assert np.linalg.norm(m.decay.gram - m.spec.decay_matrix) <= 1e-10


def test_gauge_freedom_same_system_trajectory():
    # any unitary rotation of the decay coefficients leaves rho_ss alone
    spec, rho0 = random_system(5, d_s=2, n_lindblad=1)
    dec = decompose_gamma(spec.decay_matrix)
    canonical = build_decay_operator(dec, spec.d_f)
    theta = 0.8
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    rotated = build_decay_operator(dec, spec.d_f, coeffs=u @ canonical.coeffs)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=100)
    t1 = evolve_enlarged(embed_operators(spec, canonical), rho0, cfg)
    t2 = evolve_enlarged(embed_operators(spec, rotated), rho0, cfg)
    for k in range(len(t1)):
        assert np.linalg.norm(t1.states[k] - t2.states[k]) <= 1e-9


# -- embed_operators -------------------------------------------------------------


def test_embed_single_decay():
    spec = single_decay_spec(m=1.0, gamma=1.0)
    model = embed_operators(spec, build_decay_operator(decompose_gamma([[1.0]]), 1))
    assert np.allclose(model.hamiltonian, [[1.0, 0.0], [0.0, 0.0]], atol=0)
    assert np.allclose(model.decay_op, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_embed_zero_blocks_for_lindblad_ops():
    spec = SystemSpec(
        d_s=2,
        d_f=2,
        hamiltonian=np.zeros((2, 2)),
        decay_matrix=np.eye(2),
        lindblad_ops=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
    )
    model = embed_operators(spec, build_decay_operator(decompose_gamma(np.eye(2)), 2))
    a = model.lindblad_ops[0]
    assert np.array_equal(a[2:, :], np.zeros((2, 4)))
    assert np.array_equal(a[:, 2:], np.zeros((4, 2)))


def test_embedded_decay_op_reproduces_gamma(corpus):
    for m in corpus:
        prod = m.model.decay_op.conj().T @ m.model.decay_op
        block = prod[: m.spec.d_s, : m.spec.d_s]
        assert np.linalg.norm(block - m.spec.decay_matrix) <= 1e-10
        # nilpotency of the embedded decay operator
        assert np.linalg.norm(m.model.decay_op @ m.model.decay_op) == 0.0


# -- effective_hamiltonian --------------------------------------------------------


def test_effective_hamiltonian_single():
    heff = effective_hamiltonian(single_decay_spec(m=1.5, gamma=0.25))
    assert heff[0, 0] == 1.5 - 0.125j


def test_effective_hamiltonian_hermitian_limit():
    spec = SystemSpec(d_s=2, d_f=1, hamiltonian=np.eye(2), decay_matrix=np.zeros((2, 2)))
    assert np.array_equal(effective_hamiltonian(spec), np.eye(2))


def test_effective_hamiltonian_antihermitian_part():
    rng = np.random.default_rng(21)
    h = random_hermitian(3, rng)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gamma = g.conj().T @ g
    spec = SystemSpec(d_s=3, d_f=3, hamiltonian=h, decay_matrix=gamma)
    heff = effective_hamiltonian(spec)
    assert np.linalg.norm((heff - heff.conj().T) - (-1j * gamma)) <= 1e-12


# -- Liouvillians -----------------------------------------------------------------


def test_liouvillian_zero_operators():
    liouv = assemble_liouvillian(np.zeros((2, 2)))
    assert np.array_equal(liouv.matrix, np.zeros((4, 4)))


def test_master_equation_rejects_overflow():
    # Finite operators whose generator or Liouvillian overflows: a typed
    # numerical error instead of infs for later layers to trip on.
    zero = np.zeros((1, 1), dtype=complex)
    with pytest.raises(NumericsError, match="generator G"):
        MasterEquation.build(zero, (np.array([[1e160 + 0j]]),))
    with pytest.raises(NumericsError, match="Liouvillian"):
        MasterEquation(zero, (np.array([[1e200 + 0j]]),)).liouvillian()


def test_liouvillian_single_decay_action():
    spec = single_decay_spec(gamma=0.75)
    model = embed_operators(spec, build_decay_operator(decompose_gamma([[0.75]]), 1))
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    deriv = unvec(liouv.matrix @ vec(np.diag([1.0, 0.0])), 2)
    assert np.allclose(deriv, np.diag([-0.75, 0.75]), atol=1e-14)


def lindblad_form(h_eff, jumps, rho):
    """-i(H_eff rho - rho H_eff†) + sum_k (K rho K† - 1/2 {K†K, rho}), written
    out term by term as the reference for both settings."""
    out = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
    for k in jumps:
        kk = k.conj().T @ k
        out += k @ rho @ k.conj().T - 0.5 * (kk @ rho + rho @ kk)
    return out


def test_liouvillian_matches_rhs(corpus):
    # Enlarged space: -i[H, rho] + sum over the Lindblad and decay operators.
    rng = np.random.default_rng(31)
    for m in corpus:
        d = m.model.d_tot
        rho = random_hermitian(d, rng)
        jumps = m.model.lindblad_ops + (m.model.decay_op,)
        ref = lindblad_form(m.model.hamiltonian, jumps, rho)
        assert np.abs(rhs_enlarged(rho, m.model) - ref).max() <= 1e-12
        assert np.abs(unvec(m.liouv.matrix @ vec(rho), d) - ref).max() <= 1e-12


def test_liouvillian_trace_identity(corpus):
    for m in corpus:
        row = vec(np.eye(m.model.d_tot)).conj() @ m.liouv.matrix
        assert np.abs(row).max() <= 1e-12


def test_wwa_liouvillian_closed_commutator():
    spec = SystemSpec(d_s=2, d_f=1, hamiltonian=np.eye(2), decay_matrix=np.zeros((2, 2)))
    liouv = assemble_liouvillian_wwa(spec)
    row = vec(np.eye(2)).conj() @ liouv.matrix
    assert np.abs(row).max() <= 1e-12


def test_wwa_liouvillian_single_decay_scalar():
    liouv = assemble_liouvillian_wwa(single_decay_spec(gamma=0.6))
    assert np.allclose(liouv.matrix, [[-0.6]], atol=1e-15)


def test_wwa_liouvillian_matches_rhs(corpus):
    # System space: H_eff = H - (i/2) Gamma with the Lindblad operators A.
    rng = np.random.default_rng(32)
    for m in corpus:
        d = m.spec.d_s
        rho = random_hermitian(d, rng)
        ref = lindblad_form(effective_hamiltonian(m.spec), m.spec.lindblad_ops, rho)
        assert np.abs(rhs_wwa(rho, m.spec) - ref).max() <= 1e-12
        assert np.abs(unvec(m.liouv_wwa.matrix @ vec(rho), d) - ref).max() <= 1e-12


def test_wwa_trace_loss_identity(corpus):
    # d/dt Tr rho_ss = -Tr(Gamma rho_ss): the trace row of the generator is
    # minus the vectorized decay matrix
    for m in corpus:
        row = vec(np.eye(m.spec.d_s)).conj() @ m.liouv_wwa.matrix
        assert np.abs(row - (-vec(m.spec.decay_matrix).conj())).max() <= 1e-12


# -- system block of the enlarged Liouvillian ----------------------------------------


def system_block_index(d_s, d_tot):
    """vec() indices of the d_s x d_s upper-left block of a d_tot x d_tot matrix,
    in the column-stacking order of that block."""
    return np.arange(d_tot * d_tot).reshape((d_tot, d_tot), order="F")[:d_s, :d_s].ravel(order="F")


def test_system_liouvillian_is_system_block(corpus):
    for m in corpus:
        ss = system_block_index(m.spec.d_s, m.model.d_tot)
        block = m.liouv.matrix[np.ix_(ss, ss)]
        l_ss = m.model.system_equation.liouvillian()
        assert l_ss.dim == m.spec.d_s
        assert np.abs(l_ss.matrix - block).max() <= 1e-14


def test_real_form_is_the_subspace_block_of_the_full_liouvillian(corpus):
    # The cached real form of the system-block equation against [U_s^-1 L_ss
    # U_s; U_f^-1 L_fs U_s], taken from the Kronecker oracle of the whole
    # enlarged space, and the system space's against its own Liouvillian.
    for m in corpus:
        d_s, d_f, d_tot = m.spec.d_s, m.spec.d_f, m.model.d_tot
        idx = np.arange(d_tot * d_tot).reshape((d_tot, d_tot), order="F")
        ss, ff = idx[:d_s, :d_s].ravel(order="F"), idx[d_s:, d_s:].ravel(order="F")
        u_s = HermitianBasis(d_s).left(np.eye(d_s * d_s))
        u_f = HermitianBasis(d_f).left(np.eye(d_f * d_f))
        want = np.concatenate((
            np.linalg.solve(u_s, m.liouv.matrix[np.ix_(ss, ss)] @ u_s),
            np.linalg.solve(u_f, m.liouv.matrix[np.ix_(ff, ss)] @ u_s),
        ))
        wwa = np.linalg.solve(u_s, m.liouv_wwa.matrix @ u_s)
        for got, full in ((m.model.system_equation.real_form, want), (m.spec.equation.real_form, wwa)):
            assert got.dtype == np.float64 and got.shape == full.shape
            assert np.abs(full.imag).max() <= 1e-13
            assert np.abs(got - full.real).max() <= 1e-13


def test_system_propagator_is_system_block_of_full_propagator(corpus):
    # No s<-f coupling makes L block-triangular, so exp(tL) restricted to the
    # system block is exp(t L_ss).
    for m in corpus:
        ss = system_block_index(m.spec.d_s, m.model.d_tot)
        for t in (0.1, 1.0, 5.0):
            full = expm(m.liouv.matrix * t)[np.ix_(ss, ss)]
            small = expm(m.model.system_equation.liouvillian().matrix * t)
            assert np.abs(small - full).max() <= 1e-12


@pytest.mark.parametrize(
    "d, d_f, n_jumps",
    [(1, 1, 0), (1, 2, 3), (2, 3, 3), (5, 2, 0), (12, 7, 3), (16, 16, 0), (20, 4, 3), (20, 20, 0)],
)
def test_real_form_from_operator_columns_matches_the_kronecker_oracle(monkeypatch, d, d_f, n_jumps):
    # real_form takes its columns from operator columns, with no right-hand
    # side evaluated; it must equal U^-1 L U over U^-1 (conj(F) kron F) U of
    # the Kronecker Liouvillian L and the feed F, for d_f != d too.
    rng = np.random.default_rng(100 * d + n_jumps)

    def op(rows, cols=d):
        z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        return 0.5 * z / np.sqrt(cols)

    h = op(d)
    feed = op(d_f)
    eq = MasterEquation.build(0.5 * (h + h.conj().T), [op(d) for _ in range(n_jumps)],
                              loss=feed.conj().T @ feed, feed=feed)

    def no_rhs(self, rho):
        raise AssertionError("real_form evaluated the right-hand side")

    monkeypatch.setattr(MasterEquation, "rhs", no_rhs)
    got = eq.real_form
    basis, basis_f = HermitianBasis(d), HermitianBasis(d_f)
    u = basis.left(np.eye(d * d))
    want = np.concatenate((
        basis.right_inverse(np.eye(d * d)) @ eq.liouvillian().matrix @ u,
        basis_f.right_inverse(np.eye(d_f * d_f)) @ np.kron(feed.conj(), feed) @ u,
    ))
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.abs(want.imag).max() <= 1e-13
    assert np.abs(got - want.real).max() <= 1e-13
