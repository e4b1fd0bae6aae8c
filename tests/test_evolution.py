import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import enlarged_gap, pin_route, split_oracle

from opendecay import evolution
from opendecay.errors import DimensionError, GridError, NotHermitianError, NumericsError
from opendecay.evolution import (
    BlockDensity,
    IntegratorConfig,
    Trajectory,
    closed_form_1d,
    evolve_enlarged,
    evolve_wwa,
    integrate_rk4,
    propagate_exact,
    rho_ff_quadrature,
    rhs_enlarged,
    rhs_wwa,
)
from opendecay.linalg import unvec, vec
from opendecay.model import (
    MasterEquation,
    SystemSpec,
    assemble_liouvillian,
    build_decay_operator,
    decompose_gamma,
    embed_operators,
    embed_state,
)
from opendecay.randmodel import random_system


def single_decay(m=1.0, gamma=1.0):
    spec = SystemSpec(d_s=1, d_f=1, hamiltonian=[[m]], decay_matrix=[[gamma]])
    decay = build_decay_operator(decompose_gamma([[gamma]]), 1)
    return spec, decay, embed_operators(spec, decay)


def random_member(seed=5, d_s=2, n_lindblad=1):
    spec, rho0 = random_system(seed, d_s=d_s, n_lindblad=n_lindblad)
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), spec.d_f)
    return spec, rho0, decay, embed_operators(spec, decay)


def random_hermitian(d, rng):
    m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return 0.5 * (m + m.conj().T)


# -- configuration and container types -----------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=2.0, t_max=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_max=1.0, sample_stride=0)
    # A stride that is not an int fails here, not later in the engine, and a
    # bool is not taken as 1.
    for stride in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="sample_stride must be an integer"):
            IntegratorConfig(dt=0.1, t_max=1.0, sample_stride=stride)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_max=1.0, method="euler")
    for dt, t_max in ((np.nan, 1.0), (np.inf, np.inf), (1e-3, np.nan), (1e-3, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(dt=dt, t_max=t_max)


def test_config_degenerate_run():
    cfg = IntegratorConfig(dt=0.1, t_max=0.0)
    traj = integrate_rk4(lambda r: np.zeros_like(r), np.eye(2), cfg)
    assert len(traj) == 1 and traj.times[0] == 0.0


def test_trajectory_rejects_decreasing_times():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], states=(np.eye(1), np.eye(1)))
    for last in (np.nan, np.inf):
        with pytest.raises(ValueError, match="times must be finite"):
            Trajectory(times=[0.0, last], states=(np.eye(1), np.eye(1)))


def test_trajectory_rejects_ragged_or_flat_states():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=(np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="states must be an"):
        Trajectory(times=[0.0, 1.0], states=np.eye(2))


def test_trajectory_checks_decay_blocks():
    states = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match="decay and times must have equal length"):
        Trajectory(times=[0.0, 1.0], states=states, decay=np.zeros((3, 1, 1)))
    with pytest.raises(ValueError, match="decay must be an"):
        Trajectory(times=[0.0, 1.0], states=states, decay=np.zeros((2, 1, 2)))


def test_trajectory_states_are_one_read_only_array():
    # A check that wrote into the samples would change what later checks
    # and the CSV see; it must fail instead.  The caller's array stays
    # writable.
    given = np.zeros((2, 1, 1), dtype=np.complex128)
    traj = Trajectory(times=[0.0, 1.0], states=given, decay=given)
    assert traj.states.shape == (2, 1, 1) and traj.states.dtype == np.complex128
    assert traj.decay.shape == (2, 1, 1) and traj.decay.dtype == np.complex128
    with pytest.raises(ValueError, match="read-only"):
        traj.states[0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        traj.decay[0] += 1.0
    given[0] = 1.0


def test_block_density_round_trip():
    rng = np.random.default_rng(0)
    rho = random_hermitian(5, rng)
    blocks = BlockDensity.from_full(rho, 2)
    assert blocks.rho_ss.shape == (2, 2)
    assert blocks.rho_ff.shape == (3, 3)
    assert np.array_equal(blocks.to_full(), rho)
    assert np.allclose(blocks.rho_fs, blocks.rho_sf.conj().T, atol=0)


# -- right-hand sides -----------------------------------------------------------


def test_rhs_wwa_single_decay():
    spec, _, _ = single_decay(gamma=0.8)
    deriv = rhs_wwa(np.array([[1.0]]), spec)
    assert np.allclose(deriv, [[-0.8]], atol=1e-15)


def test_rhs_wwa_stationary_state():
    # no decay, no dissipation, state commuting with H: nothing moves
    spec = SystemSpec(d_s=2, d_f=1, hamiltonian=np.diag([1.0, 2.0]), decay_matrix=np.zeros((2, 2)))
    deriv = rhs_wwa(np.diag([0.25, 0.75]), spec)
    assert np.abs(deriv).max() <= 1e-15


def test_rhs_wwa_dimension_check():
    spec, _, _ = single_decay()
    with pytest.raises(DimensionError):
        rhs_wwa(np.eye(2), spec)


def test_rhs_enlarged_trace_free():
    rng = np.random.default_rng(8)
    _, _, _, model = random_member()
    for _ in range(5):
        rho = random_hermitian(model.d_tot, rng)
        assert abs(np.trace(rhs_enlarged(rho, model))) <= 1e-13


def test_rhs_enlarged_single_decay():
    _, _, model = single_decay(gamma=0.5)
    deriv = rhs_enlarged(np.diag([1.0, 0.0]), model)
    assert np.allclose(deriv, np.diag([-0.5, 0.5]), atol=1e-15)


def test_block_diagonal_state_keeps_zero_coherence():
    # The enlarged equation maps a block-diagonal state to a block-diagonal
    # derivative, so evolve_enlarged holds only the two diagonal blocks.
    spec, rho0, decay, model = random_member()
    rho0_full = embed_state(rho0, spec.d_f)
    deriv = BlockDensity.from_full(rhs_enlarged(rho0_full, model), spec.d_s)
    assert np.abs(deriv.rho_sf).max() == 0.0
    assert np.abs(deriv.rho_fs).max() == 0.0
    traj = evolve_enlarged(model, rho0, IntegratorConfig(dt=1e-3, t_max=0.1, sample_stride=10))
    assert traj.states.shape == (len(traj), spec.d_s, spec.d_s)
    assert traj.decay.shape == (len(traj), spec.d_f, spec.d_f)


def test_feed_single_decay_growth():
    # rho_ff' = B rho_ss B†, with B = 1 for the unit decay rate: the fed row
    # of the real form [L_ss; L_fs] is 1.
    _, decay, model = single_decay(gamma=1.0)
    assert (model.system_equation.real_form[1:] @ [0.3])[0] == pytest.approx(0.3)
    assert rhs_enlarged(np.diag([0.3, 0.0]), model)[1, 1] == pytest.approx(0.3)


def test_subspace_blocks_match_full_equation():
    # On a block-diagonal state the enlarged equation is rho_ss' = L_ss rho_ss
    # and rho_ff' = L_fs rho_ss, with zero coherence blocks.
    rng = np.random.default_rng(9)
    spec, _, decay, model = random_member(seed=6)
    d_s, d_f = spec.d_s, spec.d_f
    l_ss = model.system_equation.liouvillian().matrix
    l_fs = np.kron(decay.matrix.conj(), decay.matrix)
    for _ in range(5):
        rho_ss, rho_ff = random_hermitian(d_s, rng), random_hermitian(d_f, rng)
        zero = np.zeros((d_s, d_f))
        full = BlockDensity(rho_ss=rho_ss, rho_sf=zero, rho_fs=zero.T, rho_ff=rho_ff).to_full()
        deriv = BlockDensity.from_full(rhs_enlarged(full, model), d_s)
        assert np.abs(deriv.rho_ss - unvec(l_ss @ vec(rho_ss), d_s)).max() <= 1e-12
        fed = unvec(l_fs @ vec(rho_ss), d_f)
        assert np.abs(deriv.rho_ff - fed).max() <= 1e-12
        assert np.abs(deriv.rho_ff - decay.matrix @ rho_ss @ decay.matrix.conj().T).max() <= 1e-12
        assert np.abs(deriv.rho_sf).max() == 0.0


def test_feed_is_block_of_full_liouvillian(corpus):
    for m in corpus:
        d_s, d_tot = m.spec.d_s, m.model.d_tot
        idx = np.arange(d_tot * d_tot).reshape((d_tot, d_tot), order="F")
        ss = idx[:d_s, :d_s].ravel(order="F")
        ff = idx[d_s:, d_s:].ravel(order="F")
        block = m.liouv.matrix[np.ix_(ff, ss)]
        b = m.decay.matrix
        assert np.abs(np.kron(b.conj(), b) - block).max() <= 1e-14


@pytest.mark.parametrize("d_s", [2, 17])
def test_enlarged_rejects_a_padded_initial_state(monkeypatch, d_s):
    # Both entry points take the d_s x d_s system block and start the decay
    # block at zero; a d_tot x d_tot state is refused before any operator of
    # the run is built, on the stepper (d_s = 2) and the direct RK4 (17).
    pin_route(monkeypatch, 1 if d_s == 2 else 0)
    spec, rho0, decay, model = random_member(d_s=d_s)
    rho = embed_state(rho0, spec.d_f)
    expected = rf"state has shape \({model.d_tot}, {model.d_tot}\), expected \({d_s}, {d_s}\)"
    with pytest.raises(DimensionError, match=expected):
        evolve_enlarged(model, rho, IntegratorConfig(dt=1e-3, t_max=0.01))
    assert "system_equation" not in vars(model)


# -- RK4 integration --------------------------------------------------------------


def test_rk4_single_decay_half_life():
    # land exactly on t = ln 2 with a step close to 1e-3
    spec, _, model = single_decay(gamma=1.0)
    t_half = np.log(2.0)
    cfg = IntegratorConfig(dt=t_half / 693, t_max=t_half, sample_stride=693)
    traj = evolve_enlarged(model, [[1.0]], cfg)
    assert abs(traj.states[-1, 0, 0].real - 0.5) <= 1e-9


def test_rk4_zero_generator_constant():
    cfg = IntegratorConfig(dt=0.1, t_max=1.0)
    traj = integrate_rk4(lambda r: np.zeros_like(r), np.diag([0.5, 0.5]), cfg)
    for s in traj.states:
        assert np.array_equal(s, np.diag([0.5, 0.5]))


def test_rk4_matches_exact_propagator():
    spec, rho0, decay, model = random_member(seed=7)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=1000)
    rho0_full = embed_state(rho0, spec.d_f)
    traj = evolve_enlarged(model, rho0, cfg)
    exact = [propagate_exact(liouv, rho0_full, t) for t in traj.times]
    exact, sf = split_oracle(traj.times, exact, spec.d_s)
    assert enlarged_gap(traj, exact) <= 1e-8 and sf <= 1e-8


def test_rk4_trace_and_hermiticity_preserved():
    spec, rho0, decay, model = random_member(seed=8, d_s=3, n_lindblad=2)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=50)
    traj = evolve_enlarged(model, rho0, cfg)
    traces = [float((np.trace(s) + np.trace(f)).real) for s, f in zip(traj.states, traj.decay)]
    assert max(abs(t - 1.0) for t in traces) <= 1e-8
    for s in (*traj.states, *traj.decay):
        assert np.linalg.norm(s - s.conj().T) <= 1e-10


def test_rk4_coherence_block_decoupling():
    # RK4 of the whole enlarged equation keeps the coherence block of a
    # block-diagonal start at zero, which the block-held trajectories rely on.
    spec, rho0, decay, model = random_member(seed=9)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=100)
    rho0_full = embed_state(rho0, spec.d_f)
    full = integrate_rk4(lambda r: rhs_enlarged(r, model), rho0_full, cfg)
    assert split_oracle(full.times, full.states, spec.d_s)[1] <= 1e-10


def test_rk4_system_trace_monotone():
    spec, rho0, decay, model = random_member(seed=10, d_s=3, n_lindblad=1)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=20)
    traj = evolve_enlarged(model, rho0, cfg)
    tr = [float(np.trace(s).real) for s in traj.states]
    assert all(tr[k + 1] <= tr[k] + 1e-10 for k in range(len(tr) - 1))


def test_rk4_drift_monitor_trips():
    # a derivative with a large anti-hermitian component must be caught
    def bad_rhs(rho):
        return np.array([[0.0, 1.0], [-1.0, 0.0]]) * 1e3

    cfg = IntegratorConfig(dt=0.1, t_max=1.0)
    with pytest.raises(NumericsError):
        integrate_rk4(bad_rhs, np.eye(2), cfg)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_rk4_drift_monitor_trips_on_nan():
    # The state overflows to inf on the diagonal in the first step, so
    # rho - rho† holds inf - inf = NaN there.
    cfg = IntegratorConfig(dt=1.0, t_max=10.0)
    with pytest.raises(NumericsError, match="the state after step 1 is not finite"):
        integrate_rk4(lambda r: 1e300 * r, np.eye(2) / 2, cfg)


def test_rk4_fourth_order_convergence():
    spec, rho0, decay, model = random_member(seed=11, d_s=3, n_lindblad=2)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    rho0_full = embed_state(rho0, spec.d_f)
    errs = []
    exact, sf = split_oracle([0.0, 2.0], [rho0_full, propagate_exact(liouv, rho0_full, 2.0)], 3)
    assert sf <= 1e-12
    for dt in (4e-3, 2e-3):
        cfg = IntegratorConfig(dt=dt, t_max=2.0, sample_stride=int(round(2.0 / dt)))
        errs.append(enlarged_gap(evolve_enlarged(model, rho0, cfg), exact))
    assert errs[0] / errs[1] >= 15.0


# -- exact propagation -------------------------------------------------------------


def test_propagate_exact_identity_at_zero():
    _, _, model = single_decay()
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    rho0 = np.diag([0.4, 0.6])
    assert np.abs(propagate_exact(liouv, rho0, 0.0) - rho0).max() <= 1e-15


def test_propagate_exact_matches_closed_form():
    _, _, model = single_decay(m=1.0, gamma=1.0)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    for t in (0.3, 0.7, 2.0, 5.0):
        out = propagate_exact(liouv, np.diag([1.0, 0.0]), t)
        assert np.abs(out - closed_form_1d(1.0, t).to_full()).max() <= 1e-12


def test_propagate_exact_semigroup():
    spec, rho0, decay, model = random_member(seed=12)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    rho0_full = embed_state(rho0, spec.d_f)
    one_shot = propagate_exact(liouv, rho0_full, 1.9)
    two_step = propagate_exact(liouv, propagate_exact(liouv, rho0_full, 0.7), 1.2)
    assert np.linalg.norm(one_shot - two_step) <= 1e-10


def test_exact_method_trajectory_matches_rk4():
    spec, rho0, decay, model = random_member(seed=13)
    rk = evolve_enlarged(model, rho0, IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=100))
    ex = evolve_enlarged(
        model, rho0, IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=100, method="exact")
    )
    assert np.array_equal(rk.times, ex.times)
    assert enlarged_gap(rk, ex) <= 1e-8


# -- decay-block quadrature ---------------------------------------------------------


def test_quadrature_single_decay():
    spec, decay, model = single_decay(gamma=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=1)
    traj = evolve_enlarged(model, [[1.0]], cfg)
    out = rho_ff_quadrature(decay, traj)
    for k, t in enumerate(traj.times):
        assert abs(out[k][0, 0].real - (1.0 - np.exp(-t))) <= 1e-6


def test_quadrature_zero_input():
    _, decay, _ = single_decay()
    ss = Trajectory(times=np.arange(5) * 0.1, states=tuple(np.zeros((1, 1)) for _ in range(5)))
    for block in rho_ff_quadrature(decay, ss):
        assert np.abs(block).max() == 0.0


def test_quadrature_matches_ode_route():
    # two independent routes to the decay block: cumulative trapezoid vs the
    # integrated block equation
    spec, rho0, decay, model = random_member(seed=14)
    cfg = IntegratorConfig(dt=5e-4, t_max=2.0, sample_stride=1)
    traj = evolve_enlarged(model, rho0, cfg)
    quad = rho_ff_quadrature(decay, traj)
    worst = max(np.linalg.norm(quad[k] - traj.decay[k]) for k in range(len(traj)))
    assert worst <= 1e-6


def test_quadrature_rejects_nonuniform_grid():
    _, decay, _ = single_decay()
    ss = Trajectory(times=[0.0, 0.1, 0.3], states=tuple(np.eye(1) for _ in range(3)))
    with pytest.raises(GridError):
        rho_ff_quadrature(decay, ss)


# -- closed form ---------------------------------------------------------------------


def test_closed_form_initial_condition():
    blocks = closed_form_1d(1.0, 0.0)
    assert np.array_equal(blocks.to_full(), np.diag([1.0, 0.0]))


def test_closed_form_long_time_limit():
    blocks = closed_form_1d(1.0, 50.0)
    assert np.abs(blocks.to_full() - np.diag([0.0, 1.0])).max() <= 1e-10


def test_closed_form_half_life():
    blocks = closed_form_1d(1.0, np.log(2.0))
    assert blocks.rho_ss[0, 0] == pytest.approx(0.5)
    assert blocks.rho_ff[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "rate, t",
    [(np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0), (np.inf, 1.0), (1.0, np.inf), (-1.0, 1.0)],
    ids=["nan-rate", "nan-t", "inf-rate-at-zero", "inf-rate", "inf-t", "negative-rate"],
)
def test_closed_form_rejects_non_finite_or_negative_inputs(rate, t):
    # An infinite rate at t = 0 would give exp(-inf * 0) = NaN.
    with pytest.raises(ValueError, match="must be non-negative and finite"):
        closed_form_1d(rate, t)


# -- superoperator RK4 stepper ----------------------------------------------------------


def test_superop_stepper_matches_direct_rk4_on_corpus(corpus):
    # One RK4 step of the linear equation is the polynomial P(dt L), so the
    # stepper and the right-hand-side RK4 differ only by rounding.
    cfg = IntegratorConfig(dt=1e-3, t_max=0.4, sample_stride=40)
    worst = 0.0
    for m in corpus:
        assert evolution._plan(m.spec.d_s, m.spec.d_f, cfg) > 0
        assert evolution._plan(m.spec.d_s, 0, cfg) > 0
        rho0_full = embed_state(m.rho0, m.spec.d_f)
        fast = evolve_enlarged(m.model, m.rho0, cfg)
        direct = integrate_rk4(lambda r: rhs_enlarged(r, m.model), rho0_full, cfg)
        assert np.array_equal(fast.times, direct.times)
        direct, sf = split_oracle(direct.times, direct.states, m.spec.d_s)
        worst = max(worst, enlarged_gap(fast, direct), sf)
        fast = evolve_wwa(m.spec, m.rho0, cfg)
        direct = integrate_rk4(lambda r: rhs_wwa(r, m.spec), m.rho0, cfg)
        assert np.array_equal(fast.times, direct.times)
        worst = max(worst, float(np.linalg.norm(fast.states - direct.states, axis=(1, 2)).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_subspace_matches_full_liouvillian_on_corpus(corpus, method):
    # The (ss, ff) stepper against the same method on the whole enlarged
    # space: RK4 of the d_tot x d_tot right-hand side, or the exact
    # propagator of the d_tot^2 x d_tot^2 Liouvillian at each sample time.
    cfg = IntegratorConfig(dt=1e-3, t_max=0.4, sample_stride=40, method=method)
    worst = 0.0
    for m in corpus:
        rho0_full = embed_state(m.rho0, m.spec.d_f)
        fast = evolve_enlarged(m.model, m.rho0, cfg)
        if method == "rk4":
            oracle = integrate_rk4(lambda r: rhs_enlarged(r, m.model), rho0_full, cfg).states
        else:
            oracle = [propagate_exact(m.liouv, rho0_full, t) for t in fast.times]
        oracle, sf = split_oracle(fast.times, oracle, m.spec.d_s)
        worst = max(worst, enlarged_gap(fast, oracle), sf)
    assert worst <= 1e-12


def test_exact_with_more_fed_rows_than_columns_matches_full_liouvillian():
    # d_f = 5 > d_s = 2: the stacked pair h [L_ss; L_fs] has 4 + 25 rows
    # and 4 columns, and B has zero rows past its rank.  The exact stepper
    # against the exact propagator of the padded 49 x 49 Liouvillian.
    spec, rho0 = random_system(21, d_s=2, n_lindblad=1)
    spec = SystemSpec(
        d_s=2,
        d_f=5,
        hamiltonian=spec.hamiltonian,
        decay_matrix=spec.decay_matrix,
        lindblad_ops=spec.lindblad_ops,
    )
    model = embed_operators(spec, build_decay_operator(decompose_gamma(spec.decay_matrix), 5))
    assert np.abs(model.decay.matrix[2:]).max() == 0.0
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    cfg = IntegratorConfig(dt=0.01, t_max=2.0, sample_stride=20, method="exact")
    traj = evolve_enlarged(model, rho0, cfg)
    rho0_full = embed_state(rho0, 5)
    oracle = [propagate_exact(liouv, rho0_full, t) for t in traj.times]
    oracle, sf = split_oracle(traj.times, oracle, 2)
    assert traj.decay.shape[1:] == (5, 5)
    assert enlarged_gap(traj, oracle) <= 1e-12 and sf <= 1e-12


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_direct_rk4_above_superop_threshold(monkeypatch, space, above):
    # A d_s = 16 system pinned to the stepper, and a d_s = 17 one pinned to
    # the direct RK4, on either space; the direct RK4 calls the system-block
    # equation's right-hand side four times per step, the stepper never: it
    # builds its step from the real form.  With its empty decay sector, the
    # system space's direct RK4 is integrate_rk4's arithmetic.
    pin_route(monkeypatch, 0 if above else 1)
    d_s = 16 + int(above)
    spec, rho0, decay, model = random_member(seed=15, d_s=d_s)
    if space == "enlarged":
        evolve, target, rhs = evolve_enlarged, model, rhs_enlarged
        full = embed_state(rho0, spec.d_f)
    else:
        evolve, target, rhs, full = evolve_wwa, spec, rhs_wwa, rho0
    calls = []
    original = MasterEquation.rhs

    def counting(self, rho):
        calls.append(1)
        return original(self, rho)

    monkeypatch.setattr(MasterEquation, "rhs", counting)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.01)
    traj = evolve(target, rho0, cfg)
    if not above:
        # A fresh model, whose real form is not cached yet, over ten times
        # the steps.
        built = len(calls)
        calls.clear()
        spec, _, _, model = random_member(seed=15, d_s=d_s)
        evolve(model if space == "enlarged" else spec, rho0, IntegratorConfig(dt=1e-3, t_max=0.1))
        assert len(calls) == built == 0
        return
    assert len(calls) == 4 * cfg.n_steps
    ref = integrate_rk4(lambda r: rhs(r, target), full, cfg)
    if space == "wwa":
        assert np.array_equal(traj.states, ref.states)
    else:
        # The enlarged space runs the same RK4 on its blocks, in other
        # arithmetic.
        ref, sf = split_oracle(ref.times, ref.states, d_s)
        assert max(enlarged_gap(traj, ref), sf) <= 1e-12


def test_superop_drift_monitor_trips_on_nan():
    # At dt = 5 the RK4 polynomial of the single decay rate is
    # 1 - 5 + 25/2 - 125/6 + 625/24 > 1, so the stepper grows until its
    # state overflows, after step 272.
    _, _, model = single_decay()
    cfg = IntegratorConfig(dt=5.0, t_max=5000.0)
    with pytest.raises(NumericsError, match="the state after step 272 is not finite"):
        evolve_enlarged(model, [[1.0]], cfg)


def test_a_long_step_does_not_trip_the_build_time_drift_check():
    # Gamma with rates 1, 1e-3 and 1e-10: the horizon 20/gamma_min in 200
    # steps makes dt = 1e9, and the matvec's rounding, times dt, exceeds
    # 1e-9 although L_ss preserves hermiticity.  The stepper checks no
    # drift, so neither the system block's equation without its feed nor
    # the enlarged ``exact`` run fails, and they agree.
    v = np.array([1.0, 0.6 - 0.3j, -0.2 + 0.7j])
    rho0 = np.outer(v, v.conj()) / (v.conj() @ v).real
    unscaled = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        gamma = (q * [1.0, 1e-3, 1e-10]) @ q.conj().T
        gamma = 0.5 * (gamma + gamma.conj().T)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        spec = SystemSpec(d_s=3, d_f=3, hamiltonian=0.5 * (h + h.conj().T), decay_matrix=gamma)
        model = embed_operators(spec, build_decay_operator(decompose_gamma(gamma), 3))
        x = unvec(model.system_equation.liouvillian().matrix @ vec(rho0), 3)
        unscaled.append(1e9 * np.linalg.norm(x - x.conj().T))
        cfg = IntegratorConfig(dt=1e9, t_max=2e11, method="exact")
        traj = evolution._evolve(replace(model.system_equation, feed=None), rho0, cfg)
        exact = evolve_enlarged(model, rho0, cfg)
        assert np.linalg.norm(traj.states - exact.states, axis=(1, 2)).max() <= 1e-10
    assert max(unscaled) > 1e-9


def run_method(space, cfg):
    # The engine on one space by the method of ``cfg``, for a d_s = 2 member.
    spec, rho0, decay, model = random_member(seed=5, d_s=2)
    equation = model.system_equation if space == "enlarged" else spec.equation
    return evolution._evolve(equation, rho0, cfg)


# At d_s = 2 a step takes 8 * 8 * 4 bytes of the enlarged stepper's block
# matrix and 8 * 4 * 4 of the system space's, so BLOCK_BYTES allows 256 and
# 512 units (steps, or sample intervals) per block, and 2688 bytes allow 10
# and 21.
@pytest.mark.parametrize(
    "block_bytes, t_max, stride",
    [
        (evolution.BLOCK_BYTES, 1.003, 1),
        (evolution.BLOCK_BYTES, 1.003, 3),
        (evolution.BLOCK_BYTES, 1.003, 10),
        (evolution.BLOCK_BYTES, 1.003, 250),  # stride just below B
        (2688, 0.1, 1),
        (2688, 0.1, 3),
        (2688, 0.1, 10),  # stride at B (enlarged)
        (2688, 0.1, 25),  # stride above B
        (evolution.BLOCK_BYTES, 0.037, 10),  # fewer steps than BLOCK_BYTES allows
        (evolution.BLOCK_BYTES, 0.0, 1),
    ],
)
@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_block_stepper_matches_one_step_per_matvec(
    monkeypatch, space, method, block_bytes, t_max, stride
):
    # A block of B units per matvec against one unit per matvec: the same
    # sample times, and states equal up to the rounding of the powers.  Every
    # run here jumps a sample interval per unit, so a run has n_steps //
    # stride whole units, and a short one for the rest.
    cfg = IntegratorConfig(dt=1e-3, t_max=t_max, sample_stride=stride, method=method)
    blocks = []
    build = evolution._block_matrix

    def spy(q, block):
        blocks.append(block)
        return build(q, block)

    monkeypatch.setattr(evolution, "_block_matrix", spy)
    monkeypatch.setattr(evolution, "BLOCK_BYTES", block_bytes)
    blocked = run_method(space, cfg)
    calls = len(blocks)
    monkeypatch.setattr(evolution, "BLOCK_BYTES", 1)
    single = run_method(space, cfg)
    assert blocks[calls:] == [1] * calls
    assert calls == 0 or blocks[0] > 1 or cfg.n_steps // stride <= 1
    assert len(blocked) == cfg.n_samples
    assert np.array_equal(blocked.times, single.times)
    assert np.array_equal(blocked.times, cfg.sampled_steps() * cfg.dt)
    assert np.abs(blocked.states - single.states).max() <= 1e-12
    if space == "enlarged":
        assert np.abs(blocked.decay - single.decay).max() <= 1e-12
    else:
        assert blocked.decay is None and single.decay is None


def spy_jumps(monkeypatch) -> list:
    # The units the stepper builds its pairs for: (jump, tail) per run, where
    # jump is 1 when the run takes one step per matvec row.
    counts, powers = [], evolution._step_powers

    def spy(q, c):
        counts.append(tuple(c))
        return powers(q, c)

    monkeypatch.setattr(evolution, "_step_powers", spy)
    return counts


# 1003 steps leave tails of 1, 3, 3 and 310 at strides 3, 10, 250 and 693; on
# 500 steps a stride of 693 is one short unit and one of 500 one whole unit;
# 2688 bytes hold 10 units of the enlarged stepper.
@pytest.mark.parametrize(
    "block_bytes, t_max, stride",
    [
        (evolution.BLOCK_BYTES, 1.003, 1),
        (evolution.BLOCK_BYTES, 1.003, 3),
        (evolution.BLOCK_BYTES, 1.003, 10),
        (evolution.BLOCK_BYTES, 1.003, 250),
        (evolution.BLOCK_BYTES, 1.003, 693),
        (evolution.BLOCK_BYTES, 1.0, 10),  # no tail
        (evolution.BLOCK_BYTES, 0.5, 693),  # stride above n_steps
        (evolution.BLOCK_BYTES, 0.5, 500),  # stride at n_steps
        (evolution.BLOCK_BYTES, 0.0, 10),
        (2688, 0.1, 3),
        (2688, 0.253, 10),
    ],
)
@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_stride_run_samples_the_stride_one_run(
    monkeypatch, space, method, block_bytes, t_max, stride
):
    # A run that jumps a sample interval per matvec row against every
    # stride-th sample, and the final one, of the run at stride 1.  A run of
    # no steps builds no step, so it powers none.
    counts = spy_jumps(monkeypatch)
    monkeypatch.setattr(evolution, "BLOCK_BYTES", block_bytes)
    cfg = IntegratorConfig(dt=1e-3, t_max=t_max, sample_stride=stride, method=method)
    strided = run_method(space, cfg)
    one = run_method(space, IntegratorConfig(dt=1e-3, t_max=t_max, method=method))
    n = cfg.n_steps
    assert counts == ([(stride if n >= stride else 0, n % stride), (1, 0)] if n else [])
    at = cfg.sampled_steps()
    assert np.array_equal(strided.times, one.times[at])
    assert np.abs(strided.states - one.states[at]).max() <= 1e-12
    if space == "enlarged":
        assert np.abs(strided.decay - one.decay[at]).max() <= 1e-12


@pytest.mark.parametrize(
    "t_max, stride, jumps", [(0.5, 10, True), (0.05, 50, False), (0.05, 10**6, False)]
)
def test_the_jump_is_built_only_where_it_pays(monkeypatch, t_max, stride, jumps):
    # At d_s = 12 the powering takes bit_length + popcount - 2 products of
    # the flops of 144 matvecs each: 4 at stride 10, paid back by 50
    # intervals of 9 matvecs saved; 7 for 50 steps, not paid back by one
    # interval of 49, however long the stride.
    counts = spy_jumps(monkeypatch)
    spec, rho0, decay, model = random_member(seed=5, d_s=12)
    cfg = IntegratorConfig(dt=1e-3, t_max=t_max, sample_stride=stride)
    traj = evolve_enlarged(model, rho0, cfg)
    assert counts == [(stride, 0) if jumps else (1, 0)]
    assert np.array_equal(traj.times, cfg.sampled_steps() * cfg.dt)


# The unit that the cost rule gives each evolution at dt = 1e-3:
# (d_s, d_f, t_max, stride, method, unit), where unit is the steps per matvec
# row of the stepper and 0 the direct RK4.  A run has two evolutions, the
# enlarged space with the d_f of its decay block and the system space with
# d_f = 0.
PLANS = [
    # Benchmark units, each where the fixed threshold d_s <= 16 and the
    # earlier jump rule put it.  The shipped scenarios under rk4 and exact:
    # single-decay, two-level-decay and random (d_s = d_f = 2 at seed 42).
    *[
        (d_s, d_f, t_max, stride, method, stride)
        for d_s, t_max, stride in ((1, 10.0, 10), (2, 10.0, 10), (2, 5.0, 5))
        for d_f in (d_s, 0)
        for method in ("rk4", "exact")
    ],
    # large_d: random systems (d_f = d_s) at d_s 6, 12 and 16.
    *[(d_s, d_f, 0.5, 10, "rk4", 10) for d_s in (6, 12, 16) for d_f in (d_s, 0)],
    # The CI configs: rk4 at d_s 24 and 40 over 50 steps stays direct; exact
    # at 17 and 30 goes one step per row over 50 steps and jumps at stride
    # 50 over 5000; rk4 at 24 over 5000 steps at stride 50 jumps.
    *[(d_s, d_f, 0.05, 10, "rk4", 0) for d_s in (24, 40) for d_f in (d_s, 0)],
    *[(d_s, d_f, 0.05, 10, "exact", 1) for d_s in (17, 30) for d_f in (d_s, 0)],
    (30, 30, 5.0, 50, "exact", 50),
    (30, 0, 5.0, 50, "exact", 50),
    # The measured rows of the module docstring: the stepper jumps at d_s
    # 17, 24 and 30 where the direct RK4 took 2.4 to 4.8 times as long; d_s
    # 40 over 5000 steps, short runs and stride 1 at d_s 24 stay direct.
    *[(17, d_f, 0.5, 10, "rk4", 10) for d_f in (17, 0)],
    *[(d_s, d_f, 5.0, 50, "rk4", 50) for d_s in (24, 30) for d_f in (d_s, 0)],
    *[(40, d_f, 5.0, 50, "rk4", 0) for d_f in (40, 0)],
    *[(d_s, d_f, 0.05, 10, "rk4", 0) for d_s in (24, 40) for d_f in (d_s, 0)],
    *[(24, d_f, 1.0, 1, "rk4", 0) for d_f in (24, 0)],
    # Stride 1 at d_s 16 stays on the stepper: 73 ms against 229 ms direct.
    *[(16, d_f, 1.0, 1, "rk4", 1) for d_f in (16, 0)],
    # A run of no steps takes the stepper.
    (40, 40, 0.0, 10, "rk4", 1),
]


def test_the_cost_rule_plans_every_listed_run():
    wrong = []
    for d_s, d_f, t_max, stride, method, unit in PLANS:
        cfg = IntegratorConfig(dt=1e-3, t_max=t_max, sample_stride=stride, method=method)
        got = evolution._plan(d_s, d_f, cfg)
        if got != unit:
            wrong.append((d_s, d_f, t_max, stride, method, unit, got))
    assert wrong == []


def test_a_run_the_rule_prices_direct_builds_no_step(monkeypatch):
    # d_s = 12 over 2 steps: the direct RK4 costs less than the step build,
    # and the engine takes it.
    counts = spy_jumps(monkeypatch)
    spec, rho0, decay, model = random_member(seed=5, d_s=12)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.002)
    assert evolution._plan(12, spec.d_f, cfg) == 0
    traj = evolve_enlarged(model, rho0, cfg)
    assert counts == [] and len(traj) == 3


def drift_error(monkeypatch, block_bytes, q, h0, cfg) -> str:
    monkeypatch.setattr(evolution, "BLOCK_BYTES", block_bytes)
    with pytest.raises(NumericsError) as info:
        evolution._evolve_steps(lambda: np.vstack(q), h0, (1, 1), cfg, 1)
    return str(info.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_block_stepper_names_the_first_nan_inside_a_block(monkeypatch):
    # A real step has no drift, so a one-step loop fails only once the state
    # is infinite: 2^1000 * 2^24 overflows at step 24.  In a block of 40 the
    # finiteness test of the block's states still names step 24.
    q = [np.array([[2.0]]), np.zeros((1, 1))]
    h0 = np.array([2.0**1000, 0.0])
    cfg = IntegratorConfig(dt=0.1, t_max=4.0)
    one = drift_error(monkeypatch, 1, q, h0, cfg)
    assert one == "the state after step 24 is not finite"
    assert drift_error(monkeypatch, 2**20, q, h0, cfg) == one


def test_direct_block_drift_monitor_trips(monkeypatch):
    # The direct RK4 at d_s = 17; dt = 50 makes every RK4 step grow the
    # state, and its rounding-level antihermitian part with it.
    pin_route(monkeypatch, 0)
    spec, rho0, decay, model = random_member(seed=15, d_s=17)
    cfg = IntegratorConfig(dt=50.0, t_max=50.0 * 1000)
    with pytest.raises(NumericsError, match="hermiticity drift .* at step [0-9]+ exceeds 1e-09"):
        evolve_enlarged(model, rho0, cfg)


def decay_only(d, gamma, hamiltonian=None):
    # H = 0 unless given, no Lindblad operators, d_f = rank of gamma.
    gamma = np.asarray(gamma, dtype=float)
    dec = decompose_gamma(gamma)
    h = np.zeros((d, d)) if hamiltonian is None else hamiltonian
    spec = SystemSpec(d_s=d, d_f=dec.rank, hamiltonian=h, decay_matrix=gamma)
    return spec, embed_operators(spec, build_decay_operator(dec, dec.rank))


@pytest.mark.parametrize("route", ["stepper", "direct"])
def test_overflowing_state_ends_in_numerics_error_without_warnings(monkeypatch, route):
    # The stepper at dt = 5 grows the single decay until it overflows; the
    # direct RK4 at d_s = 17 overflows in its first step on Gamma = 1e200 I.
    # On either space and route the same error names the first step whose
    # state is not finite, and numpy warns of none of it.
    if route == "stepper":
        spec, _, model = single_decay()
        cfg, step = IntegratorConfig(dt=5.0, t_max=5000.0), 272
    else:
        pin_route(monkeypatch, 0)
        d = 17
        spec, model = decay_only(d, 1e200 * np.eye(d))
        cfg, step = IntegratorConfig(dt=1e-3, t_max=0.01), 1
    rho0 = np.zeros((spec.d_s, spec.d_s))
    rho0[0, 0] = 1.0
    for evolve, target in ((evolve_enlarged, model), (evolve_wwa, spec)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=f"the state after step {step} is not finite"):
                evolve(target, rho0, cfg)


def test_every_route_names_the_first_state_that_is_not_finite(monkeypatch):
    # The single decay at dt = 5 up to t = 5000, 1000 steps: the stepper's
    # state first overflows after step 272, at any stride and block size,
    # and the direct RK4's and the integrate_rk4 oracle's, in their own
    # arithmetic, after step 271.  Every route says it in the same words.
    spec, _, model = single_decay()

    def message(run) -> str:
        with pytest.raises(NumericsError) as info:
            run()
        return str(info.value)

    stepper = set()
    for block_bytes in (1, 2**20):
        monkeypatch.setattr(evolution, "BLOCK_BYTES", block_bytes)
        for stride in (1, 7, 10):
            cfg = IntegratorConfig(dt=5.0, t_max=5000.0, sample_stride=stride)
            stepper.add(message(lambda: evolve_enlarged(model, [[1.0]], cfg)))
            stepper.add(message(lambda: evolve_wwa(spec, [[1.0]], cfg)))
    assert stepper == {"the state after step 272 is not finite"}
    pin_route(monkeypatch, 0)
    cfg = IntegratorConfig(dt=5.0, t_max=5000.0)
    direct = {
        message(lambda: evolve_enlarged(model, [[1.0]], cfg)),
        message(lambda: evolve_wwa(spec, [[1.0]], cfg)),
    }
    with np.errstate(over="ignore", invalid="ignore"):
        direct.add(message(lambda: integrate_rk4(spec.equation.rhs, [[1.0]], cfg)))
        full = embed_state([[1.0]], 1)
        direct.add(message(lambda: integrate_rk4(lambda r: rhs_enlarged(r, model), full, cfg)))
    assert direct == {"the state after step 271 is not finite"}


@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("unit", ["step", "interval"])
def test_every_stepper_sample_is_exactly_hermitian(monkeypatch, unit, method):
    # The stepper's real coordinates cannot leave the hermitian matrices, so
    # it checks its states for finiteness alone: every sample it stores, of
    # either block and on either space, equals its adjoint bit for bit, one
    # step or one sample interval per matvec row, with a short last interval.
    stride = 10
    monkeypatch.setattr(evolution, "_plan", lambda d, d_f, cfg: 1 if unit == "step" else stride)
    for d_s in (1, 2, 3):
        spec, rho0, decay, model = random_member(seed=d_s, d_s=d_s)
        cfg = IntegratorConfig(dt=0.01, t_max=1.03, sample_stride=stride, method=method)
        for traj in (evolve_enlarged(model, rho0, cfg), evolve_wwa(spec, rho0, cfg)):
            for block in traj.blocks:
                assert np.array_equal(block, block.conj().transpose(0, 2, 1))


def test_every_direct_sample_after_the_first_is_exactly_hermitian(monkeypatch):
    # The direct RK4 re-symmetrizes every state it stores.
    pin_route(monkeypatch, 0)
    for d_s in (1, 2, 3):
        spec, rho0, decay, model = random_member(seed=d_s, d_s=d_s)
        cfg = IntegratorConfig(dt=0.01, t_max=0.5, sample_stride=10)
        for traj in (evolve_enlarged(model, rho0, cfg), evolve_wwa(spec, rho0, cfg)):
            for block in traj.blocks:
                assert np.array_equal(block[1:], block[1:].conj().transpose(0, 2, 1))


def test_stepper_refuses_a_last_state_that_overflows():
    # With dt = 5 the single decay's state first overflows at step 272, the
    # last step of this run.
    _, _, model = single_decay()
    with pytest.raises(NumericsError, match="the state after step 272 is not finite"):
        evolve_enlarged(model, [[1.0]], IntegratorConfig(dt=5.0, t_max=5.0 * 272))


@pytest.mark.parametrize("gamma", [4.0, 1.0])
def test_an_exact_step_that_overflows_ends_in_numerics_error(gamma):
    # At Gamma 4 the entries of dt [L_ss; L_fs] = dt [-4; 4] overflow; at
    # Gamma 1 they are finite, but the 1-norm, 2e308, overflows.  Either ends
    # in the same NumericsError as an rk4 step that overflows, with no
    # warning and no other exception.
    _, _, model = single_decay(gamma=gamma)
    cfg = IntegratorConfig(dt=1e308, t_max=1e308, method="exact")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="the exact step of length 1e\\+308 is not finite"):
            evolve_enlarged(model, [[1.0]], cfg)


@pytest.mark.parametrize("stride", [7, 10])
def test_a_stride_run_names_the_step_that_overflows(monkeypatch, stride):
    # A run that jumps 7 or 10 steps per matvec row replays the interval in
    # which the single decay's state overflows one step at a time, and names
    # the same step as the runs above; numpy warns of none of it.
    counts = spy_jumps(monkeypatch)
    spec, _, model = single_decay()
    for t_max, message in (
        (5000.0, "the state after step 272 is not finite"),
        (5.0 * 272, "the state after step 272 is not finite"),
    ):
        cfg = IntegratorConfig(dt=5.0, t_max=t_max, sample_stride=stride)
        for evolve, target in ((evolve_enlarged, model), (evolve_wwa, spec)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericsError, match=message):
                    evolve(target, [[1.0]], cfg)
    assert len(counts) == 4 and all(jump == stride for jump, _ in counts)


def test_every_step_is_built_in_float64(monkeypatch):
    # The steps are built from the real forms of L_ss and L_fs: every expm
    # of a run, on either space and by either method, is of a float64 matrix,
    # and so is every stacked step pair [E; Phi].
    inputs, pairs = [], []
    real_expm, step_blocks = evolution.expm, evolution._step_blocks

    def spy_expm(m):
        inputs.append(np.asarray(m).dtype)
        return real_expm(m)

    def spy_step_blocks(*args):
        pair = step_blocks(*args)
        pairs.append(pair.dtype)
        return pair

    monkeypatch.setattr(evolution, "expm", spy_expm)
    monkeypatch.setattr(evolution, "_step_blocks", spy_step_blocks)
    spec, rho0, decay, model = random_member(seed=5, d_s=2)
    for method in ("rk4", "exact"):
        cfg = IntegratorConfig(dt=1e-3, t_max=0.01, method=method)
        evolve_enlarged(model, rho0, cfg)
        evolve_wwa(spec, rho0, cfg)
    assert len(inputs) == 2 and len(pairs) == 4
    assert set(inputs) == set(pairs) == {np.dtype(np.float64)}


@pytest.mark.parametrize("d_s", range(1, 7))
def test_rk4_pair_is_the_first_block_column_of_the_degree_4_polynomial(d_s):
    # One classical RK4 step of dx/dt = L x is I + M + M^2/2 + M^3/6 + M^4/24
    # for M = h [[L_ss, 0], [L_fs, 0]], and the pair is its first block
    # column: against numpy's powers of the block matrix, on the square real
    # form of the system space and the stacked one of the enlarged space.
    spec, rho0, decay, model = random_member(seed=5, d_s=d_s)
    for gen in (spec.equation.real_form, model.system_equation.real_form):
        n, n_s = gen.shape
        for h in (1e-3, 0.05, 0.3):
            m = np.zeros((n, n))
            m[:, :n_s] = h * gen
            powers = [np.linalg.matrix_power(m, k) for k in range(5)]
            want = sum(p / f for p, f in zip(powers, (1, 1, 2, 6, 24)))[:, :n_s]
            got = evolution._step_blocks(gen, h, "rk4")
            assert got.shape == gen.shape
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("d_s", [12, 16])
def test_rk4_build_holds_three_pairs(d_s):
    # Beyond the cached real form, the build holds M^2, the result and one
    # scratch pair, and no scaled copy of the real form, on either space.
    spec, rho0, decay, model = random_member(seed=5, d_s=d_s)
    for gen in (spec.equation.real_form, model.system_equation.real_form):
        tracemalloc.start()
        try:
            evolution._step_blocks(gen, 1e-3, "rk4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * gen.nbytes, (gen.shape, peak / gen.nbytes)


@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_a_run_of_no_steps_builds_nothing(monkeypatch, space, method):
    # A run of no steps neither builds the equation's real form nor calls
    # its right-hand side.
    calls, rhs = [], MasterEquation.rhs
    monkeypatch.setattr(MasterEquation, "rhs", lambda self, rho: calls.append(1) or rhs(self, rho))
    spec, rho0, decay, model = random_member(seed=5, d_s=2)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.0, method=method)
    if space == "enlarged":
        evolve_enlarged(model, rho0, cfg)
        equation = model.system_equation
    else:
        evolve_wwa(spec, rho0, cfg)
        equation = spec.equation
    assert "real_form" not in vars(equation)
    assert calls == []


@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_a_run_of_no_steps_builds_no_step(monkeypatch, space, method):
    # An rk4 step of length 1e300 is not finite, but a run of no steps takes
    # none: it returns the initial state without building a step.
    built, step_blocks = [], evolution._step_blocks
    monkeypatch.setattr(evolution, "_step_blocks", lambda *a: built.append(a) or step_blocks(*a))
    spec, rho0, decay, model = random_member(seed=5, d_s=2)
    cfg = IntegratorConfig(dt=1e300, t_max=0.0, method=method)
    traj = evolve_enlarged(model, rho0, cfg) if space == "enlarged" else evolve_wwa(spec, rho0, cfg)
    assert built == []
    assert np.array_equal(traj.times, [0.0])
    assert np.abs(traj.states[0] - rho0).max() <= 1e-15


def test_every_route_starts_from_the_gates_copy(monkeypatch):
    # rho0 with 5e-10 added to one entry, within the gate's 1e-9: each
    # route of each space stores the gate's symmetrized copy as sample 0,
    # and the sample tables of the routes agree.
    from opendecay.cli import _sample_table

    spec, rho0, decay, model = random_member(seed=42, d_s=6)
    rho0 = rho0.copy()
    rho0[0, 1] += 5e-10
    start = evolution._check_initial(rho0, 6)
    assert np.array_equal(start, start.conj().T) and not np.array_equal(start, rho0)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.05, sample_stride=10)
    tables = []
    for unit in (0, 1, cfg.sample_stride):  # direct, one step per row, one interval
        pin_route(monkeypatch, unit)
        enlarged, wwa = evolve_enlarged(model, rho0, cfg), evolve_wwa(spec, rho0, cfg)
        assert np.array_equal(enlarged.states[0], start) and np.array_equal(wwa.states[0], start)
        assert np.abs(enlarged.states - wwa.states).max() <= 1e-12
        tables.append(_sample_table(enlarged))
    assert max(np.abs(t - tables[0]).max() for t in tables) <= 1e-12


def test_superop_rejects_nonhermitian_initial_state():
    _, _, model = single_decay()
    cfg = IntegratorConfig(dt=1e-3, t_max=0.01)
    with pytest.raises(NotHermitianError, match="initial state deviates from hermiticity"):
        evolve_enlarged(model, [[1.0 + 0.1j]], cfg)


@pytest.mark.parametrize("d_s", [16, 17])
@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_grid_warning_names_the_caller(monkeypatch, space, method, d_s):
    # On the stepper and on the direct route (rk4 pinned to it at d_s = 17),
    # the warning points at the line that called the integrator, not into
    # the library.
    pin_route(monkeypatch, 1 if d_s == 16 else 0)
    spec, rho0, decay, model = random_member(seed=15, d_s=d_s)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.0105, method=method)
    with pytest.warns(UserWarning, match="not an integer multiple of dt") as record:
        if space == "enlarged":
            evolve_enlarged(model, rho0, cfg)
        else:
            evolve_wwa(spec, rho0, cfg)
        integrate_rk4(lambda r: rhs_wwa(r, spec), rho0, cfg)
    assert len(record) == 2
    assert all(w.filename == __file__ for w in record)
