import numpy as np
import pytest
from conftest import enlarged_gap, split_oracle

from opendecay import evolution
from opendecay.errors import ConstraintError, DimensionError, GridError, NumericsError
from opendecay.evolution import (
    SUPEROP_MAX_DIM,
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
    Liouvillian,
    MasterEquation,
    SystemSpec,
    assemble_liouvillian,
    assemble_liouvillian_wwa,
    build_decay_operator,
    decompose_gamma,
    embed_operators,
    embed_state,
    feed_columns,
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
    traj = evolve_enlarged(model, rho0_full, IntegratorConfig(dt=1e-3, t_max=0.1, sample_stride=10))
    assert traj.states.shape == (len(traj), spec.d_s, spec.d_s)
    assert traj.decay.shape == (len(traj), spec.d_f, spec.d_f)


def test_feed_single_decay_growth():
    # rho_ff' = B rho_ss B†, with B = 1 for the unit decay rate.
    _, decay, model = single_decay(gamma=1.0)
    assert feed_columns(decay.matrix, np.array([[0.3]]))[0, 0] == pytest.approx(0.3)
    assert rhs_enlarged(np.diag([0.3, 0.0]), model)[1, 1] == pytest.approx(0.3)


def test_subspace_blocks_match_full_equation():
    # On a block-diagonal state the enlarged equation is rho_ss' = L_ss rho_ss
    # and rho_ff' = L_fs rho_ss, with zero coherence blocks.
    rng = np.random.default_rng(9)
    spec, _, decay, model = random_member(seed=6)
    d_s, d_f = spec.d_s, spec.d_f
    l_ss = model.system_liouvillian.matrix
    for _ in range(5):
        rho_ss, rho_ff = random_hermitian(d_s, rng), random_hermitian(d_f, rng)
        zero = np.zeros((d_s, d_f))
        full = BlockDensity(rho_ss=rho_ss, rho_sf=zero, rho_fs=zero.T, rho_ff=rho_ff).to_full()
        deriv = BlockDensity.from_full(rhs_enlarged(full, model), d_s)
        assert np.abs(deriv.rho_ss - unvec(l_ss @ vec(rho_ss), d_s)).max() <= 1e-12
        fed = unvec(feed_columns(decay.matrix, vec(rho_ss)[:, None]), d_f)
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
        assert np.abs(feed_columns(m.decay.matrix, np.eye(d_s * d_s)) - block).max() <= 1e-14


@pytest.mark.parametrize("d_s", [2, SUPEROP_MAX_DIM + 1])
@pytest.mark.parametrize("block", ["sf", "fs"])
def test_enlarged_rejects_coherent_initial_state(block, d_s):
    # Within the hermiticity tolerance, so that the block check is what
    # trips, and before any operator of the run is built.
    spec, rho0, decay, model = random_member(d_s=d_s)
    rho = embed_state(rho0, spec.d_f)
    if block == "sf":
        rho[0, d_s] = 1e-12
    else:
        rho[d_s, 0] = 1e-12
    with pytest.raises(ConstraintError, match=f"initial state has a nonzero {block} block"):
        evolve_enlarged(model, rho, IntegratorConfig(dt=1e-3, t_max=0.01))
    assert "system_equation" not in vars(model)


# -- RK4 integration --------------------------------------------------------------


def test_rk4_single_decay_half_life():
    # land exactly on t = ln 2 with a step close to 1e-3
    spec, _, model = single_decay(gamma=1.0)
    t_half = np.log(2.0)
    cfg = IntegratorConfig(dt=t_half / 693, t_max=t_half, sample_stride=693)
    traj = evolve_enlarged(model, np.diag([1.0, 0.0]), cfg)
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
    traj = evolve_enlarged(model, rho0_full, cfg)
    exact = [propagate_exact(liouv, rho0_full, t) for t in traj.times]
    exact, sf = split_oracle(traj.times, exact, spec.d_s)
    assert enlarged_gap(traj, exact) <= 1e-8 and sf <= 1e-8


def test_rk4_trace_and_hermiticity_preserved():
    spec, rho0, decay, model = random_member(seed=8, d_s=3, n_lindblad=2)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=50)
    traj = evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
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
    traj = evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
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
    with pytest.raises(NumericsError, match="hermiticity drift nan at step 1 "):
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
        errs.append(enlarged_gap(evolve_enlarged(model, rho0_full, cfg), exact))
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
    rho0_full = embed_state(rho0, spec.d_f)
    rk = evolve_enlarged(model, rho0_full, IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=100))
    ex = evolve_enlarged(
        model, rho0_full, IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=100, method="exact")
    )
    assert np.array_equal(rk.times, ex.times)
    assert enlarged_gap(rk, ex) <= 1e-8


# -- decay-block quadrature ---------------------------------------------------------


def test_quadrature_single_decay():
    spec, decay, model = single_decay(gamma=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=1)
    traj = evolve_enlarged(model, np.diag([1.0, 0.0]), cfg)
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
    traj = evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
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


# -- superoperator RK4 stepper ----------------------------------------------------------


def test_superop_stepper_matches_direct_rk4_on_corpus(corpus):
    # One RK4 step of the linear equation is the polynomial P(dt L), so the
    # stepper and the right-hand-side RK4 differ only by rounding.
    cfg = IntegratorConfig(dt=1e-3, t_max=0.4, sample_stride=40)
    worst = 0.0
    for m in corpus:
        assert m.model.d_tot <= SUPEROP_MAX_DIM
        rho0_full = embed_state(m.rho0, m.spec.d_f)
        fast = evolve_enlarged(m.model, rho0_full, cfg)
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
        fast = evolve_enlarged(m.model, rho0_full, cfg)
        if method == "rk4":
            oracle = integrate_rk4(lambda r: rhs_enlarged(r, m.model), rho0_full, cfg).states
        else:
            oracle = [propagate_exact(m.liouv, rho0_full, t) for t in fast.times]
        oracle, sf = split_oracle(fast.times, oracle, m.spec.d_s)
        worst = max(worst, enlarged_gap(fast, oracle), sf)
    assert worst <= 1e-12


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_direct_rk4_above_superop_threshold(monkeypatch, space, above):
    # Systems with d_s at the threshold take the stepper, one past it the
    # direct RK4, on either space; the direct RK4 calls the system-block
    # equation's right-hand side four times per step.  With its empty decay
    # sector, the system space's direct RK4 is integrate_rk4's arithmetic.
    d_s = SUPEROP_MAX_DIM + int(above)
    spec, rho0, decay, model = random_member(seed=15, d_s=d_s)
    if space == "enlarged":
        evolve, target, rhs = evolve_enlarged, model, rhs_enlarged
        rho0 = embed_state(rho0, spec.d_f)
    else:
        evolve, target, rhs = evolve_wwa, spec, rhs_wwa
    calls = []
    original = MasterEquation.rhs

    def counting(self, rho):
        calls.append(1)
        return original(self, rho)

    monkeypatch.setattr(MasterEquation, "rhs", counting)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.01)
    traj = evolve(target, rho0, cfg)
    assert len(calls) == (4 * cfg.n_steps if above else 0)
    if above:
        ref = integrate_rk4(lambda r: rhs(r, target), rho0, cfg)
        if space == "wwa":
            assert np.array_equal(traj.states, ref.states)
        else:
            # The enlarged space runs the same RK4 on its blocks, in other
            # arithmetic.
            ref, sf = split_oracle(ref.times, ref.states, d_s)
            assert max(enlarged_gap(traj, ref), sf) <= 1e-12


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_superop_drift_monitor_trips(method):
    # d vec(rho)/dt = i vec(rho) turns rho into exp(it) rho, which is not
    # hermitian: the drift after the first step is about 2 sin(dt).  The
    # engine with an empty decay sector, as the system space runs it; the
    # stepper takes no right-hand side.
    liouv = Liouvillian(matrix=1j * np.eye(4), dim=2)
    cfg = IntegratorConfig(dt=0.1, t_max=1.0, method=method)
    x0 = evolution._split_initial(np.eye(2) / 2, 2, 0)
    with pytest.raises(NumericsError, match="hermiticity drift .* at step 1 exceeds"):
        evolution._evolve(None, lambda: liouv, np.zeros((0, 2)), x0, cfg, method)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_superop_drift_monitor_trips_on_nan():
    # At dt = 5 the RK4 polynomial of the single decay rate is
    # 1 - 5 + 25/2 - 125/6 + 625/24 > 1, so the stepper grows until it
    # overflows and the drift becomes NaN.
    _, _, model = single_decay()
    cfg = IntegratorConfig(dt=5.0, t_max=5000.0)
    with pytest.raises(NumericsError, match="hermiticity drift nan"):
        evolve_enlarged(model, np.diag([1.0, 0.0]), cfg)


@pytest.mark.parametrize(
    "d, block_bytes",
    [
        pytest.param(1, 1, id="1"),
        pytest.param(7, 1, id="7"),
        pytest.param(1, 2**24, id="1-block"),
        pytest.param(7, 2**24, id="7-block"),
    ],
)
def test_stepper_drift_monitor_sees_the_fed_block(monkeypatch, d, block_bytes):
    # The system block stays hermitian and the fed block does not: the drift
    # is taken over both blocks, one step per matvec (block_bytes 1) and all
    # ten steps in one.
    monkeypatch.setattr(evolution, "BLOCK_BYTES", block_bytes)
    q_ss = np.eye(d * d, dtype=complex)
    q_fs = np.zeros((1, d * d), dtype=complex)
    q_fs[0, 0] = 1j
    h0 = np.zeros(d * d + 1)
    h0[0] = 1.0
    cfg = IntegratorConfig(dt=0.1, t_max=1.0)
    with pytest.raises(NumericsError, match="hermiticity drift 2.000e[+]00 at step 1 exceeds"):
        evolution._evolve_steps([q_ss, q_fs], h0, (d, 1), cfg)


def run_route(space, route, cfg):
    # The engine on one space by one route, for a d_s = 2 member whose
    # decay matrix has full rank, so that L_ss is invertible.
    spec, rho0, decay, model = random_member(seed=5, d_s=2)
    if space == "enlarged":
        return evolution._evolve_model(model, embed_state(rho0, spec.d_f), cfg, route)
    x0 = evolution._split_initial(rho0, spec.d_s, 0)
    return evolution._evolve(
        spec.equation, lambda: assemble_liouvillian_wwa(spec), np.zeros((0, 2)), x0, cfg, route
    )


# At d_s = 2 a step takes 8 * (8 + 4) * 4 bytes of the enlarged stepper's
# block matrix and 8 * (4 + 4) * 4 of the system space's, so BLOCK_BYTES
# allows 170 and 256 steps per block, and 2688 bytes allow 7 and 10.
@pytest.mark.parametrize(
    "block_bytes, t_max, stride",
    [
        (evolution.BLOCK_BYTES, 1.003, 1),
        (evolution.BLOCK_BYTES, 1.003, 3),
        (evolution.BLOCK_BYTES, 1.003, 10),
        (evolution.BLOCK_BYTES, 1.003, 250),  # stride above B
        (2688, 0.1, 1),
        (2688, 0.1, 3),
        (2688, 0.1, 10),  # stride above B
        (evolution.BLOCK_BYTES, 0.037, 10),  # fewer steps than BLOCK_BYTES allows
        (evolution.BLOCK_BYTES, 0.0, 1),
    ],
)
@pytest.mark.parametrize("route", ["rk4", "exact", "nonsingular"])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_block_stepper_matches_one_step_per_matvec(
    monkeypatch, space, route, block_bytes, t_max, stride
):
    # A block of B steps per matvec against one step per matvec: the same
    # sample times, and states equal up to the rounding of the powers E^j.
    cfg = IntegratorConfig(dt=1e-3, t_max=t_max, sample_stride=stride)
    blocks = []
    build = evolution._block_matrix

    def spy(q, w, block):
        blocks.append(block)
        return build(q, w, block)

    monkeypatch.setattr(evolution, "_block_matrix", spy)
    monkeypatch.setattr(evolution, "BLOCK_BYTES", block_bytes)
    blocked = run_route(space, route, cfg)
    monkeypatch.setattr(evolution, "BLOCK_BYTES", 1)
    single = run_route(space, route, cfg)
    assert blocks[1] == 1 and (blocks[0] > 1 or cfg.n_steps <= 1)
    assert len(blocked) == cfg.n_samples
    assert np.array_equal(blocked.times, single.times)
    assert np.array_equal(blocked.times, cfg.sampled_steps() * cfg.dt)
    assert np.abs(blocked.states - single.states).max() <= 1e-12
    if space == "enlarged":
        assert np.abs(blocked.decay - single.decay).max() <= 1e-12
    else:
        assert blocked.decay is None and single.decay is None


def drift_error(monkeypatch, block_bytes, q, h0, cfg) -> str:
    monkeypatch.setattr(evolution, "BLOCK_BYTES", block_bytes)
    with pytest.raises(NumericsError) as info:
        evolution._evolve_steps([a.astype(complex) for a in q], h0, (1, 1), cfg)
    return str(info.value)


def test_block_stepper_names_the_first_drift_inside_a_block(monkeypatch):
    # E = 2 and Im Q_ss = 1e-11: the drift of step j is 2e-11 * 2^(j-1),
    # exact in both forms, and first exceeds 1e-9 at step 7 of the block of
    # 10.
    q = [np.array([[2.0 + 1e-11j]]), np.zeros((1, 1))]
    h0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(dt=0.1, t_max=1.0)
    one = drift_error(monkeypatch, 1, q, h0, cfg)
    assert one == "hermiticity drift 1.280e-09 at step 7 exceeds 1e-09"
    assert drift_error(monkeypatch, 2**20, q, h0, cfg) == one


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_block_stepper_names_the_first_nan_inside_a_block(monkeypatch):
    # A real step has no drift, so a one-step loop fails only once the state
    # is infinite: 2^1000 * 2^24 overflows at step 24 and the drift of step
    # 25 is 0 * inf.  In a block of 40 the drift rows stay 0, and the
    # infinite state inside the block still names step 25.
    q = [np.array([[2.0]]), np.zeros((1, 1))]
    h0 = np.array([2.0**1000, 0.0])
    cfg = IntegratorConfig(dt=0.1, t_max=4.0)
    one = drift_error(monkeypatch, 1, q, h0, cfg)
    assert one == "hermiticity drift nan at step 25 exceeds 1e-09"
    assert drift_error(monkeypatch, 2**20, q, h0, cfg) == one


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_direct_block_drift_monitor_trips():
    # Above the stepper's threshold; dt = 50 makes every RK4 step grow the
    # state, and its rounding-level antihermitian part with it.
    spec, rho0, decay, model = random_member(seed=15, d_s=SUPEROP_MAX_DIM + 1)
    cfg = IntegratorConfig(dt=50.0, t_max=50.0 * 1000)
    with pytest.raises(NumericsError, match="hermiticity drift .* at step [0-9]+ exceeds 1e-09"):
        evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)


def test_superop_rejects_nonhermitian_initial_state():
    _, _, model = single_decay()
    cfg = IntegratorConfig(dt=1e-3, t_max=0.01)
    with pytest.raises(NumericsError, match="initial state deviates from hermiticity"):
        evolve_enlarged(model, np.array([[0.5, 0.1], [0.0, 0.5]]), cfg)


@pytest.mark.parametrize("d_s", [SUPEROP_MAX_DIM, SUPEROP_MAX_DIM + 1])
@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_grid_warning_names_the_caller(space, method, d_s):
    # On the stepper and on the direct route, the warning points at the line
    # that called the integrator, not into the library.
    spec, rho0, decay, model = random_member(seed=15, d_s=d_s)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.0105, method=method)
    with pytest.warns(UserWarning, match="not an integer multiple of dt") as record:
        if space == "enlarged":
            evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
        else:
            evolve_wwa(spec, rho0, cfg)
        integrate_rk4(lambda r: rhs_wwa(r, spec), rho0, cfg)
    assert len(record) == 2
    assert all(w.filename == __file__ for w in record)
