import numpy as np
import pytest

from opendecay import evolution
from opendecay.errors import DimensionError, GridError, NumericsError
from opendecay.evolution import (
    SUPEROP_MAX_DIM,
    BlockDensity,
    IntegratorConfig,
    Trajectory,
    closed_form_1d,
    evolve_blocks,
    evolve_enlarged,
    evolve_wwa,
    integrate_rk4,
    propagate_exact,
    rho_ff_quadrature,
    rhs_blocks,
    rhs_enlarged,
    rhs_wwa,
)
from opendecay.model import (
    Liouvillian,
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
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_max=1.0, method="euler")


def test_config_degenerate_run():
    cfg = IntegratorConfig(dt=0.1, t_max=0.0)
    traj = integrate_rk4(lambda r: np.zeros_like(r), np.eye(2), cfg)
    assert len(traj) == 1 and traj.times[0] == 0.0


def test_trajectory_rejects_decreasing_times():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], states=(np.eye(1), np.eye(1)))


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


def test_rhs_blocks_zero_coherence_stays_zero():
    spec, rho0, decay, _ = random_member()
    blocks = BlockDensity.from_full(embed_state(rho0, spec.d_f), spec.d_s)
    deriv = rhs_blocks(blocks, spec, decay)
    assert np.abs(deriv.rho_sf).max() == 0.0
    assert np.abs(deriv.rho_fs).max() == 0.0


def test_rhs_blocks_single_decay_growth():
    spec, decay, _ = single_decay(gamma=1.0)
    blocks = BlockDensity.from_full(np.diag([0.3, 0.0]), 1)
    deriv = rhs_blocks(blocks, spec, decay)
    assert deriv.rho_ff[0, 0] == pytest.approx(0.3)


def test_rhs_blocks_matches_full_equation():
    rng = np.random.default_rng(9)
    spec, _, decay, model = random_member(seed=6)
    for _ in range(5):
        rho = random_hermitian(model.d_tot, rng)
        via_blocks = rhs_blocks(BlockDensity.from_full(rho, spec.d_s), spec, decay).to_full()
        assert np.abs(via_blocks - rhs_enlarged(rho, model)).max() <= 1e-12


# -- RK4 integration --------------------------------------------------------------


def test_rk4_single_decay_half_life():
    # land exactly on t = ln 2 with a step close to 1e-3
    spec, _, model = single_decay(gamma=1.0)
    t_half = np.log(2.0)
    cfg = IntegratorConfig(dt=t_half / 693, t_max=t_half, sample_stride=693)
    traj = evolve_enlarged(model, np.diag([1.0, 0.0]), cfg)
    assert abs(traj.blocks(len(traj) - 1).rho_ss[0, 0].real - 0.5) <= 1e-9


def test_rk4_zero_generator_constant():
    cfg = IntegratorConfig(dt=0.1, t_max=1.0)
    traj = integrate_rk4(lambda r: np.zeros_like(r), np.diag([0.5, 0.5]), cfg)
    for s in traj.states:
        assert np.array_equal(s, np.diag([0.5, 0.5]))


def test_rk4_matches_exact_propagator():
    spec, rho0, decay, model = random_member(seed=7)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=1000)
    traj = evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
    exact = propagate_exact(liouv, traj.states[0], 1.0)
    assert np.linalg.norm(traj.states[-1] - exact) <= 1e-8


def test_rk4_trace_and_hermiticity_preserved():
    spec, rho0, decay, model = random_member(seed=8, d_s=3, n_lindblad=2)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=50)
    traj = evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
    traces = [float(np.trace(s).real) for s in traj.states]
    assert max(abs(t - 1.0) for t in traces) <= 1e-8
    for s in traj.states:
        assert np.linalg.norm(s - s.conj().T) <= 1e-10


def test_rk4_coherence_block_decoupling():
    spec, rho0, decay, model = random_member(seed=9)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=100)
    traj = evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
    for k in range(len(traj)):
        assert np.linalg.norm(traj.blocks(k).rho_sf) <= 1e-10


def test_rk4_system_trace_monotone():
    spec, rho0, decay, model = random_member(seed=10, d_s=3, n_lindblad=1)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=20)
    traj = evolve_enlarged(model, embed_state(rho0, spec.d_f), cfg)
    tr = [float(np.trace(traj.blocks(k).rho_ss).real) for k in range(len(traj))]
    assert all(tr[k + 1] <= tr[k] + 1e-10 for k in range(len(tr) - 1))


def test_rk4_drift_monitor_trips():
    # a derivative with a large anti-hermitian component must be caught
    def bad_rhs(rho):
        return np.array([[0.0, 1.0], [-1.0, 0.0]]) * 1e3

    cfg = IntegratorConfig(dt=0.1, t_max=1.0)
    with pytest.raises(NumericsError):
        integrate_rk4(bad_rhs, np.eye(2), cfg)


def test_rk4_fourth_order_convergence():
    spec, rho0, decay, model = random_member(seed=11, d_s=3, n_lindblad=2)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    rho0_full = embed_state(rho0, spec.d_f)
    errs = []
    for dt in (4e-3, 2e-3):
        cfg = IntegratorConfig(dt=dt, t_max=2.0, sample_stride=int(round(2.0 / dt)))
        traj = evolve_enlarged(model, rho0_full, cfg)
        errs.append(np.linalg.norm(traj.states[-1] - propagate_exact(liouv, rho0_full, 2.0)))
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
        assert np.abs(out - closed_form_1d(1.0, 1.0, t).to_full()).max() <= 1e-12


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
    for k in range(len(rk)):
        assert np.linalg.norm(rk.states[k] - ex.states[k]) <= 1e-8


# -- decay-block quadrature ---------------------------------------------------------


def test_quadrature_single_decay():
    spec, decay, model = single_decay(gamma=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=1)
    traj = evolve_enlarged(model, np.diag([1.0, 0.0]), cfg)
    ss = Trajectory(
        times=traj.times,
        states=tuple(traj.blocks(k).rho_ss for k in range(len(traj))),
    )
    out = rho_ff_quadrature(decay, ss)
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
    traj = evolve_blocks(spec, decay, embed_state(rho0, spec.d_f), cfg)
    ss = Trajectory(times=traj.times, states=tuple(traj.blocks(k).rho_ss for k in range(len(traj))))
    quad = rho_ff_quadrature(decay, ss)
    worst = max(
        np.linalg.norm(quad[k] - traj.blocks(k).rho_ff) for k in range(len(traj))
    )
    assert worst <= 1e-6


def test_quadrature_rejects_nonuniform_grid():
    _, decay, _ = single_decay()
    ss = Trajectory(times=[0.0, 0.1, 0.3], states=tuple(np.eye(1) for _ in range(3)))
    with pytest.raises(GridError):
        rho_ff_quadrature(decay, ss)


# -- closed form ---------------------------------------------------------------------


def test_closed_form_initial_condition():
    blocks = closed_form_1d(1.0, 1.0, 0.0)
    assert np.array_equal(blocks.to_full(), np.diag([1.0, 0.0]))


def test_closed_form_long_time_limit():
    blocks = closed_form_1d(1.0, 1.0, 50.0)
    assert np.abs(blocks.to_full() - np.diag([0.0, 1.0])).max() <= 1e-10


def test_closed_form_half_life():
    blocks = closed_form_1d(0.3, 1.0, np.log(2.0))
    assert blocks.rho_ss[0, 0] == pytest.approx(0.5)
    assert blocks.rho_ff[0, 0] == pytest.approx(0.5)


def test_closed_form_energy_independent():
    for energy in (-2.0, 0.0, 3.5):
        assert np.array_equal(
            closed_form_1d(energy, 0.7, 1.3).to_full(),
            closed_form_1d(0.0, 0.7, 1.3).to_full(),
        )


# -- superoperator RK4 stepper ----------------------------------------------------------


def test_superop_stepper_matches_direct_rk4_on_corpus(corpus):
    # One RK4 step of the linear equation is the polynomial P(dt L), so the
    # stepper and the right-hand-side RK4 differ only by rounding.
    cfg = IntegratorConfig(dt=1e-3, t_max=0.4, sample_stride=40)
    worst = 0.0
    for m in corpus:
        assert m.model.d_tot <= SUPEROP_MAX_DIM
        rho0_full = embed_state(m.rho0, m.spec.d_f)
        pairs = (
            (
                evolve_enlarged(m.model, rho0_full, cfg),
                integrate_rk4(lambda r: rhs_enlarged(r, m.model), rho0_full, cfg),
            ),
            (
                evolve_wwa(m.spec, m.rho0, cfg),
                integrate_rk4(lambda r: rhs_wwa(r, m.spec), m.rho0, cfg),
            ),
        )
        for fast, direct in pairs:
            assert np.array_equal(fast.times, direct.times)
            for a, b in zip(fast.states, direct.states):
                worst = max(worst, float(np.linalg.norm(a - b)))
    assert worst <= 1e-12


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("space", ["enlarged", "wwa"])
def test_direct_rk4_above_superop_threshold(monkeypatch, space, above):
    # States at the threshold take the stepper, one past it the direct RK4;
    # full-rank random models have d_tot = 2 d_s.
    d_s = SUPEROP_MAX_DIM // (2 if space == "enlarged" else 1) + int(above)
    spec, rho0, decay, model = random_member(seed=15, d_s=d_s)
    if space == "enlarged":
        evolve, target, name, rhs = evolve_enlarged, model, "rhs_enlarged", rhs_enlarged
        rho0, dim = embed_state(rho0, spec.d_f), model.d_tot
    else:
        evolve, target, name, rhs = evolve_wwa, spec, "rhs_wwa", rhs_wwa
        dim = spec.d_s
    assert (dim > SUPEROP_MAX_DIM) == above
    calls = []

    def counting(rho, obj):
        calls.append(1)
        return rhs(rho, obj)

    monkeypatch.setattr(evolution, name, counting)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.01)
    traj = evolve(target, rho0, cfg)
    assert len(calls) == (4 * cfg.n_steps if above else 0)
    if above:
        ref = integrate_rk4(lambda r: rhs(r, target), rho0, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(traj.states, ref.states))


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_superop_drift_monitor_trips(method):
    # d vec(rho)/dt = i vec(rho) turns rho into exp(it) rho, which is not
    # hermitian: the drift after the first step is about 2 sin(dt).
    liouv = Liouvillian(matrix=1j * np.eye(4), dim=2)
    cfg = IntegratorConfig(dt=0.1, t_max=1.0, method=method)
    with pytest.raises(NumericsError, match="hermiticity drift .* at step 1 exceeds"):
        evolution._evolve_linear(liouv, np.eye(2) / 2, cfg)


def test_superop_rejects_nonhermitian_initial_state():
    _, _, model = single_decay()
    cfg = IntegratorConfig(dt=1e-3, t_max=0.01)
    with pytest.raises(NumericsError, match="initial state deviates from hermiticity"):
        evolve_enlarged(model, np.array([[0.5, 0.1], [0.0, 0.5]]), cfg)
