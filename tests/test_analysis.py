import warnings

import numpy as np
import pytest
from conftest import projected_choi, split_oracle

from opendecay import evolution
from opendecay.analysis import (
    ChoiMatrix,
    KrausPair,
    VerificationReport,
    apply_kraus,
    asymptotics_check,
    check_cp,
    check_cp_generator,
    check_positivity,
    check_trace,
    choi_matrix,
    choi_of_superoperator,
    kraus_amplitude_damping,
    mixedness,
)
from opendecay.errors import NotHermitianError
from opendecay.evolution import (
    BlockDensity,
    IntegratorConfig,
    Trajectory,
    closed_form_1d,
    evolve_enlarged,
    propagate_exact,
)
from opendecay.linalg import expm, unvec, vec
from opendecay.model import (
    MasterEquation,
    SystemSpec,
    assemble_liouvillian,
    assemble_liouvillian_wwa,
    build_decay_operator,
    decompose_gamma,
    embed_operators,
    embed_state,
)
from opendecay.randmodel import random_system


def single_decay_model(m=1.0, gamma=1.0):
    spec = SystemSpec(d_s=1, d_f=1, hamiltonian=[[m]], decay_matrix=[[gamma]])
    decay = build_decay_operator(decompose_gamma([[gamma]]), 1)
    model = embed_operators(spec, decay)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    return spec, model, liouv


def closed_form_trajectory(gamma=1.0, t_max=5.0, n=51):
    times = np.linspace(0.0, t_max, n)
    blocks = [closed_form_1d(gamma, t) for t in times]
    return Trajectory(
        times=times, states=[b.rho_ss for b in blocks], decay=[b.rho_ff for b in blocks]
    )


def exact_trajectory(liouv, rho0, t_max, n, d_s):
    # Held by its blocks; the full propagator keeps the sf block within
    # 1e-7.
    h = t_max / n
    step = expm(liouv.matrix * h)
    v = vec(rho0)
    times = [0.0]
    states = [rho0.copy()]
    for k in range(1, n + 1):
        v = step @ v
        times.append(k * h)
        states.append(unvec(v, liouv.dim))
    traj, sf = split_oracle(times, states, d_s)
    assert sf <= 1e-7
    return traj


# -- reports -------------------------------------------------------------------


def test_report_fails_iff_measured_exceeds_tolerance():
    ok = check_trace(closed_form_trajectory(), tol=1e-8)
    assert ok.status == "pass" and ok.measured <= ok.tolerance
    bad = check_trace(closed_form_trajectory(), tol=-1.0)
    assert bad.status == "fail" and bad.measured > bad.tolerance
    assert not bad.passed


# -- positivity ----------------------------------------------------------------


def test_positivity_closed_form():
    report = check_positivity(closed_form_trajectory(), tol=0.0)
    assert report.status == "pass"
    assert report.meta["min_eigenvalue"] >= 0.0


def test_positivity_random_trajectory():
    spec, rho0 = random_system(17, d_s=2, n_lindblad=1)
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), spec.d_f)
    model = embed_operators(spec, decay)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=100)
    traj = evolve_enlarged(model, rho0, cfg)
    assert check_positivity(traj, tol=1e-8).status == "pass"


def test_positivity_flags_crafted_violation():
    traj = Trajectory(times=[0.0], states=(np.diag([-0.1, 1.1]),))
    report = check_positivity(traj, tol=1e-8)
    assert report.status == "fail"
    assert report.measured == pytest.approx(0.1)


def test_positivity_rejects_nonhermitian_sample():
    traj = Trajectory(times=[0.0], states=(np.array([[0.0, 1.0], [0.0, 1.0]]),))
    with pytest.raises(NotHermitianError):
        check_positivity(traj)


def test_positivity_names_first_nonhermitian_sample():
    good = np.diag([0.5, 0.5])
    bad = np.array([[0.5, 1.0], [0.0, 0.5]])
    traj = Trajectory(times=[0.0, 0.1, 0.2], states=(good, bad, bad))
    with pytest.raises(NotHermitianError, match=r"^sample 1 deviates"):
        check_positivity(traj)


def test_nan_sample_fails_trace_and_positivity():
    nan = np.full((2, 2), np.nan)
    traj = Trajectory(times=[0.0, 0.1], states=(np.diag([0.5, 0.5]), nan))
    report = check_trace(traj)
    assert report.status == "fail" and np.isnan(report.measured)
    with pytest.raises(NotHermitianError, match=r"^sample 1 deviates from hermiticity by nan"):
        check_positivity(traj)
    with pytest.raises(NotHermitianError, match=r"^Choi matrix deviates from hermiticity by nan"):
        check_cp(ChoiMatrix(matrix=nan, dim=1))


def test_positivity_and_trace_see_the_decay_block():
    # The system blocks alone are positive and hold half the trace.
    states = [np.diag([0.5, 0.0])] * 2
    alone = Trajectory(times=[0.0, 0.1], states=states)
    assert check_trace(alone).measured == pytest.approx(0.5)
    assert check_positivity(alone, tol=0.0).status == "pass"
    traj = Trajectory(times=[0.0, 0.1], states=states, decay=[np.diag([0.6, -0.1])] * 2)
    assert check_trace(traj).measured == 0.0
    report = check_positivity(traj)
    assert report.status == "fail" and report.measured == pytest.approx(0.1)
    assert report.meta["min_eigenvalue"] == pytest.approx(-0.1)


def test_nan_decay_block_fails_trace_and_positivity(monkeypatch):
    states = [np.diag([0.5, 0.0])] * 2
    traj = Trajectory(times=[0.0, 0.1], states=states, decay=[[[0.5]], [[np.nan]]])
    report = check_trace(traj)
    assert report.status == "fail" and np.isnan(report.measured)
    with pytest.raises(NotHermitianError, match=r"^sample 1 deviates from hermiticity by nan"):
        check_positivity(traj)
    # A NaN eigenvalue of the decay blocks alone fails the report too.
    smallest = evolution._smallest_eigenvalues
    monkeypatch.setattr(
        evolution, "_smallest_eigenvalues",
        lambda c: np.full(len(c), np.nan) if c.shape[-1] == 1 else smallest(c),
    )
    traj = Trajectory(times=[0.0, 0.1], states=states, decay=[[[0.5]]] * 2)
    report = check_positivity(traj)
    assert report.status == "fail" and np.isnan(report.measured)


def test_nan_eigenvalue_fails_positivity_and_cp(monkeypatch):
    # An eigensolver that returns NaN must fail the report, not pass it at 0.
    # A 2 x 2 sample stack takes the closed form, so both solvers are patched.
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    monkeypatch.setattr(evolution, "_smallest_eigenvalues", lambda a: np.full(len(a), np.nan))
    state = np.diag([0.5, 0.5])
    for report in (
        check_positivity(Trajectory(times=[0.0], states=(state,))),
        check_cp(ChoiMatrix(matrix=state, dim=1)),
    ):
        assert report.status == "fail" and np.isnan(report.measured)


def test_positivity_batched_matches_per_sample_loop():
    # Reference: the smallest eigenvalue of each full d_tot x d_tot sample,
    # rebuilt from its blocks with zero coherences, one LAPACK call per
    # matrix.
    spec, rho0 = random_system(21, d_s=3, n_lindblad=2)
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), spec.d_f)
    model = embed_operators(spec, decay)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, sample_stride=50)
    traj = evolve_enlarged(model, rho0, cfg)
    worst = np.inf
    zero = np.zeros((spec.d_s, spec.d_f))
    for ss, ff in zip(traj.states, traj.decay):
        full = BlockDensity(rho_ss=ss, rho_sf=zero, rho_fs=zero.T, rho_ff=ff).to_full()
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (full + full.conj().T))[0]))
    assert check_positivity(traj).meta["min_eigenvalue"] == pytest.approx(worst, abs=1e-15)


# -- Choi matrices and complete positivity ---------------------------------------


def test_choi_identity_map():
    choi = choi_matrix(lambda m: m, 2)
    lam = np.linalg.eigvalsh(choi.matrix)
    assert np.allclose(lam, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert check_cp(choi, tol=1e-10).status == "pass"


def test_choi_single_decay_survival():
    spec, model, liouv = single_decay_model(gamma=1.0)
    wwa = assemble_liouvillian_wwa(spec)
    t = 0.9

    def decay_map(rho):
        return propagate_exact(wwa, rho, t)

    choi = choi_matrix(decay_map, 1, t=t)
    assert choi.matrix.shape == (1, 1)
    assert abs(choi.matrix[0, 0] - np.exp(-t)) <= 1e-12


def test_choi_transpose_map_is_swap_and_fails_cp():
    # classical non-CP control: the Choi of transposition is the swap matrix
    choi = choi_matrix(lambda m: m.T, 2)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2))
            unit[i, j] = 1.0
            swap += np.kron(unit, unit.T)
    assert np.abs(choi.matrix - swap).max() <= 1e-14
    report = check_cp(choi)
    assert report.status == "fail"
    assert report.meta["min_eigenvalue"] == pytest.approx(-1.0)


def test_choi_amplitude_damping_is_cp():
    pair = kraus_amplitude_damping(1.0, np.log(2.0))  # p = 0.5
    choi = choi_matrix(lambda rho: apply_kraus(rho, pair), 2)
    assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-9


def test_choi_enlarged_map_is_cp_and_trace_d():
    spec, rho0 = random_system(18, d_s=2, n_lindblad=2)
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), spec.d_f)
    model = embed_operators(spec, decay)
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    d = model.d_tot
    for t in (0.5, 1.0, 5.0):
        choi = choi_matrix(lambda rho: propagate_exact(liouv, rho, t), d, t=t)
        assert check_cp(choi, tol=1e-10).status == "pass"
        assert abs(np.trace(choi.matrix).real - d) <= 1e-9


def test_choi_restricted_map_trace_non_increasing():
    spec, model, liouv = single_decay_model(gamma=1.0)

    def restricted(rho_ss):
        full = embed_state(rho_ss, 1)
        return propagate_exact(liouv, full, 1.0)[:1, :1]

    choi = choi_matrix(restricted, 1)
    assert np.trace(choi.matrix).real <= 1.0 + 1e-9


def test_choi_of_superoperator_matches_map_evaluation():
    # The reshuffle of a superoperator's entries against the Choi matrix
    # built by evaluating the map: a system-block propagator, the
    # transposition (not CP) and the decay feed rho -> B rho B† (d_f != d_s).
    spec, rho0 = random_system(19, d_s=3, n_lindblad=1, rank=2)
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), spec.d_f)
    model = embed_operators(spec, decay)
    prop = expm(model.system_equation.liouvillian().matrix * 0.7)
    transpose = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            transpose[j + 2 * i, i + 2 * j] = 1.0  # vec(X^T) from vec(X)
    b = decay.matrix
    cases = [
        (prop, 3, lambda rho: unvec(prop @ vec(rho), 3)),
        (transpose, 2, lambda rho: rho.T),
        (np.kron(b.conj(), b), 3, lambda rho: b @ rho @ b.conj().T),
    ]
    for superop, d, apply in cases:
        got = choi_of_superoperator(superop, d, t=0.7)
        want = choi_matrix(apply, d, t=0.7)
        assert got.dim == want.dim == d and got.t == 0.7
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-14)
    assert check_cp(choi_of_superoperator(prop, 3)).status == "pass"
    assert check_cp(choi_of_superoperator(transpose, 2)).meta["min_eigenvalue"] == -1.0


# Scales c of the generator L -> cL: H and Gamma times c, the jumps times
# sqrt(c).  Complete positivity at every t does not change under them.
CP_SCALES = [10.0**e for e in range(-8, 9)]


def _scaled(eq: MasterEquation, c: float) -> MasterEquation:
    return MasterEquation(eq.generator * c, tuple(a * np.sqrt(c) for a in eq.jumps))


def test_cp_generator_certifies_the_corpus_at_every_scale(corpus):
    # Every corpus generator, scaled by 1e-8 to 1e8, is certified by the
    # bound alone, at a relative residual that does not grow with the scale.
    for m in corpus:
        eq = m.model.system_equation
        for c in CP_SCALES:
            scaled = _scaled(eq, c)
            rep = check_cp_generator(scaled.real_form[: m.spec.d_s**2], scaled.jumps)
            assert rep.status == "pass" and rep.meta["decided_by"] == "bound", (m.index, c)
            assert rep.measured <= 1e-14, (m.index, c, rep.measured)


def test_cp_generator_fails_a_negative_weight_dissipator_at_every_scale(corpus):
    # The same G with the jump term's sign flipped, -i(G rho - rho G†) -
    # sum_k A_k rho A_k†, certified against the jumps A_k: the bound cannot
    # decide, and the eigvalsh of P C P fails it with the smallest eigenvalue
    # of the Kronecker Liouvillian's projected Choi matrix.
    members = [m for m in corpus if m.model.system_equation.jumps]
    assert members
    for m in members:
        d = m.spec.d_s
        for c in CP_SCALES:
            eq = _scaled(m.model.system_equation, c)
            closed = MasterEquation(eq.generator, ())
            flipped = 2 * closed.real_form - eq.real_form
            rep = check_cp_generator(flipped[: d * d], eq.jumps)
            assert rep.status == "fail" and rep.meta["decided_by"] == "eigvalsh", (m.index, c)
            want, _ = projected_choi(2 * closed.liouvillian().matrix - eq.liouvillian().matrix, d)
            low = rep.meta["min_eigenvalue"]
            assert abs(low - want) <= 1e-12 * rep.meta["scale"], (m.index, c)
            assert rep.measured == -low / rep.meta["scale"] > 1e-8


def test_trajectory_caches_its_per_sample_numbers(monkeypatch):
    traj = closed_form_trajectory(n=5)
    smallest, calls = evolution._smallest_eigenvalues, []
    monkeypatch.setattr(
        evolution, "_smallest_eigenvalues", lambda c: calls.append(c.shape) or smallest(c)
    )
    first = check_positivity(traj)
    assert check_positivity(traj) == first
    assert calls == [(5, 1, 1), (5, 1, 1)]  # one stack per block, once
    for a in (traj.traces, traj.purity, traj.min_eigenvalues):
        assert not a.flags.writeable
    assert traj.traces.shape == (2, 5) and traj.purity.shape == (5,)


def test_failed_hermiticity_gate_caches_nothing(monkeypatch):
    bad = np.array([[0.5, 1.0], [0.0, 0.5]])
    traj = Trajectory(times=[0.0], states=(bad,))
    for _ in range(2):
        with pytest.raises(NotHermitianError, match=r"^sample 0 deviates"):
            check_positivity(traj)
    assert "min_eigenvalues" not in vars(traj)
    # The traces take no gate: the trace check still reports.
    assert check_trace(traj).status == "pass"
    # A skewed decay block: the blocks are gated and reduced one at a time,
    # so the system blocks' eigenvalues are taken before the decay gate
    # fails, and still nothing is cached.
    smallest, calls = evolution._smallest_eigenvalues, []
    monkeypatch.setattr(
        evolution, "_smallest_eigenvalues", lambda a: calls.append(a.shape) or smallest(a)
    )
    good = np.diag([0.5, 0.0])
    traj = Trajectory(times=[0.0, 0.1], states=[good, good], decay=[[[0.5]], [[0.5 + 1j]]])
    with pytest.raises(NotHermitianError, match=r"^sample 1 deviates"):
        check_positivity(traj)
    assert calls == [(2, 2, 2)]
    assert "min_eigenvalues" not in vars(traj)


# -- mixedness -------------------------------------------------------------------


def test_mixedness_pure_at_boundaries():
    assert mixedness(closed_form_1d(1.0, 0.0).to_full()) == pytest.approx(1.0)
    assert mixedness(closed_form_1d(1.0, 60.0).to_full()) == pytest.approx(1.0)


def test_mixedness_minimum_half():
    # delta(x) = 1 - 2x + 2x^2 over x = exp(-t) is minimized at x = 1/2
    t_half = np.log(2.0)
    assert mixedness(closed_form_1d(1.0, t_half).to_full()) == pytest.approx(0.5)
    for t in (t_half / 2, 2 * t_half):
        assert mixedness(closed_form_1d(1.0, t).to_full()) > 0.5


def test_mixedness_matches_curve():
    gamma = 1.0
    cfg = IntegratorConfig(dt=1e-3, t_max=3.0, sample_stride=30)
    _, model, _ = single_decay_model(gamma=gamma)
    traj = evolve_enlarged(model, [[1.0]], cfg)
    for k, t in enumerate(traj.times):
        x = np.exp(-gamma * t)
        delta = mixedness(traj.states[k]) + mixedness(traj.decay[k])
        assert abs(delta - (1 - 2 * x + 2 * x * x)) <= 1e-9


def test_mixedness_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        mixedness(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- asymptotics ------------------------------------------------------------------


def _certify(model, rho0, dec, generator=None):
    # The asymptotics report of the enlarged model's system-block equation,
    # or of that equation with another generator G, with its cp report.
    eq = model.system_equation
    if generator is not None:
        eq = MasterEquation(generator, eq.jumps, eq.feed)
    cp = check_cp_generator(eq.real_form[: model.d_s**2], eq.jumps)
    return asymptotics_check(eq.real_form, rho0, dec, cp)


def _scaled_member(m, c: float):
    # H and Gamma times c, A times sqrt(c): L_ss and L_fs times c.
    spec = SystemSpec(
        d_s=m.spec.d_s, d_f=m.spec.d_f, hamiltonian=m.spec.hamiltonian * c,
        decay_matrix=m.spec.decay_matrix * c,
        lindblad_ops=tuple(a * np.sqrt(c) for a in m.spec.lindblad_ops),
    )
    dec = decompose_gamma(spec.decay_matrix)
    return embed_operators(spec, build_decay_operator(dec, spec.d_f)), dec


def test_asymptotics_single_decay():
    spec, model, _ = single_decay_model(gamma=1.0)
    dec = decompose_gamma(spec.decay_matrix)
    report = _certify(model, np.array([[1.0]]), dec)
    assert report.status == "pass"
    assert report.meta["max_trace_rate"] == -1.0 and report.meta["decay_limit"] == 1.0
    assert report.measured == 0.0


def test_asymptotics_singular_not_applicable():
    spec = SystemSpec(d_s=2, d_f=1, hamiltonian=np.zeros((2, 2)), decay_matrix=np.diag([1.0, 0.0]))
    dec = decompose_gamma(spec.decay_matrix)
    model = embed_operators(spec, build_decay_operator(dec, 1))
    report = _certify(model, np.diag([1.0, 0.0]), dec)
    assert report.status == "not_applicable"
    assert report.passed


def test_asymptotics_exponential_bound_random_model():
    # The trace of an exact run stays under exp(lambda_max t) Tr rho0 for
    # the certified rate lambda_max, past the horizon 20/gamma0.
    spec, rho0 = random_system(19, d_s=2, n_lindblad=1)
    dec = decompose_gamma(spec.decay_matrix)
    assert dec.null_dim == 0
    model = embed_operators(spec, build_decay_operator(dec, spec.d_f))
    liouv = assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op)
    report = _certify(model, rho0, dec)
    assert report.status == "pass"
    rate = report.meta["max_trace_rate"]
    assert rate <= -dec.rates.min() * (1 - 5e-8)
    traj = exact_trajectory(liouv, embed_state(rho0, spec.d_f), 30.0 / dec.rates.min(), 300, d_s=2)
    tr0 = float(np.trace(rho0).real)
    for k in range(len(traj)):
        tr = float(np.trace(traj.states[k]).real)
        assert tr <= tr0 * np.exp(rate * traj.times[k]) + 1e-15
    assert abs(report.meta["decay_limit"] - np.trace(traj.decay[-1]).real) <= 1e-12


def test_asymptotics_singular_corpus_members_are_not_applicable(corpus):
    singular = [m for m in corpus if m.dec.null_dim > 0]
    assert len(singular) == 3
    for m in singular:
        assert _certify(m.model, m.rho0, m.dec).status == "not_applicable"


def test_asymptotics_verdicts_do_not_change_with_scale(corpus):
    # Every non-singular member passes at every scale of L, with the ratios
    # of the rate excess and the limit gap at rounding level.
    for m in corpus:
        if m.dec.null_dim > 0:
            continue
        for c in CP_SCALES:
            model, dec = _scaled_member(m, c)
            report = _certify(model, m.rho0, dec)
            assert report.status == "pass", (m.index, c)
            assert report.measured <= 1e-6, (m.index, c, report.measured)


@pytest.mark.parametrize("c", [0.9, 1 - 1e-6])
def test_asymptotics_fails_a_loss_below_the_decay_operator(corpus, c):
    # G + (i/2)(1 - c) B†B, the loss term c B†B: the trace now decays at c
    # gamma0, and 1/c of it arrives in the decay block.  Both parts fail, at
    # every scale, while cp still passes.
    members = [m for m in corpus if m.dec.null_dim == 0]
    for m in members:
        for scale in (1e-8, 1.0, 1e8):
            model, dec = _scaled_member(m, scale)
            gen = model.system_equation.generator + 0.5j * (1 - c) * model.decay.gram
            report = _certify(model, m.rho0, dec, gen)
            assert report.status == "fail", (m.index, scale)
            gamma0 = dec.rates.min()
            excess = (report.meta["max_trace_rate"] + gamma0) / (5e-8 * gamma0)
            assert excess == pytest.approx((1 - c) / 5e-8, rel=1e-6)
            gap = abs(report.meta["decay_limit"] - 1.0) / 1e-7
            assert gap == pytest.approx((1 / c - 1) / 1e-7, rel=1e-6)


def test_asymptotics_fails_with_a_cp_failing_dissipator(corpus):
    # The jump term's sign flipped: the cp certificate fails, so the
    # positivity that the rate bound rests on does not hold.
    members = [m for m in corpus if m.dec.null_dim == 0 and m.spec.lindblad_ops]
    assert members
    for m in members:
        eq = m.model.system_equation
        closed = MasterEquation(eq.generator, (), eq.feed)
        flipped = 2 * closed.real_form - eq.real_form
        cp = check_cp_generator(flipped[: m.spec.d_s**2], eq.jumps)
        report = asymptotics_check(flipped, m.rho0, m.dec, cp)
        assert cp.status == "fail" and report.status == "fail"
        assert report.measured >= cp.measured / cp.tolerance


@pytest.mark.parametrize("rows", ["loss", "feed"])
def test_asymptotics_fails_on_a_generator_that_is_not_finite(rows):
    # A NaN in the L_ss rows reaches the trace row and the solve, one in
    # the L_fs rows the decay limit: either fails, with no warning.
    spec, model, _ = single_decay_model(gamma=1.0)
    dec = decompose_gamma(spec.decay_matrix)
    gen = model.system_equation.real_form.copy()
    gen[0 if rows == "loss" else 1, 0] = np.nan
    cp = check_cp_generator(model.system_equation.real_form[:1], ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = asymptotics_check(gen, np.array([[1.0]]), dec, cp)
    assert report.status == "fail" and np.isnan(report.measured)


def test_asymptotics_fails_on_a_singular_solve():
    # A generator whose L_ss is singular, checked against a non-singular
    # decay matrix: the LU solve fails, and the report fails with it.
    dec = decompose_gamma(np.eye(2))
    gen = np.zeros((8, 4))
    cp = check_cp_generator(gen[:4], ())
    report = asymptotics_check(gen, np.diag([1.0, 0.0]), dec, cp)
    assert report.status == "fail" and np.isnan(report.meta["decay_limit"])


# -- Kraus pair -------------------------------------------------------------------


def test_kraus_no_decay_at_zero():
    pair = kraus_amplitude_damping(1.0, 0.0)
    assert pair.prob == 0.0
    assert np.array_equal(pair.m0, np.eye(2))
    assert np.abs(pair.m1).max() == 0.0


def test_kraus_half_life():
    pair = kraus_amplitude_damping(1.0, np.log(2.0))
    assert pair.prob == pytest.approx(0.5)
    assert pair.m1[1, 0] == pytest.approx(np.sqrt(0.5))


def test_kraus_long_time_limit():
    pair = kraus_amplitude_damping(1.0, 80.0)
    assert np.abs(pair.m0 - np.diag([0.0, 1.0])).max() <= 1e-12


def test_kraus_normalization_over_time():
    for t in np.linspace(0.0, 10.0, 21):
        pair = kraus_amplitude_damping(1.0, t)
        resid = pair.m0.conj().T @ pair.m0 + pair.m1.conj().T @ pair.m1 - np.eye(2)
        assert np.linalg.norm(resid) <= 1e-12


def test_apply_kraus_reproduces_closed_form():
    for t in (0.0, 0.4, 1.7, 6.0):
        pair = kraus_amplitude_damping(1.0, t)
        out = apply_kraus(np.diag([1.0, 0.0]), pair)
        assert np.abs(out - closed_form_1d(1.0, t).to_full()).max() <= 1e-12


def test_kraus_pair_rejects_nan_operators():
    # A NaN residual fails the normalization, as a large one does.
    with pytest.raises(ValueError, match="Kraus normalization residual nan"):
        KrausPair(m0=np.full((2, 2), np.nan), m1=np.zeros((2, 2)), prob=0.5)


@pytest.mark.parametrize(
    "rate, t",
    [(np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0), (np.inf, 1.0), (1.0, np.inf), (-1.0, 1.0)],
    ids=["nan-rate", "nan-t", "inf-rate-at-zero", "inf-rate", "inf-t", "negative-rate"],
)
def test_kraus_rejects_non_finite_or_negative_inputs(rate, t):
    # An infinite rate at t = 0 would give p = NaN through inf * 0.
    with pytest.raises(ValueError, match="must be non-negative and finite"):
        kraus_amplitude_damping(rate, t)


def test_apply_kraus_identity_at_p_zero():
    rng = np.random.default_rng(23)
    rho = rng.uniform(0, 1, (2, 2))
    rho = 0.5 * (rho + rho.T)
    assert np.array_equal(apply_kraus(rho, kraus_amplitude_damping(1.0, 0.0)), rho)


def test_apply_kraus_matches_exact_propagator():
    _, model, liouv = single_decay_model(m=1.0, gamma=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    for t in (0.1, 0.5, 1.0, 3.0, 8.0):
        via_kraus = apply_kraus(rho0, kraus_amplitude_damping(1.0, t))
        via_exact = propagate_exact(liouv, rho0, t)
        assert np.linalg.norm(via_kraus - via_exact) <= 1e-10


def test_apply_kraus_full_map_equality_without_hamiltonian():
    # with no energy term the channel matches the propagator on every state
    _, model, liouv = single_decay_model(m=0.0, gamma=1.0)
    rng = np.random.default_rng(24)
    for t in (0.2, 1.0, 2.5):
        pair = kraus_amplitude_damping(1.0, t)
        for _ in range(4):
            rho = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            rho = 0.5 * (rho + rho.conj().T)
            assert np.linalg.norm(apply_kraus(rho, pair) - propagate_exact(liouv, rho, t)) <= 1e-12
