"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s``).  The shared
corpus of 25 seeded random models comes from conftest; the paired corpus
evolutions are computed once per session and timed.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import enlarged_gap, split_oracle

from opendecay.analysis import (
    apply_kraus,
    asymptotics_check,
    check_cp,
    check_positivity,
    choi_matrix,
    kraus_amplitude_damping,
    mixedness,
)
from opendecay.evolution import (
    IntegratorConfig,
    evolve_enlarged,
    evolve_wwa,
    propagate_exact,
    rho_ff_quadrature,
)
from opendecay.linalg import expm, frobenius, unvec, vec
from opendecay.model import (
    SystemSpec,
    assemble_liouvillian,
    build_decay_operator,
    decompose_gamma,
    embed_operators,
    embed_state,
)

CORPUS_CFG = IntegratorConfig(dt=1e-3, t_max=5.0, sample_stride=10)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    """Paired RK4 evolutions (enlarged and system-space) for every corpus
    member on a common grid, with the total integration time recorded."""
    t0 = time.perf_counter()
    runs = []
    for m in corpus:
        enlarged = evolve_enlarged(m.model, m.rho0, CORPUS_CFG)
        wwa = evolve_wwa(m.spec, m.rho0, CORPUS_CFG)
        runs.append(SimpleNamespace(member=m, enlarged=enlarged, wwa=wwa))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(runs=runs, elapsed=elapsed)


@pytest.fixture(scope="session")
def onedim_run():
    """Criterion-1 trajectory: unit decay rate, unit energy, dt = 1e-3,
    every step sampled over [0, 10], with the integration time recorded."""
    spec = SystemSpec(d_s=1, d_f=1, hamiltonian=[[1.0]], decay_matrix=[[1.0]])
    decay = build_decay_operator(decompose_gamma(spec.decay_matrix), 1)
    model = embed_operators(spec, decay)
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0, sample_stride=1)
    t0 = time.perf_counter()
    traj = evolve_enlarged(model, [[1.0]], cfg)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(traj=traj, elapsed=elapsed, model=model, spec=spec)


def test_01_single_decay_closed_form(onedim_run):
    traj = onedim_run.traj
    t = traj.times
    ss = traj.states[:, 0, 0].real
    ff = traj.decay[:, 0, 0].real
    err_ss = np.abs(ss - np.exp(-t)).max()
    err_ff = np.abs(ff - (1.0 - np.exp(-t))).max()
    ok = err_ss <= 1e-8 and err_ff <= 1e-8 and onedim_run.elapsed < 1.0
    report(
        "01 single-decay closed form",
        ok,
        f"err_ss={err_ss:.2e}, err_ff={err_ff:.2e}, runtime={onedim_run.elapsed:.2f}s",
    )


def test_02_equivalence_of_formulations(corpus_runs):
    worst = 0.0
    for run in corpus_runs.runs:
        for k in range(len(run.enlarged)):
            delta = run.enlarged.states[k] - run.wwa.states[k]
            worst = max(worst, frobenius(delta))
    ok = worst <= 1e-8 and corpus_runs.elapsed < 30.0
    report(
        "02 equivalence",
        ok,
        f"worst |Delta|_F={worst:.2e}, runtime={corpus_runs.elapsed:.1f}s",
    )


def test_03_trace_conservation(corpus_runs):
    worst = 0.0
    for run in corpus_runs.runs:
        for s, f in zip(run.enlarged.states, run.enlarged.decay):
            worst = max(worst, abs(float((np.trace(s) + np.trace(f)).real) - 1.0))
    report("03 trace conservation", worst <= 1e-8, f"worst |Tr rho - 1|={worst:.2e}")


def test_04_positivity(corpus_runs):
    low = np.inf
    for run in corpus_runs.runs:
        rep = check_positivity(run.enlarged, tol=1e-8)
        low = min(low, rep.meta["min_eigenvalue"])
        assert rep.status == "pass"
    report("04 positivity", low >= -1e-8, f"worst min eigenvalue={low:.2e}")


def test_05_complete_positivity(corpus):
    low = np.inf
    for m in corpus:
        for t in (0.1, 1.0, 5.0):
            prop = expm(m.liouv.matrix * t)

            def restricted(rho_ss, prop=prop, m=m):
                full = embed_state(rho_ss, m.spec.d_f)
                out = unvec(prop @ vec(full), m.model.d_tot)
                return out[: m.spec.d_s, : m.spec.d_s]

            choi = choi_matrix(restricted, m.spec.d_s, t=t)
            rep = check_cp(choi, tol=1e-8)
            low = min(low, rep.meta["min_eigenvalue"])
            assert rep.status == "pass"
    # control: transposition is not completely positive
    control = choi_matrix(lambda r: r.T, 2)
    control_low = float(np.linalg.eigvalsh(control.matrix)[0])
    ok = low >= -1e-8 and control_low <= -0.9
    report(
        "05 complete positivity",
        ok,
        f"worst Choi eig={low:.2e}, transpose control={control_low:.2f}",
    )


def test_06_non_singular_decay_limits(corpus):
    worst_excess = -np.inf
    worst_limit = 0.0
    checked = 0
    for m in corpus:
        if m.dec.null_dim > 0:
            continue
        checked += 1
        gamma0 = float(m.dec.rates.min())
        horizon = 20.0 / gamma0
        n = 200
        step = expm(m.liouv.matrix * (horizon / n))
        v = vec(embed_state(m.rho0, m.spec.d_f))
        times = [0.0]
        states = [embed_state(m.rho0, m.spec.d_f)]
        tr0 = float(np.trace(m.rho0).real)
        for k in range(1, n + 1):
            v = step @ v
            times.append(k * horizon / n)
            states.append(unvec(v, m.model.d_tot))
        traj, sf = split_oracle(times, states, m.spec.d_s)
        for k in range(len(traj)):
            tr = float(np.trace(traj.states[k]).real)
            worst_excess = max(
                worst_excess, tr - tr0 * np.exp(-gamma0 * traj.times[k]) - 1e-8
            )
        worst_limit = max(
            worst_limit,
            frobenius(traj.states[-1]),
            sf,
            abs(float(np.trace(traj.decay[-1]).real) - 1.0),
        )
        assert asymptotics_check(traj, m.dec).status == "pass"
    ok = worst_excess <= 0.0 and worst_limit <= 1e-7 and checked >= 3
    report(
        "06 non-singular decay limits",
        ok,
        f"{checked} models, bound excess={worst_excess:.2e}, worst closing residual={worst_limit:.2e}",
    )


def test_07_mixedness_curve(onedim_run):
    traj = onedim_run.traj
    t = traj.times
    delta = np.array([mixedness(s) + mixedness(f) for s, f in zip(traj.states, traj.decay)])
    x = np.exp(-t)
    err = np.abs(delta - (1.0 - 2.0 * x + 2.0 * x * x)).max()
    k_min = int(np.argmin(delta))
    t_min = float(t[k_min])
    ok = err <= 1e-9 and abs(delta[k_min] - 0.5) <= 1e-6 and abs(t_min - np.log(2.0)) <= 1e-3
    report(
        "07 mixedness curve",
        ok,
        f"curve err={err:.2e}, min={delta[k_min]:.8f} at t={t_min:.4f}",
    )


def test_08_kraus_consistency(onedim_run):
    liouv = assemble_liouvillian(
        onedim_run.model.hamiltonian,
        onedim_run.model.lindblad_ops,
        onedim_run.model.decay_op,
    )
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    worst_map = 0.0
    worst_norm = 0.0
    for t in np.linspace(0.0, 10.0, 20):
        pair = kraus_amplitude_damping(1.0, float(t))
        via_kraus = apply_kraus(rho0, pair)
        via_exact = propagate_exact(liouv, rho0, float(t))
        worst_map = max(worst_map, frobenius(via_kraus - via_exact))
        worst_norm = max(
            worst_norm,
            frobenius(
                pair.m0.conj().T @ pair.m0 + pair.m1.conj().T @ pair.m1 - np.eye(2)
            ),
        )
    ok = worst_map <= 1e-10 and worst_norm <= 1e-12
    report(
        "08 Kraus consistency",
        ok,
        f"worst map residual={worst_map:.2e}, normalization residual={worst_norm:.2e}",
    )


def test_09_oracle_agreement(corpus, corpus_runs):
    worst = 0.0
    for run in corpus_runs.runs:
        m = run.member
        exact = evolve_enlarged(m.model, m.rho0, replace(CORPUS_CFG, method="exact"))
        worst = max(worst, enlarged_gap(run.enlarged, exact))
    # fourth-order convergence: measured where truncation dominates roundoff
    ratios = []
    for m in corpus[:10]:
        errs = []
        for dt in (5e-2, 2.5e-2):
            cfg = IntegratorConfig(dt=dt, t_max=2.0, sample_stride=int(round(0.5 / dt)))
            rk = evolve_enlarged(m.model, m.rho0, cfg)
            ex = evolve_enlarged(m.model, m.rho0, replace(cfg, method="exact"))
            errs.append(enlarged_gap(rk, ex))
        ratios.append(errs[0] / errs[1])
    ok = worst <= 1e-8 and all(r >= 15.0 for r in ratios)
    report(
        "09 oracle agreement",
        ok,
        f"worst rk4-vs-exact={worst:.2e}, halving ratios min={min(ratios):.1f}",
    )


def test_10_decay_block_quadrature(corpus):
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_stride=1)
    worst = 0.0
    for m in corpus:
        traj = evolve_enlarged(m.model, m.rho0, cfg)
        quad = rho_ff_quadrature(m.decay, traj)
        for k in range(len(traj)):
            worst = max(worst, frobenius(quad[k] - traj.decay[k]))
    report("10 decay-block quadrature", worst <= 1e-6, f"worst residual={worst:.2e}")
