"""Shared fixtures: the seeded 25-model corpus used by property and
acceptance tests (d_s in {1,2,3}, decay dimension equal to the decay-matrix
rank, up to 2 Lindblad operators, every fifth member rank-deficient)."""

from types import SimpleNamespace

import numpy as np
import pytest

from opendecay import evolution
from opendecay.analysis import choi_of_superoperator
from opendecay.evolution import Trajectory
from opendecay.model import (
    assemble_liouvillian,
    assemble_liouvillian_wwa,
    build_decay_operator,
    decompose_gamma,
    embed_operators,
    validate_spec,
)
from opendecay.randmodel import random_system

CORPUS_SIZE = 25


def split_oracle(times, full, d_s: int) -> tuple[Trajectory, float]:
    """Full d_tot x d_tot oracle states as an enlarged-space trajectory held
    by its two diagonal blocks, and the largest Frobenius norm of their sf
    blocks, which that layout takes to be zero."""
    full = np.asarray(full)
    traj = Trajectory(times, full[:, :d_s, :d_s], decay=full[:, d_s:, d_s:])
    return traj, float(np.linalg.norm(full[:, :d_s, d_s:], axis=(1, 2)).max())


def pin_route(monkeypatch, unit: int) -> None:
    """Make every ``rk4`` run take ``unit`` steps per stepper row, or the
    direct RK4 for unit 0, whatever the cost rule ``evolution._plan``
    prices; ``exact`` runs keep the rule's unit."""
    plan = evolution._plan
    monkeypatch.setattr(
        evolution,
        "_plan",
        lambda d, d_f, cfg: unit if cfg.method == "rk4" else plan(d, d_f, cfg),
    )


def enlarged_gap(a: Trajectory, b: Trajectory) -> float:
    """Largest Frobenius distance between the block-diagonal states of two
    enlarged-space trajectories, sample by sample, from their blocks."""
    ss = np.linalg.norm(a.states - b.states, axis=(1, 2))
    ff = np.linalg.norm(a.decay - b.decay, axis=(1, 2))
    return float(np.hypot(ss, ff).max())


def projected_choi(liouvillian, d: int) -> tuple[float, float]:
    """The smallest eigenvalue of P C P and ||C||_F, for the Choi matrix C of
    a vec() Liouvillian on d x d matrices and P the projector off
    vec(I)/sqrt(d): exp(tL) is completely positive for every t >= 0 exactly
    when that eigenvalue is not negative."""
    choi = choi_of_superoperator(liouvillian, d).matrix
    omega = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.eye(d * d) - np.outer(omega, omega)
    return float(np.linalg.eigvalsh(proj @ choi @ proj)[0]), float(np.linalg.norm(choi))


def sampled_asymptotics(traj: Trajectory, dec) -> float:
    """The decay limits read from the samples of a run from trace-one
    rho_ss(0) to the horizon 20/gamma0, for the smallest decay rate gamma0:
    the largest of the bound excess max_t [Tr rho_ss(t) - Tr rho_ss(0)
    exp(-gamma0 t) (1 + 1e-6)] over 1e-8, and the final ||rho_ss||_F and
    |Tr rho_ss| over 1e-7; inf for a run that stops short of the horizon.
    The limits hold when it is at most 1."""
    gamma0 = float(dec.rates.min())
    if traj.times[-1] < 20.0 / gamma0 * (1.0 - 1e-9):
        return np.inf
    traces = traj.traces[0]
    excess = np.max(traces - traces[0] * np.exp(-gamma0 * traj.times) * (1.0 + 1e-6))
    final = max(np.linalg.norm(traj.states[-1]), abs(traces[-1]))
    return float(max(excess / 1e-8, final / 1e-7))


def corpus_params(i: int) -> dict:
    d_s = (i % 3) + 1
    return dict(
        seed=1000 + i,
        d_s=d_s,
        n_lindblad=i % 3,
        rank=max(1, d_s - 1) if i % 5 == 4 else d_s,
    )


def make_member(i: int) -> SimpleNamespace:
    spec, rho0 = random_system(**corpus_params(i))
    validate_spec(spec)
    dec = decompose_gamma(spec.decay_matrix)
    decay = build_decay_operator(dec, spec.d_f)
    model = embed_operators(spec, decay)
    return SimpleNamespace(
        index=i,
        spec=spec,
        rho0=rho0,
        dec=dec,
        decay=decay,
        model=model,
        liouv=assemble_liouvillian(model.hamiltonian, model.lindblad_ops, model.decay_op),
        liouv_wwa=assemble_liouvillian_wwa(spec),
    )


@pytest.fixture(scope="session")
def corpus():
    return [make_member(i) for i in range(CORPUS_SIZE)]
