"""Shared fixtures: the seeded 25-model corpus used by property and
acceptance tests (d_s in {1,2,3}, decay dimension equal to the decay-matrix
rank, up to 2 Lindblad operators, every fifth member rank-deficient)."""

from types import SimpleNamespace

import numpy as np
import pytest

from opendecay import evolution
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
    prices; ``exact`` and ``nonsingular`` runs keep the rule's unit."""
    plan = evolution._plan
    monkeypatch.setattr(
        evolution,
        "_plan",
        lambda d, d_f, cfg, route: unit if route == "rk4" else plan(d, d_f, cfg, route),
    )


def enlarged_gap(a: Trajectory, b: Trajectory) -> float:
    """Largest Frobenius distance between the block-diagonal states of two
    enlarged-space trajectories, sample by sample, from their blocks."""
    ss = np.linalg.norm(a.states - b.states, axis=(1, 2))
    ff = np.linalg.norm(a.decay - b.decay, axis=(1, 2))
    return float(np.hypot(ss, ff).max())


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
