import json
import os
import tracemalloc
import warnings

from dataclasses import replace
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import pin_route, projected_choi, sampled_asymptotics, split_oracle

from opendecay import analysis, cli, evolution, model as model_module
from opendecay.cli import (
    builtin_scenario_path,
    main,
    parse_config,
    run_scenario,
    serialize_config,
    write_timeseries,
)
from opendecay.errors import NotHermitianError, ParseError, ValidationError
from opendecay.evolution import BlockDensity, IntegratorConfig, Trajectory
from opendecay.linalg import HermitianBasis, expm, hermitian_basis, unvec, vec
from opendecay.model import MasterEquation, embed_state
from opendecay.randmodel import MAX_ENTRIES, random_system

SINGLE_DECAY = builtin_scenario_path("single-decay").read_text()


def short(cfg, **kw):
    """Copy of a parsed config with a shorter integrator for fast tests."""
    integ = IntegratorConfig(
        dt=kw.get("dt", 1e-3),
        t_max=kw.get("t_max", 1.0),
        sample_stride=kw.get("sample_stride", 100),
        method=kw.get("method", "rk4"),
    )
    return replace(cfg, integrator=integ, checks=kw.get("checks", cfg.checks))


# -- parsing -------------------------------------------------------------------


def test_parse_builtin_single_decay():
    cfg = parse_config(SINGLE_DECAY)
    assert cfg.name == "single-decay"
    assert cfg.system.d_s == 1 and cfg.system.d_f == 1
    assert cfg.system.hamiltonian[0, 0] == 1.0
    assert cfg.system.decay_matrix[0, 0] == 1.0
    assert cfg.integrator.dt == 1e-3 and cfg.integrator.t_max == 10.0
    assert "cp" in cfg.checks


def test_parse_builtin_scenarios_all_valid():
    for name in ("single-decay", "two-level-decay", "random"):
        cfg = parse_config(builtin_scenario_path(name).read_text())
        assert cfg.name == name


def test_parse_rejects_non_psd_gamma():
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["Gamma"] = [[[-1.0, 0.0]]]
    with pytest.raises(ValidationError):
        parse_config(json.dumps(doc))


def test_main_exit_2_on_gamma_the_run_would_reject(tmp_path, monkeypatch, capsys):
    # Gamma = diag(1, -5e-11) is above the absolute bound -1e-10 but below
    # the relative one that decompose_gamma applies in the run, -1e-12 max(1,
    # ||Gamma||_F): parsing rejects it (exit 2), and no run starts.
    pairs = cli._matrix_to_json
    doc = {
        "name": "negative-rate",
        "system": {
            "d_s": 2, "d_f": 2, "H": pairs(np.zeros((2, 2))), "Gamma": pairs(np.diag([1.0, -5e-11])),
        },
        "initial_state": pairs(np.diag([1.0, 0.0])),
        "integrator": {"dt": 1e-3, "t_max": 0.01},
        "checks": ["trace"],
    }
    with pytest.raises(ValidationError, match="eigenvalue -5.000e-11"):
        parse_config(json.dumps(doc))
    path = tmp_path / "negative-rate.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("run started"))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "eigenvalue -5.000e-11" in capsys.readouterr().err


def test_parse_rejects_small_decay_space():
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["d_s"] = 2
    doc["system"]["H"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc["system"]["Gamma"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    doc["initial_state"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ValidationError, match="rank"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_key():
    doc = json.loads(SINGLE_DECAY)
    doc["plotting"] = True
    with pytest.raises(ParseError, match="unknown key"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_check():
    doc = json.loads(SINGLE_DECAY)
    doc["checks"] = ["positivity", "unitarity"]
    with pytest.raises(ParseError, match="unknown check"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("name", ["../escape", "a/b", "a\\b", "a\0b", ".", ".."])
def test_parse_rejects_name_that_is_not_a_plain_file_name(name):
    doc = json.loads(SINGLE_DECAY)
    doc["name"] = name
    with pytest.raises(ParseError, match="config.name"):
        parse_config(json.dumps(doc))
    doc["name"] = "ok..name"
    assert parse_config(json.dumps(doc)).name == "ok..name"


def test_parse_rejects_bad_json_with_location():
    with pytest.raises(ParseError, match="line"):
        parse_config("{\n  broken\n}")


def test_parse_rejects_system_and_random_together():
    doc = json.loads(SINGLE_DECAY)
    doc["random_system"] = {"seed": 1, "d_s": 1}
    with pytest.raises(ParseError):
        parse_config(json.dumps(doc))


def test_parse_rejects_missing_initial_state():
    doc = json.loads(SINGLE_DECAY)
    del doc["initial_state"]
    with pytest.raises(ParseError, match="initial_state"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unnormalized_state():
    doc = json.loads(SINGLE_DECAY)
    doc["initial_state"] = [[[0.5, 0.0]]]
    with pytest.raises(ValidationError, match="trace"):
        parse_config(json.dumps(doc))


def _defect_config(path, d_s):
    # random_system seed 42 as an explicit system, with 5e-10 added to
    # rho0[0, 1]: within the initial-state gate's 1e-9, not exactly hermitian.
    spec, rho0 = random_system(42, d_s)
    rho0 = rho0.copy()
    rho0[0, 1] += 5e-10
    pairs = cli._matrix_to_json
    doc = {
        "name": f"defect-d{d_s}",
        "system": {
            "d_s": d_s, "d_f": spec.d_f, "H": pairs(spec.hamiltonian),
            "Gamma": pairs(spec.decay_matrix), "A": [pairs(a) for a in spec.lindblad_ops],
        },
        "initial_state": pairs(rho0),
        "integrator": {"dt": 1e-3, "t_max": 0.05, "sample_stride": 10, "method": "rk4"},
        "checks": ["trace", "positivity", "equivalence"],
    }
    path.write_text(json.dumps(doc))
    return parse_config(path.read_text())


@pytest.mark.parametrize("d_s, route", [(24, "direct"), (4, "stepper")])
def test_main_runs_a_nearly_hermitian_initial_state_on_every_route(tmp_path, capsys, d_s, route):
    # Every route starts from the gate's hermitian copy, so its sample 0
    # passes the samples' 1e-10 gate; the direct route once stored the
    # input itself and exited 3 on it.
    path = tmp_path / "defect.json"
    cfg = _defect_config(path, d_s)
    equation = cli._RunContext(cfg).model.system_equation
    assert (evolution._plan(equation, cfg.integrator) == 0) == (route == "direct")
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "error" not in capsys.readouterr().err


def test_gamma_is_decomposed_once_per_spec(monkeypatch):
    # One decomposition of Gamma per parse and run, which validate_spec and
    # the run share: a random_system hands over the one that sized its d_f.
    # No other eigh is taken.
    from opendecay import randmodel

    calls, eighs = [], []
    decompose, eigh = model_module.decompose_gamma, np.linalg.eigh

    def counted(gamma):
        calls.append(1)
        return decompose(gamma)

    monkeypatch.setattr(model_module, "decompose_gamma", counted)
    monkeypatch.setattr(randmodel, "decompose_gamma", counted)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or eigh(a))
    checks = list(cli.CHECK_NAMES)
    for text, n in ((SINGLE_DECAY, 1), (builtin_scenario_path("random").read_text(), 1)):
        calls.clear()
        eighs.clear()
        run_scenario(short(parse_config(text), t_max=0.1, checks=checks), write=False)
        assert len(calls) == len(eighs) == n


def test_parse_random_system_generates_state():
    cfg = parse_config(builtin_scenario_path("random").read_text())
    assert cfg.seed == 42
    assert cfg.initial_state.shape == (2, 2)
    assert abs(np.trace(cfg.initial_state).real - 1.0) <= 1e-12


def test_parse_seed_override():
    text = builtin_scenario_path("random").read_text()
    a = parse_config(text, seed=7)
    b = parse_config(text, seed=7)
    c = parse_config(text)
    assert a.seed == 7
    assert np.array_equal(a.system.hamiltonian, b.system.hamiltonian)
    assert not np.array_equal(a.system.hamiltonian, c.system.hamiltonian)


def test_parse_seed_rejected_for_explicit_system():
    with pytest.raises(ParseError, match="seed"):
        parse_config(SINGLE_DECAY, seed=1)


def test_config_round_trip():
    cfg = parse_config(SINGLE_DECAY)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert serialize_config(again) == text
    assert np.array_equal(again.system.hamiltonian, cfg.system.hamiltonian)
    assert again.integrator == cfg.integrator
    assert again.checks == cfg.checks


def test_config_round_trip_random():
    cfg = parse_config(builtin_scenario_path("random").read_text())
    again = parse_config(serialize_config(cfg))
    assert np.array_equal(again.system.hamiltonian, cfg.system.hamiltonian)
    assert np.array_equal(again.initial_state, cfg.initial_state)


# -- running -------------------------------------------------------------------


def test_run_single_decay_tracks_closed_form(tmp_path):
    cfg = parse_config(SINGLE_DECAY)
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.exit_status == 0
    rows = np.array(result.table)
    assert np.abs(rows[:, 1] - np.exp(-rows[:, 0])).max() <= 1e-8
    text = result.timeseries_path.read_text()
    assert text.splitlines()[0] == "t,tr_rho_ss,tr_rho_ff,tr_total,delta,min_eig"
    assert "\r" not in text


def test_run_full_check_suite_random_seed(tmp_path):
    cfg = parse_config(builtin_scenario_path("random").read_text())
    cfg = short(cfg, t_max=2.0)
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.exit_status == 0
    assert {r.name for r in result.reports} == {
        "trace", "positivity", "cp", "equivalence", "asymptotics",
    }


def test_run_exact_vs_rk4_columns(tmp_path):
    cfg = parse_config(SINGLE_DECAY)
    rows = {}
    for method in ("rk4", "exact"):
        result = run_scenario(
            short(cfg, t_max=2.0, method=method, checks=()), out_dir=tmp_path / method
        )
        rows[method] = np.array(result.table)
    assert np.abs(rows["rk4"] - rows["exact"]).max() <= 1e-8


def test_run_outputs_deterministic(tmp_path):
    cfg = parse_config(SINGLE_DECAY)
    cfg = short(cfg, t_max=1.0)
    a = run_scenario(cfg, out_dir=tmp_path / "a")
    b = run_scenario(cfg, out_dir=tmp_path / "b")
    assert a.timeseries_path.read_bytes() == b.timeseries_path.read_bytes()
    assert a.report_path.read_bytes() == b.report_path.read_bytes()


def test_write_timeseries_degenerate_run(tmp_path):
    cfg = parse_config(SINGLE_DECAY)
    cfg = replace(
        cfg, integrator=IntegratorConfig(dt=1e-3, t_max=0.0), checks=()
    )
    result = run_scenario(cfg, out_dir=tmp_path)
    lines = result.timeseries_path.read_text().splitlines()
    assert len(lines) == 2  # header plus the t = 0 row
    assert lines[1].startswith("0,1,0,1,")


def test_write_timeseries_explicit_path(tmp_path):
    cfg = parse_config(SINGLE_DECAY)
    result = run_scenario(short(cfg, t_max=1.0, checks=()), write=False)
    assert result.timeseries_path is None
    path = tmp_path / "series.csv"
    write_timeseries(result, path)
    assert path.read_text().startswith("t,tr_rho_ss")


def test_report_file_format(tmp_path):
    cfg = parse_config(SINGLE_DECAY)
    result = run_scenario(short(cfg, t_max=1.0, checks=("trace", "positivity")), out_dir=tmp_path)
    lines = result.report_path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        name, verdict, measured, tolerance = line.split(",")
        assert verdict in ("pass", "fail")
        float(measured), float(tolerance)


# Values whose 17-significant-digit form is easy to get wrong.
AWKWARD_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.1, 1 / 3, 2**53 + 1, 1e22,
    -1.2345678901234567e-300,
]


def test_csv_rows_match_per_value_formatting(tmp_path):
    # The writers format a row at a time; the bytes are those of formatting
    # each value with f"{x:.17g}".
    table = np.array(AWKWARD_FLOATS + [0.0, 1.0]).reshape(2, 6)
    reports = tuple(
        analysis.VerificationReport(f"r{i}", "pass", x, x) for i, x in enumerate(AWKWARD_FLOATS)
    )
    result = cli.RunResult("fmt", table, reports, 0, enlarged=None, wwa=None)
    write_timeseries(result, tmp_path / "t.csv")
    cli.write_report(result, tmp_path / "r.csv")
    rows = [",".join(f"{x:.17g}" for x in row) for row in table.tolist()]
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == rows
    lines = [f"{r.name},pass,{r.measured:.17g},{r.tolerance:.17g}" for r in reports]
    assert (tmp_path / "r.csv").read_text().splitlines() == lines
    assert "nan,inf,-inf,-0,4.9406564584124654e-324,0.10000000000000001" in rows[0]


def test_run_table_is_a_read_only_array():
    result = run_scenario(short(parse_config(SINGLE_DECAY), checks=()), write=False)
    assert result.table.shape == (len(result.enlarged), 6)
    with pytest.raises(ValueError):
        result.table[0, 0] = 1.0


@pytest.mark.parametrize("name", ["single-decay", "two-level-decay", "random"])
def test_run_takes_each_block_spectrum_once(monkeypatch, name):
    # The min_eig column and the positivity check read one set of smallest
    # eigenvalues: one spectrum of each block's stack of samples.
    cfg = parse_config(builtin_scenario_path(name).read_text())
    assert "positivity" in cfg.checks
    smallest, stacks = evolution._smallest_eigenvalues, []

    def counting(a):
        stacks.append(a.shape)
        return smallest(a)

    monkeypatch.setattr(evolution, "_smallest_eigenvalues", counting)
    result = run_scenario(cfg, write=False)
    assert stacks == [result.enlarged.states.shape, result.enlarged.decay.shape]


def test_run_without_checks_gates_its_samples(monkeypatch):
    # The min_eig column is taken after the hermiticity gate, as the
    # positivity check is, so a run that asks for no check still has it.
    evolve = cli.evolve_enlarged

    def skewed(model, rho0, icfg):
        traj = evolve(model, rho0, icfg)
        states = traj.states.copy()
        states[2, 0, 0] += 1j
        return Trajectory(traj.times, states, decay=traj.decay)

    monkeypatch.setattr(cli, "evolve_enlarged", skewed)
    with pytest.raises(NotHermitianError, match=r"^sample 2 deviates from hermiticity"):
        run_scenario(short(parse_config(SINGLE_DECAY), checks=()), write=False)


def _d6_all_checks():
    # d_s = d_f = 6 over 1001 samples: more than the 455 samples of one
    # chunk of expanded 6 x 6 blocks.
    return parse_config(json.dumps({
        "name": "d6",
        "random_system": {"seed": 42, "d_s": 6, "n_lindblad": 1},
        "integrator": {"dt": 1e-3, "t_max": 1.0, "sample_stride": 1},
        "checks": list(cli.CHECK_NAMES),
    }))


def test_run_keeps_its_samples_as_coordinates(monkeypatch):
    # No run expands a stack of samples into matrices: at d <= 2 the table
    # and the checks expand none (the asymptotics check expands one row),
    # and at d >= 3 the smallest eigenvalues expand chunks of about 256 KiB.
    # An engine trajectory holds 8 n (d_s^2 + d_f^2) bytes of coordinates;
    # its states and decay blocks, built on first use, are read-only and the
    # matrices of those coordinates bit for bit.
    matrices, calls = HermitianBasis.matrices, []
    monkeypatch.setattr(
        HermitianBasis, "matrices",
        lambda self, c: calls.append((self.d, len(c))) or matrices(self, c),
    )
    names = ("single-decay", "two-level-decay", "random")
    configs = [parse_config(builtin_scenario_path(n).read_text()) for n in names]
    for cfg in configs + [_d6_all_checks()]:
        calls.clear()
        result = run_scenario(cfg, write=False)
        assert result.exit_status == 0
        d_s, d_f = cfg.system.d_s, cfg.system.d_f
        if d_s <= 2:
            assert all(rows == 1 for _, rows in calls), calls
        else:
            chunk = 2**18 // (16 * d_s**2)
            assert max(rows for _, rows in calls) == chunk < len(result.enlarged)
        for traj, dims in ((result.enlarged, (d_s, d_f)), (result.wwa, (d_s,))):
            assert "states" not in vars(traj) and "decay" not in vars(traj)
            assert traj.coords.nbytes == 8 * len(traj) * sum(d * d for d in dims)
            start = 0
            for d, block in zip(dims, traj.blocks):
                assert not block.flags.writeable
                want = matrices(hermitian_basis(d), traj.coords[:, start : start + d * d])
                assert np.array_equal(block, want, equal_nan=True)
                start += d * d
        assert result.wwa.decay is None


def test_equivalence_of_coordinates_whose_squares_overflow():
    # Finite d_s = 2 coordinates whose weighted sum of squares overflows give
    # a finite measure, rescaled, with no numpy warning; a difference that
    # overflows reads inf.
    def ctx(a, b):  # the enlarged run with a zero 1 x 1 decay block
        times = np.arange(float(len(a)))
        enlarged = np.concatenate((a, np.zeros((len(a), 1))), axis=1)
        return SimpleNamespace(
            spec=SimpleNamespace(d_s=2),
            enlarged=Trajectory._of_coords(times, enlarged, (2, 1)),
            wwa=Trajectory._of_coords(times, b, (2,)),
        )

    big = np.array([[0.0, 0.0, 0.0, 0.0], [1e160, -1e160, 1e160, 0.5e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cli._check_equivalence(ctx(big, -big))
        # ||diff||_F^2 is (1 + 2 + 2 + 1/4) (2e160)^2: the off-diagonal
        # coordinates weigh twice.
        assert rep.status == "fail" and rep.measured == pytest.approx(5.25**0.5 * 2e160, rel=1e-15)
        huge = np.array([[1e308, 0.0, 0.0, 0.0]])
        assert cli._check_equivalence(ctx(huge, -huge)).measured == np.inf


def test_run_builds_the_system_real_form_once(monkeypatch):
    # The enlarged run's step and the cp and asymptotics checks take the
    # real form of the model's system-block equation, which is built once.
    # The system-space run builds the real form of its own equation: two
    # builds in all.
    cfg = parse_config(builtin_scenario_path("random").read_text())
    assert {"cp", "asymptotics"} <= set(cfg.checks)
    build, built = MasterEquation.real_form.func, []

    def counting(self):
        built.append(self)
        return build(self)

    spy = cached_property(counting)
    spy.__set_name__(MasterEquation, "real_form")
    monkeypatch.setattr(MasterEquation, "real_form", spy)
    result = run_scenario(short(cfg, t_max=1.0), write=False)
    assert result.exit_status == 0
    assert len(built) == 2 and len({id(e) for e in built}) == 2
    assert [e.feed.shape[0] for e in built] == [cfg.system.d_f, 0]


# -- command line ----------------------------------------------------------------


def test_main_simulate_builtin(tmp_path, capsys):
    code = main(
        ["simulate", "single-decay", "--out", str(tmp_path), "--t-max", "1.0", "--checks", "trace"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace: pass" in out
    assert (tmp_path / "single-decay_timeseries.csv").exists()


def test_a_run_of_no_steps_warns_of_no_step_size(tmp_path):
    # dt |generator| is far above 0.1 at dt = 1e300, and an rk4 step of that
    # length is not finite, but a run of no steps takes no step: it neither
    # warns of the step size nor builds the step, and every check passes.
    doc = json.loads(SINGLE_DECAY)
    doc["integrator"].update(dt=1e300, t_max=0.0)
    path = tmp_path / "no-steps.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0


def test_main_exit_2_on_missing_config(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_main_exit_2_on_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["Gamma"] = [[[-1.0, 0.0]]]
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("system", "H", [[[float("nan"), 0.0]]]),
        ("system", "Gamma", [[[float("inf"), 0.0]]]),
        ("system", "H", [[[10**400, 0.0]]]),
        (None, "initial_state", [[[1.0, float("-inf")]]]),
        ("integrator", "t_max", float("nan")),
        ("integrator", "t_max", float("inf")),
        ("integrator", "dt", float("nan")),
    ],
)
def test_main_exit_2_on_non_finite_number(tmp_path, capsys, section, key, value):
    # json.loads accepts NaN and Infinity, and Python integers beyond the
    # float range; each must end as a config error, not a traceback.
    doc = json.loads(SINGLE_DECAY)
    (doc[section] if section else doc)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_main_exit_2_on_step_count_beyond_limit(tmp_path, monkeypatch, capsys):
    # t_max = 10 at dt = 1e-12 asks for 10^13 steps: a config error, raised
    # before anything is built or run.
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("run started"))
    assert main(["simulate", "single-decay", "--out", str(tmp_path), "--dt", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert "1e+13 steps" in err and "MAX_STEPS" in err
    assert not any(tmp_path.iterdir())


def test_parse_rejects_step_count_beyond_limit():
    doc = json.loads(SINGLE_DECAY)
    doc["integrator"]["dt"] = 1e-12
    with pytest.raises(ParseError, match="1e\\+13 steps"):
        parse_config(json.dumps(doc))


def test_main_exit_2_on_trajectories_beyond_memory_budget(tmp_path, monkeypatch, capsys):
    # d_s = d_f = 24 sampled at every one of 10^7 steps: 10^7 + 1 samples of
    # 16 (2 * 24^2 + 24^2) bytes, rejected at parse time from the config and
    # from the flags, before any evolution starts.
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("run started"))
    size = (10**7 + 1) * 16 * (2 * 24**2 + 24**2)
    doc = {
        "name": "huge",
        "random_system": {"seed": 42, "d_s": 24, "n_lindblad": 1},
        "integrator": {"dt": 1e-6, "t_max": 10.0, "sample_stride": 1},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"need {size} bytes" in err and "MAX_TRAJECTORY_BYTES" in err
    doc["integrator"] = {"dt": 1e-3, "t_max": 0.01, "sample_stride": 1}
    path.write_text(json.dumps(doc))
    flags = ["--dt", "1e-6", "--t-max", "10"]
    assert main(["simulate", str(path), "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert f"need {size} bytes" in err and "MAX_TRAJECTORY_BYTES" in err
    assert not (tmp_path / "out").exists()


def test_memory_budget_boundary(tmp_path, monkeypatch, capsys):
    # d_s = 1, d_f = 2: 16 (2 * 1^2 + 2^2) = 96 bytes per sample, and
    # MAX_TRAJECTORY_BYTES / 96 = 5592405.3 samples, one per step plus t = 0.
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("run started"))
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["d_f"] = 2
    doc["integrator"] = {"dt": 1.0, "t_max": 5592404.0, "sample_stride": 1}
    assert parse_config(json.dumps(doc)).integrator.n_samples * 96 == 536870880
    doc["integrator"]["t_max"] = 5592405.0
    path = tmp_path / "over.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "need 536870976 bytes" in err and "MAX_TRAJECTORY_BYTES" in err


def test_parse_rejects_oversized_random_system():
    doc = json.loads(builtin_scenario_path("random").read_text())
    doc["random_system"]["d_s"] = 600  # 1.44e6 entries
    with pytest.raises(ParseError, match="MAX_ENTRIES"):
        parse_config(json.dumps(doc))


def test_main_exit_2_on_decay_space_beyond_limit(tmp_path, monkeypatch, capsys):
    # d_f is bounded only from below by rank(Gamma); (1 + 10^6)^2 entries per
    # enlarged-space matrix is a config error, raised before anything is built.
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["d_f"] = 10**6
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("run started"))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{(1 + 10**6) ** 2} entries" in err and "MAX_ENTRIES" in err
    doc["system"]["d_f"] = int(MAX_ENTRIES**0.5) - 1  # (d_s + d_f)^2 = MAX_ENTRIES
    # Two samples, so that the trajectories (32 MB) stay within their budget.
    doc["integrator"]["sample_stride"] = 10**4
    assert parse_config(json.dumps(doc)).system.d_f == int(MAX_ENTRIES**0.5) - 1


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_main_exit_3_on_overflowing_operator(tmp_path, capsys, method):
    # A finite Lindblad operator whose A†A overflows is a numerical error
    # (exit 3) raised before any evolution, not an untyped crash (exit 1).
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["A"] = [[[[1e160, 0.0]]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out"), "--method", method]) == 3
    assert "generator G has entries that are not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_exit_3_on_an_exact_step_that_overflows(tmp_path, capsys):
    # dt Gamma = 4e308 overflows: the exact step ends in a numerical error
    # (exit 3), as the rk4 step does, not in a traceback (exit 1).
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["Gamma"] = [[[4.0, 0.0]]]
    doc["integrator"] = {"dt": 1e308, "t_max": 1e308, "method": "exact"}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert "numerical error: the exact step of length 1e+308 is not finite" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


def test_main_keeps_a_huge_decay_rate(tmp_path, capsys):
    # Gamma = [[1e200]] is a decay, not a zero rate: exact certifies all five
    # checks with B = [[1e100]], and an rk4 step of dt * 1e200 is not
    # finite, a numerical error (exit 3).
    doc = json.loads(SINGLE_DECAY)
    doc["system"]["Gamma"] = [[[1e200, 0.0]]]
    doc["integrator"] = {"dt": 1e-3, "t_max": 1.0, "sample_stride": 100}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    flags = ["--out", str(tmp_path / "out"), "--method"]
    assert main(["simulate", str(path), *flags, "exact"]) == 0
    out = capsys.readouterr().out
    assert all(f"{name}: pass" in out for name in cli.CHECK_NAMES)
    with pytest.warns(UserWarning, match="dt\\*\\|generator\\|"):
        assert main(["simulate", str(path), *flags, "rk4"]) == 3
    assert "rk4 step of length 0.001 is not finite" in capsys.readouterr().err


def _huge_decay_config(tmp_path) -> str:
    # d_s = 17 with H = 0 and Gamma = 1e200 I, from the first basis state.
    d = 17
    path = tmp_path / "huge.json"
    pairs = cli._matrix_to_json
    path.write_text(json.dumps({
        "name": "huge",
        "system": {
            "d_s": d, "d_f": d, "H": pairs(np.zeros((d, d))), "Gamma": pairs(1e200 * np.eye(d)),
        },
        "initial_state": pairs(np.diag([1.0] + [0.0] * (d - 1))),
        "integrator": {"dt": 1e-3, "t_max": 0.01},
        "checks": ["trace"],
    }))
    return str(path)


@pytest.mark.parametrize("dt", ["0.001", "1e150"])
def test_main_ends_an_exact_run_with_a_huge_or_overflowing_bound_on_the_stepper(
    tmp_path, capsys, dt
):
    # Gamma = 1e200 I at d_s = 17 with exact: the direct step would take
    # 2^650 substeps at dt = 1e-3, and its bound overflows at dt = 1e150.
    # The cost rule sends both to the stepper, with no OverflowError, no hang
    # and no warning: at 1e-3 its step is finite and the run passes; at 1e150
    # dt L overflows, a numerical error (exit 3).
    config = _huge_decay_config(tmp_path)
    flags = ["--method", "exact", "--dt", dt, "--t-max", str(10 * float(dt))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["simulate", config, "--out", str(tmp_path / "out"), *flags])
    captured = capsys.readouterr()
    if dt == "1e150":
        assert status == 3
        assert "numerical error: the exact step of length 1e+150 is not finite" in captured.err
    else:
        assert status == 0 and "trace: pass" in captured.out
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("route", ["stepper", "direct"])
def test_main_exit_3_on_overflowing_state_without_runtime_warnings(
    monkeypatch, tmp_path, capsys, route
):
    # A state that overflows ends in the same numerical error, which names
    # the first step whose state is not finite: on the stepper (single-decay
    # at dt = 5) and on the direct step (d_s = 17 with Gamma = 1e200 I,
    # pinned to it).  The step-size warning is the only warning.
    if route == "stepper":
        config, flags, step = "single-decay", ["--dt", "5", "--t-max", "5000"], 272
    else:
        pin_route(monkeypatch, 0)
        config, flags, step = _huge_decay_config(tmp_path), [], 1
    with pytest.warns(UserWarning, match="dt\\*\\|generator\\|") as record:
        assert main(["simulate", config, "--out", str(tmp_path / "out"), *flags]) == 3
    assert [w.category for w in record] == [UserWarning]
    assert f"the state after step {step} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["under-a-file", "onto-a-directory"])
def test_main_exit_2_on_unwritable_output(tmp_path, capsys, case):
    # An output directory below a regular file, or an output file that is a
    # directory, is named with exit 2, and no .tmp file is left behind.
    if case == "under-a-file":
        (tmp_path / "file").write_text("")
        out = named = tmp_path / "file" / "sub"
    else:
        out = tmp_path / "out"
        named = out / "single-decay_timeseries.csv"
        named.mkdir(parents=True)
    assert main(["simulate", "single-decay", "--out", str(out), "--t-max", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {named}: ")
    assert not list(tmp_path.rglob("*.tmp"))


def _kaon_config(method: str, dt: float, stride: int) -> str:
    # Neutral kaons in the K0/K0bar basis, in units of Gamma_S, with the PDG
    # ratios Gamma_S/Gamma_L = 570 and Delta m = 0.47 Gamma_S, from K0 to
    # 20/Gamma_L: the stiff case of the paper's application.
    g_s, g_l, dm = 1.0, 1.0 / 570.0, 0.47

    def pairs(m):
        return [[[x, 0.0] for x in row] for row in m]

    return json.dumps({
        "name": "kaon",
        "system": {
            "d_s": 2,
            "d_f": 2,
            "H": pairs([[0.0, -dm / 2], [-dm / 2, 0.0]]),
            "Gamma": pairs([[(g_s + g_l) / 2, (g_s - g_l) / 2], [(g_s - g_l) / 2, (g_s + g_l) / 2]]),
        },
        "initial_state": pairs([[1.0, 0.0], [0.0, 0.0]]),
        "integrator": {"dt": dt, "t_max": 20.0 / g_l, "sample_stride": stride, "method": method},
        "checks": list(cli.CHECK_NAMES),
    })


def test_kaon_rk4_exceeds_the_step_bound(tmp_path, monkeypatch, capsys):
    # rk4 at dt 1e-3 to 20/Gamma_L needs 1.14e7 steps: a config error.
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("run started"))
    path = tmp_path / "kaon.json"
    path.write_text(_kaon_config("rk4", 1e-3, 100))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "1.14e+07 steps" in err and "MAX_STEPS" in err


def test_kaon_exact_certifies_all_checks():
    # The exact step is exact at any dt, so dt = 1 reaches 20/Gamma_L.
    result = run_scenario(parse_config(_kaon_config("exact", 1.0, 100)), write=False)
    assert [r.name for r in result.reports] == list(cli.CHECK_NAMES)
    assert all(r.status == "pass" for r in result.reports), result.reports


def test_main_exit_2_on_unknown_flag_check(tmp_path):
    assert main(["simulate", "single-decay", "--out", str(tmp_path), "--checks", "bogus"]) == 2


def test_main_exit_1_on_failed_check(tmp_path, monkeypatch, capsys):
    from opendecay.analysis import VerificationReport

    def failing(ctx):
        return VerificationReport(name="trace", status="fail", measured=1.0, tolerance=0.0)

    monkeypatch.setitem(cli.CHECKS, "trace", failing)
    code = main(
        ["simulate", "single-decay", "--out", str(tmp_path), "--t-max", "1.0", "--checks", "trace"]
    )
    assert code == 1
    report = (tmp_path / "single-decay_report.csv").read_text()
    assert report.startswith("trace,fail,")


def test_main_seed_override_changes_output(tmp_path):
    assert main(["simulate", "random", "--out", str(tmp_path / "a"),
                 "--t-max", "1.0", "--checks", "trace", "--seed", "7"]) == 0
    assert main(["simulate", "random", "--out", str(tmp_path / "b"),
                 "--t-max", "1.0", "--checks", "trace", "--seed", "8"]) == 0
    a = (tmp_path / "a" / "random_timeseries.csv").read_text()
    b = (tmp_path / "b" / "random_timeseries.csv").read_text()
    assert a != b


def test_sample_table_matches_per_sample_formula(tmp_path):
    cfg = parse_config(builtin_scenario_path("two-level-decay").read_text())
    # Reference: the full d_tot x d_tot state, rebuilt from the blocks with
    # zero coherences.
    result = run_scenario(short(cfg, t_max=1.0, checks=()), write=False)
    traj = result.enlarged
    zero = np.zeros((cfg.system.d_s, cfg.system.d_f))
    for row, t, ss, ff in zip(result.table, traj.times, traj.states, traj.decay):
        rho = BlockDensity(rho_ss=ss, rho_sf=zero, rho_fs=zero.T, rho_ff=ff).to_full()
        tr_ss, tr_ff = np.trace(ss).real, np.trace(ff).real
        sym = 0.5 * (rho + rho.conj().T)
        ref = (t, tr_ss, tr_ff, tr_ss + tr_ff, np.trace(sym @ sym).real, np.linalg.eigvalsh(sym)[0])
        assert np.allclose(row, ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["single-decay", "two-level-decay", "random"])
def test_shipped_scenarios_rerun_byte_identical(tmp_path, name):
    cfg = parse_config(builtin_scenario_path(name).read_text())
    a = run_scenario(cfg, out_dir=tmp_path / "a")
    b = run_scenario(cfg, out_dir=tmp_path / "b")
    assert a.timeseries_path.read_bytes() == b.timeseries_path.read_bytes()
    assert a.report_path.read_bytes() == b.report_path.read_bytes()


# -- writing -------------------------------------------------------------------

RANDOM_RUN = ["simulate", "random", "--t-max", "1.0", "--checks", "trace"]


def _outputs(out_dir, name="random"):
    return [out_dir / f"{name}_timeseries.csv", out_dir / f"{name}_report.csv"]


def _recording_replace(monkeypatch):
    calls = []
    real = os.replace

    def recording(src, dst):
        calls.append((Path(src), Path(dst)))
        real(src, dst)

    monkeypatch.setattr(cli.os, "replace", recording)
    return calls


def test_rerun_leaves_unchanged_outputs_in_place(tmp_path, monkeypatch):
    args = RANDOM_RUN + ["--out", str(tmp_path)]
    assert main(args) == 0
    paths = _outputs(tmp_path)
    old = {p: p.read_bytes() for p in paths}
    inodes = {p: p.stat().st_ino for p in paths}
    for p in paths:
        os.utime(p, ns=(10**18, 10**18))  # 2001: a refresh must move it forward
    calls = _recording_replace(monkeypatch)
    assert main(args) == 0
    assert calls == []
    for p in paths:
        assert p.read_bytes() == old[p]
        assert p.stat().st_ino == inodes[p]
        assert p.stat().st_mtime_ns > 10**18
    assert not list(tmp_path.glob("*.tmp"))


def test_rerun_with_new_output_replaces_both_files(tmp_path, monkeypatch):
    assert main(RANDOM_RUN + ["--out", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert main(RANDOM_RUN + ["--out", str(tmp_path / "b"), "--seed", "8"]) == 0
    paths = _outputs(tmp_path / "a")
    inodes = [p.stat().st_ino for p in paths]
    calls = _recording_replace(monkeypatch)
    assert main(RANDOM_RUN + ["--out", str(tmp_path / "a"), "--seed", "8"]) == 0
    # Written through <name>.tmp and renamed over the target, never in place.
    assert calls == [(p.with_name(p.name + ".tmp"), p) for p in paths]
    for p, q, ino in zip(paths, _outputs(tmp_path / "b"), inodes):
        assert p.read_bytes() == q.read_bytes()
        assert p.stat().st_ino != ino
    assert not list((tmp_path / "a").glob("*.tmp"))


def test_same_size_different_bytes_is_replaced(tmp_path, monkeypatch):
    args = RANDOM_RUN + ["--out", str(tmp_path)]
    assert main(args) == 0
    path = _outputs(tmp_path)[0]
    good = path.read_bytes()
    path.write_bytes(good.replace(b"0", b"9"))
    assert path.stat().st_size == len(good) and path.read_bytes() != good
    calls = _recording_replace(monkeypatch)
    assert main(args) == 0
    assert calls == [(path.with_name(path.name + ".tmp"), path)]
    assert path.read_bytes() == good
    assert not list(tmp_path.glob("*.tmp"))


def test_unchanged_file_without_utime_permission_is_replaced(tmp_path, monkeypatch):
    # A file owned by another user in a writable directory: utime fails with
    # EPERM, a rename over it still works, so the rerun falls back to it.
    args = RANDOM_RUN + ["--out", str(tmp_path)]
    assert main(args) == 0
    paths = _outputs(tmp_path)
    old = {p: p.read_bytes() for p in paths}

    def failing(path, *a, **kw):
        raise PermissionError(1, "Operation not permitted", str(path))

    monkeypatch.setattr(cli.os, "utime", failing)
    calls = _recording_replace(monkeypatch)
    assert main(args) == 0
    assert calls == [(p.with_name(p.name + ".tmp"), p) for p in paths]
    for p in paths:
        assert p.read_bytes() == old[p]
    assert not list(tmp_path.glob("*.tmp"))


def test_symlink_with_same_bytes_is_replaced_by_a_file(tmp_path, monkeypatch):
    args = RANDOM_RUN + ["--out", str(tmp_path / "out")]
    assert main(args) == 0
    path = _outputs(tmp_path / "out")[1]
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(path.read_bytes())
    os.utime(target, ns=(10**18, 10**18))
    path.unlink()
    path.symlink_to(target)
    calls = _recording_replace(monkeypatch)
    assert main(args) == 0
    assert calls == [(path.with_name(path.name + ".tmp"), path)]
    assert not path.is_symlink() and path.read_bytes() == target.read_bytes()
    assert target.stat().st_mtime_ns == 10**18


def test_failed_replace_removes_tmp_and_keeps_target(tmp_path, monkeypatch):
    result = run_scenario(short(parse_config(SINGLE_DECAY), checks=()), write=False)
    path = tmp_path / "series.csv"
    path.write_text("old\n")

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        write_timeseries(result, path)
    with pytest.raises(OSError, match="disk full"):
        write_timeseries(result, tmp_path / "fresh.csv")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


@pytest.mark.parametrize("dt, warns", [(0.1, True), (0.05, False)])
def test_step_size_warning(dt, warns):
    # At dt = 0.05 the cheap bound 2||G|| + sum ||K||^2 exceeds 0.1/dt, so
    # the warning rests on the exact ||L||_2 (dt * ||L||_2 is about 0.07).
    cfg = short(parse_config(SINGLE_DECAY), dt=dt, sample_stride=1, checks=())
    model = cli._RunContext(cfg).model
    assert dt * model.system_equation.norm_bound(2) > 0.1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(cfg, write=False)
    messages = [str(w.message) for w in caught]
    assert any("dt*|generator|" in m for m in messages) == warns


def test_step_size_norm_from_the_real_forms_matches_the_complex_generator(corpus):
    # The 2-norm of the complex [L_ss; L_fs], built here only as the oracle,
    # against the one the step-size warning takes from the cached real form.
    for m in corpus:
        l_ss = m.model.system_equation.liouvillian().matrix
        l_fs = np.kron(m.decay.matrix.conj(), m.decay.matrix)
        want = np.linalg.norm(np.concatenate((l_ss, l_fs)), 2)
        assert abs(cli._subspace_generator_norm(m.model) - want) <= 1e-12 * want


@pytest.mark.parametrize("stride", [None, 1])
@pytest.mark.parametrize("name", ["single-decay", "two-level-decay", "random"])
def test_equivalence_norm_equals_the_unchunked_norm(name, stride):
    # The check takes the norms over chunks of samples, from coordinates;
    # the measured value is bit-identical to the norm of the whole complex
    # difference, at the shipped stride and at stride 1, where the
    # two-level run spans two chunks of 8192 samples.
    cfg = parse_config(builtin_scenario_path(name).read_text())
    if stride is not None:
        cfg = short(cfg, t_max=cfg.integrator.t_max, sample_stride=stride)
    cfg = replace(cfg, checks=("equivalence",))
    result = run_scenario(cfg, write=False)
    (rep,) = result.reports
    delta = result.enlarged.states - result.wwa.states
    assert rep.measured == float(np.linalg.norm(delta, axis=(1, 2)).max())


@pytest.mark.parametrize("name", ["single-decay", "two-level-decay", "random"])
def test_cp_report_matches_full_propagator(name):
    # The run's certificate of the system block's generator against an
    # oracle independent of real_form: the projected Choi spectrum of the
    # Kronecker Liouvillian.  The bound decides, its scale is the oracle's
    # ||C||_F, its residual bounds the oracle's smallest eigenvalue from
    # below, and the oracle's own verdict is a pass.
    cfg = short(parse_config(builtin_scenario_path(name).read_text()), checks=("cp",))
    (rep,) = run_scenario(cfg, write=False).reports
    eq = cli._RunContext(cfg).model.system_equation
    low, norm = projected_choi(eq.liouvillian().matrix, cfg.system.d_s)
    assert rep.status == "pass" and rep.meta["decided_by"] == "bound"
    assert abs(rep.meta["scale"] - norm) <= 1e-12 * norm
    assert rep.measured == rep.meta["residual"] / rep.meta["scale"]
    assert low >= -rep.meta["residual"] - 1e-14 * norm
    assert max(0.0, -low) / norm <= 1e-8


def test_cp_report_fails_on_nan_eigenvalue(monkeypatch):
    # A NaN in the real form fails the bound, and an eigensolver that
    # returns NaN fails the eigvalsh path: neither passes at 0.  The real
    # form of a CP generator certified against no jumps leaves the bound
    # undecided, so the eigvalsh decides it, and passes it.
    cfg = short(parse_config(builtin_scenario_path("random").read_text()), checks=("cp",))
    eq = cli._RunContext(cfg).model.system_equation
    real_ss = eq.real_form[: cfg.system.d_s**2].copy()
    assert eq.jumps
    undecided = analysis.check_cp_generator(real_ss, ())
    assert undecided.status == "pass" and undecided.meta["decided_by"] == "eigvalsh"
    real_ss[1, 2] = np.nan
    rep = analysis.check_cp_generator(real_ss, eq.jumps)
    assert rep.status == "fail" and np.isnan(rep.measured) and rep.meta["decided_by"] == "bound"
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    rep = analysis.check_cp_generator(eq.real_form[: cfg.system.d_s**2], ())
    assert rep.status == "fail" and np.isnan(rep.measured) and rep.meta["decided_by"] == "eigvalsh"


def test_cp_check_holds_one_choi_sized_array():
    # With the real form built beforehand, the cp check at d_s = 24 holds
    # one complex d_s^4 array and row blocks of it: its peak traced
    # allocation is at most 1.5 times 16 d_s^4 bytes.
    d_s = 24
    ctx = cli._RunContext(_no_padding_config(d_s, "rk4", ["cp"]))
    ctx.model.system_equation.real_form
    tracemalloc.start()
    try:
        rep = ctx.cp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "pass" and rep.meta["decided_by"] == "bound"
    assert peak <= 1.5 * 16 * d_s**4


def test_equivalence_of_overflowing_finite_states_fails_with_a_finite_measure(tmp_path, capsys):
    # An rk4 run whose states stay finite but reach about 1e180: the
    # equivalence norm is rescaled and the purity reads inf, with no numpy
    # warning.  Warnings are errors, except the step-size UserWarning.
    path = tmp_path / "equivalence-overflow.json"
    path.write_text(json.dumps({
        "name": "equivalence-overflow",
        "system": {"d_s": 1, "d_f": 1, "H": [[[0, 0]]], "Gamma": [[[3, 0]]], "A": []},
        "initial_state": [[[1, 0]]],
        "integrator": {"dt": 1.0, "t_max": 1300.0, "sample_stride": 1, "method": "rk4"},
        "checks": ["equivalence"],
    }))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", category=UserWarning)
        assert main(["simulate", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    name, verdict, measured, tol = (out / "equivalence-overflow_report.csv").read_text().split(",")
    assert (name, verdict, tol) == ("equivalence", "fail", "1e-08\n")
    assert np.isfinite(float(measured))
    last = (out / "equivalence-overflow_timeseries.csv").read_text().splitlines()[-1].split(",")
    assert last[4] == "inf" and np.isfinite(float(last[1]))


# The cp check alone at d_s = 12, and all five checks on the stepper (rk4 and
# exact at d_s = 2) and on the direct RK4 route (rk4 at d_s = 17, pinned to
# it).  The last field pins the rk4 route (0 for the direct RK4), or is None
# for the cost rule's choice.
NO_PADDING_RUNS = (
    (12, "rk4", ["cp"], None),
    (2, "rk4", list(cli.CHECK_NAMES), None),
    (2, "exact", list(cli.CHECK_NAMES), None),
    (17, "rk4", list(cli.CHECK_NAMES), 0),
)


def _no_padding_config(d_s: int, method: str, checks: list):
    return parse_config(json.dumps({
        "name": "no-padding",
        "random_system": {"seed": 42, "d_s": d_s, "n_lindblad": 1},
        "integrator": {"dt": 1e-3, "t_max": 0.05, "sample_stride": 10, "method": method},
        "checks": checks,
    }))


def _run_pinned(monkeypatch, cfg, unit):
    with monkeypatch.context() as m:
        if unit is not None:
            pin_route(m, unit)
        return run_scenario(cfg, write=False)


def test_run_pads_no_array_to_the_enlarged_space(monkeypatch):
    # Both evolutions and every check start from the d_s x d_s system block:
    # no run pads a state or an operator to d_tot x d_tot.
    def refuse(m, d_s, d_f):
        raise AssertionError(f"a run padded a {m.shape} block to {d_s + d_f} x {d_s + d_f}")

    monkeypatch.setattr(model_module, "_embed_block", refuse)
    for d_s, method, checks, unit in NO_PADDING_RUNS:
        result = _run_pinned(monkeypatch, _no_padding_config(d_s, method, checks), unit)
        assert [r.name for r in result.reports] == checks
        assert all(r.passed for r in result.reports), (d_s, method)


def test_cp_check_does_not_assemble_enlarged_liouvillian(monkeypatch):
    # The model is held as (spec, B), and no run of NO_PADDING_RUNS derives
    # a padded d_tot x d_tot operator from it.
    models = []
    embed = cli.embed_operators

    def recording_embed(spec, decay):
        models.append(embed(spec, decay))
        return models[-1]

    monkeypatch.setattr(cli, "embed_operators", recording_embed)
    padded = {"equation", "liouvillian", "hamiltonian", "lindblad_ops", "decay_op"}
    for d_s, method, checks, unit in NO_PADDING_RUNS:
        result = _run_pinned(monkeypatch, _no_padding_config(d_s, method, checks), unit)
        assert [r.name for r in result.reports] == checks
        assert all(r.passed for r in result.reports)
        model = models.pop()
        assert model.d_tot == 2 * d_s
        assert "system_equation" in vars(model)
        assert "real_form" in vars(model.system_equation)
        assert not padded & set(vars(model)), (d_s, method)


def test_no_run_builds_a_kronecker_liouvillian(monkeypatch):
    # Every run takes its generator from the real form, which is built from
    # the columns of the equation's operators: no run of NO_PADDING_RUNS, and no
    # shipped scenario with every check under rk4 or exact, builds the
    # Kronecker Liouvillian of any equation.
    calls = []
    liouvillian = MasterEquation.liouvillian

    def counting(self):
        calls.append(self.generator.shape)
        return liouvillian(self)

    monkeypatch.setattr(MasterEquation, "liouvillian", counting)
    configs = [(_no_padding_config(*run[:3]), run[3]) for run in NO_PADDING_RUNS]
    for name in ("single-decay", "two-level-decay", "random"):
        cfg = parse_config(builtin_scenario_path(name).read_text())
        for method in ("rk4", "exact"):
            integ = replace(cfg.integrator, method=method)
            configs.append((replace(cfg, integrator=integ, checks=cli.CHECK_NAMES), None))
    for cfg, unit in configs:
        result = _run_pinned(monkeypatch, cfg, unit)
        assert [r.name for r in result.reports] == list(cfg.checks)
        assert all(r.passed for r in result.reports), (cfg.name, cfg.integrator.method)
    assert calls == []


def test_all_checks_do_not_assemble_enlarged_liouvillian(monkeypatch):
    # With every check, at d_s = 12 (d_tot = 24), no run path builds a
    # d_tot^2 x d_tot^2 matrix: the enlarged Liouvillian stays unassembled.
    contexts = []
    make = cli._RunContext

    def recording(cfg):
        contexts.append(make(cfg))
        return contexts[-1]

    monkeypatch.setattr(cli, "_RunContext", recording)
    text = json.dumps({
        "name": "all-checks",
        "random_system": {"seed": 42, "d_s": 12, "n_lindblad": 1},
        "integrator": {"dt": 1e-3, "t_max": 0.05, "sample_stride": 10, "method": "rk4"},
        "checks": list(cli.CHECK_NAMES),
    })
    result = run_scenario(parse_config(text), write=False)
    assert [r.name for r in result.reports] == list(cli.CHECK_NAMES)
    assert all(r.passed for r in result.reports)
    (ctx,) = contexts
    assert ctx.dec.null_dim == 0  # the asymptotics check applies
    assert ctx.model.d_tot == 24
    assert "liouvillian" not in vars(ctx.model)


def _full_liouvillian_asymptotics(m):
    # The sampled oracle of the decay limits: 200 steps of expm of the whole
    # enlarged Liouvillian to the horizon 20/gamma0.
    horizon = 20.0 / float(m.dec.rates.min())
    n = 200
    step = expm(m.liouv.matrix * (horizon / n))
    v = vec(embed_state(m.rho0, m.spec.d_f))
    states = [unvec(v, m.model.d_tot)]
    for _ in range(n):
        v = step @ v
        states.append(unvec(v, m.model.d_tot))
    traj, sf = split_oracle(np.arange(n + 1) * (horizon / n), states, m.spec.d_s)
    return sampled_asymptotics(traj, m.dec), traj, sf


def test_asymptotics_matches_full_liouvillian_loop(corpus):
    # On every non-singular corpus member the generator certificate gives
    # the verdict of the sampled oracle, a pass, and its decay limit is the
    # oracle's final Tr rho_ff, which lacks only Tr rho_ss(20/gamma0) <=
    # e^-20.
    checked = 0
    for m in corpus:
        if m.dec.null_dim > 0:
            continue
        checked += 1
        eq = m.model.system_equation
        cp = analysis.check_cp_generator(eq.real_form[: m.spec.d_s**2], eq.jumps)
        ctx = SimpleNamespace(
            dec=m.dec, model=m.model, cfg=SimpleNamespace(initial_state=m.rho0), cp=cp
        )
        new = cli._check_asymptotics(ctx)
        oracle, traj, sf = _full_liouvillian_asymptotics(m)
        assert new.status == "pass" and oracle <= 1.0, m.index
        assert sf <= 1e-13
        assert new.measured <= 1e-6
        assert abs(new.meta["decay_limit"] - np.trace(traj.decay[-1]).real) <= 1e-8
    assert checked == 22


def test_an_all_checks_run_evolves_twice(monkeypatch):
    # The enlarged and the system-space evolutions are the only
    # propagations of a run with every check: the cp and asymptotics checks
    # certify the generator.
    calls, evolve = [], evolution._evolve
    monkeypatch.setattr(evolution, "_evolve", lambda *a: calls.append(a) or evolve(*a))
    cfg = parse_config(builtin_scenario_path("random").read_text())
    assert cfg.checks == cli.CHECK_NAMES and cfg.system.decomposition.null_dim == 0
    result = run_scenario(cfg, write=False)
    assert all(r.status == "pass" for r in result.reports)
    assert len(calls) == 2
