"""Self-tests of the benchmark.

Run from the repository root with::

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # pins BLAS threads before numpy is used for real work

run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # c [9.5, 12] sticks out of root and is clipped to root's interval.
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 9.5]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    own = tracing.self_times(parents, starts, ends)
    np.testing.assert_allclose(own, [10 - 3 - 4 - 0.5, 3 - 1, 1, 4, 2.5])


def test_tracer_folds_spans_and_counts_errors():
    tracer = tracing.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("evolution.leaf", leaf)
    outer = tracer.wrap("cli.outer", lambda xs: [traced_leaf(x) for x in xs])
    assert outer([1, 2, 3]) == [1, 2, 3]
    with pytest.raises(ValueError):
        outer([1, -1])
    spans, counters, _ = tracer.collect()
    assert spans["cli.outer"]["calls"] == 2
    assert spans["evolution.leaf"]["calls"] == 5
    assert counters["evolution.errors"] == 1 and counters["cli.errors"] == 1
    outer_self = spans["cli.outer"]["s"] - spans["evolution.leaf"]["s"]
    assert spans["cli.outer"]["self_s"] == pytest.approx(outer_self, abs=1e-9)
    assert tracer.collect()[0] == {}


def test_installed_patches_callers_and_restores():
    from opendecay import cli, evolution, linalg

    original = linalg.expm
    with tracing.installed(tracing.Tracer()):
        assert cli.expm is evolution.expm is linalg.expm
        assert cli.expm is not original
    assert cli.expm is evolution.expm is linalg.expm is original


def test_benchmark_json_names_and_units():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m["name"]
        assert m["unit"] == run.metric_unit(m["name"]), m["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_mean_pass_pools_shapes_in_seconds_and_probes():
    class Unit:
        def __init__(self, shape):
            self.shape = shape

    units = [Unit("a"), Unit("b")]
    full = run.Pass(False, True, 0, [("a", 1.0), ("b", 3.0)], [("a", 10.0), ("b", 30.0)])
    cut = run.Pass(False, False, 0, [("a", 2.0)], [("a", 20.0)])
    assert run.mean_pass(units, [full, cut]) == pytest.approx(1.5 + 3.0)
    assert run.mean_pass(units, [full, cut], normalized=True) == pytest.approx(15.0 + 30.0)
    assert run.speed_probe() > 0


def _short_pass(name, count, tracer=None):
    wl = workloads.WORKLOADS[name]
    out_dir = run.WORK_DIR / f"selftest-{name}"
    units = wl.make_units(wl.default_seed, out_dir)[:count]
    gate = workloads.Gate(references=workloads.load_reference(name))
    passes = [run.run_pass(units, gate), run.run_pass(units, gate, tracer)]
    shutil.rmtree(out_dir, ignore_errors=True)
    return units, gate, passes


@pytest.mark.parametrize(
    "name, count",
    [("scenarios", 1), ("scenarios_exact", 3), ("large_d", 1)],
)
def test_shortened_pass_has_no_failures(name, count):
    units, gate, passes = _short_pass(name, count, tracing.Tracer())
    assert gate.problems == []
    assert gate.attempted == 2 * count and gate.failed / gate.attempted == 0
    # At the default seed every unit is compared with a stored reference.
    assert all(u.key in gate.references for u in units)
    layers = run.layer_metrics(units, passes)
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert layers["evolution.steps"] == sum(u.steps for u in units)


def test_gate_counts_reference_and_rerun_mismatches():
    table = np.ones((3, 2))

    class Fake:
        key = "fake"

        def __init__(self, table, digest):
            self.outcome = workloads.Outcome(table, digest, 0, [])

        def inspect(self, raw):
            return self.outcome

    gate = workloads.Gate(references={"fake": table})
    gate.record(Fake(table, "a"), None, None)
    assert gate.failed == 0
    gate.record(Fake(table + 1e-8, "a"), None, None)
    gate.record(Fake(table, "b"), None, None)
    gate.record(Fake(table, "a"), None, RuntimeError("boom"))
    assert (gate.attempted, gate.failed) == (4, 3)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "scenarios", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
