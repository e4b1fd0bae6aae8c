"""opendecay benchmark: one workload, closed loop, one client, one process.

Usage, from the repository root::

    python3 bench/run.py --workload scenarios --seed 42 --seconds 40 --trace 0

Runs passes of the workload's units (``workloads.py``) back to back until
``--seconds`` is used up, checks every unit's output, and prints a readable
report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``, the
median time of fresh processes that import opendecay and build the inputs;
``wall_norm``, the time of one pass in units of a fixed reference loop
timed around and inside every unit (see ``SpeedSampler`` and
``mean_pass``; the pass time in seconds, with the median, quartiles and
count of whole-pass times, is printed beside it); ``peak_rss_mb``.  With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones from the spans (``tracing.py``), plus the tracing overhead.  ``--write-reference`` runs one
pass at the workload's default seed and stores its outputs as the reference
the correctness gate compares against.  ``--workload all`` runs every
workload in its own process and ends with a summary table.

The package is imported from ``src/`` next to this directory; the benchmark
exits with status 2 if it is not there.
"""

import os

# BLAS and OpenMP threads are pinned to 1 before numpy is imported: on two
# cores the default thread count makes small matvecs up to 100x slower.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 120
# Iterations of the pure-Python reference loop in speed_probe (~0.13 ms),
# and how often SpeedSampler runs it inside a unit.
PROBE_ITERATIONS = 1500
PROBE_INTERVAL_S = 0.02

# tracing and workloads import numpy, and workloads imports opendecay, so both
# are imported inside functions: after src/ is on the path, and after the
# set-up probe has started its clock.


def _die(msg: str) -> NoReturn:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "opendecay" / "__init__.py").is_file():
        _die(f"no opendecay package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import opendecay

    if not Path(opendecay.__file__).resolve().is_relative_to(SRC):
        _die(f"opendecay was imported from {opendecay.__file__}, not from {SRC}")


# -- running passes ---------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    complete: bool
    written: int
    unit_times: list[tuple[str, float]]  # (unit shape, seconds) in run order
    unit_probes: list[tuple[str, float]]  # (unit shape, seconds / probe time), untraced only
    layers: dict[str, float] | None = None

    @property
    def wall(self) -> float:
        return sum(t for _, t in self.unit_times)


def speed_probe() -> float:
    """Time a fixed pure-Python loop that does not touch opendecay."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times ``speed_probe`` at the start and end of a unit and, on SIGALRM,
    every ``PROBE_INTERVAL_S`` inside it.

    The host switches between a fast state and one about 1.8 times slower,
    for fractions of a second up to minutes, so whole runs of the same code
    differ by 20% and more.  A unit's time over the median probe time during
    it stays within a few percent from run to run, and still moves one to
    one with the program's own speed.  Probes at the unit's ends alone miss
    the switches within units that last seconds."""

    def __init__(self):
        self.probes: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(speed_probe())

    @contextmanager
    def sampling(self):
        self.probes = [speed_probe()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probes.append(speed_probe())

    def split(self, seconds: float) -> tuple[float, float]:
        """The unit's time without the probes run inside it, and that time
        over the median probe time."""
        own = seconds - sum(self.probes[1:-1])
        return own, own / statistics.median(self.probes)


def run_pass(units, gate, tracer=None, deadline=None, expected=None, probes=None) -> Pass:
    """Run every unit once, in order; time only the calls into opendecay.
    Untraced units are also timed in speed probes (``SpeedSampler``).  With
    a ``deadline``, stop before a unit that ``expected`` (seconds per unit
    shape) says would end after it.  Set-up ``probes`` that are due run
    between units."""
    import tracing

    unit_times = []
    unit_probes = []
    sampler = None if tracer else SpeedSampler()
    written = 0
    per_unit = []
    for unit in units:
        if probes is not None:
            probes.due()
        if deadline is not None and time.perf_counter() + expected.get(unit.shape, 0.0) > deadline:
            break
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracing.installed(tracer) if tracer else sampler.sampling():
                t0 = time.perf_counter()
                try:
                    raw, error = unit.execute(), None
                except Exception as exc:  # a raising unit is counted as failed
                    raw, error = None, exc
                t = time.perf_counter() - t0
        if sampler:
            t, in_probes = sampler.split(t)
            unit_probes.append((unit.shape, in_probes))
        unit_times.append((unit.shape, t))
        gate.warnings += len(caught)
        written += gate.record(unit, raw, error)
        if tracer:
            per_unit.append((unit.d_s, tracing.unit_layer_metrics(*tracer.collect())))
    p = Pass(tracer is not None, len(unit_times) == len(units), written, unit_times, unit_probes)
    if tracer:
        p.layers = tracing.pass_layer_metrics(per_unit, p.wall)
        p.layers["cli.bytes_written"] = written
    return p


def mean_pass(units, passes: list[Pass], normalized: bool = False) -> float:
    """Time of one pass: the sum over units of the mean time of all units
    of the same shape in the run, complete passes or not; in seconds, or
    ``normalized`` by the speed probes.

    Units of one shape do the same work, so pooling them gives every shape
    several samples even when a pass is long.  The mean moves in proportion
    to the share of slow host time; the median and the minimum jump between
    the host's fast and slow states, so they spread more from run to run."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for shape, t in p.unit_probes if normalized else p.unit_times:
            samples.setdefault(shape, []).append(t)
    return sum(statistics.fmean(samples[u.shape]) for u in units)


def run_loop(units, gate, seconds: float, trace: bool, probes=None) -> list[Pass]:
    """Closed loop: the next unit starts when the previous one returns.

    Without tracing, the first pass always completes and later passes go on
    until ``seconds`` are used up, stopping before a unit expected to
    overrun; a cut-short pass still adds samples of its unit shapes.  With
    tracing, whole untraced and traced passes alternate, at least one of
    each, and a pass starts only if it is expected to end in time."""
    import tracing

    tracer = tracing.Tracer() if trace else None
    passes: list[Pass] = []
    expected: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        cut = None if trace or not passes else deadline
        passes.append(run_pass(units, gate, tracer if traced else None, cut, expected, probes))
        expected.update(passes[-1].unit_times)
        if trace and len(passes) < 2:
            continue
        now = time.perf_counter()
        if (now + passes[-1].wall > deadline) if trace else (not passes[-1].complete or now >= deadline):
            return passes


# -- statistics and environment -------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and count; plus the highest of p75/p90/p99 that has
    at least ten samples beyond it."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n}
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def _median_metrics(dicts: list[dict]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, units) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas_id,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "unit_keys": [u.key for u in units],
        "load": "closed loop, 1 client, 1 process",
    }


# -- set-up -----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Import opendecay and build the workload's inputs; return the time."""
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workloads.WORKLOADS[workload].make_units(seed, WORK_DIR)
    return time.perf_counter() - t0


class SetupProbes:
    """Times set-up in fresh processes.  The probes are spread over the
    run, between units, so that they see the same mix of machine states as
    the passes rather than one moment of it."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.times: list[float] = []
        self.start = time.perf_counter()
        self.interval = seconds / SETUP_RUNS

    def _probe(self) -> None:
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr.strip()}")
        self.times.append(float(proc.stdout.split()[-1]))

    def due(self) -> None:
        """Run the next probe if its time in the run has come."""
        if len(self.times) < SETUP_RUNS and time.perf_counter() >= self.start + len(self.times) * self.interval:
            self._probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_RUNS:
            self._probe()
        return self.times


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's reference seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0

    _import_package()
    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None or args.write_reference else args.seed

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as out_dir:
        if args.write_reference:
            return write_reference(wl, seed, Path(out_dir))
        probes = None if args.trace else SetupProbes(wl.name, seed, args.seconds)
        units = wl.make_units(seed, Path(out_dir))
        gate = workloads.Gate(references=workloads.load_reference(wl.name))
        passes = run_loop(units, gate, args.seconds, bool(args.trace), probes)

    print(f"opendecay benchmark  workload={wl.name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"input per pass: {len(units)} units, {sum(u.steps for u in units)} integrator steps, "
        f"{sum(u.samples for u in units)} samples"
    )
    if args.trace:
        metrics = layer_metrics(units, passes)
        for k, v in metrics.items():
            print(f"  {k:40s} {v:14.6g} {metric_unit(k)}")
    else:
        setup = summary(probes.finish())
        wall = summary([p.wall for p in passes if p.complete])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        mean = mean_pass(units, passes)
        norm = mean_pass(units, passes, normalized=True)
        metrics = {"setup_s": setup["median"], "wall_norm": norm, "peak_rss_mb": rss_mb}
        print(f"  setup_s      {setup['median']:.6f} s    {_describe(setup, 'fresh processes')}")
        print(f"  wall_norm    {norm:.3f} probe    mean time per unit shape over the median speed probe during it, summed")
        print(f"  wall_s       {mean:.6f} s    mean time per unit shape, summed over one pass")
        print(f"  pass time    {wall['median']:.6f} s    {_describe(wall, 'complete passes')}")
        print(f"  peak_rss_mb  {rss_mb:.3f} MB")
    print(f"  fail_frac    {gate.failed / gate.attempted:.6g} ratio  ({gate.failed} failed of {gate.attempted} units)")
    print(f"  bytes written per pass: {passes[0].written}; warnings caught: {gate.warnings}")
    for problem in gate.problems[:20]:
        print(f"  FAIL {problem}")
    print("environment " + json.dumps(environment(wl.name, seed, units), sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }))
    return 0


def run_all(names: list[str], args) -> int:
    """Run each workload in a fresh process, so that each has its own peak
    memory, and print one summary row per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            _die(f"workload {name} exited with {proc.returncode}:\n{proc.stderr.strip()}")
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        rows.append((name, res))
    if not args.trace:
        print(f"{'workload':16s} {'setup_s':>10s} {'wall_norm':>10s} {'peak_rss_mb':>12s} {'fail_frac':>10s}")
        for name, res in rows:
            m = res["metrics"]
            print(f"{name:16s} {m['setup_s']['value']:10.4f} {m['wall_norm']['value']:10.1f} "
                  f"{m['peak_rss_mb']['value']:12.2f} {res['failed'] / res['attempted']:10.4g}")
        print(f"{'(unit)':16s} {'s':>10s} {'probe':>10s} {'MB':>12s} {'ratio':>10s}")
    print(json.dumps(combined))
    return 0


def layer_metrics(units, passes: list[Pass]) -> dict[str, float]:
    """Per-layer metrics of a traced run: medians over the traced passes,
    plus the tracing overhead, traced minus untraced ``wall_s``."""
    traced = [p for p in passes if p.traced]
    metrics = _median_metrics([p.layers for p in traced])
    metrics["trace.wall_s"] = mean_pass(units, traced)
    metrics["trace.untraced_wall_s"] = mean_pass(units, [p for p in passes if not p.traced])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return {k: metrics[k] for k in sorted(metrics)}


def _describe(s: dict, what: str) -> str:
    text = f"median of {s['n']} {what}, q1 {s['q1']:.6f}, q3 {s['q3']:.6f}"
    for p in (99, 90, 75):
        if f"p{p}" in s:
            text += f", p{p} {s[f'p{p}']:.6f}"
    return text


END_TO_END_UNITS = {"setup_s": "s", "wall_norm": "probe", "peak_rss_mb": "MB"}


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB_computed"
    if name.startswith("share."):
        return "ratio"
    if name.endswith("max_dim"):
        return "dim"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def write_reference(wl, seed: int, out_dir: Path) -> int:
    import workloads

    units = wl.make_units(seed, out_dir)
    tables = {}
    for unit in units:
        out = unit.inspect(unit.execute())
        if out.problems:
            _die(f"{unit.key}: {'; '.join(out.problems)}")
        tables[unit.key] = out.table
    print(f"wrote {workloads.write_reference(wl.name, tables)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
