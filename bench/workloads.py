"""The benchmark's workloads and the correctness gate applied to every unit.

A *unit* is one scenario run or one dimension-sweep point; a *pass* runs
every unit of a workload once.  Each unit is built from the workload seed
at set-up (``make_units``), then executed any number of times: ``execute``
is the timed call into opendecay, ``inspect`` turns its result into an
:class:`Outcome` outside the timed region.  Units with the same ``shape``
do the same work, so their times are samples of one cost.

Every call into opendecay goes through a module attribute
(``cli.parse_config``, ``cli.run_scenario``), so the spans that
``tracing.installed`` puts there see it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from opendecay import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Sampled tables must match the stored reference to this
# absolute tolerance: loose enough for reordered floating-point work, tight
# enough to catch any change of the computed physics.
REFERENCE_TOL = 1e-9
# The closed form of the single decay channel, Tr rho_ss(t) = exp(-t).
CLOSED_FORM_TOL = 1e-9

SCENARIOS = ("single-decay", "two-level-decay", "random")
LARGE_D_POINTS = (6, 12, 16)
LARGE_D_CHECKS = ["trace", "positivity", "cp", "equivalence"]


@dataclass
class Outcome:
    table: np.ndarray  # real 2-D array compared with the reference
    digest: str  # sha256 of the unit's output bytes
    bytes_written: int
    problems: list[str]


class ScenarioUnit:
    """One scenario config, run the way ``opendecay simulate`` runs it:
    parse the JSON text, run both evolutions and the checks, write the CSVs."""

    def __init__(self, text: str, seed: int | None, out_dir: Path):
        self.text, self.seed, self.out_dir = text, seed, out_dir
        cfg = cli.parse_config(text, seed=seed)
        self.name = cfg.name
        self.d_s = cfg.system.d_s
        self.key = cfg.name if cfg.seed is None else f"{cfg.name}-seed{cfg.seed}"
        self.shape = cfg.name
        self.steps = 2 * cfg.integrator.n_steps
        self.samples = len(cfg.integrator.sampled_steps())

    def execute(self):
        cfg = cli.parse_config(self.text, seed=self.seed)
        return cli.run_scenario(cfg, out_dir=self.out_dir)

    def inspect(self, result) -> Outcome:
        problems = [
            f"check {r.name} failed (measured {r.measured:.3e}, tolerance {r.tolerance:.3e})"
            for r in result.reports
            if not r.passed
        ]
        if result.exit_status != 0:
            problems.append(f"exit status {result.exit_status}")
        table = np.array(result.table, dtype=float)
        if self.name == "single-decay":
            err = float(np.max(np.abs(table[:, 1] - np.exp(-table[:, 0]))))
            if not err <= CLOSED_FORM_TOL:
                problems.append(f"tr_rho_ss deviates from exp(-t) by {err:.3e}")
        data = result.timeseries_path.read_bytes() + result.report_path.read_bytes()
        return Outcome(table, hashlib.sha256(data).hexdigest(), len(data), problems)


def _shipped_scenarios(method: str):
    def make_units(seed: int, out_dir: Path) -> list:
        units = []
        for name in SCENARIOS:
            doc = json.loads(cli.builtin_scenario_path(name).read_text(encoding="utf-8"))
            doc["integrator"]["method"] = method
            unit_seed = seed if "random_system" in doc else None
            units.append(ScenarioUnit(json.dumps(doc), unit_seed, out_dir))
        return units

    return make_units


def _large_d_units(seed: int, out_dir: Path) -> list:
    return [
        ScenarioUnit(
            json.dumps({
                "name": f"large-d{d_s}",
                "random_system": {"seed": seed, "d_s": d_s, "n_lindblad": 1},
                "integrator": {"dt": 1e-3, "t_max": 0.5, "sample_stride": 10, "method": "rk4"},
                "checks": LARGE_D_CHECKS,
            }),
            None,
            out_dir,
        )
        for d_s in LARGE_D_POINTS
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    make_units: Callable[[int, Path], list]


# Default seed: the shipped random scenario's 42.  The stored references hold
# the outputs at this seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scenarios", 42, _shipped_scenarios("rk4")),
        Workload("scenarios_exact", 42, _shipped_scenarios("exact")),
        Workload("large_d", 42, _large_d_units),
    )
}


def load_reference(workload: str) -> dict[str, np.ndarray]:
    path = REFERENCE_DIR / f"{workload}.json.gz"
    if not path.is_file():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as f:
        doc = json.load(f)
    return {key: np.array(rows, dtype=float) for key, rows in doc.items()}


def write_reference(workload: str, tables: dict[str, np.ndarray]) -> Path:
    """Store ``tables`` at 13 significant digits, far below REFERENCE_TOL."""
    doc = {
        key: [[float(f"{x:.13g}") for x in row] for row in np.asarray(table)]
        for key, table in sorted(tables.items())
    }
    path = REFERENCE_DIR / f"{workload}.json.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical when regenerated.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
        f.write(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
    return path


def reference_problems(table: np.ndarray, ref: np.ndarray) -> list[str]:
    if table.shape != ref.shape:
        return [f"table shape {table.shape} differs from reference {ref.shape}"]
    err = float(np.max(np.abs(table - ref))) if table.size else 0.0
    if not err <= REFERENCE_TOL:
        return [f"table deviates from reference by {err:.3e}"]
    return []


@dataclass
class Gate:
    """Correctness gate of a run.  A unit fails if it raises, if a check it
    requested fails or its outputs miss the closed form (``inspect``), if
    its table is off the stored reference, or if its output bytes differ
    from those of its first pass."""

    references: dict
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    warnings: int = 0
    problems: list = field(default_factory=list)

    def record(self, unit, raw, error) -> int:
        """Check one unit's result; return the bytes it wrote."""
        self.attempted += 1
        written = 0
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            out = unit.inspect(raw)
            written = out.bytes_written
            problems = list(out.problems)
            if unit.key in self.references:
                problems += reference_problems(out.table, self.references[unit.key])
            first = self.digests.setdefault(unit.key, out.digest)
            if out.digest != first:
                problems.append("output bytes differ from the first pass")
        if problems:
            self.failed += 1
            self.problems.append(f"{unit.key}: {'; '.join(problems)}")
        return written
