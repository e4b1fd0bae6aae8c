"""Scenario runner.

Parses strict JSON scenario configs, runs the system-space and enlarged-space
evolutions side by side, executes the requested verification checks, and
writes a deterministic CSV time series plus a check report.

Config schema (unknown keys are rejected)::

    {
      "name": "single-decay",
      "system": {                        # exactly one of system/random_system
        "d_s": 1, "d_f": 1,
        "H":     [[[1.0, 0.0]]],         # matrices: row-major nested lists,
        "Gamma": [[[1.0, 0.0]]],         # each entry a [re, im] pair
        "A":     []
      },
      "random_system": {"seed": 42, "d_s": 2, "n_lindblad": 1, "rank": 2},
      "initial_state": [[[1.0, 0.0]]],   # required with "system"; generated
                                         # from the seed otherwise
      "integrator": {"dt": 0.001, "t_max": 10.0, "sample_stride": 10,
                     "method": "rk4"},
      "checks": ["trace", "positivity", "cp", "equivalence", "asymptotics"],
      "output": "out"
    }

Exit codes: 0 success, 1 check failure, 2 config/parse error or an output
that cannot be written, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, evolution
from .csvformat import format_rows
from .errors import (
    ConfigError,
    DimensionError,
    NotHermitianError,
    NumericsError,
    ParseError,
    ToolkitError,
    ValidationError,
)
from .evolution import (
    IntegratorConfig,
    Trajectory,
    evolve_enlarged,
    evolve_wwa,
)
from .linalg import frobenius, hermitian_basis

# This module takes no exponential.  ``expm`` is imported for the
# benchmark's tracer, whose self-test
# (bench/test_bench.py::test_installed_patches_callers_and_restores) reads
# ``cli.expm``.
from .linalg import expm  # noqa: F401
from .model import SystemSpec, build_decay_operator, embed_operators, validate_spec
from .randmodel import MAX_ENTRIES, random_system

CHECK_NAMES = ("trace", "positivity", "cp", "equivalence", "asymptotics")
# Largest size in bytes of the two trajectories a run keeps, n_samples * 16 *
# (2 d_s^2 + d_f^2) for the complex blocks of the enlarged run and the
# system-space states.  The hermiticity gate of the smallest eigenvalues
# holds at most one more copy of the enlarged run's blocks.
MAX_TRAJECTORY_BYTES = 2**29
# Rows of the time-series CSV formatted per format_rows call, which bounds
# its temporaries (about 0.7 MB at 512 rows).
TIMESERIES_CHUNK_ROWS = 512

__all__ = [
    "RunResult",
    "ScenarioConfig",
    "builtin_scenario_path",
    "main",
    "parse_config",
    "run_scenario",
    "serialize_config",
    "write_timeseries",
]


@dataclass(eq=False)
class ScenarioConfig:
    name: str
    system: SystemSpec
    initial_state: np.ndarray
    integrator: IntegratorConfig
    checks: tuple[str, ...]
    output: str
    seed: int | None = None

    def __post_init__(self):
        # Checked on every construction, so also after _apply_overrides.
        n, d_s, d_f = self.integrator.n_samples, self.system.d_s, self.system.d_f
        size = n * 16 * (2 * d_s**2 + d_f**2)
        if size > MAX_TRAJECTORY_BYTES:
            raise ParseError(
                f"config: {n} samples at d_s={d_s}, d_f={d_f} need {size} bytes of "
                f"trajectories, more than MAX_TRAJECTORY_BYTES = {MAX_TRAJECTORY_BYTES}"
            )


@dataclass(eq=False)
class RunResult:
    name: str
    table: np.ndarray  # read-only (n, 6): the columns of write_timeseries
    reports: tuple[analysis.VerificationReport, ...]
    exit_status: int
    enlarged: Trajectory
    wwa: Trajectory
    timeseries_path: Path | None = None
    report_path: Path | None = None


# -- parsing ----------------------------------------------------------------


def _expect_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected an object")
    return node


def _check_keys(node: dict, allowed: set[str], required: set[str], where: str) -> None:
    for key in node:
        if key not in allowed:
            raise ParseError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in node:
            raise ParseError(f"{where}: missing required key {key!r}")


def _parse_int(node, where: str, minimum: int | None = None) -> int:
    if not isinstance(node, int) or isinstance(node, bool):
        raise ParseError(f"{where}: expected an integer")
    if minimum is not None and node < minimum:
        raise ParseError(f"{where}: must be >= {minimum}")
    return node


def _is_number(x) -> bool:
    # A JSON number within the finite float range: json.loads also yields
    # NaN, Infinity, inf for 1e400 and integers that no float can hold.
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return abs(x) <= sys.float_info.max


def _parse_number(node, where: str) -> float:
    if not _is_number(node):
        raise ParseError(f"{where}: expected a finite number")
    return float(node)


def _parse_matrix(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{i}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}[{i}]: ragged row (expected {width} entries)")
        entries = []
        for j, ent in enumerate(row):
            if not isinstance(ent, list) or len(ent) != 2 or not all(map(_is_number, ent)):
                raise ParseError(f"{where}[{i}][{j}]: expected a [re, im] pair of finite numbers")
            entries.append(complex(ent[0], ent[1]))
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _validate_initial_state(rho: np.ndarray, d_s: int) -> np.ndarray:
    # The engine's gate decides the shape and hermiticity; its message is
    # given the config key's name.
    try:
        sym = evolution._check_initial(rho, d_s)
    except (DimensionError, NotHermitianError) as e:
        raise ValidationError(str(e).replace("initial state", "initial_state", 1)) from e
    low = float(np.linalg.eigvalsh(sym)[0])
    if low < -1e-9:
        raise ValidationError(f"initial_state has eigenvalue {low:.3e} < -1e-9")
    gap = abs(float(np.trace(sym).real) - 1.0)
    if gap > 1e-9:
        raise ValidationError(f"initial_state trace deviates from 1 by {gap:.3e}")
    return rho


def parse_config(text: str, seed: int | None = None) -> ScenarioConfig:
    """Strict parse of a scenario config.

    ``seed`` overrides the seed of a ``random_system`` scenario; passing it
    for an explicit-system scenario is an error.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    raw = _expect_mapping(raw, "config")
    _check_keys(
        raw,
        {"name", "system", "random_system", "initial_state", "integrator", "checks", "output"},
        {"name", "integrator"},
        "config",
    )
    if ("system" in raw) == ("random_system" in raw):
        raise ParseError("config: exactly one of 'system'/'random_system' is required")
    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ParseError("config.name: expected a non-empty string")
    # The outputs are <out>/<name>_*.csv, so the name must not leave <out>.
    if any(c in name for c in "/\\\0") or name in (".", ".."):
        raise ParseError(f"config.name: {name!r} is not a plain file name")

    used_seed: int | None = None
    if "system" in raw:
        if seed is not None:
            raise ParseError("--seed is only valid for random_system scenarios")
        sysnode = _expect_mapping(raw["system"], "config.system")
        _check_keys(
            sysnode, {"d_s", "d_f", "H", "Gamma", "A"}, {"d_s", "d_f", "H", "Gamma"},
            "config.system",
        )
        d_s = _parse_int(sysnode["d_s"], "config.system.d_s", 1)
        d_f = _parse_int(sysnode["d_f"], "config.system.d_f", 1)
        h = _parse_matrix(sysnode["H"], "config.system.H")
        gamma = _parse_matrix(sysnode["Gamma"], "config.system.Gamma")
        a_node = sysnode.get("A", [])
        if not isinstance(a_node, list):
            raise ParseError("config.system.A: expected a list of matrices")
        ops = tuple(
            _parse_matrix(a, f"config.system.A[{k}]") for k, a in enumerate(a_node)
        )
        try:
            spec = SystemSpec(d_s=d_s, d_f=d_f, hamiltonian=h, decay_matrix=gamma, lindblad_ops=ops)
        except ToolkitError as e:
            raise ValidationError(str(e)) from e
        if "initial_state" not in raw:
            raise ParseError("config: 'initial_state' is required with 'system'")
        rho0 = _parse_matrix(raw["initial_state"], "config.initial_state")
    else:
        rnode = _expect_mapping(raw["random_system"], "config.random_system")
        _check_keys(rnode, {"seed", "d_s", "n_lindblad", "rank"}, {"seed", "d_s"}, "config.random_system")
        used_seed = seed if seed is not None else _parse_int(rnode["seed"], "config.random_system.seed")
        d_s = _parse_int(rnode["d_s"], "config.random_system.d_s", 1)
        n_lind = _parse_int(rnode.get("n_lindblad", 1), "config.random_system.n_lindblad", 0)
        rank = rnode.get("rank")
        if rank is not None:
            rank = _parse_int(rank, "config.random_system.rank", 1)
        try:
            spec, rho0 = random_system(used_seed, d_s, n_lindblad=n_lind, rank=rank)
        except ValueError as e:
            raise ParseError(f"config.random_system: {e}") from e
        if "initial_state" in raw:
            rho0 = _parse_matrix(raw["initial_state"], "config.initial_state")

    entries = (spec.d_s + spec.d_f) ** 2
    if entries > MAX_ENTRIES:
        raise ParseError(
            f"config: d_s={spec.d_s}, d_f={spec.d_f} gives enlarged-space matrices of "
            f"(d_s + d_f)^2 = {entries} entries, more than MAX_ENTRIES = {MAX_ENTRIES}"
        )
    try:
        validate_spec(spec)
    except ToolkitError as e:
        raise ValidationError(str(e)) from e
    rho0 = _validate_initial_state(rho0, spec.d_s)

    inode = _expect_mapping(raw["integrator"], "config.integrator")
    _check_keys(inode, {"dt", "t_max", "sample_stride", "method"}, {"dt", "t_max"}, "config.integrator")
    method = inode.get("method", "rk4")
    if not isinstance(method, str):
        raise ParseError("config.integrator.method: expected a string")
    try:
        integrator = IntegratorConfig(
            dt=_parse_number(inode["dt"], "config.integrator.dt"),
            t_max=_parse_number(inode["t_max"], "config.integrator.t_max"),
            sample_stride=_parse_int(inode.get("sample_stride", 1), "config.integrator.sample_stride", 1),
            method=method,
        )
    except ValueError as e:
        raise ParseError(f"config.integrator: {e}") from e

    checks_node = raw.get("checks", [])
    if not isinstance(checks_node, list):
        raise ParseError("config.checks: expected a list of check names")
    checks = []
    for c in checks_node:
        if c not in CHECK_NAMES:
            raise ParseError(f"config.checks: unknown check {c!r} (known: {', '.join(CHECK_NAMES)})")
        checks.append(c)

    output = raw.get("output", "out")
    if not isinstance(output, str) or not output:
        raise ParseError("config.output: expected a non-empty string")

    return ScenarioConfig(
        name=name,
        system=spec,
        initial_state=rho0,
        integrator=integrator,
        checks=tuple(checks),
        output=output,
        seed=used_seed,
    )


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON form of a config; always uses the explicit system so
    that parse(serialize(cfg)) reproduces ``cfg``."""
    doc = {
        "name": cfg.name,
        "system": {
            "d_s": cfg.system.d_s,
            "d_f": cfg.system.d_f,
            "H": _matrix_to_json(cfg.system.hamiltonian),
            "Gamma": _matrix_to_json(cfg.system.decay_matrix),
            "A": [_matrix_to_json(a) for a in cfg.system.lindblad_ops],
        },
        "initial_state": _matrix_to_json(cfg.initial_state),
        "integrator": {
            "dt": cfg.integrator.dt,
            "t_max": cfg.integrator.t_max,
            "sample_stride": cfg.integrator.sample_stride,
            "method": cfg.integrator.method,
        },
        "checks": list(cfg.checks),
        "output": cfg.output,
    }
    return json.dumps(doc, indent=2) + "\n"


# -- checks ------------------------------------------------------------------


class _RunContext:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.spec = cfg.system
        self.dec = self.spec.decomposition  # the one that parsing built
        self.model = embed_operators(self.spec, build_decay_operator(self.dec, self.spec.d_f))
        self.enlarged: Trajectory | None = None
        self.wwa: Trajectory | None = None

    @cached_property
    def cp(self) -> analysis.VerificationReport:
        # Complete positivity at every t of the system block's evolution,
        # taken once per run: the cp check reports it, and the asymptotics
        # check's rate bound needs it.  Nothing couples the decay sector back
        # into the system block, so the enlarged evolution restricted to it
        # is exp(t L_ss), and the check certifies its generator: the L_ss
        # rows of the real form the run evolves, with the jumps A of its
        # Lindblad form.
        eq = self.model.system_equation
        return analysis.check_cp_generator(eq.real_form[: self.spec.d_s**2], eq.jumps, tol=1e-8)


def _check_equivalence(ctx: _RunContext) -> analysis.VerificationReport:
    # Over chunks of about 256 KiB of samples, so that the temporaries stay
    # small; each sample's norm is reduced on its own, so the worst one is
    # that of the whole stack, and np.max keeps a NaN.  Only a norm whose sum
    # of squares overflows is taken again, by linalg.frobenius, which
    # rescales it; a difference that overflows reads inf.  Neither warns.
    a, b = ctx.enlarged.states, ctx.wwa.states
    k = max(1, 2**18 // a[0].nbytes)  # samples per chunk
    peaks = []
    with np.errstate(over="ignore"):
        for i in range(0, len(a), k):
            diff = a[i : i + k] - b[i : i + k]
            norms = np.linalg.norm(diff, axis=(1, 2))
            for j in np.flatnonzero(norms == np.inf):
                norms[j] = frobenius(diff[j])
            peaks.append(norms.max())
    worst = float(np.max(peaks))
    return analysis._report("equivalence", worst, 1e-8, n_samples=len(ctx.enlarged))


def _check_asymptotics(ctx: _RunContext) -> analysis.VerificationReport:
    # The decay limits from the generator [L_ss; L_fs] the run evolves, with
    # the run's cp certificate as the premise of the rate bound.  The call
    # goes through the module attribute, where bench/tracing.py puts its span.
    eq = ctx.model.system_equation
    return analysis.asymptotics_check(eq.real_form, ctx.cfg.initial_state, ctx.dec, ctx.cp)


CHECKS = {
    "trace": lambda ctx: analysis.check_trace(ctx.enlarged, tol=1e-8),
    "positivity": lambda ctx: analysis.check_positivity(ctx.enlarged, tol=1e-8),
    "cp": lambda ctx: ctx.cp,
    "equivalence": _check_equivalence,
    "asymptotics": _check_asymptotics,
}


# -- running -----------------------------------------------------------------


def _sample_table(traj: Trajectory) -> np.ndarray:
    # Columns t, tr_rho_ss, tr_rho_ff, tr_total, delta (purity), min_eig of
    # the block-diagonal enlarged state, from the trajectory's cached arrays.
    tr_ss, tr_ff = traj.traces
    table = np.column_stack(
        (traj.times, tr_ss, tr_ff, tr_ss + tr_ff, traj.purity, traj.min_eigenvalues)
    )
    table.flags.writeable = False
    return table


def _holds(path: Path, data: bytes) -> bool:
    # lstat: only a regular file is left in place; a symlink at the output
    # path is replaced by a regular file, as a rename over it always did.
    try:
        st = path.lstat()
        return (
            stat.S_ISREG(st.st_mode)
            and st.st_size == len(data)
            and path.read_bytes() == data
        )
    except OSError:
        return False


def _atomic_write(path: Path, data: bytes) -> None:
    # A rerun of a config into the same directory produces the same bytes,
    # and renaming over an existing file costs ~50 ms on ext4 against
    # ~0.03 ms for a fresh name, so a regular file that already holds these
    # bytes is left in place and only its mtime is refreshed.  New content,
    # and an unchanged file whose mtime this process may not set (utime needs
    # ownership, a rename only a writable directory), go through
    # <name>.tmp + os.replace.
    if _holds(path, data):
        try:
            os.utime(path)
            return
        except OSError:
            pass
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_timeseries(result: RunResult, path) -> None:
    """CSV with header t,tr_rho_ss,tr_rho_ff,tr_total,delta,min_eig; one row
    per sample, each value as ``"%.17g" % x`` (which is ``f"{x:.17g}"``), LF
    line endings, atomic write.

    The rows are formatted by :func:`opendecay.csvformat.format_rows`, in
    chunks of ``TIMESERIES_CHUNK_ROWS``.  It is exact, not an approximation:
    for every finite ``1e-6 <= |x| < 1e17`` it takes the 17 significant
    digits from Dekker's exact product ``|x| * 10**(16 - k)``, with the
    decimal exponent ``k`` fixed by an exact comparison, rounded half to even
    as ``%.17g`` rounds, and lays them out as ``%g`` does; every other value
    (0, -0, NaN, +-inf, subnormals, magnitudes outside that range) is
    formatted by ``"%.17g" % x`` itself.  The bytes are those of the per-value
    ``%``."""
    parts = [b"t,tr_rho_ss,tr_rho_ff,tr_total,delta,min_eig\n"]
    for i in range(0, len(result.table), TIMESERIES_CHUNK_ROWS):
        parts.append(format_rows(result.table[i : i + TIMESERIES_CHUNK_ROWS]))
    _atomic_write(Path(path), b"".join(parts))


def write_report(result: RunResult, path) -> None:
    """One line per check: name,pass|fail,measured,tolerance.  A
    not-applicable check is recorded as a pass (it is not a failure)."""
    lines = []
    for rep in result.reports:
        verdict = "fail" if rep.status == "fail" else "pass"
        lines.append("%s,%s,%.17g,%.17g" % (rep.name, verdict, rep.measured, rep.tolerance))
    _atomic_write(Path(path), ("\n".join(lines) + ("\n" if lines else "")).encode())


def _liouvillian_norm_bound(model) -> float:
    # L = -i I(x)G + i conj(G)(x)I + sum_k conj(K)(x)K, so ||L||_2 <= 2||G||_2
    # + sum_k ||K||_2^2; the padded G is diag(G_ss, 0) and the jumps are the
    # A and B.  The bound holds for L restricted to the block-diagonal
    # subspace too; that generator's SVD is needed only when the bound cannot
    # rule the step-size warning out.
    eq = model.system_equation
    bound = 2.0 * np.linalg.norm(eq.generator, 2)
    for k in eq.jumps + (model.decay.matrix,):
        bound += np.linalg.norm(k, 2) ** 2
    return float(bound)


def _subspace_generator_norm(model) -> float:
    # The generator on (vec rho_ss, vec rho_ff) is [[L_ss, 0], [L_fs, 0]]; its
    # zero block column does not change the 2-norm.  [L_ss; L_fs] is diag(U_s,
    # U_f) G U_s^-1 for its real form G and bases U of orthogonal columns of
    # norms w, so its 2-norm is that of diag(w) G diag(w_s)^-1.
    w_s = np.sqrt(hermitian_basis(model.d_s).norms_sq)
    w = np.concatenate((w_s, np.sqrt(hermitian_basis(model.d_f).norms_sq)))
    return float(np.linalg.norm(w[:, None] * model.system_equation.real_form / w_s, 2))


def run_scenario(cfg: ScenarioConfig, out_dir=None, write: bool = True) -> RunResult:
    """Run both evolutions from the initial state, the enlarged one from
    diag(rho0, 0), execute the requested checks, and (by default) write the
    CSV and report files."""
    ctx = _RunContext(cfg)
    dt, steps = cfg.integrator.dt, cfg.integrator.n_steps
    # A run of no steps takes no step of length dt.
    if cfg.integrator.method == "rk4" and steps and dt * _liouvillian_norm_bound(ctx.model) > 0.1:
        gen_scale = _subspace_generator_norm(ctx.model)
        if dt * gen_scale > 0.1:
            warnings.warn(
                f"dt*|generator| = {dt * gen_scale:.3g} > 0.1; "
                "fixed-step integration may be inaccurate",
                stacklevel=2,
            )
    ctx.enlarged = evolve_enlarged(ctx.model, cfg.initial_state, cfg.integrator)
    ctx.wwa = evolve_wwa(ctx.spec, cfg.initial_state, cfg.integrator)
    table = _sample_table(ctx.enlarged)
    reports = tuple(CHECKS[name](ctx) for name in cfg.checks)
    exit_status = 0 if all(r.status != "fail" for r in reports) else 1
    result = RunResult(
        name=cfg.name,
        table=table,
        reports=reports,
        exit_status=exit_status,
        enlarged=ctx.enlarged,
        wwa=ctx.wwa,
    )
    if write:
        base = Path(out_dir) if out_dir is not None else Path(cfg.output)
        result.timeseries_path = base / f"{cfg.name}_timeseries.csv"
        result.report_path = base / f"{cfg.name}_report.csv"
        write_timeseries(result, result.timeseries_path)
        write_report(result, result.report_path)
    return result


# -- command line ------------------------------------------------------------


def builtin_scenario_path(name: str) -> Path:
    """Filesystem path of a shipped scenario config."""
    res = resources.files("opendecay") / "scenarios" / f"{name.replace('-', '_')}.json"
    if not res.is_file():
        raise ParseError(f"unknown built-in scenario {name!r}")
    return Path(str(res))


def _load_config_text(arg: str) -> str:
    path = Path(arg)
    if path.is_file():
        try:
            return path.read_text(encoding="utf-8")
        except OSError as e:
            raise ParseError(f"cannot read config {arg!r}: {e}") from e
    try:
        return builtin_scenario_path(arg).read_text(encoding="utf-8")
    except ParseError:
        raise ParseError(f"config not found: {arg!r} (not a file or built-in name)") from None


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    integ = cfg.integrator
    if args.method is not None or args.t_max is not None or args.dt is not None:
        try:
            integ = IntegratorConfig(
                dt=args.dt if args.dt is not None else integ.dt,
                t_max=args.t_max if args.t_max is not None else integ.t_max,
                sample_stride=integ.sample_stride,
                method=args.method if args.method is not None else integ.method,
            )
        except ValueError as e:
            raise ParseError(f"flag override: {e}") from e
    checks = cfg.checks
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        for c in names:
            if c not in CHECK_NAMES:
                raise ParseError(f"--checks: unknown check {c!r}")
        checks = tuple(names)
    return replace(cfg, integrator=integ, checks=checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opendecay",
        description="Simulate and verify open quantum systems with unstable states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run a scenario config")
    sim.add_argument("config", help="path to a scenario JSON file, or a built-in scenario name")
    sim.add_argument("--out", metavar="DIR", default=None, help="output directory (overrides config)")
    sim.add_argument("--method", choices=("rk4", "exact"), default=None)
    sim.add_argument("--t-max", dest="t_max", type=float, default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--checks", default=None, help="comma-separated check names")
    sim.add_argument("--seed", type=int, default=None, help="seed override for random_system scenarios")
    args = parser.parse_args(argv)

    try:
        text = _load_config_text(args.config)
        cfg = parse_config(text, seed=args.seed)
        cfg = _apply_overrides(cfg, args)
        result = run_scenario(cfg, out_dir=args.out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # only the output writes raise it
        print(f"error: cannot write {e.filename2 or e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except ToolkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    for rep in result.reports:
        print(f"{rep.name}: {rep.status} (measured={rep.measured:.3e}, tolerance={rep.tolerance:.3e})")
    print(f"wrote {result.timeseries_path}")
    print(f"wrote {result.report_path}")
    return result.exit_status


def entry() -> None:
    sys.exit(main())
