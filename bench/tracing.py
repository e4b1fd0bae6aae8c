"""Spans around the public functions of opendecay, recorded from outside.

A :class:`Tracer` replaces each traced function in the namespace of every
opendecay module that holds a reference to it, i.e. where the calling module
looks the name up (``opendecay.cli.expm``, ``opendecay.evolution.rhs_wwa``,
...).  Each wrapped call becomes one span: name, start, end and the span that
was open when it began.  Spans live in flat arrays and are folded into
per-name totals after each unit of work, which keeps memory bounded on the
million-call right-hand-side loops.  Nothing in the package is edited.

``unit_layer_metrics`` and ``pass_layer_metrics`` turn those totals into the
per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# The six layers, by module name.
LAYERS = ("cli", "randmodel", "model", "evolution", "linalg", "analysis")

# Public functions traced, by defining module.  Small helpers called from
# inside the hot loops (vec, unvec, frobenius, ...) stay unwrapped: their spans
# would cost more than the work they cover.
TRACED = {
    "cli": ("run_scenario", "parse_config", "write_timeseries", "write_report"),
    "randmodel": ("random_system",),
    "model": (
        "validate_spec", "decompose_gamma", "build_decay_operator",
        "embed_operators", "assemble_liouvillian", "assemble_liouvillian_wwa",
    ),
    "evolution": ("evolve_enlarged", "evolve_wwa", "rhs_enlarged", "rhs_wwa"),
    "linalg": ("expm",),
    "analysis": (
        "check_positivity", "check_trace", "check_cp", "choi_matrix",
        "asymptotics_check",
    ),
}

# Span opened around each call of the map handed to analysis.choi_matrix.
CHOI_MAP = "analysis.choi_matrix.map"
# Per-dimension breakdown: the scenario sizes and the large_d sweep.
D_POINTS = (1, 2, 6, 12, 16)
POINT_METRICS = (
    "model.assemble_liouvillian.s",
    "linalg.expm.s",
    "cli.run_scenario.self_s",
)
PEAK_METRICS = ("linalg.expm.max_dim", "model.liouvillian_mb")


def self_times(parents, starts, ends) -> np.ndarray:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  The
    benchmark runs one thread, so the children of one span never overlap and
    the covered time is the sum of their durations, each clipped to the
    parent's interval.
    """
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = ends - starts
    child = np.flatnonzero(parents >= 0)
    par = parents[child]
    covered = np.minimum(ends[child], ends[par]) - np.maximum(starts[child], starts[par])
    np.subtract.at(out, par, np.maximum(covered, 0.0))
    return out


class Tracer:
    """Records spans of wrapped calls and counters set by call hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        # Cleared in place: the wrappers hold on to these arrays.
        if hasattr(self, "start"):
            for arr in (self.span_name, self.span_parent, self.start, self.end):
                del arr[:]
        else:
            self.span_name = array("i")
            self.span_parent = array("i")
            self.start = array("d")
            self.end = array("d")
        self.current = -1
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` with every call recorded as a span named ``name``.

        ``hook(tracer, args)`` runs before the call and returns the
        (possibly replaced) positional arguments.  An exception escaping the
        call is counted under ``<layer>.errors`` and re-raised.
        """
        nid = self.name_id(name)
        errors = f"{name.split('.', 1)[0]}.errors"
        clock = time.perf_counter
        names, parents, starts, ends = self.span_name, self.span_parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args = hook(self, args)
            idx = len(starts)
            parent = self.current
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            self.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counters[errors] += 1
                raise
            finally:
                ends[idx] = clock()
                self.current = parent

        return traced

    def collect(self) -> tuple[dict[str, dict[str, float]], Counter, dict[str, float]]:
        """Fold the spans recorded since the last call into per-name
        ``{"calls", "s", "self_s"}`` totals, return them with the counters
        and peaks, and start afresh."""
        if self.current != -1:
            raise RuntimeError("collect() called inside an open span")
        names = np.array(self.span_name, dtype=np.int64)
        starts = np.array(self.start, dtype=float)
        ends = np.array(self.end, dtype=float)
        own = self_times(np.array(self.span_parent, dtype=np.int64), starts, ends)
        dur = ends - starts
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        self_s = np.bincount(names, weights=own, minlength=n)
        spans = {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        counters, peaks = self.counters, self.peaks
        self._reset()
        return spans, counters, peaks


# -- hooks: counts taken from the arguments of a traced call -----------------


def _count_steps(tracer: Tracer, args):
    tracer.counters["evolution.steps"] += args[2].n_steps
    return args


def _expm_dim(tracer: Tracer, args):
    tracer.peak("linalg.expm.max_dim", np.shape(args[0])[0])
    return args


def _liouvillian_size(tracer: Tracer, args):
    d_tot = np.shape(args[0])[0]
    tracer.peak("model.liouvillian_mb", d_tot**4 * 16 / 1e6)
    return args


def _count_samples(tracer: Tracer, args):
    tracer.counters["analysis.samples"] += len(args[0])
    return args


def _wrap_choi_map(tracer: Tracer, args):
    return (tracer.wrap(CHOI_MAP, args[0]),) + tuple(args[1:])


HOOKS = {
    "evolution.evolve_enlarged": _count_steps,
    "evolution.evolve_wwa": _count_steps,
    "linalg.expm": _expm_dim,
    "model.assemble_liouvillian": _liouvillian_size,
    "analysis.check_positivity": _count_samples,
    "analysis.check_trace": _count_samples,
    "analysis.asymptotics_check": _count_samples,
    "analysis.choi_matrix": _wrap_choi_map,
}


@contextmanager
def installed(tracer: Tracer):
    """Trace the functions in :data:`TRACED` for the duration of the block,
    then put every original back."""
    modules = [importlib.import_module(f"opendecay.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for fname in TRACED[layer]:
            fn = getattr(mod, fname)
            name = f"{layer}.{fname}"
            wrappers[fn] = tracer.wrap(name, fn, HOOKS.get(name))
    replaced = []
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    replaced.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        yield tracer
    finally:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)


# -- span totals -> per-layer metrics -------------------------------------------


def _span(spans, name, fld):
    return spans.get(name, {}).get(fld, 0.0)


def unit_layer_metrics(spans, counters, peaks) -> dict[str, float]:
    """Per-layer metrics of one unit from its span totals."""
    m = {
        "evolution.rhs.calls": _span(spans, "evolution.rhs_enlarged", "calls")
        + _span(spans, "evolution.rhs_wwa", "calls"),
        "evolution.rhs.s": _span(spans, "evolution.rhs_enlarged", "s")
        + _span(spans, "evolution.rhs_wwa", "s"),
        "evolution.steps": counters["evolution.steps"],
        "evolution.evolve_enlarged.self_s": _span(spans, "evolution.evolve_enlarged", "self_s"),
        "evolution.evolve_wwa.self_s": _span(spans, "evolution.evolve_wwa", "self_s"),
        "linalg.expm.s": _span(spans, "linalg.expm", "s"),
        "linalg.expm.calls": _span(spans, "linalg.expm", "calls"),
        "linalg.expm.max_dim": peaks.get("linalg.expm.max_dim", 0),
        "model.assemble_liouvillian.s": _span(spans, "model.assemble_liouvillian", "s"),
        "model.assemble_liouvillian.calls": _span(spans, "model.assemble_liouvillian", "calls"),
        "model.assemble_liouvillian_wwa.calls": _span(spans, "model.assemble_liouvillian_wwa", "calls"),
        "model.liouvillian_mb": peaks.get("model.liouvillian_mb", 0.0),
        "model.validate_spec.s": _span(spans, "model.validate_spec", "s"),
        "model.decompose_gamma.s": _span(spans, "model.decompose_gamma", "s"),
        "model.embed_operators.s": _span(spans, "model.embed_operators", "s"),
        "cli.run_scenario.self_s": _span(spans, "cli.run_scenario", "self_s"),
        "cli.parse_config.s": _span(spans, "cli.parse_config", "s"),
        "cli.write_timeseries.s": _span(spans, "cli.write_timeseries", "s"),
        "cli.write_report.s": _span(spans, "cli.write_report", "s"),
        "analysis.check_positivity.s": _span(spans, "analysis.check_positivity", "s"),
        "analysis.check_trace.s": _span(spans, "analysis.check_trace", "s"),
        "analysis.check_cp.s": _span(spans, "analysis.check_cp", "s"),
        "analysis.choi_matrix.self_s": _span(spans, "analysis.choi_matrix", "self_s"),
        "analysis.choi_matrix.map_calls": _span(spans, CHOI_MAP, "calls"),
        "analysis.asymptotics_check.s": _span(spans, "analysis.asymptotics_check", "s"),
        "analysis.samples": counters["analysis.samples"],
        "randmodel.random_system.s": _span(spans, "randmodel.random_system", "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = counters[f"{layer}.errors"]
    # Time of the integrator loops and right-hand sides, the part one
    # integrator step costs.
    m["evolution.loop_s"] = (
        m["evolution.evolve_enlarged.self_s"] + m["evolution.evolve_wwa.self_s"] + m["evolution.rhs.s"]
    )
    return m


def pass_layer_metrics(unit_metrics: list[tuple[int, dict]], wall: float) -> dict[str, float]:
    """Sum the units of one pass (maxima for peaks), add step costs, the
    per-dimension breakdown and the shares of the traced wall time."""
    total: dict[str, float] = defaultdict(float)
    by_d: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for d_s, m in unit_metrics:
        for k, v in m.items():
            if k in PEAK_METRICS:
                total[k] = max(total[k], v)
            else:
                total[k] += v
                by_d[d_s][k] += v

    def step_us(m):
        return 1e6 * m["evolution.loop_s"] / m["evolution.steps"] if m["evolution.steps"] else 0.0

    out = dict(total)
    out["evolution.step_us"] = step_us(total)
    for d in D_POINTS:
        m = by_d.get(d, defaultdict(float))
        out[f"d{d}.evolution.step_us"] = step_us(m)
        for k in POINT_METRICS:
            out[f"d{d}.{k}"] = m[k]
    out["share.evolution"] = total["evolution.loop_s"] / wall
    out["share.superop"] = (
        total["linalg.expm.s"] + total["model.assemble_liouvillian.s"] + total["cli.run_scenario.self_s"]
    ) / wall
    del out["evolution.loop_s"]
    return out
