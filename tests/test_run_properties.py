"""Property test of the typed-error contract on whole runs: an explicit
system that parses, run through ``main`` with all five checks, ends in exit
status 0, 1, 2 or 3, with no warning but the step-size UserWarning and no
traceback, and a run that exits 0 writes only finite values (a check that
does not apply is recorded as pass,nan,nan)."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opendecay.cli import CHECK_NAMES, main  # noqa: E402
from opendecay.cli import _matrix_to_json as pairs  # noqa: E402
from opendecay.linalg import frobenius  # noqa: E402
from opendecay.model import DEFAULT_ZERO_TOL, decompose_gamma  # noqa: E402

STEP_SIZE_WARNING = "dt*|generator|"

# An rk4 run whose states stay finite but reach about 1e167, the case whose
# equivalence norm once overflowed in numpy's warnings.
OVERFLOWING_RUN = {
    "name": "overflowing",
    "system": {"d_s": 1, "d_f": 1, "H": [[[0, 0]]], "Gamma": [[[3, 0]]], "A": []},
    "initial_state": [[[1, 0]]],
    "integrator": {"dt": 1.0, "t_max": 1300.0, "sample_stride": 1, "method": "rk4"},
    "checks": list(CHECK_NAMES),
}


@st.composite
def explicit_systems(draw):
    d_s = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def complex_matrix():
        return rng.normal(size=(d_s, d_s)) + 1j * rng.normal(size=(d_s, d_s))

    h = complex_matrix()
    q, _ = np.linalg.qr(complex_matrix())
    rates = rng.uniform(0.1, 1.0, d_s)
    kind = draw(st.sampled_from(["plain", "near-degenerate", "zero-cut"]))
    if kind != "plain":
        rates[0] = 10.0 ** draw(st.integers(-11, -6)) if kind == "near-degenerate" else 0.0
    gamma = scale * (q * rates) @ q.conj().T
    if kind == "zero-cut":  # one rate at decompose_gamma's cut, to rounding
        cut = DEFAULT_ZERO_TOL * max(1.0, frobenius(gamma))
        gamma += cut * np.outer(q[:, 0], q[:, 0].conj())
    jumps = [
        math.sqrt(scale) * draw(st.sampled_from([1e-3, 0.3, 1.0])) * complex_matrix()
        for _ in range(draw(st.integers(0, 2)))
    ]
    v = complex_matrix()
    rho0 = v @ v.conj().T
    dt = 10.0 ** draw(st.floats(-5.0, 1.0))
    system = {
        "d_s": d_s,
        "d_f": 1,
        "H": pairs(0.5 * scale * (h + h.conj().T)),
        "Gamma": pairs(0.5 * (gamma + gamma.conj().T)),
        "A": [pairs(a) for a in jumps],
    }
    # d_f equal to the rank that parsing will find, from the same numbers.
    rank = decompose_gamma(np.array([[complex(*z) for z in row] for row in system["Gamma"]])).rank
    system["d_f"] = max(1, rank)
    return {
        "name": "fuzz",
        "system": system,
        "initial_state": pairs(rho0 / np.trace(rho0).real),
        "integrator": {
            "dt": dt,
            "t_max": draw(st.integers(0, 40)) * dt,
            "sample_stride": draw(st.integers(1, 5)),
            "method": draw(st.sampled_from(["rk4", "exact"])),
        },
        "checks": list(CHECK_NAMES),
    }


def _values(path: str, skip_header: bool):
    lines = Path(path).read_text().splitlines()[1 if skip_header else 0 :]
    return [line.split(",") for line in lines]


@settings(max_examples=60, deadline=None)
@given(doc=explicit_systems())
@example(doc=OVERFLOWING_RUN)
def test_a_run_ends_in_an_exit_status_without_stray_warnings(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with (
            warnings.catch_warnings(record=True) as caught,
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(out),
        ):
            warnings.simplefilter("always")
            status = main(["simulate", str(path), "--out", tmp])
        assert status in (0, 1, 2, 3), out.getvalue()
        assert "Traceback" not in out.getvalue()
        for w in caught:
            assert w.category is UserWarning and str(w.message).startswith(STEP_SIZE_WARNING), w
        if status == 0:
            base = Path(tmp) / doc["name"]
            for row in _values(f"{base}_timeseries.csv", skip_header=True):
                assert all(math.isfinite(float(x)) for x in row), row
            for name, verdict, measured, tol in _values(f"{base}_report.csv", skip_header=False):
                # Only a check that does not apply reads nan,nan.
                assert verdict == "pass"
                assert math.isfinite(float(measured)) or math.isnan(float(tol)), name
