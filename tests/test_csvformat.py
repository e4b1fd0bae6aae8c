"""The vectorized %.17g kernel against Python's per-value formatting: the
bytes of format_rows, and of write_timeseries, which calls it per chunk of
rows, must be those of f"{x:.17g}" for every float64, on generated tables
and on the values where the kernel's arithmetic is easiest to get wrong."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from opendecay import cli  # noqa: E402
from opendecay.csvformat import format_rows  # noqa: E402

# Around the chunk boundary of write_timeseries (512 rows).
ROW_COUNTS = (0, 1, 511, 512, 513, 1025)


def per_value(table: np.ndarray) -> bytes:
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist()).encode()


def timeseries_bytes(table: np.ndarray, path) -> bytes:
    result = cli.RunResult("fmt", table, (), 0, enlarged=None, wwa=None)
    cli.write_timeseries(result, path)
    return path.read_bytes().split(b"\n", 1)[1]


# NaN, +-inf, -0 and subnormals are all allowed by st.floats().
tables = st.sampled_from(ROW_COUNTS).flatmap(
    lambda n: arrays(np.float64, (n, 6), elements=st.floats())
)


@settings(max_examples=60, deadline=None)
@given(tables)
def test_kernel_matches_per_value_formatting(table):
    assert format_rows(table) == per_value(table)


@settings(max_examples=15, deadline=None)
@given(tables)
def test_write_timeseries_matches_per_value_formatting(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("fmt") / "t.csv"
    assert timeseries_bytes(table, path) == per_value(table)


def _neighbours(x: float, count: int) -> list[float]:
    out, lo, hi = [x], x, x
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _targeted_values() -> list[float]:
    rng = np.random.default_rng(19)
    values = []
    # Exact ties at 17 digits: m / 2**(17 - j) with m odd has 18
    # significant digits ending in 5 in the decade [10**j, 10**(j + 1)).
    for j in range(-6, 16):
        scale = 2 ** (17 - j)
        lo, hi = math.ceil(10.0**j * scale), min(math.floor(10.0 ** (j + 1) * scale), 2**53)
        m = rng.integers(lo, hi, 40) | 1
        values += [float(v) / 2 ** (17 - j) for v in m]
    # The 30 neighbours on each side of every power of ten from 1e-8 to
    # 1e18: the decimal exponent that log10 only estimates changes there,
    # and the largest double below each power is the only candidate for a
    # rounding carry to 10**17.
    for j in range(-8, 19):
        values += _neighbours(float(f"1e{j}"), 30)
    # Both edges of the fast range.
    for edge in (1e-6, 1e17):
        values += _neighbours(edge, 3)
    return values


def test_kernel_matches_on_ties_powers_of_ten_and_range_edges(tmp_path):
    v = np.array(_targeted_values())
    v = np.concatenate([v, -v])
    table = np.resize(v, (-(-v.size // 6), 6))
    assert format_rows(table) == per_value(table)
    assert timeseries_bytes(table, tmp_path / "t.csv") == per_value(table)


def test_no_double_in_the_fast_range_carries_to_the_next_power_of_ten():
    # The kernel has no carry step.  D = 10**17 would need a double x <
    # 10**j within 10**(j - 17) / 2 of it; only the largest double below
    # each power of ten in the range can be that close, and none is.
    for j in range(-5, 18):
        power = Fraction(10) ** j
        x = float(power)
        if Fraction(x) >= power:
            x = math.nextafter(x, 0.0)
        assert Fraction(x) * Fraction(10) ** (17 - j) < 10**17 - Fraction(1, 2)
