"""The per-sample numbers of a trajectory, taken from its real coordinates,
against the matrix formulas they replace: np.trace, the einsum purity and
eigvalsh of the expanded blocks, within 1e-12 relative."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opendecay.evolution import Trajectory  # noqa: E402
from opendecay.linalg import hermitian_basis  # noqa: E402

TOL = 1e-12


def random_coords(rng, n: int, dims: tuple, exponent: float) -> np.ndarray:
    """n rows of coordinates of blocks of dimensions ``dims``, each entry of
    magnitude up to 10^exponent."""
    width = sum(d * d for d in dims)
    return 10.0**exponent * rng.uniform(-1.0, 1.0, (n, width))


def expanded(coords: np.ndarray, dims: tuple) -> list:
    blocks, start = [], 0
    for d in dims:
        blocks.append(hermitian_basis(d).matrices(coords[:, start : start + d * d]))
        start += d * d
    return blocks


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 4),
    d_f=st.one_of(st.none(), st.integers(1, 4)),
    n=st.integers(1, 6),
    exponent=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_coordinate_formulas_match_the_matrix_ones(d, d_f, n, exponent, seed):
    # An engine trajectory (held as its rows of coordinates) and one built
    # from the same blocks as matrices (gated) give the matrix formulas'
    # numbers, each within 1e-12 of the scale of its samples.
    dims = (d,) if d_f is None else (d, d_f)
    coords = random_coords(np.random.default_rng(seed), n, dims, exponent)
    blocks = expanded(coords, dims)
    times = np.arange(float(n))
    scale = np.sqrt(sum(np.linalg.norm(b, axis=(1, 2)) ** 2 for b in blocks))
    traces = np.array([np.trace(b, axis1=1, axis2=2).real for b in blocks])
    purity = sum(np.einsum("nij,nji->n", b, b).real for b in blocks)
    low = np.min([np.linalg.eigvalsh(b)[:, 0] for b in blocks], axis=0)
    for traj in (
        Trajectory._of_coords(times, coords, dims),
        Trajectory(times, blocks[0], decay=None if d_f is None else blocks[1]),
    ):
        assert np.all(np.abs(traj.traces - traces) <= TOL * scale)
        assert np.all(np.abs(traj.purity - purity) <= TOL * scale**2)
        assert np.all(np.abs(traj.min_eigenvalues - low) <= TOL * scale)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("d_f", [None, 1, 3])
def test_a_nan_sample_has_a_nan_minimum(d, d_f):
    dims = (d,) if d_f is None else (d, d_f)
    coords = random_coords(np.random.default_rng(d), 3, dims, 0.0)
    coords[1] = np.nan
    low = Trajectory._of_coords(np.arange(3.0), coords, dims).min_eigenvalues
    assert np.isnan(low[1]) and np.isfinite(low[[0, 2]]).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_purity_that_overflows_reads_inf_without_a_warning(d):
    coords = np.full((2, d * d), 1e200)
    coords[0] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        purity = Trajectory._of_coords([0.0, 1.0], coords, (d,)).purity
    assert purity[1] == np.inf and np.isfinite(purity[0])
