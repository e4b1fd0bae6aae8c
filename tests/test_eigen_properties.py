"""The closed-form smallest eigenvalue of 2 x 2 hermitian sample blocks
against LAPACK's eigvalsh, within 8 eps ||block||_F."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opendecay.evolution import Trajectory, _smallest_eigenvalues  # noqa: E402

EPS = np.finfo(float).eps
TINY = 4 * np.finfo(float).smallest_subnormal


def hermitian_stack(a, d, b) -> np.ndarray:
    a, d, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(d, float), np.asarray(b, complex))
    h = np.empty(a.shape + (2, 2), dtype=np.complex128)
    h[..., 0, 0], h[..., 1, 1], h[..., 0, 1], h[..., 1, 0] = a, d, b, np.conj(b)
    return h


def assert_close(got: np.ndarray, want, h: np.ndarray) -> None:
    """|got - want| <= 8 eps ||h||_F for each block of h.

    Judged in units of a power of two near each block's largest entry, so
    that the norm of a block near overflow or underflow stays representable.
    Halving a subnormal entry rounds by up to half the smallest subnormal,
    which the floor TINY allows.
    """
    unit = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(h).max(axis=(1, 2)))[1], -1022))
    norm = np.linalg.norm(h * unit[:, None, None], axis=(1, 2))
    err = np.abs(got - want) * unit
    assert np.all(err <= 8 * EPS * norm + TINY * unit), err.max()


def assert_matches_eigvalsh(h: np.ndarray) -> np.ndarray:
    got = _smallest_eigenvalues(h)
    want = np.linalg.eigvalsh(h)[:, 0]
    assert got.shape == want.shape and np.all(np.isfinite(got))
    assert_close(got, want, h)
    return got


entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(entries, entries, entries, entries), min_size=1, max_size=8),
    st.sampled_from([1.0, 1e-150, 1e150]),
)
def test_closed_form_matches_eigvalsh(blocks, scale):
    a, d, re, im = np.array(blocks).T
    assert_matches_eigvalsh(hermitian_stack(scale * a, scale * d, scale * (re + 1j * im)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(entries, entries, entries, entries), min_size=1, max_size=8))
def test_closed_form_is_zero_on_pure_states(amplitudes):
    # rho = psi psi† is rank one: its smallest eigenvalue is 0.
    x0, x1, y0, y1 = np.array(amplitudes).T
    x, y = x0 + 1j * x1, y0 + 1j * y1
    h = hermitian_stack(np.abs(x) ** 2, np.abs(y) ** 2, x * np.conj(y))
    assert_close(assert_matches_eigvalsh(h), 0.0, h)


def test_closed_form_on_equal_diagonal_without_coherence():
    a = np.array([0.0, 0.5, -2.0, 1e-300, 1e300])
    assert np.array_equal(assert_matches_eigvalsh(hermitian_stack(a, a, 0.0)), a)


def test_closed_form_near_overflow_stays_finite():
    # Summing the diagonal, or taking a - d, before halving overflows here.
    big = 1e308
    h = hermitian_stack([big, big, -big, big], [big, -big, -big, 0.5 * big], [0.5 * big, 0.0, 0.0, 0.5j * big])
    got = assert_matches_eigvalsh(h)
    assert got[:3].tolist() == [0.5 * big, -big, -big]
    # The same through the trajectory, after the hermiticity gate.
    traj = Trajectory(times=np.arange(4.0), states=h)
    assert np.array_equal(traj.min_eigenvalues, got)
