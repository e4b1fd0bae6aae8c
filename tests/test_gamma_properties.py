"""Property test of decompose_gamma at near-degenerate rates, where the
tie-break key of equal rates rounds the eigenvectors at 1e-12."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opendecay.model import decompose_gamma  # noqa: E402

# Relative splittings of the rates, around the rounding of the tie-break key.
SPLITS = (0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-9)


@st.composite
def near_degenerate_gammas(draw):
    d = draw(st.integers(2, 4))
    n_null = draw(st.integers(0, d - 1))
    base = draw(st.floats(1e-3, 1e3))
    splits = draw(st.lists(st.sampled_from(SPLITS + tuple(-s for s in SPLITS)), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rates = base * (1.0 + np.array(splits))
    rates[:n_null] = 0.0
    gamma = (u * rates) @ u.conj().T
    return 0.5 * (gamma + gamma.conj().T)


@settings(max_examples=200, deadline=None)
@given(near_degenerate_gammas())
def test_decompose_gamma_near_degenerate(gamma):
    dec = decompose_gamma(gamma)
    again = decompose_gamma(gamma.copy())
    assert dec.rates.tobytes() == again.rates.tobytes()
    assert dec.modes.tobytes() == again.modes.tobytes()
    assert np.all(np.diff(dec.rates) <= 0)
    assert np.linalg.norm(dec.modes.conj().T @ dec.modes - np.eye(dec.rank)) <= 1e-12
    rebuilt = dec.modes @ np.diag(dec.rates) @ dec.modes.conj().T
    assert np.linalg.norm(rebuilt - gamma) <= 1e-10 * max(1.0, np.linalg.norm(gamma))
