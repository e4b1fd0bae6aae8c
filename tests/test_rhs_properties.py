"""The premise of the stepper's real coordinates: the master equation's
right-hand side rho' = -i(G rho - rho G†) + sum_k K rho K† maps hermitian
matrices to hermitian matrices for every G and every K, to rounding."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opendecay.model import MasterEquation  # noqa: E402

norm = np.linalg.norm


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 6),
    n_jumps=st.integers(0, 2),
    exponents=st.lists(st.floats(-8.0, 8.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rhs_of_a_hermitian_state_is_hermitian(d, n_jumps, exponents, seed):
    # Arbitrary complex G and K, not from any physical system, at entry
    # scales 1e-8 to 1e8: ||X - X†||_F <= 1e-14 (2 ||G||_F + sum ||K||_F^2)
    # ||rho||_F, the scale of the rounding of X = rhs(rho).
    rng = np.random.default_rng(seed)

    def matrix(exponent):
        return 10.0**exponent * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    gen = matrix(exponents[0])
    jumps = tuple(matrix(e) for e in exponents[1 : 1 + n_jumps])
    m = matrix(exponents[3])
    rho = m + m.conj().T
    x = MasterEquation(gen, jumps).rhs(rho)
    scale = (2 * norm(gen) + sum(norm(k) ** 2 for k in jumps)) * norm(rho)
    assert norm(x - x.conj().T) <= 1e-14 * scale
