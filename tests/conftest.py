import numpy as np
import pytest
from mpmath import mp, mpf


@pytest.fixture(autouse=True)
def _high_ambient_precision():
    """Test oracles build mp constants inline; give them enough bits.

    Package code pins its own precision via PrecisionContext and is
    unaffected by the ambient setting.
    """
    with mp.workprec(320):
        yield


def chebyshev_monic_coeffs(n):
    """Float64 coefficients of the monic Chebyshev polynomial, leading first."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    prev = np.array([1.0])           # T_0
    cur = np.array([1.0, 0.0])       # T_1 = x
    for k in range(1, n):
        b = 0.5 if k == 1 else 0.25
        nxt = np.append(cur, 0.0)
        nxt[2:] -= b * prev
        prev, cur = cur, nxt
    return cur


def orth_tol(ctx):
    """Tolerance for orthogonality residuals and moment matches: 2^(-bits/4)."""
    return mpf(2) ** (-(ctx.bits // 4))
