"""Sequential numeric inner loops: the tridiagonal solve of the elliptic
oracles, the radical inverse of the Hammersley sets and the Adam update.

Each kernel is written as a plain loop so the same source runs either
JIT-compiled (numba) or interpreted, selected by ``OPSTAB_NO_NUMBA``;
both paths produce bit-identical results. See benchmarks/bench_kernels.py
for the speed comparison.
"""

import numpy as np

from ._accel import maybe_njit


@maybe_njit(cache=True)
def thomas_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system by the Thomas algorithm.

    lower: (n-1,) sub-diagonal, diag: (n,), upper: (n-1,) super-diagonal.
    No pivoting; intended for the diagonally dominant systems produced by
    the finite-difference discretizations in this package.
    """
    n = diag.shape[0]
    cp = np.empty(n - 1)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n - 1):
        denom = diag[i] - lower[i - 1] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / denom
    denom = diag[n - 1] - lower[n - 2] * cp[n - 2]
    dp[n - 1] = (rhs[n - 1] - lower[n - 2] * dp[n - 2]) / denom
    x = np.empty(n)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


@maybe_njit(cache=True)
def van_der_corput_base2(n):
    """Base-2 radical inverse of indices 0..n-1."""
    out = np.empty(n)
    for i in range(n):
        q = 0.0
        bk = 0.5
        k = i
        while k > 0:
            q += (k % 2) * bk
            k //= 2
            bk *= 0.5
        out[i] = q
    return out


@maybe_njit(cache=True)
def adam_update(param, grad, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam update; returns fresh arrays."""
    m2 = beta1 * m + (1.0 - beta1) * grad
    v2 = beta2 * v + (1.0 - beta2) * grad * grad
    mhat = m2 / (1.0 - beta1 ** t)
    vhat = v2 / (1.0 - beta2 ** t)
    p2 = param - lr * mhat / (np.sqrt(vhat) + eps)
    return p2, m2, v2
