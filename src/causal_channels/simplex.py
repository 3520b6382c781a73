"""Phase-1 simplex feasibility solver on a dense tableau.

Solves "find x >= 0 with A x = b" by minimizing the sum of artificial
variables, using Bland's anti-cycling rule.  Problem sizes here are tiny
(a few hundred rows/columns), so no factorization tricks are needed.  The
self-test uses it as an independent oracle for the closed-form causal
decomposition in ``procmat``.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


class InfeasibleError(ValueError):
    """The constraint system A x = b, x >= 0 has no solution."""


def solve_feasibility(a, b, pivot_tol: float = PIVOT_TOL, feas_tol: float = FEAS_TOL):
    """Return some x >= 0 with A x = b, or raise InfeasibleError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).copy()
    m, n = a.shape
    a = a.copy()
    neg = b < 0
    a[neg] *= -1
    b[neg] *= -1

    # columns: n structural, m artificial, then the rhs
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    basis = list(range(n, n + m))
    # reduced costs for min sum(artificials) with the artificial basis
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()

    while True:
        # Bland: smallest-index column with negative reduced cost
        negative = np.nonzero(t[m, : n + m] < -pivot_tol)[0]
        if negative.size == 0:
            break
        entering = int(negative[0])
        col = t[:m, entering]
        rows = np.nonzero(col > pivot_tol)[0]
        if rows.size == 0:
            raise InfeasibleError("phase-1 objective unbounded; inconsistent tableau")
        ratios = t[rows, -1] / col[rows]
        best = ratios.min()
        # ties broken by smallest basis index (anti-cycling)
        tied = rows[ratios <= best + 1e-15]
        row = int(min(tied, key=lambda i: basis[i]))
        t[row] /= t[row, entering]
        factors = t[:, entering].copy()
        factors[row] = 0.0
        t -= np.outer(factors, t[row])
        basis[row] = entering

    if -t[m, -1] > feas_tol:
        raise InfeasibleError(f"residual infeasibility {-t[m, -1]:.3e}")

    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = t[i, -1]
    x = np.clip(x, 0.0, None)
    return x
