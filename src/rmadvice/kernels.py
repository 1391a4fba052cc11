"""The simplex pivot loop: Bland-rule pivots on a dense tableau, a row
at a time (``simplex_iterate``, ``_pivot``).  ``simplex`` builds the
tableaux and reads the solutions.
"""

from __future__ import annotations

import numpy as np


def simplex_iterate(T, basis, ncols, cost_tol, pivot_tol):
    """Run Bland-rule pivots on a dense minimization tableau in place.

    The last tableau row holds reduced costs with ``-objective`` in the
    right-hand-side slot; only columns below ``ncols`` may enter.  Returns
    0 when optimal, 1 when unbounded, 2 when the iteration cap is hit, 3
    when the ratio test finds a ratio below -1e-9: the rhs went negative.
    """
    nrows = T.shape[0] - 1
    rhs = T.shape[1] - 1
    max_iters = 50000
    for _ in range(max_iters):
        candidates = np.flatnonzero(T[nrows, :ncols] < -cost_tol)
        if candidates.size == 0:
            return 0
        enter = candidates[0]
        rows = np.flatnonzero(T[:nrows, enter] > pivot_tol)
        ratios = T[rows, rhs] / T[rows, enter]
        leave = -1
        best = np.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - 1e-15:
                best = ratio
                leave = i
            elif ratio <= best + 1e-15 and leave >= 0 and basis[i] < basis[leave]:
                leave = i
        if leave < 0:
            return 1
        if best < -1e-9:
            return 3
        _pivot(T, leave, enter)
        basis[leave] = enter
    return 2


def _pivot(T, row, col):
    """Pivot the tableau in place on entry ``(row, col)``: scale the row to
    a unit pivot, then clear the column from every other row."""
    T[row] /= T[row, col]
    # Rows with a zero factor are skipped: subtracting 0 * x could turn
    # a +0.0 entry into -0.0.
    f = T[:, col].copy()
    f[row] = 0.0
    nz = np.flatnonzero(f)
    T[nz] -= f[nz, None] * T[row]
