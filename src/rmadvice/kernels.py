"""The simplex pivot loop: Bland-rule pivots on a dense tableau, a row
at a time (``simplex_iterate``, ``_ratio_test``, ``_pivot``).  ``simplex``
builds the tableaux and reads the solutions.
"""

from __future__ import annotations

import numpy as np


def simplex_iterate(T, basis, ncols, cost_tol, pivot_tol):
    """Run Bland-rule pivots on a dense minimization tableau in place.

    The last tableau row holds reduced costs with ``-objective`` in the
    right-hand-side slot; only columns below ``ncols`` may enter.  Returns
    0 when optimal, 1 when unbounded, 2 when the iteration cap is hit, 3
    when the ratio test finds a ratio below -1e-9 from an rhs below -1e-9:
    the rhs went negative.  A row whose rhs is negative by rounding alone
    (-1e-9 or above) over a column so small that its ratio falls below
    -1e-9 is left out of the test: both are rounding noise, and a pivot on
    such a column would spread the noise through the tableau.
    """
    cost, body = T[-1, :ncols], T[:-1]  # views: pivots update them in place
    for _ in range(50000):  # the iteration cap
        negative = cost < -cost_tol
        enter = negative.argmax()  # the lowest index of a negative cost
        if not negative[enter]:
            return 0
        rows = (body[:, enter] > pivot_tol).nonzero()[0]
        b = body[rows, -1]
        ratios = b / body[rows, enter]
        leave, best = _ratio_test(rows, ratios, basis)
        if best < -1e-9:
            signal = (ratios >= -1e-9) | (b < -1e-9)
            leave, best = _ratio_test(rows[signal], ratios[signal], basis)
        if leave < 0:
            return 1
        if best < -1e-9:
            return 3
        _pivot(T, leave, enter)
        basis[leave] = enter
    return 2


def _ratio_test(rows, ratios, basis):
    """The leaving row among ``rows`` and its ratio: the smallest ratio,
    ties within 1e-15 to the lowest basis index; ``(-1, inf)`` if none."""
    leave, best = -1, np.inf
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best - 1e-15:
            leave, best = i, ratio
        elif ratio <= best + 1e-15 and leave >= 0 and basis[i] < basis[leave]:
            leave = i
    return leave, best


def _pivot(T, row, col):
    """Pivot the tableau in place on entry ``(row, col)``: scale the row to
    a unit pivot, then clear the column from every other row."""
    T[row] /= T[row, col]
    # Rows with a zero factor are skipped: subtracting 0 * x could turn
    # a +0.0 entry into -0.0.
    f = T[:, col].copy()
    f[row] = 0.0
    nz = f.nonzero()[0]
    T[nz] -= f[nz, None] * T[row]
