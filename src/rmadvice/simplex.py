"""Self-contained dense two-phase primal simplex solver.

Solves ``max c @ x`` subject to per-row ``<=`` / ``>=`` constraints,
``x >= 0`` and optional finite upper bounds (folded in as extra rows).
Phase 1 minimizes artificial variables to find a basic feasible point;
both phases pivot with Bland's anti-cycling rule.  Rows are normalized by
their largest coefficient magnitude before the tableau is built.
``reoptimize`` adds a row ``x_0 >= floor`` to a solved LP and runs phase 2 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _pivot, simplex_iterate

COST_TOL = 1e-9
PIVOT_TOL = 1e-11


class SolverError(RuntimeError):
    """Numerical failure inside the solver (iteration cap, lost feasibility)."""


# ``simplex_iterate`` statuses that end a solve with a ``SolverError``.
_FAILURES = {2: "iteration cap exceeded", 3: "lost primal feasibility"}


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    tableau: np.ndarray | None = None  # an optimal solve's final tableau and basis,
    basis: np.ndarray | None = None  # for ``reoptimize``; columns below ncols may enter
    ncols: int = 0


def solve_simplex(c, A, senses, b, upper=None) -> SimplexResult:
    """Maximize ``c @ x`` over a dense LP with nonnegative variables.

    Args:
        c: objective coefficients, length ``nvars``.
        A: constraint matrix, shape ``(nrows, nvars)`` (may be empty).
        senses: per-row "<=" or ">=".
        b: right-hand sides, length ``nrows``.
        upper: optional per-variable upper bounds (``np.inf`` for none).
    """
    c = np.asarray(c, dtype=float)
    nvars = c.shape[0]
    A = np.asarray(A, dtype=float).reshape(-1, nvars)
    b = np.asarray(b, dtype=float).copy()
    senses = list(senses)
    if A.shape[0] != len(senses) or A.shape[0] != b.shape[0]:
        raise ValueError("constraint rows, senses, and rhs must align")
    if not set(senses) <= {"<=", ">="}:
        raise ValueError("row sense must be '<=' or '>='")

    # Finite upper bounds become "<=" rows after the constraints.
    M, rv = A.copy(), b
    if upper is not None:
        upper = np.asarray(upper, dtype=float)
        bounded = np.flatnonzero(np.isfinite(upper))
        M = np.vstack([M, np.eye(nvars)[bounded]])
        rv = np.append(rv, upper[bounded])
    nrows = M.shape[0]

    # Normalize ">=" rows to "<=" and scale each row by its largest entry.
    ge = np.zeros(nrows, dtype=bool)
    ge[: len(senses)] = [s == ">=" for s in senses]
    M[ge] = -M[ge]
    rv[ge] = -rv[ge]
    scale = np.abs(M).max(axis=1, initial=0.0)
    scaled = scale > 0.0
    M[scaled] /= scale[scaled, None]
    rv[scaled] /= scale[scaled]

    # Standard form: M x + s = rv with s >= 0; rows with negative rhs get
    # negated (slack coefficient -1) and an artificial variable.
    negative = rv < 0.0
    art_rows = np.flatnonzero(negative)
    nart = art_rows.size
    ncols = nvars + nrows  # structural + slack columns; artificials follow
    total = ncols + nart
    sign = np.where(negative, -1.0, 1.0)
    every = np.arange(nrows)
    T = np.zeros((nrows + 1, total + 1))
    T[:nrows, :nvars] = sign[:, None] * M
    T[every, nvars + every] = sign
    T[:nrows, total] = sign * rv
    T[art_rows, ncols + np.arange(nart)] = 1.0
    basis = nvars + every
    basis[art_rows] = ncols + np.arange(nart)

    if nart > 0:
        # Phase 1: minimize the sum of artificials.  Reduced costs start as
        # the phase-1 objective minus the rows of the (artificial) basis.
        for i in art_rows:
            T[nrows] -= T[i]
        T[nrows, ncols:total] = 0.0
        status = simplex_iterate(T, basis, total, COST_TOL, PIVOT_TOL)
        if status in _FAILURES:
            raise SolverError(f"phase-1 {_FAILURES[status]}")
        phase1_obj = -T[nrows, total]
        if phase1_obj > 1e-7:
            return SimplexResult(status="infeasible", x=np.full(nvars, np.nan))
        # Pivot remaining basic artificials out where possible; rows whose
        # non-artificial coefficients vanished are redundant and inert.
        for i in np.flatnonzero(basis >= ncols):
            candidates = np.flatnonzero(np.abs(T[i, :ncols]) > 10.0 * PIVOT_TOL)
            if candidates.size:
                _pivot(T, i, candidates[0])
                basis[i] = candidates[0]

    return _phase2(T, basis, c, ncols)


def reoptimize(result: SimplexResult, c, floor) -> SimplexResult:
    """``result``'s LP plus the row ``x_0 >= floor`` (floor <= x_0), maximizing ``c`` by one
    phase 2 from its final tableau, the row's slack basic and before the artificials."""
    c, ncols, nrows = np.asarray(c, dtype=float), result.ncols, result.tableau.shape[0] - 1
    T = np.insert(np.insert(result.tableau, ncols, 0.0, axis=1), nrows, 0.0, axis=0)
    T[nrows, [0, ncols, -1]] = -1.0, 1.0, -floor  # -x_0 + s = -floor
    basis = np.append(np.where(result.basis >= ncols, result.basis + 1, result.basis), ncols)
    T[nrows] += T[:nrows][result.basis == 0].sum(axis=0)  # x_0 basic: add its row
    return _phase2(T, basis, c, ncols + 1)


def _phase2(T, basis, c, ncols) -> SimplexResult:
    """Phase 2 from a feasible basis: ``c``'s reduced costs, pivots, the point."""
    nvars, nrows, total = c.shape[0], T.shape[0] - 1, T.shape[1] - 1
    obj = np.zeros(total + 1)
    obj[:nvars] = -c
    for i in range(nrows):
        col = basis[i]
        if col < nvars and obj[col] != 0.0:
            obj -= obj[col] * T[i]
    T[nrows] = obj
    status = simplex_iterate(T, basis, ncols, COST_TOL, PIVOT_TOL)
    if status in _FAILURES:
        raise SolverError(f"phase-2 {_FAILURES[status]}")
    if status == 1:
        return SimplexResult(status="unbounded", x=np.full(nvars, np.nan))

    x_full = np.zeros(total)
    x_full[basis] = T[:nrows, total]
    x = np.where(np.abs(x_full[:nvars]) < 1e-12, 0.0, x_full[:nvars])
    return SimplexResult("optimal", x, T, basis, ncols)
