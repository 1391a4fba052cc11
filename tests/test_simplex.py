"""Two-phase simplex solver against hand cases and vertex enumeration."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmadvice import core, kernels, lp, simplex
from rmadvice.simplex import SolverError, solve_simplex

from . import oracles
from .oracles import (
    ladders_and_advice,
    reference_solve_simplex,
    same_bits,
    vertex_enumeration_lp,
)


class TestHandCases:
    def test_simple_max(self):
        # [DERIVED] max x+y s.t. x+2y<=4, 3x+y<=6 -> x=8/5, y=6/5, value 14/5.
        res = solve_simplex([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6])
        assert res.status == "optimal"
        assert sum(res.x) == pytest.approx(14.0 / 5.0, abs=1e-10)
        assert res.x == pytest.approx([8.0 / 5.0, 6.0 / 5.0], abs=1e-10)

    def test_min_sense(self):
        # [DERIVED] min x+y s.t. x+y>=2 -> 2, solved as max -x-y.
        res = solve_simplex([-1, -1], [[1, 1]], [">="], [2])
        assert res.status == "optimal"
        assert sum(res.x) == pytest.approx(2.0, abs=1e-10)

    def test_upper_bounds(self):
        res = solve_simplex([1, 1], np.empty((0, 2)), [], [], upper=[2.0, 3.0])
        assert res.status == "optimal"
        assert sum(res.x) == pytest.approx(5.0, abs=1e-10)

    def test_infeasible(self):
        res = solve_simplex([1], [[1], [1]], ["<=", ">="], [1, 2])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_simplex([1, 0], [[0, 1]], ["<="], [1])
        assert res.status == "unbounded"

    def test_degenerate_constraints(self):
        # redundant duplicated rows must not confuse phase 1 (min x+y as
        # max -x-y).
        res = solve_simplex(
            [-1, -1], [[1, 1], [1, 1], [2, 2]], [">=", ">=", ">="], [1, 1, 2],
            upper=[5.0, 5.0],
        )
        assert res.status == "optimal"
        assert sum(res.x) == pytest.approx(1.0, abs=1e-10)

    def test_equality_via_pair(self):
        # x = 3 expressed as <= plus >=.
        res = solve_simplex([2], [[1], [1]], ["<=", ">="], [3, 3])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(3.0, abs=1e-10)

    def test_malformed_input_rejected(self):
        # rows, senses and rhs of different lengths; a sense that is
        # neither "<=" nor ">=".
        with pytest.raises(ValueError, match="align"):
            solve_simplex([1, 1], [[1, 1]], ["<=", "<="], [1])
        with pytest.raises(ValueError, match="align"):
            solve_simplex([1, 1], [[1, 1]], ["<="], [1, 2])
        with pytest.raises(ValueError, match="sense"):
            solve_simplex([1, 1], [[1, 1]], ["=="], [1])


def random_feasible_lp(rng, nvars, nrows):
    """Random LP guaranteed feasible (built around a known interior point)
    and bounded (box bounds)."""
    c = rng.uniform(-1.0, 1.0, size=nvars)
    x0 = rng.uniform(0.0, 2.0, size=nvars)
    A = rng.uniform(-1.0, 1.0, size=(nrows, nvars))
    senses = []
    b = []
    for i in range(nrows):
        slack = rng.uniform(0.0, 1.0)
        if rng.random() < 0.5:
            senses.append("<=")
            b.append(float(A[i] @ x0 + slack))
        else:
            senses.append(">=")
            b.append(float(A[i] @ x0 - slack))
    upper = rng.uniform(2.5, 6.0, size=nvars)
    return c, A, senses, np.array(b), upper


class TestAgainstVertexEnumeration:
    def test_fifty_random_lps(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 50:
            nvars = int(rng.integers(1, 5))
            nrows = int(rng.integers(1, 7))
            c, A, senses, b, upper = random_feasible_lp(rng, nvars, nrows)
            res = solve_simplex(c, A, senses, b, upper=upper)
            assert res.status == "optimal"
            ref_val, _ = vertex_enumeration_lp(c, A, senses, b, upper=upper)
            assert ref_val is not None
            assert c @ res.x == pytest.approx(ref_val, abs=1e-8)
            checked += 1

    def test_solution_feasibility(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            nvars = int(rng.integers(1, 5))
            nrows = int(rng.integers(1, 7))
            c, A, senses, b, upper = random_feasible_lp(rng, nvars, nrows)
            res = solve_simplex(c, A, senses, b, upper=upper)
            assert res.status == "optimal"
            for row, sense, bi in zip(A, senses, b):
                lhs = row @ res.x
                if sense == "<=":
                    assert lhs <= bi + 1e-8
                else:
                    assert lhs >= bi - 1e-8
            assert np.all(res.x >= -1e-9)
            assert np.all(res.x <= upper + 1e-8)


def assert_same_as_row_loop(c, *args, maximize=True, **kwargs):
    """Solve with the array set-up and the row-loop reference.  Both must
    hand the pivot loop the same tableaux bit for bit, so that the sign of
    every zero matches, and give the same status and the same bits of
    ``x``.  The solver minimizes ``c`` as it maximizes ``-c``.  The pivot
    loop is deterministic and its inputs must match, so the reference
    replays the loop's recorded results instead of pivoting again."""
    runs = []

    def recording(T, basis, ncols, cost_tol, pivot_tol):
        start = (T.shape, T.tobytes(), basis.tobytes(), ncols)
        status = kernels.simplex_iterate(T, basis, ncols, cost_tol, pivot_tol)
        runs.append((start, T.copy(), basis.copy(), status))
        return status

    def replaying(T, basis, ncols, cost_tol, pivot_tol):
        assert runs, "the reference pivots more often than the solver"
        start, T_out, basis_out, status = runs.pop(0)
        assert (T.shape, T.tobytes(), basis.tobytes(), ncols) == start
        T[...] = T_out
        basis[...] = basis_out
        return status

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "simplex_iterate", recording)
        mp.setattr(oracles, "simplex_iterate", replaying)
        res = solve_simplex(c if maximize else np.negative(c), *args, **kwargs)
        ref = reference_solve_simplex(c, *args, maximize=maximize, **kwargs)
    assert not runs, "the solver pivots more often than the reference"
    assert res.status == ref.status
    assert same_bits(res.x, ref.x)
    return res


COEF = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 0.3])


@st.composite
def small_lps(draw):
    """Small LPs over a few coefficients, zeros frequent, so that all-zero
    rows, infeasible and unbounded problems all come up; the last entry
    is the sense (``True`` to maximize ``c``, ``False`` to minimize it)."""
    nvars = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 5))
    c = [draw(COEF) for _ in range(nvars)]
    A = np.array([[draw(COEF) for _ in range(nvars)] for _ in range(nrows)])
    senses = [draw(st.sampled_from(["<=", ">="])) for _ in range(nrows)]
    b = [draw(st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.7])) for _ in range(nrows)]
    upper = draw(st.none() | st.lists(
        st.sampled_from([np.inf, 0.0, 1.0, 2.0]), min_size=nvars, max_size=nvars))
    return c, A.reshape(nrows, nvars), senses, b, upper, draw(st.booleans())


@pytest.mark.parametrize("status, message", [(2, "iteration cap exceeded"),
                                             (3, "lost primal feasibility")])
def test_pivot_loop_failure_raises(monkeypatch, status, message):
    # The pivot loop's failures end a solve with a SolverError, in either
    # phase: the row x >= 1 needs an artificial, so its solve runs phase 1.
    monkeypatch.setattr(simplex, "simplex_iterate", lambda *args: status)
    with pytest.raises(SolverError, match=f"phase-2 {message}"):
        solve_simplex([1.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(SolverError, match=f"phase-1 {message}"):
        solve_simplex([1.0], [[1.0]], [">="], [1.0])


class TestAgainstRowLoopReference:
    """The tableau set-up and the artificial pivot-out work on whole arrays;
    ``reference_solve_simplex`` does both a row at a time.  Pivots see
    every bit, including the sign of a zero, so results must match
    exactly."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=ladders_and_advice(min_m=2, max_m=8, max_n=60), share=st.floats(0.0, 1.0))
    def test_pareto_lps_bitwise(self, case, share):
        lad, adv = case
        statuses = []

        def checked(*args, **kwargs):
            res = assert_same_as_row_loop(*args, **kwargs)
            statuses.append(res.status)
            return res

        def tie_break(*args):
            res = simplex.reoptimize(*args)
            statuses.append(res.status)
            return res

        # The first solve of ``solve_lp``, for beta; the tie-break
        # re-optimizes from its final tableau.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "solve_simplex", checked)
            mp.setattr(lp, "reoptimize", tie_break)
            lp.solve_lp(lp.build_pareto_lp(lad, adv, share * core.bq_bound(lad)))
        assert statuses == ["optimal", "optimal"]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(small_lps())
    @example(([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0], None, True))  # infeasible
    @example(([1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0], None, True))  # unbounded
    @example(([1.0, 1.0], [[0.0, 0.0], [1.0, 1.0]], [">=", "<="], [-1.0, 2.0], None, True))
    @example(([1.0], [[0.0]], [">="], [1.0], [2.0], False))  # zero row, infeasible
    @example(([-1.0, 2.0], [[0.0, 0.0], [1.0, -1.0]], [">=", ">="], [0.0, 1.0], [np.inf, 3.0],
              False))  # zero row with a zero rhs, flipped to -0.0
    def test_small_lps_bitwise(self, lp_case):
        c, A, senses, b, upper, maximize = lp_case
        assert_same_as_row_loop(c, A, senses, b, upper=upper, maximize=maximize)


class TestReoptimize:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(small_lps(), st.lists(COEF, min_size=4, max_size=4))
    @example(([3.0, 1.0], [[1.0, 1.0]], [">="], [1.0], [2.0, 2.0], False),
             [0.0, 1.0, 0.0, 0.0])  # x_0 nonbasic at 0, an artificial column
    def test_matches_cold_solve_with_the_floor_row(self, lp_case, objective):
        # From an optimal tableau, adding x_0 >= x_0* - 1e-9 and maximizing
        # a new objective gives the optimum of that LP solved from scratch.
        c, A, senses, b, upper, maximize = lp_case
        first = solve_simplex(c if maximize else np.negative(c), A, senses, b, upper=upper)
        if first.status != "optimal":
            return
        c2, floor = objective[: len(c)], first.x[0] - 1e-9
        warm = simplex.reoptimize(first, c2, floor)
        cold = solve_simplex(c2, np.vstack([A, np.eye(1, len(c))]), senses + [">="],
                             np.append(b, floor), upper=upper)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert np.dot(c2, warm.x) == pytest.approx(np.dot(c2, cold.x), abs=1e-9)
            assert warm.x[0] >= floor - 1e-12
