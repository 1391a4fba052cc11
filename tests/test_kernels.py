"""The row-vectorized simplex pivot equals the element-by-element reference."""

import numpy as np

from rmadvice import core, kernels, lp, simplex

from .oracles import reference_simplex_iterate

COST_TOL = simplex.COST_TOL
PIVOT_TOL = simplex.PIVOT_TOL


def slack_tableau(A, b, cost):
    """Minimization tableau for ``A x + s = b`` with the slacks basic."""
    nrows, nvars = A.shape
    T = np.zeros((nrows + 1, nvars + nrows + 1))
    T[:nrows, :nvars] = A
    T[:nrows, nvars : nvars + nrows] = np.eye(nrows)
    T[:nrows, -1] = b
    T[nrows, :nvars] = cost
    return T, np.arange(nvars, nvars + nrows, dtype=np.int64)


def assert_same_pivots(T, basis, ncols):
    """Run both pivot loops on copies and require bitwise-equal results."""
    T1, b1 = T.copy(), basis.copy()
    T2, b2 = T.copy(), basis.copy()
    s1 = kernels.simplex_iterate(T1, b1, ncols, COST_TOL, PIVOT_TOL)
    s2 = reference_simplex_iterate(T2, b2, ncols, COST_TOL, PIVOT_TOL)
    assert s1 == s2
    assert np.array_equal(b1, b2)
    # tobytes also tells -0.0 from +0.0.
    assert T1.tobytes() == T2.tobytes()
    return s1


class TestSimplexIterate:
    def test_matches_reference_on_random_tableaux(self):
        rng = np.random.default_rng(11)
        statuses = set()
        for trial in range(200):
            nrows = int(rng.integers(1, 7))
            nvars = int(rng.integers(1, 7))
            if trial % 2:
                # small integers: many equal ratios and zero factors
                A = rng.integers(-2, 3, size=(nrows, nvars)).astype(float)
                b = rng.integers(0, 4, size=nrows).astype(float)
                cost = rng.integers(-3, 2, size=nvars).astype(float)
            else:
                A = rng.uniform(-1.0, 2.0, size=(nrows, nvars))
                b = rng.uniform(0.0, 3.0, size=nrows)
                cost = rng.uniform(-1.0, 0.5, size=nvars)
            T, basis = slack_tableau(A, b, cost)
            statuses.add(assert_same_pivots(T, basis, T.shape[1] - 1))
        assert statuses == {0, 1}

    def test_ratio_tie_takes_lowest_basis_index(self):
        # Both rows give ratio 1 for column 0; row 1 holds the lower basis
        # index, so it leaves although row 0 comes first.
        T = np.array([
            [1.0, 0.0, 0.0, 1.0, 1.0],
            [2.0, 1.0, 0.0, 0.0, 2.0],
            [-1.0, 0.0, 0.0, 0.0, 0.0],
        ])
        basis = np.array([3, 1], dtype=np.int64)
        T_ref, basis_ref = T.copy(), basis.copy()
        assert reference_simplex_iterate(T_ref, basis_ref, 4, COST_TOL, PIVOT_TOL) == 0
        assert list(basis_ref) == [3, 0]
        assert assert_same_pivots(T, basis, 4) == 0

    def test_unbounded_column(self):
        A = np.array([[1.0, -1.0], [0.0, -2.0]])
        T, basis = slack_tableau(A, np.array([1.0, 1.0]), np.array([0.0, -1.0]))
        assert assert_same_pivots(T, basis, T.shape[1] - 1) == 1

    def test_negative_ratio_reports_lost_feasibility(self):
        # Row 0's rhs is negative beyond rounding: its ratio -1 is the
        # smallest, so the loop stops before pivoting on it.
        T, basis = slack_tableau(np.array([[1.0], [1.0]]), np.array([-1.0, 1.0]), np.array([-1.0]))
        before = T.copy()
        assert assert_same_pivots(T, basis, T.shape[1] - 1) == 3
        status = kernels.simplex_iterate(T, basis, T.shape[1] - 1, COST_TOL, PIVOT_TOL)
        assert status == 3 and np.array_equal(T, before)

    def test_rounding_level_negative_rhs_sets_no_limit(self):
        # Row 0's rhs -4e-17 over a column just above PIVOT_TOL gives the
        # ratio -2e-6: rounding noise, which the test leaves out.  The loop
        # pivots on row 1 and reaches the optimum, instead of stopping with
        # status 3 or pivoting on the 2e-11 entry.
        T, basis = slack_tableau(np.array([[2e-11, 1.0], [1.0, 0.0]]), np.array([-4e-17, 1.0]),
                                 np.array([-1.0, 0.0]))
        assert assert_same_pivots(T, basis, T.shape[1] - 1) == 0
        status = kernels.simplex_iterate(T, basis, T.shape[1] - 1, COST_TOL, PIVOT_TOL)
        assert status == 0 and list(basis) == [2, 0]
        assert abs(T[0, -1]) <= 1e-10 and T[1, -1] == 1.0

    def test_matches_reference_on_pareto_lp_tableaux(self, monkeypatch):
        calls = []
        real = kernels.simplex_iterate

        def recording(T, basis, ncols, cost_tol, pivot_tol):
            calls.append((T.copy(), basis.copy(), ncols))
            return real(T, basis, ncols, cost_tol, pivot_tol)

        monkeypatch.setattr(simplex, "simplex_iterate", recording)
        lad = core.make_fare_ladder([1.0, 2.0, 4.0, 8.0], 12)
        for counts in ([0, 3, 4, 5], [3, 3, 3, 3], [12, 0, 0, 0]):
            adv = core.make_advice(lad, counts)
            for gamma in (0.0, 0.2, core.bq_bound(lad)):
                assert lp.optimal_consistency(lad, adv, gamma).status == "optimal"
        assert calls
        for T, basis, ncols in calls:
            assert assert_same_pivots(T, basis, ncols) == 0
