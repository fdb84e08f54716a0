"""Tests for the Lawson-Hanson NNLS solver, cross-checked against SciPy."""

from importlib import import_module

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.common.errors import FittingError
from repro.fitting.nnls import LineNNLS, NormalEquations, dual_tolerance, nnls, nnls_fit

# ``repro.fitting`` re-exports the function under the module's name.
nnls_module = import_module("repro.fitting.nnls")


class TestBasics:
    def test_exact_nonnegative_solution(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x_true = np.array([2.0, 3.0])
        x, rnorm = nnls(A, A @ x_true)
        assert np.allclose(x, x_true, atol=1e-8)
        assert rnorm == pytest.approx(0.0, abs=1e-8)

    def test_clamps_negative_least_squares(self):
        # Unconstrained LS solution is negative; NNLS must clamp to zero.
        A = np.array([[1.0], [1.0]])
        b = np.array([-1.0, -2.0])
        x, _ = nnls(A, b)
        assert x[0] == 0.0

    def test_residual_norm_correct(self):
        A = np.array([[1.0], [1.0]])
        b = np.array([1.0, 3.0])
        x, rnorm = nnls(A, b)
        assert x[0] == pytest.approx(2.0)
        assert rnorm == pytest.approx(np.sqrt(2.0))

    def test_wide_matrix(self):
        A = np.array([[1.0, 2.0, 3.0]])
        x, rnorm = nnls(A, np.array([6.0]))
        assert rnorm == pytest.approx(0.0, abs=1e-9)
        assert np.all(x >= 0)

    def test_nnls_fit_wrapper(self):
        A = np.eye(3)
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(nnls_fit(A, b), b)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(FittingError):
            nnls(np.eye(3), np.ones(2))

    def test_non_2d_matrix(self):
        with pytest.raises(FittingError):
            nnls(np.ones(3), np.ones(3))

    def test_empty(self):
        with pytest.raises(FittingError):
            nnls(np.zeros((0, 2)), np.zeros(0))

    def test_nan_rejected(self):
        A = np.array([[1.0, np.nan]])
        with pytest.raises(FittingError):
            nnls(A, np.array([1.0]))

    def test_inf_rejected(self):
        with pytest.raises(FittingError):
            nnls(np.array([[1.0]]), np.array([np.inf]))


def objective(A, x, b):
    """The NNLS objective ``||A x - b||^2``."""
    r = A @ x - b
    return float(r @ r)


@st.composite
def small_problems(draw):
    """A random ``(A, b)`` with float32-representable entries in [-10, 10]."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    # Zero out near-denormal entries: both solvers treat them as
    # numerically zero but disagree on which side of their tolerance
    # they fall.
    elements = st.floats(-10, 10, allow_nan=False, width=32).map(
        lambda v: 0.0 if abs(v) < 1e-6 else v
    )
    A = draw(hnp.arrays(np.float64, (m, n), elements=elements))
    b = draw(hnp.arrays(np.float64, (m,), elements=elements))
    return A, b


class TestAgainstScipy:
    @settings(max_examples=60, deadline=None)
    @given(problem=small_problems())
    # Column 1 is nearly parallel to column 0. At x = [0.2, 0] the dual
    # component that would bring column 1 in is 3.1e-14, just under the
    # dual tolerance of 3.3e-14, so the solver stops there with residual
    # 2.0e-6; the optimum is x = [0, 128] with residual 0. The objective
    # gap, 4.0e-12, is within the bound below (8.5e-12).
    @example(
        problem=(
            np.array([[1e-5, 0.0], [5.0, 0.0078125], [0.0, 0.0]]),
            np.array([0.0, 1.0, 0.0]),
        )
    )
    def test_matches_scipy_residual(self, problem):
        A, b = problem
        try:
            x_ours, r_ours = nnls(A, b)
        except FittingError:
            reject()  # the solver declined a degenerate instance
        x_scipy, _ = scipy.optimize.nnls(A, b)
        assert np.all(x_ours >= 0)
        # The optimal objective f = ||Ax - b||^2 is unique even where the
        # minimiser is not (rank-deficient A), so compare objectives.
        # The solver stops once every dual component w = A^T (b - A x) is
        # at most tau = dual_tolerance(A, b) -- on the active set by the
        # stopping rule, and on the passive set, where the least-squares
        # solve makes it zero up to rounding. Convexity of f then bounds
        # how far above any feasible y (SciPy's answer) the solver can
        # stop: f(x) - f(y) <= 2 w.(y - x) <= 2 tau (|y|_1 + |x|_1).
        # Comparing residual *norms* would instead turn an objective gap g
        # into sqrt(g): the pinned instance's 4e-12 becomes 2e-6.
        f_ours = objective(A, x_ours, b)
        f_scipy = objective(A, x_scipy, b)
        tau = dual_tolerance(A, b)
        bound = 2 * tau * (np.abs(x_scipy).sum() + np.abs(x_ours).sum())
        # The rel term absorbs the rounding of evaluating f itself.
        assert f_ours <= f_scipy + bound + 1e-12 * max(f_scipy, 1.0)
        assert r_ours == pytest.approx(np.sqrt(f_ours), rel=1e-9, abs=1e-12)

    def test_known_regression_instance(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(50, 5))
        x_true = np.abs(rng.normal(size=5))
        b = A @ x_true + rng.normal(scale=0.01, size=50)
        x_ours, r_ours = nnls(A, b)
        x_scipy, r_scipy = scipy.optimize.nnls(A, b)
        assert np.allclose(x_ours, x_scipy, atol=1e-6)
        assert r_ours == pytest.approx(r_scipy, abs=1e-8)


class TestWideScaleColumns:
    def test_tiny_positive_coefficient_does_not_cycle(self):
        # A slope far below the dual tolerance (which scales with max|A|)
        # used to be judged infeasible, emptying the passive set until the
        # iteration cap raised.
        k = np.linspace(0, 1e6, 200)
        A = np.column_stack([k, np.ones_like(k)])
        b = 2 + 3e-7 * k
        x, rnorm = nnls(A, b)
        x_scipy, _ = scipy.optimize.nnls(A, b)
        assert x == pytest.approx(x_scipy, rel=1e-9)
        assert x == pytest.approx([3e-7, 2.0], rel=1e-9)
        assert rnorm == pytest.approx(0.0, abs=1e-9)


def line_problem(data, positive):
    """A random ``[k, 1]`` problem: k spans 1..10^6, targets near a line."""
    m = data.draw(st.integers(4, 400), label="m")
    top = 10 ** data.draw(st.floats(0.5, 6), label="log10 kmax")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    k = np.sort(rng.uniform(1.0, top, m))
    slope = data.draw(st.floats(-1, 1), label="slope") * 10 / top
    level = data.draw(st.floats(-10, 10), label="level")
    noise = data.draw(st.floats(1e-3, 3), label="noise")
    y = slope * k + level + rng.normal(0.0, noise, m)
    if positive:
        y = np.abs(y) + 1e-3
    return k, y


class TestLineNNLS:
    def test_interior(self):
        k = np.array([0.0, 1.0, 2.0, 3.0])
        b0, b1 = LineNNLS(k).solve(2.0 * k + 1.0)
        assert (b0, b1) == (pytest.approx(2.0), pytest.approx(1.0))

    def test_through_origin(self):
        k = np.array([1.0, 2.0, 3.0, 4.0])
        b0, b1 = LineNNLS(k).solve(3.0 * k - 2.0)  # LS intercept < 0
        assert b1 == 0.0
        assert b0 == pytest.approx((k @ (3.0 * k - 2.0)) / (k @ k))

    def test_constant(self):
        k = np.array([1.0, 2.0, 3.0, 4.0])
        b0, b1 = LineNNLS(k).solve(5.0 - k)  # LS slope < 0
        assert (b0, b1) == (0.0, pytest.approx(2.5))

    def test_zero(self):
        k = np.array([1.0, 2.0, 3.0, 4.0])
        b0, b1 = LineNNLS(k).solve(-k)
        assert (b0, b1) == (0.0, 0.0)

    def test_rows_are_solved_independently(self):
        k = np.array([1.0, 2.0, 3.0, 4.0])
        ys = np.stack([2.0 * k + 1.0, 5.0 - k, -k])
        b0, b1 = LineNNLS(k).solve(ys)
        for y, c0, c1 in zip(ys, b0, b1):
            s0, s1 = LineNNLS(k).solve(y)
            assert (c0, c1) == (pytest.approx(s0, rel=1e-12), pytest.approx(s1, rel=1e-12))

    def test_degenerate_design_rejected(self):
        with pytest.raises(FittingError):
            LineNNLS(np.full(5, 7.0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), positive=st.booleans())
    def test_matches_lawson_hanson(self, data, positive):
        k, y = line_problem(data, positive)
        A = np.column_stack([k, np.ones_like(k)])
        b0, b1 = LineNNLS(k).solve(y)
        assert b0 >= 0 and b1 >= 0
        ours = np.linalg.norm(b0 * k + b1 - y)
        # The floor covers float64 rounding of a residual norm computed
        # from entries of size |y|.
        floor = 1e-12 * np.linalg.norm(y)
        _, r_scipy = scipy.optimize.nnls(A, y)
        assert ours == pytest.approx(r_scipy, rel=1e-9, abs=floor)
        _, r_lh = nnls(A, y)
        assert ours == pytest.approx(r_lh, rel=1e-9, abs=floor)


class TestOptimality:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_kkt_conditions(self, seed):
        """At the solution: gradient >= -tol on active set, ~0 on passive set."""
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(20, 4))
        b = rng.normal(size=20)
        x, _ = nnls(A, b)
        gradient = A.T @ (A @ x - b)
        tol = 1e-6 * max(1.0, float(np.abs(A).max()) ** 2) * 20
        active = x <= 1e-12
        assert np.all(gradient[active] >= -tol)
        assert np.all(np.abs(gradient[~active]) <= tol)


def counted_solves(monkeypatch):
    """Count Gram-form least-squares solves (one per Lawson–Hanson step)."""
    calls = []
    solve = nnls_module._solve_passive

    def counting(normal, cols):
        calls.append(len(cols))
        return solve(normal, cols)

    monkeypatch.setattr(nnls_module, "_solve_passive", counting)
    return calls


def same_bits(left, right):
    (x, r), (y, s) = left, right
    return x.tobytes() == y.tobytes() and r == s


def gram(A, b):
    """The normal equations of ``A x = b``, added one row at a time."""
    A = np.asarray(A, dtype=float)
    normal = NormalEquations(A.shape[1])
    for row, target in zip(A.tolist(), np.asarray(b, dtype=float).tolist()):
        normal.add(row, target)
    return normal


class TestPassiveHint:
    def test_correct_hint_is_one_solve(self, monkeypatch):
        rng = np.random.default_rng(4)
        A = rng.uniform(0.5, 2.0, size=(12, 3))
        b = A @ np.array([1.0, 0.0, 2.0]) - 0.01 * A[:, 1]
        normal = gram(A, b)
        cold = nnls(normal)
        hint = cold[0] > 0
        calls = counted_solves(monkeypatch)
        assert same_bits(nnls(normal, passive=hint), cold)
        assert calls == [2]

    def test_negative_least_squares_coefficient_falls_back(self, monkeypatch):
        normal = gram(np.eye(2), [1.0, -1.0])
        cold = nnls(normal)
        calls = counted_solves(monkeypatch)
        warm = nnls(normal, passive=np.array([True, True]))
        assert same_bits(warm, cold)
        np.testing.assert_array_equal(warm[0], [1.0, 0.0])
        assert calls[0] == 2 and len(calls) > 1  # the hint, then the cold path

    def test_failed_dual_test_falls_back(self, monkeypatch):
        # The hint's fit is positive, but the column it leaves out still
        # reduces the residual: its dual component is 1 > tol.
        normal = gram(np.eye(2), [1.0, 1.0])
        cold = nnls(normal)
        calls = counted_solves(monkeypatch)
        warm = nnls(normal, passive=np.array([True, False]))
        assert same_bits(warm, cold)
        np.testing.assert_array_equal(warm[0], [1.0, 1.0])
        assert calls[0] == 1 and len(calls) > 1

    def test_all_false_hint_is_the_cold_path(self, monkeypatch):
        rng = np.random.default_rng(5)
        normal = gram(rng.normal(size=(10, 4)), rng.normal(size=10))
        cold_calls = counted_solves(monkeypatch)
        cold = nnls(normal)
        cold_count = len(cold_calls)
        assert same_bits(nnls(normal, passive=np.zeros(4, dtype=bool)), cold)
        assert len(cold_calls) == 2 * cold_count

    def test_wrong_length_hint_rejected(self):
        normal = gram(np.eye(3), np.ones(3))
        with pytest.raises(FittingError, match="passive"):
            nnls(normal, passive=np.array([True, True]))
        with pytest.raises(FittingError, match="passive"):
            nnls(normal, passive=np.ones((3, 1), dtype=bool))

    def test_dense_form_takes_no_hint(self):
        with pytest.raises(FittingError, match="passive"):
            nnls(np.eye(2), np.ones(2), passive=np.array([True, True]))


class TestNormalEquations:
    def test_sums_match_the_matrix_products(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(0.1, 5.0, size=(30, 4))
        b = rng.uniform(0.1, 5.0, size=30)
        normal = gram(A, b)
        np.testing.assert_allclose(normal.gram, A.T @ A, rtol=1e-13)
        np.testing.assert_allclose(normal.rhs, A.T @ b, rtol=1e-13)
        assert normal.btb == pytest.approx(b @ b, rel=1e-13)
        assert normal.rows == 30
        assert normal.tolerance() == dual_tolerance(A, b)

    def test_remove_undoes_add(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(0.1, 5.0, size=(20, 3))
        b = rng.uniform(0.1, 5.0, size=20)
        normal = gram(A[:10], b[:10])
        for row, target in zip(A[10:], b[10:]):
            normal.add(row, target)
        for row, target in zip(A[:10], b[:10]):
            normal.remove(row, target)
        fresh = gram(A[10:], b[10:])
        np.testing.assert_allclose(normal.gram, fresh.gram, rtol=1e-12)
        np.testing.assert_allclose(normal.rhs, fresh.rhs, rtol=1e-12)
        assert normal.rows == fresh.rows
        # The largest entries left with their rows: the tolerance is exact.
        assert normal.tolerance() == fresh.tolerance()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, value):
        normal = NormalEquations(2)
        with pytest.raises(FittingError):
            normal.add([1.0, value], 1.0)
        with pytest.raises(FittingError):
            normal.add([1.0, 1.0], value)
        assert normal.rows == 0 and normal.btb == 0.0

    def test_empty_problem_rejected(self):
        with pytest.raises(FittingError):
            nnls(NormalEquations(3))
        with pytest.raises(FittingError):
            nnls(NormalEquations(3), np.ones(3))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(6, 40), n=st.integers(1, 5))
    def test_matches_the_dense_solve(self, seed, m, n):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.0, 2.0, size=(m, n))
        b = A @ np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 2.0, n))
        b += rng.normal(0.0, 0.1, m)
        x_dense, r_dense = nnls(A, b)
        x_gram, r_gram = nnls(gram(A, b))
        scale = max(1.0, float(np.abs(x_dense).max()))
        np.testing.assert_allclose(x_gram, x_dense, rtol=0, atol=1e-8 * scale)
        assert r_gram == pytest.approx(r_dense, rel=1e-7, abs=1e-9)

    def test_dependent_column_is_barred(self):
        # Column 2 repeats column 0: the Gram solve on both is singular.
        rng = np.random.default_rng(8)
        A = rng.uniform(0.5, 2.0, size=(15, 2))
        A = np.column_stack([A, A[:, 0]])
        b = A[:, 0] * 1.5 + A[:, 1] * 0.5
        x, rnorm = nnls(gram(A, b))
        assert np.all(x >= 0)
        assert rnorm == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(A @ x, b, rtol=1e-9)
