"""Non-negative least squares (NNLS).

§3.1 and §3.2 of the paper fit both the loss-curve model and the speed
functions with an NNLS solver. We implement the classic Lawson–Hanson
active-set algorithm ourselves (the library must not silently depend on
``scipy.optimize.nnls`` internals) but verify it against SciPy in the test
suite. The §3.1 loss-curve fit only ever solves the 2-column design
``[k, 1]``; :class:`LineNNLS` solves that one exactly, by KKT case analysis,
for one target or many at once. The §3.2 speed fits have at most five
columns and a window of samples that changes by one row at a time, so they
keep the problem's Gram form as running sums (:class:`NormalEquations`) and
:func:`nnls` solves that form in plain floats. A refit whose solution
support is known from the previous fit passes it as a ``passive`` hint,
the passive set Lawson–Hanson starts from: when the guess is right, one
solve on those columns passes Lawson–Hanson's own termination test.

Given ``A`` (m x n) and ``b`` (m,), solve::

    minimize ||A x - b||_2   subject to   x >= 0
"""

from __future__ import annotations

from math import isfinite, sqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import FittingError

#: Machine epsilon of a Python float.
EPS = float(np.finfo(float).eps)

#: A Gram-form pivot below this fraction of its diagonal entry marks the
#: column as (numerically) a combination of the columns before it.
PIVOT_FLOOR = 1e-12


def _tolerance(rows: int, cols: int, a_max: float, b_max: float) -> float:
    return 10 * max(rows, cols) * EPS * max(a_max, 1.0) * max(b_max, 1.0)


def dual_tolerance(A: np.ndarray, b: np.ndarray) -> float:
    """The default optimality tolerance of :func:`nnls` on the dual vector.

    :func:`nnls` stops once no inactive coordinate has a dual component
    ``w_j = (A^T (b - A x))_j`` above this value, which scales with the
    problem size and the magnitudes of ``A`` and ``b``.
    """
    m, n = np.shape(A)
    return _tolerance(
        m, n, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0))
    )


class _Peak:
    """The largest value of a multiset that loses members as well as gains them."""

    __slots__ = ("_counts", "_max")

    def __init__(self) -> None:
        self._counts: Dict[float, int] = {}
        self._max: Optional[float] = 0.0

    def add(self, value: float) -> None:
        self._counts[value] = self._counts.get(value, 0) + 1
        if self._max is not None and value > self._max:
            self._max = value

    def remove(self, value: float) -> None:
        left = self._counts[value] - 1
        if left:
            self._counts[value] = left
            return
        del self._counts[value]
        if value == self._max:
            self._max = None  # recomputed on the next read

    @property
    def value(self) -> float:
        if self._max is None:
            self._max = max(self._counts, default=0.0)
        return self._max


class NormalEquations:
    """The Gram form ``(A^T A, A^T b, b^T b)`` of a least-squares problem.

    Rows are added and removed one at a time, so a sliding window of
    samples keeps its normal equations as running sums instead of
    rebuilding them. The row count and the largest ``|A|`` and ``|b|``
    entries ride along, because :func:`dual_tolerance` needs them.
    ``gram`` is kept whole and symmetric, so ``gram[i][j]`` reads any entry.
    """

    __slots__ = ("n", "gram", "rhs", "btb", "rows", "_a_peak", "_b_peak")

    def __init__(self, n: int):
        if n < 1:
            raise FittingError("need at least one column")
        self.n = n
        self.gram: List[List[float]] = [[0.0] * n for _ in range(n)]
        self.rhs: List[float] = [0.0] * n
        self.btb = 0.0
        self.rows = 0
        self._a_peak = _Peak()
        self._b_peak = _Peak()

    def _update(self, row: Sequence[float], target: float, sign: float) -> None:
        if len(row) != self.n:
            raise FittingError(f"row has {len(row)} entries, expected {self.n}")
        # a_i * a_j and a_j * a_i round alike, so gram stays symmetric.
        for i, a in enumerate(row):
            a *= sign
            line = self.gram[i]
            for j, aj in enumerate(row):
                line[j] += a * aj
            self.rhs[i] += a * target
        self.btb += sign * target * target

    def add(self, row: Sequence[float], target: float) -> None:
        """Add one finite row ``row . x = target``."""
        row = [float(a) for a in row]
        target = float(target)
        if not all(map(isfinite, row)) or not isfinite(target):
            raise FittingError("rows and targets must be finite")
        self._update(row, target, 1.0)
        self.rows += 1
        self._a_peak.add(max(map(abs, row)))
        self._b_peak.add(abs(target))

    def remove(self, row: Sequence[float], target: float) -> None:
        """Remove a row that :meth:`add` added before."""
        row = [float(a) for a in row]
        target = float(target)
        self._update(row, target, -1.0)
        self.rows -= 1
        self._a_peak.remove(max(map(abs, row)))
        self._b_peak.remove(abs(target))

    def tolerance(self) -> float:
        """:func:`dual_tolerance` of the rows summed so far."""
        return _tolerance(self.rows, self.n, self._a_peak.value, self._b_peak.value)


def _solve_passive(eq: NormalEquations, cols: Sequence[int]) -> Optional[List[float]]:
    """Least squares on columns *cols*: ``(A^T A)_PP z = (A^T b)_P``.

    A Cholesky solve in plain floats, in the order of *cols*; ``None`` when
    a pivot falls below :data:`PIVOT_FLOOR` of its diagonal entry, i.e. a
    column is numerically a combination of the ones before it.
    """
    k = len(cols)
    gram = eq.gram
    L = [[0.0] * k for _ in range(k)]
    for i in range(k):
        li = L[i]
        row = gram[cols[i]]
        for j in range(i + 1):
            lj = L[j]
            s = row[cols[j]]
            for t in range(j):
                s -= li[t] * lj[t]
            if i == j:
                if not s > PIVOT_FLOOR * row[cols[i]]:
                    return None
                li[i] = sqrt(s)
            else:
                li[j] = s / lj[j]
    y = [0.0] * k
    for i in range(k):
        s = eq.rhs[cols[i]]
        li = L[i]
        for t in range(i):
            s -= li[t] * y[t]
        y[i] = s / li[i]
    z = [0.0] * k
    for i in reversed(range(k)):
        s = y[i]
        for t in range(i + 1, k):
            s -= L[t][i] * z[t]
        z[i] = s / L[i][i]
    return z


def _dual(eq: NormalEquations, x: Sequence[float]) -> List[float]:
    """``w = A^T b - A^T A x``, the negative gradient of the objective / 2."""
    support = [(j, v) for j, v in enumerate(x) if v]
    return [c - sum(line[j] * v for j, v in support) for c, line in zip(eq.rhs, eq.gram)]


def _nnls_normal(
    eq: NormalEquations,
    max_iter: int,
    tol: Optional[float],
    passive: Optional[np.ndarray],
) -> Tuple[np.ndarray, float]:
    """Lawson–Hanson on the Gram form, from the passive set *passive*."""
    n = eq.n
    if eq.rows == 0:
        raise FittingError("empty problem")
    if not all(map(isfinite, eq.rhs)) or not isfinite(eq.btb):
        raise FittingError("A and b must be finite")
    if tol is None:
        tol = eq.tolerance()
    in_p = [False] * n  # the "P" set
    if passive is not None:
        hint = np.asarray(passive, dtype=bool)
        if hint.shape != (n,):
            raise FittingError(f"passive must have shape ({n},), got {hint.shape}")
        in_p = hint.tolist()
    #: Columns whose solve was singular: they never re-enter.
    barred = [False] * n
    x = [0.0] * n
    entering: Optional[int] = None
    outer = 0
    while True:
        # Inner loop: the least-squares solution on P, kept strictly
        # feasible. With a hint, the first pass solves the hinted set.
        while any(in_p):
            cols = [i for i in range(n) if in_p[i]]
            zp = _solve_passive(eq, cols)
            if zp is None:
                if entering is None or not in_p[entering]:
                    # A singular hint: start from the empty set instead
                    # (any subset of a set that solved solves too).
                    in_p, x = [False] * n, [0.0] * n
                    break
                # The entering column adds nothing the others span: bar
                # it and solve again without it.
                in_p[entering], barred[entering], x[entering] = False, True, 0.0
                continue
            z = [0.0] * n
            for i, v in zip(cols, zp):
                z[i] = v
            # Feasibility is a sign test, as in Lawson–Hanson: ``tol`` bounds
            # the dual vector, not the coefficients.
            if all(z[i] > 0 for i in cols):
                x = z
                break
            # Step toward z only as far as feasibility allows.
            alpha = 1.0
            for i in cols:
                if z[i] <= 0:
                    step = x[i] - z[i]
                    alpha = min(alpha, x[i] / step if step else 0.0)
            x = [xi + alpha * (zi - xi) for xi, zi in zip(x, z)]
            # Drop coordinates that hit zero back to the active set.
            floor = tol * max(1.0, max(abs(v) for v in x))
            drop = [i for i in cols if abs(x[i]) <= floor and not z[i] > 0]
            if not drop:
                # Numerical safety: force the worst offender out.
                drop = [min(cols, key=lambda c: z[c])]
            for i in drop:
                in_p[i] = False
            x = [v if in_p[i] else 0.0 for i, v in enumerate(x)]
        w = _dual(eq, x)
        candidates = [j for j in range(n) if not in_p[j] and not barred[j]]
        if not any(w[j] > tol for j in candidates):
            break
        outer += 1
        if outer > max_iter:
            raise FittingError(f"NNLS failed to converge in {max_iter} iterations")
        # Bring the most promising coordinate into the passive set.
        entering = max(candidates, key=lambda c: w[c])
        in_p[entering] = True
    # ||Ax - b||^2 = b.b - 2 x.A^T b + x.A^T A x = b.b - x.(A^T b + w).
    rss = eq.btb - sum(xi * (ci + wi) for xi, ci, wi in zip(x, eq.rhs, w) if xi)
    return np.array(x), sqrt(max(rss, 0.0))


def nnls(
    A,
    b: Optional[np.ndarray] = None,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
    passive: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Lawson–Hanson non-negative least squares.

    Parameters
    ----------
    A:
        Design matrix of shape ``(m, n)``, solved column by column with
        ``np.linalg.lstsq``; or a :class:`NormalEquations`, solved on its
        Gram form in plain floats (pass no *b* then).
    b:
        Target vector of shape ``(m,)``.
    max_iter:
        Iteration cap; defaults to ``max(3 * n, 30)``.
    tol:
        Optimality tolerance on the dual vector; defaults to
        :func:`dual_tolerance`, a scale-aware value derived from machine
        epsilon.
    passive:
        Gram form only: an optional boolean mask of length ``n`` guessing
        the solution's support (for a refit, ``x > 0`` of the previous
        fit). Lawson–Hanson starts from it as its passive set instead of
        the empty one. A right guess therefore costs one solve: every
        coefficient comes out positive and no dual component off the mask
        exceeds ``tol``, the test that ends Lawson–Hanson. Its answer is
        the solve on its final passive set, in sorted column order, so a
        hinted solve returns the same bits as a cold one whenever that set
        is unique.

    Returns
    -------
    (x, rnorm):
        The non-negative solution and the residual 2-norm ``||A x - b||``.

    Raises
    ------
    FittingError
        On malformed inputs or failure to converge within ``max_iter``.
    """
    if isinstance(A, NormalEquations):
        if b is not None:
            raise FittingError("normal equations carry their own targets")
        return _nnls_normal(A, max(3 * A.n, 30) if max_iter is None else max_iter, tol, passive)
    if passive is not None:
        raise FittingError("a passive hint needs the normal-equation form")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2:
        raise FittingError(f"A must be 2-D, got shape {A.shape}")
    m, n = A.shape
    if b.shape[0] != m:
        raise FittingError(f"A has {m} rows but b has {b.shape[0]} entries")
    if m == 0 or n == 0:
        raise FittingError("empty problem")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise FittingError("A and b must be finite")

    if max_iter is None:
        max_iter = max(3 * n, 30)
    if tol is None:
        tol = dual_tolerance(A, b)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)  # the "P" set
    w = A.T @ (b - A @ x)

    outer = 0
    while (not passive.all()) and np.any(w[~passive] > tol):
        outer += 1
        if outer > max_iter:
            raise FittingError(f"NNLS failed to converge in {max_iter} iterations")
        # Bring the most promising coordinate into the passive set.
        candidates = np.where(~passive)[0]
        j = candidates[int(np.argmax(w[candidates]))]
        passive[j] = True

        # Inner loop: keep the passive solution strictly feasible.
        while True:
            cols = np.where(passive)[0]
            z_passive, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            z = np.zeros(n)
            z[cols] = z_passive
            # Feasibility is a sign test, as in Lawson–Hanson: ``tol`` bounds
            # the dual vector, not the coefficients, which may be far smaller
            # (a slope per step when steps reach 10^6).
            if np.all(z[cols] > 0):
                x = z
                break
            # Step toward z only as far as feasibility allows.
            blocking = cols[z[cols] <= 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = x[blocking] / (x[blocking] - z[blocking])
            ratios = np.where(np.isfinite(ratios), ratios, 0.0)
            alpha = float(ratios.min()) if blocking.size else 0.0
            x = x + alpha * (z - x)
            # Drop coordinates that hit zero back to the active set.
            drop = passive & (np.abs(x) <= tol * max(1.0, float(np.abs(x).max())))
            drop &= ~(z > 0)
            if not drop.any():
                # Numerical safety: force the worst offender out.
                worst = cols[int(np.argmin(z[cols]))]
                drop = np.zeros(n, dtype=bool)
                drop[worst] = True
            passive &= ~drop
            x[~passive] = 0.0
            if not passive.any():
                break
        w = A.T @ (b - A @ x)

    residual = float(np.linalg.norm(A @ x - b))
    return np.maximum(x, 0.0), residual


def nnls_fit(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convenience wrapper returning only the coefficient vector."""
    x, _ = nnls(A, b)
    return x


class LineNNLS:
    """Exact NNLS for the 2-column design ``[k, 1]``.

    Solves ``minimize ||b0 * k + b1 - y||_2  subject to  b0, b1 >= 0`` in
    closed form. The problem is a convex quadratic over a quadrant, so its
    KKT conditions leave four cases:

    * the unconstrained least-squares line, when both coefficients are >= 0;
    * otherwise the optimum lies on a boundary ray: ``b1 = 0`` (the fit
      through the origin) or ``b0 = 0`` (the constant fit), whichever removes
      more of ``||y||^2``;
    * ``(0, 0)``, when neither ray removes anything.

    The sums that do not depend on ``y`` are computed once, so one instance
    serves every target of a search. The slope uses the centred form
    ``sum((k - mean k) * y) / sum((k - mean k)^2)``; raw normal equations
    lose precision when ``k`` reaches 10^5-10^6.

    Raises
    ------
    FittingError
        On a degenerate design (fewer than two distinct ``k``), where the
        slope is undetermined; use :func:`nnls` there.
    """

    def __init__(self, k: np.ndarray):
        k = np.asarray(k, dtype=float).ravel()
        if k.size == 0 or not np.isfinite(k).all():
            raise FittingError("k must be non-empty and finite")
        self._k = k
        self._kbar = float(k.mean())
        self._dk = k - self._kbar
        self._sxx = float(self._dk @ self._dk)
        self._skk = float(k @ k)
        if not self._sxx > 0:
            raise FittingError("degenerate design: all k are equal")

    def solve(self, y: np.ndarray):
        """``(b0, b1)`` for each row of *y*, shape ``(..., m)``.

        A 1-D *y* gets plain floats, from the same operations in the same
        order as a row of the array path.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            return self._solve_row(y)
        ybar = y.sum(axis=-1) / self._k.size
        b0 = (y @ self._dk) / self._sxx
        b1 = ybar - b0 * self._kbar
        interior = (b0 >= 0.0) & (b1 >= 0.0)
        if interior.all():
            return b0, b1
        # Each ray's clamped optimum removes (its projection)^2 from ||y||^2:
        # (sum k*y)^2 / sum k^2 through the origin, m * mean(y)^2 for a constant.
        ky = y @ self._k
        slope = np.maximum(ky, 0.0) / self._skk
        level = np.maximum(ybar, 0.0)
        through_origin = slope * ky > self._k.size * level * level
        b0 = np.where(interior, b0, np.where(through_origin, slope, 0.0))
        b1 = np.where(interior, b1, np.where(through_origin, 0.0, level))
        return b0, b1

    def _solve_row(self, y: np.ndarray) -> Tuple[float, float]:
        m = self._k.size
        ybar = float(y.sum()) / m
        b0 = float(y @ self._dk) / self._sxx
        b1 = ybar - b0 * self._kbar
        if b0 >= 0.0 and b1 >= 0.0:
            return b0, b1
        ky = float(y @ self._k)
        slope = max(ky, 0.0) / self._skk
        level = max(ybar, 0.0)
        if slope * ky > m * level * level:
            return slope, 0.0
        return 0.0, level
