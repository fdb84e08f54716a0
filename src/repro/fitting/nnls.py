"""Non-negative least squares (NNLS).

§3.1 and §3.2 of the paper fit both the loss-curve model and the speed
functions with an NNLS solver. We implement the classic Lawson–Hanson
active-set algorithm ourselves (the library must not silently depend on
``scipy.optimize.nnls`` internals) but verify it against SciPy in the test
suite. The §3.1 loss-curve fit only ever solves the 2-column design
``[k, 1]``; :class:`LineNNLS` solves that one exactly, by KKT case analysis,
for one target or many at once. A refit whose solution support is known
from the previous fit passes it as a ``passive`` hint: one least-squares
solve on those columns, accepted only when it passes Lawson–Hanson's own
termination test.

Given ``A`` (m x n) and ``b`` (m,), solve::

    minimize ||A x - b||_2   subject to   x >= 0
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.common.errors import FittingError


def dual_tolerance(A: np.ndarray, b: np.ndarray) -> float:
    """The default optimality tolerance of :func:`nnls` on the dual vector.

    :func:`nnls` stops once no inactive coordinate has a dual component
    ``w_j = (A^T (b - A x))_j`` above this value, which scales with the
    problem size and the magnitudes of ``A`` and ``b``.
    """
    m, n = np.shape(A)
    return 10 * max(m, n) * np.finfo(float).eps * max(
        float(np.abs(A).max(initial=0.0)), 1.0
    ) * max(float(np.abs(b).max(initial=0.0)), 1.0)


def nnls(
    A: np.ndarray,
    b: np.ndarray,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
    passive: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Lawson–Hanson non-negative least squares.

    Parameters
    ----------
    A:
        Design matrix of shape ``(m, n)``.
    b:
        Target vector of shape ``(m,)``.
    max_iter:
        Iteration cap; defaults to ``max(3 * n, 30)``.
    tol:
        Optimality tolerance on the dual vector; defaults to
        :func:`dual_tolerance`, a scale-aware value derived from machine
        epsilon.
    passive:
        Optional boolean mask of length ``n`` guessing the solution's
        support (for a refit, ``x > 0`` of the previous fit). The columns
        it selects are solved by least squares once; the result is returned
        when every coefficient is positive and no dual component off the
        mask exceeds ``tol`` -- the test that ends Lawson–Hanson. Otherwise
        the cold active-set iteration runs. Lawson–Hanson's answer is the
        least-squares solve on its final passive set, so an accepted hint
        returns the same bits whenever that set is unique.

    Returns
    -------
    (x, rnorm):
        The non-negative solution and the residual 2-norm ``||A x - b||``.

    Raises
    ------
    FittingError
        On malformed inputs or failure to converge within ``max_iter``.
    """
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
    if passive is not None:
        hint = np.asarray(passive, dtype=bool)
        if hint.shape != (n,):
            raise FittingError(f"passive must have shape ({n},), got {hint.shape}")
        if hint.any():
            cols = np.flatnonzero(hint)
            z, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if np.all(z > 0):
                x = np.zeros(n)
                x[cols] = z
                w = A.T @ (b - A @ x)
                if not np.any(w[~hint] > tol):
                    return x, float(np.linalg.norm(A @ x - b))

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
