"""Online resource→speed estimation for one running job (§3.2).

A :class:`SpeedEstimator` owns a job's ``(p, w, speed)`` sample set. Before
the job starts, :meth:`bootstrap` runs the paper's short profiling runs on a
small data sample (a caller-provided ``measure`` callable stands in for the
10-second pre-runs); during training every interval's observed speed is fed
back through :meth:`add_sample`, continuously calibrating the fit. The
samples live in a :class:`~repro.fitting.speed_model.SpeedSamples` window,
which keeps the fit's normal equations as running sums. A sample triggers
a refit only when it tells the fit something new (see
:data:`SPEED_REFIT_BAND`); each refit hands the previous fit's support
(``θ > 0``) to the NNLS solver as a warm start.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import FittingError
from repro.fitting.speed_model import (
    MIN_SAMPLES,
    SpeedModelFit,
    SpeedSamples,
    fit_speed_model,
    sample_configurations,
)
from repro.workloads.speed import MODE_SYNC, validate_mode

#: A profiling callable: (num_ps, num_workers) -> measured steps/second.
MeasureFn = Callable[[int, int], float]

#: Every sample joins the window, but one marks the fit stale only when
#: its ``(p, w)`` is new to the fit, when its speed lies further than this
#: (relative) from the fit's prediction ...
SPEED_REFIT_BAND = 0.05
#: ... or when this many samples have been held back since the last fit.
SPEED_REFIT_MAX = 10


class SpeedEstimator:
    """Fits and serves the Eqn-3/Eqn-4 speed function of one job.

    Parameters
    ----------
    mode:
        ``"sync"`` or ``"async"``.
    global_batch:
        The job's fixed global batch size (required for sync).
    max_samples:
        Sample-set cap; the oldest samples are dropped first, so late
        (more representative) measurements dominate the fit over time.
    """

    def __init__(
        self,
        mode: str,
        global_batch: Optional[float] = None,
        max_samples: int = 200,
    ):
        validate_mode(mode)
        if mode == MODE_SYNC and (global_batch is None or global_batch <= 0):
            raise FittingError("synchronous estimation needs a positive global_batch")
        self.mode = mode
        self.global_batch = float(global_batch) if global_batch else 0.0
        self.max_samples = int(max_samples)
        self._samples = SpeedSamples(mode, global_batch, self.max_samples)
        self._fit: Optional[SpeedModelFit] = None
        self._dirty = False
        #: The configurations the current fit saw.
        self._fit_configs: Set[Tuple[int, int]] = set()
        #: Samples added since the last fit without marking it stale.
        self._held_back = 0

    # -- sample management -----------------------------------------------------
    def add_sample(self, p: int, w: int, speed: float) -> None:
        """Record one measured speed under configuration ``(p, w)``.

        The sample always joins the window; it marks the fit stale only
        when :meth:`_moves_fit` says it would change the fit. A
        configuration below 1 or a speed that is not positive and finite
        raises :class:`FittingError` and leaves the window as it was.
        """
        self._samples.add(p, w, speed)
        p, w, speed = int(p), int(w), float(speed)
        if not self._dirty:
            self._dirty = self._moves_fit(p, w, speed)

    def _moves_fit(self, p: int, w: int, speed: float) -> bool:
        """Should a clean fit be refreshed for this new sample?"""
        if self._fit is None or (p, w) not in self._fit_configs:
            return True
        try:
            predicted = self._fit.predict(p, w)
        except FittingError:
            return True
        if abs(predicted - speed) > SPEED_REFIT_BAND * speed:
            return True
        self._held_back += 1
        return self._held_back >= SPEED_REFIT_MAX

    def bootstrap(
        self,
        measure: MeasureFn,
        max_ps: int = 16,
        max_workers: int = 16,
        num_samples: int = 5,
        seed=None,
    ) -> List[Tuple[int, int]]:
        """Run the initial profiling pass (§3.2 / §6.1: 5 sample runs).

        Returns the configurations that were profiled.
        """
        configs = sample_configurations(max_ps, max_workers, num_samples, seed=seed)
        for p, w in configs:
            self.add_sample(p, w, measure(p, w))
        return configs

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[Tuple[int, int, float]]:
        return tuple(self._samples)

    # -- fitting / prediction -----------------------------------------------------
    @property
    def can_fit(self) -> bool:
        return len(self._samples) >= MIN_SAMPLES[self.mode]

    def fit(self, force: bool = False) -> SpeedModelFit:
        if not self.can_fit:
            raise FittingError(
                f"need {MIN_SAMPLES[self.mode]} samples before fitting, "
                f"have {len(self._samples)}"
            )
        if force or self._dirty or self._fit is None:
            # The previous fit's support usually survives a new sample, so
            # it seeds the NNLS solve (same answer, fewer solves).
            previous = self._fit
            self._fit = fit_speed_model(
                self._samples,
                self.mode,
                global_batch=self.global_batch if self.mode == MODE_SYNC else None,
                passive=None if previous is None else np.array(previous.thetas) > 0,
            )
            self._dirty = False
            self._fit_configs = set(self._samples.configs)
            self._held_back = 0
        return self._fit

    def predict(self, p: int, w: int) -> float:
        """Predicted training speed (steps/second) for ``(p, w)``."""
        return self.fit().predict(p, w)

    def speed_function(self) -> Callable[[int, int], float]:
        """A frozen ``f(p, w)`` over the *current* fit: its bound ``predict``.

        The allocator evaluates the speed function many times inside one
        scheduling interval; freezing avoids refit churn mid-decision.
        """
        return self.fit().predict
