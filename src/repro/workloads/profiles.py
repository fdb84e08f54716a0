"""The Table-1 model zoo with ground-truth training dynamics.

The paper evaluates nine representative deep-learning jobs (Table 1). We
cannot run MXNet on GPUs here, so each model is described by a
:class:`ModelProfile` carrying

* the *public* metadata reported in Table 1 (parameter count, network type,
  application domain, dataset, dataset size), and
* *ground-truth* dynamics used only by the simulation substrate: a smooth
  training-loss curve and the per-step timing constants of the paper's Eqn 2.

The scheduler under test never reads the ground truth directly -- it only
sees noisy observations produced from it, exactly like the real Optimus only
sees losses and measured speeds.

Loss-curve ground truth
-----------------------
The true normalised loss as a function of the epoch ``E`` is

    l(E) = plateau + exp_weight * exp(-exp_rate * E)
                   + tail_weight / (tail_scale * E + 1)

with ``plateau + exp_weight + tail_weight = 1`` so that ``l(0) = 1``. The
exponential term models the fast initial descent visible in Fig. 5; the
hyperbolic term models the SGD ``O(1/k)`` tail that the paper's fitting
function (Eqn 1) captures. Using a *mixture* as the generator keeps the
estimator honest: the paper's model is a good but not perfect fit, which is
what produces the early prediction errors of Fig. 6.

``tail_scale`` is calibrated at construction time (:func:`solve_tail_scale`)
so that a job with the reference convergence threshold stops after the
profile's ``target_epochs``.

Step-time ground truth
----------------------
The duration of one training step with ``p`` parameter servers and ``w``
workers follows the paper's Eqn 2; see :mod:`repro.workloads.speed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rand import spawn_rng
from repro.common.units import BYTES_PER_PARAM, MILLION

#: Reference convergence threshold used to calibrate ``tail_scale``:
#: normalised training-loss decrease per epoch below which training stops.
REFERENCE_THRESHOLD = 0.002

#: Consecutive epochs the decrease must stay below the threshold (§2.1).
DEFAULT_PATIENCE = 2

#: Hard cap when scanning for the convergence epoch.
MAX_EPOCHS = 5000

NETWORK_CNN = "CNN"
NETWORK_RNN = "RNN"


@dataclass(frozen=True)
class LossCurveTruth:
    """Parameters of the smooth ground-truth loss curve (normalised units)."""

    plateau: float
    exp_weight: float
    exp_rate: float
    tail_scale: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.plateau < 1.0:
            raise ConfigurationError("plateau must be in [0, 1)")
        if not 0.0 <= self.exp_weight <= 1.0 - self.plateau:
            raise ConfigurationError("exp_weight must be in [0, 1 - plateau]")
        if self.exp_rate <= 0 or self.tail_scale <= 0:
            raise ConfigurationError("exp_rate and tail_scale must be positive")

    @property
    def tail_weight(self) -> float:
        return 1.0 - self.plateau - self.exp_weight

    def loss(self, epoch: float) -> float:
        """Smooth normalised loss at (possibly fractional) *epoch*."""
        if epoch < 0:
            raise ConfigurationError("epoch must be non-negative")
        return (
            self.plateau
            + self.exp_weight * math.exp(-self.exp_rate * epoch)
            + self.tail_weight / (self.tail_scale * epoch + 1.0)
        )

    def losses(self, epochs: np.ndarray) -> np.ndarray:
        """:meth:`loss` at every (non-negative) epoch of an array."""
        epochs = np.asarray(epochs, dtype=float)
        return (
            self.plateau
            + self.exp_weight * np.exp(-self.exp_rate * epochs)
            + self.tail_weight / (self.tail_scale * epochs + 1.0)
        )

    def epoch_decrease(self, epoch: int) -> float:
        """Loss decrease over epoch number *epoch* (from ``epoch-1`` to ``epoch``)."""
        if epoch < 1:
            raise ConfigurationError("epoch numbers start at 1")
        return self.loss(epoch - 1) - self.loss(epoch)

    def epochs_to_converge(
        self, threshold: float, patience: int = DEFAULT_PATIENCE
    ) -> int:
        """First epoch after which the per-epoch decrease has stayed below
        *threshold* for *patience* consecutive epochs (§2.1's criterion)."""
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        if patience < 1:
            raise ConfigurationError("patience must be at least 1")
        consecutive = 0
        previous = self.loss(0)
        for epoch in range(1, MAX_EPOCHS + 1):
            current = self.loss(epoch)
            if previous - current < threshold:
                consecutive += 1
                if consecutive >= patience:
                    return epoch
            else:
                consecutive = 0
            previous = current
        return MAX_EPOCHS


def solve_tail_scale(
    plateau: float,
    exp_weight: float,
    exp_rate: float,
    target_epochs: int,
    threshold: float = REFERENCE_THRESHOLD,
    patience: int = DEFAULT_PATIENCE,
) -> float:
    """Find ``tail_scale`` so convergence at *threshold* lands on *target_epochs*.

    The convergence epoch is increasing in ``tail_scale`` on ``(0, a_max]``
    and decreasing afterwards, where ``a_max = 4 * threshold / tail_weight``
    maximises it; we bisect on the increasing branch. If the target exceeds
    the achievable maximum (``tail_weight / (4 * threshold)`` epochs), the
    maximiser is returned and the profile simply converges as late as the
    curve family allows.
    """
    tail_weight = 1.0 - plateau - exp_weight
    if tail_weight <= 0:
        raise ConfigurationError("plateau + exp_weight must be < 1")
    if target_epochs < 1:
        raise ConfigurationError("target_epochs must be >= 1")

    def epochs_at(scale: float) -> int:
        curve = LossCurveTruth(plateau, exp_weight, exp_rate, scale)
        return curve.epochs_to_converge(threshold, patience)

    peak_scale = 4.0 * threshold / tail_weight
    if epochs_at(peak_scale) <= target_epochs:
        return peak_scale
    lo, hi = 1e-8, peak_scale
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if epochs_at(mid) < target_epochs:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class ModelProfile:
    """Ground truth and metadata for one Table-1 training job type.

    Timing constants (all in seconds, sizes in bytes) parameterise the
    paper's Eqn 2:

    * ``forward_time_per_example`` -- per-example forward-propagation time on
      one standard container (the ``T_forward`` of Eqn 2);
    * ``backward_time`` -- fixed backward-propagation time ``T_back``;
    * ``update_time`` -- ``T_update``: time for one parameter server holding
      the *whole* model to apply one gradient set;
    * ``overhead_worker`` / ``overhead_ps`` -- the ``δ`` and ``δ'``
      per-task connection-handling coefficients.
    """

    name: str
    params_million: float
    network_type: str
    domain: str
    dataset: str
    dataset_examples: int
    per_worker_batch: int
    global_batch: int
    forward_time_per_example: float
    backward_time: float
    update_time: float
    overhead_worker: float
    overhead_ps: float
    gpu_speedup: float
    target_epochs: int
    loss: LossCurveTruth
    num_param_blocks: int
    async_concurrency: float = 0.5
    staleness_factor: float = 0.02
    #: Per-extra-worker synchronisation cost in seconds (barrier straggling,
    #: gradient aggregation): the "higher synchronization cost" of §3.2's
    #: Fig-9 discussion that makes sync speed decline at large w.
    sync_coordination: float = 0.06
    #: Per-extra-worker contention cost for asynchronous training (lock and
    #: queue contention on the parameter servers).
    async_coordination: float = 0.035
    #: Device under-utilisation floor: per-step compute time stops shrinking
    #: once the per-worker mini-batch drops below this fraction of the
    #: configured per-worker batch ("smaller mini-batch size ... may cause
    #: CPU/GPU under-utilization", §3.2).
    min_batch_fraction: float = 0.75

    def __post_init__(self) -> None:
        if self.network_type not in (NETWORK_CNN, NETWORK_RNN):
            raise ConfigurationError(f"unknown network type {self.network_type!r}")
        for attr in (
            "params_million",
            "forward_time_per_example",
            "backward_time",
            "update_time",
            "gpu_speedup",
        ):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive")
        if self.dataset_examples <= 0 or self.num_param_blocks <= 0:
            raise ConfigurationError("dataset_examples/num_param_blocks must be positive")
        if self.per_worker_batch <= 0 or self.global_batch <= 0:
            raise ConfigurationError("batch sizes must be positive")
        if not 0 < self.async_concurrency <= 1:
            raise ConfigurationError("async_concurrency must be in (0, 1]")

    # -- derived quantities ---------------------------------------------------
    @property
    def model_size_bytes(self) -> float:
        """Total size of the model parameters (= size of one gradient set)."""
        return self.params_million * MILLION * BYTES_PER_PARAM

    def steps_per_epoch(self, mode: str, dataset_scale: float = 1.0) -> float:
        """Steps needed to process the (possibly downscaled) dataset once.

        For synchronous training each global step consumes ``global_batch``
        examples; for asynchronous training each (per-worker) step consumes
        ``per_worker_batch`` examples, and we count steps summed over
        workers, matching the speed definitions of §3.2.
        """
        examples = self.dataset_examples * float(dataset_scale)
        if examples <= 0:
            raise ConfigurationError("dataset_scale must be positive")
        per_step = self.global_batch if mode == "sync" else self.per_worker_batch
        return max(examples / per_step, 1.0)

    def single_gpu_step_time(self) -> float:
        """Step time for 1-device training (used for the Fig. 2 bench)."""
        compute = (
            self.per_worker_batch * self.forward_time_per_example + self.backward_time
        )
        return compute / self.gpu_speedup

    def single_gpu_training_time(self, threshold: float = REFERENCE_THRESHOLD) -> float:
        """Wall-clock seconds to convergence on one GPU (Fig. 2)."""
        epochs = self.loss.epochs_to_converge(threshold)
        steps = epochs * self.dataset_examples / self.per_worker_batch
        return steps * self.single_gpu_step_time()

    # -- parameter blocks -------------------------------------------------------
    def parameter_blocks(self) -> List[float]:
        """Deterministic per-layer parameter-block sizes (in parameters).

        Real DNNs have many small blocks (biases, batch-norm scales), a bulk
        of medium convolution/recurrent blocks and a few very large blocks
        (fully-connected layers or embeddings). We generate a deterministic
        pseudo-realistic mixture seeded by the model name, normalised so the
        block sizes sum to the model's exact parameter count. The largest
        block of big models exceeds MXNet's default slicing threshold of
        1e6 parameters, which is what triggers the §5.3 imbalance.
        """
        import zlib

        rng = spawn_rng(zlib.crc32(self.name.encode("utf8")), "param-blocks")
        n = self.num_param_blocks
        total = self.params_million * MILLION

        # A realistic layer mix: one large "head" block (fully-connected
        # classifier or embedding, ~8% of parameters, e.g. ResNet-50's
        # 2048x1000 fc = 2.05M of 25M), a bulk of weight blocks holding
        # ~91% of parameters, and roughly two tiny bias/batch-norm blocks
        # per weight block holding the remaining ~1%.
        n_head = 1
        n_small = max(1, (2 * n) // 3)
        n_medium = max(1, n - n_head - n_small)

        head = np.array([0.09 * total])
        medium = rng.lognormal(mean=0.0, sigma=0.7, size=n_medium)
        small = rng.lognormal(mean=0.0, sigma=0.5, size=n_small)

        blocks = np.concatenate(
            [
                head,
                medium / medium.sum() * 0.90 * total,
                small / small.sum() * 0.010 * total,
            ]
        )
        blocks = np.maximum(blocks, 1.0)
        blocks *= total / blocks.sum()
        return [float(b) for b in blocks]

    def with_overrides(self, **kwargs) -> "ModelProfile":
        """A copy of this profile with some fields replaced."""
        return replace(self, **kwargs)


def _make_profile(
    name: str,
    params_million: float,
    network_type: str,
    domain: str,
    dataset: str,
    dataset_examples: int,
    per_worker_batch: int,
    global_batch: int,
    forward_time_per_example: float,
    backward_time: float,
    target_epochs: int,
    plateau: float,
    exp_weight: float,
    exp_rate: float,
    num_param_blocks: int,
    gpu_speedup: float,
    update_time: Optional[float] = None,
) -> ModelProfile:
    tail_scale = solve_tail_scale(plateau, exp_weight, exp_rate, target_epochs)
    loss = LossCurveTruth(plateau, exp_weight, exp_rate, tail_scale)
    if update_time is None:
        # Updating parameters is a linear pass over the model: ~2 GB/s.
        update_time = params_million * MILLION * BYTES_PER_PARAM / 2e9
    return ModelProfile(
        name=name,
        params_million=params_million,
        network_type=network_type,
        domain=domain,
        dataset=dataset,
        dataset_examples=dataset_examples,
        per_worker_batch=per_worker_batch,
        global_batch=global_batch,
        forward_time_per_example=forward_time_per_example,
        backward_time=backward_time,
        update_time=update_time,
        overhead_worker=0.008,
        overhead_ps=0.01,
        gpu_speedup=gpu_speedup,
        target_epochs=target_epochs,
        loss=loss,
        num_param_blocks=num_param_blocks,
    )


def _build_zoo() -> Dict[str, ModelProfile]:
    """The nine Table-1 jobs, with dynamics calibrated to the paper's figures.

    Forward/backward times are for one 5-CPU/10-GB container (the paper's
    standard task shape, §2.3); ``gpu_speedup`` scales them to one TITAN X
    for the Fig. 2 single-GPU training-time bench.
    """
    profiles = [
        _make_profile(
            "resnext-110", 1.7, NETWORK_CNN, "image classification", "CIFAR10",
            60_000, per_worker_batch=128, global_batch=512,
            forward_time_per_example=0.010, backward_time=0.45,
            target_epochs=50, plateau=0.08, exp_weight=0.55, exp_rate=0.12,
            num_param_blocks=221, gpu_speedup=4.0,
        ),
        _make_profile(
            "resnet-50", 25.0, NETWORK_CNN, "image classification",
            "ILSVRC2012-ImageNet", 1_313_788, per_worker_batch=32,
            global_batch=256, forward_time_per_example=0.055,
            backward_time=0.80, target_epochs=55, plateau=0.10,
            exp_weight=0.45, exp_rate=0.15, num_param_blocks=157,
            gpu_speedup=8.0,
        ),
        _make_profile(
            "inception-bn", 11.3, NETWORK_CNN, "image classification", "Caltech",
            30_607, per_worker_batch=64, global_batch=256,
            forward_time_per_example=0.030, backward_time=0.60,
            target_epochs=50, plateau=0.12, exp_weight=0.50, exp_rate=0.20,
            num_param_blocks=188, gpu_speedup=8.0,
        ),
        _make_profile(
            "kaggle-ndsb", 1.4, NETWORK_CNN, "image classification",
            "Kaggle-NDSB1", 37_920, per_worker_batch=64, global_batch=256,
            forward_time_per_example=0.008, backward_time=0.25,
            target_epochs=45, plateau=0.15, exp_weight=0.45, exp_rate=0.25,
            num_param_blocks=64, gpu_speedup=15.0,
        ),
        _make_profile(
            "cnn-rand", 6.0, NETWORK_CNN, "sentence classification", "MR",
            10_662, per_worker_batch=50, global_batch=200,
            forward_time_per_example=0.003, backward_time=0.08,
            target_epochs=12, plateau=0.20, exp_weight=0.50, exp_rate=0.60,
            num_param_blocks=12, gpu_speedup=10.0,
        ),
        _make_profile(
            "dssm", 1.5, NETWORK_RNN, "word representation", "text8",
            214_288, per_worker_batch=256, global_batch=1024,
            forward_time_per_example=0.002, backward_time=0.10,
            target_epochs=20, plateau=0.18, exp_weight=0.45, exp_rate=0.40,
            num_param_blocks=10, gpu_speedup=8.0,
        ),
        _make_profile(
            "rnn-lstm", 4.7, NETWORK_RNN, "language modeling", "PTB",
            1_002_000, per_worker_batch=128, global_batch=512,
            forward_time_per_example=0.004, backward_time=0.30,
            target_epochs=40, plateau=0.25, exp_weight=0.35, exp_rate=0.20,
            num_param_blocks=14, gpu_speedup=12.0,
        ),
        _make_profile(
            "seq2seq", 9.1, NETWORK_RNN, "machine translation", "WMT17",
            1_000_000, per_worker_batch=64, global_batch=256,
            forward_time_per_example=0.012, backward_time=0.50,
            target_epochs=50, plateau=0.07, exp_weight=0.40, exp_rate=0.18,
            num_param_blocks=28, gpu_speedup=14.0,
        ),
        _make_profile(
            "deepspeech2", 38.0, NETWORK_RNN, "speech recognition",
            "LibriSpeech", 45_000, per_worker_batch=16, global_batch=128,
            forward_time_per_example=0.080, backward_time=1.20,
            target_epochs=60, plateau=0.10, exp_weight=0.40, exp_rate=0.15,
            num_param_blocks=40, gpu_speedup=20.0,
        ),
    ]
    return {profile.name: profile for profile in profiles}


#: The nine Table-1 jobs keyed by model name.
MODEL_ZOO: Dict[str, ModelProfile] = _build_zoo()


def get_profile(name: str) -> ModelProfile:
    """Look up a model profile by name (raises on unknown names)."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_ZOO))
        raise ConfigurationError(f"unknown model {name!r}; known models: {known}") from None


def zoo_names() -> Tuple[str, ...]:
    """All model names in a stable order."""
    return tuple(MODEL_ZOO)
