"""Reproduction of *Optimus: An Efficient Dynamic Resource Scheduler for
Deep Learning Clusters* (Peng et al., EuroSys 2018).

Quickstart
----------
>>> from repro import Cluster, cpu_mem, make_scheduler, simulate, SimConfig
>>> from repro import uniform_arrivals
>>> cluster = Cluster.homogeneous(13, cpu_mem(16, 80))
>>> jobs = uniform_arrivals(num_jobs=9, seed=1)
>>> result = simulate(cluster, make_scheduler("optimus"), jobs, SimConfig(seed=1))
>>> result.all_finished
True

Package map
-----------
* :mod:`repro.core` -- the paper's contribution: convergence/speed
  estimators, marginal-gain allocation, task placement.
* :mod:`repro.schedulers` -- Optimus, its baselines and the ablation
  hybrids, each built by ``make_scheduler(name)`` from an allocation and a
  placement policy table.
* :mod:`repro.sim` -- the discrete-time cluster simulator and experiment
  harness.
* :mod:`repro.workloads` -- Table-1 model zoo, loss/speed ground truth, job
  specs and arrival processes.
* :mod:`repro.fitting` -- NNLS and the Eqn-1/3/4 fitters.
* :mod:`repro.ps` -- parameter-block partitioning (PAA vs. MXNet default).
* :mod:`repro.cluster`, :mod:`repro.datastore`, :mod:`repro.k8s` -- the
  cluster, HDFS-like and Kubernetes-like substrates.
* :mod:`repro.obs` -- structured observability: event tracing, metrics
  registry and per-phase profiling hooks.
* :mod:`repro.faults` -- seeded fault injection (node/task crashes, flaky
  KV substrate, checkpoint loss) and the matching recovery machinery.
"""

from repro.common.exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".cluster": ("Cluster", "Server", "ResourceVector", "cpu_mem"),
        ".core": (
            "ConvergenceEstimator", "SpeedEstimator", "AllocationRequest", "TaskAllocation",
            "allocate", "PlacementRequest", "place_jobs",
        ),
        ".fitting": ("nnls", "fit_loss_curve", "fit_speed_model"),
        ".ps": ("paa_partition", "mxnet_partition"),
        ".obs": ("RecordingTracer", "JsonlTracer", "MetricsRegistry"),
        ".faults": (
            "FaultConfig", "FaultPlan", "NodeCrash", "TaskCrash", "FaultInjector", "FlakyKVStore",
            "RetryingKVStore",
        ),
        ".schedulers": ("Scheduler", "JobView", "SchedulingDecision", "make_scheduler"),
        ".sim": (
            "SimConfig", "Simulation", "simulate", "SimulationResult", "StragglerConfig",
            "compare_schedulers", "normalized",
        ),
        ".workloads": (
            "MODEL_ZOO", "ModelProfile", "get_profile", "JobSpec", "make_job", "LossEmitter",
            "StepTimeModel", "uniform_arrivals", "poisson_arrivals", "google_trace_arrivals",
        ),
    },
)
__all__.append("__version__")
