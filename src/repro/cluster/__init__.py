"""Cluster substrate: resource vectors, servers and cluster bookkeeping.

This package knows nothing about deep learning; it provides the capacity
accounting that the schedulers and the simulator are built on.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".cluster": ("Cluster",),
        ".server": ("Server", "TaskKey", "ROLE_PS", "ROLE_WORKER"),
        ".resources": ("ResourceVector", "cpu_mem", "CPU", "MEMORY", "GPU", "BANDWIDTH", "ZERO"),
    },
)
