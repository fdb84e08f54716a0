"""Parameter-server substrate: blocks, partitioning and load metrics (§5.3)."""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".blocks": ("ParameterBlock", "ServerLoad", "Assignment", "blocks_from_sizes"),
        ".partition": (
            "mxnet_partition", "paa_partition", "partition", "MXNET_DEFAULT_THRESHOLD",
            "PAA_TINY_FRACTION",
        ),
        ".microsim": (
            "MicroStepConfig", "MicroStepResult", "simulate_step", "closed_form_step_time",
        ),
    },
)
