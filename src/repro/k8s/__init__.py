"""Miniature container-orchestration substrate (§5.4-5.5).

An etcd-like kv store, a validating API server over nodes/pods, and a job
controller implementing checkpoint-based elastic scaling -- the plumbing the
real Optimus gets from Kubernetes + etcd.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".kvstore": ("KVStore", "KVEvent", "Lease"),
        ".api": ("APIServer", "NODE_PREFIX", "POD_PREFIX", "HEARTBEAT_PREFIX"),
        ".objects": (
            "NodeInfo", "PodSpec", "pod_name", "PHASE_PENDING", "PHASE_RUNNING", "PHASE_SUCCEEDED",
            "PHASE_FAILED",
        ),
        ".controller": (
            "JobController", "JobIntent", "JobTarget", "ReconcileReport", "CHECKPOINT_PREFIX",
            "INTENT_PREFIX", "MANAGED_PREFIX", "INTENT_PHASES", "INTENT_CHECKPOINTED",
            "INTENT_TORN_DOWN", "INTENT_LAUNCHING", "INTENT_DONE",
        ),
        ".election": (
            "LeaderElection", "LeaderRecord", "FencedKVStore", "ELECTION_PREFIX", "LEADER_KEY",
            "EPOCH_KEY",
        ),
    },
)
