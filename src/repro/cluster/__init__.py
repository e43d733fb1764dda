"""``repro.cluster`` — a replicated serving fleet behind one router.

N supervised :class:`~repro.serving.InferenceEngine` replicas serving
from one shared prefix cache, behind a :class:`Router` that places
each request on the least-queued replica and provides fleet-level
admission control, transparent bit-identical failover, and rolling
drain → swap → readmit operations.  See ``docs/CLUSTER.md``.
"""

from .admission import ClusterAdmissionController
from .router import (ClusterConfig, ClusterRequest, NoReplicaAvailableError,
                     Router)

__all__ = [
    "ClusterAdmissionController",
    "ClusterConfig",
    "ClusterRequest",
    "NoReplicaAvailableError",
    "Router",
]
