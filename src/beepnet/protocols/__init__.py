"""Building-block protocols on top of the round engine."""

from .broadcast import (
    LocalBroadcastInput,
    LocalBroadcastNode,
    LocalBroadcastResult,
    broadcast_family,
    local_broadcast_schedule_length,
    run_local_broadcast,
)
from .gathering import (
    AggregationSpec,
    ClusterLayout,
    GatheringResult,
    LayoutError,
    gathering_schedule_length,
    generate_cluster_layout,
    load_layout,
    run_cluster_gathering,
    run_leader_broadcast,
    save_layout,
    sum_aggregation,
    validate_layout,
)
from .neighborhood import (
    LearningResult,
    LearnNeighborhoodNode,
    learning_family,
    learning_schedule_length,
    run_learning_neighborhood,
)

__all__ = [
    "LocalBroadcastInput",
    "LocalBroadcastNode",
    "LocalBroadcastResult",
    "broadcast_family",
    "local_broadcast_schedule_length",
    "run_local_broadcast",
    "LearningResult",
    "LearnNeighborhoodNode",
    "learning_family",
    "learning_schedule_length",
    "run_learning_neighborhood",
    "AggregationSpec",
    "ClusterLayout",
    "GatheringResult",
    "LayoutError",
    "gathering_schedule_length",
    "generate_cluster_layout",
    "load_layout",
    "run_cluster_gathering",
    "run_leader_broadcast",
    "save_layout",
    "sum_aggregation",
    "validate_layout",
]
