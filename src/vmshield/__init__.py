"""Weighted VM placement, migration balancing, and SYN-flood detection.

The package models a small datacenter as three-dimensional resource
vectors (cpu, mem, bw in percent of capacity).  Placement and
migration decisions score servers by a priority-weighted utilization
sum whose weights come from the principal eigenvector of a pairwise
comparison matrix; per-VM SYN/FIN|RST counts feed a cumulative-sum
statistic that flags flooding guests.  A deterministic tick simulator
binds the pieces into reproducible end-to-end runs.
"""

from .ahp import (
    HotspotProfile,
    consistency_ratio,
    derive_weights,
    matrix_from_profile,
    principal_eigenvector,
    validate_pairwise_matrix,
)
from .detector import (
    Alarm,
    CusumDetector,
    DetectionReport,
    StatLog,
    StatRow,
    TrafficInterval,
    bin_events,
    discrepancy,
    fill_gaps,
    process_trace,
    stat_rows_to_csv,
)
from .errors import (
    EmptyServer,
    InconsistentMatrix,
    NonConvergence,
    ParseError,
    UnsortedTrace,
    ValidationError,
    VmShieldError,
)
from .resources import (
    UNIFORM_WEIGHTS,
    ZERO,
    ResourceVector,
    WeightVector,
    rv_strictly_less,
    weighted_score,
)
from .scheduler import (
    HOTSPOT_CLASSES,
    MigrationPlan,
    PlacementDecision,
    ServerState,
    VmRecord,
    avg_vm_usage,
    consolidate,
    detect_overload,
    estimate_demand_first_start,
    estimate_demand_restart,
    filter_candidates,
    place,
    plan_migration,
    select_victim,
    wake_server,
)
from .simulator import Scenario, SimReport, emit_reports, load_scenario, run
from .traffic import (
    PacketEvent,
    Trace,
    TrafficSpec,
    events_to_csv,
    gen_attack,
    gen_attack_binned,
    gen_normal,
    gen_normal_binned,
    generate,
    merge_traces,
    read_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Alarm",
    "CusumDetector",
    "DetectionReport",
    "EmptyServer",
    "HOTSPOT_CLASSES",
    "HotspotProfile",
    "InconsistentMatrix",
    "MigrationPlan",
    "NonConvergence",
    "PacketEvent",
    "ParseError",
    "PlacementDecision",
    "ResourceVector",
    "Scenario",
    "ServerState",
    "SimReport",
    "StatLog",
    "StatRow",
    "Trace",
    "TrafficInterval",
    "TrafficSpec",
    "UNIFORM_WEIGHTS",
    "UnsortedTrace",
    "ValidationError",
    "VmRecord",
    "VmShieldError",
    "WeightVector",
    "ZERO",
    "avg_vm_usage",
    "bin_events",
    "consistency_ratio",
    "consolidate",
    "derive_weights",
    "detect_overload",
    "discrepancy",
    "emit_reports",
    "estimate_demand_first_start",
    "estimate_demand_restart",
    "events_to_csv",
    "fill_gaps",
    "filter_candidates",
    "gen_attack",
    "gen_attack_binned",
    "gen_normal",
    "gen_normal_binned",
    "generate",
    "load_scenario",
    "matrix_from_profile",
    "merge_traces",
    "place",
    "plan_migration",
    "principal_eigenvector",
    "process_trace",
    "read_trace_csv",
    "run",
    "rv_strictly_less",
    "select_victim",
    "stat_rows_to_csv",
    "validate_pairwise_matrix",
    "wake_server",
    "weighted_score",
]
