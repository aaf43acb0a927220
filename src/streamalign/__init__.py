"""streamalign: incremental prefix-alignments of event streams.

A conformance-checking library that keeps, per running case, the search
state of an A* over the synchronous product of the case's trace and a
reference workflow net.  Each new event extends the product net in place and
the search resumes from the cached open and closed sets, so every reported
prefix-alignment is optimal without recomputing from scratch.  A
window-reverting baseline is included for comparison, together with an exact
rational LP/ILP remaining-cost estimate, a synthetic log generator and a
small CLI (``streamalign``).
"""

from .alignment import (
    InvariantViolation,
    Move,
    PrefixAlignment,
    move_cost,
    reconstruct,
    render_alignment,
    verify_prefix_alignment,
)
from .engine import (
    CaseEntry,
    CaseTable,
    Event,
    EventError,
    EventResult,
    StreamEngine,
    parse_algorithm,
    replay_log_as_stream,
)
from .generator import PRESETS, generate_log
from .heuristic import build_problem, estimate
from .occ import occ_process_event, revert_alignment
from .petri import (
    Marking,
    NotEnabledError,
    ValidationReport,
    WorkflowNet,
    enabled,
    enabled_transitions,
    enumerate_state_space,
    fire,
    fire_sequence,
    validate_wfnet,
)
from .search import (
    SearchCache,
    SearchMetrics,
    SearchOutcome,
    astar_inc,
    astar_scratch,
    dijkstra_oracle,
    distances_to_goal,
)
from .simplex import solve_ilp, solve_lp
from .spn import (
    MoveKind,
    MoveTable,
    SyncProductNet,
    build_spn,
    extend_spn,
)

__version__ = "0.1.0"

__all__ = [
    "CaseEntry",
    "CaseTable",
    "Event",
    "EventError",
    "EventResult",
    "InvariantViolation",
    "Marking",
    "Move",
    "MoveKind",
    "MoveTable",
    "NotEnabledError",
    "PRESETS",
    "PrefixAlignment",
    "SearchCache",
    "SearchMetrics",
    "SearchOutcome",
    "StreamEngine",
    "SyncProductNet",
    "ValidationReport",
    "WorkflowNet",
    "astar_inc",
    "astar_scratch",
    "build_problem",
    "build_spn",
    "dijkstra_oracle",
    "distances_to_goal",
    "enabled",
    "enabled_transitions",
    "enumerate_state_space",
    "estimate",
    "extend_spn",
    "fire",
    "fire_sequence",
    "generate_log",
    "move_cost",
    "occ_process_event",
    "parse_algorithm",
    "reconstruct",
    "render_alignment",
    "replay_log_as_stream",
    "revert_alignment",
    "solve_ilp",
    "solve_lp",
    "validate_wfnet",
    "verify_prefix_alignment",
]
