"""Per-case orchestration of the streaming monitor.

The engine keeps one cache entry per case id; every event extends that
case's trace and product net and then continues (``ias``, which keeps its
open estimates, or ``iasr``, which re-solves them) or restarts
(``occ``/``occ-wN``) the shortest-path search.  State is never
evicted: a stream with unboundedly many cases grows the table without limit,
which the gauges below make observable.

Every product net of one engine is built on the engine's move table
(``engine.moves``, see :mod:`streamalign.spn`), so each move exists once
however many cases reach it; building the table validates the model.  The
table also owns the estimate memo (``engine.moves.memo``) that every search
of the engine shares, and the model's one flow-program matrix, built at the
first estimate (``engine.moves.program``).  A flow program depends on the
marking's model part and the activities still ahead of its trace token, not
on the case, so a program one case solved serves every case that reaches the
same model marking with the same remaining activities (see
:mod:`streamalign.search`).
The table and its memo live as long as their engine or an alignment it
emitted, which keeps the table to decode its end marking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .alignment import Checkpoint, PrefixAlignment
from .heuristic import MODES
from .occ import occ_process_event
from .petri import WorkflowNet
from .search import SearchCache, SearchMetrics, astar_inc
from .spn import MoveTable, SyncProductNet, build_spn, extend_spn

_OCC_W = re.compile(r"occ-w([0-9]+)")


def parse_algorithm(name: str) -> tuple[str, int | None]:
    """Map an algorithm name to (kind, window): ias, iasr, occ, occ-wN."""
    if name in ("ias", "iasr"):
        return name, None
    if name == "occ":
        return "occ", None
    m = _OCC_W.fullmatch(name)
    if m:
        w = int(m.group(1))
        if w < 1:
            raise ValueError(f"occ window must be >= 1, got {name!r}")
        return "occ", w
    raise ValueError(f"unknown algorithm {name!r}")


@dataclass(frozen=True)
class Event:
    case_id: str
    activity: str
    index: int  # arrival position on the stream, 1-based


@dataclass(slots=True)
class EventResult:
    case_id: str
    event_index: int
    activity: str
    alignment: PrefixAlignment
    metrics: SearchMetrics

    @property
    def cost(self) -> int:
        return self.alignment.total_cost

    def to_record(self) -> dict:
        return {
            "case": self.case_id,
            "event_index": self.event_index,
            "cost": self.cost,
            "alignment": self.alignment.to_records(),
            "queued": self.metrics.queued,
            "visited": self.metrics.visited,
            "lps": self.metrics.lps_solved,
        }


@dataclass
class EventError:
    case_id: str
    event_index: int
    message: str

    def to_record(self) -> dict:
        return {
            "case": self.case_id,
            "event_index": self.event_index,
            "error": self.message,
        }


@dataclass(slots=True)
class CaseEntry:
    """One case's state: its product net, then its search cache (``ias``,
    ``iasr``) or the verification checkpoint of its last alignment, which
    holds that alignment's moves (``occ``, ``occ-wN``).  The alignment
    itself reaches the caller only through :class:`EventResult`."""

    spn: SyncProductNet | None = None
    cache: SearchCache | None = None
    checkpoint: Checkpoint | None = None


class CaseTable:
    def __init__(self):
        self.cases: dict[str, CaseEntry] = {}

    def entry(self, case_id: str) -> CaseEntry:
        if case_id not in self.cases:
            self.cases[case_id] = CaseEntry()
        return self.cases[case_id]

    def cached_markings(self) -> int:
        """Markings held in the search caches of all cases.

        ``occ`` cases keep no search cache between events and count 0.
        """
        return sum(len(e.cache.g) for e in self.cases.values() if e.cache is not None)


class StreamEngine:
    """Dispatch stream events to per-case incremental alignment searches."""

    def __init__(
        self,
        model: WorkflowNet,
        algorithm: str = "ias",
        heuristic: str = "ilp",
    ):
        self.moves = MoveTable(model)  # validates; moves shared by all cases
        if heuristic not in MODES:
            raise ValueError(f"unknown heuristic mode {heuristic!r}")
        self.model = model
        self.kind, self.window = parse_algorithm(algorithm)
        self.algorithm = algorithm
        self.heuristic = heuristic
        self.table = CaseTable()

    def process_event(self, event: Event) -> EventResult | EventError:
        activity = event.activity
        if not isinstance(activity, str) or not activity:
            return EventError(
                event.case_id, event.index, f"rejected event: invalid activity {activity!r}"
            )
        entry = self.table.entry(event.case_id)
        if self.kind == "occ":
            alignment, outcome = occ_process_event(
                entry, activity, self.window, self.heuristic, self.moves
            )
            return EventResult(event.case_id, event.index, activity, alignment, outcome.metrics)

        if entry.spn is None:
            entry.spn = build_spn(self.model, [activity], self.moves)
            entry.cache = SearchCache(entry.spn)
        else:
            extend_spn(entry.spn, activity)
        outcome = astar_inc(entry.cache, self.heuristic, refresh=self.kind == "iasr")
        return EventResult(
            event.case_id, event.index, activity, outcome.alignment, outcome.metrics
        )

    def run(self, events) -> list[EventResult | EventError]:
        return [self.process_event(e) for e in events]


def replay_log_as_stream(
    log: list[list[str]], order: str = "sequential"
) -> list[Event]:
    """Turn a list of traces into an event stream with case ids 1..n.

    ``sequential`` emits each trace in full before the next one starts;
    ``round-robin`` interleaves one event per live case per round.
    """
    if any(not trace for trace in log):
        raise ValueError("log contains an empty trace")
    events: list[Event] = []
    if order == "sequential":
        idx = 1
        for case_no, trace in enumerate(log, start=1):
            for activity in trace:
                events.append(Event(str(case_no), activity, idx))
                idx += 1
    elif order == "round-robin":
        idx = 1
        position = 0
        while True:
            emitted = False
            for case_no, trace in enumerate(log, start=1):
                if position < len(trace):
                    events.append(Event(str(case_no), trace[position], idx))
                    idx += 1
                    emitted = True
            if not emitted:
                break
            position += 1
    else:
        raise ValueError(f"unknown replay order {order!r}")
    return events
