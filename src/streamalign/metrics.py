"""Per-trace and per-log result aggregation.

A trace carries a false positive when, for at least one of its prefixes, the
algorithm reported a cost above the optimal prefix-alignment cost for that
prefix.  Variants group completed traces by their exact activity sequence.
Averages are taken over traces, not events.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .alignment import InvariantViolation
from .engine import EventResult

METRIC_FAMILIES = (
    "avg_queued_per_trace",
    "avg_visited_per_trace",
    "traces_with_fp",
    "variants_with_fp",
    "avg_time_s_per_trace",
    "avg_solved_lps_per_trace",
)


class MissingOracleCost(ValueError):
    pass


@dataclass(frozen=True)
class TraceStats:
    case_id: str
    activities: tuple[str, ...]
    costs: tuple[int, ...]  # reported cost after each event
    queued: int
    visited: int
    lps: int
    wall_time: float
    false_positive: bool


@dataclass(frozen=True)
class MetricsRecord:
    algorithm: str
    n_traces: int
    avg_queued_per_trace: float
    avg_visited_per_trace: float
    traces_with_fp: int
    variants_with_fp: int
    avg_time_s_per_trace: float
    avg_solved_lps_per_trace: float


def group_by_case(records: list[EventResult]) -> dict[str, list[EventResult]]:
    grouped: dict[str, list[EventResult]] = {}
    for record in records:
        grouped.setdefault(record.case_id, []).append(record)
    return grouped


def oracle_costs_by_case(records: list[EventResult]) -> dict[str, list[int]]:
    """Per-case optimal cost sequence taken from an optimal algorithm's run."""
    return {case: [r.cost for r in rs] for case, rs in group_by_case(records).items()}


def trace_stats(
    records: list[EventResult], oracle: dict[str, list[int]]
) -> list[TraceStats]:
    out: list[TraceStats] = []
    for case, rs in group_by_case(records).items():
        optimal = oracle.get(case)
        if optimal is None or len(optimal) < len(rs):
            raise MissingOracleCost(f"no oracle costs for case {case!r}")
        costs = tuple(r.cost for r in rs)
        fp = any(c > o for c, o in zip(costs, optimal))
        if any(c < o for c, o in zip(costs, optimal)):
            raise InvariantViolation(
                f"case {case!r}: reported cost below the optimal cost; broken oracle"
            )
        out.append(
            TraceStats(
                case_id=case,
                activities=tuple(r.activity for r in rs),
                costs=costs,
                queued=sum(r.metrics.queued for r in rs),
                visited=sum(r.metrics.visited for r in rs),
                lps=sum(r.metrics.lps_solved for r in rs),
                wall_time=sum(r.metrics.wall_time for r in rs),
                false_positive=fp,
            )
        )
    return out


def compute_metrics(
    algorithm: str, records: list[EventResult], oracle: dict[str, list[int]]
) -> tuple[MetricsRecord, list[TraceStats]]:
    stats = trace_stats(records, oracle)
    n = len(stats)
    if n == 0:
        raise ValueError("no traces to aggregate")
    variant_fp: dict[tuple[str, ...], bool] = {}
    for s in stats:
        variant_fp[s.activities] = variant_fp.get(s.activities, False) or s.false_positive
    record = MetricsRecord(
        algorithm=algorithm,
        n_traces=n,
        avg_queued_per_trace=sum(s.queued for s in stats) / n,
        avg_visited_per_trace=sum(s.visited for s in stats) / n,
        traces_with_fp=sum(1 for s in stats if s.false_positive),
        variants_with_fp=sum(1 for v in variant_fp.values() if v),
        avg_time_s_per_trace=sum(s.wall_time for s in stats) / n,
        avg_solved_lps_per_trace=sum(s.lps for s in stats) / n,
    )
    return record, stats


def _format_cell(family: str, value: object, timing: bool) -> str:
    if family == "avg_time_s_per_trace":
        return f"{value:.6f}" if timing else ""
    if family in ("traces_with_fp", "variants_with_fp"):
        return str(value)
    return f"{value:.6f}"


def metrics_csv(
    log_name: str,
    records: dict[str, MetricsRecord],
    algorithms: list[str],
    timing: bool = True,
    *,
    run: dict[str, object],
) -> str:
    """Wide CSV: one row per log, one column per setting in ``run`` (what was
    replayed, such as the heuristic), then per (metric family, algorithm)."""
    header = ["log", *run] + [f"{family}:{algo}" for family in METRIC_FAMILIES for algo in algorithms]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    row = [log_name, *run.values()]
    for family in METRIC_FAMILIES:
        for algo in algorithms:
            row.append(_format_cell(family, getattr(records[algo], family), timing))
    writer.writerow(row)
    return buffer.getvalue()


def metrics_text(
    log_name: str,
    records: dict[str, MetricsRecord],
    algorithms: list[str],
    timing: bool = True,
    *,
    run: dict[str, object],
) -> str:
    """Aligned text table, one block per metric family, under a header that
    names the log and each setting in ``run`` (what was replayed)."""
    settings = "".join(f", {key}: {value}" for key, value in run.items())
    lines = [f"log: {log_name}  (traces: {records[algorithms[0]].n_traces}{settings})"]
    width = max(len(a) for a in algorithms) + 2
    for family in METRIC_FAMILIES:
        lines.append(family)
        for algo in algorithms:
            cell = _format_cell(family, getattr(records[algo], family), timing)
            lines.append(f"  {algo.ljust(width)} {cell}")
    return "\n".join(lines) + "\n"
