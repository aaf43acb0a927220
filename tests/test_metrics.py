import pytest

from streamalign import InvariantViolation, StreamEngine, replay_log_as_stream
from streamalign.assets import trap_model
from streamalign.metrics import (
    METRIC_FAMILIES,
    MissingOracleCost,
    compute_metrics,
    metrics_csv,
    metrics_text,
    oracle_costs_by_case,
)


RUN = {"heuristic": "ilp", "order": "sequential"}  # what run() replays


def run(model, log, algorithm):
    engine = StreamEngine(model, algorithm, "ilp")
    return engine.run(replay_log_as_stream(log))


def test_fp_false_when_costs_match_oracle(n1):
    results = run(n1, [["a", "b", "c"]], "ias")
    oracle = oracle_costs_by_case(results)
    record, stats = compute_metrics("ias", results, oracle)
    assert record.traces_with_fp == 0
    assert stats[0].false_positive is False
    assert stats[0].costs == (0, 0, 1)


def test_fp_true_for_window_one_on_trap(trap):
    log = [["x", "y", "z"]]
    oracle = oracle_costs_by_case(run(trap, log, "ias"))
    record, stats = compute_metrics("occ-w1", run(trap, log, "occ-w1"), oracle)
    assert record.traces_with_fp == 1
    assert stats[0].false_positive is True


def test_identical_traces_count_once_per_variant(trap):
    log = [["x", "y", "z"], ["x", "y", "z"]]
    oracle = oracle_costs_by_case(run(trap, log, "ias"))
    record, _ = compute_metrics("occ-w1", run(trap, log, "occ-w1"), oracle)
    assert record.traces_with_fp == 2
    assert record.variants_with_fp == 1


def test_cost_below_the_oracle_is_an_invariant_violation(n1):
    results = run(n1, [["a", "b"], ["b", "c"]], "ias")
    oracle = {case: [c + 1 for c in costs] for case, costs in oracle_costs_by_case(results).items()}
    with pytest.raises(InvariantViolation, match="below the optimal cost"):
        compute_metrics("ias", results, oracle)


def test_missing_oracle_cost_is_an_error(n1):
    results = run(n1, [["a", "b"]], "ias")
    with pytest.raises(MissingOracleCost):
        compute_metrics("ias", results, {})


def test_averages_are_per_trace(n1):
    log = [["a"], ["a", "b", "c"]]
    results = run(n1, log, "ias")
    oracle = oracle_costs_by_case(results)
    record, stats = compute_metrics("ias", results, oracle)
    assert record.n_traces == 2
    assert record.avg_queued_per_trace == sum(s.queued for s in stats) / 2
    assert record.avg_solved_lps_per_trace == sum(s.lps for s in stats) / 2


def test_csv_schema_is_families_times_algorithms(n1):
    algorithms = ["ias", "occ", "occ-w1"]
    oracle = oracle_costs_by_case(run(n1, [["a", "b", "c"]], "ias"))
    records = {
        algo: compute_metrics(algo, run(n1, [["a", "b", "c"]], algo), oracle)[0]
        for algo in algorithms
    }
    csv_text = metrics_csv("demo", records, algorithms, timing=True, run=RUN)
    header = csv_text.splitlines()[0].split(",")
    expected = ["log", "heuristic", "order"] + [
        f"{fam}:{algo}" for fam in METRIC_FAMILIES for algo in algorithms
    ]
    assert header == expected
    assert len(csv_text.splitlines()) == 2
    assert csv_text.splitlines()[1].split(",")[:3] == ["demo", "ilp", "sequential"]


def test_timing_off_blanks_time_cells(n1):
    oracle = oracle_costs_by_case(run(n1, [["a"]], "ias"))
    records = {"ias": compute_metrics("ias", run(n1, [["a"]], "ias"), oracle)[0]}
    on = metrics_csv("demo", records, ["ias"], timing=True, run=RUN)
    off = metrics_csv("demo", records, ["ias"], timing=False, run=RUN)
    header = on.splitlines()[0].split(",")
    idx = header.index("avg_time_s_per_trace:ias")
    assert off.splitlines()[1].split(",")[idx] == ""
    assert on.splitlines()[1].split(",")[idx] != ""


def test_text_table_mentions_every_family(n1):
    oracle = oracle_costs_by_case(run(n1, [["a"]], "ias"))
    records = {"ias": compute_metrics("ias", run(n1, [["a"]], "ias"), oracle)[0]}
    text = metrics_text("demo", records, ["ias"], run=RUN)
    assert text.splitlines()[0] == "log: demo  (traces: 1, heuristic: ilp, order: sequential)"
    for family in METRIC_FAMILIES:
        assert family in text
