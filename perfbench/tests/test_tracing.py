"""The traced replay closes, repeats and tolerates missing sites; times scale to reference seconds."""

import streamalign.occ

from run import COUNTS, Replay, layer_metrics, measure
from tracing import SITES, Tracer
from workloads import Workload

CASES = (
    ("choice-loop", ("register", "approve", "check", "reject", "check", "archive")),
    ("parallel-tau", ("bill", "ship", "pay")),
    ("choice-loop", ("register", "check", "approve")),
)


def traced_round(algorithm="ias", heuristic="ilp"):
    replay = Replay(Workload("small", algorithm, heuristic, "round-robin", CASES))
    tracer = Tracer()
    played = replay.round(tracer)
    figures = layer_metrics(tracer, played.engines, played.outcomes)
    return replay, tracer, figures, played.outcomes, played.wall_s


def test_self_times_add_up_to_the_traced_replay_time():
    _, tracer, _, _, elapsed = traced_round()
    assert abs(sum(tracer.self_s.values()) - elapsed) < 1e-3 * elapsed + 1e-4
    assert {"loop", "engine", "spn", "search", "heuristic", "simplex.ilp", "simplex.lp",
            "petri.fire", "alignment.verify", "alignment.reconstruct"} <= tracer.self_s.keys()


def test_sites_are_restored_after_the_traced_round():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in SITES}
    traced_round("occ-w1")
    assert all(getattr(__import__(m, fromlist=[a]), a) is f for (m, a), f in originals.items())


def test_counts_repeat_and_match_the_programs_counters():
    *_, first, outcomes, _ = traced_round()
    *_, second, _, _ = traced_round()
    assert COUNTS <= first.keys()
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    lps = sum(o.metrics.lps_solved for o in outcomes)
    assert first["heuristic.estimates"] == first["simplex.ilp_calls"] == lps
    assert first["simplex.bb_nodes"] == 0
    assert first["spn.calls"] == len(outcomes) == 12
    assert first["engine.cases"] == 3 and first["occ.restarts"] == 0


def test_window_baseline_restarts_once_per_event():
    *_, figures, outcomes, _ = traced_round("occ-w1")
    assert figures["occ.restarts"] == len(outcomes) == figures["spn.calls"]
    assert figures["search.cached_markings"] == 0


def test_a_removed_call_site_is_reported_absent(monkeypatch):
    # a refactor that folds the window baseline into the search core would
    # remove this name; ias never reaches it
    monkeypatch.delattr(streamalign.occ, "astar_scratch")
    replay, tracer, figures, outcomes, _ = traced_round()
    assert "occ.restarts" not in figures and "search.self_s" in figures
    assert replay.check(outcomes)["wrong"] == 0


def test_measure_reports_every_metric_and_the_overhead():
    workload = Workload("small", "ias", "zero", "sequential", CASES)
    untraced = measure(workload, 0, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == 12 and untraced["samples"] == 12
    traced = measure(workload, 0, trace=True)
    assert traced["correct"] and traced["attempted"] == 24
    assert "tracing.overhead_s" in traced["metrics"]
    assert not [n for n in traced["notes"] if n.startswith("absent")]


def test_reference_seconds_scale_each_chunk_by_its_neighbours_median_speed():
    from run import SMOOTHING, Round

    speeds = [1.0] * (2 * SMOOTHING + 1)
    speeds[SMOOTHING] = 0.25  # one probe caught by a transient
    chunks = [(k, 0.5, s) for k, s in enumerate(speeds)]
    played = Round({}, [], [0.5] * len(chunks), chunks, 0.0)
    assert played.speeds() == [1.0] * len(chunks)
    assert played.reference_latencies() == played.latencies
    assert played.reference_s == played.wall_s
