"""Per-event replay benchmark for streamalign.

Replays a seeded event stream through ``StreamEngine.process_event`` one
event at a time, in one thread, as a closed loop: the next event is passed
only after the previous result has come back.  Every emitted alignment is
checked against the benchmark's own oracle (``oracle.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload noisy-logs --seed 2024 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all       # every workload, each in a fresh interpreter
    python3 perfbench/run.py --print-digests      # the event-stream digests of the default seed

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` replays the
same rounds untraced and then traced and reports the per-layer metrics.
Times are wall times in reference seconds (see ``calibrate.py``); the raw
wall-clock figures are printed next to them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import oracle
from calibrate import probe, speed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
CHUNK_S = 0.25  # replay time between two reference probes
SMOOTHING = 4  # chunks on either side whose probes set a chunk's speed

# Runs in a fresh interpreter: import, model construction and validation.
SETUP_PROBE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from streamalign import StreamEngine
from streamalign.generator import PRESETS
for preset in sys.argv[5:]:
    StreamEngine(PRESETS[preset](), algorithm=sys.argv[3], heuristic=sys.argv[4])
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
from calibrate import probe, speed
reading = sorted(probe() for _ in range(3))[1]
print(elapsed, elapsed * speed(reading, reading))
"""

END_TO_END_UNITS = {
    "events_per_s": "events/s",
    "event_latency_p50_ms": "ms",
    "event_latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def die(message: str, code: int = 2):
    """Stop without a result line: a usage error (2) or a failed workload process (3)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_program():
    """Import streamalign from this checkout's ``src`` and nowhere else."""
    package = SRC / "streamalign"
    if not (package / "__init__.py").is_file():
        die(f"no streamalign sources at {package}")
    sys.path.insert(0, str(SRC))
    import streamalign

    if Path(streamalign.__file__).resolve().parent != package:
        die(f"streamalign was imported from {streamalign.__file__}")
    return streamalign


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def replay_chunk(calls, start: int, seconds: float, outcomes: list, latencies: list) -> None:
    """Closed-loop replay of ``calls[start:]`` until ``seconds`` have passed.

    The result is consumed inside the timed region.  An exception is an
    outcome like any other; the checks count it as a failed event.
    """
    clock = time.perf_counter
    deadline = clock() + seconds
    for k in range(start, len(calls)):
        process, event = calls[k]
        started = clock()
        try:
            outcome = process(event)
            getattr(outcome, "cost", None)
        except Exception:
            outcome = traceback.format_exc()
        now = clock()
        latencies.append(now - started)
        outcomes.append(outcome)
        if now >= deadline:
            return


@dataclass
class Round:
    """One replay of the whole stream through fresh engines."""

    engines: dict
    outcomes: list
    latencies: list[float]  # wall seconds per event
    chunks: list[tuple[int, float, float]]  # (first event, wall seconds, probed speed)
    rss_mib: float

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.chunks)

    def speeds(self) -> list[float]:
        """Each chunk's speed: the median probed speed within SMOOTHING chunks of it.

        A single probe can catch a transient; the median of its neighbours
        tracks drift that lasts seconds without adding the probe's own noise.
        """
        probed = [s for _, _, s in self.chunks]
        return [
            statistics.median(probed[max(0, k - SMOOTHING): k + SMOOTHING + 1])
            for k in range(len(probed))
        ]

    @property
    def reference_s(self) -> float:
        return sum(wall * speed for (_, wall, _), speed in zip(self.chunks, self.speeds()))

    def reference_latencies(self) -> list[float]:
        ends = [first for first, _, _ in self.chunks[1:]] + [len(self.latencies)]
        return [
            latency * speed
            for (first, _, _), end, speed in zip(self.chunks, ends, self.speeds())
            for latency in self.latencies[first:end]
        ]


class Replay:
    """One workload's inputs, expected costs and engines."""

    def __init__(self, workload):
        from streamalign import Event
        from streamalign.generator import PRESETS

        self.workload = workload
        self.order = workload.events()
        self.events = [
            Event(str(c + 1), workload.cases[c][1][i], k + 1)
            for k, (c, i) in enumerate(self.order)
        ]
        self.exact = not workload.algorithm.startswith("occ-w")
        self.models = {p: oracle.Model(PRESETS[p]()) for p in workload.presets()}
        costs: dict = {}  # one oracle sweep per distinct trace
        for preset, trace in workload.cases:
            if (preset, trace) not in costs:
                costs[preset, trace] = self.models[preset].prefix_costs(trace)
        self.expected = [costs[case] for case in workload.cases]

    def check(self, outcomes) -> dict:
        """Failures, wrong outputs and overestimates of one round's outcomes."""
        from streamalign import EventResult

        tally = {"failed": 0, "wrong": 0, "fp_events": 0, "fp_cases": set(), "errors": []}
        for (c, i), event, outcome in zip(self.order, self.events, outcomes):
            preset, trace = self.workload.cases[c]
            if not isinstance(outcome, EventResult):
                error = outcome if isinstance(outcome, str) else f"returned {outcome!r}"
            elif (outcome.case_id, outcome.event_index) != (event.case_id, event.index):
                error = f"result for case {outcome.case_id} event {outcome.event_index}"
            else:
                expected = self.expected[c][i]
                error = self.models[preset].alignment_error(
                    trace[: i + 1], outcome.alignment.to_records(), outcome.cost
                )
                if error is None and outcome.cost != expected:
                    if self.exact or outcome.cost < expected:
                        error = f"cost {outcome.cost}, oracle {expected}"
                    else:
                        tally["fp_events"] += 1
                        tally["fp_cases"].add(c)
                if error is not None:
                    tally["wrong"] += 1
            if error is not None:
                tally["failed"] += 1
                tally["errors"].append(f"case {event.case_id} event {event.index}: {error}")
        return tally

    def round(self, tracer=None) -> Round:
        """Replay the stream in chunks with a reference probe between chunks."""
        from streamalign import StreamEngine
        from streamalign.generator import PRESETS

        w = self.workload
        engines = {p: StreamEngine(PRESETS[p](), w.algorithm, w.heuristic) for p in w.presets()}
        calls = [(engines[w.cases[c][0]].process_event, e) for (c, _), e in zip(self.order, self.events)]
        chunk = replay_chunk
        if tracer is not None:
            calls = [(tracer.span("engine", process), event) for process, event in calls]
            chunk = tracer.span("loop", replay_chunk)
        outcomes, latencies, chunks = [], [], []
        gc.collect()
        with tracer.installed_sites() if tracer is not None else nullcontext():
            before = probe()
            while len(outcomes) < len(calls):
                first = len(outcomes)
                started = time.perf_counter()
                chunk(calls, first, CHUNK_S, outcomes, latencies)
                wall = time.perf_counter() - started
                after = probe()
                chunks.append((first, wall, speed(before, after)))
                before = after
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return Round(engines, outcomes, latencies, chunks, rss_mib)


def layer_metrics(tracer, engines, outcomes) -> dict:
    """Per-layer figures of one traced round; a figure whose source is gone is left out."""
    calls, self_s, sizes, have = tracer.calls, tracer.self_s, tracer.sizes, tracer.installed
    out: dict = {}

    def put(name, keys, value):
        if any(k in have for k in keys):
            out[name] = value()

    put("engine.self_s", ["engine"], lambda: self_s["engine"])
    put("spn.calls", ["spn"], lambda: calls["spn"])
    put("spn.s", ["spn"], lambda: self_s["spn"])
    put("search.self_s", ["search", "search.restart"],
        lambda: self_s["search"] + self_s["search.restart"])
    put("petri.fire_calls", ["petri.fire"], lambda: calls["petri.fire"])
    put("petri.fire_s", ["petri.fire"], lambda: self_s["petri.fire"])
    put("heuristic.estimates", ["heuristic"], lambda: calls["heuristic"])
    put("heuristic.build_s", ["heuristic.build"], lambda: self_s["heuristic.build"])
    put("heuristic.self_s", ["heuristic"], lambda: self_s["heuristic"])
    put("simplex.ilp_calls", ["simplex.ilp"], lambda: calls["simplex.ilp"])
    put("simplex.lp_calls", ["simplex.lp"], lambda: calls["simplex.lp"])
    put("simplex.bb_nodes", ["simplex.lp"], lambda: calls["simplex.lp"] - calls["simplex.ilp"])
    lps = max(calls["simplex.lp"], 1)
    put("simplex.lp_columns_mean", ["simplex.lp"], lambda: sizes["simplex.lp_columns"] / lps)
    put("simplex.lp_rows_mean", ["simplex.lp"], lambda: sizes["simplex.lp_rows"] / lps)
    put("simplex.s", ["simplex.lp", "simplex.ilp"],
        lambda: self_s["simplex.lp"] + self_s["simplex.ilp"])
    put("alignment.reconstruct_s", ["alignment.reconstruct"],
        lambda: self_s["alignment.reconstruct"])
    put("alignment.verify_s", ["alignment.verify"], lambda: self_s["alignment.verify"])
    put("alignment.moves_verified", ["alignment.verify"],
        lambda: sizes["alignment.moves_verified"])
    put("occ.self_s", ["occ"], lambda: self_s["occ"])
    put("occ.revert_s", ["occ.revert"], lambda: self_s["occ.revert"])
    put("occ.restarts", ["search.restart"], lambda: calls["search.restart"])

    # Counters the program returns with every result, and case-table state.
    results = [o for o in outcomes if hasattr(o, "metrics")]
    fields = {
        "search.visited": "visited",
        "search.queued": "queued",
        "search.reopened": "reopened",
        "search.refreshes": "heuristic_recomputations",
    }
    for name, field in fields.items():
        try:
            out[name] = sum(getattr(r.metrics, field) for r in results)
        except AttributeError:
            pass
    visited = out.get("search.visited")
    if visited:
        if "search.refreshes" in out:
            out["search.refreshes_per_visit"] = out["search.refreshes"] / visited
        if "heuristic.estimates" in out:
            out["heuristic.estimates_per_visit"] = out["heuristic.estimates"] / visited
    try:
        entries = [e for engine in engines.values() for e in engine.table.cases.values()]
        out["engine.cases"] = len(entries)
        out["spn.transitions"] = sum(
            len((e.spn if e.spn is not None else e.occ.spn).transitions) for e in entries
        )
        out["search.cached_markings"] = sum(len(e.cache.g) for e in entries if e.cache is not None)
    except AttributeError:
        pass
    return out


PER_LAYER_UNITS = {
    "engine.self_s": "s", "engine.cases": "count",
    "spn.calls": "count", "spn.s": "s", "spn.transitions": "count",
    "search.self_s": "s", "search.visited": "count", "search.queued": "count",
    "search.reopened": "count", "search.refreshes": "count",
    "search.cached_markings": "count", "search.refreshes_per_visit": "ratio",
    "petri.fire_calls": "count", "petri.fire_s": "s",
    "heuristic.estimates": "count", "heuristic.estimates_per_visit": "ratio",
    "heuristic.build_s": "s", "heuristic.self_s": "s",
    "simplex.ilp_calls": "count", "simplex.lp_calls": "count", "simplex.bb_nodes": "count",
    "simplex.lp_columns_mean": "count", "simplex.lp_rows_mean": "count", "simplex.s": "s",
    "alignment.reconstruct_s": "s", "alignment.verify_s": "s",
    "alignment.moves_verified": "count",
    "occ.self_s": "s", "occ.revert_s": "s", "occ.restarts": "count",
    "tracing.replay_s": "s", "tracing.loop_s": "s", "tracing.overhead_s": "s",
}
COUNTS = {n for n, u in PER_LAYER_UNITS.items() if u in ("count", "ratio")}


def measure_setup(workload) -> list[tuple[float, float]]:
    """(wall, reference) seconds from a fresh interpreter's first statement to constructed engines."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
            workload.algorithm, workload.heuristic, *workload.presets()]
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
        wall, reference = map(float, out.split())
        runs.append((wall, reference))
    return runs


def measure(workload, seconds: float, trace: bool) -> dict:
    """Replay whole rounds until ``seconds`` of replay have passed.

    Untraced, the result holds the end-to-end figures except ``setup_s``.
    Traced, the same number of rounds is replayed again with spans in place
    and the result holds the per-layer figures of one round.
    """
    replay = Replay(workload)
    tallies, rounds = [], []
    while not rounds or sum(r.wall_s for r in rounds) < seconds:
        played = replay.round()
        tallies.append(replay.check(played.outcomes))
        played.engines = played.outcomes = None
        rounds.append(played)
    wall_s = sum(r.wall_s for r in rounds)
    reference_s = sum(r.reference_s for r in rounds)
    latencies = sorted(x for r in rounds for x in r.reference_latencies())
    wall_latencies = sorted(x for r in rounds for x in r.latencies)
    notes = [f"{len(rounds)} round(s) of {len(replay.events)} events, {len(latencies)} latency "
             f"samples, {wall_s:.3f} s wall = {reference_s:.3f} reference s "
             f"in {sum(len(r.chunks) for r in rounds)} probed chunks"]

    if not trace:
        notes.append(f"wall clock: {len(rounds) * len(replay.events) / wall_s:.6g} events/s, "
                     f"p50 {1e3 * percentile(wall_latencies, 50):.6g} ms, "
                     f"p95 {1e3 * percentile(wall_latencies, 95):.6g} ms")
        metrics = {
            "events_per_s": len(rounds) * len(replay.events) / reference_s,
            "event_latency_p50_ms": 1e3 * percentile(latencies, 50),
            "event_latency_p95_ms": 1e3 * percentile(latencies, 95),
            "peak_rss_mib": rounds[0].rss_mib,  # later rounds hold no more state
        }
    else:
        per_round, traced_s = [], 0.0
        for _ in rounds:
            tracer = Tracer()
            played = replay.round(tracer)
            tallies.append(replay.check(played.outcomes))
            traced_s += played.reference_s
            spans = sum(tracer.self_s.values())
            if abs(spans - played.wall_s) > 1e-3 * played.wall_s + 1e-4 * len(played.chunks):
                notes.append(f"span self times add up to {spans:.6f} s of {played.wall_s:.6f} s")
                tallies[-1]["wrong"] += 1
            figures = layer_metrics(tracer, played.engines, played.outcomes)
            figures["tracing.loop_s"] = tracer.self_s["loop"]
            factor = played.reference_s / played.wall_s
            for key in figures.keys() - COUNTS:
                figures[key] *= factor
            figures["tracing.replay_s"] = played.reference_s
            per_round.append(figures)
        first = per_round[0]
        for figures in per_round[1:]:
            if any(figures.get(k) != first.get(k) for k in COUNTS):
                notes.append("per-layer counts differ between identical rounds")
                tallies[-1]["wrong"] += 1
        metrics = {
            k: first[k] if k in COUNTS else statistics.fmean(r[k] for r in per_round)
            for k in first
        }
        metrics["tracing.overhead_s"] = (traced_s - reference_s) / len(rounds)
        absent = sorted(PER_LAYER_UNITS.keys() - metrics.keys())
        if absent:
            notes.append(f"absent, their call sites are gone: {', '.join(absent)}")

    errors = [e for t in tallies for e in t["errors"]]
    notes += [f"FAILED {e}" for e in errors[:5]]
    if not replay.exact:
        t = tallies[0]
        notes.append(f"overestimates a round (reported, not failures): {t['fp_events']} events "
                     f"in {len(t['fp_cases'])} of {len(workload.cases)} cases")
    return {
        "correct": not any(t["wrong"] for t in tallies),
        "attempted": len(tallies) * len(replay.events),
        "failed": sum(t["failed"] for t in tallies),
        "metrics": metrics,
        "notes": notes,
        "samples": len(latencies),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_program()
    import workloads

    if name not in workloads.NAMES:
        die(f"unknown workload {name!r}; choose from {', '.join(workloads.NAMES)}")
    workload = workloads.build(name, seed)
    digest = workload.digest()
    print(f"workload {name}: {workload.algorithm}/{workload.heuristic}, "
          f"{len(workload.cases)} cases, {workload.order}, seed {seed}, digest {digest[:16]}")
    digest_ok = True
    if seed == workloads.DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text()).get(name)
        digest_ok = digest == pinned
        print(f"event stream digest {'matches' if digest_ok else 'DIFFERS from'} the pinned {pinned}")
    setups = [] if trace else measure_setup(workload)
    result = measure(workload, seconds, trace)
    samples = result.pop("samples")
    for note in result.pop("notes"):
        print(note)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(r for _, r in setups)
        print(f"setup over {len(setups)} fresh interpreters, wall s: "
              + ", ".join(f"{w:.4f}" for w, _ in setups))
    for key, value in result["metrics"].items():
        extra = f" ({samples} samples)" if key.startswith("event_latency") else ""
        print(f"{key} {value:.6g} {units[key]}{extra}")
    result["correct"] = result["correct"] and digest_ok
    print(f"attempted {result['attempted']} events, failed {result['failed']}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in turn, each in a fresh interpreter."""
    load_program()
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    RESULTS.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            die(f"workload {name} exited with {proc.returncode}", 3)
        result = json.loads(lines[-1])
        (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(lines[-1] + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2024, help="input seed (default 2024)")
    parser.add_argument("--seconds", type=float, default=8.0, help="replay time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the per-event verify_prefix_alignment calls, which sit in asserts
        die("run without -O or PYTHONOPTIMIZE")
    if args.print_digests:
        load_program()
        import workloads

        digests = {n: workloads.build(n, workloads.DEFAULT_SEED).digest() for n in workloads.NAMES}
        print(json.dumps(digests, indent=2))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
