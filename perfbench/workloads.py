"""Seeded input streams for the replay benchmark.

A workload is a list of cases, each a model preset name and a trace, plus the
algorithm and heuristic the engine runs them under and the order in which the
cases' events reach the engine.  The noisy logs come from
``streamalign.generator`` so that they match the acceptance suite; ``digest``
pins the stream the default seed produces, so a change to the generator
cannot alter a workload unnoticed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from streamalign.generator import PRESETS, generate_log

DEFAULT_SEED = 2024
NOISE = {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    heuristic: str
    order: str  # "sequential" or "round-robin"
    cases: tuple[tuple[str, tuple[str, ...]], ...]  # (preset name, trace)

    def presets(self) -> tuple[str, ...]:
        return tuple(sorted({preset for preset, _ in self.cases}))

    def events(self) -> list[tuple[int, int]]:
        """Arrival order as (case number, position) pairs, both 0-based."""
        if self.order == "sequential":
            return [(c, i) for c, (_, trace) in enumerate(self.cases) for i in range(len(trace))]
        longest = max(len(trace) for _, trace in self.cases)
        return [
            (c, i)
            for i in range(longest)
            for c, (_, trace) in enumerate(self.cases)
            if i < len(trace)
        ]

    def digest(self) -> str:
        """SHA-256 over the settings and the event stream in arrival order."""
        stream = [[c, self.cases[c][0], self.cases[c][1][i]] for c, i in self.events()]
        blob = json.dumps([self.algorithm, self.heuristic, stream], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _preset_logs(n_traces: int, max_len: int, seed: int) -> tuple:
    """``n_traces`` noisy traces of every preset, as the acceptance suite makes them."""
    cases = []
    for preset, build in PRESETS.items():
        for trace in generate_log(build(), n_traces, NOISE, max_len=max_len, seed=seed):
            cases.append((preset, tuple(trace)))
    return tuple(cases)


def _long_cases(seed: int, n_cases: int = 16, loops: int = 7) -> tuple:
    """``choice-loop`` runs that go round the loop ``loops`` times, lightly noised.

    Every run gets one adjacent swap and one duplicated event (an event
    logged twice).  Their positions are spread evenly across the cases, so
    every seed deviates early, midway and late alike; the seed draws each
    run's approve/reject path, which the model treats symmetrically.  The
    search effort per position, which ``event_latency_p95_ms`` tracks,
    therefore does not hinge on where a few deviations fell.  The cases are
    replayed one after another, so the costliest events, the last of each
    case, are spread over the whole run instead of sharing its last seconds
    and whatever the machine's speed was then.
    """
    rng = random.Random(seed)
    cases = []
    for j in range(n_cases):
        run = ["register"]
        for _ in range(loops):
            run += [rng.choice(("approve", "reject")), "check"]
        run.append("archive")
        swap = j * (len(run) - 1) // n_cases
        run[swap], run[swap + 1] = run[swap + 1], run[swap]
        twice = (7 * j + 3) % n_cases * len(run) // n_cases
        run.insert(twice, run[twice])
        cases.append(("choice-loop", tuple(run)))
    return tuple(cases)


NAMES = ("noisy-logs", "long-cases", "many-cases", "window-baseline")


def build(name: str, seed: int) -> Workload:
    if name == "noisy-logs":
        return Workload(name, "ias", "ilp", "sequential", _preset_logs(100, 8, seed))
    if name == "long-cases":
        return Workload(name, "ias", "ilp", "sequential", _long_cases(seed))
    if name == "many-cases":
        return Workload(name, "ias", "zero", "round-robin", _preset_logs(1500, 16, seed))
    if name == "window-baseline":
        return Workload(name, "occ-w1", "ilp", "sequential", _preset_logs(100, 8, seed))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
