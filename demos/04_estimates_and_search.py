"""Remaining-cost estimates and what they buy the search.

The estimate relaxes reachability to token-flow balance and is solved
exactly: as a rational program (`lp`), over integers (`ilp`), or switched
off (`zero`).  Tighter estimates visit fewer states but each value costs a
solver call.  `ias` keeps every estimate it has solved when the trace grows
and re-solves one only when its state is reopened; `iasr` re-solves every
open estimate after each event.  An engine keeps every value it solves in
the memo of its move table, which all its cases are built on, so "solved"
counts only the programs that no earlier event of any case had solved.
"""

from streamalign import (
    Marking,
    StreamEngine,
    build_spn,
    distances_to_goal,
    estimate,
    replay_log_as_stream,
)
from streamalign.generator import choice_loop_model, generate_log

model = choice_loop_model()

# estimates never exceed the true remaining cost (admissibility), and the
# integer program dominates its rational relaxation
spn = build_spn(model, ["register", "approve", "check", "archive"])
_, _, true_distance = distances_to_goal(spn)
print("marking                         lp    ilp   true")
for marking in [spn.initial, Marking.of("tp1", "q1"), Marking.of("tp2", "q1")]:
    state = spn.encode(marking)  # estimates are asked for packed states
    lp = estimate(spn, state, "lp")
    ilp = estimate(spn, state, "ilp")
    print(f"{str(marking):<28} {str(lp):>5} {ilp:>6} {true_distance[marking]:>6}")

# search effort across heuristic modes and with or without refreshed estimates
log = generate_log(model, 30, {"swap_p": 0.2, "drop_p": 0.1}, max_len=8, seed=5)
events = replay_log_as_stream(log)
print(f"\n{'setup':<14} {'visited':>8} {'queued':>8} {'solved':>8}")
for algorithm, heuristic in (
    ("ias", "zero"),
    ("ias", "lp"),
    ("ias", "ilp"),
    ("iasr", "ilp"),
):
    engine = StreamEngine(model, algorithm, heuristic)
    results = engine.run(events)
    visited = sum(r.metrics.visited for r in results)
    queued = sum(r.metrics.queued for r in results)
    solved = sum(r.metrics.lps_solved for r in results)
    print(f"{algorithm + '/' + heuristic:<14} {visited:>8} {queued:>8} {solved:>8}")
print("\nzero explores the most; ilp guides best; ias keeps its estimates and")
print("re-solves only on reopen, so it solves far fewer programs than iasr, which")
print("re-solves every open estimate, for the same optimal answers.")
