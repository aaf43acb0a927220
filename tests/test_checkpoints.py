"""Checkpointed verification and spliced reconstruction.

Each event's alignment is verified from the case's last checkpoint and
rebuilt from its last goal.  These tests hold both to what a check from the
initial marking and a walk to the root give: the verifier against
``tests/reference_verifier.py`` on the alignments of seeded random nets and
on mutations of them placed before, at and after the checkpoint, and the
reconstruction against a full walk of the predecessor map.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import streamalign
import streamalign.search as search
from streamalign import (
    Event,
    PrefixAlignment,
    SearchCache,
    StreamEngine,
    astar_inc,
    build_spn,
    extend_spn,
    verify_prefix_alignment,
)
from streamalign.alignment import Checkpoint, reconstruct
from streamalign.assets import ordering_model
from streamalign.petri import enabled_transitions, fire_sequence
from streamalign.spn import Move, MoveKind
from tests.conftest import SeededRandom, random_net_and_trace
from tests.reference_verifier import model_transitions, reference_verify

ALGORITHMS = ("ias", "iasr", "occ-w1", "occ-w2")
POSITIONS = ("before", "at", "after")


def event_alignments(seed: int, nets: int):
    """(model, product net, checkpoint before the event, alignment) for every
    event of ``nets`` seeded random nets under every algorithm of
    :data:`ALGORITHMS`."""
    rng = SeededRandom(seed)
    draws = [random_net_and_trace(rng, max_len=6) for _ in range(nets)]
    for algorithm in ALGORITHMS:
        for model, trace in draws:
            engine = StreamEngine(model, algorithm, "ilp")
            entry = engine.table.entry("1")
            for index, activity in enumerate(trace, start=1):
                since = entry.checkpoint if entry.cache is None else entry.cache.checkpoint
                result = engine.process_event(Event("1", activity, index))
                yield model, entry.spn, since, result.alignment


def resumes(since, alignment, model, trace) -> bool:
    """Whether ``verify_prefix_alignment`` may resume from ``since``."""
    n = 0 if since is None else len(since.moves)
    return (
        since is not None
        and since.model is model
        and since.trace is trace
        and alignment.moves[:n] == since.moves
    )


def changed(alignment, moves):
    """The alignment with other moves, its total cost following them."""
    old = sum(m.cost for m in alignment.moves)
    new = sum(m.cost for m in moves)
    return PrefixAlignment(tuple(moves), alignment.total_cost - old + new, alignment.end_marking)


def wrong_move(alignment, index, spn, model):
    """The move at ``index`` replaced by the net's next move in id order."""
    moves = list(alignment.moves)
    if index >= len(moves):
        return None
    tids = sorted(spn.transitions)
    moves[index] = spn.move(tids[(tids.index(moves[index].tid) + 1) % len(tids)])
    return changed(alignment, moves)


def wrong_move_cost(alignment, index, spn, model):
    """The move at ``index`` carrying a cost one too high, the total agreeing."""
    moves = list(alignment.moves)
    if index >= len(moves):
        return None
    copy = dataclasses.replace(moves[index])
    object.__setattr__(copy, "cost", copy.cost + 1)
    moves[index] = copy
    return changed(alignment, moves)


def wrong_total(alignment, index, spn, model):
    """The same moves with a total cost one too high; ``index`` is unused."""
    return PrefixAlignment(alignment.moves, alignment.total_cost + 1, alignment.end_marking)


def missing_activity(alignment, index, spn, model):
    """The first move at or after ``index`` that observes an event, dropped."""
    moves = list(alignment.moves)
    for i in range(index, len(moves)):
        if moves[i].kind is not MoveKind.MODEL:
            del moves[i]
            return changed(alignment, moves)
    return None


def extra_activity(alignment, index, spn, model):
    """A log move of the first event inserted at ``index``."""
    moves = list(alignment.moves)
    if index > len(moves):
        return None
    moves.insert(index, spn.move("log:tt1"))
    return changed(alignment, moves)


def disabled_model_move(alignment, index, spn, model):
    """A model move inserted at ``index`` whose transition is not enabled there."""
    moves = list(alignment.moves)
    if index > len(moves):
        return None
    marking = fire_sequence(model, model.initial, model_transitions(moves[:index]))
    enabled = set(enabled_transitions(model, marking))
    disabled = [t for t in model.transitions if t not in enabled]
    if not disabled:
        return None
    moves.insert(index, spn.move(f"model:{disabled[0]}"))
    return changed(alignment, moves)


UNKNOWN = Move("model:zz", MoveKind.MODEL, None, "zz", None, None, (), (), 0, 0)


def unknown_transition(alignment, index, spn, model):
    """A silent model move of a transition the model does not have, at ``index``."""
    moves = list(alignment.moves)
    if index > len(moves):
        return None
    moves.insert(index, UNKNOWN)
    return changed(alignment, moves)


MUTATIONS = (
    wrong_move,
    wrong_move_cost,
    wrong_total,
    missing_activity,
    extra_activity,
    disabled_model_move,
    unknown_transition,
)


def position_index(position: str, checkpoint_moves: int, moves: int) -> int | None:
    """An index before the checkpoint's moves end, at their end or after it,
    or None.  Replacing or inserting at the end's index changes the first
    move the checkpoint does not cover."""
    if position == "before":
        return checkpoint_moves // 2 if checkpoint_moves else None
    if position == "at":
        return checkpoint_moves
    return moves - 1 if moves - 1 > checkpoint_moves else None


def differential(seed: int, nets: int) -> tuple[list[str], dict]:
    """Compare the checkpointed verifier with the reference on every event of
    seeded random nets and on mutations of each event's alignment.

    Returns the mismatches and, per (mutation, position), how many mutated
    alignments the reference rejected.  Uses no ``assert``, so it checks the
    same under ``python -O``.
    """
    mismatches: list[str] = []
    rejected = {(m.__name__, p): 0 for m in MUTATIONS for p in POSITIONS}
    rejected["resumed"] = 0
    for model, spn, since, alignment in event_alignments(seed, nets):
        trace = spn.trace
        checkpoint = verify_prefix_alignment(alignment, trace, model, since)
        full = verify_prefix_alignment(alignment, trace, model)
        if checkpoint is None or not reference_verify(alignment, trace, model):
            mismatches.append(f"emitted alignment {alignment.moves} rejected")
            continue
        fields = lambda c: (c.moves, c.marking, c.consumed, c.cost, c.model, c.trace)
        if fields(checkpoint) != fields(full):
            mismatches.append(f"checkpoint of {alignment.moves} differs from a full check")
        if not resumes(since, alignment, model, trace):
            continue
        rejected["resumed"] += 1
        for mutation in MUTATIONS:
            for position in POSITIONS:
                index = position_index(position, len(since.moves), len(alignment.moves))
                if index is None:
                    continue
                mutated = mutation(alignment, index, spn, model)
                if mutated is None:
                    continue
                expected = reference_verify(mutated, trace, model)
                got = verify_prefix_alignment(mutated, trace, model, since) is not None
                if got != expected:
                    mismatches.append(
                        f"{mutation.__name__} {position} on {alignment.moves} after "
                        f"{since.moves}: verifier {got}, reference {expected}"
                    )
                rejected[mutation.__name__, position] += not expected
    return mismatches, rejected


def test_checkpointed_verifier_agrees_with_the_reference():
    mismatches, rejected = differential(seed=41, nets=25)
    assert mismatches == []
    assert rejected.pop("resumed") > 100
    # every mutation is placed, and caught, at every position it applies to
    expected = {(m.__name__, p) for m in MUTATIONS for p in POSITIONS}
    assert {key for key, count in rejected.items() if count} == expected


OPTIMIZED_DIFFERENTIAL = """
import sys
from tests.test_checkpoints import differential

if not sys.flags.optimize:
    sys.exit("not running under -O")
mismatches, rejected = differential(seed=43, nets=8)
print(len(mismatches), rejected["resumed"] > 0, sum(rejected.values()) > 0)
"""


def test_checkpointed_verifier_agrees_under_optimized_mode():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(streamalign.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_DIFFERENTIAL],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": f"{src}:{root}", "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "True", "True"]


def test_a_checkpoint_of_another_trace_or_model_is_never_resumed():
    model = ordering_model()
    engine = StreamEngine(model, "ias", "ilp")
    engine.process_event(Event("1", "a", 1))
    cache = engine.table.cases["1"].cache
    first = cache.checkpoint
    second = engine.process_event(Event("1", "b", 2)).alignment
    trace = cache.spn.trace
    assert second.moves[: len(first.moves)] == first.moves
    assert second.moves[-1].kind is MoveKind.SYNC
    # The same moves, but no tokens: resuming from it rejects the next
    # synchronous move, so a verdict of valid shows that it was not resumed.
    emptied = Checkpoint(first.moves, {}, first.consumed, first.cost, model, trace)
    assert verify_prefix_alignment(second, trace, model, emptied) is None
    # another case's trace list with the same events
    assert verify_prefix_alignment(second, list(trace), model, emptied) is not None
    # another model with the same structure
    assert verify_prefix_alignment(second, trace, ordering_model(), emptied) is not None
    # moves that are not a prefix of the alignment
    other = Checkpoint(second.moves[1:], {}, first.consumed, first.cost, model, trace)
    assert verify_prefix_alignment(second, trace, model, other) is not None
    # a checkpoint that is right for the trace list it names resumes fine
    assert verify_prefix_alignment(second, trace, model, first) is not None


@pytest.fixture
def splices(monkeypatch):
    """The ``splice`` argument of every reconstruction the search makes."""
    seen = []

    def recording(predecessors, goal, root, net, splice=None):
        seen.append(splice)
        return reconstruct(predecessors, goal, root, net, splice)

    monkeypatch.setattr(search, "reconstruct", recording)
    return seen


def full_walk(cache):
    return reconstruct(cache._p, cache.goal, cache.root, cache.spn)


# "lazy" keeps the open estimates (ias), "eager" re-solves them (iasr)
@pytest.mark.parametrize("refresh", [False, True], ids=["lazy", "eager"])
def test_spliced_reconstruction_equals_a_full_walk(splices, refresh):
    rng = SeededRandom(47)
    runs = [(*random_net_and_trace(rng, max_len=6), "ilp") for _ in range(20)]
    # the reopening instance of tests/test_search.py
    runs.append((*random_net_and_trace(SeededRandom(1285), max_len=7), "lp"))
    reopened = 0
    for model, trace, h_mode in runs:
        spn = build_spn(model, trace[:1])
        cache = SearchCache(spn)
        for k, activity in enumerate(trace):
            if k:
                extend_spn(spn, activity)
            splices.clear()
            outcome = astar_inc(cache, h_mode, refresh=refresh)
            assert outcome.alignment == full_walk(cache)
            assert all(a is b for a, b in zip(outcome.alignment.moves, full_walk(cache).moves))
            if outcome.metrics.reopened:
                reopened += 1
                assert splices == [None]  # a reopened state may lie on the old chain
            elif k:
                assert splices == [(cache_goal, checkpoint)]
            cache_goal, checkpoint = cache.goal, cache.checkpoint
    assert reopened == (0 if refresh else 1)


def test_no_splice_once_the_previous_goal_got_cheaper(splices):
    # The previous alignment reaches the previous goal at a higher cost
    # than the goal's g: the chain of predecessor entries has moved to a
    # cheaper path since, so splicing the old moves would be wrong.
    model = ordering_model()
    spn = build_spn(model, ["a"])
    cache = SearchCache(spn)
    astar_inc(cache, "ilp")
    extend_spn(spn, "b")
    cheapest = astar_inc(cache, "ilp").alignment
    goal = cache.goal
    assert cheapest.total_cost == cache.g[goal] == 0
    detour = tuple(spn.move(f"log:tt{i}") for i in (1, 2)) + tuple(
        spn.move(f"model:{t}") for t in model_transitions(cheapest.moves)
    )
    assert spn.encode(spn.initial) + sum(m.delta for m in detour) == goal
    cost = sum(m.cost for m in detour)
    cache.checkpoint = verify_prefix_alignment(
        PrefixAlignment(detour, cost, cheapest.end_marking), spn.trace, model
    )
    assert cache.checkpoint.cost > cache.g[goal]
    # "x" has no model transition, so the new goal is the old one plus a log move
    extend_spn(spn, "x")
    splices.clear()
    outcome = astar_inc(cache, "ilp")
    assert splices == [None]
    assert outcome.alignment == full_walk(cache)
    assert outcome.alignment.moves == cheapest.moves + (spn.move("log:tt3"),)
