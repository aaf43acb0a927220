"""Window-reverting baseline.

Instead of resuming from cached search state, this baseline keeps only the
verification checkpoint of the previous prefix-alignment, which holds its
moves.  On a new event it removes the moves covering the last ``window``
observed events (plus model moves left dangling at the cut), adds the
surviving moves' deltas to the initial state to obtain a packed restart
state and runs a one-shot search from there on the extended product net.
With an unbounded window it degenerates to a full from-scratch search and
is optimal; with a finite window the committed prefix may be unfixable, so
reported costs can exceed the optimum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .alignment import InvariantViolation, Move, PrefixAlignment, verify_prefix_alignment
from .search import SearchOutcome, astar_scratch
from .spn import MoveKind, MoveTable, SyncProductNet, build_spn, extend_spn

if TYPE_CHECKING:
    from .engine import CaseEntry


def revert_alignment(
    spn: SyncProductNet, moves: tuple[Move, ...], window: int | None
) -> tuple[tuple[Move, ...], int]:
    """Drop the tail of an alignment's moves and compute the restart state.

    ``moves`` are the previous alignment's moves, ``()`` before a case's
    first event.  Removes trailing moves until ``min(window, aligned
    events)`` trace consuming moves (log or synchronous) are gone, then
    also removes model moves left at the new tail.  The restart is the
    packed state the survivors reach from the initial marking: the initial
    state plus their deltas, since firing a move adds its delta.  Extension
    never renames trace places, so the survivors fire alike on the extended
    net.
    ``window`` is at least 1, or None for unbounded.
    """
    if window is not None and window < 1:
        raise ValueError("window must be >= 1 (or None for unbounded)")
    initial = spn.table.initial_state
    if window is None:
        return (), initial
    moves = list(moves)
    consumes = lambda mv: mv.kind in (MoveKind.LOG, MoveKind.SYNC)
    target = min(window, sum(1 for mv in moves if consumes(mv)))
    removed = 0
    while moves and removed < target:
        if consumes(moves.pop()):
            removed += 1
    while moves and moves[-1].kind is MoveKind.MODEL:
        moves.pop()
    return tuple(moves), initial + sum(mv.delta for mv in moves)


def occ_process_event(
    entry: CaseEntry, activity: str, window: int | None, h_mode: str, table: MoveTable
) -> tuple[PrefixAlignment, SearchOutcome]:
    """Extend the case by one event and recompute its prefix-alignment.

    ``entry`` holds the case's product net and the checkpoint of its last
    alignment (both None before its first event) and is updated in place;
    the window is cut from the checkpoint's moves, and the new alignment is
    verified from the checkpoint when it begins with the same moves.
    ``window`` is as in :func:`revert_alignment`.  ``table`` is the move
    table of the model that the case's product net is built on, and whose
    estimate memo the search shares (:attr:`~streamalign.spn.MoveTable.memo`).
    """
    model = table.model
    if entry.spn is None:
        entry.spn = build_spn(model, [activity], table)
    else:
        extend_spn(entry.spn, activity)

    previous = entry.checkpoint
    surviving, restart = revert_alignment(entry.spn, previous.moves if previous else (), window)
    outcome = astar_scratch(entry.spn, h_mode, start=restart)
    suffix = outcome.alignment
    full = PrefixAlignment.from_state(
        surviving + suffix.moves,
        sum(mv.cost for mv in surviving) + suffix.total_cost,
        suffix.end_state,
        entry.spn.table,
    )
    checkpoint = verify_prefix_alignment(full, entry.spn.trace, model, previous)
    if not checkpoint:
        raise InvariantViolation(
            f"alignment {full.moves} is not a prefix-alignment of {entry.spn.trace}"
        )
    entry.checkpoint = checkpoint
    return full, outcome
