"""Window-reverting baseline.

Instead of resuming from cached search state, this baseline keeps only the
previous prefix-alignment.  On a new event it removes the moves covering the
last ``window`` observed events (plus model moves left dangling at the cut),
replays the surviving moves to obtain a restart marking and runs a one-shot
search from there on the extended product net.  With an unbounded window it
degenerates to a full from-scratch search and is optimal; with a finite
window the committed prefix may be unfixable, so reported costs can exceed
the optimum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .alignment import InvariantViolation, Move, PrefixAlignment, verify_prefix_alignment
from .petri import Marking, WorkflowNet, fire_sequence
from .search import SearchOutcome, astar_scratch
from .spn import MoveKind, MoveTable, SyncProductNet, build_spn, extend_spn

if TYPE_CHECKING:
    from .engine import CaseEntry


def revert_alignment(
    spn: SyncProductNet, alignment: PrefixAlignment | None, window: int | None
) -> tuple[tuple[Move, ...], Marking]:
    """Drop the tail of the alignment and compute the restart marking.

    Removes trailing moves until ``min(window, aligned events)`` trace
    consuming moves (log or synchronous) are gone, then also removes model
    moves left at the new tail.  The restart marking is obtained by replaying
    the survivors from the initial marking; extension never renames trace
    places, so replay on the extended net is sound.  ``window`` is at least
    1, or None for unbounded.
    """
    if window is not None and window < 1:
        raise ValueError("window must be >= 1 (or None for unbounded)")
    if window is None or alignment is None:
        return (), spn.initial
    moves = list(alignment.moves)
    consumes = lambda mv: mv.kind in (MoveKind.LOG, MoveKind.SYNC)
    target = min(window, sum(1 for mv in moves if consumes(mv)))
    removed = 0
    while moves and removed < target:
        if consumes(moves.pop()):
            removed += 1
    while moves and moves[-1].kind is MoveKind.MODEL:
        moves.pop()
    restart = fire_sequence(spn, spn.initial, [mv.tid for mv in moves])
    return tuple(moves), restart


def occ_process_event(
    entry: CaseEntry,
    model: WorkflowNet,
    activity: str,
    window: int | None,
    h_mode: str = "ilp",
    memo: dict | None = None,
    table: MoveTable | None = None,
) -> tuple[PrefixAlignment, SearchOutcome]:
    """Extend the case by one event and recompute its prefix-alignment.

    ``entry`` holds the case's product net and last alignment (both None
    before its first event) and is updated in place; ``window`` is as in
    :func:`revert_alignment`.  ``memo`` is an optional estimate memo for
    ``model``, as in :func:`~streamalign.search.astar_inc`, and ``table``
    an optional move table of ``model``, as in
    :func:`~streamalign.spn.build_spn`.
    """
    if entry.spn is None:
        entry.spn = build_spn(model, [activity], table)
    else:
        extend_spn(entry.spn, activity)

    surviving, restart = revert_alignment(entry.spn, entry.alignment, window)
    outcome = astar_scratch(entry.spn, h_mode, start=restart, memo=memo)
    suffix = outcome.alignment
    full = PrefixAlignment(
        surviving + suffix.moves,
        sum(mv.cost for mv in surviving) + suffix.total_cost,
        suffix.end_marking,
    )
    if not verify_prefix_alignment(full, entry.spn.trace, model):
        raise InvariantViolation(
            f"alignment {full.moves} is not a prefix-alignment of {entry.spn.trace}"
        )
    entry.alignment = full
    return full, outcome
