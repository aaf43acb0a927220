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

from dataclasses import dataclass

from .alignment import InvariantViolation, Move, PrefixAlignment, verify_prefix_alignment
from .petri import Marking, WorkflowNet, fire_sequence
from .search import SearchOutcome, astar_scratch
from .spn import MoveKind, MoveTable, SyncProductNet, build_spn, extend_spn


@dataclass
class OccState:
    """Per-case state: the product net of the growing trace, the last result."""

    window: int | None = None  # None = unbounded
    spn: SyncProductNet | None = None
    alignment: PrefixAlignment | None = None

    def __post_init__(self):
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1 (or None for unbounded)")


def revert_alignment(
    spn: SyncProductNet, alignment: PrefixAlignment | None, window: int | None
) -> tuple[tuple[Move, ...], Marking]:
    """Drop the tail of the alignment and compute the restart marking.

    Removes trailing moves until ``min(window, aligned events)`` trace
    consuming moves (log or synchronous) are gone, then also removes model
    moves left at the new tail.  The restart marking is obtained by replaying
    the survivors from the initial marking; extension never renames trace
    places, so replay on the extended net is sound.
    """
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
    state: OccState,
    model: WorkflowNet,
    activity: str,
    h_mode: str = "ilp",
    memo: dict | None = None,
    table: MoveTable | None = None,
) -> tuple[PrefixAlignment, SearchOutcome]:
    """Extend the case by one event and recompute its prefix-alignment.

    ``memo`` is an optional estimate memo for ``model``, as in
    :func:`~streamalign.search.astar_inc`, and ``table`` an optional move
    table of ``model``, as in :func:`~streamalign.spn.build_spn`.
    """
    if state.spn is None:
        state.spn = build_spn(model, [activity], table)
    else:
        extend_spn(state.spn, activity)

    surviving, restart = revert_alignment(state.spn, state.alignment, state.window)
    outcome = astar_scratch(state.spn, h_mode, start=restart, memo=memo)
    suffix = outcome.alignment
    full = PrefixAlignment(
        surviving + suffix.moves,
        sum(mv.cost for mv in surviving) + suffix.total_cost,
        suffix.end_marking,
    )
    if not verify_prefix_alignment(full, state.spn.trace, model):
        raise InvariantViolation(
            f"alignment {full.moves} is not a prefix-alignment of {state.spn.trace}"
        )
    state.alignment = full
    return full, outcome
