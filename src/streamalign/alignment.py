"""Prefix-alignments: reconstruction, checking and rendering.

Costs follow the standard cost function: synchronous moves and silent model
moves are free, log moves and visible model moves cost one.  Costs are exact
integers throughout.  :class:`Move` and :func:`move_cost` live with the
product net's move table (:mod:`streamalign.spn`) and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .petri import Marking, WorkflowNet, fire_sequence, NotEnabledError
from .spn import Move, MoveKind, SyncProductNet, move_cost


class InvariantViolation(RuntimeError):
    """An internal invariant of the search or the heuristic does not hold.

    Raised explicitly rather than by ``assert``, so the checks also run
    under ``python -O``.
    """


@dataclass(frozen=True)
class PrefixAlignment:
    moves: tuple[Move, ...]
    total_cost: int
    end_marking: Marking

    def __len__(self) -> int:
        return len(self.moves)

    def activities(self) -> list[str]:
        """First-row projection: observed activities of log and sync moves."""
        return [
            m.activity
            for m in self.moves
            if m.kind in (MoveKind.LOG, MoveKind.SYNC)
        ]

    def model_transitions(self) -> list[str]:
        """Second-row projection: model transitions of model and sync moves."""
        return [
            m.model_transition
            for m in self.moves
            if m.kind in (MoveKind.MODEL, MoveKind.SYNC)
        ]

    def to_records(self) -> list[dict]:
        return [m.to_record() for m in self.moves]


def make_move(t: Move) -> Move:
    """The move itself: a :class:`Move` carries its cost from construction."""
    return t


class BrokenPredecessorChain(KeyError):
    pass


def reconstruct(
    predecessors: dict[int, Move | None], goal: int, root: int, net: SyncProductNet
) -> PrefixAlignment:
    """Walk the predecessor map back from the goal and emit moves in order.

    Each entry maps a packed state of ``net`` to the move that reached it,
    so the state it was fired from is the state minus the move's delta.
    The chain must terminate at the root state, which maps to None.  The
    returned alignment holds the map's own :class:`Move` objects and the
    goal's marking.
    """
    moves: list[Move] = []
    state = goal
    while True:
        if state not in predecessors:
            raise BrokenPredecessorChain(f"state {state:#x} has no predecessor entry")
        move = predecessors[state]
        if move is None:
            if state != root:
                raise BrokenPredecessorChain(
                    f"chain ends at {net.decode(state)}, expected {net.decode(root)}"
                )
            break
        moves.append(move)
        state -= move.delta
    moves.reverse()
    return PrefixAlignment(tuple(moves), sum(m.cost for m in moves), net.decode(goal))


def verify_prefix_alignment(
    alignment: PrefixAlignment, trace: list[str], model: WorkflowNet
) -> bool:
    """Check both projections and per-move consistency; never raises."""
    for t in alignment.moves:
        if t.cost != move_cost(t):
            return False
        if t.kind is MoveKind.SYNC:
            if t.model_label is None or t.activity != t.model_label:
                return False
            if t.model_transition is None or t.trace_transition is None:
                return False
        elif t.kind is MoveKind.LOG:
            if t.model_transition is not None or not t.activity:
                return False
        elif t.kind is MoveKind.MODEL:
            if t.model_transition is None or t.activity is not None:
                return False
    if alignment.activities() != list(trace):
        return False
    if alignment.total_cost != sum(m.cost for m in alignment.moves):
        return False
    for t in alignment.model_transitions():
        if not model.has_transition(t):
            return False
    try:
        fire_sequence(model, model.initial, alignment.model_transitions())
    except NotEnabledError:
        return False
    return True


def render_alignment(alignment: PrefixAlignment) -> str:
    """Two-row table with one column per move, log row on top."""
    if not alignment.moves:
        return "| (empty) |"
    tops, bottoms = zip(*(m.display() for m in alignment.moves))
    widths = [max(len(a), len(b)) for a, b in zip(tops, bottoms)]
    def row(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    return "\n".join([row(tops), row(bottoms)])
