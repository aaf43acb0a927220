"""Prefix-alignments: reconstruction, checking and rendering.

Costs follow the standard cost function: synchronous moves and silent model
moves are free, log moves and visible model moves cost one.  Costs are exact
integers throughout.  :class:`Move` and :func:`move_cost` live with the
product net's move table (:mod:`streamalign.spn`) and are re-exported here.

Both the reconstruction and the check of an event's alignment start from
the case's last verified one instead of the initial marking, so the work
per event follows the moves that changed, not the length of the case.
:func:`verify_prefix_alignment` returns a :class:`Checkpoint` of what it
verified and resumes from one when the new alignment extends its moves;
:func:`reconstruct` walks back only to the previous goal state and splices
the previous moves in front.  A resume relies on a case's trace list only
ever growing: extension appends to it, and nothing else changes it.

An alignment the search emits keeps its end as the goal's packed state and
the move table that decodes it; :attr:`PrefixAlignment.end_marking` builds
the :class:`~streamalign.petri.Marking` only when it is read, since the
stream emits one alignment per event and almost none is asked for its end.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

from .petri import Marking, UnknownNodeError, WorkflowNet
from .spn import Move, MoveKind, MoveTable, SyncProductNet, move_cost


class InvariantViolation(RuntimeError):
    """An internal invariant of the search or the heuristic does not hold.

    Raised explicitly rather than by ``assert``, so the checks also run
    under ``python -O``.
    """


class PrefixAlignment:
    """Moves, their cost sum and the product marking they end in.

    The end is kept in one of two forms.  ``PrefixAlignment(moves,
    total_cost, end_marking)`` takes it as a :class:`Marking`;
    :meth:`from_state` takes the goal's packed state, kept as
    ``end_state``, and the :class:`~streamalign.spn.MoveTable` that decodes
    it.  :attr:`end_marking` decodes a packed end on first read, through
    :meth:`MoveTable.decode`, and keeps the result.  Equality and hashing
    are over (moves, total cost, end marking), whichever form the end came
    in, and no attribute can be assigned once the alignment is built.
    """

    __slots__ = ("moves", "total_cost", "end_state", "_table", "_end")

    def __init__(self, moves: tuple[Move, ...], total_cost: int, end_marking: Marking):
        init = object.__setattr__
        init(self, "moves", moves)
        init(self, "total_cost", total_cost)
        init(self, "end_state", None)
        init(self, "_table", None)
        init(self, "_end", end_marking)

    @classmethod
    def from_state(
        cls, moves: tuple[Move, ...], total_cost: int, state: int, table: MoveTable
    ) -> PrefixAlignment:
        """An alignment ending in the packed ``state`` of ``table``'s layout."""
        self = object.__new__(cls)
        init = object.__setattr__
        init(self, "moves", moves)
        init(self, "total_cost", total_cost)
        init(self, "end_state", state)
        init(self, "_table", table)
        init(self, "_end", None)
        return self

    @property
    def end_marking(self) -> Marking:
        end = self._end
        if end is None:
            end = self._table.decode(self.end_state)
            object.__setattr__(self, "_end", end)
        return end

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.moves, self.total_cost, self.end_marking

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"PrefixAlignment(moves={self.moves!r}, total_cost={self.total_cost!r}, "
            f"end_marking={self.end_marking!r})"
        )

    def __len__(self) -> int:
        return len(self.moves)

    def to_records(self) -> list[dict]:
        return [m.to_record() for m in self.moves]


def make_move(t: Move) -> Move:
    """The move itself: a :class:`Move` carries its cost from construction."""
    return t


class BrokenPredecessorChain(InvariantViolation):
    """The predecessor map does not lead from the goal back to the root."""


@dataclass(slots=True)
class Checkpoint:
    """What :func:`verify_prefix_alignment` verified of one alignment.

    ``marking`` holds the model's token counts after the alignment's model
    moves, fired by the model's own presets and postsets; ``consumed`` is
    the number of trace events the moves observe and ``cost`` their cost
    sum.  ``model`` and ``trace`` are the objects it was verified against.
    Nothing changes a checkpoint after it is made; it is not frozen only
    because a frozen dataclass is several times slower to build, and one is
    built per event.
    """

    moves: tuple[Move, ...]
    marking: dict[str, int]
    consumed: int
    cost: int
    model: WorkflowNet
    trace: list[str]


def reconstruct(
    predecessors: dict[int, Move | None],
    goal: int,
    root: int,
    net: SyncProductNet,
    splice: tuple[int, Checkpoint] | None = None,
) -> PrefixAlignment:
    """Walk the predecessor map back from the goal and emit moves in order.

    Each entry maps a packed state of ``net`` to the move that reached it,
    so the state it was fired from is the state minus the move's delta.
    The chain must terminate at the root state, which maps to None.  The
    returned alignment holds the map's own :class:`Move` objects and ends
    in the packed goal (:meth:`PrefixAlignment.from_state`), so nothing is
    decoded unless its ``end_marking`` is read.

    ``splice`` is an optional (state, checkpoint) pair: a state on a path
    from the root and the checkpoint of the moves that reach it along the
    map.  The walk stops there and puts those moves in front.  The caller
    passes it only while the map still leads from that state to the root
    along exactly those moves; a walk that does not meet the state goes on
    to the root.
    """
    stop, prefix = splice if splice is not None else (None, None)
    moves: list[Move] = []
    cost = 0
    state = goal
    while state != stop:
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
        cost += move.cost
        state -= move.delta
    moves.reverse()
    if state == stop:
        return PrefixAlignment.from_state(
            prefix.moves + tuple(moves), prefix.cost + cost, goal, net.table
        )
    return PrefixAlignment.from_state(tuple(moves), cost, goal, net.table)


def verify_prefix_alignment(
    alignment: PrefixAlignment,
    trace: list[str],
    model: WorkflowNet,
    since: Checkpoint | None = None,
) -> Checkpoint | None:
    """Check both projections and per-move consistency in one pass.

    Returns the :class:`Checkpoint` of the alignment, or None when any
    check fails; never raises.  Every move must carry its cost and the
    fields of its kind, the observed activities must be ``trace``, the
    model transitions must exist and fire in order from the model's
    initial marking, and ``total_cost`` must be the cost sum.

    With ``since`` from an earlier call for the same ``model`` and the same
    ``trace`` list, whose moves are a prefix of ``alignment.moves``, only
    the moves after them are checked, from the checkpoint's marking.  That
    is sound because a case's trace list only ever grows, so the events the
    checkpoint consumed are still the trace's first ones.  Any other
    ``since`` is ignored and the whole alignment is checked.
    """
    moves = alignment.moves
    if (
        since is not None
        and since.model is model
        and since.trace is trace
        and moves[: len(since.moves)] == since.moves
    ):
        start, marking = len(since.moves), dict(since.marking)
        consumed, cost = since.consumed, since.cost
    else:
        start, marking = 0, model.initial.to_dict()
        consumed = cost = 0
    n_events = len(trace)
    for i in range(start, len(moves)):
        t = moves[i]
        if t.cost != move_cost(t):
            return None
        kind = t.kind
        if kind is MoveKind.MODEL:
            if t.model_transition is None or t.activity is not None:
                return None
        elif kind is MoveKind.SYNC:
            if t.model_label is None or t.activity != t.model_label:
                return None
            if t.model_transition is None or t.trace_transition is None:
                return None
        elif kind is MoveKind.LOG:
            if t.model_transition is not None or not t.activity:
                return None
        if kind is MoveKind.LOG or kind is MoveKind.SYNC:
            if consumed == n_events or trace[consumed] != t.activity:
                return None
            consumed += 1
        if kind is MoveKind.MODEL or kind is MoveKind.SYNC:
            try:
                pre, post = model.preset(t.model_transition), model.postset(t.model_transition)
            except UnknownNodeError:
                return None
            for p in pre:
                count = marking.get(p, 0)
                if count <= 0:
                    return None
                if count == 1:
                    del marking[p]
                else:
                    marking[p] = count - 1
            for p in post:
                marking[p] = marking.get(p, 0) + 1
        cost += t.cost
    if consumed != n_events or alignment.total_cost != cost:
        return None
    return Checkpoint(moves, marking, consumed, cost, model, trace)


def render_alignment(alignment: PrefixAlignment) -> str:
    """Two-row table with one column per move, log row on top."""
    if not alignment.moves:
        return "| (empty) |"
    tops, bottoms = zip(*(m.display() for m in alignment.moves))
    widths = [max(len(a), len(b)) for a, b in zip(tops, bottoms)]
    def row(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    return "\n".join([row(tops), row(bottoms)])
