"""Synchronous product nets and their shared move table.

The product net couples a trace, the chain of places ``tp0 .. tp{n}``, with
a workflow net; no separate trace net is built.  Its transitions are
alignment moves: a log move consumes only trace places, a
model move consumes only model places, and a synchronous move pairs a trace
transition with an equally-labeled visible model transition.  The product is
grown in place, one trace position at a time, and extension is append-only:
existing places, transitions and arcs are never modified.

Every move is built once, in a :class:`MoveTable` of the model: one block
of model moves, and one block per (trace position, activity) holding that
position's log move and synchronous moves.  Each :class:`Move` carries its
id, kind, trace and model transition, activity, label, preset, postset and
cost, so product nets built on one table, and the alignments found on
them, refer to the same moves instead of allocating their own.  A log or
synchronous move of position ``i`` consumes from ``tp{i-1}``, so a marking
whose trace token is on ``tp{k}`` can enable only the model moves and the
moves of position ``k + 1`` (:meth:`SyncProductNet.candidate_moves`).
:meth:`SyncProductNet.split` reads a marking's trace position and model
part for both the estimate memo and the flow heuristic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .petri import (
    Marking,
    NetDefinitionError,
    UnknownNodeError,
    WorkflowNet,
    validate_wfnet,
)

SKIP = ">>"

_RESERVED_ID = re.compile(r"^t[pt][0-9]+$")


def trace_place(i: int) -> str:
    return f"tp{i}"


def trace_transition(i: int) -> str:
    return f"tt{i}"


class MoveKind(Enum):
    LOG = "log"
    MODEL = "model"
    SYNC = "sync"


@dataclass(frozen=True, slots=True)
class Move:
    """One alignment move: a transition of the product net and its cost."""

    tid: str
    kind: MoveKind
    trace_transition: str | None  # position-derived id, None for model moves
    model_transition: str | None  # model transition id, None for log moves
    activity: str | None  # observed activity, None for model moves
    model_label: str | None  # label of the model transition, None for log moves
    pre: tuple[str, ...]
    post: tuple[str, ...]
    cost: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cost", move_cost(self))

    def display(self) -> tuple[str, str]:
        """Two-row table cell: activity (or skip) over model transition id."""
        top = self.activity if self.kind is not MoveKind.MODEL else SKIP
        bottom = self.model_transition if self.kind is not MoveKind.LOG else SKIP
        return top, bottom

    def to_record(self) -> dict:
        return {
            "kind": self.kind.value,
            "activity": self.activity,
            "transition": self.model_transition,
        }

    def __repr__(self) -> str:
        return self.tid


def move_cost(t: Move) -> int:
    """Standard costs: synchronous and silent model moves are free, others cost one."""
    if t.kind is MoveKind.SYNC:
        return 0
    if t.kind is MoveKind.MODEL and t.model_label is None:
        return 0
    return 1


class MoveTable:
    """Every product-net move of one model, each built once.

    Construction validates the model and rejects model ids that match the
    generated trace-part ids (``tp#``/``tt#``), since the marking universe
    mixes both.  The block of a trace position is built the first time a
    product net reaches that position with that activity, and kept for the
    table's lifetime, so the table grows with the distinct (position,
    activity) pairs seen, not with the number of cases.
    """

    def __init__(self, model: WorkflowNet):
        report = validate_wfnet(model)
        if not report.ok:
            raise NetDefinitionError(f"model is not a workflow net:\n{report}")
        for node in model.places + model.transitions:
            if _RESERVED_ID.match(node):
                raise NetDefinitionError(
                    f"model id {node!r} collides with generated trace-part ids (tp#/tt#)"
                )
        self.model = model
        self.initial = Marking.of(trace_place(0), *model.initial.places())
        self._model_by_label: dict[str, list[str]] = {}
        for t in model.transitions:
            label = model.label(t)
            if label is not None:
                self._model_by_label.setdefault(label, []).append(t)
        self.model_moves: tuple[Move, ...] = tuple(
            Move(
                f"model:{t}", MoveKind.MODEL, None, t, None, model.label(t),
                model.preset(t), model.postset(t),
            )
            for t in model.transitions
        )
        # trace place id -> its position, for every position built so far
        self.trace_index: dict[str, int] = {trace_place(0): 0}
        self._positions: dict[tuple[int, str], tuple[Move, ...]] = {}

    def position(self, i: int, activity: str) -> tuple[Move, ...]:
        """The moves of trace position ``i`` observing ``activity``, log move first."""
        block = self._positions.get((i, activity))
        if block is None:
            prev_p, new_p, tt = trace_place(i - 1), trace_place(i), trace_transition(i)
            log = Move(f"log:{tt}", MoveKind.LOG, tt, None, activity, None, (prev_p,), (new_p,))
            block = (log,) + tuple(
                Move(
                    f"sync:{tt}|{t}", MoveKind.SYNC, tt, t, activity, self.model.label(t),
                    (prev_p,) + self.model.preset(t), (new_p,) + self.model.postset(t),
                )
                for t in self._model_by_label.get(activity, ())
            )
            self.trace_index[new_p] = i
            self._positions[i, activity] = block
        return block


class SyncProductNet:
    """Product of a growing trace and a fixed workflow net.

    One instance belongs to one case; callers extend it through
    :func:`extend_spn` as the case's events arrive.  Its moves come from a
    :class:`MoveTable` of the model, shared with other cases when one is
    passed and private otherwise.  Transitions are registered model moves
    first and then trace position by trace position, block by block; the
    flow heuristic reads its columns off those blocks in that order.
    """

    def __init__(self, model: WorkflowNet, trace: list[str], table: MoveTable | None = None):
        if not trace:
            raise ValueError("cannot build a product net for an empty trace")
        if table is None:
            table = MoveTable(model)
        elif table.model is not model:
            raise ValueError("the move table was built for another model")
        self.model = model
        self.table = table
        self.initial = table.initial
        self.trace: list[str] = []
        # blocks[0]: the model moves; blocks[i]: the moves of trace position i
        self.blocks: list[tuple[Move, ...]] = [table.model_moves]
        self._records: dict[str, Move] = {r.tid: r for r in table.model_moves}
        for activity in trace:
            self._append_position(activity)

    def _append_position(self, activity: str) -> tuple[Move, ...]:
        if activity is None:
            raise ValueError("cannot extend the trace with a silent activity")
        if not isinstance(activity, str) or not activity:
            raise ValueError("cannot extend the trace with an empty activity")
        block = self.table.position(len(self.trace) + 1, activity)
        self.trace.append(activity)
        self.blocks.append(block)
        for r in block:
            self._records[r.tid] = r
        return block

    # -- net protocol (shared with WorkflowNet) -------------------------------

    def transition_ids(self) -> tuple[str, ...]:
        return tuple(self._records)

    def has_transition(self, t: str) -> bool:
        return t in self._records

    def preset(self, t: str) -> tuple[str, ...]:
        try:
            return self._records[t].pre
        except KeyError:
            raise UnknownNodeError(t) from None

    def postset(self, t: str) -> tuple[str, ...]:
        try:
            return self._records[t].post
        except KeyError:
            raise UnknownNodeError(t) from None

    # -- moves -----------------------------------------------------------------

    @property
    def transitions(self) -> dict[str, Move]:
        """Every move by id, in registration order."""
        return dict(self._records)

    def move(self, tid: str) -> Move:
        return self._records[tid]

    def candidate_moves(self, marking: Marking) -> tuple[Move, ...]:
        """The moves that can be enabled in ``marking``, in registration order.

        These are the model moves and, for each trace token on ``tp{k}``
        with ``k < n``, the moves of position ``k + 1``; every other move
        consumes from an empty trace place.
        """
        index = self.table.trace_index
        out = self.blocks[0]
        for k in sorted(index[p] for p, _ in marking.items if p in index):
            if k < self.n:
                out += self.blocks[k + 1]
        return out

    def split(self, marking: Marking) -> tuple[int | None, tuple[tuple[str, int], ...]]:
        """The marking's trace position and its model part.

        The position is ``k`` when the marking holds exactly one token on
        the trace places ``tp0 .. tp{n}`` of this net, on ``tp{k}``, and None
        otherwise.  The table's trace places are shared with longer cases,
        so a token on ``tp{j}`` with ``j > n`` makes the position None too.
        The model part holds the (place, count) pairs of every other place.
        """
        index = self.table.trace_index
        k = None
        held = 0
        model_part = []
        for item in marking.items:
            i = index.get(item[0])
            if i is None:
                model_part.append(item)
            else:
                k = i
                held += item[1]
        if held != 1 or k > len(self.trace):
            k = None
        return k, tuple(model_part)

    # -- trace-part views ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.trace)

    @property
    def goal_place(self) -> str:
        """The last trace place; markings holding a token here are goals."""
        return trace_place(self.n)

    def trace_places(self) -> tuple[str, ...]:
        return tuple(trace_place(i) for i in range(self.n + 1))

    def model_places(self) -> tuple[str, ...]:
        return self.model.places

    def place_ids(self) -> tuple[str, ...]:
        return self.trace_places() + self.model.places

    def is_goal(self, marking: Marking) -> bool:
        return marking.get(self.goal_place) >= 1

    def consumers(self, place: str) -> tuple[str, ...]:
        return tuple(r.tid for r in self._records.values() if place in r.pre)

    def structure_key(self):
        """Canonical serialization used by isomorphism and golden tests."""
        return (
            tuple(sorted(self.place_ids())),
            tuple(
                (tid, r.kind.value, r.pre, r.post)
                for tid, r in sorted(self._records.items())
            ),
            self.initial.items,
        )

    def __repr__(self) -> str:
        return f"SyncProductNet(n={self.n}, |T^S|={len(self._records)})"


def build_spn(
    model: WorkflowNet, trace: list[str], table: MoveTable | None = None
) -> SyncProductNet:
    """Build the product net of a model and a non-empty trace.

    ``table`` is a :class:`MoveTable` of ``model`` to share moves with other
    product nets; without one the net builds (and validates) its own.
    """
    return SyncProductNet(model, list(trace), table)


def extend_spn(spn: SyncProductNet, activity: str) -> tuple[Move, ...]:
    """Append one observed activity to the product net and return its moves.

    Adds exactly one trace place, the new ``spn.goal_place``, one log move
    and one synchronous move per equally-labeled visible model transition;
    nothing else changes.  The returned block is the move table's own.
    """
    return spn._append_position(activity)
