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
A product net therefore stores no move of its own: per trace position it
keeps the table's tuple of those candidate moves.  Code that wants the
product as an ordinary Petri net, such as the reference oracles, asks for
:meth:`SyncProductNet.petri_net`.

:class:`~streamalign.petri.Marking` is the public type of a product
marking; the search and the heuristic run on the table's encoding of it as
one ``int`` (:meth:`MoveTable.encode`, :meth:`MoveTable.decode`;
:attr:`MoveTable.fields` gives the offset of each model place's field).
Every reachable product marking holds exactly one trace token, so a state
is its trace position ``k`` and its model marking.  ``k`` sits above bit
:attr:`MoveTable.shift`; below it lie one field per place, in sorted
place-id order with the first place highest.  A model place has
:data:`FIELD_BITS` bits, a count under a guard bit, so it holds at most
:data:`FIELD_MAX` tokens.  The trace token has one field per run of trace
place ids between two model place ids (usually a single run), holding a
number whose order is the string order of ``tp{k}`` (``tp10`` sorts before
``tp2``).  Each move carries the int it adds to a state (``delta``: postset
minus preset, and one step of the trace token for log and synchronous
moves) and the guard bits of its model preset (``need``); a state enables
a move iff every needed field is nonzero, and a firing whose result sets a
guard bit would overflow a field, so it raises
:class:`~streamalign.petri.StateSpaceTooLarge` instead of wrapping.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

from .petri import (
    Marking,
    NetDefinitionError,
    StateSpaceTooLarge,
    WorkflowNet,
    validate_wfnet,
)

SKIP = ">>"

_RESERVED_ID = re.compile(r"^t[pt][0-9]+$")

FIELD_BITS = 8  # bits per model place in a packed state: a count under a guard bit
FIELD_MAX = (1 << (FIELD_BITS - 1)) - 1  # most tokens one model place can hold
TRACE_DIGITS = 9  # packed states reach trace positions below 10**TRACE_DIGITS
_TRACE_BITS = (11**TRACE_DIGITS - 1).bit_length() + 1  # order code under a guard bit


def _order_code(k: int) -> int:
    """A positive number below 11**TRACE_DIGITS ordered as the id ``tp{k}``.

    Each decimal digit d becomes d + 1 in base 11 and missing digits 0, so
    a prefix sorts first, as in string order.
    """
    digits = str(k)
    if len(digits) > TRACE_DIGITS:
        raise StateSpaceTooLarge(f"trace position {k} is past the packed state's limit")
    code = 0
    for i in range(TRACE_DIGITS):
        code = code * 11 + (int(digits[i]) + 1 if i < len(digits) else 0)
    return code


def check_reserved_ids(model: WorkflowNet) -> None:
    """Raise NetDefinitionError for a model id that matches the generated
    trace-part ids (``tp#``/``tt#``), which a product net's markings and
    moves mix with the model's own."""
    for node in model.places + model.transitions:
        if _RESERVED_ID.match(node):
            raise NetDefinitionError(
                f"model id {node!r} collides with generated trace-part ids (tp#/tt#)"
            )


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
    delta: int = field(compare=False)  # added to a packed state by firing
    need: int = field(compare=False)  # guard bits of the model preset
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
    """Every product-net move of one model, each built once, and the packed
    state layout of the model's product nets.

    Construction validates the model and rejects model ids that match the
    generated trace-part ids (:func:`check_reserved_ids`).  The block of a
    trace position is built the first time a product net reaches that
    position with that activity, and kept for the table's lifetime, so the
    table grows with the distinct (position, activity) pairs seen, not with
    the number of cases.  The layout is fixed at construction, since the
    model's places are (see the module docstring).

    ``memo`` holds the flow-program values that searches on the table's
    product nets have solved (see :mod:`streamalign.search`).  A program's
    value depends on the model, not on the case, so every net on the table
    shares them: one memo per model holds by construction.  ``program`` is
    the model's :class:`~streamalign.heuristic.FlowProgram`, the one
    constraint matrix of those flow programs, built by the first estimate.
    """

    def __init__(self, model: WorkflowNet):
        report = validate_wfnet(model)
        if not report.ok:
            raise NetDefinitionError(f"model is not a workflow net:\n{report}")
        check_reserved_ids(model)
        self.model = model
        self.initial = Marking.of(trace_place(0), *model.initial.places())
        self._layout(model.places)
        self._model_by_label: dict[str, list[str]] = {}
        for t in model.transitions:
            label = model.label(t)
            if label is not None:
                self._model_by_label.setdefault(label, []).append(t)
        self.model_moves: tuple[Move, ...] = tuple(
            Move(
                f"model:{t}", MoveKind.MODEL, None, t, None, model.label(t),
                model.preset(t), model.postset(t),
                *self._model_delta(model.preset(t), model.postset(t)),
            )
            for t in model.transitions
        )
        # trace place id -> its position, for every position built so far
        self.trace_index: dict[str, int] = {}
        # position -> the bits of a state whose trace token is on it
        self._trace_bits: dict[int, int] = {}
        self._add_trace_place(0)
        self.initial_state = self.encode(self.initial)  # the packed initial marking
        # (position, activity) -> its block and the expansion ending in it
        self._positions: dict[tuple[int, str], tuple[tuple[Move, ...], tuple[Move, ...]]] = {}
        self.memo: dict[tuple, object] = {}  # memo_key -> estimate, filled by the search
        self.program = None  # the FlowProgram, built by the first estimate

    def _layout(self, places: tuple[str, ...]) -> None:
        # Every trace place id sorts in [tp0, tp:), so the trace token can
        # only fall into the gaps between model ids that this range covers.
        self._places = places
        first, last = bisect_left(places, trace_place(0)), bisect_left(places, "tp:")
        slots: list[str | int] = []  # sorted order: model places and gap numbers
        for gap in range(len(places) + 1):
            if first <= gap <= last:
                slots.append(gap)
            if gap < len(places):
                slots.append(places[gap])
        offset = 0
        self._offsets: dict[str, int] = {}
        self._gap_offsets: dict[int, int] = {}
        for slot in reversed(slots):  # the first place in sorted order ends up highest
            if isinstance(slot, int):
                self._gap_offsets[slot] = offset
                offset += _TRACE_BITS
            else:
                self._offsets[slot] = offset
                offset += FIELD_BITS
        self.shift = offset  # the trace position lies above every field
        guard = 1 << (FIELD_BITS - 1)
        self.guards = sum(guard << o for o in self._offsets.values())
        self.lows = sum(1 << o for o in self._offsets.values())
        self.model_mask = sum(((1 << FIELD_BITS) - 1) << o for o in self._offsets.values())
        trace_guard = 1 << (_TRACE_BITS - 1)
        self._tie_guards = self.guards + sum(trace_guard << o for o in self._gap_offsets.values())
        self._tie_lows = self.lows + sum(1 << o for o in self._gap_offsets.values())
        self.fields = tuple(self._offsets.items())  # (model place, offset of its field)

    def _add_trace_place(self, i: int) -> None:
        place = trace_place(i)
        offset = self._gap_offsets[bisect_left(self._places, place)]
        self.trace_index[place] = i
        self._trace_bits[i] = (i << self.shift) + (_order_code(i) << offset)

    def _model_delta(self, pre: tuple[str, ...], post: tuple[str, ...]) -> tuple[int, int]:
        offsets, guard = self._offsets, 1 << (FIELD_BITS - 1)
        delta = sum(1 << offsets[p] for p in post) - sum(1 << offsets[p] for p in pre)
        return delta, sum(guard << offsets[p] for p in pre)

    def extension(
        self, i: int, activity: str
    ) -> tuple[tuple[Move, ...], tuple[Move, ...]]:
        """What observing ``activity`` at trace position ``i`` adds to a
        product net: the moves of trace position ``i`` observing
        ``activity``, log move first, and the moves a state on ``tp{i-1}``
        can try, the model moves followed by that block."""
        entry = self._positions.get((i, activity))
        if entry is None:
            if i not in self._trace_bits:
                self._add_trace_place(i)
            step = self._trace_bits[i] - self._trace_bits[i - 1]
            prev_p, new_p, tt = trace_place(i - 1), trace_place(i), trace_transition(i)
            log = Move(
                f"log:{tt}", MoveKind.LOG, tt, None, activity, None, (prev_p,), (new_p,), step, 0
            )
            syncs = []
            for t in self._model_by_label.get(activity, ()):
                pre, post = self.model.preset(t), self.model.postset(t)
                delta, need = self._model_delta(pre, post)
                syncs.append(Move(
                    f"sync:{tt}|{t}", MoveKind.SYNC, tt, t, activity, self.model.label(t),
                    (prev_p,) + pre, (new_p,) + post, step + delta, need,
                ))
            block = (log, *syncs)
            entry = self._positions[i, activity] = (block, self.model_moves + block)
        return entry

    # -- packed states ---------------------------------------------------------

    def encode(self, marking: Marking) -> int:
        """The packed state of a product marking.

        Raises ValueError unless the marking holds exactly one token on a
        trace place of this table and its other places are model places,
        and StateSpaceTooLarge for a count past :data:`FIELD_MAX`.
        """
        state, k = 0, None
        for place, count in marking.items:
            offset = self._offsets.get(place)
            if offset is not None:
                if count > FIELD_MAX:
                    raise StateSpaceTooLarge(
                        f"place {place!r} holds {count} tokens, more than {FIELD_MAX}"
                    )
                state += count << offset
            elif place in self.trace_index:
                if k is not None or count != 1:
                    raise ValueError(f"marking {marking} holds more than one trace token")
                k = self.trace_index[place]
            else:
                raise ValueError(f"marking {marking} marks {place!r}, not a place of the table")
        if k is None:
            raise ValueError(f"marking {marking} holds no trace token")
        return state + self._trace_bits[k]

    def decode(self, state: int) -> Marking:
        """The product marking of a packed state."""
        mask = (1 << FIELD_BITS) - 1
        counts = {}
        for place, offset in self.fields:
            count = (state >> offset) & mask
            if count:
                counts[place] = count
        counts[trace_place(state >> self.shift)] = 1
        return Marking._trusted(counts)

    def tie_key(self, state: int) -> int:
        """An int that orders states as the ``items`` of their markings.

        Walking the places in sorted order, ``items`` compares counts and
        puts a place a marking lacks after every count when the marking
        still has a later place (the other marking's tuple is shorter
        there) and before it otherwise.  So each empty field before the last
        marked one gets its guard bit, which exceeds every count; the
        trace fields take part with their order codes.
        """
        fields = state & ((1 << self.shift) - 1)
        guards = self._tie_guards
        marked = ((fields | guards) - self._tie_lows) & guards
        last = marked & -marked
        return fields | ((guards ^ marked) & -(last << 1))

    def overflow(self, state: int) -> StateSpaceTooLarge:
        """The error for a firing that produced ``state`` with a guard bit set."""
        guard = 1 << (FIELD_BITS - 1)
        full = [p for p, offset in self.fields if state & (guard << offset)]
        return StateSpaceTooLarge(
            f"place {full[0]!r} would hold more than {FIELD_MAX} tokens; "
            "the product net is unbounded or too large to search"
        )


class SyncProductNet:
    """Product of a growing trace and a fixed workflow net.

    One instance belongs to one case; callers extend it through
    :func:`extend_spn` as the case's events arrive.  Its moves come from a
    :class:`MoveTable` of the model, shared with other cases when one is
    passed and private otherwise, and so does the estimate memo of its
    searches (:attr:`MoveTable.memo`).  The net keeps only its trace and, per
    trace position, the table's tuple of the moves a state before that
    position can try; no move is stored per net.  The search sees the
    net's markings as the table's packed states (:meth:`encode`,
    :meth:`decode`, :meth:`candidate_moves`).
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
        # expansions[k]: the moves a state on tp{k} can try, for k < n
        self._expansions: list[tuple[Move, ...]] = []
        self._shift = table.shift
        # prefix_counts[i]: the count in trace[:i] of each activity row of
        # the model's flow program, then the summed cost of the log moves
        # of trace[:i]; built and extended by heuristic.build_problem, so
        # only a net that is estimated has them
        self.prefix_counts: list[tuple[int, ...]] | None = None
        for activity in trace:
            self._append_position(activity)

    def _append_position(self, activity: str) -> tuple[Move, ...]:
        if activity is None:
            raise ValueError("cannot extend the trace with a silent activity")
        if not isinstance(activity, str) or not activity:
            raise ValueError("cannot extend the trace with an empty activity")
        block, expansion = self.table.extension(len(self.trace) + 1, activity)
        self._expansions.append(expansion)
        self.trace.append(activity)
        return block

    def _moves(self) -> list[Move]:
        """Every move of the net, in registration order."""
        model_moves = self.table.model_moves
        m = len(model_moves)
        return [*model_moves, *(move for expansion in self._expansions for move in expansion[m:])]

    # -- moves -----------------------------------------------------------------

    @property
    def transitions(self) -> dict[str, Move]:
        """Every move by id, in registration order: model moves first, then
        trace position by trace position, block by block."""
        return {m.tid: m for m in self._moves()}

    def move(self, tid: str) -> Move:
        return self.transitions[tid]

    def petri_net(self) -> WorkflowNet:
        """This product as a plain :class:`~streamalign.petri.WorkflowNet`.

        Its places are ``tp0 .. tp{n}`` and the model's places, its
        transitions the move ids with the moves' presets and postsets as
        arcs, labeled with the activity (the model label for model moves);
        its initial marking is :attr:`initial` and its final marking one
        token on :attr:`goal_place`.  It is built on each call, for the
        reference oracles, which fire on it with :mod:`streamalign.petri`.
        A model place whose id equals a move id (``model:t1``) makes it
        raise NetDefinitionError.
        """
        moves = self._moves()
        return WorkflowNet(
            [trace_place(i) for i in range(self.n + 1)] + list(self.model.places),
            [m.tid for m in moves],
            [(p, m.tid) for m in moves for p in m.pre] + [(m.tid, p) for m in moves for p in m.post],
            {m.tid: m.model_label if m.kind is MoveKind.MODEL else m.activity for m in moves},
            self.initial,
            Marking.of(self.goal_place),
        )

    def candidate_moves(self, state: int) -> tuple[Move, ...]:
        """The moves that can be enabled in a packed state, in registration order.

        These are the model moves and, when the trace token is on ``tp{k}``
        with ``k < n``, the moves of position ``k + 1``; every other move
        consumes from an empty trace place.
        """
        k = state >> self._shift
        return self._expansions[k] if k < len(self._expansions) else self.table.model_moves

    def encode(self, marking: Marking) -> int:
        """The packed state of a marking of this net (see :meth:`MoveTable.encode`).

        Also raises ValueError when the trace token lies beyond ``tp{n}``.
        """
        state = self.table.encode(marking)
        if state >> self._shift > self.n:
            raise ValueError(f"marking {marking} has its trace token beyond {self.goal_place}")
        return state

    def decode(self, state: int) -> Marking:
        return self.table.decode(state)

    # -- trace-part views ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.trace)

    @property
    def goal_place(self) -> str:
        """The last trace place; markings holding a token here are goals."""
        return trace_place(self.n)

    def __repr__(self) -> str:
        return f"SyncProductNet(n={self.n}, |T^S|={len(self._moves())})"


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
