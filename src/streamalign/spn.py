"""Trace nets and synchronous product nets.

The product net couples a linear trace net with a workflow net.  Its
transitions are alignment moves: a log move consumes only trace places, a
model move consumes only model places, and a synchronous move pairs a trace
transition with an equally-labeled visible model transition.  The product is
grown in place, one trace position at a time, and extension is append-only:
existing places, transitions and arcs are never modified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
_TRACE_PLACE = re.compile(r"tp([0-9]+)")


def trace_place(i: int) -> str:
    return f"tp{i}"


def trace_position(place: str) -> int | None:
    """The position ``i`` of trace place ``tp{i}``, None for a model place.

    Model ids matching the generated pattern are rejected when a product net
    is built, so the name alone tells the two parts of a marking apart.
    """
    m = _TRACE_PLACE.fullmatch(place)
    return int(m.group(1)) if m else None


def trace_transition(i: int) -> str:
    return f"tt{i}"


class MoveKind(Enum):
    LOG = "log"
    MODEL = "model"
    SYNC = "sync"


@dataclass(frozen=True)
class SpnTransition:
    """One alignment move of the product net."""

    tid: str
    kind: MoveKind
    trace_transition: str | None  # position-derived id, None for model moves
    model_transition: str | None  # model transition id, None for log moves
    activity: str | None  # observed activity, None for model moves
    model_label: str | None  # label of the model transition, None for log moves

    def label_pair(self) -> tuple[str, str]:
        """The move's label pair: observed activity over model label."""
        top = self.activity if self.kind is not MoveKind.MODEL else SKIP
        if self.kind is MoveKind.LOG:
            bottom = SKIP
        else:
            bottom = self.model_label if self.model_label is not None else "τ"
        return top, bottom

    def display(self) -> tuple[str, str]:
        """Two-row table cell: activity (or skip) over model transition id."""
        top = self.activity if self.kind is not MoveKind.MODEL else SKIP
        bottom = self.model_transition if self.kind is not MoveKind.LOG else SKIP
        return top, bottom

    def __repr__(self) -> str:
        return self.tid


@dataclass(frozen=True)
class TraceNet:
    """Linear net for one activity sequence, with position lookup tables."""

    net: WorkflowNet
    length: int
    place_ids: tuple[str, ...]  # position 0..n
    transition_ids: tuple[str, ...]  # position 1..n


@dataclass(frozen=True)
class ExtensionDelta:
    """What one product-net extension appended, for inspection by callers."""

    new_place: str
    new_transitions: tuple[str, ...]
    new_arcs: tuple[tuple[str, str], ...]


def build_trace_net(trace: list[str]) -> TraceNet:
    """Build the chain net of a non-empty, fully visible trace."""
    if not trace:
        raise ValueError("cannot build a trace net for an empty trace")
    for i, label in enumerate(trace):
        if label is None:
            raise ValueError(f"silent label at trace position {i + 1}")
        if not isinstance(label, str) or not label:
            raise ValueError(f"empty activity label at trace position {i + 1}")
    n = len(trace)
    places = [trace_place(i) for i in range(n + 1)]
    transitions = [trace_transition(i) for i in range(1, n + 1)]
    arcs = []
    labels = {}
    for i in range(1, n + 1):
        arcs.append((trace_place(i - 1), trace_transition(i)))
        arcs.append((trace_transition(i), trace_place(i)))
        labels[trace_transition(i)] = trace[i - 1]
    net = WorkflowNet(
        places,
        transitions,
        arcs,
        labels,
        initial=Marking.of(trace_place(0)),
        final=Marking.of(trace_place(n)),
    )
    return TraceNet(net, n, tuple(places), tuple(transitions))


class SyncProductNet:
    """Product of a growing trace net and a fixed workflow net.

    One instance belongs to one case; callers extend it through
    :func:`extend_spn` as the case's events arrive.  The marking universe
    mixes trace place ids (``tp0`` ...) with the model's own place ids, so
    model ids matching the generated pattern are rejected up front.
    Transitions are registered model moves first and then trace position by
    trace position; the flow heuristic slices its columns by that order.
    """

    def __init__(self, model: WorkflowNet, trace: list[str]):
        if not trace:
            raise ValueError("cannot build a product net for an empty trace")
        report = validate_wfnet(model)
        if not report.ok:
            raise NetDefinitionError(f"model is not a workflow net:\n{report}")
        for node in model.places + model.transitions:
            if _RESERVED_ID.match(node):
                raise NetDefinitionError(
                    f"model id {node!r} collides with generated trace-part ids (tp#/tt#)"
                )
        self.model = model
        self.trace: list[str] = []
        self.version = 0
        self.transitions: dict[str, SpnTransition] = {}
        self._order: list[str] = []
        self._pre: dict[str, tuple[str, ...]] = {}
        self._post: dict[str, tuple[str, ...]] = {}
        self.derived: dict[str, object] = {}

        # static model part: one model move per model transition
        self._model_by_label: dict[str, list[str]] = {}
        for t in model.transitions:
            label = model.label(t)
            self._register(
                SpnTransition(
                    f"model:{t}", MoveKind.MODEL, None, t, None, label
                ),
                pre=model.preset(t),
                post=model.postset(t),
            )
            if label is not None:
                self._model_by_label.setdefault(label, []).append(t)

        self.initial = Marking.of(trace_place(0), *model.initial.places())
        for activity in trace:
            self._append_position(activity)

    # -- construction helpers -------------------------------------------------

    def _register(self, st: SpnTransition, pre: tuple[str, ...], post: tuple[str, ...]):
        self.transitions[st.tid] = st
        self._order.append(st.tid)
        self._pre[st.tid] = tuple(pre)
        self._post[st.tid] = tuple(post)

    def _append_position(self, activity: str) -> ExtensionDelta:
        if activity is None:
            raise ValueError("cannot extend the trace with a silent activity")
        if not isinstance(activity, str) or not activity:
            raise ValueError("cannot extend the trace with an empty activity")
        i = len(self.trace) + 1
        self.trace.append(activity)
        prev_p, new_p, tt = trace_place(i - 1), trace_place(i), trace_transition(i)
        new_transitions: list[str] = []
        new_arcs: list[tuple[str, str]] = [(prev_p, f"log:{tt}"), (f"log:{tt}", new_p)]
        self._register(
            SpnTransition(f"log:{tt}", MoveKind.LOG, tt, None, activity, None),
            pre=(prev_p,),
            post=(new_p,),
        )
        new_transitions.append(f"log:{tt}")
        for t in self._model_by_label.get(activity, ()):
            tid = f"sync:{tt}|{t}"
            pre = (prev_p,) + self.model.preset(t)
            post = (new_p,) + self.model.postset(t)
            self._register(
                SpnTransition(tid, MoveKind.SYNC, tt, t, activity, self.model.label(t)),
                pre=pre,
                post=post,
            )
            new_transitions.append(tid)
            for p in pre:
                new_arcs.append((p, tid))
            for p in post:
                new_arcs.append((tid, p))
        self.version += 1
        self.derived.clear()
        return ExtensionDelta(new_p, tuple(new_transitions), tuple(new_arcs))

    # -- net protocol (shared with WorkflowNet) -------------------------------

    def transition_ids(self) -> tuple[str, ...]:
        return tuple(self._order)

    def has_transition(self, t: str) -> bool:
        return t in self._pre

    def preset(self, t: str) -> tuple[str, ...]:
        try:
            return self._pre[t]
        except KeyError:
            raise UnknownNodeError(t) from None

    def postset(self, t: str) -> tuple[str, ...]:
        try:
            return self._post[t]
        except KeyError:
            raise UnknownNodeError(t) from None

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

    def move(self, tid: str) -> SpnTransition:
        return self.transitions[tid]

    def arcs(self) -> list[tuple[str, str]]:
        out = []
        for tid in self._order:
            out.extend((p, tid) for p in self._pre[tid])
            out.extend((tid, p) for p in self._post[tid])
        return out

    def consumers(self, place: str) -> tuple[str, ...]:
        return tuple(t for t in self._order if place in self._pre[t])

    def structure_key(self):
        """Canonical serialization used by isomorphism and golden tests."""
        return (
            tuple(sorted(self.place_ids())),
            tuple(
                (tid, self.transitions[tid].kind.value, self._pre[tid], self._post[tid])
                for tid in sorted(self._order)
            ),
            self.initial.items,
        )

    def __repr__(self) -> str:
        return f"SyncProductNet(n={self.n}, |T^S|={len(self._order)})"


def build_spn(model: WorkflowNet, trace: list[str]) -> SyncProductNet:
    """Build the product net of a model and a non-empty trace."""
    return SyncProductNet(model, list(trace))


def extend_spn(spn: SyncProductNet, activity: str) -> ExtensionDelta:
    """Append one observed activity to the product net.

    Adds exactly one trace place, one log move and one synchronous move per
    equally-labeled visible model transition; nothing else changes.
    """
    return spn._append_position(activity)
