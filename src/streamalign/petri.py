"""Labeled Petri nets, workflow nets and marking semantics.

Transitions carry an activity label; silent transitions are labeled ``None``
(never an empty or reserved string).  Markings are immutable multisets of
place ids, hashable and canonically ordered.  :class:`Marking` is the
public type of a marking everywhere, the oracles search over it directly,
and the A* search encodes each product marking as one ``int`` (see
:mod:`streamalign.spn`).  Arc weights are fixed at one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

class NetDefinitionError(ValueError):
    """The net refers to undeclared nodes or is otherwise malformed."""


class UnknownNodeError(KeyError):
    """A place or transition id does not exist in the net."""


class NotEnabledError(RuntimeError):
    """A transition was fired in a marking that does not enable it."""

    def __init__(self, transition: str, missing_place: str, step: int | None = None):
        self.transition = transition
        self.missing_place = missing_place
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(
            f"transition {transition!r} is not enabled{where}: "
            f"place {missing_place!r} holds no token"
        )


class Marking:
    """Immutable multiset of place ids.

    Internally a tuple of (place, count) pairs sorted by place id with zero
    counts dropped, which makes equality, hashing and ordering canonical.
    Counts must be ``int`` (not ``bool``): the search adds them into bit
    fields of a packed state.
    """

    __slots__ = ("items", "_map", "_hash")

    def __init__(self, counts: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        pairs = counts.items() if isinstance(counts, Mapping) else counts
        acc: dict[str, int] = {}
        for place, count in pairs:
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"token count {count!r} for place {place!r} is not an integer")
            if count < 0:
                raise ValueError(f"negative token count {count} for place {place!r}")
            if count:
                acc[place] = acc.get(place, 0) + count
        self.items: tuple[tuple[str, int], ...] = tuple(sorted(acc.items()))
        self._map = acc
        self._hash = hash(self.items)

    @classmethod
    def _trusted(cls, counts: dict[str, int]) -> "Marking":
        """A marking over ``counts`` without the public checks.

        The caller guarantees that every count is positive and hands the
        dict over: the marking keeps it, so it must not change afterwards.
        """
        marking = object.__new__(cls)
        marking._map = counts
        marking.items = tuple(sorted(counts.items()))
        marking._hash = hash(marking.items)
        return marking

    @classmethod
    def of(cls, *places: str) -> "Marking":
        counts: dict[str, int] = {}
        for p in places:
            counts[p] = counts.get(p, 0) + 1
        return cls(counts)

    def get(self, place: str) -> int:
        return self._map.get(place, 0)

    def places(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.items)

    def to_dict(self) -> dict[str, int]:
        return dict(self.items)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and self.items == other.items

    def __lt__(self, other: "Marking") -> bool:
        return self.items < other.items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(p if c == 1 else f"{p}^{c}" for p, c in self.items)
        return f"[{body}]"


class WorkflowNet:
    """A labeled Petri net with designated initial and final markings.

    Construction checks that ids are strings, that arcs are pairs of ids
    that resolve and that places and transitions are disjoint; the
    workflow-net structural properties (unique source/sink, every node on a
    source-to-sink path) are checked by :func:`validate_wfnet` and reported
    as data rather than raised.
    """

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        arcs: Iterable[tuple[str, str]],
        labels: Mapping[str, str | None],
        initial: Marking,
        final: Marking,
    ):
        places, transitions = list(places), list(transitions)
        for node in places + transitions:
            if not isinstance(node, str):
                raise NetDefinitionError(f"node id {node!r} is not a string")
        self.places: tuple[str, ...] = tuple(sorted(set(places)))
        self.transitions: tuple[str, ...] = tuple(sorted(set(transitions)))
        place_set, trans_set = set(self.places), set(self.transitions)
        if place_set & trans_set:
            raise NetDefinitionError(
                f"ids used both as place and transition: {sorted(place_set & trans_set)}"
            )
        arcs = list(arcs)
        for arc in arcs:
            if not (isinstance(arc, tuple) and len(arc) == 2 and all(isinstance(n, str) for n in arc)):
                raise NetDefinitionError(f"arc {arc!r} is not a pair of strings")
        self.arcs: frozenset[tuple[str, str]] = frozenset(arcs)
        for src, tgt in self.arcs:
            ok = (src in place_set and tgt in trans_set) or (
                src in trans_set and tgt in place_set
            )
            if not ok:
                raise NetDefinitionError(f"arc ({src!r}, {tgt!r}) does not connect a declared place and transition")
        self.labels: dict[str, str | None] = dict(labels)
        for t in self.transitions:
            if t not in self.labels:
                raise NetDefinitionError(f"transition {t!r} has no label entry")
            lab = self.labels[t]
            if lab is not None and (not isinstance(lab, str) or not lab):
                raise NetDefinitionError(f"transition {t!r} has an empty or non-text label")
        for node in initial.places() + final.places():
            if node not in place_set:
                raise NetDefinitionError(f"marking refers to unknown place {node!r}")
        self.initial = initial
        self.final = final

        pre: dict[str, list[str]] = {t: [] for t in self.transitions}
        post: dict[str, list[str]] = {t: [] for t in self.transitions}
        p_pre: dict[str, list[str]] = {p: [] for p in self.places}
        p_post: dict[str, list[str]] = {p: [] for p in self.places}
        for src, tgt in sorted(self.arcs):
            if src in place_set:
                pre[tgt].append(src)
                p_post[src].append(tgt)
            else:
                post[src].append(tgt)
                p_pre[tgt].append(src)
        self._pre = {t: tuple(v) for t, v in pre.items()}
        self._post = {t: tuple(v) for t, v in post.items()}
        self._place_pre = {p: tuple(v) for p, v in p_pre.items()}
        self._place_post = {p: tuple(v) for p, v in p_post.items()}

    # transition/place neighborhood accessors
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

    def place_preset(self, p: str) -> tuple[str, ...]:
        return self._place_pre[p]

    def place_postset(self, p: str) -> tuple[str, ...]:
        return self._place_post[p]

    def label(self, t: str) -> str | None:
        return self.labels[t]

    def visible_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({l for l in self.labels.values() if l is not None}))

    def __repr__(self) -> str:
        return (
            f"WorkflowNet(|P|={len(self.places)}, |T|={len(self.transitions)}, "
            f"|F|={len(self.arcs)})"
        )


@dataclass(frozen=True)
class Violation:
    rule: str
    nodes: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate_wfnet(net: WorkflowNet) -> ValidationReport:
    """Check the workflow-net structural invariants.

    Violations are returned, not raised: unique source place (no incoming
    arcs), unique sink place (no outgoing arcs), source distinct from sink,
    initial/final markings equal to one token on source/sink, and every node
    on a directed path from source to sink.
    """
    out: list[Violation] = []
    sources = [p for p in net.places if not net.place_preset(p)]
    sinks = [p for p in net.places if not net.place_postset(p)]

    if len(sources) != 1:
        out.append(
            Violation("unique-source", tuple(sources), f"expected exactly one source place, found {sources}")
        )
    if len(sinks) != 1:
        out.append(
            Violation("unique-sink", tuple(sinks), f"expected exactly one sink place, found {sinks}")
        )
    source = sources[0] if len(sources) == 1 else None
    sink = sinks[0] if len(sinks) == 1 else None
    if source is not None and sink is not None and source == sink:
        out.append(Violation("source-equals-sink", (source,), f"source place equals sink place ({source!r})"))

    if source is not None and net.initial != Marking.of(source):
        out.append(
            Violation("initial-marking", (source,), f"initial marking {net.initial} is not [{source}]")
        )
    if sink is not None and net.final != Marking.of(sink):
        out.append(
            Violation("final-marking", (sink,), f"final marking {net.final} is not [{sink}]")
        )

    if source is not None and sink is not None and source != sink:
        # The source has no incoming arc, so with a sink-to-source arc added
        # its strongly connected component is exactly the source plus every
        # node that is reachable from the source and reaches the sink.
        successors: dict[str, list[str]] = {n: [] for n in net.places + net.transitions}
        predecessors: dict[str, list[str]] = {n: [] for n in successors}
        for src, tgt in net.arcs:
            successors[src].append(tgt)
            predecessors[tgt].append(src)
        on_path = {source} | (_reach(source, successors) & _reach(sink, predecessors))
        for node in sorted(successors.keys() - on_path):
            out.append(
                Violation("not-on-path", (node,), f"node {node!r} is not on a path from {source!r} to {sink!r}")
            )

    return ValidationReport(tuple(out))


def _reach(start: str, neighbours: Mapping[str, list[str]]) -> set[str]:
    """Every node reachable from ``start`` along ``neighbours``, itself included."""
    seen = {start}
    stack = [start]
    while stack:
        for n in neighbours[stack.pop()]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


def enabled(net: WorkflowNet, marking: Marking, transition: str) -> bool:
    """True iff every pre-place of the transition holds a token."""
    if not net.has_transition(transition):
        raise UnknownNodeError(transition)
    return all(marking.get(p) > 0 for p in net.preset(transition))


def fire(net: WorkflowNet, marking: Marking, transition: str) -> Marking:
    """Fire an enabled transition and return the successor marking.

    The input marking is left untouched.  Self-loop places (in both the
    pre- and postset) keep their count.
    """
    pre = net.preset(transition)  # raises UnknownNodeError for unknown ids
    counts = dict(marking._map)
    for p in pre:
        c = counts.get(p, 0)
        if c <= 0:
            raise NotEnabledError(transition, p)
        if c == 1:
            del counts[p]
        else:
            counts[p] = c - 1
    for p in net.postset(transition):
        counts[p] = counts.get(p, 0) + 1
    return Marking._trusted(counts)


def fire_sequence(net: WorkflowNet, marking: Marking, transitions: Iterable[str]) -> Marking:
    """Left-fold of :func:`fire`; reports the first failing index."""
    current = marking
    for idx, t in enumerate(transitions):
        try:
            current = fire(net, current, t)
        except NotEnabledError as exc:
            raise NotEnabledError(exc.transition, exc.missing_place, step=idx) from None
    return current


def enabled_transitions(net: WorkflowNet, marking: Marking) -> list[str]:
    """All transitions enabled in the marking, in the net's canonical order."""
    out = []
    for t in net.transitions:
        if all(marking.get(p) > 0 for p in net.preset(t)):
            out.append(t)
    return out


class StateSpaceTooLarge(RuntimeError):
    pass


def enumerate_state_space(
    net: WorkflowNet, start: Marking, bound: int = 10**5
) -> tuple[list[Marking], list[tuple[Marking, str, Marking]]]:
    """Breadth-first enumeration of all markings reachable from ``start``.

    Returns the markings in discovery order and the full edge list.  Raises
    :class:`StateSpaceTooLarge` beyond ``bound`` markings.  Intended for
    tests and oracles on small nets.
    """
    seen: dict[Marking, None] = {start: None}
    frontier = [start]
    edges: list[tuple[Marking, str, Marking]] = []
    while frontier:
        m = frontier.pop(0)
        for t in enabled_transitions(net, m):
            m2 = fire(net, m, t)
            edges.append((m, t, m2))
            if m2 not in seen:
                if len(seen) >= bound:
                    raise StateSpaceTooLarge(f"more than {bound} reachable markings")
                seen[m2] = None
                frontier.append(m2)
    return list(seen), edges
