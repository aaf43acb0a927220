"""Shortest-path search over the product-net state space.

:func:`astar_inc` resumes search from the cache left behind by the
previous event of the same case: extension never rewires the explored
region, so cost-so-far values stay valid and only the estimates toward the
new goal place need refreshing.  ``eager`` refresh recomputes every open
estimate up front; ``lazy`` refresh marks open states outdated and refreshes
one state at a time when it is popped, skipping its goal test and expansion
for that pop.  Under the ``zero`` heuristic neither policy refreshes
anything, since a zero estimate cannot change.

The returned goal state is deliberately left in the open set: the next
extension may grow cheaper continuations through it.  The cache also keeps
that goal and the checkpoint of its verified alignment.  The next event's
reconstruction walks back only to the old goal and splices the old moves in
front, as long as the old goal's ``g`` still equals their cost and the
search reopened no closed state: a predecessor entry is overwritten only by
a strictly cheaper path, so the old goal's chain is then unchanged.  The
next verification resumes from the checkpoint when the new alignment
begins with its moves.  Neither changes which alignment is emitted.

The search runs on packed states: each product marking is one ``int`` in
the layout of the net's move table (see :mod:`streamalign.spn`), so the
cache, the open set and the predecessor map hold ints, which the cyclic
garbage collector does not track.  The packed state is the only state
type of the search core: a start is given as one, :class:`SearchCache`
keys ``g`` and ``stale`` by it, and the estimate is asked for it.  A cache
lives as long as its case, so it keeps each piece of search state once, in
slotted attributes (see :class:`SearchCache`).
Even the emitted alignment ends in the packed goal, and
:class:`~streamalign.petri.Marking` appears only when a caller reads its
``end_marking``; callers that hold a marking convert it with
:meth:`~streamalign.spn.SyncProductNet.encode` and
:meth:`~streamalign.spn.SyncProductNet.decode`.

Expansion is indexed by trace position.  A state whose trace token sits
on ``tp{k}`` tries only the model moves and then the moves of position
``k + 1`` (:meth:`~streamalign.spn.SyncProductNet.candidate_moves`); every
other move consumes from an empty trace place.  That is the order of a scan
over all moves with the moves that cannot be enabled left out, so ties
break as in the full scan.  One mask per expanded state marks its nonempty
model places; a move is enabled when its ``need`` bits are all marked, and
firing adds its ``delta``.  A firing that would overflow a place's field
raises :class:`~streamalign.petri.StateSpaceTooLarge`.  Each move is a
:class:`~streamalign.spn.Move` of the product net's move table, which
carries its cost and which the search stores as a state's predecessor
entry: the state it was fired from is the state minus the move's delta, so
reconstruction allocates no moves.  The search reports what it did only
through :class:`SearchMetrics`; it asks the net for a state's candidate
moves exactly once per expansion.

Callers may pass a ``memo``, a dict of estimates shared by every search of
one model.  The flow program of a marking whose trace token sits on
``tp{k}`` is determined by the mode, the marking's model part and the
remaining activities ``trace[k:]``: its columns are the model moves plus,
per remaining activity, a log move and one synchronous move per model
transition with that label, its activity rows have the activities' counts
as right-hand sides and its model rows ``-m(p)``.  Its value is therefore
the same in every case, at every position and however far the net has
grown, and the memo keys it by exactly those three things, the model part
as the state's model fields (:func:`memo_key`).  A memo serves one model.
It keeps at most :data:`MEMO_ENTRIES` values and evicts the oldest first;
``lps_solved`` counts only the programs actually solved.  Under ``zero``
no estimate is asked for or stored at all.

:func:`dijkstra_oracle` is an independent uniform-cost sweep used as a test
oracle; it shares nothing with the A* machinery except the net semantics.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from operator import itemgetter

from .alignment import (
    Checkpoint,
    InvariantViolation,
    PrefixAlignment,
    reconstruct,
    verify_prefix_alignment,
)
from .heuristic import MODES, estimate
from .petri import Marking, StateSpaceTooLarge, enumerate_state_space, fire
from .spn import Move, MoveTable, SyncProductNet

MEMO_ENTRIES = 2**14  # estimates one memo keeps before evicting the oldest


class SearchExhausted(RuntimeError):
    """Open set ran dry before any goal marking was reached."""


EAGER = "eager"
LAZY = "lazy"


class OpenSet:
    """Priority structure over packed states with lazy invalidation.

    Keys order by f ascending, then larger cost-so-far, then the canonical
    marking order (:meth:`~streamalign.spn.MoveTable.tie_key`), which makes
    every pop deterministic.  Decrease-key pushes a fresh entry and abandons
    the old one.
    """

    def __init__(self, table: MoveTable):
        self._heap: list[tuple] = []
        self._live: dict[int, tuple] = {}  # state -> its current heap entry
        self._table = table

    def __len__(self) -> int:
        return len(self._live)

    def states(self) -> list[int]:
        """The open states in the canonical marking order."""
        return [entry[3] for entry in sorted(self._live.values(), key=itemgetter(2))]

    def push(self, state: int, f, g: int) -> None:
        entry = (f, -g, self._table.tie_key(state), state)
        self._live[state] = entry
        heapq.heappush(self._heap, entry)

    def pop(self) -> tuple[int, object, int]:
        heap, live = self._heap, self._live
        while heap:
            entry = heapq.heappop(heap)
            state = entry[3]
            if live.get(state) is entry:
                del live[state]
                return state, entry[0], -entry[1]
        raise IndexError("pop from an empty open set")


@dataclass(slots=True)
class SearchMetrics:
    queued: int = 0
    visited: int = 0
    lps_solved: int = 0
    heuristic_recomputations: int = 0
    reopened: int = 0
    wall_time: float = 0.0


class SearchCache:
    """Reusable A* state of one case: its product net, open set, g, predecessors.

    Also keeps the set of open states whose estimate predates the latest
    extension (``stale``, lazy refresh).  An open state's estimate is its
    key in ``open`` minus its ``g``, kept when a cheaper path reaches it; a
    closed state keeps none.  One cache is kept per live case, hence the
    slots.  A state is closed exactly when it has a ``g`` value and is not
    open.  Everything is keyed by packed state of ``spn``.  The search
    starts from the packed state ``start``, by default the net's initial
    marking.  ``goal`` is the goal state of the last search (None before
    the first, which counts the start as queued) and ``checkpoint`` the
    :class:`~streamalign.alignment.Checkpoint` of its verified alignment
    (None until one is verified); the next event reconstructs and verifies
    from them.
    """

    __slots__ = ("spn", "root", "open", "g", "_p", "stale", "goal", "checkpoint")

    def __init__(self, spn: SyncProductNet, start: int | None = None):
        self.spn = spn
        self.root = spn.encode(spn.initial) if start is None else start
        self.open = OpenSet(spn.table)
        self.g: dict[int, int] = {self.root: 0}
        self._p: dict[int, Move | None] = {self.root: None}  # the move that reached a state
        self.stale: set[int] = set()
        self.open.push(self.root, 0, 0)
        self.goal: int | None = None
        self.checkpoint: Checkpoint | None = None

    def invariants_ok(self) -> bool:
        # every open state has a g value, every closed or open state a predecessor
        if not self.open._live.keys() <= self.g.keys() <= self._p.keys():
            return False
        if self.g.get(self.root) != 0 or self._p.get(self.root, 0) is not None:
            return False
        # predecessor chains must be acyclic and end at the root
        for s in self.g:
            seen = set()
            while s in self._p and s not in seen:
                seen.add(s)
                move = self._p[s]
                if move is None:
                    break
                s -= move.delta
            if s != self.root:
                return False
        return True


@dataclass
class SearchOutcome:
    alignment: PrefixAlignment
    metrics: SearchMetrics


def memo_key(spn: SyncProductNet, state: int, h_mode: str) -> tuple:
    """(mode, model part, remaining activities) of a packed state, which fix
    its flow program."""
    table = spn.table
    return h_mode, state & table.model_mask, tuple(spn.trace[state >> table.shift :])


def _astar(
    cache: SearchCache, h_mode: str, refresh: str, memo: dict | None = None
) -> SearchOutcome:
    started = time.perf_counter()
    metrics = SearchMetrics()
    if h_mode not in MODES:
        raise ValueError(f"unknown heuristic mode {h_mode!r}")
    if refresh not in (EAGER, LAZY):
        raise ValueError(f"unknown refresh policy {refresh!r}")
    spn = cache.spn
    table = spn.table
    g_map, p_map = cache.g, cache._p
    stale, open_set, live = cache.stale, cache.open, cache.open._live
    zero = h_mode == "zero"  # every estimate is 0

    def fresh_h(state: int):
        key = None if memo is None else memo_key(spn, state, h_mode)
        if key is not None:
            value = memo.get(key)
            if value is not None:
                return value
        value = estimate(spn, state, h_mode)
        metrics.lps_solved += 1
        if key is not None:
            if len(memo) >= MEMO_ENTRIES:
                del memo[next(iter(memo))]
            memo[key] = value
        return value

    def refresh_h(state: int):
        metrics.heuristic_recomputations += 1
        return 0 if zero else fresh_h(state)

    if cache.goal is None:
        # The cache's first search: its root counts as queued.  Being the
        # only open state, it is popped first whatever its estimate, and it
        # closes at g = 0, never to be reopened, so none is ever solved.
        metrics.queued += 1
    elif refresh == EAGER:
        if not zero:  # a zero estimate never goes out of date
            for s in open_set.states():
                hv = refresh_h(s)
                open_set.push(s, g_map[s] + hv, g_map[s])
        stale.clear()
    elif not zero:  # lazy
        stale.update(live)

    n, shift, guards, lows = spn.n, table.shift, table.guards, table.lows
    while len(open_set):
        state, f, g_here = open_set.pop()

        if state in stale:
            hv = refresh_h(state)
            stale.discard(state)
            open_set.push(state, g_here + hv, g_here)
            continue

        if state >> shift == n:  # the trace token is on the goal place
            open_set.push(state, f, g_here)  # stays in open
            # The previous goal's chain still holds its verified moves while
            # its g is unchanged (an entry is only ever overwritten by a
            # strictly cheaper path) and no closed state on it was reopened.
            previous = cache.checkpoint
            chain_holds = (
                previous is not None
                and not metrics.reopened
                and g_map[cache.goal] == previous.cost
            )
            alignment = reconstruct(
                p_map, state, cache.root, spn, (cache.goal, previous) if chain_holds else None
            )
            # the old checkpoint does not describe the new goal; astar_inc
            # stores the new one once the alignment has been verified
            cache.goal, cache.checkpoint = state, None
            if alignment.total_cost != g_here:
                raise InvariantViolation(
                    f"alignment to {alignment.end_marking} costs {alignment.total_cost}, "
                    f"search cost is {g_here}"
                )
            metrics.wall_time = time.perf_counter() - started
            return SearchOutcome(alignment, metrics)

        metrics.visited += 1  # closed from here on: in g_map, not live
        marked = ((state | guards) - lows) & guards  # guard bits of nonempty model places

        for move in spn.candidate_moves(state):
            need = move.need
            if marked & need != need:
                continue
            successor = state + move.delta
            if successor & guards:
                raise table.overflow(successor)
            new_g = g_here + move.cost
            old_g = g_map.get(successor)
            if old_g is not None and new_g >= old_g:
                continue  # reached before at least as cheaply
            g_map[successor] = new_g
            p_map[successor] = move
            if old_g is not None and successor not in live:
                # A strictly cheaper path to a closed marking can only
                # appear when an outdated estimate mis-ordered earlier pops
                # (estimates may shrink under extension).  Reopen it so the
                # cheaper cost propagates; with up-to-date estimates this
                # branch is unreachable.
                hv = refresh_h(successor)
                metrics.reopened += 1
                metrics.queued += 1
            elif old_g is None:
                metrics.queued += 1
                hv = 0 if zero else fresh_h(successor)
            else:  # open: it keeps its estimate, outdated or not, until popped
                entry = live[successor]
                hv = entry[0] + entry[1]  # its key f minus its g
            open_set.push(successor, new_g + hv, new_g)

    raise SearchExhausted(
        "open set exhausted before reaching the trace frontier; "
        "the product net always admits the all-log-moves path"
    )


def astar_inc(
    cache: SearchCache,
    h_mode: str = "ilp",
    refresh: str = LAZY,
    memo: dict | None = None,
) -> SearchOutcome:
    """Continue the search on ``cache.spn`` after (at most) one extension.

    The cache must be freshly initialized or be left as the previous call
    left it; the call updates it in place.  ``memo`` is an optional
    estimate memo for the net's model (see the module docstring).  The
    alignment is rebuilt and verified from the previous call's goal and
    checkpoint where they still hold (see the module docstring).
    """
    since = cache.checkpoint
    outcome = _astar(cache, h_mode, refresh, memo)
    spn = cache.spn
    checkpoint = verify_prefix_alignment(outcome.alignment, spn.trace, spn.model, since)
    if not checkpoint:
        raise InvariantViolation(
            f"alignment {outcome.alignment.moves} is not a prefix-alignment "
            f"of {spn.trace}"
        )
    cache.checkpoint = checkpoint
    return outcome


def astar_scratch(
    spn: SyncProductNet,
    h_mode: str = "ilp",
    start: int | None = None,
    memo: dict | None = None,
) -> SearchOutcome:
    """One-shot search from the packed state ``start`` (default: the
    initial marking)."""
    return _astar(SearchCache(spn, start), h_mode, EAGER, memo)


def dijkstra_oracle(
    spn: SyncProductNet, start: Marking, bound: int = 10**6
) -> tuple[int | None, dict[Marking, int]]:
    """Uniform-cost sweep of the whole reachable space from ``start``.

    Returns the cost of the nearest goal marking (None when unreachable,
    which cannot happen for reachable starts) and the full distance map.
    It fires on :meth:`~streamalign.spn.SyncProductNet.petri_net`, not on
    packed states.
    """
    net, moves, goal = spn.petri_net(), spn.transitions, spn.goal_place
    dist: dict[Marking, int] = {start: 0}
    heap: list[tuple[int, tuple, Marking]] = [(0, start.items, start)]
    goal_cost: int | None = None
    transition_ids = net.transitions
    costs = [moves[t].cost for t in transition_ids]
    presets = [net.preset(t) for t in transition_ids]
    while heap:
        d, _, marking = heapq.heappop(heap)
        if d > dist.get(marking, d):
            continue
        if goal_cost is None and marking.get(goal):
            goal_cost = d
        for idx, pre in enumerate(presets):
            if any(marking.get(p) <= 0 for p in pre):
                continue
            successor = fire(net, marking, transition_ids[idx])
            nd = d + costs[idx]
            if nd < dist.get(successor, nd + 1):
                if successor not in dist and len(dist) >= bound:
                    raise StateSpaceTooLarge(f"more than {bound} reachable markings")
                dist[successor] = nd
                heapq.heappush(heap, (nd, successor.items, successor))
    return goal_cost, dist


def distances_to_goal(
    spn: SyncProductNet, bound: int = 10**5
) -> tuple[list[Marking], list[tuple[Marking, str, Marking]], dict[Marking, int]]:
    """Exact remaining cost to the nearest goal for every reachable marking.

    Enumerates the reachable space of
    :meth:`~streamalign.spn.SyncProductNet.petri_net` once, then runs a
    multi-source uniform-cost sweep backwards from all goal markings.
    Markings that cannot reach a goal (impossible on product nets) would be
    absent from the map.
    """
    moves, goal = spn.transitions, spn.goal_place
    markings, edges = enumerate_state_space(spn.petri_net(), spn.initial, bound)
    backward: dict[Marking, list[tuple[int, Marking]]] = {m: [] for m in markings}
    for source, tid, target in edges:
        backward[target].append((moves[tid].cost, source))
    dist: dict[Marking, int] = {}
    heap: list[tuple[int, tuple, Marking]] = []
    for m in markings:
        if m.get(goal):
            dist[m] = 0
            heapq.heappush(heap, (0, m.items, m))
    while heap:
        d, _, marking = heapq.heappop(heap)
        if d > dist.get(marking, d):
            continue
        for cost, source in backward[marking]:
            nd = d + cost
            if nd < dist.get(source, nd + 1):
                dist[source] = nd
                heapq.heappush(heap, (nd, source.items, source))
    return markings, edges, dist
