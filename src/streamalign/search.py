"""Shortest-path search over the product-net state space.

:func:`astar_inc` resumes search from the open and closed sets left behind
by the previous event of the same case: extension never rewires the explored
region, so cost-so-far values stay valid and only the estimates toward the
new goal place need refreshing.  ``eager`` refresh recomputes every open
estimate up front; ``lazy`` refresh marks open states outdated and refreshes
one state at a time when it is popped, skipping its goal test and expansion
for that pop.  Under the ``zero`` heuristic nothing is marked outdated,
since a zero estimate cannot change.

The returned goal marking is deliberately left in the open set: the next
extension may grow cheaper continuations through it.

Expansion is indexed by trace position.  A marking whose trace token sits
on ``tp{k}`` tries only the model moves and then the moves of position
``k + 1`` (:meth:`~streamalign.spn.SyncProductNet.candidate_moves`); every
other move consumes from an empty trace place.  That is the order of a scan
over all moves with the moves that cannot be enabled left out, so ties
break as in the full scan.  Each move is a :class:`~streamalign.spn.Move`
of the product net's move table, which carries its cost and which the
search stores in the predecessor map, so reconstruction allocates no moves.
The search reports what it did only through :class:`SearchMetrics`; it
asks the net for a marking's candidate moves exactly once per expansion.

Callers may pass a ``memo``, a dict of estimates shared by every search of
one model.  The flow program of a marking whose trace token sits on
``tp{k}`` is determined by the mode, the marking's model part and the
remaining activities ``trace[k:]``: its columns are the model moves plus,
per remaining position, a log move and one synchronous move per model
transition with that label, its trace rows have right-hand sides
``-1, 0, ..., 0, 1`` and its model rows ``-m(p)``.  Its value is therefore
the same in every case, at every position and however far the net has
grown, and the memo keys it by exactly those three things.  A memo serves
one model.  It keeps at most :data:`MEMO_ENTRIES` values and evicts the
oldest first; ``lps_solved`` counts only the programs actually solved.
Markings without exactly one token on the net's trace places bypass the
memo, so the heuristic still rejects them.  Under ``zero`` no estimate is
asked for at all.

:func:`dijkstra_oracle` is an independent uniform-cost sweep used as a test
oracle; it shares nothing with the A* machinery except the net semantics.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .alignment import (
    InvariantViolation,
    PrefixAlignment,
    move_cost,
    reconstruct,
    verify_prefix_alignment,
)
from .heuristic import estimate
from .petri import Marking, StateSpaceTooLarge, enumerate_state_space, fire
from .spn import SyncProductNet

MEMO_ENTRIES = 2**14  # estimates one memo keeps before evicting the oldest


class SearchExhausted(RuntimeError):
    """Open set ran dry before any goal marking was reached."""


EAGER = "eager"
LAZY = "lazy"


class OpenSet:
    """Priority structure over markings with lazy invalidation.

    Keys order by f ascending, then larger cost-so-far, then the canonical
    marking order, which makes every pop deterministic.  Decrease-key pushes
    a fresh entry and abandons the old one.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self._live: dict[Marking, tuple] = {}

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, marking: Marking) -> bool:
        return marking in self._live

    def markings(self) -> list[Marking]:
        return sorted(self._live, key=lambda m: m.items)

    def push(self, marking: Marking, f, g: int) -> None:
        self._live[marking] = (f, g)
        heapq.heappush(self._heap, (f, -g, marking.items, marking))

    def pop(self) -> tuple[Marking, object, int]:
        while self._heap:
            f, neg_g, _, marking = heapq.heappop(self._heap)
            current = self._live.get(marking)
            if current is not None and current == (f, -neg_g):
                del self._live[marking]
                return marking, f, -neg_g
        raise IndexError("pop from an empty open set")


@dataclass
class SearchMetrics:
    queued: int = 0
    visited: int = 0
    lps_solved: int = 0
    heuristic_recomputations: int = 0
    reopened: int = 0
    wall_time: float = 0.0


class SearchCache:
    """Reusable A* state of one case: open, closed, g, predecessors.

    Also keeps the last computed estimate per marking and the set of open
    markings whose estimate predates the latest extension (lazy refresh).
    """

    def __init__(self, root: Marking):
        self.root = root
        self.open = OpenSet()
        self.closed: set[Marking] = set()
        self.g: dict[Marking, int] = {root: 0}
        self.p: dict[Marking, tuple] = {root: (None, None)}
        self.h: dict[Marking, object] = {}
        self.stale: set[Marking] = set()
        self._seed_pending = True
        self.open.push(root, 0, 0)

    def invariants_ok(self) -> bool:
        open_markings = set(self.open.markings())
        if open_markings & self.closed:
            return False
        for m in open_markings | self.closed:
            if m not in self.g:
                return False
            if m != self.root and m not in self.p:
                return False
        if self.g.get(self.root) != 0:
            return False
        # predecessor chains must be acyclic and end at the root sentinel
        for m in open_markings | self.closed:
            seen = set()
            cur = m
            while True:
                if cur in seen:
                    return False
                seen.add(cur)
                t, prev = self.p[cur]
                if t is None:
                    break
                cur = prev
        return True


@dataclass
class SearchOutcome:
    alignment: PrefixAlignment
    metrics: SearchMetrics


def memo_key(spn: SyncProductNet, marking: Marking, h_mode: str) -> tuple | None:
    """(mode, model part, remaining activities) of a marking, which fix its
    flow program; None unless the marking holds exactly one token on the
    net's trace places (see :meth:`~streamalign.spn.SyncProductNet.split`)."""
    k, model_part = spn.split(marking)
    if k is None:
        return None
    return h_mode, model_part, tuple(spn.trace[k:])


def _astar(
    spn: SyncProductNet,
    cache: SearchCache,
    h_mode: str,
    refresh: str,
    memo: dict | None = None,
) -> SearchOutcome:
    started = time.perf_counter()
    metrics = SearchMetrics()
    if cache._seed_pending:
        metrics.queued += 1
        cache._seed_pending = False

    def fresh_h(marking: Marking):
        if h_mode == "zero":
            return 0
        key = None if memo is None else memo_key(spn, marking, h_mode)
        if key is not None:
            value = memo.get(key)
            if value is not None:
                return value
        value = estimate(spn, marking, h_mode)
        metrics.lps_solved += 1
        if key is not None:
            if len(memo) >= MEMO_ENTRIES:
                del memo[next(iter(memo))]
            memo[key] = value
        return value

    def refresh_h(marking: Marking):
        old = cache.h.get(marking)
        value = fresh_h(marking)
        if old is not None:
            metrics.heuristic_recomputations += 1
        cache.h[marking] = value
        return value

    if refresh == EAGER:
        for m in cache.open.markings():
            hv = refresh_h(m)
            cache.open.push(m, cache.g[m] + hv, cache.g[m])
        cache.stale.clear()
    elif refresh == LAZY:
        if h_mode != "zero":  # a zero estimate never goes out of date
            cache.stale.update(cache.open.markings())
    else:
        raise ValueError(f"unknown refresh policy {refresh!r}")

    while len(cache.open):
        marking, f, _ = cache.open.pop()

        if marking in cache.stale:
            hv = refresh_h(marking)
            cache.stale.discard(marking)
            cache.open.push(marking, cache.g[marking] + hv, cache.g[marking])
            continue

        if spn.is_goal(marking):
            cache.open.push(marking, f, cache.g[marking])  # stays in open
            alignment = reconstruct(cache.p, marking, cache.root)
            if alignment.total_cost != cache.g[marking]:
                raise InvariantViolation(
                    f"alignment to {marking} costs {alignment.total_cost}, "
                    f"search cost is {cache.g[marking]}"
                )
            metrics.wall_time = time.perf_counter() - started
            return SearchOutcome(alignment, metrics)

        cache.closed.add(marking)
        metrics.visited += 1
        g_here = cache.g[marking]

        for move in spn.candidate_moves(marking):
            enabled_here = True
            for p in move.pre:
                if marking.get(p) <= 0:
                    enabled_here = False
                    break
            if not enabled_here:
                continue
            successor = fire(spn, marking, move.tid)
            new_g = g_here + move.cost
            old_g = cache.g.get(successor)
            if successor in cache.closed:
                if new_g >= old_g:
                    continue
                # A strictly cheaper path to an already-closed marking can
                # only appear when an outdated estimate mis-ordered earlier
                # pops (estimates may shrink under extension).  Reopen it so
                # the cheaper cost propagates; with up-to-date estimates this
                # branch is unreachable.
                cache.closed.discard(successor)
                cache.g[successor] = new_g
                cache.p[successor] = (move, marking)
                hv = refresh_h(successor)
                cache.open.push(successor, new_g + hv, new_g)
                metrics.reopened += 1
                metrics.queued += 1
                continue
            if old_g is not None and new_g >= old_g:
                continue  # already in open at least as cheaply
            cache.g[successor] = new_g
            cache.p[successor] = (move, marking)
            if successor in cache.stale:
                hv = cache.h[successor]  # outdated estimate stays until popped
            else:
                hv = cache.h.get(successor)
                if hv is None:
                    hv = fresh_h(successor)
                    cache.h[successor] = hv
            cache.open.push(successor, new_g + hv, new_g)
            if old_g is None:
                metrics.queued += 1

    raise SearchExhausted(
        "open set exhausted before reaching the trace frontier; "
        "the product net always admits the all-log-moves path"
    )


def astar_inc(
    spn: SyncProductNet,
    cache: SearchCache,
    h_mode: str = "ilp",
    refresh: str = LAZY,
    memo: dict | None = None,
) -> SearchOutcome:
    """Continue the case's search after (at most) one extension.

    The cache must be freshly initialized or be left as the previous call
    for the same product net left it; the call updates it in place.
    ``memo`` is an optional estimate memo for the net's model (see the
    module docstring).
    """
    outcome = _astar(spn, cache, h_mode, refresh, memo)
    if not verify_prefix_alignment(outcome.alignment, spn.trace, spn.model):
        raise InvariantViolation(
            f"alignment {outcome.alignment.moves} is not a prefix-alignment "
            f"of {spn.trace}"
        )
    return outcome


def astar_scratch(
    spn: SyncProductNet,
    h_mode: str = "ilp",
    start: Marking | None = None,
    memo: dict | None = None,
) -> SearchOutcome:
    """One-shot search from ``start`` (default: the initial marking)."""
    cache = SearchCache(start if start is not None else spn.initial)
    return _astar(spn, cache, h_mode, EAGER, memo)


def dijkstra_oracle(
    spn: SyncProductNet, start: Marking, bound: int = 10**6
) -> tuple[int | None, dict[Marking, int]]:
    """Uniform-cost sweep of the whole reachable space from ``start``.

    Returns the cost of the nearest goal marking (None when unreachable,
    which cannot happen for reachable starts) and the full distance map.
    """
    dist: dict[Marking, int] = {start: 0}
    heap: list[tuple[int, tuple, Marking]] = [(0, start.items, start)]
    goal_cost: int | None = None
    transition_ids = spn.transition_ids()
    costs = [move_cost(spn.move(t)) for t in transition_ids]
    presets = [spn.preset(t) for t in transition_ids]
    while heap:
        d, _, marking = heapq.heappop(heap)
        if d > dist.get(marking, d):
            continue
        if goal_cost is None and spn.is_goal(marking):
            goal_cost = d
        for idx, pre in enumerate(presets):
            if any(marking.get(p) <= 0 for p in pre):
                continue
            successor = fire(spn, marking, transition_ids[idx])
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

    Enumerates the reachable space once, then runs a multi-source
    uniform-cost sweep backwards from all goal markings.  Markings that
    cannot reach a goal (impossible on product nets) would be absent from
    the map.
    """
    markings, edges = enumerate_state_space(spn, spn.initial, bound)
    backward: dict[Marking, list[tuple[int, Marking]]] = {m: [] for m in markings}
    for source, tid, target in edges:
        backward[target].append((move_cost(spn.move(tid)), source))
    dist: dict[Marking, int] = {}
    heap: list[tuple[int, tuple, Marking]] = []
    for m in markings:
        if spn.is_goal(m):
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
