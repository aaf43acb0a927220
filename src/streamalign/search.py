"""Shortest-path search over the product-net state space.

:func:`astar_inc` resumes search from the cache left behind by the
previous event of the same case: extension never rewires the explored
region, so cost-so-far values stay valid.  By default the search also keeps
every open state's estimate: one taken before an extension stays admissible
after it (h_old <= h*_old <= h*_new), and a closed state that a strictly
cheaper path reaches is reopened, so the search stays exact.  A program is
solved only for a newly queued or a reopened state.  ``refresh=True``
instead recomputes every open estimate up front (``iasr``); under the
``zero`` heuristic it recomputes nothing, since a zero estimate cannot
change.

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
keys ``g`` by it, and the estimate is asked for it.  A cache lives as long
as its case, so it keeps each piece of search state once, in slotted
attributes (see :class:`SearchCache`).
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
reconstruction allocates no moves.  The open set is the cache's ``heap``
and ``live`` map, which the loop pushes and pops itself; its entries order
by f ascending, then larger cost-so-far, then the canonical marking order
(see :class:`SearchCache`).  It asks the net for a state's candidate moves
exactly once per expansion and reports only through
:class:`SearchMetrics`.

Every estimate goes through the memo of the net's move table
(:attr:`~streamalign.spn.MoveTable.memo`), which every search on a product
net of that table shares.  Every flow program of a model has one
constraint matrix and objective, the table's
:class:`~streamalign.heuristic.FlowProgram`.  The program of a marking whose
trace token sits on ``tp{k}`` differs only in its right-hand side: the
negated counts of the model's activities in ``trace[k:]`` and ``-m(p)`` per
model place, plus an offset that the remaining activities' log moves cost.
Its value is therefore the same in every case, at every position and
however far the net has grown.  The memo keys it by the mode, the model
part as the state's model fields, and the remaining activities themselves
(:func:`memo_key`), which fix those counts.  A table serves one model,
so its memo does too.  A product net built without a table has a private
one, whose memo still serves every repeated suffix of its own case.  A memo
keeps at most :data:`MEMO_ENTRIES` values and evicts the oldest first;
``lps_solved`` counts only the programs actually solved.  Under ``zero``
no estimate is asked for or stored at all.

:func:`dijkstra_oracle` is an independent uniform-cost sweep used as a test
oracle; it shares nothing with the A* machinery except the net semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
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
from .spn import Move, SyncProductNet

MEMO_ENTRIES = 2**14  # estimates one memo keeps before evicting the oldest


class SearchExhausted(RuntimeError):
    """Open set ran dry before any goal marking was reached."""


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

    The open set is ``heap``, a binary heap of entries ``(f, -g,
    tie_key(state), state)`` (:meth:`~streamalign.spn.MoveTable.tie_key`),
    so pops order by f ascending, then larger cost-so-far, then the
    canonical marking order, and ``live``, which maps each open state to its
    current entry.  A cheaper push replaces the state's ``live`` entry and
    abandons the old one on the heap, which a pop skips.  An open state's
    estimate is its entry's f minus its ``g``, kept across extensions and
    when a cheaper path reaches it, and solved again only when the state is
    reopened or refreshed; a closed state keeps none.  One cache is kept per
    live case, hence the slots.  A state is closed exactly when it has a
    ``g`` value and is not open.  Everything is keyed by packed state of
    ``spn``.  The search starts from the packed state ``start``, by default
    the net's initial marking, whose entry is the first on the heap.
    ``goal`` is the goal state of the last search (None before the first,
    which counts the start as queued) and ``checkpoint`` the
    :class:`~streamalign.alignment.Checkpoint` of its verified alignment
    (None until one is verified); the next event reconstructs and verifies
    from them.
    """

    __slots__ = ("spn", "root", "heap", "live", "g", "_p", "goal", "checkpoint")

    def __init__(self, spn: SyncProductNet, start: int | None = None):
        table = spn.table
        self.spn = spn
        self.root = root = table.initial_state if start is None else start
        entry = (0, 0, table.tie_key(root), root)
        self.heap: list[tuple] = [entry]
        self.live: dict[int, tuple] = {root: entry}  # open state -> its current heap entry
        self.g: dict[int, int] = {root: 0}
        self._p: dict[int, Move | None] = {root: None}  # the move that reached a state
        self.goal: int | None = None
        self.checkpoint: Checkpoint | None = None

    def invariants_ok(self) -> bool:
        # every open state has a g value, every closed or open state a predecessor
        if not self.live.keys() <= self.g.keys() <= self._p.keys():
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


@dataclass(slots=True)
class SearchOutcome:
    alignment: PrefixAlignment
    metrics: SearchMetrics


def memo_key(spn: SyncProductNet, state: int, h_mode: str) -> tuple:
    """(mode, model part, remaining activities) of a packed state, which fix
    its flow program."""
    table = spn.table
    return h_mode, state & table.model_mask, tuple(spn.trace[state >> table.shift :])


def _solve(spn: SyncProductNet, state: int, h_mode: str, memo: dict, key: tuple):
    """Solve a state's flow program and keep its value in ``memo`` under ``key``."""
    value = estimate(spn, state, h_mode)
    if len(memo) >= MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def _astar(cache: SearchCache, h_mode: str, refresh: bool = False) -> SearchOutcome:
    started = time.perf_counter()
    if h_mode not in MODES:
        raise ValueError(f"unknown heuristic mode {h_mode!r}")
    spn = cache.spn
    table = spn.table
    g_map, p_map, memo = cache.g, cache._p, table.memo
    heap, live, tie_key = cache.heap, cache.live, table.tie_key
    zero = h_mode == "zero"  # every estimate is 0
    queued = visited = solved = recomputed = reopened = 0

    if cache.goal is None:
        # The cache's first search: its root counts as queued.  Being the
        # only open state, it is popped first whatever its estimate, and it
        # closes at g = 0, never to be reopened, so none is ever solved.
        queued = 1
    elif refresh and not zero:  # a zero estimate never goes out of date
        # in the canonical marking order, which fixes what the memo evicts
        for old in sorted(live.values(), key=itemgetter(2)):
            s, g = old[3], -old[1]
            key = memo_key(spn, s, h_mode)
            hv = memo.get(key)
            if hv is None:
                hv = _solve(spn, s, h_mode, memo, key)
                solved += 1
            recomputed += 1
            entry = (g + hv, -g, old[2], s)
            live[s] = entry
            heappush(heap, entry)

    n, shift, guards, lows = spn.n, table.shift, table.guards, table.lows
    while live:
        entry = heappop(heap)
        state = entry[3]
        if live.get(state) is not entry:
            continue  # abandoned by a cheaper push of its state

        g_here = -entry[1]
        if state >> shift == n:  # the trace token is on the goal place
            heappush(heap, entry)  # stays in open
            # The previous goal's chain still holds its verified moves while
            # its g is unchanged (an entry is only ever overwritten by a
            # strictly cheaper path) and no closed state on it was reopened.
            previous = cache.checkpoint
            chain_holds = (
                previous is not None and not reopened and g_map[cache.goal] == previous.cost
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
            wall_time = time.perf_counter() - started
            metrics = SearchMetrics(queued, visited, solved, recomputed, reopened, wall_time)
            return SearchOutcome(alignment, metrics)

        del live[state]
        visited += 1  # closed from here on: in g_map, not live
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
            old = live.get(successor)
            if old is not None:  # open: it keeps its estimate
                hv = old[0] + old[1]  # its key f minus its g
            else:
                queued += 1
                if old_g is not None:
                    # A strictly cheaper path to a closed marking can only
                    # appear when a kept estimate mis-ordered earlier pops
                    # (an extension may lower a fresh estimate below the
                    # kept one).  Reopen it so the cheaper cost propagates;
                    # with refreshed estimates this branch is unreachable.
                    reopened += 1
                    recomputed += 1
                if zero:
                    hv = 0
                else:
                    key = memo_key(spn, successor, h_mode)
                    hv = memo.get(key)
                    if hv is None:
                        hv = _solve(spn, successor, h_mode, memo, key)
                        solved += 1
            entry = (new_g + hv, -new_g, tie_key(successor), successor)
            live[successor] = entry
            heappush(heap, entry)

    raise SearchExhausted(
        "open set exhausted before reaching the trace frontier; "
        "the product net always admits the all-log-moves path"
    )


def astar_inc(cache: SearchCache, h_mode: str = "ilp", *, refresh: bool = False) -> SearchOutcome:
    """Continue the search on ``cache.spn`` after (at most) one extension.

    The cache must be freshly initialized or be left as the previous call
    left it; the call updates it in place.  ``refresh`` recomputes every
    open estimate first; by default they are kept.  The alignment is
    rebuilt and verified from the previous call's goal and checkpoint where
    they still hold (see the module docstring).
    """
    since = cache.checkpoint
    outcome = _astar(cache, h_mode, refresh)
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
    spn: SyncProductNet, h_mode: str = "ilp", start: int | None = None
) -> SearchOutcome:
    """One-shot search from the packed state ``start`` (default: the
    initial marking)."""
    return _astar(SearchCache(spn, start), h_mode)


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
        d, _, marking = heappop(heap)
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
                heappush(heap, (nd, successor.items, successor))
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
            heappush(heap, (0, m.items, m))
    while heap:
        d, _, marking = heappop(heap)
        if d > dist.get(marking, d):
            continue
        for cost, source in backward[marking]:
            nd = d + cost
            if nd < dist.get(source, nd + 1):
                dist[source] = nd
                heappush(heap, (nd, source.items, source))
    return markings, edges, dist
