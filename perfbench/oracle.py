"""Independent correctness checks for emitted prefix-alignments.

Nothing here calls into ``streamalign``: the model is read only through its
places, transitions, arcs, labels and initial marking, and alignments only
through their documented per-event records (``kind``, ``activity``,
``transition`` per move).  Costs are the standard ones: log moves and
visible model moves cost one, synchronous and silent model moves are free.
"""

from __future__ import annotations

import heapq


class Model:
    """A Petri net with its own firing rule over place-count tuples."""

    def __init__(self, net):
        places = sorted(net.places)
        index = {p: i for i, p in enumerate(places)}
        delta: dict[str, list[int]] = {t: [0] * len(places) for t in net.transitions}
        need: dict[str, list[int]] = {t: [0] * len(places) for t in net.transitions}
        for src, tgt in net.arcs:
            if src in index:
                need[tgt][index[src]] += 1
                delta[tgt][index[src]] -= 1
            else:
                delta[src][index[tgt]] += 1
        start = [0] * len(places)
        for place, count in net.initial.items:
            start[index[place]] += count
        self.initial = tuple(start)
        self.labels = {t: net.labels[t] for t in net.transitions}
        self._need = {t: tuple(v) for t, v in need.items()}
        self._delta = {t: tuple(v) for t, v in delta.items()}

    def fire(self, marking: tuple, t: str) -> tuple | None:
        """The successor marking, or None when ``t`` is not enabled."""
        if any(m < n for m, n in zip(marking, self._need[t])):
            return None
        return tuple(m + d for m, d in zip(marking, self._delta[t]))

    def prefix_costs(self, trace, max_states: int = 10**6) -> list[int]:
        """Optimal prefix-alignment cost of ``trace[:k]`` for k = 1..n.

        One uniform-cost sweep over (model marking, trace position): the
        first state popped at position k carries the least cost of any
        alignment of the first k events.  Costs never exceed n (all log
        moves), so dearer states are pruned, which also bounds the sweep.
        """
        n = len(trace)
        costs: list[int | None] = [None] * (n + 1)
        found = 0
        dist = {(self.initial, 0): 0}
        heap = [(0, 0, self.initial)]
        while heap and found <= n:
            d, k, marking = heapq.heappop(heap)
            if d > dist[(marking, k)]:
                continue
            if costs[k] is None:
                costs[k] = d
                found += 1
            steps = []
            if k < n:
                steps.append((marking, k + 1, 1))  # log move
            for t, label in self.labels.items():
                after = self.fire(marking, t)
                if after is None:
                    continue
                steps.append((after, k, 0 if label is None else 1))  # model move
                if k < n and label == trace[k]:
                    steps.append((after, k + 1, 0))  # synchronous move
            for after, k2, cost in steps:
                d2 = d + cost
                if d2 > n or d2 >= dist.get((after, k2), d2 + 1):
                    continue
                if len(dist) >= max_states:
                    raise RuntimeError(f"oracle exceeded {max_states} states")
                dist[(after, k2)] = d2
                heapq.heappush(heap, (d2, k2, after))
        return costs[1:]

    def alignment_error(self, prefix, records, cost) -> str | None:
        """Why ``records`` is not a prefix-alignment of ``prefix`` costing ``cost``.

        Checks every move's shape, that the log projection equals the
        prefix, that the model projection fires from the initial marking
        and that ``cost`` is the sum of the standard move costs.  Returns
        None for a valid alignment.
        """
        observed, marking, total = [], self.initial, 0
        for step, move in enumerate(records):
            kind, activity, t = move["kind"], move["activity"], move["transition"]
            if kind == "log":
                if t is not None or not activity:
                    return f"move {step}: malformed log move {move}"
                observed.append(activity)
                total += 1
                continue
            if kind not in ("model", "sync") or t not in self.labels:
                return f"move {step}: unknown move {move}"
            label = self.labels[t]
            if kind == "sync":
                if label is None or activity != label:
                    return f"move {step}: synchronous move pairs {activity!r} with {label!r}"
                observed.append(activity)
            else:
                if activity is not None:
                    return f"move {step}: model move carries activity {activity!r}"
                total += label is not None
            marking = self.fire(marking, t)
            if marking is None:
                return f"move {step}: model transition {t!r} is not enabled"
        if observed != list(prefix):
            return f"log projection {observed} differs from the prefix {list(prefix)}"
        if total != cost:
            return f"reported cost {cost} differs from the moves' cost {total}"
        return None
