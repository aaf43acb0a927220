"""Outside-in spans around the calls the program makes between its modules.

Each site is a module attribute through which one module calls another,
such as ``streamalign.search.estimate``: replacing that attribute times every
call made through it and nothing else.  A span stack turns nested spans into
self time, so the self times of all spans add up to the root span's wall
time.  A site whose module or attribute no longer exists is skipped, and the
metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute looked up at call time, span key)
SITES = (
    ("streamalign.engine", "build_spn", "spn"),
    ("streamalign.engine", "extend_spn", "spn"),
    ("streamalign.occ", "build_spn", "spn"),
    ("streamalign.occ", "extend_spn", "spn"),
    ("streamalign.engine", "astar_inc", "search"),
    ("streamalign.occ", "astar_scratch", "search.restart"),
    ("streamalign.search", "fire", "petri.fire"),
    ("streamalign.search", "estimate", "heuristic"),
    ("streamalign.heuristic", "build_problem", "heuristic.build"),
    ("streamalign.heuristic", "solve_ilp", "simplex.ilp"),
    ("streamalign.heuristic", "solve_lp", "simplex.lp"),
    ("streamalign.simplex", "solve_lp", "simplex.lp"),
    ("streamalign.search", "reconstruct", "alignment.reconstruct"),
    ("streamalign.search", "verify_prefix_alignment", "alignment.verify"),
    ("streamalign.occ", "verify_prefix_alignment", "alignment.verify"),
    ("streamalign.engine", "occ_process_event", "occ"),
    ("streamalign.occ", "revert_alignment", "occ.revert"),
)


class Tracer:
    """Call counts, self times and argument sizes per span key."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.sizes: Counter = Counter()  # summed argument sizes, see _OBSERVERS
        self.installed: set[str] = set()  # keys with at least one span in place
        self._stack: list[float] = []  # child time per open span

    def span(self, key: str, fn):
        """``fn`` wrapped in a span recorded under ``key``."""
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter
        observe = _OBSERVERS.get(key)
        sizes = self.sizes
        self.installed.add(key)

        def traced(*args, **kwargs):
            calls[key] += 1
            if observe is not None:
                observe(sizes, args)
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    @contextmanager
    def installed_sites(self):
        """Wrap every site that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, key in SITES:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.span(key, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _observe_lp(sizes: Counter, args) -> None:
    objective, rows = args[0], args[1]
    sizes["simplex.lp_columns"] += len(objective)
    sizes["simplex.lp_rows"] += len(rows)


def _observe_verify(sizes: Counter, args) -> None:
    sizes["alignment.moves_verified"] += len(args[0])


_OBSERVERS = {"simplex.lp": _observe_lp, "alignment.verify": _observe_verify}
