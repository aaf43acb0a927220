"""Underestimates of remaining alignment cost from a product-net marking.

The estimate relaxes the reachability question to token-flow balance: one
non-negative firing count per alignment move, every remaining observed
event consumed exactly once, and non-negative cumulative flow on the model
places.  The current marking enters each constraint constant, so the value
is marking-dependent and admissible.  Solving over integers (``ilp``) gives
a tighter bound than the rational relaxation (``lp``); ``zero`` turns the
estimate off for uninformed search.

With the marking's trace token on ``tp{k}``, the program has one equality
row per distinct activity a of ``trace[k:]``, with right-hand side
count(a), and one row per model place; its columns are the model moves
and, per a, the log and synchronous moves of a's first remaining position.
One row per trace place ``tp{k} .. tp{n}`` instead would make each
remaining position's moves fire once in total, but it puts no order on the
positions, and the model rows see only per-transition totals.  So both
programs have the same optimum, under ``ilp`` and ``lp`` alike: a
per-position solution sums to an activity-count one of the same cost and
model flow, and an activity-count solution splits back into per-position
moves, an integer one unit by unit over the positions of a and a
fractional one evenly.  The program grows with the distinct activities
left, not with ``n - k``.

Each column is a :class:`~streamalign.spn.Move` of the product net's move
table, contributing +1 to its activity's row, -1 to the row of every
model place in its preset and +1 to every model place in its postset, so a
self-loop cancels to 0; trace places are ignored.  Nothing is cached per
net.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .alignment import InvariantViolation
from .petri import Marking
from .simplex import OPTIMAL, Row, solve_ilp, solve_lp
from .spn import SyncProductNet

MODES = ("lp", "ilp", "zero")


@dataclass(frozen=True)
class HeuristicProblem:
    """One concrete flow problem: objective, rows and variable naming."""

    variables: tuple[str, ...]
    objective: tuple[int, ...]
    rows: tuple[Row, ...]
    n_activity_rows: int
    n_model_rows: int


def build_problem(spn: SyncProductNet, marking: Marking) -> HeuristicProblem:
    """Assemble the activity-count flow problem for one marking.

    With the trace token on ``tp{k}``, each distinct activity a of
    ``trace[k:]`` contributes the equality ``flow(a) = count(a)``, and each
    model place the inequality ``m(p) + flow(p) >= 0``.  Raises ValueError
    for a marking the search cannot encode (:meth:`SyncProductNet.encode`).
    """
    k = spn.encode(marking) >> spn.table.shift
    remaining = Counter(spn.trace[k:])
    columns = spn.table.model_moves
    for a in remaining:
        columns += spn.table.position(spn.trace.index(a, k) + 1, a)
    activity_rows = {a: [0] * len(columns) for a in remaining}
    model_rows = {p: [0] * len(columns) for p in spn.model.places}
    for j, r in enumerate(columns):
        if r.activity is not None:
            activity_rows[r.activity][j] = 1
        for p in r.pre:
            if p in model_rows:
                model_rows[p][j] -= 1
        for p in r.post:
            if p in model_rows:
                model_rows[p][j] += 1
    rows = [(coeffs, "=", remaining[a]) for a, coeffs in activity_rows.items()]
    rows += [(coeffs, ">=", -marking.get(p)) for p, coeffs in model_rows.items()]
    return HeuristicProblem(
        tuple(r.tid for r in columns),
        tuple(r.cost for r in columns),
        tuple(rows),
        n_activity_rows=len(activity_rows),
        n_model_rows=len(model_rows),
    )


def estimate(spn: SyncProductNet, marking: Marking, mode: str = "ilp") -> Fraction | int:
    """Remaining-cost estimate for a marking: an ``int`` under ``ilp`` and
    ``zero``, a ``Fraction`` under ``lp``.

    Every program :func:`build_problem` accepts is feasible: firing each
    remaining activity a's log move count(a) times meets every activity row
    and leaves the model places alone.  No cost is negative, so the optimum
    is bounded too.  Any status other than optimal is therefore a solver
    fault and raises :class:`~streamalign.alignment.InvariantViolation`.
    """
    if mode not in MODES:
        raise ValueError(f"unknown heuristic mode {mode!r}")
    if mode == "zero":
        return 0
    problem = build_problem(spn, marking)
    solver = solve_lp if mode == "lp" else solve_ilp
    result = solver(list(problem.objective), list(problem.rows))
    if result.status != OPTIMAL:
        raise InvariantViolation(f"flow program for {marking} is {result.status}")
    value = result.value
    if value < 0 or (mode == "ilp" and value.denominator != 1):
        raise InvariantViolation(
            f"{mode} estimate {value} for {marking} is negative or fractional"
        )
    return int(value) if mode == "ilp" else value
