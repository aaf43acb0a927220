"""Underestimates of remaining alignment cost from a product-net marking.

The estimate relaxes the reachability question to token-flow balance: one
non-negative firing count per product-net transition, exact balance on the
trace places (the last trace place must end with the single trace token,
every other trace place empty) and non-negative cumulative flow on the model
places.  The current marking enters each constraint constant, so the value
is marking-dependent and admissible.  Solving over integers (``ilp``) gives
a tighter bound than the rational relaxation (``lp``); ``zero`` turns the
estimate off for uninformed search.

The program is restricted to the trace suffix.  When the marking's trace
token sits on ``tp{k}``, balance on ``tp0 .. tp{k-1}`` forces every log and
synchronous move at positions ``1 .. k`` to fire zero times, so those
columns and rows are dropped: the program keeps the model moves, the moves
at positions after ``k`` and the rows ``tp{k} .. tp{n}`` plus the model
places, and its optimum is unchanged.  It grows with ``n - k``, which is
small near the frontier, instead of with ``n``.

Each program is read straight off the product net's move blocks
(:mod:`streamalign.spn`): its columns are the moves of the model block
and of the blocks of positions after ``k``, in registration order, and each
move contributes -1 to the row of every place in its preset and +1 to
every place in its postset, so a self-loop cancels to 0.  Nothing is
cached per net.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .alignment import InvariantViolation
from .petri import Marking
from .simplex import OPTIMAL, Row, solve_ilp, solve_lp
from .spn import SyncProductNet, trace_place

MODES = ("lp", "ilp", "zero")


@dataclass(frozen=True)
class HeuristicProblem:
    """One concrete flow problem: objective, rows and variable naming."""

    variables: tuple[str, ...]
    objective: tuple[int, ...]
    rows: tuple[Row, ...]
    n_trace_rows: int
    n_model_rows: int


def build_problem(spn: SyncProductNet, marking: Marking) -> HeuristicProblem:
    """Assemble the suffix flow problem for one marking.

    With the trace token on ``tp{k}``, trace places ``tp{k} .. tp{n}``
    contribute equalities ``m(p) + flow(p) = target(p)`` with target one on
    the last trace place and zero elsewhere; model places contribute
    ``m(p) + flow(p) >= 0``.  Only the model moves and the moves at positions
    after ``k`` are variables.
    """
    k, model_part = spn.split(marking)
    if k is None:
        raise ValueError(f"marking {marking} does not hold exactly one trace token")
    model_places = spn.model.places
    trace_places = [trace_place(i) for i in range(k, spn.n + 1)]
    columns = spn.blocks[0] + tuple(chain.from_iterable(spn.blocks[k + 1 :]))
    coeffs = {p: [0] * len(columns) for p in trace_places + list(model_places)}
    for p, _ in model_part:
        if p not in coeffs:
            raise ValueError(f"marking refers to unknown place {p!r}")
    for j, r in enumerate(columns):
        for p in r.pre:
            coeffs[p][j] -= 1
        for p in r.post:
            coeffs[p][j] += 1
    goal = spn.goal_place
    rows = [(coeffs[p], "=", (1 if p == goal else 0) - marking.get(p)) for p in trace_places]
    rows += [(coeffs[p], ">=", -marking.get(p)) for p in model_places]
    return HeuristicProblem(
        tuple(r.tid for r in columns),
        tuple(r.cost for r in columns),
        tuple(rows),
        n_trace_rows=len(trace_places),
        n_model_rows=len(model_places),
    )


def estimate(spn: SyncProductNet, marking: Marking, mode: str = "ilp") -> Fraction | int:
    """Remaining-cost estimate for a marking: an ``int`` under ``ilp`` and
    ``zero``, a ``Fraction`` under ``lp``.

    Every program :func:`build_problem` accepts is feasible: firing each log
    move at the positions after the marking's trace token once carries that
    token to the last trace place and leaves the model places alone.  No
    cost is negative, so the optimum is bounded too.  Any status other than
    optimal is therefore a solver fault and raises
    :class:`~streamalign.alignment.InvariantViolation`.
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
