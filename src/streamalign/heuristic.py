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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .alignment import InvariantViolation, move_cost
from .petri import Marking
from .simplex import INFEASIBLE, OPTIMAL, Row, solve_ilp, solve_lp
from .spn import SyncProductNet

MODES = ("lp", "ilp", "zero")


@dataclass(frozen=True)
class HeuristicValue:
    value: Fraction | int
    infeasible: bool
    mode: str

    def cost_or_none(self) -> Fraction | int | None:
        return None if self.infeasible else self.value


@dataclass(frozen=True)
class HeuristicProblem:
    """One concrete flow problem: objective, rows and variable naming."""

    variables: tuple[str, ...]
    objective: tuple[int, ...]
    rows: tuple[Row, ...]
    n_trace_rows: int
    n_model_rows: int


class _Template:
    """Marking-independent part of the problem, cached per net version.

    The product net registers the model moves first and then the moves of
    each trace position in turn, so the columns of a suffix program are the
    model-move prefix plus one slice of these columns.
    """

    def __init__(self, spn: SyncProductNet):
        self.version = spn.version
        self.variables = spn.transition_ids()
        self.objective = tuple(move_cost(spn.move(t)) for t in self.variables)
        self.place_set = set(spn.place_ids())
        self.trace_places = spn.trace_places()
        self.trace_index = {p: i for i, p in enumerate(self.trace_places)}
        self.model_places = spn.model_places()
        self.goal_place = spn.goal_place
        self.columns: dict[str, list[tuple[int, int]]] = {
            p: [] for p in self.trace_places + self.model_places
        }
        positions = []  # trace position of each column, 0 for model moves
        for j, t in enumerate(self.variables):
            flow: dict[str, int] = {}
            for p in spn.preset(t):
                flow[p] = flow.get(p, 0) - 1
            for p in spn.postset(t):
                flow[p] = flow.get(p, 0) + 1
            for p, c in flow.items():
                if c:
                    self.columns[p].append((j, c))
            positions.append(
                max((self.trace_index.get(p, 0) for p in spn.postset(t)), default=0)
            )
        # suffix_start[k]: first column of a move at a position after k
        self.suffix_start = [
            bisect_right(positions, k) for k in range(len(self.trace_places))
        ]

    def row(self, place: str, start: int) -> list[int]:
        """The place's coefficients over the model moves and columns ``start..``."""
        n_model = self.suffix_start[0]
        shift = start - n_model
        coeffs = [0] * (len(self.variables) - shift)
        for j, c in self.columns[place]:
            if j < n_model:
                coeffs[j] = c
            elif j >= start:
                coeffs[j - shift] = c
        return coeffs


def _template(spn: SyncProductNet) -> _Template:
    tpl = spn.derived.get("heuristic-template")
    if tpl is None or tpl.version != spn.version:
        tpl = _Template(spn)
        spn.derived["heuristic-template"] = tpl
    return tpl


def build_problem(spn: SyncProductNet, marking: Marking) -> HeuristicProblem:
    """Assemble the suffix flow problem for one marking.

    With the trace token on ``tp{k}``, trace places ``tp{k} .. tp{n}``
    contribute equalities ``m(p) + flow(p) = target(p)`` with target one on
    the last trace place and zero elsewhere; model places contribute
    ``m(p) + flow(p) >= 0``.  Only the model moves and the moves at positions
    after ``k`` are variables.
    """
    tpl = _template(spn)
    for p in marking.places():
        if p not in tpl.place_set:
            raise ValueError(f"marking refers to unknown place {p!r}")
    held = [(tpl.trace_index[p], c) for p, c in marking.items if p in tpl.trace_index]
    if len(held) != 1 or held[0][1] != 1:
        raise ValueError(f"marking {marking} does not hold exactly one trace token")
    k = held[0][0]

    n_model, start = tpl.suffix_start[0], tpl.suffix_start[k]
    rows: list[Row] = []
    for p in tpl.trace_places[k:]:
        target = 1 if p == tpl.goal_place else 0
        rows.append((tpl.row(p, start), "=", target - marking.get(p)))
    for p in tpl.model_places:
        rows.append((tpl.row(p, start), ">=", -marking.get(p)))
    return HeuristicProblem(
        tpl.variables[:n_model] + tpl.variables[start:],
        tpl.objective[:n_model] + tpl.objective[start:],
        tuple(rows),
        n_trace_rows=len(tpl.trace_places) - k,
        n_model_rows=len(tpl.model_places),
    )


def estimate(spn: SyncProductNet, marking: Marking, mode: str = "ilp") -> HeuristicValue:
    """Remaining-cost estimate for a marking under the given mode."""
    if mode not in MODES:
        raise ValueError(f"unknown heuristic mode {mode!r}")
    if mode == "zero":
        return HeuristicValue(0, False, mode)
    problem = build_problem(spn, marking)
    solver = solve_lp if mode == "lp" else solve_ilp
    result = solver(list(problem.objective), list(problem.rows))
    if result.status == INFEASIBLE:
        return HeuristicValue(0, True, mode)
    if result.status != OPTIMAL:
        raise InvariantViolation(f"flow program for {marking} is {result.status}")
    value = result.value
    if value < 0 or (mode == "ilp" and value.denominator != 1):
        raise InvariantViolation(
            f"{mode} estimate {value} for {marking} is negative or fractional"
        )
    if mode == "ilp":
        return HeuristicValue(int(value), False, mode)
    return HeuristicValue(value, False, mode)
