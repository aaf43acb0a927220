"""Underestimates of remaining alignment cost from a product-net state.

The estimate relaxes the reachability question to token-flow balance: one
non-negative firing count per alignment move, every remaining observed
event consumed exactly once, and non-negative cumulative flow on the model
places.  The current marking enters each constraint constant, so the value
is marking-dependent and admissible.  Solving over integers (``ilp``) gives
a tighter bound than the rational relaxation (``lp``); ``zero`` turns the
estimate off for uninformed search.

Every flow program of a model shares one constraint matrix and one
objective, the model's :class:`FlowProgram`, built at the first estimate on
a :class:`~streamalign.spn.MoveTable` and kept on it beside its memo.  Its
columns are the model moves, then one synchronous column per labelled
model transition, at no particular trace position.  Its rows are one
``>=`` row per model activity and one per model place.  With the marking's
trace token on ``tp{k}``, every remaining event is consumed once, by its
log move or by a synchronous move of its activity, so the log moves are
substituted out: x_log(a) = count(a) - the synchronous columns of a, with
count(a) the occurrences of a in ``trace[k:]``.  A synchronous column then
costs its own cost minus the log-move cost of its activity, and the
constant sum of count(a) times that log-move cost is the state's offset,
added to the optimum.  Activity row a, ``-sum x_sync(a) >= -count(a)``,
says the log moves left over are non-negative; it has right-hand side 0
when a is not ahead.  Model row p is ``m(p) + flow(p) >= 0``.  A remaining
activity that the model lacks has no column, and adds only to the offset.
So a program is its right-hand side, and the simplex re-solves each one
from the last optimal basis of the model's matrix, held in the
:class:`~streamalign.simplex.WarmStart` that its :class:`FlowProgram`
builds from it.  Every right-hand side is at most 0, so x = 0, the
all-log-moves alignment, is feasible, and whichever program comes first
can start the holder from its slack basis.  The
substitution is exact under ``lp`` and ``ilp`` alike, since integral
synchronous counts give integral log counts.  It relies on a log move's
cost depending on its activity only, not on its trace position, as
:func:`~streamalign.spn.move_cost` does.

One row per trace place ``tp{k} .. tp{n}`` instead would make each
remaining position's moves fire once in total, but it puts no order on the
positions, and the model rows see only per-transition totals.  So both
programs have the same optimum, under ``ilp`` and ``lp`` alike: a
per-position solution sums to an activity-count one of the same cost and
model flow, and an activity-count solution splits back into per-position
moves, an integer one unit by unit over the positions of a and a
fractional one evenly.

Each column contributes -1 to its activity's row, -1 to the row of every
model place in its preset and +1 to every model place in its postset, so a
self-loop cancels to 0.

A state is a packed product marking, the search's own state type
(:meth:`~streamalign.spn.SyncProductNet.encode`).  ``k`` lies above bit
:attr:`~streamalign.spn.MoveTable.shift`, and each place row reads its
count off the state's field at the offset that
:attr:`~streamalign.spn.MoveTable.fields` gives.  The activity rows and the
offset are differences of the net's per-position prefix counts
(:attr:`~streamalign.spn.SyncProductNet.prefix_counts`), which the first
program on a net builds and each later one extends, since extension only
appends to the trace.  An integral optimum comes back from the simplex as
an ``int``, so an ``ilp`` estimate is computed and checked in integers;
an ``lp`` estimate is returned as a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from .alignment import InvariantViolation
from .simplex import OPTIMAL, WarmStart, solve_ilp, solve_lp
from .spn import FIELD_BITS, Move, MoveKind, MoveTable, SyncProductNet

MODES = ("lp", "ilp", "zero")


class FlowProgram:
    """The constraint matrix and objective that every flow program of one
    model shares, and the warm start of its simplex solves, which holds
    that matrix.

    ``coeffs`` holds the activity rows, then the place rows;
    ``place_offsets`` holds the offset of each place row's field in a
    packed state, in row order.
    """

    __slots__ = (
        "variables", "objective", "coeffs", "activity_rows", "place_rows", "place_offsets",
        "log_costs", "warm",
    )

    def __init__(self, table: MoveTable):
        # one synchronous column per labelled model transition, at no trace position
        syncs = tuple(
            Move(
                f"sync:{r.model_transition}", MoveKind.SYNC, None, r.model_transition,
                r.model_label, r.model_label, r.pre, r.post, 0, 0,
            )
            for r in table.model_moves
            if r.model_label is not None
        )
        columns = table.model_moves + syncs
        activities = dict.fromkeys(r.activity for r in syncs)
        self.activity_rows = {a: i for i, a in enumerate(activities)}
        self.place_rows = {p: len(activities) + i for i, p in enumerate(table.model.places)}
        offsets = dict(table.fields)
        self.place_offsets = tuple(offsets[p] for p in self.place_rows)
        self.coeffs = [[0] * len(columns) for _ in range(len(activities) + len(self.place_rows))]
        for j, r in enumerate(columns):
            if r.activity is not None:
                self.coeffs[self.activity_rows[r.activity]][j] = -1
            for p in r.pre:
                self.coeffs[self.place_rows[p]][j] -= 1
            for p in r.post:
                self.coeffs[self.place_rows[p]][j] += 1
        self.log_costs: dict[str, int] = {}
        self.variables = tuple(r.tid for r in columns)
        self.objective = [
            r.cost - (0 if r.activity is None else self.log_cost(r.activity)) for r in columns
        ]
        self.warm = WarmStart(self.coeffs)

    def log_cost(self, activity: str) -> int:
        """The cost of a log move observing ``activity``, at any position."""
        cost = self.log_costs.get(activity)
        if cost is None:
            log = Move(f"log:{activity}", MoveKind.LOG, None, None, activity, None, (), (), 0, 0)
            cost = self.log_costs[activity] = log.cost
        return cost


def build_problem(spn: SyncProductNet, state: int) -> tuple[list[int], int]:
    """The flow problem of one packed state of ``spn``, as ``(rhs, offset)``.

    ``rhs`` is the state's right-hand side of the model's
    :class:`FlowProgram`, which the first call for a move table builds, and
    ``offset`` the constant that the log moves substituted out contribute.
    The right-hand side holds ``-count(a)`` for each model activity a,
    counted over ``trace[k:]`` with the trace token on ``tp{k}``, and
    ``-m(p)`` for each model place.  The counts and the offset are
    differences of the net's prefix counts at ``k`` and at the end of its
    trace, which the first call on a net builds and every call extends to
    the trace's current length.  The matrix, objective and variable names
    stay on the program.  ``state`` is a state of ``spn``, as
    :meth:`SyncProductNet.encode` returns it.
    """
    table = spn.table
    program = table.program
    if program is None:
        program = table.program = FlowProgram(table)
    prefix, trace = spn.prefix_counts, spn.trace
    if prefix is None:
        prefix = spn.prefix_counts = [(0,) * (len(program.activity_rows) + 1)]
    if len(prefix) <= len(trace):
        # per new position: its activity's row, if the model has it, and
        # the summed log-move cost, last
        counts = list(prefix[-1])
        row, log_cost = program.activity_rows.get, program.log_cost
        for activity in trace[len(prefix) - 1 :]:
            i = row(activity)
            if i is not None:
                counts[i] += 1
            counts[-1] += log_cost(activity)
            prefix.append(tuple(counts))
    rhs = [a - b for a, b in zip(prefix[state >> table.shift], prefix[-1])]
    offset = -rhs.pop()
    mask = (1 << FIELD_BITS) - 1
    rhs += [-((state >> o) & mask) for o in program.place_offsets]
    return rhs, offset


def estimate(spn: SyncProductNet, state: int, mode: str = "ilp") -> Fraction | int:
    """Remaining-cost estimate for a packed state of ``spn``: an ``int``
    under ``ilp`` and ``zero``, a ``Fraction`` under ``lp``.

    The estimate is the optimum of the model's :class:`FlowProgram` at the
    right-hand side :func:`build_problem` builds, plus its offset, solved
    from the last optimal basis of the model's matrix.  That program is
    feasible, because x = 0, the all-log-moves alignment, meets every row.
    Its optimum is bounded too: only a synchronous move can cost less than
    0, and its activity row caps it at count(a).  Any status other than
    optimal is therefore a solver fault and raises
    :class:`~streamalign.alignment.InvariantViolation`, and so does a
    negative estimate or an ``ilp`` one that is not an ``int``.  The value
    and the checks run on ``int``s unless the optimum is fractional.
    """
    if mode not in MODES:
        raise ValueError(f"unknown heuristic mode {mode!r}")
    if mode == "zero":
        return 0
    rhs, offset = build_problem(spn, state)
    program = spn.table.program
    solver = solve_lp if mode == "lp" else solve_ilp
    result = solver(program.objective, rhs, program.warm)
    if result.status != OPTIMAL:
        raise InvariantViolation(f"flow program for {spn.decode(state)} is {result.status}")
    value = result.value + offset
    if value < 0 or (mode == "ilp" and type(value) is not int):
        raise InvariantViolation(
            f"{mode} estimate {value} for {spn.decode(state)} is negative or fractional"
        )
    return value if mode == "ilp" else Fraction(value)
