"""The whole-alignment verifier, kept as the reference for the checkpointed one.

It replays every move from the model's initial marking on every call, one
:class:`~streamalign.petri.Marking` per model move, and checks the
projections as whole lists.  ``tests/test_checkpoints.py`` requires
:func:`streamalign.alignment.verify_prefix_alignment` to give the same
verdict on every alignment, resumed from a checkpoint or not.
"""

from __future__ import annotations

from streamalign.alignment import PrefixAlignment
from streamalign.petri import NotEnabledError, WorkflowNet, fire_sequence
from streamalign.spn import Move, MoveKind, move_cost


def model_transitions(moves: tuple[Move, ...] | list[Move]) -> list[str]:
    """The second row: the model transitions of the model and synchronous moves."""
    return [m.model_transition for m in moves if m.kind in (MoveKind.MODEL, MoveKind.SYNC)]


def reference_verify(alignment: PrefixAlignment, trace: list[str], model: WorkflowNet) -> bool:
    """Check both projections and per-move consistency; never raises."""
    for t in alignment.moves:
        if t.cost != move_cost(t):
            return False
        if t.kind is MoveKind.SYNC:
            if t.model_label is None or t.activity != t.model_label:
                return False
            if t.model_transition is None or t.trace_transition is None:
                return False
        elif t.kind is MoveKind.LOG:
            if t.model_transition is not None or not t.activity:
                return False
        elif t.kind is MoveKind.MODEL:
            if t.model_transition is None or t.activity is not None:
                return False
    observed = [m.activity for m in alignment.moves if m.kind in (MoveKind.LOG, MoveKind.SYNC)]
    if observed != list(trace):
        return False
    if alignment.total_cost != sum(m.cost for m in alignment.moves):
        return False
    transitions = model_transitions(alignment.moves)
    for t in transitions:
        if not model.has_transition(t):
            return False
    try:
        fire_sequence(model, model.initial, transitions)
    except NotEnabledError:
        return False
    return True
