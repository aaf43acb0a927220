"""Monitoring interleaved cases on one stream.

Events from different cases arrive shuffled together; each case keeps its
own product net and cached search state, so per-case verdicts are identical
to what a dedicated run would produce.  The case table only ever grows —
deciding when a case is finished is a policy question the engine leaves
open, which the memory gauge makes visible.
"""

from streamalign import Event, StreamEngine
from streamalign.assets import ordering_model

engine = StreamEngine(ordering_model(), algorithm="ias", heuristic="ilp")

stream = [
    Event("order-7", "a", 1),
    Event("order-9", "b", 2),   # fine: the account step is optional
    Event("order-7", "b", 3),
    Event("order-9", "c", 4),   # a quote after an order: deviation
    Event("order-7", "x", 5),   # activity the model does not know at all
]

print("event            -> case cost (running deviation severity)")
for event in stream:
    result = engine.process_event(event)
    print(f"({event.case_id}, {event.activity:>2}) -> {result.cost}")

print("\ncases tracked:", len(engine.table.cases))
print("markings cached by the searches:", engine.table.cached_markings())

# the per-event record is what the CLI writes as JSONL
record = result.to_record()
print("\nlast record fields:", sorted(record))
print("its alignment:", record["alignment"])
