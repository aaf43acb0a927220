"""File formats: net documents, event logs and per-event result records.

Nets are single JSON documents with ``places``, ``transitions`` (id plus
label, ``null`` marking a silent transition), ``arcs``, ``initial`` and
``final``.  Logs and streams share one representation: line-delimited JSON
records ``{"case": ..., "activity": ...}`` or CSV with a ``case,activity``
header (extra columns ignored).  Traces are recovered by grouping on the
case id in order of first appearance; a JSON record's case id must be a
string or an integer.  A JSON object that names a key twice, or a CSV header
that names a column twice, is a data error: read plainly, the last value
would win without notice.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from pathlib import Path

from .assets import BUNDLED_LOGS, BUNDLED_MODELS
from .petri import Marking, NetDefinitionError, WorkflowNet


class DataError(ValueError):
    """Unreadable or malformed input data."""


class _RepeatedKey(Exception):
    """A JSON object names one key twice; ``json`` would keep the last value."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The ``object_pairs_hook`` of every JSON read: a repeated key raises."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return obj


def net_to_dict(net: WorkflowNet) -> dict:
    return {
        "places": list(net.places),
        "transitions": [{"id": t, "label": net.label(t)} for t in net.transitions],
        "arcs": [list(arc) for arc in sorted(net.arcs)],
        "initial": net.initial.to_dict(),
        "final": net.final.to_dict(),
    }


def net_from_dict(doc: dict) -> WorkflowNet:
    if not isinstance(doc, dict):
        raise DataError("malformed net document: not a JSON object")
    for name, kind in (("places", list), ("transitions", list), ("arcs", list),
                       ("initial", dict), ("final", dict)):
        if name not in doc:
            raise DataError(f"net document has no field {name!r}")
        if not isinstance(doc[name], kind):
            what = "a list" if kind is list else "an object"
            raise DataError(f"net document field {name!r} is not {what}")
    for i, t in enumerate(doc["transitions"]):
        if not (isinstance(t, dict) and "id" in t and "label" in t):
            raise DataError(f"net document transition {i} is not an object with 'id' and 'label'")
        if not isinstance(t["id"], str):
            raise DataError(f"net document transition {i}: id {t['id']!r} is not a string")
    places = doc["places"]
    transitions = [t["id"] for t in doc["transitions"]]
    labels = {t["id"]: t["label"] for t in doc["transitions"]}
    arcs = [tuple(arc) if isinstance(arc, list) else arc for arc in doc["arcs"]]
    initial, final = _marking(doc, "initial"), _marking(doc, "final")
    try:
        net = WorkflowNet(places, transitions, arcs, labels, initial, final)
    except NetDefinitionError as exc:
        raise DataError(str(exc)) from exc
    # The net keeps one copy of each node and arc, so a repeat would vanish:
    # a second label for a transition would win, a second arc would not add
    # weight.  The checks run here, where every id is known to be a string.
    for what, entries in (("place", places), ("transition", transitions), ("arc", arcs)):
        repeated = [entry for entry, n in Counter(entries).items() if n > 1]
        if repeated:
            raise DataError(f"net document repeats {what} {', '.join(map(repr, repeated))}")
    return net


def _marking(doc: dict, name: str) -> Marking:
    try:
        return Marking(doc[name])
    except ValueError as exc:
        raise DataError(f"net document field {name!r}: {exc}") from exc


def load_net(path_or_name: str | Path) -> WorkflowNet:
    name = str(path_or_name)
    if name in BUNDLED_MODELS:
        return BUNDLED_MODELS[name]()
    path = Path(path_or_name)
    if not path.exists():
        raise DataError(f"model {name!r} is neither a file nor a bundled model name")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read net document {name!r}: {exc}") from exc
    except _RepeatedKey as exc:
        raise DataError(f"net document {name!r} repeats key {exc.args[0]!r}") from None
    except RecursionError as exc:
        raise DataError(f"cannot read net document {name!r}: nested too deeply") from exc
    return net_from_dict(doc)


def read_stream_records(path: Path) -> list[tuple[str, str]]:
    is_csv = path.suffix.lower() == ".csv"
    try:
        # untranslated for CSV, whose reader keeps a quoted "\r" or "\r\n" itself
        with path.open(encoding="utf-8", newline="" if is_csv else None) as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read log {path}: {exc}") from exc
    records: list[tuple[str, str]] = []
    if is_csv:
        reader = csv.DictReader(io.StringIO(text, newline=""))
        if reader.fieldnames is None or not {"case", "activity"} <= set(reader.fieldnames):
            raise DataError(f"{path}: CSV log needs a 'case,activity' header")
        repeated = [name for name, n in Counter(reader.fieldnames).items() if n > 1]
        if repeated:
            raise DataError(f"{path}: CSV header repeats column {repeated[0]!r}")
        for row in reader:
            records.append((row["case"], row["activity"]))
    else:
        # only "\n" ends a record: U+2028 and its kin may stand raw in a JSON string
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: stream record is not JSON: {exc}") from exc
            except _RepeatedKey as exc:
                raise DataError(
                    f"{path}:{lineno}: stream record repeats key {exc.args[0]!r}"
                ) from None
            except RecursionError as exc:
                raise DataError(f"{path}:{lineno}: stream record nested too deeply") from exc
            if not isinstance(doc, dict):
                raise DataError(f"{path}:{lineno}: stream record is not a JSON object")
            for name in ("case", "activity"):
                if name not in doc:
                    raise DataError(f"{path}:{lineno}: stream record has no field {name!r}")
            case = doc["case"]
            if not isinstance(case, (str, int)) or isinstance(case, bool):
                raise DataError(f"{path}:{lineno}: case id {case!r} is not a string or an integer")
            records.append((str(case), doc["activity"]))
    return records


def load_traces(path_or_name: str | Path) -> list[list[str]]:
    """Traces of a log file or bundled log, grouped by case id."""
    name = str(path_or_name)
    if name in BUNDLED_LOGS:
        return BUNDLED_LOGS[name]()
    path = Path(path_or_name)
    if not path.exists():
        raise DataError(f"log {name!r} is neither a file nor a bundled log name")
    grouped: dict[str, list[str]] = {}
    for case, activity in read_stream_records(path):
        grouped.setdefault(case, []).append(activity)
    if not grouped:
        raise DataError(f"log {name!r} contains no events")
    return list(grouped.values())


def save_traces(log: list[list[str]], path: str | Path) -> None:
    """Write traces as a stream file, one case per trace, ids 1..n."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            # the writer quotes only the terminator's "\n", not a bare "\r"
            quoting = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(["case", "activity"])
            for case_no, trace in enumerate(log, start=1):
                for activity in trace:
                    (quoting if "\r" in activity else writer).writerow([case_no, activity])
    else:
        with path.open("w", encoding="utf-8") as handle:
            for case_no, trace in enumerate(log, start=1):
                for activity in trace:
                    handle.write(
                        json.dumps({"case": str(case_no), "activity": activity}, sort_keys=True)
                        + "\n"
                    )


def jsonl_text(records) -> str:
    """The records as JSON lines, keys sorted."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
