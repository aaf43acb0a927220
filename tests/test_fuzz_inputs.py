"""Mutated net documents and stream files fed to the command line.

Each example starts from a valid document (the bundled ``n1`` net) or a
valid stream file and applies a few random mutations: a value replaced by
one of another type, a field or entry removed, repeated or renamed, a key
repeated within one object, a value nested inside lists or objects, and
non-finite numbers.  ``validate``, ``align`` and ``replay`` then run
in-process.  Each must exit 0 or 2, or 3 only for ``StateSpaceTooLarge``,
and never raise; an exit 2 names what is wrong, not a Python exception.  A
net that ``validate`` accepts must be accepted by ``align`` and ``replay``
too.  Draws are derandomized, so every run feeds the same inputs.
"""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from streamalign.assets import ordering_model
from streamalign.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, main
from streamalign.fileio import net_to_dict


class Pairs(list):
    """A JSON object as its list of (key, value) pairs, so a key can repeat."""


class Deep:
    """A value inside ``depth`` lists, written without recursion."""

    def __init__(self, value, depth: int):
        self.value, self.depth = value, depth


def to_pairs(value):
    if isinstance(value, dict):
        return Pairs((k, to_pairs(v)) for k, v in value.items())
    if isinstance(value, list):
        return [to_pairs(v) for v in value]
    return value


def dump(value) -> str:
    """JSON text of ``value``; non-finite floats become NaN and Infinity."""
    if isinstance(value, Deep):
        return "[" * value.depth + dump(value.value) + "]" * value.depth
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value)


BASE_NET = net_to_dict(ordering_model())
NAMES = sorted(
    set(BASE_NET) | set(BASE_NET["places"]) | {"id", "label", "case", "activity"}
    | {t["id"] for t in BASE_NET["transitions"]} | {"a", "b", "c", "1", "2", "tp0", "tt1"}
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=3)
    | st.sampled_from([128, 10**30])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(NAMES)
    | st.text(max_size=3)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(st.tuples(st.sampled_from(NAMES), inner), max_size=3).map(Pairs),
    max_leaves=5,
)
OPERATIONS = ["replace", "delete", "repeat", "rename", "nest", "insert"]


def containers(value, found):
    """Every object and list inside ``value``, itself included."""
    if isinstance(value, list):
        found.append(value)
        for item in value if not isinstance(value, Pairs) else (v for _, v in value):
            containers(item, found)
    return found


def mutate(data, doc) -> None:
    """Apply one drawn mutation to an object or list somewhere in ``doc``."""
    target = data.draw(st.sampled_from(containers(doc, [])))
    operation = data.draw(st.sampled_from(OPERATIONS))
    if not target or operation == "insert":
        at = data.draw(st.integers(min_value=0, max_value=len(target)))
        item = data.draw(VALUES)
        if isinstance(target, Pairs):
            item = (data.draw(st.sampled_from(NAMES)), item)
        target.insert(at, item)
        return
    i = data.draw(st.integers(min_value=0, max_value=len(target) - 1))
    keyed = isinstance(target, Pairs)
    if operation == "replace":
        value = data.draw(VALUES)
        target[i] = (target[i][0], value) if keyed else value
    elif operation == "delete":
        del target[i]
    elif operation == "repeat":  # a repeated key, id, arc or record
        repeat = target[i] if data.draw(st.booleans()) else (
            (target[i][0], data.draw(VALUES)) if keyed else data.draw(VALUES)
        )
        target.insert(i + 1, repeat)
    elif operation == "rename":
        name = data.draw(st.sampled_from(NAMES))
        target[i] = (name, target[i][1]) if keyed else name
    else:  # nest
        value = target[i][1] if keyed else target[i]
        if data.draw(st.booleans()):
            value = Deep(value, 100_000)  # too deep for the parser
        else:
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                value = [value] if data.draw(st.booleans()) else Pairs([("id", value)])
        target[i] = (target[i][0], value) if keyed else value


def run(*argv) -> tuple[int, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))  # an exception here is a traceback on the command line
    return code, err.getvalue()


def assert_handled(code: int, err: str, path: Path) -> None:
    assert code in (EXIT_OK, EXIT_DATA, EXIT_INTERNAL), (code, err, path.read_text()[:2000])
    assert "Traceback" not in err
    if code == EXIT_INTERNAL:
        assert err.startswith("internal error: StateSpaceTooLarge: "), (err, path.read_text())
    elif code == EXIT_DATA:
        assert err.startswith("error: ") or err == "", err
        # the message names the field, entry or line, not a Python exception
        assert not any(name in err for name in ("KeyError(", "TypeError(", "ValueError(")), err


def fixed(examples: int) -> settings:
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


@fixed(200)
@given(st.data())
def test_mutated_net_documents_fail_loudly(data):
    doc = to_pairs(BASE_NET)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(dump(doc), encoding="utf-8")
        model = ["--model", str(path)]
        codes = {}
        for command, argv in {
            "validate": ["validate", *model],
            "align": ["align", *model, "--trace", "a,b,c"],
            "replay": ["replay", *model, "--log", "bundled-3traces",
                       "--out", str(Path(tmp) / "out"), "--timing", "off"],
        }.items():
            codes[command], err = run(*argv)
            assert_handled(codes[command], err, path)
        if codes["validate"] == EXIT_OK:
            assert codes["align"] != EXIT_DATA and codes["replay"] != EXIT_DATA, path.read_text()


BASE_STREAM = [
    {"case": case, "activity": activity}
    for case, activity in [("1", "a"), ("2", "b"), ("1", "b"), ("2", "c"), ("1", "c")]
]


@fixed(150)
@given(st.data())
def test_mutated_stream_files_fail_loudly(data):
    records = to_pairs(BASE_STREAM)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        mutate(data, records)
    lines = [dump(record) for record in records]
    extra = data.draw(st.sampled_from([None, None, None, "", " ", "{", "[]"]))
    if extra is not None:
        lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines))), extra)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = run(
            "replay", "--model", "n1", "--log", str(path), "--algorithms", "ias,occ-w1",
            "--out", str(Path(tmp) / "out"), "--timing", "off",
        )
        assert_handled(code, err, path)
