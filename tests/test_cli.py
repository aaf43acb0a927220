import json
import subprocess
import sys
from pathlib import Path

import pytest

import streamalign

from streamalign.alignment import BrokenPredecessorChain
from streamalign.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from streamalign.fileio import load_traces, net_to_dict
from streamalign.metrics import METRIC_FAMILIES, oracle_costs_by_case
from streamalign.simplex import INFEASIBLE, LpResult
from streamalign import Marking, WorkflowNet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_align_running_example(capsys):
    code, out, _ = run_cli(
        capsys, "align", "--model", "n1", "--trace", "a,b,c", "--algorithm", "ias"
    )
    assert code == EXIT_OK
    assert "cost: 1" in out
    assert ">>" in out


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", "n1")
    assert code == EXIT_OK
    assert out.strip() == "ok"


def test_validate_broken_net(capsys, tmp_path):
    net = WorkflowNet(
        ["p", "q"], ["t"], [("p", "t")], {"t": "a"}, Marking.of("p"), Marking.of("q")
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(net_to_dict(net)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", "--model", str(path))
    assert code == EXIT_DATA
    assert "unique-source" in out  # q has no incoming arc, so sources are not unique


def test_generate_then_replay(capsys, tmp_path):
    log_path = tmp_path / "log.jsonl"
    code, out, _ = run_cli(
        capsys,
        "generate", "--model", "choice-loop", "--traces", "5",
        "--swap-p", "0.2", "--seed", "3", "--out", str(log_path),
    )
    assert code == EXIT_OK
    assert len(load_traces(log_path)) == 5

    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys,
        "replay", "--model", "choice-loop", "--log", str(log_path),
        "--algorithms", "ias,occ-w1", "--out", str(out_dir), "--timing", "off",
    )
    assert code == EXIT_OK
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "metrics.txt").exists()
    events = [
        json.loads(line)
        for line in (out_dir / "events_ias.jsonl").read_text().splitlines()
    ]
    assert all(
        set(e) == {"case", "event_index", "cost", "alignment", "queued", "visited", "lps"}
        for e in events
    )
    header = (out_dir / "metrics.csv").read_text().splitlines()[0].split(",")
    expected = ["log", "heuristic", "order"] + [
        f"{fam}:{algo}" for fam in METRIC_FAMILIES for algo in ["ias", "occ-w1"]
    ]
    assert header == expected
    assert (out_dir / "metrics.csv").read_text().splitlines()[1].split(",")[1:3] == [
        "ilp", "sequential",
    ]


def test_metrics_files_record_the_heuristic_and_order_replayed(capsys, tmp_path):
    # An ilp and an lp replay of a preset emit the same events, so only the
    # recorded run settings tell their metrics files apart.
    texts = {}
    for heuristic in ("ilp", "lp"):
        out_dir = tmp_path / heuristic
        code, _, _ = run_cli(
            capsys,
            "replay", "--model", "n1", "--log", "bundled-3traces", "--heuristic", heuristic,
            "--algorithms", "ias", "--order", "round-robin", "--timing", "off",
            "--out", str(out_dir),
        )
        assert code == EXIT_OK
        texts[heuristic] = (out_dir / "metrics.txt").read_text()
        assert f"heuristic: {heuristic}, order: round-robin" in texts[heuristic].splitlines()[0]
    assert texts["ilp"] != texts["lp"]


def test_replay_zero_fp_for_exact_algorithms(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys,
        "replay", "--model", "n1", "--log", "bundled-3traces",
        "--algorithms", "ias,occ", "--out", str(out_dir), "--timing", "off",
    )
    assert code == EXIT_OK
    row = (out_dir / "metrics.csv").read_text().splitlines()[1].split(",")
    header = (out_dir / "metrics.csv").read_text().splitlines()[0].split(",")
    for algo in ("ias", "occ"):
        assert row[header.index(f"traces_with_fp:{algo}")] == "0"


def test_replay_deterministic_outputs(capsys, tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in dirs:
        code, _, _ = run_cli(
            capsys,
            "replay", "--model", "trap", "--log", "adversarial",
            "--algorithms", "ias,occ-w1", "--order", "sequential",
            "--seed", "7", "--timing", "off", "--out", str(out_dir),
        )
        assert code == EXIT_OK
    for name in ("metrics.csv", "metrics.txt", "events_ias.jsonl", "events_occ-w1.jsonl"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "names, runs",
    [
        ("occ,occ-w1", ["occ", "occ-w1"]),
        ("occ-w1,iasr,occ", ["occ", "occ-w1", "iasr"]),
        ("occ-w1,iasr", ["occ", "occ-w1", "iasr"]),
        ("occ,ias,occ-w2", ["ias", "occ", "occ-w2"]),
    ],
)
def test_replay_runs_each_engine_once(capsys, monkeypatch, tmp_path, names, runs):
    # The oracle's algorithm runs first; it runs a second time only when it
    # is not listed, and then just for the oracle.
    ran = []
    run = streamalign.cli.StreamEngine.run

    def counted(engine, events):
        ran.append(engine.algorithm)
        return run(engine, events)

    monkeypatch.setattr(streamalign.cli.StreamEngine, "run", counted)
    code, _, _ = run_cli(
        capsys,
        "replay", "--model", "n1", "--log", "bundled-3traces",
        "--algorithms", names, "--out", str(tmp_path), "--timing", "off",
    )
    assert code == EXIT_OK and ran == runs


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "replay", "--model", "n1")  # missing --log/--out
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "align", "--model", "n1", "--trace", "")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "bogus")
    assert code == EXIT_USAGE


def test_unknown_algorithm_is_data_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "replay", "--model", "n1", "--log", "bundled-3traces",
        "--algorithms", "warp", "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA
    assert "warp" in err


@pytest.mark.parametrize("names", ["ias,ias", "occ-w1,occ-w01"])
def test_a_repeated_algorithm_is_data_error(capsys, tmp_path, names):
    # both names parse to one (kind, window): replaying it twice would
    # overwrite its events file and repeat every metrics.csv column
    out_dir = tmp_path / "x"
    code, _, err = run_cli(
        capsys,
        "replay", "--model", "n1", "--log", "bundled-3traces",
        "--algorithms", names, "--out", str(out_dir),
    )
    assert code == EXIT_DATA
    first, second = names.split(",")
    assert f"{first!r} and {second!r}" in err
    assert not out_dir.exists()


def test_unreadable_model_is_data_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", "--model", str(tmp_path / "missing.json"))
    assert code == EXIT_DATA


def test_generation_failure_is_data_error(capsys, tmp_path):
    # parallel-tau has no complete run of length 1
    code, _, err = run_cli(
        capsys,
        "generate", "--model", "parallel-tau", "--max-len", "1", "--traces", "2",
        "--out", str(tmp_path / "log.jsonl"),
    )
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "places, transitions, arcs, message",
    [
        (["i", 2], ["t"], None, "is not a string"),
        (["i", "o"], [1, "t"], None, "is not a string"),
        ([0, 1], [2], None, "is not a string"),
        (["p1", "p2"], ["t1"], [[["p1"], "t1"], ["t1", "p2"]],
         "arc (['p1'], 't1') is not a pair of strings"),
        (["p1", "p2"], ["t1"], [["p1", "t1", "x"], ["t1", "p2"]],
         "arc ('p1', 't1', 'x') is not a pair of strings"),
    ],
    ids=["place", "transition", "all", "arc-node", "arc-length"],
)
@pytest.mark.parametrize("command", ["validate", "replay"])
def test_non_string_node_ids_are_data_errors(
    capsys, tmp_path, command, places, transitions, arcs, message
):
    if arcs is None:
        arcs = [[places[0], transitions[-1]], [transitions[-1], places[-1]]]
    doc = {
        "places": places,
        "transitions": [{"id": t, "label": "a"} for t in transitions],
        "arcs": arcs,
        "initial": {str(places[0]): 1},
        "final": {str(places[-1]): 1},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["validate", "--model", str(path)]
    if command == "replay":
        argv = ["replay", "--model", str(path), "--log", "bundled-3traces",
                "--out", str(tmp_path / "out"), "--timing", "off"]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err


def good_net_document():
    return {
        "places": ["p1", "p2"],
        "transitions": [{"id": "t1", "label": "a"}],
        "arcs": [["p1", "t1"], ["t1", "p2"]],
        "initial": {"p1": 1},
        "final": {"p2": 1},
    }


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("initial", {"p1": True}, "field 'initial': token count True for place 'p1'"),
        ("initial", {"p1": "1"}, "field 'initial': token count '1' for place 'p1'"),
        ("final", {"p2": 1.0}, "field 'final': token count 1.0 for place 'p2'"),
        ("places", "p1", "field 'places' is not a list"),
        ("transitions", {"id": "t1", "label": "a"}, "field 'transitions' is not a list"),
        ("arcs", "p1t1", "field 'arcs' is not a list"),
    ],
    ids=["bool-count", "text-count", "float-count", "places", "transitions", "arcs"],
)
@pytest.mark.parametrize("command", ["validate", "replay"])
def test_mistyped_net_document_fields_are_data_errors(
    capsys, tmp_path, command, field, value, message
):
    doc = good_net_document()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "validate", "--model", str(path))[0] == EXIT_OK
    doc[field] = value
    path.write_text(json.dumps(doc))
    argv = ["validate", "--model", str(path)]
    if command == "replay":
        argv = ["replay", "--model", str(path), "--log", "bundled-3traces",
                "--out", str(tmp_path / "out"), "--timing", "off"]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err


def with_changes(**fields):
    doc = good_net_document()
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100000 + "]" * 100000, "cannot read net document '{path}': nested too deeply"),
        (with_changes(transitions=[{"id": "t1", "label": "a"}, {"id": "t1", "label": "b"}]),
         "net document repeats transition 't1'"),
        (with_changes(places=["p1", "p2", "p1"]), "net document repeats place 'p1'"),
        (with_changes(arcs=[["p1", "t1"], ["t1", "p2"], ["p1", "t1"]]),
         "net document repeats arc ('p1', 't1')"),
        (with_changes(places=["tp0", "p2"], arcs=[["tp0", "t1"], ["t1", "p2"]],
                      initial={"tp0": 1}),
         "model id 'tp0' collides with generated trace-part ids (tp#/tt#)"),
        (with_changes().replace(
            '"initial": {"p1": 1}', '"initial": {"p1": 1, "p1": 1}, "initial": {"p1": 1}'
        ), "net document '{path}' repeats key 'p1'"),
        (with_changes()[:-1] + ', "arcs": [["p1", "t1"], ["t1", "p2"]]}',
         "net document '{path}' repeats key 'arcs'"),
    ],
    ids=["deep-nesting", "repeated-transition", "repeated-place", "repeated-arc", "reserved-id",
         "repeated-marking-key", "repeated-field"],
)
@pytest.mark.parametrize("command", ["validate", "align", "replay"])
def test_net_documents_the_net_cannot_represent_are_data_errors(
    capsys, tmp_path, command, text, message
):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = {
        "validate": ["validate", "--model", str(path)],
        "align": ["align", "--model", str(path), "--trace", "b"],
        "replay": ["replay", "--model", str(path), "--log", "bundled-3traces",
                   "--out", str(tmp_path / "out"), "--timing", "off"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err
    assert message.format(path=path) in err
    assert out == ""


def test_a_deeply_nested_stream_record_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"case": "1", "activity": "a"}\n{"case": "1", "activity": '
        + "[" * 100000 + "]" * 100000 + "}\n"
    )
    code, _, err = run_cli(
        capsys, "replay", "--model", "n1", "--log", str(path),
        "--out", str(tmp_path / "out"), "--timing", "off",
    )
    assert code == EXIT_DATA
    assert err == f"error: {path}:2: stream record nested too deeply\n"


FIRST_RECORD = '{"case": "1", "activity": "a"}\n'


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("log.jsonl", FIRST_RECORD + '{"case": "1", "activity": "a", "activity": "b"}\n',
         "{path}:2: stream record repeats key 'activity'"),
        ("log.jsonl", FIRST_RECORD + '{"case": null, "activity": "b"}\n',
         "{path}:2: case id None is not a string or an integer"),
        ("log.jsonl", FIRST_RECORD + '{"case": ["1"], "activity": "b"}\n',
         "{path}:2: case id ['1'] is not a string or an integer"),
        ("log.csv", "case,activity,case\n1,a,2\n", "{path}: CSV header repeats column 'case'"),
    ],
    ids=["repeated-key", "null-case", "list-case", "repeated-column"],
)
def test_stream_records_that_would_lose_a_value_are_data_errors(
    capsys, tmp_path, name, text, message
):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "replay", "--model", "n1", "--log", str(path),
        "--out", str(tmp_path / "out"), "--timing", "off",
    )
    assert code == EXIT_DATA
    assert err == f"error: {message.format(path=path)}\n"
    assert out == ""


@pytest.mark.parametrize(
    "doc, message",
    [
        ({k: v for k, v in good_net_document().items() if k != "places"},
         "net document has no field 'places'"),
        ({**good_net_document(), "transitions": [{"id": ["t1"], "label": "a"}]},
         "net document transition 0: id ['t1'] is not a string"),
    ],
    ids=["no-places", "list-transition-id"],
)
def test_malformed_net_documents_name_the_field(capsys, tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--model", str(path))
    assert code == EXIT_DATA
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"case": "1"}', "{path}:2: stream record has no field 'activity'"),
        ("[1, 2]", "{path}:2: stream record is not a JSON object"),
    ],
    ids=["no-activity", "list-record"],
)
def test_malformed_stream_records_name_the_line_and_field(capsys, tmp_path, record, message):
    path = tmp_path / "log.jsonl"
    path.write_text(FIRST_RECORD + record + "\n")
    code, out, err = run_cli(
        capsys, "replay", "--model", "n1", "--log", str(path),
        "--out", str(tmp_path / "out"), "--timing", "off",
    )
    assert code == EXIT_DATA
    assert err == f"error: {message.format(path=path)}\n"
    assert out == ""


def inflated_oracle(records):
    return {case: [c + 1 for c in costs] for case, costs in oracle_costs_by_case(records).items()}


def broken_chain(*args):
    raise BrokenPredecessorChain("state 0x1 has no predecessor entry")


@pytest.mark.parametrize(
    "site, fault, argv, name",
    [
        ("streamalign.search.verify_prefix_alignment", lambda *args: False,
         ["align", "--model", "n1", "--trace", "a,b"], "InvariantViolation"),
        ("streamalign.cli.oracle_costs_by_case", inflated_oracle,
         ["replay", "--model", "n1", "--log", "bundled-3traces", "--algorithms", "ias,occ",
          "--timing", "off"], "InvariantViolation"),
        ("streamalign.heuristic.solve_ilp", lambda *args: LpResult(INFEASIBLE, None, None),
         ["align", "--model", "n1", "--trace", "a,b"], "InvariantViolation"),
        ("streamalign.search.reconstruct", broken_chain,
         ["align", "--model", "n1", "--trace", "a,b"], "BrokenPredecessorChain"),
    ],
    ids=["verify", "oracle", "estimate", "reconstruct"],
)
def test_invariant_violation_is_internal_error(
    capsys, monkeypatch, tmp_path, site, fault, argv, name
):
    monkeypatch.setattr(site, fault)
    if argv[0] == "replay":
        argv = argv + ["--out", str(tmp_path / "out")]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_INTERNAL
    assert err.startswith(f"internal error: {name}: ")
    assert "Traceback" not in err


def test_replay_of_an_unbounded_net_exits_3(tmp_path, unbounded):
    # Searching this net used to grow memory without end; in a fresh
    # interpreter it must now stop with the internal-failure code.
    (tmp_path / "unbounded.json").write_text(json.dumps(net_to_dict(unbounded)))
    (tmp_path / "log.jsonl").write_text('{"case": "1", "activity": "a"}\n')
    src = str(Path(streamalign.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "streamalign", "replay", "--model", "unbounded.json",
         "--log", "log.jsonl", "--out", "out", "--timing", "off"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == EXIT_INTERNAL, done.stderr
    assert done.stderr.startswith("internal error: StateSpaceTooLarge: place 'sink'")
    assert "Traceback" not in done.stderr
