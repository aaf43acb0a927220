import json

import pytest

from streamalign.assets import BUNDLED_LOGS, BUNDLED_MODELS, adversarial_log, demo_log
from streamalign.fileio import (
    DataError,
    load_net,
    load_traces,
    net_from_dict,
    net_to_dict,
    save_traces,
)
from streamalign import validate_wfnet


def test_net_round_trip(tmp_path, n1):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net_to_dict(n1)), encoding="utf-8")
    loaded = load_net(path)
    assert net_to_dict(loaded) == net_to_dict(n1)
    assert loaded.label("t2") is None


def test_bundled_models_resolve_and_validate():
    for name in BUNDLED_MODELS:
        assert validate_wfnet(load_net(name)).ok, name


def test_bundled_logs_resolve():
    assert load_traces("bundled-3traces") == demo_log()
    assert load_traces("adversarial") == adversarial_log()
    assert ["x", "y", "z"] in BUNDLED_LOGS["adversarial"]()


def test_missing_model_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_net(tmp_path / "nope.json")


def test_malformed_net_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"places": ["p"]}', encoding="utf-8")
    with pytest.raises(DataError):
        load_net(path)
    with pytest.raises(DataError):
        net_from_dict({"places": ["p"], "transitions": "x", "arcs": []})


def test_traces_round_trip_jsonl(tmp_path):
    log = [["a", "b"], ["c"]]
    path = tmp_path / "log.jsonl"
    save_traces(log, path)
    assert load_traces(path) == log


def test_traces_round_trip_csv(tmp_path):
    # a line break inside a quoted field, or a Unicode line separator, is
    # part of the activity, not the end of the record
    for i, activity in enumerate(["b", "a\nb", "a\rb", "a\r\nb", "a\u2028b", "a,b", 'a"b']):
        log = [["a", activity], ["c"]]
        path = tmp_path / f"log{i}.csv"
        save_traces(log, path)
        assert load_traces(path) == log, activity


def test_jsonl_activity_may_hold_a_raw_unicode_line_separator(tmp_path):
    # JSON allows U+2028 and U+2029 unescaped inside a string; only "\n"
    # ends a record
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"case": "1", "activity": "a\u2028b"}\n{"case": "1", "activity": "c\u2029"}\n',
        encoding="utf-8",
    )
    assert "\u2028" in path.read_text(encoding="utf-8")
    assert load_traces(path) == [["a\u2028b", "c\u2029"]]


def test_csv_extra_columns_ignored(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("case,activity,resource\n1,a,alice\n1,b,bob\n", encoding="utf-8")
    assert load_traces(path) == [["a", "b"]]


def test_csv_without_header_is_data_error(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("1,a\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_traces(path)


def test_malformed_jsonl_line_is_data_error(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"case": "1", "activity": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError):
        load_traces(path)


def test_empty_log_is_data_error(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_traces(path)
