import random
import subprocess
import sys
from pathlib import Path

import pytest

import streamalign

from streamalign import (
    Marking,
    NotEnabledError,
    WorkflowNet,
    enabled,
    enumerate_state_space,
    fire,
    fire_sequence,
    validate_wfnet,
)
from streamalign.petri import NetDefinitionError, UnknownNodeError
from tests.conftest import make_random_wfnet


def test_marking_canonical_form():
    m = Marking({"b": 1, "a": 2, "c": 0})
    assert m.items == (("a", 2), ("b", 1))
    assert m.get("c") == 0
    assert m == Marking.of("a", "a", "b")
    assert hash(m) == hash(Marking.of("b", "a", "a"))
    assert Marking.of("a") < Marking.of("b")
    assert repr(m) == "[a^2, b]"


def test_marking_rejects_negative_counts():
    with pytest.raises(ValueError):
        Marking({"a": -1})


@pytest.mark.parametrize("count", [True, False, 1.0, "1", None])
def test_marking_rejects_counts_that_are_not_integers(count):
    with pytest.raises(ValueError, match="not an integer"):
        Marking({"a": count})
    with pytest.raises(ValueError, match="not an integer"):
        Marking([("a", count)])


def test_construction_rejects_dangling_arcs():
    with pytest.raises(NetDefinitionError):
        WorkflowNet(["p"], ["t"], [("p", "nope")], {"t": "a"}, Marking.of("p"), Marking.of("p"))


def test_construction_rejects_place_transition_overlap():
    with pytest.raises(NetDefinitionError):
        WorkflowNet(["x"], ["x"], [], {"x": "a"}, Marking(), Marking())


def test_construction_rejects_empty_label():
    with pytest.raises(NetDefinitionError):
        WorkflowNet(["p"], ["t"], [], {"t": ""}, Marking.of("p"), Marking.of("p"))


def test_validate_n1_ok(n1):
    assert validate_wfnet(n1).ok


def test_validate_missing_arc_flags_node(n1):
    arcs = set(n1.arcs) - {("t3", "p3")}
    broken = WorkflowNet(n1.places, n1.transitions, arcs, n1.labels, n1.initial, n1.final)
    report = validate_wfnet(broken)
    assert not report.ok
    assert any("t3" in v.nodes for v in report.violations)


def test_validate_single_place_net():
    net = WorkflowNet(["p"], [], [], {}, Marking.of("p"), Marking.of("p"))
    report = validate_wfnet(net)
    assert not report.ok
    assert any(v.rule == "source-equals-sink" for v in report.violations)


def test_validate_every_arc_removal_breaks_n1(n1):
    for arc in n1.arcs:
        mutated = WorkflowNet(
            n1.places, n1.transitions, set(n1.arcs) - {arc}, n1.labels, n1.initial, n1.final
        )
        assert not validate_wfnet(mutated).ok, f"removing {arc} went undetected"


def test_enabled_matches_firing_rule(n1):
    assert enabled(n1, Marking.of("p1"), "t1") is True
    assert enabled(n1, Marking.of("p1"), "t3") is False
    assert enabled(n1, Marking(), "t1") is False


def test_enabled_unknown_transition(n1):
    with pytest.raises(UnknownNodeError):
        enabled(n1, Marking.of("p1"), "t99")


def test_fire_single_steps(n1):
    assert fire(n1, Marking.of("p1"), "t1") == Marking.of("p2")
    assert fire(n1, Marking.of("p2"), "t4") == Marking.of("p3")


def test_fire_disabled_names_missing_place(n1):
    with pytest.raises(NotEnabledError) as exc:
        fire(n1, Marking.of("p1"), "t3")
    assert exc.value.missing_place == "p2"


def test_fire_self_loop_keeps_count():
    net = WorkflowNet(
        ["p", "q"],
        ["t"],
        [("p", "t"), ("t", "p"), ("t", "q")],
        {"t": "a"},
        Marking.of("p"),
        Marking.of("q"),
    )
    after = fire(net, Marking.of("p"), "t")
    assert after.get("p") == 1 and after.get("q") == 1


def test_fire_sequence(n1):
    assert fire_sequence(n1, Marking.of("p1"), ["t1", "t3"]) == Marking.of("p3")
    assert fire_sequence(n1, Marking.of("p1"), []) == Marking.of("p1")
    with pytest.raises(NotEnabledError) as exc:
        fire_sequence(n1, Marking.of("p1"), ["t3"])
    assert exc.value.step == 0


def test_fire_preserves_token_count_up_to_arc_difference():
    rng = random.Random(4)
    nets = 0
    while nets < 20:
        net = make_random_wfnet(rng)
        if net is None:
            continue
        nets += 1
        markings, edges = enumerate_state_space(net, net.initial, bound=2000)
        for source, t, target in edges:
            delta = len(set(net.postset(t)) - set(net.preset(t))) - len(
                set(net.preset(t)) - set(net.postset(t))
            )
            assert sum(c for _, c in target.items) - sum(c for _, c in source.items) == delta
            assert all(c >= 0 for _, c in target.items)


def test_enumerate_state_space_n1(n1):
    markings, edges = enumerate_state_space(n1, n1.initial)
    assert set(markings) == {Marking.of("p1"), Marking.of("p2"), Marking.of("p3")}
    assert len(edges) == 4  # t1, t2 from p1; t3, t4 from p2


def scc_off_path(net: WorkflowNet) -> list[str] | None:
    """Nodes outside the source's strongly connected component once a
    sink-to-source arc is added; None without a distinct unique source and sink."""
    nx = pytest.importorskip("networkx")
    sources = [p for p in net.places if not net.place_preset(p)]
    sinks = [p for p in net.places if not net.place_postset(p)]
    if len(sources) != 1 or len(sinks) != 1 or sources == sinks:
        return None
    graph = nx.DiGraph()
    graph.add_nodes_from(net.places + net.transitions)
    graph.add_edges_from(net.arcs)
    graph.add_edge(sinks[0], sources[0])
    component = next(c for c in nx.strongly_connected_components(graph) if sources[0] in c)
    return sorted(set(graph.nodes) - component)


def random_arbitrary_net(rng: random.Random) -> WorkflowNet:
    """Random bipartite nets, mostly malformed: any arc may be present, but
    arcs into the first place and out of the last one are rare."""
    places = [f"q{i}" for i in range(rng.randint(1, 6))]
    transitions = [f"t{i}" for i in range(rng.randint(0, 6))]
    density = rng.uniform(0.2, 0.6)
    arcs = [
        arc
        for p in places
        for t in transitions
        for arc in ((p, t), (t, p))
        if rng.random() < (density / 10 if arc in ((t, places[0]), (places[-1], t)) else density)
    ]
    labels = {t: rng.choice(["a", "b", None]) for t in transitions}
    return WorkflowNet(
        places, transitions, arcs, labels, Marking.of(places[0]), Marking.of(places[-1])
    )


def test_on_path_check_matches_strongly_connected_component():
    rng = random.Random(53)
    compared = off_path = 0
    for k in range(5000):
        net = make_random_wfnet(rng) if k % 5 == 0 else random_arbitrary_net(rng)
        if net is None:
            continue
        expected = scc_off_path(net)
        if expected is None:
            continue
        report = validate_wfnet(net)
        assert [v.nodes[0] for v in report.violations if v.rule == "not-on-path"] == expected
        compared += 1
        off_path += bool(expected)
    assert compared > 1000 and off_path > 300


def test_import_leaves_networkx_out():
    src = str(Path(streamalign.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, streamalign, streamalign.cli; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_every_exported_name_resolves():
    missing = [name for name in streamalign.__all__ if not hasattr(streamalign, name)]
    assert missing == []
    assert len(set(streamalign.__all__)) == len(streamalign.__all__)
