"""End-to-end acceptance checks.

Eight numbered checks, one test each; run ``pytest tests/test_acceptance.py
-v -s`` to see one PASS/FAIL line per check.  Checks 2, 4, 5 and 7 share one
generated suite: two preset models, one hundred noisy traces each, replayed
event by event through both refresh variants with full instrumentation.

Check 5 asserts the property that resuming a search after an extension
relies on: every estimate still held for an open marking when the product
net grows is at most that marking's true remaining cost in the grown net.
This holds because h_old <= h*_old <= h*_new; a prefix distance can only grow
as the trace grows.  Refreshed estimates may still fall below their previous
values (see tests/test_heuristic.py::test_estimates_can_shrink_under_extension
for a minimal counterexample); check 5 reports how often that happens but
does not fail on it.
"""

import time
from dataclasses import dataclass, field
from math import inf

import pytest

from streamalign import (
    CaseEntry,
    SearchCache,
    StreamEngine,
    astar_inc,
    astar_scratch,
    build_spn,
    dijkstra_oracle,
    distances_to_goal,
    enabled_transitions,
    estimate,
    extend_spn,
    generate_log,
    move_cost,
    occ_process_event,
    replay_log_as_stream,
    verify_prefix_alignment,
)
from streamalign.assets import adversarial_log, demo_log, ordering_model, trap_model
from streamalign.cli import EXIT_OK
from streamalign.cli import main as cli_main
from streamalign.generator import PRESETS
from streamalign.metrics import compute_metrics, oracle_costs_by_case
from streamalign.spn import trace_place
from tests.conftest import open_estimates

NOISE = {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}
TRACES_PER_PRESET = 100
SUITE_SEED = 2024
HEURISTIC = "ilp"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {number}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)


@dataclass
class SuiteData:
    pair_count: int = 0
    extension_count: int = 0
    cost_mismatches: list = field(default_factory=list)
    structure_failures: list = field(default_factory=list)
    g_map_changes: int = 0
    h_regressions: list = field(default_factory=list)
    stale_estimates_checked: int = 0
    inadmissible_stale: list = field(default_factory=list)
    lps_by_log: dict = field(default_factory=dict)  # log -> {"ias": n, "iasr": n}
    wall_time: float = 0.0


def g_by_marking(cache) -> str:
    """The cache's cost-so-far values keyed by marking, in a canonical text."""
    return repr(sorted((cache.spn.decode(s).items, g) for s, g in cache.g.items()))


@pytest.fixture(scope="module")
def suite() -> SuiteData:
    data = SuiteData()
    started = time.perf_counter()
    for preset_name, build in PRESETS.items():
        model = build()
        log = generate_log(model, TRACES_PER_PRESET, NOISE, max_len=8, seed=SUITE_SEED)
        totals = {"ias": 0, "iasr": 0}
        for trace in log:
            data.pair_count += 1
            ias_spn = build_spn(model, trace[:1])
            ias_cache = SearchCache(ias_spn)
            iasr_spn = build_spn(model, trace[:1])
            iasr_cache = SearchCache(iasr_spn)
            occ_state = CaseEntry()
            stale = {}
            for k, activity in enumerate(trace, start=1):
                if k > 1:
                    # -- instrumentation around the extension ----------------
                    old_goal = ias_spn.goal_place
                    stale = {
                        name: {
                            cache.spn.decode(s): h for s, h in open_estimates(cache).items()
                        }
                        for name, cache in (("ias", ias_cache), ("iasr", iasr_cache))
                    }
                    g_before = g_by_marking(ias_cache)
                    closed_before = {
                        ias_spn.decode(s) for s in ias_cache.g.keys() - set(ias_cache.open.states())
                    }
                    new_moves = {m.tid for m in extend_spn(ias_spn, activity)}
                    new_place = ias_spn.goal_place
                    g_after = g_by_marking(ias_cache)
                    if g_before != g_after:
                        data.g_map_changes += 1
                    # frontier growth: every transition added by this
                    # extension consumes the pre-extension goal place and no
                    # older trace place; the new place has no consumers yet
                    net = ias_spn.petri_net()
                    older = {trace_place(i) for i in range(k - 1)}
                    for tid in new_moves:
                        pre = set(net.preset(tid))
                        if old_goal not in pre or pre & older:
                            data.structure_failures.append((preset_name, trace, tid))
                    if net.place_postset(new_place):
                        data.structure_failures.append((preset_name, trace, new_place))
                    # closed states never mark the frontier, so none of the
                    # new transitions can be enabled there
                    for m in closed_before:
                        if m.get(old_goal) != 0 or any(
                            t in new_moves
                            for t in enabled_transitions(net, m)
                        ):
                            data.structure_failures.append((preset_name, trace, m))
                    extend_spn(iasr_spn, activity)
                    data.extension_count += 1
                    # estimates computed before the extension must stay
                    # admissible in the grown net, or resuming is unsound
                    _, _, dist = distances_to_goal(ias_spn)
                    for name, estimates in stale.items():
                        for m, h_old in estimates.items():
                            data.stale_estimates_checked += 1
                            if h_old > dist.get(m, inf):
                                data.inadmissible_stale.append(
                                    (preset_name, trace[:k], name, m, h_old, dist.get(m))
                                )
                ias_out = astar_inc(ias_cache, HEURISTIC, "lazy")
                iasr_out = astar_inc(iasr_cache, HEURISTIC, "eager")
                # eager refresh recomputed every estimate held before the
                # extension: record those that fell below the value they replaced
                for m, h_old in stale.get("iasr", {}).items():
                    h_new = estimate(iasr_spn, iasr_spn.encode(m), HEURISTIC)
                    if h_new < h_old:
                        data.h_regressions.append((preset_name, trace[:k], m, h_old, h_new))
                totals["ias"] += ias_out.metrics.lps_solved
                totals["iasr"] += iasr_out.metrics.lps_solved
                occ_alignment, _ = occ_process_event(occ_state, model, activity, None, HEURISTIC)
                prefix_spn = build_spn(model, trace[:k])
                scratch_cost = astar_scratch(prefix_spn, HEURISTIC).alignment.total_cost
                oracle_cost, _ = dijkstra_oracle(prefix_spn, prefix_spn.initial)
                costs = {
                    "ias": ias_out.alignment.total_cost,
                    "iasr": iasr_out.alignment.total_cost,
                    "occ-unbounded": occ_alignment.total_cost,
                    "scratch": scratch_cost,
                    "oracle": oracle_cost,
                }
                if len(set(costs.values())) != 1:
                    data.cost_mismatches.append((preset_name, trace[:k], costs))
        data.lps_by_log[preset_name] = totals
    data.wall_time = time.perf_counter() - started
    return data


def test_check_1_running_example_exactness():
    model = ordering_model()
    started = time.perf_counter()
    engine = StreamEngine(model, "ias", HEURISTIC)
    results = engine.run(replay_log_as_stream([["a", "b", "c"]]))
    elapsed = time.perf_counter() - started
    costs = [r.cost for r in results]
    final = results[-1].alignment
    ok = (
        costs == [0, 0, 1]
        and final.total_cost == 1
        and verify_prefix_alignment(final, ["a", "b", "c"], model)
        and elapsed < 1.0
    )
    report(1, "running example emits costs 0,0,1 with a cost-1 alignment", ok,
           f"costs={costs}, {elapsed:.3f}s")
    assert costs == [0, 0, 1]
    assert final.total_cost == 1
    assert verify_prefix_alignment(final, ["a", "b", "c"], model)
    assert elapsed < 1.0


def test_check_2_oracle_equivalence(suite):
    ok = (
        suite.pair_count >= 200
        and not suite.cost_mismatches
        and suite.wall_time < 300.0
    )
    report(2, "ias = iasr = occ-unbounded = scratch = uniform-cost oracle on every prefix",
           ok, f"{suite.pair_count} pairs, {suite.wall_time:.1f}s")
    assert suite.pair_count >= 200
    assert suite.cost_mismatches == []
    assert suite.wall_time < 300.0


def test_check_3_heuristic_soundness():
    from tests.conftest import SeededRandom, random_net_and_trace

    rng = SeededRandom(77)
    instances = 0
    failures = []
    models = [build() for build in PRESETS.values()] + [ordering_model(), trap_model()]
    while instances < 50:
        if instances < len(models) * 3:
            model = models[instances % len(models)]
            alphabet = list(model.visible_alphabet())
            trace = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        else:
            model, trace = random_net_and_trace(rng, max_len=3)
        spn = build_spn(model, trace)
        markings, edges, dist = distances_to_goal(spn, bound=10**4)
        if len(markings) > 400:  # keep the exact sweep fast
            continue
        instances += 1
        values = {"lp": {}, "ilp": {}}
        for m in markings:
            lp = estimate(spn, spn.encode(m), "lp")
            ilp = estimate(spn, spn.encode(m), "ilp")
            values["lp"][m], values["ilp"][m] = lp, ilp
            if not lp <= ilp <= dist[m]:
                failures.append(("order", trace, m, lp, ilp, dist[m]))
        moves = spn.transitions
        for source, tid, target in edges:
            step = move_cost(moves[tid])
            for mode in ("lp", "ilp"):
                if values[mode][source] > step + values[mode][target]:
                    failures.append(("consistency", mode, trace, source, tid))
    ok = instances >= 50 and not failures
    report(3, "lp <= ilp <= oracle distance, admissible and consistent, exact", ok,
           f"{instances} nets")
    assert instances >= 50
    assert failures == []


def test_check_4_extension_structure(suite):
    ok = (
        suite.extension_count > 0
        and not suite.structure_failures
        and suite.g_map_changes == 0
    )
    report(4, "frontier-only growth, no back edges, g maps byte-identical across extensions",
           ok, f"{suite.extension_count} extensions")
    assert suite.extension_count > 0
    assert suite.structure_failures == []
    assert suite.g_map_changes == 0


def test_check_5_estimate_growth(suite):
    ok = suite.stale_estimates_checked > 0 and not suite.inadmissible_stale
    detail = (
        f"{suite.stale_estimates_checked} stale estimates over "
        f"{suite.extension_count} extensions; {len(suite.h_regressions)} "
        "shrank when refreshed"
    )
    report(5, "estimates computed before an extension stay admissible after it", ok, detail)
    assert suite.stale_estimates_checked > 0
    if suite.inadmissible_stale:
        model, prefix, algo, marking, h_old, h_true = suite.inadmissible_stale[0]
        pytest.fail(
            f"{len(suite.inadmissible_stale)} open estimates exceed the true "
            f"remaining cost after an extension; first: model={model}, "
            f"prefix={prefix}, cache={algo}, marking={marking}, estimate "
            f"{h_old} > distance {h_true}"
        )


def test_check_6_false_positive_structure():
    algorithms = ["ias", "iasr", "occ", "occ-w1", "occ-w2", "occ-w5", "occ-w10"]
    fp_counts = {}
    for model, log_name, log in (
        (ordering_model(), "bundled-3traces", demo_log()),
        (trap_model(), "adversarial", adversarial_log()),
    ):
        events = replay_log_as_stream(log)
        runs = {a: StreamEngine(model, a, HEURISTIC).run(events) for a in algorithms}
        oracle = oracle_costs_by_case(runs["ias"])
        for algo in algorithms:
            record, _ = compute_metrics(algo, runs[algo], oracle)
            fp_counts[(log_name, algo)] = record.traces_with_fp
    exact_zero = all(
        fp_counts[(log, algo)] == 0
        for log in ("bundled-3traces", "adversarial")
        for algo in ("ias", "iasr", "occ")
    )
    w = {x: fp_counts[("adversarial", f"occ-w{x}")] for x in (1, 2, 5, 10)}
    chain = w[1] >= w[2] >= w[5] >= w[10]
    ok = exact_zero and w[1] >= 1 and chain
    report(6, "exact algorithms report zero false positives; window-1 errs and larger windows never err more",
           ok, f"adversarial fp: w1={w[1]}, w2={w[2]}, w5={w[5]}, w10={w[10]}")
    assert exact_zero
    assert w[1] >= 1
    assert chain


def test_check_7_lazy_refresh_solves_fewer_lps(suite):
    strict = False
    ok = True
    ratios = []
    for log_name, totals in suite.lps_by_log.items():
        ok = ok and totals["ias"] <= totals["iasr"]
        strict = strict or totals["ias"] < totals["iasr"]
        ratios.append(f"{log_name}: {totals['ias']}/{totals['iasr']}"
                      f" = {totals['ias'] / totals['iasr']:.2f}")
    ok = ok and strict
    report(7, "lazy refresh solves no more programs than eager refresh, fewer on some log",
           ok, "; ".join(ratios))
    for log_name, totals in suite.lps_by_log.items():
        assert totals["ias"] <= totals["iasr"], log_name
    assert strict


def test_check_8_cli_determinism(tmp_path, capsys):
    argv_base = [
        "replay", "--model", "trap", "--log", "adversarial",
        "--algorithms", "ias,iasr,occ,occ-w1", "--heuristic", "ilp",
        "--order", "sequential", "--seed", "11", "--timing", "off",
    ]
    outputs = []
    for run in (1, 2):
        out_dir = tmp_path / f"run{run}"
        assert cli_main(argv_base + ["--out", str(out_dir)]) == EXIT_OK
        outputs.append({
            name.name: name.read_bytes() for name in sorted(out_dir.iterdir())
        })
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and "metrics.csv" in outputs[0]
    report(8, "two identical runs write byte-identical metrics and event files", ok,
           f"{len(outputs[0])} files compared")
    assert outputs[0] == outputs[1]
    assert "metrics.csv" in outputs[0]
