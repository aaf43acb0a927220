"""Command line front end.

Subcommands: ``replay`` runs algorithm suites over a replayed stream and
writes per-event records plus a metrics table, ``align`` prints the two-row
alignment table for one trace, ``generate`` writes a synthetic log and
``validate`` checks workflow-net structure.  Exit codes: 0 ok, 1 usage,
2 data error (including a model that yields no trace within ``--max-len``),
3 internal failure (an invariant violation, an exhausted search, branch and
bound past its depth limit or a state space past its bound, such as a place
past the packed state's token limit on an unbounded net).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .alignment import InvariantViolation, render_alignment
from .engine import EventError, StreamEngine, parse_algorithm, replay_log_as_stream
from .fileio import DataError, jsonl_text, load_net, load_traces, save_traces
from .generator import GenerationError, generate_log
from .metrics import compute_metrics, metrics_csv, metrics_text, oracle_costs_by_case
from .petri import StateSpaceTooLarge, validate_wfnet
from .search import SearchExhausted
from .simplex import BranchDepthExceeded
from .spn import check_reserved_ids

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="streamalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="replay a log as a stream and compute metrics")
    replay.add_argument("--model", required=True, help="net file or bundled model name")
    replay.add_argument("--log", required=True, help="log file or bundled log name")
    replay.add_argument(
        "--algorithms",
        default="ias",
        help="comma list: ias,iasr,occ,occ-w1,occ-w2,occ-w5,occ-w10",
    )
    replay.add_argument("--heuristic", choices=("lp", "ilp", "zero"), default="ilp")
    replay.add_argument("--order", choices=("sequential", "round-robin"), default="sequential")
    replay.add_argument("--out", required=True, help="output directory")
    replay.add_argument(
        "--seed", type=int, default=0,
        help="run seed, recorded in metrics.txt (replay itself is deterministic)",
    )
    replay.add_argument(
        "--timing",
        choices=("wall", "off"),
        default="wall",
        help="'off' blanks the machine-dependent time column for reproducible files",
    )

    align = sub.add_parser("align", help="print the alignment table for one trace")
    align.add_argument("--model", required=True)
    align.add_argument("--trace", required=True, help="comma-separated activities")
    align.add_argument("--algorithm", default="ias")
    align.add_argument("--heuristic", choices=("lp", "ilp", "zero"), default="ilp")

    generate = sub.add_parser("generate", help="write a synthetic noisy log")
    generate.add_argument("--model", required=True)
    generate.add_argument("--traces", type=int, default=50)
    generate.add_argument("--swap-p", type=float, default=0.0)
    generate.add_argument("--drop-p", type=float, default=0.0)
    generate.add_argument("--insert-p", type=float, default=0.0)
    generate.add_argument("--max-len", type=int, default=8)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output file (.jsonl or .csv)")

    validate = sub.add_parser("validate", help="check workflow-net structure")
    validate.add_argument("--model", required=True)

    return parser


def _cmd_replay(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise UsageError("--algorithms must name at least one algorithm")
    named: dict[tuple, str] = {}  # (kind, window) -> the name that gave it
    for algo in algorithms:
        parsed = parse_algorithm(algo)  # raises ValueError for unknown names
        if parsed in named:
            raise ValueError(f"--algorithms repeats an algorithm: {named[parsed]!r} and {algo!r}")
        named[parsed] = algo
    model = load_net(args.model)
    report = validate_wfnet(model)
    if not report.ok:
        raise DataError(f"model {args.model!r} is not a workflow net:\n{report}")
    traces = load_traces(args.log)
    events = replay_log_as_stream(traces, args.order)

    def replay(algo: str) -> list:
        outcome = StreamEngine(model, algo, args.heuristic).run(events)
        rejected = [r for r in outcome if isinstance(r, EventError)]
        if rejected:
            raise DataError(f"stream contains invalid events: {rejected[0].message}")
        return outcome

    # The oracle's costs are ias's when it is listed and occ's otherwise.
    # The oracle algorithm runs first, and only once when it is listed.  Each
    # algorithm's results shrink to their event lines and metrics before the
    # next engine runs, so no engine's move table outlives its turn.
    first = "ias" if "ias" in algorithms else "occ"
    oracle = None if first in algorithms else oracle_costs_by_case(replay(first))
    lines, records = {}, {}
    for algo in sorted(algorithms, key=lambda a: a != first):
        outcome = replay(algo)
        if oracle is None:
            oracle = oracle_costs_by_case(outcome)
        lines[algo] = jsonl_text(r.to_record() for r in outcome)
        records[algo] = compute_metrics(algo, outcome, oracle)[0]
        del outcome

    timing = args.timing == "wall"
    log_name = str(args.log)
    run = {"heuristic": args.heuristic, "order": args.order}
    csv_text = metrics_csv(log_name, records, algorithms, timing, run=run)
    table_text = metrics_text(log_name, records, algorithms, timing, run={**run, "seed": args.seed})

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for algo in algorithms:
            path = out_dir / f"events_{algo}.jsonl"
            path.write_text(lines[algo], encoding="utf-8")
            written.append(path)
        (out_dir / "metrics.csv").write_text(csv_text, encoding="utf-8")
        written.append(out_dir / "metrics.csv")
        (out_dir / "metrics.txt").write_text(table_text, encoding="utf-8")
        written.append(out_dir / "metrics.txt")
    except OSError:
        for path in written:  # no partial output
            path.unlink(missing_ok=True)
        raise
    sys.stdout.write(table_text)
    return EXIT_OK


def _cmd_align(args) -> int:
    model = load_net(args.model)
    trace = [a.strip() for a in args.trace.split(",") if a.strip()]
    if not trace:
        raise UsageError("--trace must contain at least one activity")
    parse_algorithm(args.algorithm)
    engine = StreamEngine(model, args.algorithm, args.heuristic)
    outcome = engine.run(replay_log_as_stream([trace]))
    bad = [r for r in outcome if isinstance(r, EventError)]
    if bad:
        raise DataError(bad[0].message)
    final = outcome[-1]
    sys.stdout.write(render_alignment(final.alignment) + "\n")
    sys.stdout.write(f"cost: {final.cost}\n")
    return EXIT_OK


def _cmd_generate(args) -> int:
    model = load_net(args.model)
    report = validate_wfnet(model)
    if not report.ok:
        raise DataError(f"model {args.model!r} is not a workflow net:\n{report}")
    if args.traces < 1:
        raise UsageError("--traces must be positive")
    log = generate_log(
        model,
        args.traces,
        {"swap_p": args.swap_p, "drop_p": args.drop_p, "insert_p": args.insert_p},
        max_len=args.max_len,
        seed=args.seed,
    )
    save_traces(log, args.out)
    sys.stdout.write(f"wrote {len(log)} traces to {args.out}\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    model = load_net(args.model)
    report = validate_wfnet(model)
    if not report.ok:
        sys.stdout.write(str(report) + "\n")
        return EXIT_DATA
    check_reserved_ids(model)  # what align and replay reject too
    sys.stdout.write("ok\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "align":
            return _cmd_align(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "validate":
            return _cmd_validate(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, GenerationError) as exc:  # DataError, flags, net definition
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        InvariantViolation,
        SearchExhausted,
        BranchDepthExceeded,
        StateSpaceTooLarge,
    ) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
