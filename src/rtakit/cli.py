"""Command-line front end: run scenarios, evaluate traces, inspect snapshots.

Exit codes: 0 success, 1 usage, 2 validation, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import parse_scenario_config
from .evaluation import EvalError, build_report
from .scenario import build_scenario, execute, snapshot
from .trace import ExecutionTrace, is_finite_number, read_json, replace_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _timings_path(trace_path: Path) -> Path:
    return trace_path.with_name(trace_path.stem + ".timings.json")


def _load_timings(path: Path, trace: ExecutionTrace) -> dict[str, list[float]]:
    """The agent id -> decision durations map of a timings file: one
    duration per decision the trace records for each agent it names."""
    doc = read_json(path, EvalError)
    if not isinstance(doc, dict) or not isinstance(doc.get("timings"), dict):
        raise EvalError(f"{path}: expected an object with a 'timings' object")
    for aid, durations in doc["timings"].items():
        if not isinstance(durations, list) or not all(
            is_finite_number(d) and d >= 0 for d in durations
        ):
            raise EvalError(f"{path}: timings.{aid}: expected a list of finite, "
                            f"nonnegative numbers")
        if aid not in trace.modes:
            raise EvalError(f"{path}: timings.{aid}: the trace has no agent {aid!r}")
        if len(durations) != len(trace.modes[aid]):
            raise EvalError(f"{path}: timings.{aid}: {len(durations)} durations, but the trace "
                            f"records {len(trace.modes[aid])} decisions of agent {aid!r}")
    return doc["timings"]


def _run_once(config_path: Path):
    """Build fresh and execute; returns (trace, timings, exec_seconds)."""
    config = parse_scenario_config(config_path)
    scenario = build_scenario(config)
    start = time.perf_counter()
    trace = execute(scenario)
    elapsed = time.perf_counter() - start
    timings = {}
    for spec in scenario.config.agents:
        if spec.rta is not None:
            timings[spec.model.agent_id] = list(spec.rta.collector.durations)
    return trace, timings, elapsed


def cmd_run(args) -> int:
    config_path = Path(args.config)
    out_path = Path(args.out)
    trace, timings, elapsed = _run_once(config_path)
    print(f"exec time: {elapsed:.6f} s")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    trace.dump(out_path)
    replace_text(_timings_path(out_path),
                 json.dumps({"exec_time": elapsed, "timings": timings}, sort_keys=True) + "\n")
    print(f"trace written to {out_path}")
    if args.seed_check:
        repeat, _, _ = _run_once(config_path)
        if repeat.to_json() != trace.to_json():
            print("seed-check FAILED: repeated run differs", file=sys.stderr)
            return EXIT_RUNTIME
        print("seed-check passed: repeated run is identical")
    return EXIT_OK


def cmd_eval(args) -> int:
    trace_path = Path(args.trace)
    trace = ExecutionTrace.load(trace_path)
    timings = {}
    timings_path = Path(args.timings) if args.timings else _timings_path(trace_path)
    if timings_path.exists():
        timings = _load_timings(timings_path, trace)
    elif args.timings:
        raise EvalError(f"timings file not found: {timings_path}")
    outdir = Path(args.out)
    start = time.perf_counter()
    report = build_report(trace, timings=timings)
    elapsed = time.perf_counter() - start
    print(f"eval time: {elapsed:.6f} s")
    written = report.write_csv(outdir)  # first: it rejects ids that cannot name a file
    replace_text(outdir / "summary.txt", report.to_text())
    replace_text(outdir / "summary.json",
                 json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"summary and {len(written)} series written to {outdir}")
    return EXIT_OK


def cmd_snapshot(args) -> int:
    trace = ExecutionTrace.load(Path(args.trace))
    state = snapshot(trace, args.time)
    print(f"t = {state.t:g}")
    for aid in state.states:
        mode = state.modes[aid]
        mode_str = mode.value if mode is not None else "-"
        print(f"  agent {aid!r}: state {state.states[aid]}  mode {mode_str}")
    for sid, set_def in state.unsafe.items():
        print(f"  unsafe {sid!r}: {set_def!r}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="rtakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config and write the trace")
    run.add_argument("--config", required=True, help="scenario config JSON")
    run.add_argument("--out", required=True, help="output trace JSON path")
    run.add_argument("--seed-check", action="store_true",
                     help="re-run and verify the trace is byte-identical")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="evaluate a trace file into summary + CSV series")
    ev.add_argument("trace", help="trace JSON path")
    ev.add_argument("--out", required=True, help="output directory")
    ev.add_argument("--timings", help="timings JSON from a run (defaults to <trace>.timings.json)")
    ev.set_defaults(func=cmd_eval)

    snap = sub.add_parser("snapshot", help="print the simulation state at a time")
    snap.add_argument("trace", help="trace JSON path")
    snap.add_argument("--time", type=float, required=True, help="query time")
    snap.set_defaults(func=cmd_snapshot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
