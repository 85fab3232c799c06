"""One benchmark operation: a scenario document through the stages of
`rtakit run` followed by `rtakit eval`, each stage timed.

Stages: config_from_dict + build_scenario, execute, ExecutionTrace.dump,
the timings file `run` writes beside the trace, ExecutionTrace.load (which
validates), then ScenarioMetadata.from_trace + build_report + the report
files `eval` writes. `execute` is timed tick by tick. The dump and the load
take milliseconds, so each runs IO_REPEATS times. Every timed piece is kept
as measured and scaled by the host factor around it (see host.py); the
calibration loop runs between pieces, never inside one. Program functions
are looked up through their modules at call time, so the traced run sees
every call.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import wraps
from pathlib import Path

from rtakit import config as rk_config
from rtakit import evaluation as rk_eval
from rtakit import scenario as rk_scenario
from rtakit import trace as rk_trace

from rtabench import host as rb_host

TRACE_FILE = "trace.json"
TIMINGS_FILE = "trace.timings.json"
REPORT_DIR = "report"
IO_REPEATS = 5
# "tick" is one tick of execute; "decision" the decision time of all RTA
# bindings in that tick, from the durations rtakit records.
STAGES = ("build", "tick", "decision", "timings", "dump", "load", "eval")


@dataclass
class OpTimes:
    """One operation's timed pieces by stage: `raw` as measured, `scaled`
    by the host factor around each piece."""

    raw: dict[str, list[float]]
    scaled: dict[str, list[float]]
    wall_s: float  # build to last report file, calibration included
    repeat_s: float  # the dumps and loads beyond the fastest of each
    trace_bytes: int


class Pieces:
    """Timed pieces of one operation. A piece is one or more chunks, each
    with its mark among the host's calibration samples; the calibration
    loop runs between chunks, never inside one."""

    def __init__(self, host):
        self.host = host
        self.chunks = {stage: [] for stage in STAGES}  # per piece, [(seconds, mark)]

    def begin(self) -> int:
        """Let the host sample if it is due; the mark of a chunk starting now."""
        if self.host.due():
            self.host.sample()
        return self.host.mark()

    def add(self, stage: str, seconds: float, mark: int) -> None:
        self.chunks[stage].append([(seconds, mark)])

    def time(self, stage: str, fn, breaks=()):
        """fn() as one piece of `stage`. `breaks` names functions, as
        (namespace, name), that fn calls many times: while it runs, a call
        to one of them ends the current chunk when the host is due a
        sample, so a long piece is scaled by the host's speed during it."""
        clock = time.perf_counter
        chunks = []
        mark, start = self.begin(), clock()

        def split():
            nonlocal mark, start
            if self.host.due():
                chunks.append((clock() - start, mark))
                self.host.sample()
                mark, start = self.host.mark(), clock()

        originals = [(ns, name, getattr(ns, name))
                     for ns, name in (breaks if self.host.scales else ())]
        for ns, name, fn_at in originals:
            setattr(ns, name, _split_before(split, fn_at))
        try:
            result = fn()
        finally:
            for ns, name, fn_at in originals:
                setattr(ns, name, fn_at)
        chunks.append((clock() - start, mark))
        self.chunks[stage].append(chunks)
        return result

    @property
    def raw(self) -> dict[str, list[float]]:
        return {stage: [sum(t for t, _ in piece) for piece in pieces]
                for stage, pieces in self.chunks.items()}

    def scaled(self) -> dict[str, list[float]]:
        """Every chunk scaled by the host factor around it, summed per piece."""
        self.host.settle()
        factor = self.host.factor
        return {stage: [sum(t * factor(mark) for t, mark in piece) for piece in pieces]
                for stage, pieces in self.chunks.items()}


def _split_before(split, fn):
    @wraps(fn)
    def call(*args, **kwargs):
        split()
        return fn(*args, **kwargs)
    return call


def write_reports(report, outdir: Path) -> None:
    """summary.txt, summary.json and the CSV series, as `rtakit eval` writes them."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "summary.txt").write_text(report.to_text())
    (outdir / "summary.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    report.write_csv(outdir)


def execute_ticked(scenario, pieces: Pieces):
    """`execute(scenario)`, each tick timed as a "tick" piece; returns the
    trace and the mark of each tick.

    execute advances the trace it starts from once per tick; rollouts
    advance traces of their own. Instance attributes shadow the two methods
    for this call only, and only advances of execute's own trace end a
    tick. The first tick includes building the initial trace.
    """
    clock = time.perf_counter
    initial_trace, advance = scenario.initial_trace, scenario.advance
    own = []
    marks = [pieces.begin()]
    started = [clock()]

    def start():
        own.append(initial_trace())
        return own[0]

    def stamped(trace, modes, k):
        advance(trace, modes, k)
        if trace is own[0]:
            pieces.add("tick", clock() - started[0], marks[-1])
            marks.append(pieces.begin())
            started[0] = clock()

    scenario.initial_trace, scenario.advance = start, stamped
    try:
        trace = rk_scenario.execute(scenario)
    finally:
        del scenario.initial_trace, scenario.advance
    return trace, marks[:-1]


def run_operation(doc: dict, outdir: Path, host=None) -> OpTimes:
    """Run one scenario document through every stage; outputs go to outdir.
    `host` is a host.HostSpeed, or None to leave the times unscaled."""
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / TRACE_FILE
    timings_path = outdir / TIMINGS_FILE
    pieces = Pieces(host or rb_host.Unscaled())
    clock = time.perf_counter

    t0 = clock()
    scenario = pieces.time(
        "build", lambda: rk_scenario.build_scenario(rk_config.config_from_dict(doc)))
    t1 = clock()
    trace, marks = execute_ticked(scenario, pieces)
    exec_s = clock() - t1
    timings = {
        spec.model.agent_id: list(spec.rta.collector.durations)
        for spec in scenario.config.agents
        if spec.rta is not None and spec.rta.collector is not None
    }
    for decided, mark in zip(map(sum, zip(*timings.values())), marks):
        pieces.add("decision", decided, mark)
    for _ in range(IO_REPEATS):
        pieces.time("dump", lambda: trace.dump(trace_path))
    pieces.time("timings", lambda: timings_path.write_text(
        json.dumps({"exec_time": exec_s, "timings": timings}, sort_keys=True) + "\n"))
    for _ in range(IO_REPEATS):
        loaded = pieces.time("load", lambda: rk_trace.ExecutionTrace.load(trace_path))

    def evaluate():
        saved = json.loads(timings_path.read_text()).get("timings", {})
        metadata = rk_eval.ScenarioMetadata.from_trace(loaded)
        write_reports(rk_eval.build_report(loaded, metadata, saved), outdir / REPORT_DIR)

    # Eval is one long piece; build_report calls ttc once per sample and target.
    pieces.time("eval", evaluate, breaks=[(rk_eval, "ttc")])
    wall_s = clock() - t0

    raw = pieces.raw
    dumps, loads = raw["dump"], raw["load"]
    return OpTimes(
        raw=raw,
        scaled=pieces.scaled(),
        wall_s=wall_s,
        repeat_s=sum(dumps) + sum(loads) - min(dumps) - min(loads),
        trace_bytes=trace_path.stat().st_size,
    )
