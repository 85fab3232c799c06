"""Metric names and units, and the reduction of timed rounds to metrics.

A round runs every operation of a workload once, and every round repeats
the same work: the traces are byte-identical across rounds. The pipeline
times each operation in pieces: the build, every tick of execute and the
decisions within it, every dump and load, the timings file and the eval.
Each piece is scaled by the host factor around it (host.py), so a piece
taken while the host ran slow counts as much as one taken while it ran
fast. The end-to-end figures take, per operation and piece, the median over
the run's rounds of the scaled time (dumps and loads: over rounds and
repeats): exec_s sums the ticks, the decision percentiles are over the
ticks, the other stages sum their pieces, and total_s is the sum of every
stage, import included.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

END_TO_END = (
    ("setup_s", "s"),
    ("exec_s", "s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_p90", "ms"),
    ("trace_write_s", "s"),
    ("trace_load_s", "s"),
    ("eval_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _calls_self(base: str) -> list[tuple[str, str]]:
    return [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]


SET_KINDS = ("ball", "hyperrectangle", "polytope")

PER_LAYER = tuple(
    _calls_self("rta.switch")
    + [("rta.decide.self_s", "s"), ("rta.forward_simulate.self_s", "s"),
       ("rta.boxes_from_prediction.self_s", "s"), ("rta.safety.calls", "count")]
    + _calls_self("scenario.predict")
    + _calls_self("scenario.advance.rollout")
    + _calls_self("scenario.advance.exec")
    + [("scenario.execute.s", "s"), ("scenario.execute.self_s", "s")]
    + _calls_self("trace.unsafe_def")
    + _calls_self("geometry.set_from_payload")
    + [("geometry.set_from_payload.per_read", "ratio")]
    + [m for kind in SET_KINDS for m in _calls_self(f"geometry.contains.{kind}")]
    + [m for kind in SET_KINDS for m in _calls_self(f"geometry.box_intersects.{kind}")]
    + [("geometry.Polytope.project.calls", "count")]
    + _calls_self("geometry.update_relative")
    + [m for model in ("acc", "dubins_car", "dubins_plane")
       for m in _calls_self(f"agents.step.{model}")]
    + [("agents.goal_position.self_s", "s")]
    + _calls_self("evaluation.ttc")
    + _calls_self("trace.timestamps")
    + _calls_self("evaluation.distance_series")
    + [m for kind in SET_KINDS for m in _calls_self(f"geometry.distance.{kind}")]
    + [("evaluation.controller_usage.self_s", "s"), ("evaluation.build_report.s", "s"),
       ("evaluation.build_report.self_s", "s"), ("evaluation.write.s", "s")]
    + [("trace.to_json.s", "s"), ("trace.dump.self_s", "s"), ("trace.bytes", "bytes")]
    + [("trace.load.s", "s"), ("trace.load.self_s", "s"), ("trace.from_dict.self_s", "s"),
       ("trace.validate_trace_dict.s", "s")]
    + [("setup.import_s", "s"), ("config.config_from_dict.s", "s"),
       ("scenario.build_scenario.s", "s")]
    + [("bench.untraced_total_s", "s"), ("bench.traced_total_s", "s"),
       ("bench.trace_overhead_s", "s"), ("bench.traced_wall_s", "s"),
       ("bench.attributed_s", "s"), ("bench.unattributed_s", "s")]
)


@dataclass
class Round:
    """The timed operations of one round, and its layer spans when traced."""

    ops: dict = field(default_factory=dict)  # operation name -> pipeline.OpTimes
    layers: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, op) -> None:
        self.ops[name] = op

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops.values())

    @property
    def total_s(self) -> float:
        """Wall time with one dump and one load per operation."""
        return sum(op.wall_s - op.repeat_s for op in self.ops.values())

    @property
    def trace_bytes(self) -> int:
        return sum(op.trace_bytes for op in self.ops.values())


def _median(rounds: list[Round], key: str) -> float:
    return statistics.median(getattr(r, key) for r in rounds)


def _pieces(rounds: list[Round], which: str, stage: str, pooled: bool = False) -> list[float]:
    """Per operation and piece of `stage`, the median of its `which` ("raw"
    or "scaled") times over the rounds; pooled, one median per operation
    over all its pieces of the stage in all rounds."""
    times: dict[tuple, list[float]] = {}
    for r in rounds:
        for name, op in r.ops.items():
            for i, t in enumerate(getattr(op, which)[stage]):
                times.setdefault((name,) if pooled else (name, i), []).append(t)
    return [statistics.median(v) for v in times.values()]


def _decile_ms(ticks: list[float], which: int) -> float:
    """A decile of the per-tick decision time: the time all RTA bindings of
    a scenario spent deciding one tick, which is what holds up the closed
    loop. Per-binding durations are not pooled: their distribution has
    separate modes (SimRta vs ReachRta, an early SAFETY exit vs a full
    check), and a percentile between two modes jumps between runs; the
    per-tick sum has one."""
    return 1e3 * statistics.quantiles(ticks, n=10)[which] if len(ticks) >= 2 else 0.0


def measured(rounds: list[Round], import_s: float, which: str) -> dict[str, float]:
    """The time metrics from the `which` ("raw" or "scaled") piece times.
    setup_s = import + parse/build of every scenario; total_s = setup_s +
    every later stage of every operation, to the last report file."""
    def total(stage: str, pooled: bool = False) -> float:
        return sum(_pieces(rounds, which, stage, pooled))

    setup_s = import_s + total("build")
    exec_s = total("tick")
    decisions = _pieces(rounds, which, "decision")
    stages = {
        "trace_write_s": total("dump", pooled=True),
        "trace_load_s": total("load", pooled=True),
        "eval_s": total("eval"),
    }
    return {
        "setup_s": setup_s,
        "exec_s": exec_s,
        "decision_ms_p50": _decile_ms(decisions, 4),
        "decision_ms_p90": _decile_ms(decisions, 8),
        **stages,
        "total_s": setup_s + exec_s + sum(stages.values()) + total("timings"),
    }


def per_layer(plain: list[Round], traced: list[Round], import_s: float) -> dict[str, float]:
    """Median over traced rounds of every span metric (the declared PER_LAYER
    names and any other span the round recorded), plus the benchmark's
    own figures: the overhead is traced total_s minus untraced total_s, and
    the unattributed remainder is the part of the traced round's wall time
    (repeated dumps and loads included) that no root span covers."""
    names = {name for r in traced for name in r.layers}
    out = {name: statistics.median(r.layers.get(name, 0.0) for r in traced) for name in names}
    out["trace.bytes"] = _median(traced, "trace_bytes")
    out["setup.import_s"] = import_s
    out["bench.untraced_total_s"] = import_s + _median(plain, "total_s")
    out["bench.traced_total_s"] = import_s + _median(traced, "total_s")
    out["bench.trace_overhead_s"] = out["bench.traced_total_s"] - out["bench.untraced_total_s"]
    out["bench.traced_wall_s"] = _median(traced, "wall_s")
    out["bench.unattributed_s"] = statistics.median(
        r.wall_s - r.layers.get("bench.attributed_s", 0.0) for r in traced)
    return out
