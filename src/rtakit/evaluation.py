"""Decision timing collection and post-hoc evaluation of executed traces.

Metrics: per-decision computation time (avg/min/max), distance from unsafe
sets and from other agents, time to collision under constant-velocity
extrapolation, controller usage percentages, and switch counts. All
post-hoc operations are read-only over an immutable trace, and the trace
is their only input besides the decision durations: a trace held in
memory and the same trace written and loaded by `rtakit eval` report the
same numbers.

Workspace positions are the leading `workspace_dim` state components; the
dimension is inferred from the unsafe-set definitions unless supplied
explicitly. Velocities are backward finite differences of the recorded
positions (set velocities likewise, of each set's reference point). An
evaluation builds these as columns once, reading each set's payloads
through `unsafe_def` once per run of equal payloads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import SetDef, ball_entry_time
from .trace import ExecutionTrace


class EvalError(ValueError):
    """Invalid collection or evaluation request."""


class Collector:
    """Accumulates the per-decision durations of one RTA binding."""

    def __init__(self):
        self.durations: list[float] = []

    def collect_computation_time(self, duration: float) -> None:
        duration = float(duration)
        if not math.isfinite(duration) or duration < 0:
            raise EvalError(f"duration must be finite and nonnegative, got {duration}")
        self.durations.append(duration)


@dataclass(frozen=True)
class TimingStats:
    count: int
    avg: float | None = None
    min: float | None = None
    max: float | None = None

    @property
    def has_data(self) -> bool:
        return self.count > 0


def computation_time_stats(durations) -> TimingStats:
    """Exact mean/min/max of the recorded durations; count-0 means no data."""
    durations = list(durations)
    if not durations:
        return TimingStats(count=0)
    return TimingStats(
        count=len(durations),
        avg=sum(durations) / len(durations),
        min=min(durations),
        max=max(durations),
    )


@dataclass
class ScenarioMetadata:
    """Side information the trace file does not carry: the workspace
    dimension, for traces without unsafe sets to infer it from."""

    workspace_dim: int | None = None

    @classmethod
    def from_trace(cls, trace: ExecutionTrace) -> "ScenarioMetadata":
        """The dimension of the trace's first unsafe set; None without sets."""
        for sid in trace.unsafe:
            return cls(workspace_dim=trace.unsafe_def(sid, 0).dim)
        return cls()


def _check_agent(trace, agent_id: str) -> None:
    if agent_id not in trace.rows:
        raise EvalError(f"unknown agent id {agent_id!r}")


def _workspace_dim(trace, metadata: ScenarioMetadata | None) -> int:
    """The metadata's workspace dimension, else the first set's."""
    if metadata is None or metadata.workspace_dim is None:
        metadata = ScenarioMetadata.from_trace(trace)
    if metadata.workspace_dim is None:
        raise EvalError(
            "workspace dimension is unknown: no unsafe sets to infer it from; "
            "pass ScenarioMetadata(workspace_dim=...)"
        )
    return metadata.workspace_dim


class _Samples:
    """The columns of a trace that one evaluation reads, built once: per
    agent its (n, dim) positions and velocities, per set its definition and
    the velocity of its reference point at every sample of `window`."""

    def __init__(self, trace: ExecutionTrace, metadata: ScenarioMetadata | None,
                 agent_ids: list[str], set_ids: list[str], window: slice = slice(None)):
        self.ts = ts = trace.times[window]
        dim = _workspace_dim(trace, metadata) if agent_ids else 0
        self.positions = {aid: _positions(trace.rows[aid][window], aid, dim) for aid in agent_ids}
        self.velocities = {aid: _velocities(ts, x) for aid, x in self.positions.items()}
        self.set_defs, self.set_velocities = {}, {}
        for sid in set_ids:
            self.set_defs[sid], refs = _set_column(trace, sid, range(len(trace.times))[window])
            self.set_velocities[sid] = _velocities(ts, refs)


def _positions(rows: list[tuple[float, ...]], agent_id: str, dim: int) -> np.ndarray:
    """The leading `dim` state components of the agent's rows."""
    width = len(rows[0]) if rows else dim
    if width < dim:
        raise EvalError(
            f"agent {agent_id!r} state has {width} components, "
            f"cannot project {dim} position components"
        )
    return np.array(rows, dtype=float).reshape(len(rows), width)[:, :dim]


def _set_column(trace: ExecutionTrace, set_id: str, samples: range) -> tuple[list[SetDef], np.ndarray]:
    """The set's definition and reference point at each of the samples. A
    payload equal to the one before it is not read through `unsafe_def` again."""
    defs, refs, last = [], [], None
    for k in samples:
        payload = trace.unsafe[set_id][k]
        if not defs or payload != last:
            set_def, last = trace.unsafe_def(set_id, k), payload
            ref = set_def.reference()
        defs.append(set_def)
        refs.append(ref)
    return defs, np.array(refs)


def _velocities(ts: list[float], x: np.ndarray) -> np.ndarray:
    """Backward finite differences of the rows of x: row k is
    (x_j - x_{j-1}) / (t_j - t_{j-1}) with j = max(k, 1); zero for a
    single-sample trace."""
    if len(ts) < 2:
        return np.zeros_like(x)
    d = np.diff(x, axis=0) / np.diff(ts)[:, None]
    return np.concatenate((d[:1], d))


def _distances(s: _Samples, agent_id: str, target_id: str) -> list[tuple[float, float]]:
    pos = s.positions[agent_id]
    if target_id in s.set_defs:
        defs = s.set_defs[target_id]
        return [(t, defs[k].distance(pos[k])) for k, t in enumerate(s.ts)]
    other = s.positions[target_id]
    return [(t, float(np.linalg.norm(pos[k] - other[k]))) for k, t in enumerate(s.ts)]


def distance_series(trace: ExecutionTrace, agent_id: str, target_id: str,
                    metadata: ScenarioMetadata | None = None) -> list[tuple[float, float]]:
    """Per-timestamp distance from an agent to an unsafe set or another agent."""
    s = _Samples(trace, metadata, *_pair(trace, agent_id, target_id))
    return _distances(s, agent_id, target_id)


def _pair(trace: ExecutionTrace, agent_id: str, target_id: str) -> tuple[list[str], list[str]]:
    """The agent ids and set ids read to measure an agent against a target."""
    _check_agent(trace, agent_id)
    if target_id in trace.unsafe:
        return [agent_id], [target_id]
    if target_id not in trace.rows:
        raise EvalError(f"unknown target id {target_id!r}")
    return [agent_id, target_id], []


def _grid_index(ts: list[float], t: float) -> int:
    for k, tk in enumerate(ts):
        if abs(tk - t) <= 1e-9:
            return k
    raise EvalError(f"t={t:g} is not on the trace's timestamp grid")


def _ttc_at(s: _Samples, agent_id: str, target_id: str, k: int) -> float:
    pos = s.positions[agent_id][k]
    vel = s.velocities[agent_id][k]
    if target_id in s.set_defs:
        return s.set_defs[target_id][k].entry_time(pos, vel - s.set_velocities[target_id][k])
    return ball_entry_time(pos - s.positions[target_id][k], vel - s.velocities[target_id][k], 0.0)


def _min_ttc(s: _Samples, agent_id: str, target_id: str) -> float:
    return min((_ttc_at(s, agent_id, target_id, k) for k in range(len(s.ts))),
               default=math.inf)


def ttc(trace: ExecutionTrace, agent_id: str, target_id: str, t: float,
        metadata: ScenarioMetadata | None = None) -> float:
    """Time to collision from grid time t under constant-velocity
    extrapolation of both parties. Returns math.inf when the courses never
    come within collision distance.

    Against an unsafe set, collision means the agent's straight-line course
    entering the set while the set moves at its reference point's velocity
    (`SetDef.entry_time`). So a ball anchored to another agent gives an
    agent-vs-agent TTC with the ball's radius as the collision distance.
    Against an agent, collision means the two positions meeting.
    """
    agent_ids, set_ids = _pair(trace, agent_id, target_id)
    k = _grid_index(trace.times, t)
    lo = max(k - 1, 0)  # the backward difference at k reads samples lo and lo + 1
    s = _Samples(trace, metadata, agent_ids, set_ids, slice(lo, lo + 2))
    return _ttc_at(s, agent_id, target_id, k - lo)


def controller_usage(trace: ExecutionTrace, agent_id: str) -> tuple[dict[str, float], int]:
    """Percent of decisions per mode and the number of mode switches.

    An empty mode trace yields ({}, 0), the "no data" result.
    """
    _check_agent(trace, agent_id)
    modes = trace.modes[agent_id]
    if not modes:
        return {}, 0
    usage = {}
    for m in modes:
        usage[m.value] = usage.get(m.value, 0) + 1
    percents = {name: 100.0 * n / len(modes) for name, n in usage.items()}
    switches = sum(1 for a, b in zip(modes, modes[1:]) if a is not b)
    return percents, switches


@dataclass
class AgentReport:
    agent_id: str
    timing: TimingStats
    usage: dict[str, float]
    switch_count: int
    set_distances: dict[str, list[tuple[float, float]]]
    agent_distances: dict[str, list[tuple[float, float]]]
    min_set_distance: dict[str, float]
    min_agent_distance: dict[str, float]
    min_set_ttc: dict[str, float]
    min_agent_ttc: dict[str, float]
    mode_series: list[tuple[float, str]] = field(default_factory=list)


@dataclass
class EvalReport:
    agents: dict[str, AgentReport]
    n_samples: int
    duration: float

    def to_dict(self) -> dict:
        def _num(x):
            return None if x is None or math.isinf(x) else x

        return {
            "n_samples": self.n_samples,
            "duration": self.duration,
            "agents": {
                aid: {
                    "timing": {
                        "count": r.timing.count,
                        "avg": _num(r.timing.avg),
                        "min": _num(r.timing.min),
                        "max": _num(r.timing.max),
                    },
                    "usage_percent": dict(r.usage),
                    "switch_count": r.switch_count,
                    "min_distance_to_sets": {k: _num(v) for k, v in r.min_set_distance.items()},
                    "min_distance_to_agents": {k: _num(v) for k, v in r.min_agent_distance.items()},
                    "min_ttc_to_sets": {k: _num(v) for k, v in r.min_set_ttc.items()},
                    "min_ttc_to_agents": {k: _num(v) for k, v in r.min_agent_ttc.items()},
                }
                for aid, r in self.agents.items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"scenario summary: {self.n_samples} samples over {self.duration:g} s",
        ]
        for aid, r in self.agents.items():
            lines.append("")
            lines.append(f"== agent {aid!r} ==")
            if r.timing.has_data:
                lines.append(
                    f"  decision time: avg {r.timing.avg:.6g} s, min {r.timing.min:.6g} s, "
                    f"max {r.timing.max:.6g} s ({r.timing.count} samples)"
                )
            else:
                lines.append("  decision time: no data")
            if r.usage:
                usage = "  ".join(f"{name} {pct:.2f}%" for name, pct in sorted(r.usage.items()))
                lines.append(f"  controller usage: {usage}")
                lines.append(f"  switches: {r.switch_count}")
            else:
                lines.append("  controller usage: no data")
            for label, dists, ttcs in (
                ("unsafe set", r.min_set_distance, r.min_set_ttc),
                ("agent", r.min_agent_distance, r.min_agent_ttc),
            ):
                for target in dists:
                    ttc_val = ttcs.get(target, math.inf)
                    ttc_str = "inf" if math.isinf(ttc_val) else f"{ttc_val:.6g} s"
                    lines.append(
                        f"  vs {label} {target!r}: min distance {dists[target]:.6g}, "
                        f"min TTC {ttc_str}"
                    )
        return "\n".join(lines) + "\n"

    def write_csv(self, outdir) -> list[Path]:
        """One (time, value) CSV per agent/metric/target series, named
        after the ids; an id that is not one path component is rejected."""
        for aid, r in self.agents.items():
            for ident in (aid, *r.set_distances, *r.agent_distances):
                if ident in ("", ".", "..") or Path(ident).name != ident:
                    raise EvalError(f"id {ident!r} is not a single path component, "
                                    f"so it cannot name a CSV file")
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []

        def _write(name: str, rows):
            path = outdir / name
            lines = ["time,value"] + [f"{t!r},{v}" for t, v in rows]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)

        for aid, r in self.agents.items():
            for target, series in r.set_distances.items():
                _write(f"{aid}__dist_set__{target}.csv", [(t, repr(v)) for t, v in series])
            for target, series in r.agent_distances.items():
                _write(f"{aid}__dist_agent__{target}.csv", [(t, repr(v)) for t, v in series])
            if r.mode_series:
                _write(f"{aid}__mode.csv", r.mode_series)
        return written


def build_report(trace: ExecutionTrace, metadata: ScenarioMetadata | None = None,
                 timings: dict[str, list[float]] | None = None) -> EvalReport:
    """Aggregate every metric over the full trace.

    timings maps agent id -> per-decision durations (from the RTA bindings'
    collectors or a saved timings file); agents without samples report
    "no data".
    """
    timings = timings or {}
    if not trace.times:
        raise EvalError("trace holds no samples (no data)")
    agent_ids, set_ids = list(trace.rows), list(trace.unsafe)
    # Positions only if there is something to measure them against.
    measured = agent_ids if set_ids or len(agent_ids) > 1 else []
    samples = _Samples(trace, metadata, measured, set_ids)
    ts = samples.ts
    agents = {}
    for aid in agent_ids:
        usage, switches = controller_usage(trace, aid)
        others = [other for other in agent_ids if other != aid]
        set_d = {sid: _distances(samples, aid, sid) for sid in set_ids}
        agent_d = {other: _distances(samples, aid, other) for other in others}
        agents[aid] = AgentReport(
            agent_id=aid,
            timing=computation_time_stats(timings.get(aid, [])),
            usage=usage,
            switch_count=switches,
            set_distances=set_d,
            agent_distances=agent_d,
            min_set_distance={k: min(v for _, v in s) for k, s in set_d.items()},
            min_agent_distance={k: min(v for _, v in s) for k, s in agent_d.items()},
            min_set_ttc={sid: _min_ttc(samples, aid, sid) for sid in set_ids},
            min_agent_ttc={other: _min_ttc(samples, aid, other) for other in others},
            mode_series=[(ts[k], m.value) for k, m in enumerate(trace.modes[aid])],
        )
    return EvalReport(
        agents=agents,
        n_samples=len(trace.times),
        duration=(ts[-1] - ts[0]) if len(ts) > 1 else 0.0,
    )

