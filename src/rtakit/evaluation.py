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
evaluation builds these as columns once, parsing each set's payloads as
one column into row-aligned stacks (`geometry.parse_column`). It then
measures every agent against a set with one `distance` and one
`entry_time` call per stack, the stack's rows repeated once per agent
(`geometry.repeat_rows`), and every ordered pair of agents with one call
of each, the other agent a point moved along its positions. Each sample
rounds as it would alone, so the numbers equal measuring pair by pair and
sample by sample.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import PointSet, parse_column, repeat_rows
from .trace import ExecutionTrace, mode_names


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
    if metadata.workspace_dim < 1:  # a slice [:, :dim] would take a wrong width silently
        raise EvalError(f"workspace dimension must be at least 1, got {metadata.workspace_dim}")
    return metadata.workspace_dim


class _Samples:
    """The columns of a trace that one evaluation reads, built once: per
    agent its (n, dim) positions and velocities, and per set its
    definitions as row-aligned stacks and the velocity of its reference
    point at every sample of `window`."""

    def __init__(self, trace: ExecutionTrace, metadata: ScenarioMetadata | None,
                 agent_ids: list[str], set_ids: list[str], window: slice = slice(None)):
        self.ts = ts = trace.times[window]
        if not ts:
            raise EvalError("trace holds no samples (no data)")
        dim = _workspace_dim(trace, metadata) if agent_ids else 0
        self.positions = {aid: _positions(trace.rows[aid][window], aid, dim) for aid in agent_ids}
        self.velocities = {aid: _velocities(ts, x) for aid, x in self.positions.items()}
        self.sets = {}
        for sid in set_ids:
            stacks = parse_column(trace.kinds[sid], trace.unsafe[sid][window])
            for _, stack in stacks:
                if agent_ids and stack.dim != dim:
                    raise EvalError(f"unsafe set {sid!r} has dimension {stack.dim}, "
                                    f"but the workspace has dimension {dim}")
            refs = np.concatenate([np.broadcast_to(stack.reference(), (n, stack.dim))
                                   for n, stack in stacks])
            self.sets[sid] = stacks, _velocities(ts, refs)


def _positions(rows: list[tuple[float, ...]], agent_id: str, dim: int) -> np.ndarray:
    """The leading `dim` state components of the agent's rows."""
    width = len(rows[0])
    if width < dim:
        raise EvalError(
            f"agent {agent_id!r} state has {width} components, "
            f"cannot project {dim} position components"
        )
    return np.array(rows, dtype=float)[:, :dim]


def _velocities(ts: list[float], x: np.ndarray) -> np.ndarray:
    """Backward finite differences of the rows of x: row k is
    (x_j - x_{j-1}) / (t_j - t_{j-1}) with j = max(k, 1); zero for a
    single-sample trace."""
    if len(ts) < 2:
        return np.zeros_like(x)
    d = np.diff(x, axis=0) / np.diff(ts)[:, None]
    return np.concatenate((d[:1], d))


# A course list is what one target measures m agents (or m agent pairs)
# against: per stack of the target, its sets with rows repeated once per
# agent, and the agents' positions and velocities relative to the target
# over those samples, joined agent after agent.

def _set_courses(s: _Samples, agent_ids: list[str], set_id: str) -> list[tuple]:
    """The courses of the agents against a set."""
    stacks, set_vel = s.sets[set_id]
    m = len(agent_ids)
    P = np.stack([s.positions[aid] for aid in agent_ids])
    V = np.stack([s.velocities[aid] for aid in agent_ids]) - set_vel
    courses, k = [], 0
    for n, stack in stacks:
        courses.append((repeat_rows(stack, m), P[:, k:k + n].reshape(m * n, -1),
                        V[:, k:k + n].reshape(m * n, -1)))
        k += n
    return courses


def _pair_courses(s: _Samples, pairs: list[tuple[str, str]]) -> list[tuple]:
    """The courses of ordered agent pairs (a, b), a against b as a point
    moved along b's positions: one point stack for all pairs."""
    P = np.concatenate([s.positions[a] for a, _ in pairs])
    Q = np.concatenate([s.positions[b] for _, b in pairs])
    V = np.concatenate([s.velocities[a] - s.velocities[b] for a, b in pairs])
    return [(PointSet(Q[0]).moved_to(Q), P, V)]


def _courses(s: _Samples, agent_id: str, target_id: str) -> list[tuple]:
    """The courses of one agent against one target, a set or an agent."""
    if target_id in s.sets:
        return _set_courses(s, [agent_id], target_id)
    return _pair_courses(s, [(agent_id, target_id)])


def _distances(courses: list[tuple], m: int) -> np.ndarray:
    """The distance of each of the m courses at every sample, (m, n)."""
    return np.concatenate([sets.distance(P).reshape(m, -1) for sets, P, _ in courses], axis=1)


def _ttcs(courses: list[tuple], m: int) -> np.ndarray:
    """The time to collision of each of the m courses from every sample, (m, n)."""
    return np.concatenate([sets.entry_time(P, V).reshape(m, -1) for sets, P, V in courses],
                          axis=1)


def distance_series(trace: ExecutionTrace, agent_id: str, target_id: str,
                    metadata: ScenarioMetadata | None = None) -> list[tuple[float, float]]:
    """Per-timestamp distance from an agent to an unsafe set or another agent."""
    s = _Samples(trace, metadata, *_pair(trace, agent_id, target_id))
    return list(zip(s.ts, _distances(_courses(s, agent_id, target_id), 1)[0].tolist()))


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
    return float(_ttcs(_courses(s, agent_id, target_id), 1)[0, k - lo])


def controller_usage(trace: ExecutionTrace, agent_id: str) -> tuple[dict[str, float], int]:
    """Percent of decisions per mode and the number of mode switches.

    An empty mode trace yields ({}, 0), the "no data" result.
    """
    _check_agent(trace, agent_id)
    modes = trace.modes[agent_id]
    if not modes:
        return {}, 0
    usage = Counter(mode_names(modes))
    percents = {name: 100.0 * n / len(modes) for name, n in usage.items()}
    switches = sum(map(operator.is_not, modes, modes[1:]))
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
        stamps = {}  # each distinct time column's `repr(t) + ","`, formatted once

        def _write(name: str, series, text=repr):
            """`time,value` rows: repr of each time, `text` of each value."""
            path = outdir / name
            times, values = zip(*series) if series else ((), ())
            column = stamps.get(times)
            if column is None:
                column = stamps[times] = [repr(t) + "," for t in times]
            rows = map(str.__add__, column, map(text, values))
            path.write_text("\n".join(("time,value", *rows)) + "\n")
            written.append(path)

        for aid, r in self.agents.items():
            for target, series in r.set_distances.items():
                _write(f"{aid}__dist_set__{target}.csv", series)
            for target, series in r.agent_distances.items():
                _write(f"{aid}__dist_agent__{target}.csv", series)
            if r.mode_series:
                _write(f"{aid}__mode.csv", r.mode_series, str)
        return written


def build_report(trace: ExecutionTrace, metadata: ScenarioMetadata | None = None,
                 timings: dict[str, list[float]] | None = None) -> EvalReport:
    """Aggregate every metric over the full trace.

    timings maps agent id -> per-decision durations (from the RTA bindings'
    collectors or a saved timings file); agents without samples report
    "no data".
    """
    timings = timings or {}
    agent_ids, set_ids = list(trace.rows), list(trace.unsafe)
    # Positions only if there is something to measure them against.
    measured = agent_ids if set_ids or len(agent_ids) > 1 else []
    samples = _Samples(trace, metadata, measured, set_ids)
    ts = samples.ts
    # Per agent, by target id: the distance at every sample, and the least
    # time to collision over them.
    set_d, set_ttc, agent_d, agent_ttc = ({aid: {} for aid in agent_ids} for _ in range(4))
    m = len(measured)
    for sid in set_ids:
        courses = _set_courses(samples, measured, sid)
        for aid, d, t in zip(measured, _distances(courses, m).tolist(),
                             _ttcs(courses, m).tolist()):
            set_d[aid][sid], set_ttc[aid][sid] = d, min(t)
    pairs = [(aid, other) for aid in measured for other in measured if other != aid]
    if pairs:
        courses = _pair_courses(samples, pairs)
        for (aid, other), d, t in zip(pairs, _distances(courses, len(pairs)).tolist(),
                                      _ttcs(courses, len(pairs)).tolist()):
            agent_d[aid][other], agent_ttc[aid][other] = d, min(t)
    agents = {}
    for aid in agent_ids:
        usage, switches = controller_usage(trace, aid)
        agents[aid] = AgentReport(
            agent_id=aid,
            timing=computation_time_stats(timings.get(aid, [])),
            usage=usage,
            switch_count=switches,
            set_distances={k: list(zip(ts, d)) for k, d in set_d[aid].items()},
            agent_distances={k: list(zip(ts, d)) for k, d in agent_d[aid].items()},
            min_set_distance={k: min(d) for k, d in set_d[aid].items()},
            min_agent_distance={k: min(d) for k, d in agent_d[aid].items()},
            min_set_ttc=set_ttc[aid],
            min_agent_ttc=agent_ttc[aid],
            mode_series=list(zip(ts, mode_names(trace.modes[aid]))),
        )
    return EvalReport(
        agents=agents,
        n_samples=len(trace.times),
        duration=(ts[-1] - ts[0]) if len(ts) > 1 else 0.0,
    )
