"""Decision timing collection and post-hoc evaluation of executed traces.

Metrics: per-decision computation time (avg/min/max), controller usage
percentages and switch counts, and against every target (an unsafe set or
another agent) the distance at each sample and the least time to collision
under constant-velocity extrapolation. A report keeps the sample grid once
and one distance column per target; only the files it writes tell sets
from agents. Evaluation reads an immutable trace and the decision
durations, nothing else: a trace held in memory and the same trace written
and loaded by `rtakit eval` report the same numbers.

Workspace positions are the leading `workspace_dim` state components; the
dimension is inferred from the unsafe-set definitions unless supplied
explicitly. Velocities are backward finite differences of the recorded
positions (set velocities likewise, of each set's reference point). An
evaluation builds these as columns once, parsing each set's payloads as
one column into row-aligned stacks of one dimension, checked once against
the workspace's (`geometry.parse_column`); another agent is a target too,
as one point moved along its positions. It then measures every agent
against a target with one `distance` and one `entry_time` call per stack,
the stack's rows repeated once per agent (`geometry.repeat_rows`). Each
sample rounds as it would alone, so the numbers equal measuring pair by
pair and sample by sample.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import PointSet, parse_column, repeat_rows
from .trace import ExecutionTrace, mode_names, replace_text


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
    agent its (n, dim) positions and velocities, and per target its
    row-aligned stacks and the velocity of their reference point at every
    sample of `window`. A set's stacks are its parsed column; an agent's,
    a point moved along its positions, which must be among `agent_ids`."""

    def __init__(self, trace: ExecutionTrace, metadata: ScenarioMetadata | None,
                 agent_ids: list[str], target_ids: list[str], window: slice = slice(None)):
        self.ts = ts = trace.times[window]
        if not ts:
            raise EvalError("trace holds no samples (no data)")
        dim = _workspace_dim(trace, metadata) if agent_ids else 0
        self.positions = {aid: _positions(trace.rows[aid][window], aid, dim) for aid in agent_ids}
        self.velocities = {aid: _velocities(ts, x) for aid, x in self.positions.items()}
        self.targets = {}
        for tid in target_ids:
            if tid in trace.rows:
                x = self.positions[tid]
                self.targets[tid] = [(len(x), PointSet(x[0]).moved_to(x))], self.velocities[tid]
                continue
            stacks = parse_column(trace.kinds[tid], trace.unsafe[tid][window])
            set_dim = stacks[0][1].dim  # a column has one dimension
            if agent_ids and set_dim != dim:
                raise EvalError(f"unsafe set {tid!r} has dimension {set_dim}, "
                                f"but the workspace has dimension {dim}")
            refs = np.concatenate([np.broadcast_to(stack.reference(), (n, stack.dim))
                                   for n, stack in stacks])
            self.targets[tid] = stacks, _velocities(ts, refs)


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


def _courses(s: _Samples, agent_ids: list[str], target_id: str) -> list[tuple]:
    """What the target measures the m agents against: per stack of the
    target, its sets with rows repeated once per agent, and the agents'
    positions and velocities relative to the target over those samples,
    joined agent after agent."""
    stacks, target_vel = s.targets[target_id]
    m = len(agent_ids)
    P = np.stack([s.positions[aid] for aid in agent_ids])
    V = np.stack([s.velocities[aid] for aid in agent_ids]) - target_vel
    courses, k = [], 0
    for n, stack in stacks:
        courses.append((repeat_rows(stack, m), P[:, k:k + n].reshape(m * n, -1),
                        V[:, k:k + n].reshape(m * n, -1)))
        k += n
    return courses


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
    return list(zip(s.ts, _distances(_courses(s, [agent_id], target_id), 1)[0].tolist()))


def _pair(trace: ExecutionTrace, agent_id: str, target_id: str) -> tuple[list[str], list[str]]:
    """The agent ids and target ids read to measure an agent against a target."""
    _check_agent(trace, agent_id)
    if target_id in trace.unsafe:
        return [agent_id], [target_id]
    if target_id not in trace.rows:
        raise EvalError(f"unknown target id {target_id!r}")
    return [agent_id, target_id], [target_id]


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
    agent_ids, target_ids = _pair(trace, agent_id, target_id)
    k = _grid_index(trace.times, t)
    lo = max(k - 1, 0)  # the backward difference at k reads samples lo and lo + 1
    s = _Samples(trace, metadata, agent_ids, target_ids, slice(lo, lo + 2))
    return float(_ttcs(_courses(s, [agent_id], target_id), 1)[0, k - lo])


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
    """One agent's metrics; per target id, its distance column (row k at
    `EvalReport.times[k]`), least distance and least time to collision."""

    agent_id: str
    timing: TimingStats
    usage: dict[str, float]
    switch_count: int
    modes: list[str]
    distances: dict[str, list[float]]
    min_distance: dict[str, float]
    min_ttc: dict[str, float]


@dataclass
class EvalReport:
    """Every agent's metrics over the sample grid `times`; `set_ids` names
    the targets that are unsafe sets, the others are agents."""

    agents: dict[str, AgentReport]
    times: list[float]
    set_ids: list[str]

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        return self.times[-1] - self.times[0]

    def to_dict(self) -> dict:
        def _num(x):
            return None if x is None or math.isinf(x) else x

        def _targets(values: dict[str, float], sets: bool) -> dict:
            """The sets' or the other agents' entries of a per-target mapping."""
            return {k: _num(v) for k, v in values.items() if (k in self.set_ids) == sets}

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
                    "min_distance_to_sets": _targets(r.min_distance, True),
                    "min_distance_to_agents": _targets(r.min_distance, False),
                    "min_ttc_to_sets": _targets(r.min_ttc, True),
                    "min_ttc_to_agents": _targets(r.min_ttc, False),
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
            for target, d in r.min_distance.items():
                label = "unsafe set" if target in self.set_ids else "agent"
                ttc_val = r.min_ttc[target]
                ttc_str = "inf" if math.isinf(ttc_val) else f"{ttc_val:.6g} s"
                lines.append(f"  vs {label} {target!r}: min distance {d:.6g}, min TTC {ttc_str}")
        return "\n".join(lines) + "\n"

    def write_csv(self, outdir) -> list[Path]:
        """One (time, value) CSV per agent/metric/target series, named
        after the ids; an id that is not one path component is rejected.
        Each file is replaced, not rewritten in place (see README, "Outputs
        are replaced")."""
        for aid, r in self.agents.items():
            for ident in (aid, *r.distances):
                if ident in ("", ".", "..") or Path(ident).name != ident:
                    raise EvalError(f"id {ident!r} is not a single path component, "
                                    f"so it cannot name a CSV file")
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        files = []  # (path, values); a mode column is one row shorter than `times`
        for aid, r in self.agents.items():
            for target, column in r.distances.items():
                kind = "set" if target in self.set_ids else "agent"
                files.append((outdir / f"{aid}__dist_{kind}__{target}.csv", map(repr, column)))
            if r.modes:
                files.append((outdir / f"{aid}__mode.csv", r.modes))
        stamps = [repr(t) + "," for t in self.times]
        for path, values in files:
            replace_text(path, "\n".join(("time,value", *map(str.__add__, stamps, values))) + "\n")
        return [path for path, _ in files]


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
    samples = _Samples(trace, metadata, measured, set_ids + measured)
    # Per agent, by target id: the distance at every sample, and the least
    # time to collision over them.
    dists, ttcs = ({aid: {} for aid in agent_ids} for _ in range(2))
    for target in samples.targets:  # sets in trace order, then agents
        others = [aid for aid in measured if aid != target]
        if not others:
            continue
        courses = _courses(samples, others, target)
        for aid, d, t in zip(others, _distances(courses, len(others)).tolist(),
                             _ttcs(courses, len(others)).tolist()):
            dists[aid][target], ttcs[aid][target] = d, min(t)
    agents = {}
    for aid in agent_ids:
        usage, switches = controller_usage(trace, aid)
        agents[aid] = AgentReport(
            agent_id=aid,
            timing=computation_time_stats(timings.get(aid, [])),
            usage=usage,
            switch_count=switches,
            modes=mode_names(trace.modes[aid]),
            distances=dists[aid],
            min_distance={k: min(d) for k, d in dists[aid].items()},
            min_ttc=ttcs[aid],
        )
    return EvalReport(agents=agents, times=samples.ts, set_ids=set_ids)
