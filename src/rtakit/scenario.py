"""Scenario assembly and the closed-loop execution engine.

A scenario bundles agents (model + initial state + initial mode + optional
RTA binding), unsafe-set specs, and the time grid. Execution produces an
ExecutionTrace on the exact grid t_k = k*dt, k = 0..floor(T/dt):

    per tick: all RTA decisions are computed from the same pre-step trace,
    then every agent steps from one view of that tick (every agent's state
    and memory), then the tick is appended as one sample; when the last
    tick is in, every unsafe set's column is attached.

The view holds the trace's own rows, which are immutable tuples (see the
trace module), in read-only mappings: a step that writes into its `state`,
into a `view.states` value or into `view.states` or `view.memory`
themselves fails, as any step error does, with a ScenarioRuntimeError
naming the agent and t. So does a `remember` that raises, a step that
returns the wrong number of components, checked on every step, and an
executed step that returns a non-finite state, checked once per tick by
`execute`. A step's result becomes the trace's row by one rule: a tuple is
kept as it is, so a step that returns a tuple must return Python floats in
it (every built-in step does), and any other sequence is converted to a
tuple of floats. A non-finite predicted position that a
decision's set test reads (the ego's, or an anchor's) fails that decision
with an error naming the agent and the predicted time (see the rta module).

Execution and prediction are one rollout: `initial_trace` writes a trace's
first sample, and `advance`, the only step of either, appends every later
one to the trace's columns itself, so that a rollout step runs in one
Python frame besides the agents' steps. An agent's memory (see the agents
module) is the fold of its `remember` over the trace's recorded rows. The
fold is kept on the trace in process only, never in the wire format, and
is extended by the rows added since it was last taken, so a trace built by
`advance`, loaded from a file, built by hand or cut by `prefix` gets the
same memory.

A rollout holds agent states and memory only. `Scenario` splits the sets
when it is built, into `static_sets` (definitions) and `anchored` (specs),
and `Scenario.unsafe_along` resolves one along any trace. Decisions call
it on predictions (see the rta module); `execute` calls it on its own
trace, to attach each set's payload column.

The engine is single-threaded and owns its trace during execution. A static
set's payload is built once per execution and shared by every sample of
the trace, so payloads in a trace must not be mutated; apart from them,
distinct executions share nothing.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

import numpy as np

from .agents import AgentModel, Mode, View
from .geometry import GeometryError, RelativeSetSpec, SetDef, update_relative
from .trace import ExecutionTrace, is_finite_number


# Builds a `View` without its NamedTuple constructor, a Python frame per tick.
_new_tuple = tuple.__new__


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


class ScenarioRuntimeError(RuntimeError):
    """An agent step failed during execution."""


@dataclass
class AgentSpec:
    model: AgentModel
    init_state: list[float]
    init_mode: Mode = Mode.NORMAL
    rta: object | None = None  # RtaBinding; duck-typed to avoid an import cycle


@dataclass
class StaticSetSpec:
    set_id: str
    base: SetDef


@dataclass
class ScenarioConfig:
    agents: list[AgentSpec]
    unsafe_sets: list = field(default_factory=list)  # StaticSetSpec | RelativeSetSpec
    dt: float = 0.1
    horizon: float = 5.0
    workspace_dim: int = 1


class Scenario:
    """A validated, executable scenario. Use build_scenario() to create one."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.dt = float(config.dt)
        self.workspace_dim = int(config.workspace_dim)
        self.agents_by_id = {spec.model.agent_id: spec for spec in config.agents}
        self.n_steps = grid_steps(float(config.horizon), self.dt)
        sets = config.unsafe_sets
        self.anchored = {s.set_id: s for s in sets if isinstance(s, RelativeSetSpec)}
        self.static_sets = {s.set_id: s.base for s in sets if s.set_id not in self.anchored}
        # What `advance` reads of each agent, in stepping order.
        self._table = [(spec.model.agent_id, spec.model, spec.model.state_dim)
                       for spec in config.agents]
        self._initial_memory = MappingProxyType({
            aid: spec.model.initial_memory for aid, spec in self.agents_by_id.items()
            if spec.model.initial_memory is not None
        })

    def current_modes(self, trace: ExecutionTrace) -> dict[str, Mode]:
        """Every agent's last decided mode in the trace, by agent id, falling
        back to the configured initial mode, in one pass."""
        agents = self.agents_by_id
        modes = {}
        for aid, column in trace.modes.items():
            modes[aid] = column[-1] if column else agents[aid].init_mode
        return modes

    def initial_trace(self) -> ExecutionTrace:
        """Every agent's initial state as the first sample, a tuple of floats
        whatever numbers the config gave, with no mode and no set (see
        `execute`)."""
        trace = ExecutionTrace()
        trace.times.append(0.0)
        for aid, spec in self.agents_by_id.items():
            trace.rows[aid] = [tuple(map(float, spec.init_state))]
            trace.modes[aid] = []
        return trace

    def unsafe_along(self, set_id: str, trace: ExecutionTrace) -> SetDef:
        """The unsafe set along the trace: a static set as built; an
        anchored set as the row-aligned stack of its base moved to the
        anchor's position at each sample, row k at sample k."""
        spec = self.anchored.get(set_id)
        if spec is None:
            return self.static_sets[set_id]
        return update_relative(spec, positions(trace, spec.anchor_id, self.workspace_dim))

    def memory(self, trace: ExecutionTrace) -> Mapping[str, object]:
        """The memory of every agent that keeps one (its model's
        `initial_memory` is not None) after the trace's last sample: the
        fold of its model's `remember` over the recorded rows, as a
        read-only mapping. Rows folded before are not folded again, and each
        fold makes a new mapping, so a returned one never changes. While no
        agent keeps memory it is the scenario's one empty mapping."""
        if not self._initial_memory:
            return self._initial_memory
        n = len(trace.times)
        folded, memory = trace.memory or (0, self._initial_memory)
        if folded < n:
            rows = trace.rows
            for k in range(folded, n):
                prev, memory = memory, {}
                for aid, m in prev.items():
                    try:
                        memory[aid] = self.agents_by_id[aid].model.remember(m, rows[aid][k])
                    except Exception as exc:
                        raise ScenarioRuntimeError(
                            f"agent {aid!r} remember failed at t={trace.times[k]:g}: {exc}"
                        ) from exc
            memory = MappingProxyType(memory)
            trace.memory = (n, memory)
        return memory

    def advance(self, trace: ExecutionTrace, modes: dict[str, Mode], k: int) -> None:
        """One tick from sample k: step all agents from one view of the
        pre-step sample, then append their states and modes as one sample.
        This is the one check of an appended sample's agents: a trace that
        holds an agent the scenario lacks raises ValueError, as does
        `modes` without an agent (`predict`'s message); neither appends."""
        rows = trace.rows
        table = self._table
        states = {}
        for aid, _, _ in table:
            states[aid] = rows[aid][-1]
        memory = self._initial_memory
        if memory:
            memory = self.memory(trace)
        view = _new_tuple(View, (MappingProxyType(states), memory))
        dt = self.dt
        next_states = {}
        try:
            for aid, model, state_dim in table:
                mode = modes[aid]
                try:
                    nxt = model.step(mode, states[aid], dt, view)
                    if type(nxt) is not tuple:
                        nxt = tuple(map(float, nxt))
                except Exception as exc:
                    raise ScenarioRuntimeError(
                        f"agent {aid!r} step failed at t={k * dt:g}: {exc}"
                    ) from exc
                if len(nxt) != state_dim:
                    raise ScenarioRuntimeError(
                        f"agent {aid!r} step at t={k * dt:g} returned {len(nxt)} components, "
                        f"expected {state_dim}"
                    )
                next_states[aid] = nxt
        except KeyError:  # only the mode lookup can raise it here
            raise ValueError(f"no mode given for agents "
                             f"{sorted(self.agents_by_id.keys() - modes.keys())}") from None
        if next_states.keys() != rows.keys():
            raise ValueError(f"sample has states for {sorted(next_states)}, "
                             f"trace holds agents {sorted(rows)}")
        trace.times.append((k + 1) * dt)
        for aid, column in rows.items():
            column.append(next_states[aid])
        for aid, column in trace.modes.items():
            column.append(modes[aid])


def positions(trace: ExecutionTrace, agent_id: str, dim: int) -> np.ndarray:
    """(n, dim) positions of an agent at every sample, read as one array.
    `advance` holds every stepped row to the agent's `state_dim`, so only
    the first row, a prediction's current state, can be of another width."""
    rows = trace.rows[agent_id]
    n, width = len(rows), len(rows[-1])
    if len(rows[0]) != width:
        raise ValueError(f"agent {agent_id!r}: the current state has {len(rows[0])} "
                         f"components, its predicted states {width}")
    return np.fromiter(chain.from_iterable(rows), float, n * width).reshape(n, width)[:, :dim]


def grid_steps(horizon: float, dt: float) -> int:
    """floor(T/dt) with a guard against float quotient noise."""
    return int(math.floor(horizon / dt + 1e-9))


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Validate a configuration and materialize the executable scenario."""
    for name in ("dt", "horizon"):
        value = getattr(config, name)
        if not math.isfinite(value) or not value > 0:
            raise ScenarioError(f"{name} must be finite and positive, got {value}")
    if config.horizon < config.dt:
        raise ScenarioError(
            f"horizon {config.horizon} must be at least one time step {config.dt}"
        )
    if config.workspace_dim < 1:
        raise ScenarioError(f"workspace dimension must be >= 1, got {config.workspace_dim}")
    if not config.agents:
        raise ScenarioError("scenario needs at least one agent")

    seen = set()
    for spec in config.agents:
        aid = spec.model.agent_id
        if aid in seen:
            raise ScenarioError(f"duplicate agent id {aid!r}")
        seen.add(aid)
        if len(spec.init_state) != spec.model.state_dim:
            raise ScenarioError(
                f"agent {aid!r}: initial state has {len(spec.init_state)} components, "
                f"model {spec.model.model_name!r} expects {spec.model.state_dim}"
            )
        if not all(is_finite_number(v) for v in spec.init_state):
            raise ScenarioError(
                f"agent {aid!r}: initial state must be finite numbers, got {list(spec.init_state)}"
            )
        if spec.model.position_dim != config.workspace_dim:
            raise ScenarioError(
                f"agent {aid!r}: model position_dim {spec.model.position_dim} "
                f"!= workspace dimension {config.workspace_dim}"
            )
        if spec.model.position_dim > spec.model.state_dim:
            raise ScenarioError(f"agent {aid!r}: model position_dim {spec.model.position_dim} "
                                f"exceeds its state_dim {spec.model.state_dim}")
        if not isinstance(spec.init_mode, Mode):
            raise ScenarioError(f"agent {aid!r}: initial mode must be a Mode")
        if spec.rta is not None and sum(o.rta is spec.rta for o in config.agents) > 1:
            raise ScenarioError(f"agent {aid!r}: its RTA binding is shared with another agent")

    agent_ids = set(seen)
    for spec in config.agents:
        leader = spec.model.leader_id
        if leader is not None and leader not in agent_ids:
            raise ScenarioError(
                f"agent {spec.model.agent_id!r}: leader {leader!r} does not name an agent"
            )
    for uspec in config.unsafe_sets:
        sid = uspec.set_id
        if sid in seen:
            if sid in agent_ids:
                raise ScenarioError(f"unsafe set id {sid!r} collides with an agent id")
            raise ScenarioError(f"duplicate unsafe set id {sid!r}")
        seen.add(sid)
        base = uspec.base
        if base.dim != config.workspace_dim:
            raise ScenarioError(
                f"unsafe set {sid!r} has dimension {base.dim}, "
                f"workspace has {config.workspace_dim}"
            )
        if isinstance(uspec, RelativeSetSpec) and uspec.anchor_id not in agent_ids:
            raise ScenarioError(
                f"unsafe set {sid!r}: dangling anchor {uspec.anchor_id!r} "
                f"does not name an agent"
            )

    scenario = Scenario(config)
    for spec in config.agents:
        if spec.rta is not None:
            spec.rta.logic.bind(scenario, spec.model.agent_id)
    return scenario


def execute(scenario: Scenario) -> ExecutionTrace:
    """Run the closed loop over [0, T] and return the complete trace; the
    set columns, in config order, are attached when the loop ends."""
    trace = scenario.initial_trace()
    for k in range(scenario.n_steps):
        modes = {}
        for spec in scenario.config.agents:
            aid = spec.model.agent_id
            if spec.rta is not None:
                modes[aid] = spec.rta.switch(trace)
            else:
                modes[aid] = spec.init_mode
        scenario.advance(trace, modes, k)
        for aid, rows in trace.rows.items():
            if not all(map(math.isfinite, rows[-1])):
                raise ScenarioRuntimeError(
                    f"agent {aid!r} step at t={k * scenario.dt:g} returned a non-finite "
                    f"state {list(rows[-1])}"
                )
    for spec in scenario.config.unsafe_sets:
        trace.kinds[spec.set_id] = spec.base.kind
        trace.unsafe[spec.set_id] = _set_column(scenario, spec, trace)
    return trace


def _set_column(scenario: Scenario, spec, trace: ExecutionTrace) -> list:
    """The set's payload at every sample; a stack that fails to resolve is
    resolved again sample by sample, to name the first that fails."""
    try:
        set_def = scenario.unsafe_along(spec.set_id, trace)
    except GeometryError:
        for t, row in zip(trace.times, trace.rows[spec.anchor_id]):
            try:
                update_relative(spec, row[:scenario.workspace_dim])
            except GeometryError as exc:
                raise ScenarioRuntimeError(
                    f"unsafe set {spec.set_id!r} anchored to agent {spec.anchor_id!r} "
                    f"failed to resolve at t={t:g}: {exc}"
                ) from exc
        raise
    # A static set is one set, whose one payload every sample shares.
    return set_def.row_payloads() if set_def.rows else [set_def.payload()] * len(trace.times)


def predict(scenario: Scenario, trace: ExecutionTrace,
            modes: dict[str, Mode], n_steps: int) -> ExecutionTrace:
    """Fixed-mode rollout from the last sample of `trace`.

    Returns a fresh trace of agent states whose first sample is the current
    one (its rows shared with `trace`; rows are immutable), with the agents'
    memory at that sample and no unsafe set (`Scenario.unsafe_along`
    resolves one along it). Timestamps continue the k*dt grid. The input
    trace is untouched but for its memory fold. Raises ValueError, before
    any step, for a negative `n_steps` or for `modes` lacking an agent.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    agents = scenario.agents_by_id.keys()
    if not agents <= modes.keys():
        raise ValueError(f"no mode given for agents {sorted(agents - modes.keys())}")
    k0 = int(round(trace.times[-1] / scenario.dt))
    pred = trace.latest()
    pred.memory = (1, scenario.memory(trace))
    for j in range(n_steps):
        scenario.advance(pred, modes, k0 + j)
    return pred


@dataclass
class SimState:
    """Projection of an ExecutionTrace at one grid timestamp."""

    t: float
    states: dict[str, list[float]]
    modes: dict[str, Mode | None]
    unsafe: dict[str, SetDef]


def snapshot(trace: ExecutionTrace, t: float) -> SimState:
    """SimState at the largest recorded timestamp <= t."""
    ts = trace.times
    if not ts:
        raise ValueError("trace holds no samples")
    if not ts[0] - 1e-12 <= t <= ts[-1] + 1e-12:  # NaN fails this too
        raise ValueError(f"t={t:g} outside the recorded range [{ts[0]:g}, {ts[-1]:g}]")
    k = bisect_right(ts, t + 1e-12) - 1
    states = {aid: list(rows[k]) for aid, rows in trace.rows.items()}
    modes = {aid: mt[min(k, len(mt) - 1)] if mt else None for aid, mt in trace.modes.items()}
    unsafe = {sid: trace.unsafe_def(sid, k) for sid in trace.unsafe}
    return SimState(t=ts[k], states=states, modes=modes, unsafe=unsafe)
