"""Scenario assembly and the closed-loop execution engine.

A scenario bundles agents (model + initial state + initial mode + optional
RTA binding), unsafe-set specs, and the time grid. Execution produces an
ExecutionTrace on the exact grid t_k = k*dt, k = 0..floor(T/dt):

    per tick: all RTA decisions are computed from the same pre-step trace,
    then every agent steps from one view of that tick (every agent's state
    and memory), then relative unsafe sets are re-resolved against the new
    anchor states, then the tick is appended as one sample.

The view holds the trace's own rows, which are immutable tuples (see the
trace module), in read-only mappings: a step that writes into its `state`,
into a `view.states` value or into `view.states` or `view.memory`
themselves fails, as any step error does, with a ScenarioRuntimeError
naming the agent and t. So does a `remember` that raises, a step that
returns the wrong number of components, checked on every step, and an
executed step that returns a non-finite state, checked once per tick by
`execute`. A non-finite predicted position that a
decision's set test reads (the ego's, or an anchor's) fails that decision
with an error naming the agent and the predicted time (see the rta module).

Execution and prediction are one rollout: `advance` is the only step of
either. An agent's memory (see the agents module) is the fold of its
`remember` over the trace's recorded rows. The fold is kept on the trace in
process only, never in the wire format, and is extended by the rows added
since it was last taken, so a trace built by `advance`, loaded from a file,
built by hand or cut by `prefix` gets the same memory.

A prediction holds agent states and memory only, no unsafe set, so a set
payload is resolved only for an executed sample. An executed trace records
every set. `Scenario` splits the sets once, when it is built: a static set's
definition goes to `Scenario.static_sets`, an anchored set's spec to
`Scenario.anchored`. Decisions read the first and move the second along its
anchor's predicted states (see the rta module).

The engine is single-threaded and owns its trace during execution. A static
set's payload is built once per scenario and appended to every sample of
every executed trace, so payloads in a trace must not be mutated; apart
from them, distinct executions share nothing.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .agents import AgentModel, Mode, View
from .geometry import GeometryError, RelativeSetSpec, SetDef, update_relative
from .trace import ExecutionTrace, is_finite_number


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
        self.static_sets: dict[str, SetDef] = {}
        self.anchored: dict[str, RelativeSetSpec] = {}
        for s in config.unsafe_sets:
            if isinstance(s, RelativeSetSpec):
                self.anchored[s.set_id] = s
            else:
                self.static_sets[s.set_id] = s.base
        # A static set's payload never changes, so every sample shares one.
        self._static_payloads = {sid: s.payload() for sid, s in self.static_sets.items()}
        # What `advance` reads of each agent, in stepping order.
        self._table = [(spec.model.agent_id, spec.model, spec.model.state_dim)
                       for spec in config.agents]
        self._initial_memory = MappingProxyType({
            aid: spec.model.initial_memory for aid, spec in self.agents_by_id.items()
            if spec.model.initial_memory is not None
        })

    def current_mode(self, trace: ExecutionTrace, agent_id: str) -> Mode:
        """Last decided mode, falling back to the configured initial mode."""
        modes = trace.modes[agent_id]
        return modes[-1] if modes else self.agents_by_id[agent_id].init_mode

    def initial_trace(self) -> ExecutionTrace:
        trace = ExecutionTrace(self.agents_by_id,
                               {s.set_id: s.base.kind for s in self.config.unsafe_sets})
        states = {aid: spec.init_state for aid, spec in self.agents_by_id.items()}
        trace.append_sample(0.0, states, None, self._payloads(states, 0.0))
        return trace

    def _payloads(self, states: dict, t: float) -> dict:
        """The payload of every unsafe set at t, an anchored set resolved
        against `states`."""
        payloads = dict(self._static_payloads)
        for sid, uspec in self.anchored.items():
            anchor = uspec.anchor_id
            try:
                moved = update_relative(uspec, states[anchor][:self.workspace_dim])
            except GeometryError as exc:
                raise ScenarioRuntimeError(
                    f"unsafe set {sid!r} anchored to agent {anchor!r} failed to "
                    f"resolve at t={t:g}: {exc}"
                ) from exc
            payloads[sid] = moved.payload()
        return payloads

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
        pre-step sample, then append their states, their modes and the
        payloads of the unsafe sets the trace holds, re-resolved, as one
        sample."""
        rows = trace.rows
        table = self._table
        states = {aid: rows[aid][-1] for aid, _, _ in table}
        view = View(MappingProxyType(states), self.memory(trace))
        dt = self.dt
        next_states = {}
        for aid, model, state_dim in table:
            try:
                nxt = tuple(map(float, model.step(modes[aid], states[aid], dt, view)))
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
        t_next = (k + 1) * dt
        payloads = self._payloads(next_states, t_next) if trace.unsafe else None
        trace.append_sample(t_next, next_states, modes, payloads)


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
    """Run the closed loop over [0, T] and return the complete trace."""
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
    return trace


def predict(scenario: Scenario, trace: ExecutionTrace,
            modes: dict[str, Mode], n_steps: int) -> ExecutionTrace:
    """Fixed-mode rollout from the last sample of `trace`.

    Returns a fresh trace of agent states whose first sample is the current
    one (its rows shared with `trace`; rows are immutable), with the agents'
    memory at that sample and no unsafe set: static
    sets are in `scenario.static_sets`, and a set of `scenario.anchored` at
    predicted step k is `update_relative(spec, anchor position at k)`. Timestamps
    continue the k*dt grid. The input trace is not touched, apart from
    extending its memory fold.
    """
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
