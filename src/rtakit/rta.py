"""Runtime-assurance decision modules.

The binding wraps a user logic, times every decision and records its
duration in a Collector; the executed trace itself is what `execute`
returns. Two reference logics ship with the package:

    SimRta    forward-simulates the untrusted controller over the prediction
              horizon and switches to SAFETY if the predicted ego state ever
              enters an unsafe set of the scenario.
    ReachRta  same, but inflates the predicted position at step k into an
              axis-aligned box of half-width bloat_rate * k * dt and
              switches on box/set intersection, which makes it conservative
              relative to SimRta by construction.

Both test each unsafe set once per decision, over the whole predicted
horizon, in config order, as `Scenario.unsafe_along` resolves it along the
prediction: predicted step k of the ego is tested against the set where
its anchor is at step k. A set anchored to the ego itself is skipped, since
the ego is always at its own set: a leader that carries a ball for its
followers is not held in SAFETY by that ball.

The prediction is the closed loop's own rollout (`scenario.predict`): every
agent steps from the same view and memory as it would in execution, so a
one-step prediction under the executed modes is the executed next sample.
A decision reads the ego's and each anchor's predicted positions as one
array, the leading `workspace_dim` components of its rows, and
`boxes_from_prediction` builds every reach box of the horizon in one
expression, as two (n, dim) corner stacks. A set test that meets a
non-finite predicted position fails the decision with an error naming the
agent, the ego or the anchor, and the predicted time.
"""
from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np

from .agents import Mode
from .evaluation import Collector
from .geometry import GeometryError, box_intersects
from .scenario import Scenario, grid_steps, positions, predict
from .trace import ExecutionTrace


class RtaError(RuntimeError):
    """A decision logic failed; its message names the ego and the time."""


class RtaLogic:
    """Base decision module. Subclasses implement decide(trace) -> Mode."""

    def __init__(self, horizon: float = 1.0):
        if not math.isfinite(horizon) or not horizon > 0:
            raise ValueError(f"prediction horizon must be finite and positive, got {horizon}")
        self.ego_id: str | None = None  # set by `bind`
        self.horizon = float(horizon)
        self._scenario: Scenario | None = None

    def bind(self, scenario: Scenario, ego_id: str) -> None:
        if self.horizon < scenario.dt:
            raise ValueError(
                f"RTA logic for agent {ego_id!r}: prediction horizon {self.horizon} "
                f"must be at least one time step {scenario.dt}"
            )
        self._scenario = scenario
        self.ego_id = ego_id

    @property
    def scenario(self) -> Scenario:
        if self._scenario is None:
            raise RuntimeError("logic is not bound to a scenario yet")
        return self._scenario

    def decide(self, trace: ExecutionTrace) -> Mode:
        raise NotImplementedError

    def _enters_unsafe(self, pred: ExecutionTrace, hits) -> bool:
        """Whether `hits(set_def)` holds for some unsafe set not anchored to
        the ego, each resolved once along the whole prediction. The set test
        rejects a non-finite position; the error then names the agent, the
        ego or the anchor, and the predicted time."""
        scenario = self.scenario
        dim = scenario.workspace_dim
        for spec in scenario.config.unsafe_sets:
            anchor = getattr(spec, "anchor_id", None)
            if anchor == self.ego_id:
                continue
            try:
                if hits(scenario.unsafe_along(spec.set_id, pred)):
                    return True
            except GeometryError:
                for aid in (self.ego_id, anchor):
                    if aid is not None:
                        _check_finite_positions(pred, aid, dim)
                raise
        return False


class RtaBinding:
    """Attaches a logic to an agent; times every decision and records its
    duration."""

    def __init__(self, logic: RtaLogic):
        self.logic = logic
        self.collector = Collector()

    def switch(self, trace: ExecutionTrace) -> Mode:
        start = time.perf_counter()
        try:
            mode = self.logic.decide(trace)
        except Exception as exc:
            raise RtaError(f"RTA logic for agent {self.logic.ego_id!r} failed "
                           f"at t={trace.times[-1]:g}: {exc}") from exc
        duration = time.perf_counter() - start
        self.collector.collect_computation_time(duration)
        return mode


def forward_simulate(trace: ExecutionTrace, scenario: Scenario, horizon: float,
                     ego_id: str) -> ExecutionTrace:
    """Predicted trace over [t_now, t_now + horizon].

    The ego agent is held in UNTRUSTED mode; every other agent
    keeps its current mode. The prediction holds agent states and memory
    only, no unsafe set (see `scenario.predict`). The first sample is the
    current state.
    """
    if horizon < scenario.dt:
        raise ValueError(
            f"prediction horizon {horizon} must be at least one time step {scenario.dt}"
        )
    modes = scenario.current_modes(trace)
    if ego_id not in modes:
        raise ValueError(f"ego agent {ego_id!r} missing from trace")
    modes[ego_id] = Mode.UNTRUSTED
    return predict(scenario, trace, modes, grid_steps(horizon, scenario.dt))


class SimRta(RtaLogic):
    """Simulation-based switching: SAFETY iff the predicted ego position
    enters any unsafe set of the scenario within the prediction horizon."""

    def decide(self, trace: ExecutionTrace) -> Mode:
        pred = forward_simulate(trace, self.scenario, self.horizon, ego_id=self.ego_id)
        ego = positions(pred, self.ego_id, self.scenario.workspace_dim)
        if self._enters_unsafe(pred, lambda s: s.contains(ego)):
            return Mode.SAFETY
        return Mode.UNTRUSTED


def _check_finite_positions(pred: ExecutionTrace, agent_id: str, dim: int) -> None:
    """Raise ValueError naming the agent and the first predicted time at
    which its position is not finite, if there is one."""
    for t, row in zip(pred.times, pred.rows[agent_id]):
        if not all(map(math.isfinite, row[:dim])):
            raise ValueError(f"predicted position of agent {agent_id!r} at t={t:g} "
                             f"is not finite: {list(row[:dim])}")


def boxes_from_prediction(pred: ExecutionTrace, ego_id: str, dim: int, bloat_rate: float,
                          dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) corner stacks (n, dim) of the axis-aligned boxes
    around the nominal predicted positions; the per-axis inflation at
    predicted step k (k = 0 is the current state) is bloat_rate * k * dt,
    rounded as that scalar product is."""
    pos = positions(pred, ego_id, dim)
    r = _reach_radii(bloat_rate, len(pos), dt)
    return pos - r, pos + r


@lru_cache(maxsize=64)
def _reach_radii(bloat_rate: float, n: int, dt: float) -> np.ndarray:
    """The (n, 1) column of reach-box half-widths bloat_rate * k * dt,
    k = 0..n-1: the same for every decision of a binding, so it is made
    once and shared, read-only."""
    r = (bloat_rate * np.arange(n) * dt)[:, None]
    r.flags.writeable = False
    return r


class ReachRta(RtaLogic):
    """Reachability-based switching: SAFETY iff any reach box intersects an
    unsafe set of the scenario at the same predicted step.

    The box at predicted step k has half-width bloat_rate * k * dt, which a
    nonnegative rate keeps nonnegative and nondecreasing in k. With a zero
    rate the decision coincides with SimRta.
    """

    def __init__(self, horizon: float = 1.0, bloat_rate: float = 0.1):
        super().__init__(horizon=horizon)
        if not math.isfinite(bloat_rate) or not bloat_rate >= 0:
            raise ValueError(f"bloat rate must be finite and nonnegative, got {bloat_rate}")
        self.bloat_rate = float(bloat_rate)

    def decide(self, trace: ExecutionTrace) -> Mode:
        scenario = self.scenario
        pred = forward_simulate(trace, scenario, self.horizon, ego_id=self.ego_id)
        lower, upper = boxes_from_prediction(pred, self.ego_id, scenario.workspace_dim,
                                             self.bloat_rate, scenario.dt)
        if self._enters_unsafe(pred, lambda s: box_intersects(s, lower, upper)):
            return Mode.SAFETY
        return Mode.UNTRUSTED
