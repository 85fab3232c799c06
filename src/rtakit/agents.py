"""Agent models: plant dynamics plus their safety and untrusted controllers.

Every model exposes a deterministic `step(mode, state, dt, view)` that
advances the state one explicit-Euler step. The view is what the agent sees
of the tick it steps from: by agent id, every agent's pre-step state and the
memory of every agent that keeps one. Memory is the discrete part of an
agent's state that its controllers carry between ticks, such as a route's
active waypoint; `remember(memory, state)` gives the memory after a
recorded state, and the scenario folds it over a trace's rows. The mode
selects the controller:

    SAFETY     well-tested conservative controller
    UNTRUSTED  experimental high-performance controller (no guarantee)
    NORMAL     configured nominal behaviour; zero control by default

State layout convention: the leading `position_dim` components are the
workspace position, which unsafe sets, decisions and distance metrics read.
A step's `state` is the trace's own row, a tuple of floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple


class Mode(Enum):
    SAFETY = "SAFETY"
    UNTRUSTED = "UNTRUSTED"
    NORMAL = "NORMAL"


class View(NamedTuple):
    """One tick as every agent's step sees it, by agent id: each agent's
    pre-step state, and the memory of each agent that keeps one. A state is
    the trace's own row, a read-only tuple of floats."""

    states: dict[str, tuple[float, ...]]
    memory: dict[str, object]


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


def _check_finite(params) -> None:
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def _point(values, what: str, dim: int) -> list[float]:
    out = [float(v) for v in values]
    if len(out) != dim or not all(map(math.isfinite, out)):
        raise ValueError(f"{what} must be position_dim = {dim} finite numbers, got {out}")
    return out


def _check_dt(dt: float) -> float:
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    return dt


class AgentModel:
    """Base agent: identifier, parameters, a step transition function and
    the memory it carries between ticks; it keeps none while
    `initial_memory` is None. Its leading `position_dim` state components
    are its position; `leader_id`, if set, names the agent it follows."""

    model_name = "base"
    state_dim: int = 0
    position_dim: int = 0
    initial_memory: object = None
    leader_id: str | None = None

    def __init__(self, agent_id: str):
        if not agent_id or not isinstance(agent_id, str):
            raise ValueError("agent id must be a nonempty string")
        self.agent_id = agent_id

    def step(self, mode: Mode, state, dt: float, view: View) -> list[float]:
        raise NotImplementedError

    def remember(self, memory, state):
        """The memory after recording `state`, starting from `memory`; it
        returns a new value and leaves the old one as it was. Called only
        for an agent whose `initial_memory` is not None, which is what
        keeping memory means."""
        return memory

    def _leader_state(self, view: View) -> tuple[float, ...]:
        """Pre-step state of the agent named by `leader_id`."""
        state = view.states.get(self.leader_id)
        if state is None:
            raise ValueError(
                f"agent {self.agent_id!r}: leader {self.leader_id!r} missing from the view"
            )
        return state


@dataclass(frozen=True)
class AccParams:
    """Cruise-control gains and bounds.

    k1, k2 are the proportional safety-controller gains, a_max/v_max the
    acceleration and speed bounds, and follow_distance the desired gap
    behind the leader. collision_distance is checked to lie in
    (0, follow_distance) but nothing reads it: the unsafe ball around the
    leader takes its radius from the config's unsafe_sets.
    """

    k1: float = 1.0
    k2: float = 2.0
    a_max: float = 16.0
    v_max: float = 20.0
    follow_distance: float = 10.0
    collision_distance: float = 7.0

    def __post_init__(self):
        _check_finite(self)
        for name in ("k1", "k2", "a_max", "v_max", "follow_distance"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.collision_distance < self.follow_distance:
            raise ValueError(
                f"collision_distance must lie in (0, follow_distance), "
                f"got {self.collision_distance} vs {self.follow_distance}"
            )


class AccAgent(AgentModel):
    """1-D cruise agent: double integrator with a proportional safety
    controller and a bang-bang untrusted controller.

    State is [position, velocity]. The goal state is [leader position -
    follow_distance, leader velocity], read from the view each step.
    """

    model_name = "acc"
    params_type = AccParams
    state_dim = 2
    position_dim = 1

    def __init__(self, agent_id, params: AccParams | None = None,
                 leader_id: str | None = None, goal_fn=None):
        super().__init__(agent_id)
        self.params = params or self.params_type()
        self.leader_id = leader_id
        self.goal_fn = goal_fn

    def goal_state(self, view: View) -> list[float] | None:
        if self.goal_fn is not None:
            return list(self.goal_fn(view))
        if self.leader_id is None:
            return None
        lead = self._leader_state(view)
        return [lead[0] - self.params.follow_distance, lead[1]]

    def command(self, mode: Mode, state, view: View) -> float:
        """Acceleration command for the given mode, clamped to +-a_max."""
        if mode is Mode.NORMAL:
            return 0.0
        goal = self.goal_state(view)
        if goal is None:
            raise ValueError(f"agent {self.agent_id!r} has no goal provider")
        p, v = state
        if mode is Mode.SAFETY:
            a = self.params.k1 * (goal[0] - p) + self.params.k2 * (goal[1] - v)
        elif mode is Mode.UNTRUSTED:
            err = goal[0] - p
            a = math.copysign(self.params.a_max, err) if err != 0.0 else 0.0
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if abs(a) > self.params.a_max:
            a = math.copysign(self.params.a_max, a)
        return a

    def step(self, mode, state, dt, view) -> list[float]:
        dt = _check_dt(dt)
        a = self.command(mode, state, view)
        p, v = state
        p_next = p + v * dt
        v_next = v + a * dt
        if abs(v_next) >= self.params.v_max:
            v_next = math.copysign(self.params.v_max, v_next)
        return [p_next, v_next]


@dataclass(frozen=True)
class DubinsCarParams:
    """Unicycle gains: heading/speed proportional gains, speed bounds, and
    the cruise (untrusted) / safe (safety) target speeds.

    nominal="track" makes NORMAL mode steer toward the goal at constant
    speed (scripted leaders); the default NORMAL is zero control.
    """

    k_heading: float = 2.0
    k_speed: float = 1.5
    v_max: float = 3.0
    v_cruise: float = 2.5
    v_safe: float = 0.0
    capture_radius: float = 1.0
    nominal: str = "coast"

    def __post_init__(self):
        _check_finite(self)
        if not self.v_max > 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if not 0 < self.v_cruise <= self.v_max:
            raise ValueError(f"v_cruise must lie in (0, v_max], got {self.v_cruise}")
        if not 0 <= self.v_safe <= self.v_max:
            raise ValueError(f"v_safe must lie in [0, v_max], got {self.v_safe}")
        if not self.capture_radius > 0:
            raise ValueError("capture_radius must be positive")
        if self.nominal not in ("coast", "track"):
            raise ValueError(f"nominal must be 'coast' or 'track', got {self.nominal!r}")


class DubinsCarAgent(AgentModel):
    """Planar unicycle. State is [x, y, heading, speed].

    UNTRUSTED steers toward the goal at the cruise speed and needs one.
    SAFETY steers toward the goal, if there is one, while slowing to the
    safe speed; without a goal it holds its heading. Goals come from a
    waypoint list, a leader (position + formation offset), or a custom
    callable. A car with waypoints keeps memory: the index of its active
    waypoint.
    """

    model_name = "dubins_car"
    params_type = DubinsCarParams
    state_dim = 4
    position_dim = 2

    def __init__(self, agent_id, params: DubinsCarParams | None = None,
                 waypoints=None, leader_id: str | None = None,
                 formation_offset=None, goal_fn=None):
        super().__init__(agent_id)
        self.params = params or self.params_type()
        dim = self.position_dim
        self.waypoints = (
            [_point(w, f"waypoint {j}", dim) for j, w in enumerate(waypoints)]
            if waypoints else None
        )
        if self.waypoints:
            self.initial_memory = 0
        self.leader_id = leader_id
        self.formation_offset = (
            _point(formation_offset, "formation_offset", dim)
            if formation_offset is not None else None
        )
        self.goal_fn = goal_fn

    def remember(self, memory, state):
        """Capture every waypoint from the active one on that lies within
        capture_radius of the recorded position; the last one is never
        passed."""
        pos = state[:self.position_dim]
        last = len(self.waypoints) - 1
        while memory < last and math.dist(pos, self.waypoints[memory]) <= self.params.capture_radius:
            memory += 1
        return memory

    def goal_position(self, view: View) -> list[float] | None:
        if self.goal_fn is not None:
            return list(self.goal_fn(view))
        if self.leader_id is not None:
            lead = self._leader_state(view)[:self.position_dim]
            if self.formation_offset is None:
                return list(lead)
            return [g + o for g, o in zip(lead, self.formation_offset)]
        if self.waypoints:
            return self.waypoints[view.memory[self.agent_id]]
        return None

    def _steering(self, mode, x, y, heading, speed, view):
        """Turn rate, target speed and the goal steered to (or None).

        Coasting NORMAL reads no goal. Only UNTRUSTED needs one: without a
        goal, SAFETY and tracking NORMAL hold their heading.
        """
        if mode is Mode.NORMAL:
            target = speed
            if self.params.nominal != "track":
                return 0.0, target, None
        elif mode is Mode.SAFETY:
            target = self.params.v_safe
        elif mode is Mode.UNTRUSTED:
            target = self.params.v_cruise
        else:
            raise ValueError(f"unknown mode {mode!r}")
        goal = self.goal_position(view)
        if goal is None:
            if mode is Mode.UNTRUSTED:
                raise ValueError(f"agent {self.agent_id!r} has no goal provider")
            return 0.0, target, None
        bearing = math.atan2(goal[1] - y, goal[0] - x)
        return self.params.k_heading * wrap_angle(bearing - heading), target, goal

    def _planar_step(self, x, y, heading, speed, omega, v_target, dt) -> list[float]:
        """One Euler step of [x, y, heading, speed] under turn rate omega and
        the proportional speed loop toward v_target."""
        accel = self.params.k_speed * (v_target - speed)
        x_next = x + speed * math.cos(heading) * dt
        y_next = y + speed * math.sin(heading) * dt
        heading_next = wrap_angle(heading + omega * dt)
        v_next = min(max(speed + accel * dt, 0.0), self.params.v_max)
        return [x_next, y_next, heading_next, v_next]

    def step(self, mode, state, dt, view) -> list[float]:
        dt = _check_dt(dt)
        x, y, heading, speed = state
        omega, v_target, _ = self._steering(mode, x, y, heading, speed, view)
        return self._planar_step(x, y, heading, speed, omega, v_target, dt)


@dataclass(frozen=True)
class DubinsPlaneParams(DubinsCarParams):
    """Car gains plus the altitude channel: flight-path gain, the fixed
    pitch-up target used by the SAFETY (ground-avoid) controller, and the
    flight-path angle bound for nominal tracking."""

    k_gamma: float = 1.2
    pitch_up: float = 0.25
    gamma_max: float = 0.6
    v_safe: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.k_gamma > 0:
            raise ValueError("k_gamma must be positive")
        if not 0 < self.pitch_up <= math.pi / 2:
            raise ValueError(f"pitch_up must lie in (0, pi/2], got {self.pitch_up}")
        if not 0 < self.gamma_max <= math.pi / 2:
            raise ValueError(f"gamma_max must lie in (0, pi/2], got {self.gamma_max}")


class DubinsPlaneAgent(DubinsCarAgent):
    """The car plus an altitude channel: state [x, y, z, heading, gamma, speed].

    x, y, heading and speed follow the car's steering and kinematics, with
    the goal's first two coordinates. Altitude integrates z' = v sin(gamma);
    gamma tracks the climb angle to the goal, clamped to +-gamma_max, or the
    fixed pitch-up value in SAFETY, which is the ground-collision-avoidance
    behaviour. Without a goal gamma is held, as the heading is.
    """

    model_name = "dubins_plane"
    params_type = DubinsPlaneParams
    state_dim = 6
    position_dim = 3

    def _gamma_target(self, mode, x, y, z, gamma, goal) -> float:
        if mode is Mode.SAFETY:
            return self.params.pitch_up
        if goal is None:
            return gamma
        horizontal = math.hypot(goal[0] - x, goal[1] - y)
        raw = math.atan2(goal[2] - z, horizontal) if horizontal > 0 else 0.0
        return min(max(raw, -self.params.gamma_max), self.params.gamma_max)

    def step(self, mode, state, dt, view) -> list[float]:
        dt = _check_dt(dt)
        x, y, z, heading, gamma, speed = state
        omega, v_target, goal = self._steering(mode, x, y, heading, speed, view)
        x_next, y_next, heading_next, v_next = self._planar_step(
            x, y, heading, speed, omega, v_target, dt
        )
        gamma_rate = self.params.k_gamma * wrap_angle(
            self._gamma_target(mode, x, y, z, gamma, goal) - gamma
        )
        z_next = z + speed * math.sin(gamma) * dt
        gamma_next = wrap_angle(gamma + gamma_rate * dt)
        return [x_next, y_next, z_next, heading_next, gamma_next, v_next]
