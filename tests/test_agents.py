"""Agent models: controller selection, Euler updates, bounds, determinism."""
import dataclasses
import math
from collections.abc import Mapping

import numpy as np
import pytest

from rtakit import (
    AccAgent,
    AccParams,
    AgentSpec,
    Ball,
    DubinsCarAgent,
    DubinsCarParams,
    DubinsPlaneAgent,
    DubinsPlaneParams,
    Mode,
    RelativeSetSpec,
    RtaBinding,
    ScenarioConfig,
    SimRta,
    View,
    build_scenario,
    config_from_dict,
    execute,
    forward_simulate,
)
from rtakit.agents import wrap_angle
from helpers import acc_euler_step, config_docs


def leader_view(p=5.0, v=1.0):
    return View({"leader": [p, v]}, {})


# -- ACC -----------------------------------------------------------------------

def test_acc_untrusted_bang_bang_step():
    # goal = 5 - 10 = -5, error = -5 < 0 -> a = -a_max = -1
    agent = AccAgent("ego", AccParams(a_max=1.0), leader_id="leader")
    got = agent.step(Mode.UNTRUSTED, [0.0, 1.0], 0.1, leader_view())
    want = acc_euler_step(0.0, 1.0, -1.0, 0.1, agent.params.v_max)
    assert got == (want[0], want[1])
    assert got == (0.1, 0.9)


def test_acc_safety_zero_error_coasts():
    agent = AccAgent("ego", leader_id="leader")
    d = agent.params.follow_distance
    state = [5.0 - d, 1.0]  # exactly at the goal [p_L - d, v_L]
    got = agent.step(Mode.SAFETY, state, 0.1, leader_view())
    assert got[0] == pytest.approx(state[0] + 1.0 * 0.1, abs=1e-15)
    assert got[1] == pytest.approx(1.0, abs=1e-15)


def test_acc_normal_constant_velocity():
    agent = AccAgent("ego")
    assert agent.step(Mode.NORMAL, [5.0, 1.0], 0.1, leader_view()) == (5.1, 1.0)


def test_acc_safety_is_fixed_point_of_relative_motion():
    params = AccParams()
    follower = AccAgent("ego", params, leader_id="leader")
    leader = AccAgent("leader", params)
    f_state, l_state = [5.0 - params.follow_distance, 1.0], [5.0, 1.0]
    for _ in range(20):
        view = View({"ego": f_state, "leader": l_state}, {})
        f_state = follower.step(Mode.SAFETY, f_state, 0.1, view)
        l_state = leader.step(Mode.NORMAL, l_state, 0.1, view)
        assert l_state[0] - f_state[0] == pytest.approx(params.follow_distance, abs=1e-12)


def test_acc_untrusted_command_is_full_throttle_off_goal():
    rng = np.random.default_rng(2)
    agent = AccAgent("ego", leader_id="leader")
    view = leader_view()
    for _ in range(100):
        state = [rng.uniform(-20, 20), rng.uniform(-5, 5)]
        a = agent.command(Mode.UNTRUSTED, state, view)
        err = (5.0 - agent.params.follow_distance) - state[0]
        if err != 0.0:
            assert abs(a) == agent.params.a_max
        else:
            assert a == 0.0


def test_acc_bounds_hold_after_any_step():
    rng = np.random.default_rng(4)
    agent = AccAgent("ego", leader_id="leader")
    view = leader_view()
    for _ in range(200):
        state = [rng.uniform(-50, 50), rng.uniform(-25, 25)]
        mode = rng.choice([Mode.SAFETY, Mode.UNTRUSTED, Mode.NORMAL])
        a = agent.command(mode, state, view)
        nxt = agent.step(mode, state, 0.1, view)
        assert abs(a) <= agent.params.a_max + 1e-12
        assert abs(nxt[1]) <= agent.params.v_max + 1e-12


def test_acc_missing_leader_raises():
    agent = AccAgent("ego", leader_id="ghost")
    with pytest.raises(ValueError, match="ghost"):
        agent.step(Mode.UNTRUSTED, [0.0, 0.0], 0.1, leader_view())


@pytest.mark.parametrize("agent, state", [
    (DubinsCarAgent("car", leader_id="ghost"), [0.0, 0.0, 0.0, 1.0]),
    (DubinsPlaneAgent("plane", leader_id="ghost"), [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
], ids=["car", "plane"])
def test_dubins_leader_missing_from_the_view_names_the_agent_and_the_leader(agent, state):
    view = View({agent.agent_id: state}, {})
    with pytest.raises(ValueError, match=f"agent '{agent.agent_id}': leader 'ghost' "
                                         f"missing from the view"):
        agent.step(Mode.UNTRUSTED, state, 0.1, view)


def test_acc_nonpositive_dt_raises():
    agent = AccAgent("ego")
    with pytest.raises(ValueError):
        agent.step(Mode.NORMAL, [0.0, 0.0], 0.0, leader_view())


def test_acc_params_validation():
    with pytest.raises(ValueError):
        AccParams(a_max=-1.0)
    with pytest.raises(ValueError):
        AccParams(collision_distance=12.0, follow_distance=10.0)


@pytest.mark.parametrize("params_type, name", [
    (AccParams, "k1"),
    (AccParams, "v_max"),
    (DubinsCarParams, "k_heading"),
    (DubinsCarParams, "k_speed"),
    (DubinsCarParams, "v_max"),
    (DubinsPlaneParams, "k_gamma"),
    (DubinsPlaneParams, "capture_radius"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_params_rejected_naming_the_field(params_type, name, value):
    with pytest.raises(ValueError, match=name):
        params_type(**{name: value})


@pytest.mark.parametrize("wiring", [
    {"waypoints": [[math.nan, 5.0]]},
    {"leader_id": "lead", "formation_offset": [0.0, math.inf]},
])
def test_car_nonfinite_wiring_rejected(wiring):
    with pytest.raises(ValueError, match="finite"):
        DubinsCarAgent("car", **wiring)


# -- Dubins car ------------------------------------------------------------------

def test_car_normal_straight_line():
    car = DubinsCarAgent("car")
    got = car.step(Mode.NORMAL, [0.0, 0.0, 0.0, 1.0], 0.1, View({"car": [0, 0, 0, 1]}, {}))
    assert got == (0.1, 0.0, 0.0, 1.0)


def test_car_normal_along_y():
    car = DubinsCarAgent("car")
    got = car.step(Mode.NORMAL, [0.0, 0.0, math.pi / 2, 1.0], 0.1,
                   View({"car": [0, 0, math.pi / 2, 1]}, {}))
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    assert got[1] == pytest.approx(0.1, abs=1e-12)
    assert got[2] == math.pi / 2
    assert got[3] == 1.0


def test_car_heading_tracks_goal_bearing():
    params = DubinsCarParams(k_heading=1.0)
    car = DubinsCarAgent("car", params, waypoints=[[1.0, 1.0]])
    got = car.step(Mode.UNTRUSTED, [0.0, 0.0, 0.0, 1.0], 0.1,
                   View({"car": [0, 0, 0, 1]}, {"car": 0}))
    assert got[2] == pytest.approx(1.0 * (math.pi / 4) * 0.1, abs=1e-12)


def test_car_zero_steer_conserves_speed_and_step_length():
    rng = np.random.default_rng(6)
    car = DubinsCarAgent("car")
    for _ in range(100):
        state = [rng.uniform(-5, 5), rng.uniform(-5, 5),
                 rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 3.0)]
        nxt = car.step(Mode.NORMAL, state, 0.1, View({"car": state}, {}))
        moved = math.hypot(nxt[0] - state[0], nxt[1] - state[1])
        assert nxt[3] == pytest.approx(state[3], abs=1e-12)
        assert moved == pytest.approx(state[3] * 0.1, abs=1e-12)


def test_car_speed_stays_in_bounds():
    params = DubinsCarParams(v_max=2.0, v_cruise=2.0, v_safe=0.0, k_speed=10.0)
    car = DubinsCarAgent("car", params, waypoints=[[100.0, 0.0]])
    view = View({"car": [0, 0, 0, 1]}, {"car": 0})
    state = [0.0, 0.0, 0.0, 1.9]
    for mode in (Mode.UNTRUSTED, Mode.SAFETY):
        nxt = car.step(mode, state, 0.5, view)
        assert 0.0 <= nxt[3] <= 2.0


def test_car_waypoint_advances_after_capture():
    params = DubinsCarParams(capture_radius=1.0, nominal="track")
    car = DubinsCarAgent("car", params, waypoints=[[1.0, 0.0], [5.0, 0.0]])
    far_state = [-3.0, 0.0, 0.0, 1.0]
    far = car.remember(car.initial_memory, far_state)
    assert car.goal_position(View({"car": far_state}, {"car": far})) == [1.0, 0.0]
    captured_state = [0.5, 0.0, 0.0, 1.0]
    captured = car.remember(far, captured_state)
    assert car.goal_position(View({"car": captured_state}, {"car": captured})) == [5.0, 0.0]
    # the last waypoint is never passed, and capture is never undone
    assert car.remember(captured, [5.0, 0.0, 0.0, 1.0]) == captured
    assert car.remember(captured, far_state) == captured


def test_car_with_a_leader_and_no_offset_steers_at_the_leader():
    """No formation_offset: the goal is the leader's position itself, and
    the car steps as a car whose one waypoint is that position."""
    lead = [3.0, 4.0, 0.5, 1.0]
    car = DubinsCarAgent("car", leader_id="lead")
    view = View({"car": [0.0, 0.0, 0.0, 1.0], "lead": lead}, {})
    assert car.goal_position(view) == [3.0, 4.0]
    twin = DubinsCarAgent("car", waypoints=[[3.0, 4.0]])
    twin_view = View({"car": [0.0, 0.0, 0.0, 1.0]}, {"car": 0})
    for mode in (Mode.UNTRUSTED, Mode.SAFETY):
        assert car.step(mode, [0.0, 0.0, 0.0, 1.0], 0.1, view) == \
            twin.step(mode, [0.0, 0.0, 0.0, 1.0], 0.1, twin_view)


def test_car_safety_without_goal_holds_heading_and_slows():
    car = DubinsCarAgent("car", DubinsCarParams(v_safe=0.5))
    state = [1.0, 2.0, 0.3, 2.0]
    view = View({"car": state}, {})
    for _ in range(20):
        nxt = car.step(Mode.SAFETY, state, 0.1, view)
        assert nxt[2] == pytest.approx(0.3, abs=1e-12)
        assert 0.5 < nxt[3] < state[3]
        state = nxt


@pytest.mark.parametrize("model", [DubinsCarAgent, DubinsPlaneAgent])
def test_untrusted_without_goal_raises(model):
    agent = model("a")
    state = [0.0] * model.state_dim
    with pytest.raises(ValueError, match="no goal provider"):
        agent.step(Mode.UNTRUSTED, state, 0.1, View({"a": state}, {}))


# -- Dubins plane ------------------------------------------------------------------

def plane_view(state, agent_id="plane", memory=None):
    return View({agent_id: list(state)}, {agent_id: memory})


def test_plane_level_flight_keeps_altitude():
    plane = DubinsPlaneAgent("plane")
    state = [0.0, 0.0, 10.0, 0.0, 0.0, 2.0]
    got = plane.step(Mode.NORMAL, state, 0.1, plane_view(state))
    assert got[2] == 10.0


def test_plane_climb_rate():
    plane = DubinsPlaneAgent("plane")
    state = [0.0, 0.0, 10.0, 0.0, math.pi / 6, 2.0]
    got = plane.step(Mode.NORMAL, state, 0.1, plane_view(state))
    assert got[2] - 10.0 == pytest.approx(2.0 * math.sin(math.pi / 6) * 0.1, abs=1e-12)


def test_plane_safety_pitches_up_monotonically():
    plane = DubinsPlaneAgent("plane", waypoints=[[100.0, 0.0, 0.0]])
    state = [0.0, 0.0, 10.0, 0.0, -0.1, 2.0]
    view = plane_view(state, memory=0)
    gammas = [state[4]]
    for _ in range(10):
        state = plane.step(Mode.SAFETY, state, 0.1, view)
        gammas.append(state[4])
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] <= plane.params.pitch_up + 1e-12


def test_plane_safety_needs_no_goal():
    plane = DubinsPlaneAgent("plane")
    state = [0.0, 0.0, 10.0, 0.0, -0.1, 2.0]
    got = plane.step(Mode.SAFETY, state, 0.1, plane_view(state))
    assert got[4] > state[4]


@pytest.mark.parametrize("nominal", ["coast", "track"])
def test_plane_horizontal_step_is_the_car_step(nominal):
    # the plane is the car plus an altitude channel: x, y, heading and speed
    # follow the car's law on the goal's first two coordinates
    rng = np.random.default_rng(31)
    plane_params = DubinsPlaneParams(nominal=nominal)
    car_params = DubinsCarParams(**{
        f.name: getattr(plane_params, f.name) for f in dataclasses.fields(DubinsCarParams)
    })
    for _ in range(100):
        goal = [float(c) for c in rng.uniform(-20, 20, size=3)]
        plane = DubinsPlaneAgent("a", plane_params, waypoints=[goal])
        car = DubinsCarAgent("a", car_params, waypoints=[goal[:2]])
        x, y, heading = rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-4, 4)
        speed = rng.uniform(0.0, plane_params.v_max)
        z, gamma = rng.uniform(-5, 5), rng.uniform(-1, 1)
        p_state = [x, y, z, heading, gamma, speed]
        c_state = [x, y, heading, speed]
        for mode in Mode:
            p_next = plane.step(mode, p_state, 0.1, plane_view(p_state, "a", 0))
            c_next = car.step(mode, c_state, 0.1, View({"a": c_state}, {"a": 0}))
            assert (p_next[0], p_next[1], p_next[3], p_next[5]) == c_next


class FixedGoalCar(DubinsCarAgent):
    def goal_position(self, view):
        return [6.0, 3.0]


class FixedGoalPlane(DubinsPlaneAgent):
    def goal_position(self, view):
        return [6.0, 3.0, 12.0]


@pytest.mark.parametrize("model, base, init", [
    (FixedGoalCar, DubinsCarAgent, [0.0, 0.0, math.pi, 1.0]),
    (FixedGoalPlane, DubinsPlaneAgent, [0.0, 0.0, 10.0, math.pi, -0.2, 1.0]),
], ids=["car", "plane"])
def test_an_overridden_goal_position_is_the_goal_steered_to(model, base, init):
    """A subclass's goal_position is what execution and a decision's
    prediction steer to: both equal a built-in agent whose one waypoint is
    that goal, and the agent closes on it."""
    def run(agent):
        config = ScenarioConfig(agents=[AgentSpec(agent, list(init), Mode.UNTRUSTED)],
                                dt=0.1, horizon=4.0, workspace_dim=model.position_dim)
        scenario = build_scenario(config)
        trace = execute(scenario)
        return trace, forward_simulate(trace.prefix(10), scenario, 2.0, "a")

    custom = model("a")
    goal = custom.goal_position(None)
    builtin = base("a", waypoints=[goal])
    (trace, pred), (twin, twin_pred) = run(custom), run(builtin)
    assert trace.rows == twin.rows
    assert pred.rows == twin_pred.rows
    dim = model.position_dim
    for rows in (trace.rows["a"], pred.rows["a"]):
        assert math.dist(rows[-1][:dim], goal) < math.dist(rows[0][:dim], goal) - 1.0


POST = 4.0  # where the built-in twin's standing leader puts the goal, behind it


class PostGoalAcc(AccAgent):
    """No leader: the goal is standing at POST, from goal_state."""

    def goal_state(self, view):
        return [POST, 0.0]


class HalfCommandAcc(AccAgent):
    """Half the built-in command: AccParams(k1=0.5, k2=1.0, a_max=8.0) to
    the bit, as halving a float is exact."""

    def command(self, mode, state, view):
        return 0.5 * super().command(mode, state, view)


@pytest.mark.parametrize("custom, builtin", [
    (lambda: PostGoalAcc("ego"), lambda: AccAgent("ego", leader_id="post")),
    (lambda: HalfCommandAcc("ego", leader_id="post"),
     lambda: AccAgent("ego", AccParams(k1=0.5, k2=1.0, a_max=8.0), leader_id="post")),
], ids=["goal_state", "command"])
def test_an_overridden_acc_goal_state_or_command_is_what_the_agent_steers_by(custom, builtin):
    """An AccAgent subclass's goal_state or command is what execution and a
    decision's prediction steer by: every executed and predicted row and
    every decided mode equal those of the equivalent built-in agent, which
    follows a leader that stands still (NORMAL, at rest) follow_distance
    ahead of POST. SimRta switches the ego between both controllers."""
    def run(ego):
        post = AccAgent("post")
        config = ScenarioConfig(
            agents=[AgentSpec(ego, [-6.0, 2.0], Mode.UNTRUSTED, RtaBinding(SimRta(horizon=1.0))),
                    AgentSpec(post, [POST + post.params.follow_distance, 0.0], Mode.NORMAL)],
            unsafe_sets=[RelativeSetSpec("wall", Ball([0.0], 1.0), [-5.0], "post")],
            dt=0.1, horizon=4.0, workspace_dim=1)
        scenario = build_scenario(config)
        trace = execute(scenario)
        return trace, [forward_simulate(trace.prefix(k), scenario, 1.0, "ego")
                       for k in range(0, len(trace.times), 5)]

    (trace, preds), (twin, twin_preds) = run(custom()), run(builtin())
    assert trace.rows == twin.rows
    assert trace.modes == twin.modes
    assert [p.rows for p in preds] == [p.rows for p in twin_preds]
    assert set(trace.modes["ego"]) == {Mode.SAFETY, Mode.UNTRUSTED}
    assert abs(trace.rows["ego"][-1][0] - POST) < abs(trace.rows["ego"][0][0] - POST) - 5.0


# -- shared properties ---------------------------------------------------------

class NumpyGoalAcc(AccAgent):
    def goal_state(self, view):
        return np.array([POST, 0.0])


class NumpyCommandAcc(AccAgent):
    def command(self, mode, state, view):
        return np.float64(super().command(mode, state, view))


class NumpyGoalCar(DubinsCarAgent):
    def goal_position(self, view):
        return np.array([6.0, 3.0])


class NumpyGoalPlane(DubinsPlaneAgent):
    def goal_position(self, view):
        return np.array([6.0, 3.0, 12.0])


INT_ACC = dict(k1=1, k2=2, a_max=16, v_max=20, follow_distance=10, collision_distance=7)
INT_CAR = dict(k_heading=2, k_speed=1, v_max=3, v_cruise=2, v_safe=0, capture_radius=1)
INT_PLANE = dict(INT_CAR, k_gamma=1, pitch_up=1, gamma_max=1, v_safe=1)

# (agent, whether it has a goal, its leader's state, states to step from):
# states at and beyond the speed clamps, at the goal, at rest and at -pi.
STEPPING = [
    *[(agent, goal, (5.0, 1.0),
       [(0.0, 1.0), (-5.0, 1.0), (-100.0, 20.0), (100.0, -20.0), (0.0, 25.0)])
      for agent, goal in [
          (AccAgent("a", leader_id="leader"), True),
          (AccAgent("a", AccParams(**INT_ACC), leader_id="leader"), True),
          (AccAgent("a", AccParams(**INT_ACC)), False),
          (NumpyGoalAcc("a", AccParams(**INT_ACC)), True),
          (NumpyCommandAcc("a", AccParams(**INT_ACC), leader_id="leader"), True),
      ]],
    *[(agent, goal, (4.0, -2.0, 1.0, 2.0),
       [(0.0, 0.0, 0.0, 1.0), (1.0, 2.0, -math.pi, 10.0), (0.0, 0.0, math.pi, 0.0),
        (6.0, 3.0, 0.0, 3.0)])
      for agent, goal in [
          (DubinsCarAgent("a"), False),
          (DubinsCarAgent("a", DubinsCarParams(**INT_CAR)), False),
          (DubinsCarAgent("a", DubinsCarParams(**INT_CAR, nominal="track"),
                          waypoints=[[6, 3]]), True),
          (DubinsCarAgent("a", DubinsCarParams(**INT_CAR), leader_id="leader",
                          formation_offset=[-1, 0]), True),
          (NumpyGoalCar("a", DubinsCarParams(**INT_CAR, nominal="track")), True),
      ]],
    *[(agent, goal, (4.0, -2.0, 8.0, 0.5, 0.1, 2.0),
       [(0.0, 0.0, 10.0, 0.0, 0.0, 1.0), (1.0, 2.0, -5.0, -math.pi, -math.pi, 10.0),
        (6.0, 3.0, 12.0, 0.0, 1.5, 0.0), (0.0, 0.0, 100.0, 1.0, -1.5, 2.0)])
      for agent, goal in [
          (DubinsPlaneAgent("a"), False),
          (DubinsPlaneAgent("a", DubinsPlaneParams(**INT_PLANE)), False),
          (DubinsPlaneAgent("a", DubinsPlaneParams(**INT_PLANE, nominal="track"),
                            waypoints=[[6, 3, 12]]), True),
          (DubinsPlaneAgent("a", DubinsPlaneParams(**INT_PLANE), leader_id="leader"), True),
          (NumpyGoalPlane("a", DubinsPlaneParams(**INT_PLANE, nominal="track")), True),
      ]],
]


@pytest.mark.parametrize("agent, has_goal, leader, states", STEPPING,
                         ids=[f"{type(a).__name__}-{k}" for k, (a, *_) in enumerate(STEPPING)])
def test_built_in_steps_return_a_tuple_of_python_floats(agent, has_goal, leader, states):
    """Every built-in step, in every mode it can run, returns a tuple of
    Python floats, which `advance` keeps as the row as it is: with integer
    params, at the speed clamps, and with an overridden goal or command
    that gives NumPy numbers."""
    runs = 0
    for state in states:
        view = View({"a": state, "leader": leader}, {"a": 0})
        for mode in Mode:
            if mode is Mode.UNTRUSTED and not has_goal:
                continue
            if mode is Mode.SAFETY and not has_goal and isinstance(agent, AccAgent):
                continue
            for dt in (0.1, 1.0):
                got = agent.step(mode, state, dt, view)
                assert type(got) is tuple and len(got) == agent.state_dim
                assert [type(v) for v in got] == [float] * agent.state_dim, (mode, state, dt)
                runs += 1
    assert runs >= 2 * len(states) * (3 if has_goal else 1)


@pytest.mark.parametrize("params_type, ints", [
    (AccParams, INT_ACC), (DubinsCarParams, INT_CAR), (DubinsPlaneParams, INT_PLANE),
])
def test_params_store_every_number_as_a_float(params_type, ints):
    params = params_type(**ints)
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        assert type(value) is (str if f.name == "nominal" else float), f.name
    assert {name: getattr(params, name) for name in ints} == ints

def test_steps_are_deterministic():
    view = leader_view()
    acc = AccAgent("ego", leader_id="leader")
    assert acc.step(Mode.UNTRUSTED, [0.0, 1.0], 0.1, view) == \
        acc.step(Mode.UNTRUSTED, [0.0, 1.0], 0.1, view)
    car = DubinsCarAgent("car", waypoints=[[3.0, 3.0]])
    cview = View({"car": [0, 0, 0, 1]}, {"car": 0})
    assert car.step(Mode.UNTRUSTED, [0, 0, 0, 1], 0.1, cview) == \
        car.step(Mode.UNTRUSTED, [0, 0, 0, 1], 0.1, cview)


def test_wrap_angle_range():
    for a in np.linspace(-12.0, 12.0, 400):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same direction on the circle
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


def test_step_angles_wrap_as_wrap_angle_does():
    # -pi maps to pi, the closed end of (-pi, pi]; heading and gamma alike
    car = DubinsCarAgent("car")
    state = [0.0, 0.0, -math.pi, 1.0]
    assert car.step(Mode.NORMAL, state, 0.1, View({"car": state}, {}))[2] == math.pi
    plane = DubinsPlaneAgent("plane")
    state = [0.0, 0.0, 10.0, -math.pi, -math.pi, 1.0]
    got = plane.step(Mode.NORMAL, state, 0.1, plane_view(state))
    assert got[3] == got[4] == math.pi
    rng = np.random.default_rng(8)
    car = DubinsCarAgent("car", waypoints=[[0.0, 0.0]])
    for _ in range(200):
        state = [*rng.uniform(-5, 5, size=2), rng.uniform(-12, 12), 1.0]
        bearing = math.atan2(-state[1], -state[0])  # to the waypoint at the origin
        omega = car.params.k_heading * wrap_angle(bearing - state[2])
        got = car.step(Mode.UNTRUSTED, state, 0.1, View({"car": state}, {"car": 0}))
        assert got[2] == wrap_angle(state[2] + omega * 0.1)


# -- what a step reads ---------------------------------------------------------

class ReadLog(Mapping):
    """A read-only mapping that adds every key read from it to `reads`;
    iterating it reads every key."""

    def __init__(self, data, reads):
        self._data, self.reads = data, reads

    def __getitem__(self, key):
        self.reads.add(key)
        return self._data[key]

    def __iter__(self):
        self.reads.update(self._data)
        return iter(self._data)

    def __len__(self):
        return len(self._data)


@pytest.mark.parametrize("doc", config_docs())
def test_built_in_agents_read_their_leader_and_own_memory_only(doc):
    """Executed and predicted steps alike read no agent's state but the
    leader's and no memory but the agent's own."""
    scenario = build_scenario(config_from_dict(doc))
    reads = {}
    for spec in scenario.config.agents:
        model = spec.model
        states, memory = reads[model.agent_id] = set(), set()

        def step(mode, state, dt, view, real=model.step, states=states, memory=memory):
            return real(mode, state, dt, View(ReadLog(view.states, states),
                                              ReadLog(view.memory, memory)))

        model.step = step
    execute(scenario)
    assert any(states or memory for states, memory in reads.values())
    for aid, (states, memory) in reads.items():
        assert states <= {scenario.agents_by_id[aid].model.leader_id}, aid
        assert memory <= {aid}, aid
