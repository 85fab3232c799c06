"""RTA bindings, forward simulation, and the two reference switching logics."""
import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rtakit import rta
from rtakit import (
    AccAgent,
    AccParams,
    AgentModel,
    AgentSpec,
    Ball,
    ExecutionTrace,
    Mode,
    ReachRta,
    RelativeSetSpec,
    RtaBinding,
    RtaError,
    RtaLogic,
    ScenarioConfig,
    SimRta,
    StaticSetSpec,
    box_intersects,
    build_scenario,
    config_from_dict,
    execute,
    forward_simulate,
    update_relative,
)
from rtakit.rta import boxes_from_prediction
from helpers import acc_scenario_config, config_docs, random_acc_config, sim_rta_binding

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class ConstantLogic(RtaLogic):
    def __init__(self, mode, **kw):
        super().__init__(**kw)
        self.mode = mode

    def decide(self, trace):
        return self.mode


class FailingLogic(RtaLogic):
    def decide(self, trace):
        raise RuntimeError("logic blew up")


def built_acc(rta=None, **kw):
    return build_scenario(acc_scenario_config(rta=rta, **kw))


class GoalAcc(AccAgent):
    """A cruise agent steering to `goal(view)`."""

    def __init__(self, agent_id, params, goal):
        super().__init__(agent_id, params)
        self.goal = goal

    def goal_state(self, view):
        return list(self.goal(view))


def stationary_config(ego_pos, ball_center, radius, goal=None, horizon=2.0):
    """Ego with zero velocity holding its own position as the goal, plus a
    static ball: the forward prediction is a fixed point."""
    params = AccParams()
    goal = goal if goal is not None else [ego_pos, 0.0]
    ego = GoalAcc("ego", params, lambda view: goal)
    return ScenarioConfig(
        agents=[AgentSpec(ego, [ego_pos, 0.0], Mode.UNTRUSTED, None)],
        unsafe_sets=[StaticSetSpec("ball", Ball([ball_center], radius))],
        dt=0.1,
        horizon=horizon,
        workspace_dim=1,
    )


# -- RtaBinding.switch -------------------------------------------------------

def test_switch_returns_mode_and_records_one_sample():
    scenario = built_acc()
    trace = scenario.initial_trace()
    binding = RtaBinding(ConstantLogic(Mode.SAFETY))
    binding.logic.bind(scenario, "follower")
    assert binding.switch(trace) is Mode.SAFETY
    assert len(binding.collector.durations) == 1


def test_switch_twice_same_trace_two_samples():
    scenario = built_acc()
    trace = scenario.initial_trace()
    binding = sim_rta_binding()
    binding.logic.bind(scenario, "follower")
    first = binding.switch(trace)
    second = binding.switch(trace)
    assert first is second
    assert len(binding.collector.durations) == 2


def test_switch_same_decision_with_collection_on_and_off():
    # The timed, collecting switch decides exactly as the bare logic does.
    for k in range(0, 40, 7):
        scenario = built_acc(rta=sim_rta_binding())
        trace = execute(scenario)
        prefix = trace.prefix(k)
        binding = RtaBinding(SimRta(horizon=1.0))
        bare = SimRta(horizon=1.0)
        binding.logic.bind(scenario, "follower")
        bare.bind(scenario, "follower")
        assert binding.switch(prefix) is bare.decide(prefix)


def test_recorded_durations_nonnegative_finite():
    scenario = built_acc(rta=sim_rta_binding())
    execute(scenario)
    durations = scenario.agents_by_id["follower"].rta.collector.durations
    assert durations
    assert all(d >= 0.0 and math.isfinite(d) for d in durations)


def test_logic_failure_carries_ego_id():
    scenario = built_acc()
    binding = RtaBinding(FailingLogic())
    binding.logic.bind(scenario, "follower")
    with pytest.raises(RtaError, match="follower"):
        binding.switch(scenario.initial_trace())


class NonfiniteAcc(GoalAcc):
    """A cruise agent whose position turns NaN past 5."""

    def step(self, mode, state, dt, view):
        p, v = super().step(mode, state, dt, view)
        return [math.nan if p > 5.0 else p, v]


def test_nonfinite_prediction_failure_reports_the_time():
    # Used to read "RTA logic for agent 'ego' failed at t=0.3: point must be
    # finite", naming neither the agent whose prediction went NaN nor the
    # predicted time. The decision at t=0.3 is the first whose 0.5 s
    # prediction passes position 5, at t=0.8.
    ego = NonfiniteAcc("ego", AccParams(), lambda view: [100.0, 0.0])
    config = ScenarioConfig(
        agents=[AgentSpec(ego, [0.0, 1.0], Mode.UNTRUSTED, RtaBinding(SimRta(horizon=0.5)))],
        unsafe_sets=[StaticSetSpec("ball", Ball([50.0], 1.0))],
        dt=0.1, horizon=2.0, workspace_dim=1,
    )
    with pytest.raises(RtaError, match=r"^RTA logic for agent 'ego' failed at t=0\.3: "
                                       r"predicted position of agent 'ego' at t=0\.8 "
                                       r"is not finite: \[nan\]$"):
        execute(build_scenario(config))


@pytest.mark.parametrize("logic", [SimRta, ReachRta])
def test_nonfinite_anchor_prediction_names_the_anchor(logic):
    # Only the anchor's predicted position goes NaN; the ego's stays finite.
    # This used to read "... failed at t=0.3: anchor position must be finite".
    lead = NonfiniteAcc("lead", AccParams(), lambda view: [100.0, 0.0])
    ego = GoalAcc("ego", AccParams(), lambda view: [-100.0, 0.0])
    config = ScenarioConfig(
        agents=[AgentSpec(ego, [0.0, 0.0], Mode.UNTRUSTED, RtaBinding(logic(horizon=0.5))),
                AgentSpec(lead, [0.0, 1.0], Mode.UNTRUSTED)],
        unsafe_sets=[RelativeSetSpec("lead_ball", Ball([0.0], 1.0), [0.0], "lead")],
        dt=0.1, horizon=2.0, workspace_dim=1,
    )
    with pytest.raises(RtaError, match=r"^RTA logic for agent 'ego' failed at t=0\.3: "
                                       r"predicted position of agent 'lead' at t=0\.8 "
                                       r"is not finite: \[nan\]$"):
        execute(build_scenario(config))


# -- forward_simulate ----------------------------------------------------------

def test_forward_minimal_horizon_is_one_step():
    scenario = built_acc()
    pred = forward_simulate(scenario.initial_trace(), scenario, scenario.dt, ego_id="follower")
    assert len(pred.times) == 2
    assert pred.timestamps() == [0.0, 0.1]


def test_forward_prediction_approaches_leader():
    # leader far ahead so the bang-bang goal sits in front of the ego
    scenario = built_acc(leader_init=(15.0, 1.0))
    pred = forward_simulate(scenario.initial_trace(), scenario, 0.5, ego_id="follower")
    # independent Euler rollout of the same five steps
    params = scenario.agents_by_id["follower"].model.params
    p, v = 0.0, 1.0
    lp, lv = 15.0, 1.0
    want = [p]
    for _ in range(5):
        goal = lp - params.follow_distance
        a = math.copysign(params.a_max, goal - p) if goal != p else 0.0
        p, v = p + v * 0.1, v + a * 0.1
        if abs(v) >= params.v_max:
            v = math.copysign(params.v_max, v)
        lp = lp + lv * 0.1
        want.append(p)
    got = [pred.rows["follower"][k][0] for k in range(len(pred.times))]
    assert got == pytest.approx(want, abs=0.0)
    assert all(b > a for a, b in zip(got, got[1:]))


def test_forward_prediction_of_static_scenario_is_fixed_point():
    scenario = build_scenario(stationary_config(0.0, 50.0, 1.0))
    pred = forward_simulate(scenario.initial_trace(), scenario, 2.0, ego_id="ego")
    for k in range(len(pred.times)):
        assert pred.rows["ego"][k] == (0.0, 0.0)


def test_forward_does_not_touch_input_trace():
    scenario = built_acc()
    trace = execute(scenario)
    doc = trace.to_json()
    forward_simulate(trace, scenario, 1.0, ego_id="follower")
    assert trace.to_json() == doc


def test_forward_propagates_relative_sets():
    scenario = built_acc()
    pred = forward_simulate(scenario.initial_trace(), scenario, 1.0, ego_id="follower")
    assert not pred.unsafe
    spec = scenario.anchored["unsafe1"]
    for k in range(len(pred.times)):
        leader = pred.rows["leader"][k][0]
        assert update_relative(spec, [leader]).center[0] == leader + 5.0


def test_forward_rejects_short_horizon_and_unknown_ego():
    scenario = built_acc()
    trace = scenario.initial_trace()
    with pytest.raises(ValueError):
        forward_simulate(trace, scenario, 0.01, ego_id="follower")
    with pytest.raises(ValueError, match="ghost"):
        forward_simulate(trace, scenario, 1.0, ego_id="ghost")


class Coaster(AgentModel):
    """Coasts on its first two components and ignores any others."""

    model_name = "coaster"
    state_dim = 2
    position_dim = 1

    def step(self, mode, state, dt, view):
        return (state[0] + state[1] * dt, state[1])


@pytest.mark.parametrize("logic", [SimRta, ReachRta])
def test_a_decision_from_a_row_of_another_width_names_the_agent(logic):
    """A hand-made trace whose current row is wider than the model's state:
    the predicted positions are not read off misaligned rows; the decision
    fails naming the agent and both widths."""
    binding = RtaBinding(logic(horizon=0.5))
    config = ScenarioConfig(agents=[AgentSpec(Coaster("ego"), [0.0, 1.0], Mode.UNTRUSTED,
                                              binding)],
                            unsafe_sets=[StaticSetSpec("wall", Ball([10.0], 1.0))],
                            dt=0.1, horizon=1.0, workspace_dim=1)
    scenario = build_scenario(config)
    trace = ExecutionTrace()
    trace.times.append(0.0)
    trace.rows["ego"], trace.modes["ego"] = [(0.0, 1.0, 5.0)], []
    with pytest.raises(RtaError, match="agent 'ego': the current state has 3 components, "
                                       "its predicted states 2"):
        binding.switch(trace)
    assert binding.switch(scenario.initial_trace()) is Mode.UNTRUSTED


# -- SimRta ---------------------------------------------------------------------

def test_sim_rta_far_ego_stays_untrusted():
    scenario = build_scenario(stationary_config(0.0, 50.0, 1.0))
    logic = SimRta(horizon=2.0)
    logic.bind(scenario, "ego")
    assert logic.decide(scenario.initial_trace()) is Mode.UNTRUSTED


def test_sim_rta_decides_safety_when_closing_fast():
    # ego already moving at 12 toward the ball edge at 8: the one-second
    # prediction crosses center - radius
    config = stationary_config(0.0, 12.0, 4.0, goal=[20.0, 0.0])
    config.agents[0].init_state = [0.0, 12.0]
    scenario = build_scenario(config)
    logic = SimRta(horizon=1.0)
    logic.bind(scenario, "ego")
    assert logic.decide(scenario.initial_trace()) is Mode.SAFETY


def test_sim_rta_flip_prevents_entry():
    scenario = build_scenario(acc_scenario_config(rta=sim_rta_binding(horizon=1.0)))
    trace = execute(scenario)
    assert Mode.SAFETY in trace.modes["follower"]
    dists = [
        trace.unsafe_def("unsafe1", k).distance([trace.rows["follower"][k][0]])
        for k in range(len(trace.times))
    ]
    assert min(dists) > 0.0


def test_sim_rta_inside_set_decides_safety_immediately():
    scenario = build_scenario(stationary_config(12.0, 12.0, 4.0))
    logic = SimRta(horizon=1.0)
    logic.bind(scenario, "ego")
    assert logic.decide(scenario.initial_trace()) is Mode.SAFETY


# -- reach boxes ------------------------------------------------------------------

def reach_boxes(scenario, trace, horizon, bloat_rate, ego_id):
    pred = forward_simulate(trace, scenario, horizon, ego_id=ego_id)
    return pred, boxes_from_prediction(pred, ego_id, scenario.workspace_dim, bloat_rate,
                                       scenario.dt)


def test_reach_boxes_zero_bloat_degenerate():
    scenario = built_acc()
    pred, (lower, upper) = reach_boxes(scenario, scenario.initial_trace(), 1.0, 0.0, "follower")
    assert lower.shape == upper.shape == (len(pred.times), 1)
    for k in range(len(pred.times)):
        pos = pred.rows["follower"][k][0]
        assert lower[k].tolist() == upper[k].tolist() == [pos]


def test_reach_boxes_linear_schedule_arithmetic():
    # ego whose goal is wherever it currently is: zero command, so the
    # nominal prediction coasts at speed 1 through positions 0.1*k
    config = stationary_config(0.0, 50.0, 1.0)
    config.agents[0].model.goal = lambda view: view.states["ego"]
    config.agents[0].init_state = [0.0, 1.0]
    scenario = build_scenario(config)
    # rate 1 at dt = 0.1: half-width 0.1 * k
    _, (lower, upper) = reach_boxes(scenario, scenario.initial_trace(), 0.2, 1.0, "ego")
    assert (lower[1].tolist(), upper[1].tolist()) == ([0.0], [pytest.approx(0.2)])
    assert (lower[2].tolist(), upper[2].tolist()) == ([pytest.approx(0.0)], [pytest.approx(0.4)])


def test_reach_boxes_contain_nominal_states():
    rng = np.random.default_rng(8)
    for _ in range(10):
        scenario = build_scenario(random_acc_config(rng))
        trace = scenario.initial_trace()
        pred, (lower, upper) = reach_boxes(scenario, trace, 1.0, 0.5, "follower")
        for k in range(len(pred.times)):
            assert lower[k][0] <= pred.rows["follower"][k][0] <= upper[k][0]


@pytest.mark.parametrize("make", [
    lambda: RtaLogic(horizon=math.nan),
    lambda: RtaLogic(horizon=math.inf),
    lambda: SimRta(horizon=math.nan),
], ids=["nan", "inf", "sim-nan"])
def test_logic_rejects_nonfinite_horizon(make):
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        make()


def test_reach_rta_rejects_infinite_bloat_rate():
    # an infinite rate gives a NaN box corner inf * 0 at k = 0
    with pytest.raises(ValueError, match="bloat rate must be finite"):
        ReachRta(horizon=1.0, bloat_rate=math.inf)


def test_reach_boxes_reject_decreasing_schedule():
    # a negative rate is the only way to a shrinking box schedule
    for rate in (-0.1, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            ReachRta(horizon=1.0, bloat_rate=rate)


# -- ReachRta ----------------------------------------------------------------------

def test_reach_rta_zero_bloat_matches_sim_rta():
    rng = np.random.default_rng(13)
    for _ in range(10):
        scenario = build_scenario(random_acc_config(rng, rta=sim_rta_binding()))
        trace = execute(scenario)
        sim = SimRta(horizon=1.0)
        reach = ReachRta(horizon=1.0, bloat_rate=0.0)
        sim.bind(scenario, "follower")
        reach.bind(scenario, "follower")
        for k in range(len(trace.times) - 1):
            prefix = trace.prefix(k)
            assert sim.decide(prefix) is reach.decide(prefix)


def test_reach_rta_conservative_on_near_miss():
    # nominal trajectory holds 0.05 outside the ball; at rate 0.1 the box
    # half-width reaches 0.05 at t = 0.5 s and 0.1 at the 1 s horizon
    config = stationary_config(0.0, 7.05, 7.0)
    scenario = build_scenario(config)
    trace = scenario.initial_trace()
    sim = SimRta(horizon=1.0)
    reach = ReachRta(horizon=1.0, bloat_rate=0.1)
    sim.bind(scenario, "ego")
    reach.bind(scenario, "ego")
    assert sim.decide(trace) is Mode.UNTRUSTED
    assert reach.decide(trace) is Mode.SAFETY


def test_reach_rta_far_ego_untrusted_for_small_bloat():
    scenario = build_scenario(stationary_config(0.0, 50.0, 1.0))
    reach = ReachRta(horizon=2.0, bloat_rate=0.5)
    reach.bind(scenario, "ego")
    assert reach.decide(scenario.initial_trace()) is Mode.UNTRUSTED


def test_reach_rta_safety_superset_of_sim_rta():
    rng = np.random.default_rng(21)
    for _ in range(10):
        scenario = build_scenario(random_acc_config(rng, rta=sim_rta_binding()))
        trace = execute(scenario)
        sim = SimRta(horizon=1.0)
        reach = ReachRta(horizon=1.0, bloat_rate=0.5)
        sim.bind(scenario, "follower")
        reach.bind(scenario, "follower")
        for k in range(len(trace.times) - 1):
            prefix = trace.prefix(k)
            if sim.decide(prefix) is Mode.SAFETY:
                assert reach.decide(prefix) is Mode.SAFETY


# -- decisions against a per-step reference ------------------------------------------

def per_step_reference(logic, pred):
    """The decision as a loop over sets and predicted steps, one point or box
    at a time: a static set from `scenario.static_sets`, an anchored one
    resolved alone at its anchor's predicted state, and none anchored to the
    ego."""
    scenario = logic.scenario
    model = scenario.agents_by_id[logic.ego_id].model
    reach = isinstance(logic, ReachRta)
    if reach:
        lower, upper = boxes_from_prediction(pred, logic.ego_id, scenario.workspace_dim,
                                             logic.bloat_rate, scenario.dt)
    for spec in scenario.config.unsafe_sets:
        set_id = spec.set_id
        if isinstance(spec, RelativeSetSpec) and spec.anchor_id == logic.ego_id:
            continue
        for k in range(len(pred.times)):
            if set_id in scenario.static_sets:
                set_def = scenario.static_sets[set_id]
            else:
                anchor = pred.rows[spec.anchor_id][k][:scenario.workspace_dim]
                set_def = update_relative(spec, anchor)
            if reach:
                hit = box_intersects(set_def, lower[k], upper[k])
            else:
                hit = set_def.contains(pred.rows[logic.ego_id][k][:model.position_dim])
            if hit:
                return Mode.SAFETY
    return Mode.UNTRUSTED


def dubins_with_leader_set(kind, definition, offset):
    """configs/dubins.json with `leader_ball` swapped for another kind of set,
    still anchored to the leader."""
    doc = json.loads((CONFIGS / "dubins.json").read_text())
    (leader_set,) = [s for s in doc["unsafe_sets"] if s["id"] == "leader_ball"]
    leader_set.update(type=kind, definition=definition, offset=offset)
    return doc


# Sets anchored to the dubins leader, one per kind the shipped configs lack,
# each reaching ego1 on some decisions: the point sits at ego1's formation
# slot, which only ReachRta's boxes can touch. The hexagon's normals are
# oblique, so moving it rounds.
LEADER_SETS = {
    "point": ([0.0, 0.0], [-2.5, 0.0]),
    "hyperrectangle": ([[-2.2, -1.0], [2.2, 1.0]], [0.0, 0.0]),
    "polytope": ([[[0.6, 0.8], [-0.6, 0.8], [-1.0, 0.0], [-0.6, -0.8], [0.6, -0.8], [1.0, 0.0]],
                  [2.0] * 6], [0.0, 0.0]),
}


BOTH_MODES = {Mode.SAFETY, Mode.UNTRUSTED}


def decision_docs():
    """(document, the modes SimRta decides on it) for `config_docs` and the
    dubins leader-set variants. ReachRta decides both modes on every one."""
    for param in config_docs():
        # On gcas-ridge only ReachRta's bloated boxes reach the ridge.
        only_reach = param.id.startswith("gcas-ridge")
        yield pytest.param(*param.values, {Mode.UNTRUSTED} if only_reach else BOTH_MODES,
                           id=param.id)
    for kind, (definition, offset) in LEADER_SETS.items():
        yield pytest.param(dubins_with_leader_set(kind, definition, offset), BOTH_MODES,
                           id=f"dubins.json-{kind}")


@pytest.mark.parametrize("kind", ["sim", "reach"])
@pytest.mark.parametrize("doc, sim_modes", decision_docs())
def test_decisions_match_a_per_step_reference_on_shipped_configs(doc, sim_modes, kind,
                                                                 monkeypatch):
    doc = copy.deepcopy(doc)  # both kinds share one parameter
    # Every binding runs `kind`; acc.json has none, so its first agent gets one.
    bound = [a for a in doc["agents"] if "rta" in a] or doc["agents"][:1]
    for agent in bound:
        agent["rta"] = {"type": kind, "horizon": agent.get("rta", {}).get("horizon", 1.0)}
        if kind == "reach":
            agent["rta"]["bloat_rate"] = 0.1
    preds = []
    real_forward = rta.forward_simulate

    def recording_forward(*args, **kwargs):
        preds.append(real_forward(*args, **kwargs))
        return preds[-1]

    monkeypatch.setattr(rta, "forward_simulate", recording_forward)
    scenario = build_scenario(config_from_dict(doc))
    decided = []
    for spec in scenario.config.agents:
        if spec.rta is not None:
            logic = spec.rta.logic

            def checked(trace, logic=logic, decide=logic.decide):
                mode = decide(trace)
                decided.append((mode, per_step_reference(logic, preds[-1])))
                return mode

            logic.decide = checked
    trace = execute(scenario)
    assert len(decided) == len(bound) * (len(trace.times) - 1)
    assert [i for i, (got, want) in enumerate(decided) if got is not want] == []
    assert {got for got, _ in decided} == (sim_modes if kind == "sim" else BOTH_MODES)


@pytest.mark.parametrize("kind", ["sim", "reach"])
def test_a_set_anchored_to_the_ego_does_not_hold_it_in_safety(kind):
    # The dubins leader carries leader_ball for its followers; bound to an RTA
    # itself, it decides as if the ball were not there.
    def leader_modes(with_ball):
        doc = json.loads((CONFIGS / "dubins.json").read_text())
        doc["agents"][0]["rta"] = {"type": kind, "horizon": 1.0}
        if not with_ball:
            doc["unsafe_sets"] = [s for s in doc["unsafe_sets"] if s["id"] != "leader_ball"]
        return execute(build_scenario(config_from_dict(doc))).modes["leader"]

    modes = leader_modes(with_ball=True)
    assert Mode.UNTRUSTED in modes
    assert modes == leader_modes(with_ball=False)


@pytest.mark.parametrize("name", ["acc_sim_rta.json", "dubins.json"])
def test_decisions_parse_no_set_payload(name, monkeypatch):
    from rtakit import config, geometry, trace as trace_module

    scenario = build_scenario(config_from_dict(json.loads((CONFIGS / name).read_text())))
    parses = []
    for module in (geometry, trace_module, config):
        real = module.set_from_payload
        monkeypatch.setattr(module, "set_from_payload",
                            lambda *args, real=real: parses.append(args) or real(*args))
    trace = execute(scenario)
    assert trace.unsafe and parses == []


@pytest.mark.parametrize("name", ["acc_sim_rta.json", "dubins.json"])
def test_anchored_sets_resolve_for_executed_samples_only(name, monkeypatch):
    """The executed trace resolves each anchored set once, along its whole
    anchor column; a decision moves each set not anchored to its ego once,
    along the whole prediction; both go through `Scenario.unsafe_along`,
    and a prediction resolves no set."""
    from rtakit import geometry, scenario as scenario_module

    scenario = build_scenario(config_from_dict(json.loads((CONFIGS / name).read_text())))
    calls = {"scenario": [], "geometry": []}
    for module, key in ((scenario_module, "scenario"), (geometry, "geometry")):
        real, seen = module.update_relative, calls[key]
        monkeypatch.setattr(module, "update_relative",
                            lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    trace = execute(scenario)
    anchored = list(scenario.anchored.values())
    egos = [spec.model.agent_id for spec in scenario.config.agents if spec.rta is not None]
    decisions = len(trace.times) - 1
    assert anchored and egos
    assert not calls["geometry"]
    assert len(calls["scenario"]) == len(anchored) + decisions * sum(
        s.anchor_id != ego for ego in egos for s in anchored)
    executed = calls["scenario"][-len(anchored):]
    assert [spec for spec, _ in executed] == anchored
    assert all(len(column) == len(trace.times) for _, column in executed)
    pred = forward_simulate(trace.prefix(0), scenario, 1.0, ego_id=egos[0])
    assert len(pred.times) > 1 and not pred.unsafe


def _lp_box_margin(A, b, lo, hi) -> tuple[bool, float]:
    """HiGHS's verdict on whether {Ax <= b} meets the box [lo, hi], and the
    program's margin: the least over the box of max_i (a_i x - b_i) / |a_i|,
    negative where the box reaches inside every row, as a distance."""
    from scipy.optimize import linprog

    feasible = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b, bounds=list(zip(lo, hi)),
                       method="highs")
    norms = np.linalg.norm(A, axis=1)
    deepest = linprog(np.r_[np.zeros(A.shape[1]), 1.0], A_ub=np.c_[A, -norms], b_ub=b,
                      bounds=[*zip(lo, hi), (None, None)], method="highs")
    assert feasible.status in (0, 2) and deepest.status == 0, (feasible.message, deepest.message)
    return feasible.status == 0, abs(deepest.fun)


def test_every_box_program_the_configs_and_ridges_reach_has_highs_verdict(monkeypatch):
    """Each box that ReachRta's shortcuts leave to the dual active-set
    method, over the shipped configs and the gcas-ridge documents at seeds
    1-10, gets HiGHS's verdict, and no program sits near the tolerance."""
    from rtabench import workloads
    from rtakit import geometry

    programs, in_box_test = [], []
    solve, meets = geometry._nearest_points, geometry.Polytope._meets_boxes

    def recorded(A, Q, b):
        X, feasible = solve(A, Q, b)
        if in_box_test:
            programs.extend((A, bk, ok) for bk, ok in zip(b, feasible))
        return X, feasible

    def box_test(self, lo, hi):
        in_box_test.append(1)
        try:
            return meets(self, lo, hi)
        finally:
            in_box_test.pop()

    monkeypatch.setattr(geometry, "_nearest_points", recorded)
    monkeypatch.setattr(geometry.Polytope, "_meets_boxes", box_test)
    docs = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]
    docs += [doc for seed in range(1, 11) for _, doc in workloads.gcas_ridge(seed)]
    for doc in docs:
        execute(build_scenario(config_from_dict(doc)))
    verdicts, margins = set(), []
    for A, b, ok in programs:
        dim = A.shape[1]
        m = len(A) - 2 * dim  # the polytope's rows, then x <= hi and -x <= -lo
        want, margin = _lp_box_margin(A[:m], b[:m], -b[m + dim:], b[m:m + dim])
        assert ok == want
        verdicts.add(ok)
        margins.append(margin)
    print(f"{len(programs)} box programs, smallest margin {min(margins):.3g}")
    assert verdicts == {True, False}
    assert min(margins) > 1e-6
