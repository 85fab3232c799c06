"""Prediction is execution: a rollout runs the dynamics the closed loop runs.

Each RTA decision forward-simulates the scenario, so its verdict means
something only if a one-step prediction under the executed modes lands on
the executed next sample, exactly, whatever the sample it starts from.
"""
import json
import math
from pathlib import Path

import pytest

from rtabench import workloads
from rtakit import (
    AgentSpec,
    DubinsCarAgent,
    DubinsCarParams,
    Mode,
    ScenarioConfig,
    build_scenario,
    config_from_dict,
    execute,
    predict,
    update_relative,
)
from helpers import config_docs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def one_step_misses(scenario, trace):
    """Ticks k at which predict(prefix(k), executed modes, 1) differs from
    the executed sample k + 1 in a state or an anchored set's payload, the
    set resolved at the predicted anchor state."""
    agents = list(trace.rows)
    anchored = [scenario.anchored[sid] for sid in trace.unsafe if sid in scenario.anchored]
    misses = []
    for k in range(len(trace.times) - 1):
        modes = {aid: trace.modes[aid][k] for aid in agents}
        pred = predict(scenario, trace.prefix(k), modes, 1)
        anchors = [pred.rows[s.anchor_id][1][:scenario.workspace_dim] for s in anchored]
        got = ([pred.rows[aid][1] for aid in agents],
               [update_relative(s, a).payload() for s, a in zip(anchored, anchors)])
        want = ([trace.rows[aid][k + 1] for aid in agents],
                [trace.unsafe[spec.set_id][k + 1] for spec in anchored])
        if got != want:
            misses.append(k)
    return misses


@pytest.mark.parametrize("doc", config_docs())
def test_one_step_prediction_is_the_executed_sample(doc):
    scenario = build_scenario(config_from_dict(doc))
    trace = execute(scenario)
    assert one_step_misses(scenario, trace) == []


def waypoint_car_scenario(horizon=6.0):
    car = DubinsCarAgent("car", DubinsCarParams(nominal="track"),
                         waypoints=[[2.0, 0.0], [2.0, 4.0]])
    return build_scenario(ScenarioConfig(
        agents=[AgentSpec(car, [0.0, 0.0, 0.0, 1.0], Mode.NORMAL)],
        dt=0.1, horizon=horizon, workspace_dim=2,
    ))


def test_waypoint_car_predicted_from_mid_route_keeps_its_waypoint():
    scenario = waypoint_car_scenario()
    trace = execute(scenario)
    car = scenario.agents_by_id["car"].model
    gaps = [math.dist(trace.rows["car"][k][:2], car.waypoints[0])
            for k in range(len(trace.times))]
    captured = next(k for k, gap in enumerate(gaps) if gap <= car.params.capture_radius)
    # past waypoint 0 and out of its capture radius again
    k = next(k for k in range(captured, len(gaps)) if gaps[k] > car.params.capture_radius)
    pred = predict(scenario, trace.prefix(k), {"car": Mode.NORMAL}, 10)
    assert [pred.rows["car"][j] for j in range(11)] == \
        [trace.rows["car"][k + j] for j in range(11)]


@pytest.mark.parametrize("doc", [
    pytest.param(json.loads((CONFIGS / "dubins.json").read_text()), id="dubins.json"),
    pytest.param(workloads.gcas_ridge(1)[0][1], id="gcas-ridge-1"),
])
def test_memory_folded_from_a_prefix_or_a_loaded_trace_is_the_live_memory(doc, tmp_path):
    scenario = build_scenario(config_from_dict(doc))
    live = scenario.initial_trace()
    path = tmp_path / "trace.json"
    for k in range(scenario.n_steps):
        modes = {aid: scenario.current_mode(live, aid) for aid in live.rows}
        scenario.advance(live, modes, k)
        if k % 25 == 0 or k == scenario.n_steps - 1:
            memory = scenario.memory(live)
            assert scenario.memory(live.prefix(k + 1)) == memory
            live.dump(path)
            assert scenario.memory(type(live).load(path)) == memory
    assert any(m for m in scenario.memory(live).values())
