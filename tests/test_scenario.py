"""Scenario building, the execution loop, and snapshots."""
import hashlib
import json
import math
from pathlib import Path

import pytest

from rtakit import (
    AccAgent,
    AgentSpec,
    Ball,
    DubinsCarAgent,
    ExecutionTrace,
    Mode,
    RelativeSetSpec,
    RtaBinding,
    RtaError,
    ScenarioConfig,
    ScenarioMetadata,
    ScenarioError,
    ScenarioRuntimeError,
    SimRta,
    StaticSetSpec,
    build_report,
    build_scenario,
    execute,
    parse_scenario_config,
    snapshot,
    validate_trace_dict,
)
from helpers import acc_scenario_config, sim_rta_binding

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def single_agent_config(dt=0.1, horizon=0.2):
    return ScenarioConfig(
        agents=[AgentSpec(AccAgent("solo"), [0.0, 1.0], Mode.NORMAL, None)],
        unsafe_sets=[],
        dt=dt,
        horizon=horizon,
        workspace_dim=1,
    )


# -- build validation ------------------------------------------------------------

def test_build_resolves_initial_relative_ball():
    scenario = build_scenario(acc_scenario_config())
    trace = scenario.initial_trace()
    assert trace.unsafe["unsafe1"][0] == [[10.0], 7.0]


def test_build_accepts_empty_unsafe():
    scenario = build_scenario(single_agent_config())
    assert not scenario.unsafe_by_id


def test_build_rejects_duplicate_agent_ids():
    config = single_agent_config()
    config.agents.append(AgentSpec(AccAgent("solo"), [1.0, 0.0], Mode.NORMAL, None))
    with pytest.raises(ScenarioError, match="duplicate"):
        build_scenario(config)


def test_build_rejects_one_rta_binding_shared_by_two_agents():
    # Binding the logic sets its ego, so a shared binding would decide for
    # the last agent bound and mix both agents' decision times.
    config = acc_scenario_config(rta=sim_rta_binding())
    config.agents[1].rta = config.agents[0].rta
    with pytest.raises(ScenarioError, match="agent 'follower': its RTA binding is shared"):
        build_scenario(config)


def test_build_rejects_dangling_anchor():
    config = single_agent_config()
    config.unsafe_sets = [RelativeSetSpec("u", Ball([0.0], 1.0), [0.0], "ghost")]
    with pytest.raises(ScenarioError, match="dangling anchor"):
        build_scenario(config)


def test_build_rejects_nonpositive_dt():
    with pytest.raises(ScenarioError):
        build_scenario(single_agent_config(dt=0.0))


@pytest.mark.parametrize("dt, horizon, name", [
    (0.1, math.inf, "horizon"),
    (math.nan, 0.2, "dt"),
    (0.1, math.nan, "horizon"),
])
def test_build_rejects_nonfinite_time_grid(dt, horizon, name):
    with pytest.raises(ScenarioError, match=f"{name} must be finite and positive"):
        build_scenario(single_agent_config(dt=dt, horizon=horizon))


def test_build_rejects_horizon_shorter_than_dt():
    with pytest.raises(ScenarioError):
        build_scenario(single_agent_config(dt=0.1, horizon=0.05))


def test_build_rejects_wrong_state_width():
    config = single_agent_config()
    config.agents[0].init_state = [0.0]
    with pytest.raises(ScenarioError, match="state"):
        build_scenario(config)


@pytest.mark.parametrize("bad", [math.nan, math.inf, "1.0", True])
def test_build_rejects_nonfinite_initial_state(bad):
    """A bad initial state is the configuration's fault, not a step's."""
    config = single_agent_config()
    config.agents[0].init_state = [0.0, bad]
    with pytest.raises(ScenarioError, match="agent 'solo': initial state must be finite"):
        build_scenario(config)


def test_build_rejects_a_position_dim_off_the_workspace():
    class Planar(AccAgent):
        # Decisions and evaluation read the leading workspace_dim components.
        position_dim = 2

    config = single_agent_config()
    config.agents = [AgentSpec(Planar("crab"), [0.0, 1.0], Mode.NORMAL, None)]
    with pytest.raises(ScenarioError,
                       match=r"agent 'crab': model position_dim 2 != workspace dimension 1"):
        build_scenario(config)


def test_build_rejects_dangling_leader():
    # A leader that names no agent used to fail only at the first step that
    # read it; without one (NORMAL here) it was never found.
    config = single_agent_config()
    config.agents = [AgentSpec(AccAgent("solo", leader_id="ghost"), [0.0, 1.0], Mode.NORMAL)]
    with pytest.raises(ScenarioError, match="agent 'solo': leader 'ghost' does not name an agent"):
        build_scenario(config)


def test_build_rejects_set_dimension_mismatch():
    config = single_agent_config()
    config.unsafe_sets = [StaticSetSpec("u", Ball([0.0, 0.0], 1.0))]
    with pytest.raises(ScenarioError, match="dimension"):
        build_scenario(config)


def test_build_rejects_set_id_clashing_with_agent():
    config = single_agent_config()
    config.unsafe_sets = [StaticSetSpec("solo", Ball([0.0], 1.0))]
    with pytest.raises(ScenarioError, match="collides"):
        build_scenario(config)


# -- execution ---------------------------------------------------------------------

def test_execute_constant_velocity_grid():
    trace = execute(build_scenario(single_agent_config(dt=0.1, horizon=0.2)))
    assert trace.to_dict()["agents"]["solo"]["state_trace"] == [
        [0.0, 0.0, 1.0],
        [0.1, 0.1, 1.0],
        [0.2, 0.2, 1.0],
    ]
    assert trace.modes["solo"] == [Mode.NORMAL, Mode.NORMAL]


def test_execute_is_deterministic():
    a = execute(build_scenario(acc_scenario_config())).to_json()
    b = execute(build_scenario(acc_scenario_config())).to_json()
    assert a == b


# SHA-256 of each shipped config's executed trace (`to_json`). A speed-up
# keeps these bytes; a change that alters a trace on purpose updates the
# digest here and says why in CHANGES.md.
SHIPPED_TRACE_SHA256 = {
    "acc": "50ea23be7d976eb137a1e54d897d28b9fc1695515efbdf48b00dfd6e329118a0",
    "acc_sim_rta": "ec35e76d7b6d2bedd4ecd4e4fe3bacf8c029d1782f9b20b12df189ce22d3aaf0",
    "dubins": "87e3bef7c63895f2c7d22c05a2d8cf83e130c1cda82b3cda33c701b31e8a884d",
    "gcas": "b6fdb01b89325a5bbf6ad33938f86d21fa98b608ae2ab7a2c6405db29361dc2e",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_shipped_config_traces_are_byte_identical(name):
    """The executed trace of each shipped config, byte for byte. Pinned on
    Python 3.11 with glibc 2.36."""
    trace = execute(build_scenario(parse_scenario_config(CONFIGS / f"{name}.json")))
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == SHIPPED_TRACE_SHA256[name]


# SHA-256 of the files `rtakit eval` writes for each shipped config's trace,
# with the fixed timings of `eval_output_digest`: summary.json, summary.txt
# and every CSV series, by file name. A change to how eval reads the trace
# keeps these bytes.
SHIPPED_EVAL_SHA256 = {
    "acc": "2d17721b57c0b60e05820aa0aa474bee8fd0a09953b9d5ab36c60cfb336f42d1",
    "acc_sim_rta": "23bd6fb395758d6b40493132e109ad5d76aee9e71e192ab5a727a7692a5eb8f0",
    "dubins": "c9a5ce45e7aebd0d630b438f65cea379be069f2b58968dd39319038e6d8c2c8c",
    "gcas": "75e970a5e8c1191d600144fbae256294f9c1e9b77cea3d01b267086f47be0c7e",
}


def eval_output_digest(trace, outdir: Path) -> str:
    """Evaluate a trace as `rtakit eval` does, with timings fixed per agent,
    and hash every file written, in file-name order."""
    loaded = ExecutionTrace.from_dict(json.loads(trace.to_json()))
    timings = {aid: [0.001 * (i + 1), 0.0025, 0.5 / (i + 3)]
               for i, aid in enumerate(loaded.rows)}
    report = build_report(loaded, ScenarioMetadata.from_trace(loaded), timings)
    outdir.mkdir()
    (outdir / "summary.txt").write_text(report.to_text())
    (outdir / "summary.json").write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    report.write_csv(outdir)
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_shipped_config_eval_outputs_are_byte_identical(name, tmp_path):
    """The eval output of each shipped config, byte for byte. Pinned on
    Python 3.11 with glibc 2.36."""
    trace = execute(build_scenario(parse_scenario_config(CONFIGS / f"{name}.json")))
    assert eval_output_digest(trace, tmp_path / "report") == SHIPPED_EVAL_SHA256[name]


def test_timestamps_are_exact_grid_multiples():
    trace = execute(build_scenario(acc_scenario_config(dt=0.1, horizon=5.0)))
    ts = trace.timestamps()
    assert len(ts) == 51
    for k, t in enumerate(ts):
        assert t == k * 0.1
    assert ts[-1] == 50 * 0.1


def test_agents_without_rta_keep_configured_mode():
    trace = execute(build_scenario(acc_scenario_config()))
    assert all(m is Mode.UNTRUSTED for m in trace.modes["follower"])
    assert all(m is Mode.NORMAL for m in trace.modes["leader"])


def test_unsafe_entries_carry_known_type():
    trace = execute(build_scenario(acc_scenario_config()))
    assert trace.kinds["unsafe1"] in ("point", "ball", "hyperrectangle", "polytope")


def test_relative_ball_tracks_anchor_exactly():
    scenario = build_scenario(acc_scenario_config())
    trace = execute(scenario)
    for k in range(len(trace.times)):
        center = trace.unsafe["unsafe1"][k][0]
        leader_pos = trace.rows["leader"][k][0]
        assert center[0] == leader_pos + 5.0  # same arithmetic, zero tolerance


def test_static_set_payload_is_built_once(monkeypatch):
    built = []
    real_payload = Ball.payload
    monkeypatch.setattr(Ball, "payload", lambda self: built.append(1) or real_payload(self))
    config = single_agent_config(horizon=0.5)
    config.unsafe_sets = [StaticSetSpec("wall", Ball([9.0], 1.0))]
    scenario = build_scenario(config)
    trace = execute(scenario)
    assert len(built) == 1
    assert scenario.static_sets == {"wall": config.unsafe_sets[0].base}
    assert len(trace.times) == 6
    shared = trace.unsafe["wall"][0]
    assert shared == [[9.0], 1.0]
    assert all(trace.unsafe["wall"][k] is shared for k in range(6))


def test_executed_trace_validates_against_schema():
    trace = execute(build_scenario(acc_scenario_config()))
    validate_trace_dict(trace.to_dict())


def test_mode_trace_one_shorter_than_state_trace():
    trace = execute(build_scenario(acc_scenario_config()))
    for aid in trace.rows:
        assert len(trace.modes[aid]) == len(trace.times) - 1


def test_step_failure_reports_agent_and_time():
    class Exploding(AccAgent):
        def step(self, mode, state, dt, view):
            if view.states[self.agent_id][0] > 0.15:  # from the third sample, at 0.2
                raise RuntimeError("boom")
            return super().step(mode, state, dt, view)

    config = single_agent_config(horizon=1.0)
    config.agents = [AgentSpec(Exploding("frail"), [0.0, 1.0], Mode.NORMAL, None)]
    with pytest.raises(ScenarioRuntimeError, match="frail.*t=0.2"):
        execute(build_scenario(config))


class Forgetful(DubinsCarAgent):
    def remember(self, memory, state):
        if state[0] > 0.3:  # from the fourth sample, at 0.3
            raise KeyError("lost")
        return super().remember(memory, state)


def forgetful_config(rta=None):
    car = Forgetful("car", waypoints=[[5.0, 0.0]])
    return ScenarioConfig(agents=[AgentSpec(car, [0.0, 0.0, 0.0, 1.0], Mode.NORMAL, rta)],
                          dt=0.1, horizon=1.0, workspace_dim=2)


def test_remember_failure_reports_agent_and_time():
    # The KeyError used to escape `execute` bare, naming neither.
    with pytest.raises(ScenarioRuntimeError, match=r"car.*t=0\.3") as executed:
        execute(build_scenario(forgetful_config()))
    with pytest.raises(RtaError) as decided:
        execute(build_scenario(forgetful_config(RtaBinding(SimRta(horizon=1.0)))))
    assert str(decided.value) == f"RTA logic for agent 'car' failed: {executed.value}"


def with_output(config, agent_id, tick, output):
    """`config` with `agent_id`'s step returning output(next state) from
    its call number `tick` on; without an RTA every call is one tick."""
    model = next(s.model for s in config.agents if s.model.agent_id == agent_id)
    real, calls = model.step, []

    def step(*args):
        calls.append(None)
        nxt = real(*args)
        return output(nxt) if len(calls) > tick else nxt

    model.step = step
    return config


def test_nonfinite_step_output_fails_at_its_tick():
    config = with_output(acc_scenario_config(), "follower", 30, lambda s: [math.nan, s[1]])
    with pytest.raises(ScenarioRuntimeError,
                       match=r"agent 'follower' step at t=3 returned a non-finite state \[nan, "):
        execute(build_scenario(config))


def test_nonfinite_anchor_names_the_set_the_anchor_and_t():
    config = with_output(acc_scenario_config(), "leader", 30, lambda s: [math.nan, s[1]])
    with pytest.raises(ScenarioRuntimeError,
                       match=r"unsafe set 'unsafe1' anchored to agent 'leader' failed to "
                             r"resolve at t=3.1: anchor position must be finite"):
        execute(build_scenario(config))


def test_step_output_of_the_wrong_width_fails_at_its_tick():
    config = with_output(acc_scenario_config(), "follower", 30, lambda s: [*s, 0.0])
    with pytest.raises(ScenarioRuntimeError,
                       match="agent 'follower' step at t=3 returned 3 components, expected 2"):
        execute(build_scenario(config))


@pytest.mark.parametrize("mutate", [
    lambda state, view: state.__setitem__(1, 0.0),
    lambda state, view: view.states["leader"].__setitem__(0, 0.0),
], ids=["state", "view-states"])
def test_a_step_cannot_change_recorded_rows(mutate):
    """A step that writes into the rows it is given either leaves the trace
    as a step that does not would, or fails naming the agent and t."""
    twin = execute(build_scenario(acc_scenario_config())).to_json()
    config = acc_scenario_config()
    follower = config.agents[0].model
    real = follower.step

    def step(mode, state, dt, view):
        nxt = real(mode, state, dt, view)
        mutate(state, view)
        return nxt

    follower.step = step
    try:
        got = execute(build_scenario(config)).to_json()
    except ScenarioRuntimeError as exc:
        assert str(exc).startswith("agent 'follower' step failed at t=0: ")
    else:
        assert got == twin


# -- snapshot ---------------------------------------------------------------------

def test_snapshot_initial():
    trace = execute(build_scenario(acc_scenario_config()))
    state = snapshot(trace, 0.0)
    assert state.t == 0.0
    assert state.states["follower"] == [0.0, 1.0]
    assert state.unsafe["unsafe1"].center.tolist() == [10.0]


def test_snapshot_floor_semantics():
    trace = execute(build_scenario(acc_scenario_config()))
    state = snapshot(trace, 0.15)
    assert state.t == pytest.approx(0.1)
    assert state.states["follower"] == list(trace.rows["follower"][1])


def test_snapshot_final_carries_last_modes():
    trace = execute(build_scenario(acc_scenario_config(horizon=1.0)))
    state = snapshot(trace, 1.0)
    assert state.t == pytest.approx(1.0)
    assert state.modes["follower"] is trace.modes["follower"][-1]
    assert state.states["follower"] == list(trace.rows["follower"][-1])


def test_snapshot_out_of_range():
    trace = execute(build_scenario(acc_scenario_config(horizon=1.0)))
    with pytest.raises(ValueError, match="outside"):
        snapshot(trace, 2.0)
    with pytest.raises(ValueError, match="outside"):
        snapshot(trace, -0.5)


def test_snapshot_on_single_sample_has_no_modes():
    scenario = build_scenario(acc_scenario_config())
    state = snapshot(scenario.initial_trace(), 0.0)
    assert state.modes["follower"] is None
