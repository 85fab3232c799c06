"""Collection and metrics: timing stats, distances, TTC, usage, reports."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rtakit import (
    Collector,
    ExecutionTrace,
    Mode,
    ScenarioMetadata,
    build_report,
    build_scenario,
    computation_time_stats,
    config_from_dict,
    controller_usage,
    distance_series,
    execute,
    ttc,
)
from rtakit import trace as trace_module
from rtakit.cli import main as cli_main
from rtakit.evaluation import EvalError
from helpers import acc_scenario_config, make_trace, sim_rta_binding

META1 = ScenarioMetadata(workspace_dim=1)
META2 = ScenarioMetadata(workspace_dim=2)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def static_ball_trace(agent_rows, center, radius, extra_agents=None):
    """Trace with one unsafe ball fixed at `center`."""
    agents = {"ego": agent_rows}
    if extra_agents:
        agents.update(extra_agents)
    return make_trace(agents, sets={"ball": ("ball", [[[center], radius]] * len(agent_rows))})


# -- collector -------------------------------------------------------------------

def test_collect_times():
    collector = Collector()
    collector.collect_computation_time(0.0)
    assert collector.durations == [0.0]
    collector.collect_computation_time(1e-3)
    collector.collect_computation_time(2e-3)
    assert len(collector.durations) == 3
    with pytest.raises(EvalError):
        collector.collect_computation_time(-1.0)


# -- timing stats -----------------------------------------------------------------

def test_stats_mean_min_max():
    stats = computation_time_stats([2e-3, 4e-3])
    assert stats.avg == pytest.approx(3e-3)
    assert stats.min == pytest.approx(2e-3)
    assert stats.max == pytest.approx(4e-3)
    assert stats.count == 2


def test_stats_singleton():
    stats = computation_time_stats([7e-4])
    assert stats.avg == stats.min == stats.max == 7e-4


def test_stats_empty_is_no_data():
    stats = computation_time_stats([])
    assert not stats.has_data
    assert stats.avg is None


# -- distance series -----------------------------------------------------------------

def test_distance_series_initial_gap_matches_geometry():
    scenario = build_scenario(acc_scenario_config())
    trace = execute(scenario)
    series = distance_series(trace, "follower", "unsafe1", META1)
    # ball center 10, radius 7, follower at 0
    assert series[0] == (0.0, pytest.approx(3.0))


def test_distance_series_self_is_zero():
    trace = static_ball_trace([[0.0, 0.0, 1.0], [0.1, 0.1, 1.0]], 50.0, 1.0)
    series = distance_series(trace, "ego", "ego", META1)
    assert all(v == 0.0 for _, v in series)


def test_distance_series_static_agents_constant():
    trace = make_trace({
        "a": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
        "b": [[0.0, 5.0, 0.0], [0.1, 5.0, 0.0]],
    })
    series = distance_series(trace, "a", "b", META1)
    assert [v for _, v in series] == [5.0, 5.0]


def test_distance_series_unknown_id():
    trace = static_ball_trace([[0.0, 0.0, 1.0]], 5.0, 1.0)
    with pytest.raises(EvalError, match="ghost"):
        distance_series(trace, "ego", "ghost", META1)


def test_distance_series_lipschitz_in_time():
    scenario = build_scenario(acc_scenario_config(rta=sim_rta_binding()))
    trace = execute(scenario)
    params = scenario.agents_by_id["follower"].model.params
    # closing speed bounded by follower speed + ball (leader) speed
    rate = params.v_max + 1.0
    series = distance_series(trace, "follower", "unsafe1", META1)
    for (t0, d0), (t1, d1) in zip(series, series[1:]):
        assert abs(d1 - d0) <= rate * (t1 - t0) + 1e-9


# -- ttc -------------------------------------------------------------------------

def test_ttc_linear_closure_radius_zero():
    # gap 10 at t = 0.1, closing speed 2 from the backward difference;
    # agents collide when their positions meet
    trace = make_trace({
        "ego": [[0.0, -0.2], [0.1, 0.0]],
        "wall": [[0.0, 10.0], [0.1, 10.0]],
    })
    got = ttc(trace, "ego", "wall", 0.1, META1)
    assert got == pytest.approx(5.0, abs=1e-9)


def test_ttc_ball_entry_quadratic():
    # gap 10 to center, radius 7, closing 2 -> (10 - 7) / 2
    # at t = 0 the velocity is the first difference, (0.4 - 0) / 0.2
    trace = static_ball_trace([[0.0, 0.0], [0.2, 0.4]], 10.0, 7.0)
    got = ttc(trace, "ego", "ball", 0.0, META1)
    assert got == pytest.approx(1.5, abs=1e-9)


def test_ttc_velocity_from_finite_difference():
    # two position-only samples: backward difference gives v = 2
    trace = static_ball_trace([[0.0, -0.2], [0.1, 0.0]], 10.0, 7.0)
    got = ttc(trace, "ego", "ball", 0.1, META1)
    assert got == pytest.approx(1.5, abs=1e-9)


def test_ttc_diverging_is_infinite():
    trace = static_ball_trace([[0.0, 0.0], [0.1, -0.2]], 10.0, 7.0)
    got = ttc(trace, "ego", "ball", 0.0, META1)
    assert math.isinf(got)


def test_ttc_inside_is_zero_and_consistent_with_distance():
    trace = static_ball_trace([[0.0, 9.0], [0.1, 9.1]], 10.0, 7.0)
    got = ttc(trace, "ego", "ball", 0.0, META1)
    assert got == 0.0
    series = distance_series(trace, "ego", "ball", META1)
    assert series[0][1] <= 1e-9


def test_ttc_rect_interval_closed_form():
    trace = make_trace({"ego": [[0.0, -5.0, 0.0], [0.1, -4.9, 0.0]]},
                       sets={"box": ("hyperrectangle", [[[0.0, -1.0], [1.0, 1.0]]] * 2)})
    meta = ScenarioMetadata(workspace_dim=2)
    got = ttc(trace, "ego", "box", 0.1, meta)  # finite-difference v = (1, 0)
    # entry when -5 + 0.1 + v*tau = 0 -> tau = 4.9
    assert got == pytest.approx(4.9, abs=1e-9)


def test_ttc_polytope_interval_closed_form():
    trace = make_trace({"ego": [[0.0, 0.0], [0.1, 0.2]]},
                       sets={"half": ("polytope", [[[[-1.0]], [-10.0]]] * 2)})  # x >= 10
    got = ttc(trace, "ego", "half", 0.1, META1)  # v = 2
    assert got == pytest.approx((10.0 - 0.2) / 2.0, abs=1e-9)


def test_ttc_moving_ball_relative_closure():
    # ego at 0 moving +3, ball center starts at 10 moving +1: closure 2
    rows = [[0.0, 0.0], [0.1, 0.3]]
    trace = make_trace({"ego": rows}, sets={"ball": ("ball", [[[10.0], 7.0], [[10.1], 7.0]])})
    got = ttc(trace, "ego", "ball", 0.1, META1)
    # at t=0.1: gap to center 9.8, effective radius 7, closure 2
    assert got == pytest.approx((9.8 - 7.0) / 2.0, abs=1e-9)


def test_ttc_off_grid_time_rejected():
    trace = static_ball_trace([[0.0, 0.0, 1.0]], 10.0, 7.0)
    with pytest.raises(EvalError, match="grid"):
        ttc(trace, "ego", "ball", 0.05, META1)


# -- controller usage ---------------------------------------------------------------

def usage_trace(modes):
    rows = [[0.1 * k, float(k)] for k in range(len(modes) + 1)]
    return make_trace({"a": rows}, modes={"a": modes})


def test_usage_half_half_one_switch():
    u, s = controller_usage(
        usage_trace([Mode.UNTRUSTED, Mode.UNTRUSTED, Mode.SAFETY, Mode.SAFETY]), "a"
    )
    assert u == {"UNTRUSTED": 50.0, "SAFETY": 50.0}
    assert s == 1


def test_usage_constant_no_switch():
    u, s = controller_usage(usage_trace([Mode.SAFETY] * 3), "a")
    assert u == {"SAFETY": 100.0}
    assert s == 0


def test_usage_alternating():
    u, s = controller_usage(
        usage_trace([Mode.UNTRUSTED, Mode.SAFETY, Mode.UNTRUSTED, Mode.SAFETY]), "a"
    )
    assert u == {"UNTRUSTED": 50.0, "SAFETY": 50.0}
    assert s == 3


def test_usage_empty_is_no_data():
    u, s = controller_usage(make_trace({"a": [[0.0, 0.0]]}), "a")
    assert u == {}
    assert s == 0


def test_usage_sums_to_hundred():
    rng = np.random.default_rng(17)
    for _ in range(20):
        modes = [rng.choice(list(Mode)) for _ in range(int(rng.integers(1, 60)))]
        u, _ = controller_usage(usage_trace(list(modes)), "a")
        assert sum(u.values()) == pytest.approx(100.0, abs=1e-9)


# -- report --------------------------------------------------------------------------

def test_summary_of_rta_run():
    binding = sim_rta_binding()
    scenario = build_scenario(acc_scenario_config(rta=binding))
    trace = execute(scenario)
    report = build_report(trace, timings={"follower": binding.collector.durations})
    follower = report.agents["follower"]
    assert follower.usage.get("SAFETY", 0.0) > 0.0
    assert follower.min_set_distance["unsafe1"] >= 0.0
    assert follower.timing.has_data
    assert sum(follower.usage.values()) == pytest.approx(100.0, abs=1e-9)


def test_summary_single_sample_has_no_data_fields():
    report = build_report(static_ball_trace([[0.0, 0.0, 1.0]], 10.0, 7.0), META1)
    ego = report.agents["ego"]
    assert ego.usage == {}
    assert not ego.timing.has_data
    assert ego.min_set_distance["ball"] == pytest.approx(3.0)


def test_report_of_empty_trace_raises_no_data():
    with pytest.raises(EvalError, match="no data"):
        build_report(ExecutionTrace(), META1)


def test_report_is_pure_function_of_inputs():
    scenario = build_scenario(acc_scenario_config(rta=sim_rta_binding()))
    trace = execute(scenario)
    a = build_report(trace).to_dict()
    b = build_report(trace).to_dict()
    assert a == b


def test_report_text_and_csv(tmp_path):
    scenario = build_scenario(acc_scenario_config(rta=sim_rta_binding()))
    trace = execute(scenario)
    report = build_report(trace)
    text = report.to_text()
    assert "follower" in text and "controller usage" in text
    files = report.write_csv(tmp_path)
    assert (tmp_path / "follower__dist_set__unsafe1.csv").exists()
    assert (tmp_path / "follower__mode.csv").exists()
    header = (tmp_path / "follower__dist_set__unsafe1.csv").read_text().splitlines()[0]
    assert header == "time,value"
    assert len(files) >= 4


def test_workspace_dim_inferred_from_sets():
    trace = static_ball_trace([[0.0, 0.0, 1.0]], 10.0, 7.0)
    series = distance_series(trace, "ego", "ball", metadata=None)
    assert series[0][1] == pytest.approx(3.0)


def test_workspace_dim_required_without_sets():
    trace = make_trace({"a": [[0.0, 0.0, 1.0]], "b": [[0.0, 3.0, 1.0]]})
    with pytest.raises(EvalError, match="workspace"):
        distance_series(trace, "a", "b", metadata=None)


# -- report over a shipped scenario -------------------------------------------------

@pytest.fixture(scope="module")
def dubins_run():
    config = config_from_dict(json.loads((CONFIGS / "dubins.json").read_text()))
    scenario = build_scenario(config)
    return scenario, execute(scenario)


def test_report_reads_each_sample_once(dubins_run, monkeypatch):
    _, trace = dubins_run
    calls = {"unsafe_def": 0, "timestamps": 0}

    def count(name):
        original = getattr(ExecutionTrace, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(ExecutionTrace, name, counted)

    count("unsafe_def")
    count("timestamps")
    build_report(trace)
    assert calls["unsafe_def"] <= len(trace.unsafe) * (len(trace.times) + 1)
    assert calls["timestamps"] <= 2


def test_report_parses_a_static_set_once(dubins_run, monkeypatch):
    """A loaded trace holds an equal payload per sample, not a shared one;
    the report still reads the static building once and the anchored
    leader ball once per sample."""
    _, executed = dubins_run
    trace = ExecutionTrace.from_dict(json.loads(executed.to_json()))
    parsed = {}
    real = trace_module.set_from_payload

    def counted(kind, payload):
        parsed[kind] = parsed.get(kind, 0) + 1
        return real(kind, payload)

    monkeypatch.setattr(trace_module, "set_from_payload", counted)
    build_report(trace, META2)
    assert parsed == {"hyperrectangle": 1, "ball": len(trace.times)}


def test_report_minima_equal_public_metrics_over_grid(dubins_run):
    _, trace = dubins_run
    meta = ScenarioMetadata.from_trace(trace)
    report = build_report(trace, meta)
    ts = trace.timestamps()
    for aid, r in report.agents.items():
        others = [other for other in trace.rows if other != aid]
        for targets, series, min_dist, min_ttc in (
            (list(trace.unsafe), r.set_distances, r.min_set_distance, r.min_set_ttc),
            (others, r.agent_distances, r.min_agent_distance, r.min_agent_ttc),
        ):
            assert list(series) == list(min_dist) == list(min_ttc) == targets
            for target in targets:
                want = distance_series(trace, aid, target, meta)
                assert series[target] == want
                assert min_dist[target] == min(v for _, v in want)
                assert min_ttc[target] == min(
                    ttc(trace, aid, target, t, meta) for t in ts
                )


@pytest.mark.parametrize("name", ["acc", "acc_sim_rta", "dubins", "gcas"])
def test_report_of_executed_trace_equals_cli_eval(name, tmp_path):
    """The report of a trace held in memory is the summary.json that
    `rtakit run` + `rtakit eval` write for the same config."""
    config = CONFIGS / f"{name}.json"
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", "--config", str(config), "--out", str(trace_path)]) == 0
    assert cli_main(["eval", str(trace_path), "--out", str(tmp_path / "report")]) == 0
    want = json.loads((tmp_path / "report" / "summary.json").read_text())

    scenario = build_scenario(config_from_dict(json.loads(config.read_text())))
    trace = execute(scenario)
    durations = {spec.model.agent_id: spec.rta.collector.durations
                 for spec in scenario.config.agents if spec.rta is not None}
    # Decision durations differ between runs: match their counts, then
    # report with the CLI run's so the timing stats are comparable.
    saved = json.loads(trace_path.with_name("trace.timings.json").read_text())["timings"]
    assert {aid: len(d) for aid, d in durations.items()} == {
        aid: len(d) for aid, d in saved.items()}
    assert build_report(trace, timings=saved).to_dict() == want
