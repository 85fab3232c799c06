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
from rtabench import workloads
from rtakit import evaluation, geometry
from rtakit import trace as trace_module
from rtakit.cli import main as cli_main
from rtakit.evaluation import EvalError
from helpers import (
    acc_scenario_config,
    every_document,
    make_trace,
    ref_build_report,
    ref_csv_files,
    ref_distance_series,
    ref_ttc,
    reference_eval_files,
    sim_rta_binding,
)

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
    for dim in (0, -1):
        with pytest.raises(EvalError, match=f"must be at least 1, got {dim}"):
            distance_series(trace, "a", "b", ScenarioMetadata(workspace_dim=dim))


WIDE = ("point", [[1.0, 2.0]] * 2)  # a 2-D set
WIDE_MESSAGE = "unsafe set 'wide' has dimension 2, but the workspace has dimension 1"


def test_sets_of_different_dimensions_are_named(tmp_path, capsys):
    trace = make_trace({"a": [[0.0, 0.0], [0.1, 0.5]]}, {"a": [Mode.UNTRUSTED]},
                       sets={"u": ("point", [[3.0]] * 2), "wide": WIDE})
    with pytest.raises(EvalError, match=WIDE_MESSAGE):
        build_report(trace)
    trace.dump(tmp_path / "trace.json")
    assert cli_main(["eval", str(tmp_path / "trace.json"), "--out", str(tmp_path / "r")]) == 2
    assert WIDE_MESSAGE in capsys.readouterr().err


def test_a_set_off_the_given_workspace_dimension_is_named():
    trace = make_trace({"a": [[0.0, 0.0, 1.0], [0.1, 0.5, 1.0]]}, sets={"wide": WIDE})
    with pytest.raises(EvalError, match=WIDE_MESSAGE):
        distance_series(trace, "a", "wide", META1)
    with pytest.raises(EvalError, match=WIDE_MESSAGE):
        ttc(trace, "a", "wide", 0.1, META1)


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
    the report still parses each set's column once, as one column, with no
    `set_from_payload` per sample or per run: not of the static building,
    and not of the anchored leader ball that moves every sample."""
    _, executed = dubins_run
    trace = ExecutionTrace.from_dict(json.loads(executed.to_json()))
    want = build_report(executed, META2).to_dict()
    parsed, columns = [], {}
    real_parse, real_column = geometry.set_from_payload, evaluation.parse_column

    def parse(kind, payload):
        parsed.append(kind)
        return real_parse(kind, payload)

    def column(kind, payloads):
        columns[kind] = columns.get(kind, 0) + 1
        return real_column(kind, payloads)

    for module in (geometry, trace_module):
        monkeypatch.setattr(module, "set_from_payload", parse)
    monkeypatch.setattr(evaluation, "parse_column", column)
    assert build_report(trace, META2).to_dict() == want
    assert parsed == []
    assert columns == {"hyperrectangle": 1, "ball": 1}


@pytest.mark.parametrize("case", ["dubins-formation-1", "dubins.json"])
def test_report_measures_a_target_over_at_most_every_agent_and_sample(case, request,
                                                                      monkeypatch):
    """Each `distance` and `entry_time` call of a report measures one target
    against the other agents, so its rows grow with agents x samples, not
    with agent pairs x samples; every agent is one point target."""
    if case == "dubins.json":
        _, trace = request.getfixturevalue("dubins_run")
    else:
        (_, doc), = workloads.WORKLOADS["dubins-formation"](1)
        trace = execute(build_scenario(config_from_dict(doc)))
    assert "point" not in trace.kinds.values()  # each point call measures an agent
    calls = []  # (kind, method, rows) per call

    def wrap(cls, name):
        real = getattr(cls, name)

        def counted(self, points, *args):
            calls.append((self.kind, name, len(np.atleast_2d(points))))
            return real(self, points, *args)

        monkeypatch.setattr(cls, name, counted)

    for cls in (geometry.PointSet, geometry.Ball, geometry.Hyperrectangle, geometry.Polytope):
        wrap(cls, "distance")
        wrap(cls, "entry_time")
    build_report(trace)
    assert max(rows for *_, rows in calls) <= len(trace.rows) * len(trace.times)
    assert [call[:2] for call in calls].count(("point", "distance")) == len(trace.rows)


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


# -- column-wise eval equals the per-row reference, byte for byte -------------------

def eval_files(trace, tmp_path, timings=None) -> dict[str, str]:
    """summary.json and every CSV of the trace's report, by file name."""
    report = build_report(trace, timings=timings)
    files = {path.name: path.read_text() for path in report.write_csv(tmp_path)}
    files["summary.json"] = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    return files


def _course(t, start, vel):
    return [[tk, *(np.asarray(start) + np.asarray(vel) * tk), 0.3] for tk in t]


T8 = [0.1 * k for k in range(8)]


def _anchored_ball_trace():
    """A ball riding on `lead` whose radius grows from 1.0 to 1.5 at sample
    4, with `ego` closing on it from behind; `wing` flies parallel to
    `lead`, and `chaser` heads straight for `still`."""
    lead = _course(T8, [2.0, 0.0], [3.0, 0.5])
    radii = [1.0] * 4 + [1.5] * 4
    agents = {"ego": _course(T8, [-3.0, 0.0], [4.0, 0.5]), "lead": lead,
              "wing": _course(T8, [2.0, 2.0], [3.0, 0.5]),
              "still": [[t, -4.0, 3.0, 0.0] for t in T8],
              "chaser": _course(T8, [-4.0, -1.0], [0.0, 2.0])}
    modes = {aid: [Mode.NORMAL] * 7 for aid in agents}
    modes["ego"] = [Mode.UNTRUSTED, Mode.SAFETY, Mode.SAFETY, Mode.UNTRUSTED,
                    Mode.UNTRUSTED, Mode.SAFETY, Mode.UNTRUSTED]
    return make_trace(agents, modes,
                      sets={"ring": ("ball", [[row[1:3], r] for row, r in zip(lead, radii)])})


def _uneven_box_trace():
    """A box whose lower x corner moves at 1 m/s and upper at 2.5 m/s, with
    fixed y corners; `ego` moves along x only (a zero relative velocity on
    the y axis), `side` beside the box's y range, `inner` inside it."""
    lo = [[-1.0 + 1.0 * t, -1.0] for t in T8]
    hi = [[1.0 + 2.5 * t, 1.0] for t in T8]
    return make_trace({"ego": _course(T8, [-6.0, 0.25], [4.0, 0.0]),
                       "side": _course(T8, [-6.0, 1.75], [4.0, 0.0]),
                       "inner": _course(T8, [0.0, 0.0], [0.5, -0.1])},
                      sets={"box": ("hyperrectangle", [[l, h] for l, h in zip(lo, hi)]),
                            "post": ("point", [[3.0, 0.25]] * len(T8))})


def _changing_polytope_trace():
    """A polytope whose constraint matrix changes at sample 3 (a triangle,
    then a square translated along), so its column is two stacks."""
    tri = [[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [2.0, 0.0, 0.0]]
    square = [[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0]]
    payloads = [tri] * 3 + [[square[0], [1.0 + 0.5 * t, 1.0 - 0.5 * t, 1.0, 1.0]] for t in T8[3:]]
    return make_trace({"ego": _course(T8, [-3.0, 0.5], [5.0, 0.0])},
                      sets={"poly": ("polytope", payloads)})


HAND_MADE = {
    "anchored-ball-radius-changes": _anchored_ball_trace,
    "box-corners-move-unevenly": _uneven_box_trace,
    "polytope-matrix-changes": _changing_polytope_trace,
    "one-sample": lambda: make_trace({"ego": [[0.0, 1.0, 1.0, 0.0]],
                                      "other": [[0.0, 3.0, 1.0, 0.0]]},
                                     sets={"ball": ("ball", [[[1.5, 1.0], 1.0]])}),
}


@pytest.mark.parametrize("make", HAND_MADE.values(), ids=HAND_MADE.keys())
def test_report_of_hand_made_trace_equals_the_per_row_reference(make, tmp_path):
    trace = make()
    timings = {aid: [0.001 * (i + 1), 0.002] for i, aid in enumerate(trace.rows)}
    assert eval_files(trace, tmp_path, timings) == reference_eval_files(trace, timings)


def test_hand_made_traces_reach_inside_entry_and_never():
    """The hand-made traces hold TTCs of zero (inside), finite and inf."""
    seen = set()
    for make in HAND_MADE.values():
        trace = make()
        for ttcs in build_report(trace).to_dict()["agents"].values():
            for t in (*ttcs["min_ttc_to_sets"].values(), *ttcs["min_ttc_to_agents"].values()):
                seen.add("never" if t is None else "inside" if t == 0.0 else "enter")
    assert seen == {"never", "inside", "enter"}


def _benchmark_docs():
    for name in ("dubins-formation", "acc-sweep", "gcas-ridge"):
        for op, doc in workloads.WORKLOADS[name](1):
            yield pytest.param(doc, id=f"{name}-1-{op}")


@pytest.mark.parametrize("doc", _benchmark_docs())
def test_report_of_benchmark_document_equals_the_per_row_reference(doc, tmp_path):
    """As `rtakit eval` reads it: the trace written and loaded again."""
    executed = execute(build_scenario(config_from_dict(doc)))
    trace = ExecutionTrace.from_dict(json.loads(executed.to_json()))
    assert eval_files(trace, tmp_path) == reference_eval_files(trace)


# -- one call per target equals the per-pair report, byte for byte ------------------

def assert_report_equals_the_per_pair_reference(trace, tmp_path, timings=None, grid=3,
                                                metadata=None):
    """The summary, its text and every CSV equal the report that measured
    each agent and target on its own; so do `distance_series` of every pair
    and its `ttc` at `grid` times spread over the trace."""
    got = build_report(trace, metadata, timings)
    want = ref_build_report(trace, metadata, timings)
    assert (json.dumps(got.to_dict(), sort_keys=True)
            == json.dumps(want.to_dict(), sort_keys=True))
    assert got.to_text() == want.to_text()
    assert {path.name: path.read_text() for path in got.write_csv(tmp_path)} == ref_csv_files(want)
    ts = trace.times
    times = sorted({ts[k * (len(ts) - 1) // max(grid - 1, 1)] for k in range(grid)})
    for aid in trace.rows:
        for target in (*trace.unsafe, *(other for other in trace.rows if other != aid)):
            assert (repr(distance_series(trace, aid, target, metadata))
                    == repr(ref_distance_series(trace, aid, target, metadata)))
            for t in times:
                assert (repr(ttc(trace, aid, target, t, metadata))
                        == repr(ref_ttc(trace, aid, target, t, metadata)))


@pytest.mark.parametrize("doc", every_document())
def test_report_equals_the_per_pair_reference(doc, tmp_path):
    """As `rtakit eval` reads the trace, at the first, middle and last
    sample."""
    executed = execute(build_scenario(config_from_dict(doc)))
    trace = ExecutionTrace.from_dict(json.loads(executed.to_json()))
    assert_report_equals_the_per_pair_reference(trace, tmp_path)


def _agents_only_trace():
    """No sets, so every target is an agent and the workspace dimension
    comes from the metadata: `head` meets `ego` at sample 5 and `wing`
    flies beside it."""
    return make_trace({"ego": _course(T8, [-2.0, 0.0], [4.0, 0.0]),
                       "head": _course(T8, [2.0, 0.0], [-4.0, 0.0]),
                       "wing": _course(T8, [-2.0, 1.0], [4.0, 0.0])})


@pytest.mark.parametrize("make, metadata",
                         [*((make, None) for make in HAND_MADE.values()),
                          (_agents_only_trace, META2)],
                         ids=[*HAND_MADE, "agents-only"])
def test_hand_made_report_equals_the_per_pair_reference(make, metadata, tmp_path):
    """In memory, at every sample."""
    trace = make()
    timings = {aid: [0.001] for aid in trace.rows}
    assert_report_equals_the_per_pair_reference(trace, tmp_path, timings, len(trace.times),
                                                metadata)
