"""Benchmark self-tests: every workload generator end to end at smoke size,
each checker rejecting a corrupted output, the span recorder, the scaling
of timed pieces by host speed, and the agreement of BENCHMARK.json with the
metrics the benchmark prints."""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from rtabench import checks, host, metrics, pipeline, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def validator():
    schema = json.loads((ROOT / "schema" / "trace.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def _outputs(doc: dict, outdir: Path) -> dict:
    pipeline.run_operation(doc, outdir)
    return {
        "doc": doc,
        "trace": json.loads((outdir / pipeline.TRACE_FILE).read_text()),
        "timings": json.loads((outdir / pipeline.TIMINGS_FILE).read_text()),
        "summary": json.loads((outdir / pipeline.REPORT_DIR / "summary.json").read_text()),
        "report_dir": outdir / pipeline.REPORT_DIR,
    }


@pytest.fixture(scope="module")
def gcas(tmp_path_factory):
    (name, doc), = workloads.gcas_ridge(7, smoke=True)
    return _outputs(doc, tmp_path_factory.mktemp("gcas"))


@pytest.fixture(scope="module")
def formation(tmp_path_factory):
    (name, doc), = workloads.dubins_formation(7, smoke=True)
    return _outputs(doc, tmp_path_factory.mktemp("formation"))


def _check_all(validator, out) -> None:
    checks.check_operation(validator, out["doc"], out["trace"], out["timings"],
                           out["summary"], out["report_dir"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_every_check(workload, validator, tmp_path):
    ops = workloads.WORKLOADS[workload](7, smoke=True)
    assert ops
    for name, doc in ops:
        _check_all(validator, _outputs(doc, tmp_path / name))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_seeded(workload):
    gen = workloads.WORKLOADS[workload]
    assert gen(3) == gen(3)
    assert gen(3) != gen(4)


# -- each checker rejects a corrupted output -------------------------------------

def test_baseline_outputs_pass(validator, gcas, formation):
    _check_all(validator, gcas)
    _check_all(validator, formation)


def test_schema_rejects_unknown_mode(validator, gcas):
    trace = copy.deepcopy(gcas["trace"])
    trace["agents"]["plane_sim"]["mode_trace"][0] = "FAST"
    with pytest.raises(checks.CheckFailure, match="schema"):
        checks.check_schema(validator, trace)


def test_grid_rejects_missing_sample_and_shifted_time(gcas):
    trace = copy.deepcopy(gcas["trace"])
    for entry in list(trace["agents"].values()) + list(trace["unsafe"].values()):
        entry["state_trace"].pop()
    with pytest.raises(checks.CheckFailure, match="grid"):
        checks.check_grid(gcas["doc"], trace)
    trace = copy.deepcopy(gcas["trace"])
    trace["agents"]["plane_reach"]["state_trace"][3][0] += 1e-12
    with pytest.raises(checks.CheckFailure, match="grid"):
        checks.check_grid(gcas["doc"], trace)


def test_modes_rejects_missing_mode(gcas):
    trace = copy.deepcopy(gcas["trace"])
    trace["agents"]["plane_sim"]["mode_trace"].pop()
    with pytest.raises(checks.CheckFailure, match="modes"):
        checks.check_modes(gcas["doc"], trace)


def test_timings_reject_missing_duration(gcas):
    timings = copy.deepcopy(gcas["timings"])
    timings["timings"]["plane_reach"].pop()
    with pytest.raises(checks.CheckFailure, match="timings"):
        checks.check_timings(gcas["doc"], gcas["trace"], timings)


def test_kinematics_rejects_position_shifted_by_one_step(gcas):
    trace = copy.deepcopy(gcas["trace"])
    rows = trace["agents"]["plane_sim"]["state_trace"]
    rows[5][1:4] = rows[6][1:4]
    with pytest.raises(checks.CheckFailure, match="kinematics"):
        checks.check_kinematics(gcas["doc"], trace)


def test_sets_reject_moved_anchored_ball(formation):
    trace = copy.deepcopy(formation["trace"])
    trace["unsafe"]["leader_ball"]["state_trace"][4][1][0][0] += 1e-3
    with pytest.raises(checks.CheckFailure, match="sets"):
        checks.check_sets(formation["doc"], trace)


def test_one_step_safety_rejects_untrusted_step_into_a_building(formation):
    doc = copy.deepcopy(formation["doc"])
    trace = copy.deepcopy(formation["trace"])
    aid, k = next((a["id"], k) for a in doc["agents"] if a.get("rta")
                  for k, m in enumerate(trace["agents"][a["id"]]["mode_trace"])
                  if m == "UNTRUSTED")
    x, y = trace["agents"][aid]["state_trace"][k + 1][1:3]
    box = [[x - 0.5, y - 0.5], [x + 0.5, y + 0.5]]
    next(s for s in doc["unsafe_sets"] if s["id"] == "building1")["definition"] = box
    for row in trace["unsafe"]["building1"]["state_trace"]:
        row[1] = copy.deepcopy(box)
    checks.check_sets(doc, trace)  # the moved building itself is consistent
    with pytest.raises(checks.CheckFailure, match="safety"):
        checks.check_one_step_safety(doc, trace)


def test_summary_rejects_flipped_mode(gcas):
    trace = copy.deepcopy(gcas["trace"])
    modes = trace["agents"]["plane_reach"]["mode_trace"]
    modes[2] = "SAFETY" if modes[2] == "UNTRUSTED" else "UNTRUSTED"
    with pytest.raises(checks.CheckFailure, match="summary"):
        checks.check_summary(gcas["doc"], trace, gcas["timings"], gcas["summary"])


@pytest.mark.parametrize("target", ["ground", "ridge"])
def test_summary_rejects_nudged_polytope_distance(gcas, target):
    summary = copy.deepcopy(gcas["summary"])
    summary["agents"]["plane_sim"]["min_distance_to_sets"][target] += 1e-3
    with pytest.raises(checks.CheckFailure, match=f"min distance to {target}"):
        checks.check_summary(gcas["doc"], gcas["trace"], gcas["timings"], summary)


def test_summary_rejects_nudged_distances_and_ttc(formation):
    args = (formation["doc"], formation["trace"], formation["timings"])
    for path in (("min_distance_to_sets", "building2"), ("min_distance_to_sets", "leader_ball"),
                 ("min_distance_to_agents", "leader")):
        summary = copy.deepcopy(formation["summary"])
        summary["agents"]["ego1"][path[0]][path[1]] += 1e-3
        with pytest.raises(checks.CheckFailure, match="min distance"):
            checks.check_summary(*args, summary)
    finite = [(aid, sid) for aid, rep in formation["summary"]["agents"].items()
              for sid, v in rep["min_ttc_to_sets"].items() if sid == "leader_ball" and v]
    aid, sid = finite[0]
    summary = copy.deepcopy(formation["summary"])
    summary["agents"][aid]["min_ttc_to_sets"][sid] *= 1.001
    with pytest.raises(checks.CheckFailure, match="min TTC"):
        checks.check_summary(*args, summary)


def test_summary_rejects_wrong_timing_stats(gcas):
    summary = copy.deepcopy(gcas["summary"])
    summary["agents"]["plane_sim"]["timing"]["max"] *= 2.0
    with pytest.raises(checks.CheckFailure, match="timing max"):
        checks.check_summary(gcas["doc"], gcas["trace"], gcas["timings"], summary)


def test_report_files_reject_missing_csv(gcas, tmp_path):
    report = tmp_path / "report"
    shutil.copytree(gcas["report_dir"], report)
    (report / "plane_sim__dist_set__ridge.csv").unlink()
    with pytest.raises(checks.CheckFailure, match="report files"):
        checks.check_report_files(gcas["trace"], report)


# -- traced run -------------------------------------------------------------------

def test_recorder_counts_spans_and_restores_the_program(tmp_path):
    from rtakit import rta, scenario

    originals = (scenario.predict, rta.predict, rta.RtaBinding.switch)
    (name, doc), = workloads.gcas_ridge(7, smoke=True)
    rec = tracing.Recorder()
    rec.install()
    try:
        assert rta.predict is not originals[1]
        times = pipeline.run_operation(doc, tmp_path)
        layers = rec.aggregate()
    finally:
        rec.uninstall()
    assert (scenario.predict, rta.predict, rta.RtaBinding.switch) == originals
    assert not rec.skipped
    ticks = checks.grid_size(doc) - 1
    assert layers["rta.switch.calls"] == 2 * ticks
    assert layers["scenario.predict.calls"] == 2 * ticks
    assert layers["scenario.advance.exec.calls"] == ticks
    assert layers["scenario.advance.rollout.calls"] == 2 * ticks * 40
    assert layers["scenario.execute.calls"] == 1
    assert layers["agents.step.dubins_plane.calls"] == 2 * (ticks + 2 * ticks * 40)
    assert layers["geometry.box_intersects.polytope.calls"] > 0
    assert layers["geometry.set_from_payload.per_read"] >= 1.0
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(layers["bench.attributed_s"], rel=1e-9, abs=1e-12)
    assert layers["bench.attributed_s"] <= times.wall_s


# -- scaling by host speed -----------------------------------------------------------

class _SteppedHost:
    """A host always due a sample, whose calibration loop takes 1, 2, 3, ...
    times the reference time."""

    scales = True

    def __init__(self):
        self.samples = []

    def due(self):
        return True

    def sample(self):
        self.samples.append(len(self.samples) + 1.0)

    def settle(self):
        pass

    def mark(self):
        return len(self.samples)

    def factor(self, mark):
        return 1.0 / self.samples[mark - 1]


def test_long_piece_is_split_at_its_breaks_and_scaled_per_chunk():
    class Namespace:
        @staticmethod
        def step():
            return "stepped"

    original = Namespace.step
    pieces = pipeline.Pieces(_SteppedHost())
    result = pieces.time("eval", lambda: [Namespace.step() for _ in range(3)],
                         breaks=[(Namespace, "step")])
    assert result == ["stepped"] * 3
    assert Namespace.step is original
    (chunks,) = pieces.chunks["eval"]
    assert [mark for _, mark in chunks] == [1, 2, 3, 4]
    assert pieces.raw["eval"] == [pytest.approx(sum(t for t, _ in chunks))]
    expected = sum(t / mark for t, mark in chunks)
    assert pieces.scaled()["eval"] == [pytest.approx(expected)]


def test_host_factor_is_reference_over_the_median_around_a_mark(monkeypatch):
    speed = host.HostSpeed()
    speed.samples = [2.0, 2.0, 4.0, 1.0, 1.0, 1.0, 1.0, 8.0, 8.0, 8.0, 8.0, 8.0]
    monkeypatch.setattr(host, "WINDOW", 2)
    assert speed.factor(3) == host.REFERENCE_S / 1.5  # median of 2, 4, 1, 1
    assert speed.factor(0) == host.REFERENCE_S / 2.0  # median of 2, 2
    assert host.Unscaled().factor(5) == 1.0


def test_end_to_end_figures_are_medians_over_rounds_of_each_piece():
    def op(ticks, eval_s):
        times = {stage: [] for stage in pipeline.STAGES}
        times.update(tick=ticks, decision=ticks, eval=[eval_s],
                     build=[0.5], dump=[0.1, 0.3], load=[0.2, 0.2], timings=[0.0])
        return pipeline.OpTimes(raw=times, scaled=times, wall_s=0.0, repeat_s=0.0,
                                trace_bytes=1)

    rounds = []
    for ticks, eval_s in (([1.0, 2.0], 3.0), ([9.0, 2.0], 1.0), ([1.0, 4.0], 2.0)):
        rnd = metrics.Round()
        rnd.add("a", op(ticks, eval_s))
        rounds.append(rnd)
    out = metrics.measured(rounds, import_s=1.0, which="raw")
    assert out["exec_s"] == 1.0 + 2.0  # per tick: median(1, 9, 1), median(2, 2, 4)
    assert out["eval_s"] == 2.0
    assert out["setup_s"] == 1.5
    assert out["trace_write_s"] == pytest.approx(0.2)  # median of 0.1, 0.3 pooled
    assert out["total_s"] == pytest.approx(1.5 + 3.0 + 0.2 + 0.2 + 2.0)


# -- BENCHMARK.json ------------------------------------------------------------------

def test_benchmark_json_matches_printed_metrics():
    from rtabench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "rtabench", tmp_path / "rtabench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "rtabench/run.py", "--workload", "acc-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "{" not in done.stdout


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "rtabench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_cli_runs_every_workload_from_one_seed():
    done = _cli("--workload", "all", "--seed", "5", "--seconds", "0.1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {f"{w}.{name}" for w in workloads.WORKLOADS
                                      for name, _ in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_traced_run_prints_every_layer_metric():
    done = _cli("--workload", "acc-sweep", "--seed", "5", "--seconds", "0.1", "--smoke",
                "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == list(metrics.PER_LAYER)
    assert result["metrics"]["agents.step.acc.calls"]["value"] > 0
    assert "unattributed" in done.stdout and "tracing overhead" in done.stdout
