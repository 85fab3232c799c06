"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
and the recorded (not asserted) timing table.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rtakit import (
    Ball,
    Hyperrectangle,
    Mode,
    PointSet,
    Polytope,
    ReachRta,
    ScenarioMetadata,
    SimRta,
    build_scenario,
    computation_time_stats,
    controller_usage,
    distance_series,
    execute,
    ttc,
    validate_trace_dict,
)
from rtakit.cli import main as cli_main
from helpers import (
    acc_scenario_config,
    grid_distance_oracle,
    make_trace,
    random_acc_config,
    random_polytope,
    sim_rta_binding,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def verdict(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def min_set_distance(trace, agent_id, set_id):
    series = distance_series(trace, agent_id, set_id, ScenarioMetadata(workspace_dim=None))
    return min(v for _, v in series)


# -- 1. ACC safety flip ---------------------------------------------------------

def test_acc_safety_flip():
    plain = build_scenario(acc_scenario_config(dt=0.1, horizon=5.0))
    start = time.perf_counter()
    bare_trace = execute(plain)
    bare_s = time.perf_counter() - start
    bare_min = min_set_distance(bare_trace, "follower", "unsafe1")

    binding = sim_rta_binding(horizon=1.0)
    guarded = build_scenario(acc_scenario_config(dt=0.1, horizon=5.0, rta=binding))
    start = time.perf_counter()
    rta_trace = execute(guarded)
    rta_s = time.perf_counter() - start
    rta_min = min_set_distance(rta_trace, "follower", "unsafe1")

    verdict(
        "acc-safety-flip",
        bare_min == 0.0 and rta_min > 0.0 and bare_s < 1.0 and rta_s < 1.0,
        f"no-RTA min dist {bare_min:.3f} ({bare_s:.3f} s), "
        f"SimRTA min dist {rta_min:.3f} ({rta_s:.3f} s)",
    )


# -- 2 + 3. zero-bloat equivalence and conservativeness ---------------------------

def _decision_sweep(n_traces=100, horizon=2.0, seed=1234):
    """Per randomized trace, replay every decision prefix through SimRta,
    ReachRta with zero bloat, and ReachRta with positive bloat."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    violations = 0
    decisions = 0
    traces = []
    for _ in range(n_traces):
        scenario = build_scenario(random_acc_config(rng, horizon=horizon,
                                                    rta=sim_rta_binding()))
        trace = execute(scenario)
        traces.append((scenario, trace))
        sim = SimRta(horizon=1.0)
        reach0 = ReachRta(horizon=1.0, bloat_rate=0.0)
        reach_pos = ReachRta(horizon=1.0, bloat_rate=0.5)
        for logic in (sim, reach0, reach_pos):
            logic.bind(scenario, "follower")
        for k in range(trace.n_samples() - 1):
            prefix = trace.prefix(k)
            m_sim = sim.decide(prefix)
            m_zero = reach0.decide(prefix)
            m_pos = reach_pos.decide(prefix)
            decisions += 1
            if m_sim is not m_zero:
                mismatches += 1
            if m_sim is Mode.SAFETY and m_pos is not Mode.SAFETY:
                violations += 1
    return mismatches, violations, decisions, traces


_SWEEP_CACHE = {}


def decision_sweep():
    if "result" not in _SWEEP_CACHE:
        _SWEEP_CACHE["result"] = _decision_sweep()
    return _SWEEP_CACHE["result"]


def test_zero_bloat_equivalence():
    mismatches, _, decisions, _ = decision_sweep()
    verdict(
        "zero-bloat-equivalence",
        mismatches == 0 and decisions >= 100,
        f"{mismatches} mismatches over {decisions} decisions",
    )


def test_reach_conservativeness():
    _, violations, decisions, _ = decision_sweep()
    verdict(
        "reach-conservativeness",
        violations == 0,
        f"{violations} violations over {decisions} decisions",
    )


# -- 4. geometry oracle ------------------------------------------------------------

def test_geometry_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        rows = int(rng.integers(3, 9))
        A, b = random_polytope(rng, dim, rows)
        poly = Polytope(A, b)
        q = rng.normal(scale=3.0, size=dim)
        want = grid_distance_oracle(A, b, q, np.zeros(dim))
        got = poly.distance(q)
        worst = max(worst, abs(got - want))
    oracle_ok = worst <= 1e-3

    equiv_ok = True
    shapes = [
        PointSet([0.5, -0.5]),
        Ball([1.0, 1.0], 1.5),
        Hyperrectangle([-1.0, -2.0], [1.0, 0.0]),
        Polytope([[1, 1], [-1, 0], [0, -1]], [1.0, 1.0, 1.0]),
    ]
    for s in shapes:
        for _ in range(300):
            q = rng.uniform(-4.0, 4.0, size=2)
            d = s.distance(q)
            if s.contains(q) and d > 1e-9:
                equiv_ok = False
            if d > 1e-9 and s.contains(q):
                equiv_ok = False
            if not s.contains(q) and d == 0.0:
                equiv_ok = False
    verdict(
        "geometry-oracle",
        oracle_ok and equiv_ok,
        f"max |distance - oracle| = {worst:.2e}; contains<->distance consistent",
    )


# -- 5. analytic TTC ----------------------------------------------------------------

def test_ttc_analytic():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        r = rng.uniform(0.1, 10.0)
        g = r + rng.uniform(0.5, 20.0)
        s = rng.uniform(0.1, 5.0)
        # one time unit at speed s: the backward difference at t = 1 is s
        trace = make_trace({"ego": [[0.0, -s], [1.0, 0.0]]},
                           sets={"ball": ("ball", [[[g], r]] * 2)})
        got = ttc(trace, "ego", "ball", 1.0, ScenarioMetadata(workspace_dim=1))
        worst = max(worst, abs(got - (g - r) / s))
    verdict("ttc-analytic", worst <= 1e-9, f"max |ttc - (g-r)/s| = {worst:.2e}")


# -- 6. metric invariants --------------------------------------------------------------

def test_metric_invariants():
    _, _, _, traces = decision_sweep()
    binding = sim_rta_binding()
    scenario = build_scenario(acc_scenario_config(rta=binding))
    traces = traces + [(scenario, execute(scenario))]

    ok = True
    detail = "all traces satisfy usage/switch/timing invariants"
    for built, trace in traces:
        for aid in trace.agent_ids():
            usage, switches = controller_usage(trace, aid)
            modes = trace.mode_trace(aid)
            if modes:
                if abs(sum(usage.values()) - 100.0) > 1e-9:
                    ok, detail = False, f"usage sum off for {aid}"
                recount = sum(1 for a, b in zip(modes, modes[1:]) if a is not b)
                if switches != recount or switches > len(modes) - 1 + 1:
                    ok, detail = False, f"switch count mismatch for {aid}"
        for spec in built.config.agents:
            if spec.rta is not None and spec.rta.collector is not None:
                durations = spec.rta.collector.durations
                stats = computation_time_stats(durations)
                if durations:
                    if not (stats.min <= stats.avg <= stats.max):
                        ok, detail = False, "timing stats out of order"
                    if any(d < 0 or not math.isfinite(d) for d in durations):
                        ok, detail = False, "negative or nonfinite duration"
    verdict("metric-invariants", ok, detail)


# -- 7. schema conformance ---------------------------------------------------------------

def test_schema_conformance(tmp_path):
    out = tmp_path / "trace.json"
    code = cli_main(["run", "--config", str(CONFIGS / "acc_sim_rta.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    validate_trace_dict(doc)
    ball_rows = doc["unsafe"]["unsafe1"]["state_trace"]
    layout_ok = all(
        isinstance(row[1], list)
        and len(row[1]) == 2
        and isinstance(row[1][0], list)
        and isinstance(row[1][1], (int, float))
        for row in ball_rows
    )
    # the near-edge indexing the 1-D switching logic relies on
    first = ball_rows[0][1]
    edge_ok = first[0][0] - first[1] == pytest.approx(3.0)

    external = {
        "agents": {
            "probe": {
                "state_trace": [[0.0, 1.0, 0.5], [1.0, 1.5, 0.5]],
                "mode_trace": ["UNTRUSTED"],
            }
        },
        "unsafe": {
            "pt": {"type": "point", "state_trace": [[0.0, [9.0]], [1.0, [9.0]]]},
        },
    }
    ext_path = tmp_path / "external.json"
    ext_path.write_text(json.dumps(external))
    ext_code = cli_main(["eval", str(ext_path), "--out", str(tmp_path / "ext_report")])
    verdict(
        "schema-conformance",
        code == 0 and layout_ok and edge_ok and ext_code == 0,
        "emitted trace validates; ball payload is [[center], radius]; external trace evaluates",
    )


# -- 8. determinism ------------------------------------------------------------------------

def test_determinism(tmp_path):
    short_dubins = {
        "workspace_dim": 2,
        "time": {"dt": 0.05, "T": 2.0},
        "agents": [
            {"id": "leader", "model": "dubins_car",
             "params": {"nominal": "track", "waypoints": [[10.0, 0.0]]},
             "init": [0.0, 0.0, 0.0, 1.0], "mode": "NORMAL"},
            {"id": "ego", "model": "dubins_car",
             "params": {"leader_id": "leader", "formation_offset": [-2.0, 0.0]},
             "init": [-4.0, 1.0, 0.0, 1.0], "mode": "UNTRUSTED",
             "rta": {"type": "reach", "horizon": 0.5, "bloat_rate": 0.2}},
        ],
        "unsafe_sets": [
            {"id": "ball", "type": "ball", "definition": [[0.0, 0.0], 1.0],
             "anchor": "leader", "offset": [0.0, 0.0]}
        ],
    }
    short_gcas = {
        "workspace_dim": 3,
        "time": {"dt": 0.05, "T": 2.0},
        "agents": [
            {"id": "plane", "model": "dubins_plane",
             "params": {"waypoints": [[30.0, 0.0, -10.0]]},
             "init": [0.0, 0.0, 5.0, 0.0, -0.2, 2.0], "mode": "UNTRUSTED",
             "rta": {"type": "sim", "horizon": 1.0}},
        ],
        "unsafe_sets": [
            {"id": "ground", "type": "polytope",
             "definition": [[[0.0, 0.0, 1.0]], [0.0]]}
        ],
    }
    paths = [CONFIGS / "acc_sim_rta.json"]
    for name, doc in (("dubins_short.json", short_dubins), ("gcas_short.json", short_gcas)):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths.append(p)

    ok = True
    for cfg in paths:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli_main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            ok = False
    verdict("determinism", ok, f"{len(paths)} configs re-run byte-identical")


# -- 9. desk-scale scenarios -----------------------------------------------------------------

def test_desk_scale_scenarios(tmp_path):
    rows = []
    results = {}
    for name, egos, sets in (
        ("dubins", ["ego1", "ego2"], ["leader_ball", "building"]),
        ("gcas", ["plane"], ["ground"]),
    ):
        out = tmp_path / f"{name}_trace.json"
        code = cli_main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)])
        assert code == 0, f"{name} run failed"
        outdir = tmp_path / f"{name}_report"
        start = time.perf_counter()
        eval_code = cli_main(["eval", str(out), "--out", str(outdir)])
        eval_s = time.perf_counter() - start
        assert eval_code == 0, f"{name} eval failed"
        summary = json.loads((outdir / "summary.json").read_text())
        timings_doc = json.loads((tmp_path / f"{name}_trace.timings.json").read_text())
        results[name] = (summary, egos, sets)
        comp_ms = [
            1e3 * sum(v) / len(v) for v in timings_doc["timings"].values() if v
        ]
        rows.append(
            (name, timings_doc["exec_time"], max(comp_ms) if comp_ms else float("nan"), eval_s)
        )

    print("\nrecorded timings (not asserted):")
    print(f"{'scenario':>10} {'exec (s)':>10} {'RTA comp (ms)':>14} {'eval (s)':>10}")
    for name, exec_s, comp_ms, eval_s in rows:
        print(f"{name:>10} {exec_s:>10.3f} {comp_ms:>14.3f} {eval_s:>10.3f}")

    ok = True
    detail = []
    for name, (summary, egos, sets) in results.items():
        for ego in egos:
            agent = summary["agents"][ego]
            if not agent["usage_percent"] or agent["timing"]["count"] == 0:
                ok = False
            for sid in sets:
                dmin = agent["min_distance_to_sets"][sid]
                detail.append(f"{name}:{ego} vs {sid} min {dmin:.3f}")
                if not dmin > 0.0:
                    ok = False
    verdict("desk-scale-scenarios", ok, "; ".join(detail))
