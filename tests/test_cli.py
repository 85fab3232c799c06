"""Command-line round trips: run, eval, snapshot, exit codes."""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rtakit.agents import AccAgent
from rtakit import config
from rtakit.cli import main
from rtakit.config import MODELS, ConfigError, config_from_dict
from rtakit import validate_trace_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def acc_doc(**overrides):
    doc = {
        "workspace_dim": 1,
        "time": {"dt": 0.1, "T": 5.0},
        "agents": [
            {
                "id": "follower",
                "model": "acc",
                "params": {"leader_id": "leader"},
                "init": [0.0, 1.0],
                "mode": "UNTRUSTED",
                "rta": {"type": "sim", "horizon": 1.0},
            },
            {"id": "leader", "model": "acc", "init": [5.0, 1.0], "mode": "NORMAL"},
        ],
        "unsafe_sets": [
            {
                "id": "unsafe1",
                "type": "ball",
                "definition": [[0.0], 7.0],
                "anchor": "leader",
                "offset": [5.0],
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_run_writes_expected_grid(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    assert code == 0
    assert "exec time" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    validate_trace_dict(doc)
    assert len(doc["agents"]["follower"]["state_trace"]) == 51
    assert (tmp_path / "trace.timings.json").exists()


def test_run_twice_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(CONFIGS / "acc_sim_rta.json"), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(CONFIGS / "acc_sim_rta.json"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_seed_check(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out), "--seed-check"])
    assert code == 0
    assert "seed-check passed" in capsys.readouterr().out


def test_run_unknown_model_names_it(tmp_path, capsys):
    doc = acc_doc()
    doc["agents"][0]["model"] = "hovercraft"
    code = main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "hovercraft" in capsys.readouterr().err


def test_run_missing_time_section(tmp_path, capsys):
    doc = acc_doc()
    del doc["time"]
    code = main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "time" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "t.json")]) == 2


def test_run_dangling_anchor(tmp_path, capsys):
    doc = acc_doc()
    doc["unsafe_sets"][0]["anchor"] = "ghost"
    code = main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "anchor" in capsys.readouterr().err


def test_run_dangling_leader(tmp_path, capsys):
    # Used to pass config and fail at the first step, exit 3.
    doc = acc_doc()
    doc["agents"][0]["params"]["leader_id"] = "ghost"
    code = main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "agent 'follower': leader 'ghost' does not name an agent" in capsys.readouterr().err


@pytest.mark.parametrize("agent, key, value", [
    (0, "waypoints", [[18, 0, 1], [18, 14, 2]]),
    (1, "formation_offset", [-2.5]),
    (1, "formation_offset", [-2.5, 0.0, 9.0]),
], ids=["3-d-waypoints", "1-d-offset", "3-d-offset"])
def test_run_rejects_points_off_the_position_dim(tmp_path, capsys, agent, key, value):
    # These used to get past config: the first failed in ego1's RTA, the
    # second with "list index out of range", the third ran on two of its
    # three coordinates.
    doc = json.loads((CONFIGS / "dubins.json").read_text())
    doc["agents"][agent]["params"][key] = value
    code = main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"agents[{agent}].params" in err and "position_dim = 2" in err


@pytest.mark.parametrize("params", [[1, 2], "ab"])
def test_run_params_must_be_an_object(tmp_path, capsys, params):
    doc = acc_doc()
    doc["agents"][0]["params"] = params
    code = main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "agents[0].params: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("waypoints", [[1.0]]), ("formation_offset", [1.0])])
def test_run_rejects_wiring_the_model_does_not_take(tmp_path, capsys, key, value):
    doc = acc_doc()
    doc["agents"][0]["params"][key] = value
    code = main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "agents[0].params" in err and key in err


def _one_agent_doc(model, params):
    dim = MODELS[model].position_dim
    return {"workspace_dim": dim, "time": {"dt": 0.1, "T": 1.0},
            "agents": [{"id": "a", "model": model, "params": params,
                        "init": [0.0] * MODELS[model].state_dim}]}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_model_params_are_its_dataclass_fields(model):
    fields = dataclasses.fields(MODELS[model].params_type)
    config = config_from_dict(_one_agent_doc(model, {f.name: f.default for f in fields}))
    assert config.agents[0].model.params == MODELS[model].params_type()
    with pytest.raises(ConfigError, match="unknown fields"):
        config_from_dict(_one_agent_doc(model, {"not_a_field": 1.0}))


def test_acc_leader_speed_is_rejected():
    with pytest.raises(ConfigError, match="leader_speed"):
        config_from_dict(_one_agent_doc("acc", {"leader_speed": 1.0}))


def _rename(entry, old, new):
    entry[new] = entry.pop(old)


@pytest.mark.parametrize("edit, where, key", [
    (lambda d: d.update(unsafe_set=d.pop("unsafe_sets")), "<document>", "unsafe_set"),
    (lambda d: d["time"].update(t0=0.0), "time", "t0"),
    (lambda d: _rename(d["agents"][0], "rta", "rtaa"), "agents[0]", "rtaa"),
    (lambda d: d["agents"][0]["rta"].update(type="reach", bloat=0.5), "agents[0].rta", "bloat"),
    (lambda d: _rename(d["unsafe_sets"][0], "anchor", "ancor"), "unsafe_sets[0]", "ancor"),
], ids=["document", "time", "agent", "rta", "unsafe-set"])
def test_config_rejects_keys_the_schema_forbids(edit, where, key):
    # Each of these misspellings used to be ignored: the follower ran
    # without its RTA, ReachRta took the default bloat rate, the anchored
    # ball stood still.
    doc = json.loads((CONFIGS / "acc_sim_rta.json").read_text())
    edit(doc)
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert str(err.value).startswith(f"{where}: unknown field {key!r}")


def test_config_keys_are_the_schema_properties():
    schema = json.loads((CONFIGS.parent / "schema" / "scenario.schema.json").read_text())
    agent = schema["properties"]["agents"]["items"]
    assert set(schema["properties"]) == config.DOCUMENT_KEYS
    assert set(schema["properties"]["time"]["properties"]) == config.TIME_KEYS
    assert set(agent["properties"]) == config.AGENT_KEYS
    assert set(agent["properties"]["rta"]["properties"]) == config.RTA_KEYS
    assert set(schema["properties"]["unsafe_sets"]["items"]["properties"]) == config.UNSAFE_SET_KEYS


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["agents"][0]["rta"].pop("type"), "agents[0].rta: missing required field 'type'"),
    (lambda d: d["agents"][0].update(id=""), "agents[0].id: expected a nonempty string"),
    (lambda d: d["agents"][1].update(id=7), "agents[1].id: expected a nonempty string, got 7"),
    (lambda d: d["unsafe_sets"][0].update(id=""), "unsafe_sets[0].id: expected a nonempty string"),
    (lambda d: d["unsafe_sets"][0].update(id=["u"]),
     "unsafe_sets[0].id: expected a nonempty string, got ['u']"),
])
def test_config_requires_rta_type_and_string_ids(edit, message):
    doc = json.loads((CONFIGS / "acc_sim_rta.json").read_text())
    edit(doc)
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert message in str(err.value)


@pytest.mark.parametrize("rta, where", [
    ({"type": "none", "horizon": -1.0}, "agents[0].rta.horizon"),
    ({"type": "none", "horizon": "x"}, "agents[0].rta.horizon"),
    ({"type": "sim", "bloat_rate": -3}, "agents[0].rta.bloat_rate"),
], ids=["none-negative-horizon", "none-string-horizon", "sim-negative-bloat-rate"])
def test_run_checks_every_given_rta_key_whatever_the_type(tmp_path, capsys, rta, where):
    # A "none" block used to skip its horizon, and a "sim" block its bloat
    # rate, so these ran although the schema rejects them.
    jsonschema = pytest.importorskip("jsonschema")
    doc = acc_doc()
    doc["agents"][0]["rta"] = rta
    schema = json.loads((CONFIGS.parent / "schema" / "scenario.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
    out = tmp_path / "t.json"
    code = main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    assert code == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


def _set_time_horizon(doc, value):
    doc["time"]["T"] = value


def _set_init(doc, value):
    doc["agents"][0]["init"][1] = value


def _set_rta_horizon(doc, value):
    doc["agents"][0]["rta"]["horizon"] = value


def _set_ball_radius(doc, value):
    doc["unsafe_sets"][0]["definition"][1] = value


@pytest.mark.parametrize("setter, where", [
    (_set_time_horizon, "time.T"),
    (_set_init, "agents[0].init[1]"),
    (_set_rta_horizon, "agents[0].rta.horizon"),
    (_set_ball_radius, "unsafe_sets[0].definition"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400],
                         ids=["nan", "inf", "int-past-float"])
def test_run_rejects_nonfinite_numbers(tmp_path, capsys, setter, where, value):
    doc = acc_doc()
    setter(doc, value)
    out = tmp_path / "t.json"
    code = main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    assert code == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, where", [
    ("definition", [[True], 7.0], "unsafe_sets[0].definition[0][0]: expected a number"),
    ("definition", [["0.5"], 7.0], "unsafe_sets[0].definition[0][0]: expected a number"),
    ("definition", [[0.0], "7"], "unsafe_sets[0].definition[1]: expected a number"),
    ("offset", [False], "unsafe_sets[0].offset[0]: expected a finite number"),
], ids=["bool-center", "string-center", "string-radius", "bool-offset"])
def test_config_set_numbers_must_be_numbers(key, value, where):
    doc = acc_doc()
    doc["unsafe_sets"][0][key] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert where in str(err.value)


@pytest.mark.parametrize("model, params, where", [
    ("dubins_car", {"k_heading": float("nan")}, "agents[0].params.k_heading"),
    ("dubins_car", {"k_speed": float("inf")}, "agents[0].params.k_speed"),
    ("dubins_car", {"v_max": float("nan")}, "agents[0].params.v_max"),
    ("dubins_plane", {"k_gamma": float("nan")}, "agents[0].params.k_gamma"),
    ("acc", {"follow_distance": float("nan")}, "agents[0].params.follow_distance"),
    ("dubins_car", {"waypoints": [[float("nan"), 5.0]]}, "agents[0].params.waypoints[0][0]"),
    ("dubins_car", {"waypoints": [[1.0, 1.0], [2.0, float("inf")]]},
     "agents[0].params.waypoints[1][1]"),
    ("dubins_car", {"leader_id": "a", "formation_offset": [0.0, float("nan")]},
     "agents[0].params.formation_offset[1]"),
])
def test_run_rejects_nonfinite_model_params(tmp_path, capsys, model, params, where):
    # NaN gains and waypoints used to run and end in a NaN state; a NaN
    # v_max used to be reported as a bad v_cruise.
    doc = _one_agent_doc(model, params)
    out = tmp_path / "t.json"
    code = main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    assert code == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, message", [
    ({"k_heading": "fast"}, "agents[0].params.k_heading: expected a finite number"),
    ({"waypoints": [1.0, 2.0]}, "agents[0].params.waypoints[0]: expected a list"),
    ({"waypoints": {"x": 1.0}}, "agents[0].params.waypoints: expected a list"),
    ({"leader_id": "a", "formation_offset": 1.0},
     "agents[0].params.formation_offset: expected a list"),
])
def test_malformed_model_params_name_the_field(params, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(_one_agent_doc("dubins_car", params))
    assert message in str(err.value)


def test_usage_error_exit_code():
    assert main(["run"]) == 1
    assert main([]) == 1


def test_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc_sim_rta.json"), "--out", str(out)])
    outdir = tmp_path / "report"
    code = main(["eval", str(out), "--out", str(outdir)])
    assert code == 0
    assert "eval time" in capsys.readouterr().out
    summary = json.loads((outdir / "summary.json").read_text())
    usage = summary["agents"]["follower"]["usage_percent"]
    assert sum(usage.values()) == pytest.approx(100.0, abs=1e-9)
    assert (outdir / "summary.txt").exists()
    assert list(outdir.glob("*__dist_set__*.csv"))
    # timing samples from the run's timings file are folded in
    assert summary["agents"]["follower"]["timing"]["count"] == 50


def test_eval_external_trace(tmp_path):
    # hand-written document in the wire format, not produced by this engine
    doc = {
        "agents": {
            "probe": {
                "state_trace": [[0.0, 0.0, 1.0], [0.5, 0.5, 1.0], [1.0, 1.0, 1.0]],
                "mode_trace": ["NORMAL", "SAFETY"],
            }
        },
        "unsafe": {
            "zone": {
                "type": "hyperrectangle",
                "state_trace": [
                    [0.0, [[5.0], [6.0]]],
                    [0.5, [[5.0], [6.0]]],
                    [1.0, [[5.0], [6.0]]],
                ],
            }
        },
    }
    trace_path = tmp_path / "external.json"
    trace_path.write_text(json.dumps(doc))
    outdir = tmp_path / "report"
    assert main(["eval", str(trace_path), "--out", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["agents"]["probe"]["min_distance_to_sets"]["zone"] == pytest.approx(4.0)


@pytest.mark.parametrize("agent_id", ["../../escaped", ".."])
def test_eval_rejects_an_id_that_is_not_one_path_component(tmp_path, capsys, agent_id):
    # `../../escaped` used to write a/escaped__mode.csv and
    # a/escaped__dist_set__b.csv, outside --out a/b/report.
    doc = {
        "agents": {agent_id: {"state_trace": [[0.0, 0.0], [0.5, 0.5]], "mode_trace": ["NORMAL"]}},
        "unsafe": {"b": {"type": "point", "state_trace": [[0.0, [3.0]], [0.5, [3.0]]]}},
    }
    trace_path = tmp_path / "t.json"
    trace_path.write_text(json.dumps(doc))
    code = main(["eval", str(trace_path), "--out", str(tmp_path / "a" / "b" / "report")])
    assert code == 2
    assert f"id {agent_id!r} is not a single path component" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["t.json"]


def test_eval_corrupt_trace_names_path(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["agents"]["follower"]["state_trace"][3] = [0.3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["eval", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "agents.follower.state_trace" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "snapshot"])
@pytest.mark.parametrize("cell, value", [
    ((2, 0), "Infinity"),
    ((3, 1), "NaN"),
    ((3, 2), "1" + "0" * 400),
], ids=["inf-timestamp", "nan-state", "int-past-float"])
def test_nonfinite_trace_number_is_a_located_validation_error(command, cell, value,
                                                               tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    row, col = cell
    doc["agents"]["follower"]["state_trace"][row][col] = "CELL"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"CELL"', value))
    capsys.readouterr()
    argv = {"eval": ["eval", str(bad), "--out", str(tmp_path / "r")],
            "snapshot": ["snapshot", str(bad), "--time", "0.0"]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"agents.follower.state_trace[{row}][{col}]: expected a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", [
    "[]",
    "{}",
    '{"timings": []}',
    '{"timings": {"follower": 0.1}}',
    '{"timings": {"follower": ["x"]}}',
    '{"timings": {"follower": [true]}}',
    '{"timings": {"follower": [-1.0]}}',
    '{"timings": {"follower": [NaN]}}',
    '{"timings": {"follower": [1' + "0" * 400 + ']}}',
    "not json",
])
def test_eval_rejects_malformed_timings_file(tmp_path, capsys, text):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    bad = tmp_path / "bad.timings.json"
    bad.write_text(text)
    capsys.readouterr()
    code = main(["eval", str(out), "--out", str(tmp_path / "r"), "--timings", str(bad)])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_eval_of_an_empty_polytope_payload_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    times = [row[0] for row in doc["agents"]["follower"]["state_trace"]]
    # x <= -1 and x >= 1: no point satisfies both
    doc["unsafe"]["empty"] = {"type": "polytope",
                              "state_trace": [[t, [[[1.0], [-1.0]], [-1.0, -1.0]]]
                                              for t in times]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", str(bad), "--out", str(tmp_path / "r")]) == 2
    assert "polytope projection found no feasible point" in capsys.readouterr().err


def test_run_of_a_config_with_an_empty_polytope_is_a_validation_error(tmp_path, capsys):
    doc = json.loads((CONFIGS / "gcas.json").read_text())
    # z <= 0 and z >= 1: no point satisfies both
    doc["unsafe_sets"].append({"id": "empty", "type": "polytope",
                               "definition": [[[0, 0, 1], [0, 0, -1]], [0, -1]]})
    out = tmp_path / "t.json"
    assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unsafe_sets[1].definition" in err and "polytope is empty" in err
    assert not out.exists()


def test_run_rejects_a_horizon_shorter_than_a_step(tmp_path, capsys):
    doc = acc_doc()
    doc["agents"][0]["rta"]["horizon"] = 0.05
    out = tmp_path / "t.json"
    assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert "'follower'" in capsys.readouterr().err
    assert not out.exists()


def test_eval_missing_file(tmp_path):
    assert main(["eval", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")]) == 2


def test_eval_rejects_missing_explicit_timings_file(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc_sim_rta.json"), "--out", str(out)])
    missing = tmp_path / "nope.json"
    capsys.readouterr()
    code = main(["eval", str(out), "--out", str(tmp_path / "r"), "--timings", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_snapshot_prints_state(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    capsys.readouterr()
    assert main(["snapshot", str(out), "--time", "0.0"]) == 0
    text = capsys.readouterr().out
    assert "t = 0" in text
    assert "follower" in text and "unsafe1" in text


def test_snapshot_mid_run_floors_to_grid(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    capsys.readouterr()
    assert main(["snapshot", str(out), "--time", "2.55"]) == 0
    text = capsys.readouterr().out
    row = doc["agents"]["follower"]["state_trace"][25]
    assert f"{row[1]}" in text


def test_snapshot_out_of_range(tmp_path):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    assert main(["snapshot", str(out), "--time", "99.0"]) == 2


def test_snapshot_rejects_nan_time(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(out)])
    capsys.readouterr()
    assert main(["snapshot", str(out), "--time", "nan"]) == 2
    captured = capsys.readouterr()
    assert "outside the recorded range" in captured.err
    assert captured.out == ""


def test_snapshot_missing_file_is_a_validation_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["snapshot", str(missing), "--time", "0.0"]) == 2
    assert f"trace file not found: {missing}" in capsys.readouterr().err


def test_run_eval_fuzz_all_models(tmp_path):
    rng = np.random.default_rng(23)
    for i in range(6):
        model = ("acc", "dubins_car", "dubins_plane")[i % 3]
        if model == "acc":
            agents = [
                {"id": "ego", "model": "acc", "params": {"leader_id": "lead"},
                 "init": [float(rng.uniform(-5, 5)), float(rng.uniform(-2, 2))],
                 "mode": "UNTRUSTED",
                 "rta": {"type": ("sim", "reach")[i % 2], "horizon": 0.5}},
                {"id": "lead", "model": "acc",
                 "init": [float(rng.uniform(6, 12)), 1.0], "mode": "NORMAL"},
            ]
            sets = [{"id": "u", "type": "ball", "definition": [[0.0], 2.0],
                     "anchor": "lead", "offset": [1.0]}]
            dim = 1
        elif model == "dubins_car":
            agents = [
                {"id": "ego", "model": "dubins_car",
                 "params": {"waypoints": [[again, again] for again in (5.0, 9.0)],
                            "v_cruise": 2.0},
                 "init": [0.0, 0.0, 0.0, 1.0], "mode": "UNTRUSTED",
                 "rta": {"type": "sim", "horizon": 0.5}},
            ]
            sets = [{"id": "u", "type": "hyperrectangle",
                     "definition": [[4.0, -1.0], [6.0, 1.0]]}]
            dim = 2
        else:
            agents = [
                {"id": "ego", "model": "dubins_plane",
                 "params": {"waypoints": [[30.0, 0.0, -5.0]]},
                 "init": [0.0, 0.0, 8.0, 0.0, -0.2, 2.0], "mode": "UNTRUSTED",
                 "rta": {"type": "sim", "horizon": 1.0}},
            ]
            sets = [{"id": "ground", "type": "polytope",
                     "definition": [[[0.0, 0.0, 1.0]], [0.0]]}]
            dim = 3
        doc = {"workspace_dim": dim, "time": {"dt": 0.1, "T": 2.0},
               "agents": agents, "unsafe_sets": sets}
        cfg = write_config(tmp_path, doc, name=f"fuzz{i}.json")
        out = tmp_path / f"fuzz{i}_trace.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["eval", str(out), "--out", str(tmp_path / f"fuzz{i}_report")]) == 0


def test_run_step_failure_is_a_runtime_error_naming_agent_and_time(tmp_path, capsys,
                                                                    monkeypatch):
    real = AccAgent.step

    def step(self, mode, state, dt, view):
        nxt = real(self, mode, state, dt, view)
        return [math.nan, nxt[1]] if self.agent_id == "leader" and state[0] > 6.05 else nxt

    monkeypatch.setattr(AccAgent, "step", step)
    code = main(["run", "--config", str(CONFIGS / "acc.json"), "--out", str(tmp_path / "t.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "anchored to agent 'leader' failed to resolve at t=1.2" in err
    assert not (tmp_path / "t.json").exists()
