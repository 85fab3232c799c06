"""Trace wire format: serialization round trips and schema validation."""
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from rtakit import (
    ExecutionTrace,
    Mode,
    TraceSchemaError,
    build_scenario,
    execute,
    parse_scenario_config,
    validate_trace_dict,
)
from rtakit import trace as trace_module
from rtakit.config import config_from_dict
from rtakit.trace import replace_text
from helpers import config_docs, make_trace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_agent_doc():
    return {
        "agents": {
            "ego": {
                "state_trace": [[0.0, 0.0, 1.0], [0.1, 0.1, 1.0]],
                "mode_trace": ["UNTRUSTED"],
            },
            "leader": {
                "state_trace": [[0.0, 5.0, 1.0], [0.1, 5.1, 1.0]],
                "mode_trace": ["NORMAL"],
            },
        },
        "unsafe": {
            "u1": {
                "type": "ball",
                "state_trace": [[0.0, [[10.0], 7.0]], [0.1, [[10.1], 7.0]]],
            }
        },
    }


def test_round_trip_preserves_document():
    doc = two_agent_doc()
    trace = ExecutionTrace.from_dict(doc)
    assert trace.to_dict() == doc
    again = ExecutionTrace.from_dict(json.loads(trace.to_json()))
    assert again.to_json() == trace.to_json()


def test_valid_document_passes():
    validate_trace_dict(two_agent_doc())


def test_missing_top_level_key():
    doc = two_agent_doc()
    del doc["unsafe"]
    with pytest.raises(TraceSchemaError):
        validate_trace_dict(doc)


def test_extra_top_level_key_rejected():
    doc = two_agent_doc()
    doc["meta"] = {}
    with pytest.raises(TraceSchemaError):
        validate_trace_dict(doc)


def test_mode_trace_length_mismatch_names_path():
    doc = two_agent_doc()
    doc["agents"]["ego"]["mode_trace"] = []
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path == "agents.ego.mode_trace"


def test_bad_state_row_names_path():
    doc = two_agent_doc()
    doc["agents"]["ego"]["state_trace"][1] = [0.1]
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path.startswith("agents.ego.state_trace")


def test_timestamps_must_match_across_agents():
    doc = two_agent_doc()
    doc["agents"]["leader"]["state_trace"][1][0] = 0.2
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert "leader" in err.value.path


def test_timestamps_must_increase():
    doc = two_agent_doc()
    for aid in doc["agents"]:
        doc["agents"][aid]["state_trace"][1][0] = 0.0
    doc["unsafe"]["u1"]["state_trace"][1][0] = 0.0
    with pytest.raises(TraceSchemaError):
        validate_trace_dict(doc)


def test_unknown_mode_rejected():
    doc = two_agent_doc()
    doc["agents"]["ego"]["mode_trace"] = ["AUTOPILOT"]
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert "AUTOPILOT" in str(err.value)


@pytest.mark.parametrize("name", [["SAFETY"], True, None, "safety"],
                         ids=["unhashable", "bool", "null", "lower-case"])
def test_mode_name_error_names_its_index(name):
    doc = two_agent_doc()
    doc["agents"]["ego"]["state_trace"].append([0.2, 0.2, 1.0])
    doc["agents"]["leader"]["state_trace"].append([0.2, 5.2, 1.0])
    doc["agents"]["leader"]["mode_trace"].append("NORMAL")
    doc["unsafe"]["u1"]["state_trace"].append([0.2, [[10.2], 7.0]])
    doc["agents"]["ego"]["mode_trace"].append(name)
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path == "agents.ego.mode_trace[1]"
    assert f"unknown mode {name!r}" in str(err.value)


def test_unknown_set_type_rejected():
    doc = two_agent_doc()
    doc["unsafe"]["u1"]["type"] = "ellipsoid"
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path == "unsafe.u1.type"


def test_a_set_id_that_is_also_an_agent_id_is_rejected():
    doc = two_agent_doc()
    doc["unsafe"]["leader"] = doc["unsafe"].pop("u1")
    with pytest.raises(TraceSchemaError, match="set id is also an agent id") as err:
        ExecutionTrace.from_dict(doc)
    assert err.value.path == "unsafe.leader"


def test_malformed_set_payload_rejected():
    doc = two_agent_doc()
    doc["unsafe"]["u1"]["state_trace"][0][1] = [[10.0]]
    with pytest.raises(TraceSchemaError):
        validate_trace_dict(doc)


def test_unsafe_sample_count_must_match():
    doc = two_agent_doc()
    doc["unsafe"]["u1"]["state_trace"].pop()
    with pytest.raises(TraceSchemaError):
        validate_trace_dict(doc)


@pytest.mark.parametrize("path", ["agents.ego", "agents.leader", "unsafe.u1"])
def test_an_empty_state_trace_is_named(path):
    doc = two_agent_doc()
    group, name = path.split(".")
    doc[group][name]["state_trace"] = []
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path == f"{path}.state_trace"
    assert str(err.value) == f"{path}.state_trace: must be a nonempty list"


def test_bool_is_not_a_number():
    doc = two_agent_doc()
    doc["agents"]["ego"]["state_trace"][0][1] = True
    with pytest.raises(TraceSchemaError):
        validate_trace_dict(doc)


@pytest.mark.parametrize("where, value, path", [
    ((0, 1, 0, 0), True, "unsafe.u1.state_trace[0][1][0][0]"),
    ((1, 1, 0, 0), "10.1", "unsafe.u1.state_trace[1][1][0][0]"),
    ((1, 1, 1), "7", "unsafe.u1.state_trace[1][1][1]"),
], ids=["bool-center", "string-center", "string-radius"])
def test_set_payload_entry_must_be_a_number(where, value, path):
    # The payload parse alone reads these as 1.0, 10.1 and 7.0.
    doc = two_agent_doc()
    node = doc["unsafe"]["u1"]["state_trace"]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path == path


def test_payload_equal_to_the_last_one_is_still_type_checked():
    # [[True], 7.0] == [[1.0], 7.0] in Python, so the repeat must not skip the test.
    doc = two_agent_doc()
    rows = doc["unsafe"]["u1"]["state_trace"]
    rows[0][1] = [[1.0], 7.0]
    rows[1][1] = [[True], 7.0]
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path == "unsafe.u1.state_trace[1][1][0][0]"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10 ** 400],
                         ids=["inf", "-inf", "nan", "int-past-float"])
@pytest.mark.parametrize("where, path", [
    (("agents", "ego", "state_trace", 1, 0), "agents.ego.state_trace[1][0]"),
    (("agents", "leader", "state_trace", 0, 2), "agents.leader.state_trace[0][2]"),
    (("unsafe", "u1", "state_trace", 1, 0), "unsafe.u1.state_trace[1][0]"),
    (("unsafe", "u1", "state_trace", 0, 1, 0, 0), "unsafe.u1.state_trace[0]"),
    (("unsafe", "u1", "state_trace", 0, 1, 1), "unsafe.u1.state_trace[0]"),
], ids=["timestamp", "state", "set-timestamp", "set-center", "set-radius"])
def test_nonfinite_number_names_path(value, where, path):
    doc = two_agent_doc()
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(doc)
    assert err.value.path == path


def _one_agent_doc(states):
    return {"agents": {"a": {"state_trace": states, "mode_trace": ["NORMAL"] * (len(states) - 1)}},
            "unsafe": {}}


@pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf, 10 ** 400, "1.0"],
                         ids=["true", "false", "nan", "inf", "-inf", "int-past-float", "string"])
@pytest.mark.parametrize("i, j", [(0, 0), (0, 3), (1, 1), (2, 2), (2, 3)])
def test_state_entry_must_be_a_finite_number(value, i, j):
    """Whichever entry of whichever row is bad, the error names it."""
    states = [[0.0, 1.0, 2, 3.0], [0.1, 1.5, 2, 3.0], [0.2, 2.0, 2, 3.0]]
    states[i][j] = value
    with pytest.raises(TraceSchemaError) as err:
        validate_trace_dict(_one_agent_doc(states))
    assert str(err.value) == (f"agents.a.state_trace[{i}][{j}]: "
                              f"expected a finite number, got {value!r}")


def test_state_rows_of_ints_huge_floats_and_float_subclasses_load():
    """Rows a one-pass row test cannot pass still load when every number
    is finite: ints, floats whose sum overflows, and numpy floats."""
    states = [[0, 1, 2.0], [0.1, 1e308, 1e308], [np.float64(0.2), np.float64(-1.5), 3]]
    trace = ExecutionTrace.from_dict(_one_agent_doc(states))
    assert trace.times == [0.0, 0.1, 0.2]
    assert trace.rows["a"] == [(1.0, 2.0), (1e308, 1e308), (-1.5, 3.0)]
    assert all(type(v) is float for row in trace.rows["a"] for v in row)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(TraceSchemaError):
        ExecutionTrace.load(path)


def test_load_missing_file_is_a_schema_error(tmp_path):
    with pytest.raises(TraceSchemaError, match="trace file not found"):
        ExecutionTrace.load(tmp_path / "nope.json")


def test_prefix_slices_states_and_modes():
    trace = make_trace(
        {"a": [[0.0, 0.0], [0.1, 1.0], [0.2, 2.0]]},
        modes={"a": [Mode.UNTRUSTED, Mode.SAFETY]},
    )
    pre = trace.prefix(1)
    assert pre.timestamps() == [0.0, 0.1]
    assert pre.modes["a"] == [Mode.UNTRUSTED]
    # slicing shares no list structure with the source
    pre.times.append(0.2)
    pre.rows["a"].append((9.0,))
    pre.modes["a"].append(Mode.SAFETY)
    assert trace.rows["a"][2] == (2.0,)
    assert trace.modes["a"] == [Mode.UNTRUSTED, Mode.SAFETY]


def test_latest_shares_the_last_rows():
    trace = make_trace({"a": [[0.0, 0.0], [0.1, 1.0]], "b": [[0.0, 5.0], [0.1, 6.0]]},
                       modes={"a": [Mode.UNTRUSTED], "b": [Mode.NORMAL]})
    last = trace.latest()
    assert last.timestamps() == [0.1]
    assert last.rows["a"][0] is trace.rows["a"][-1]
    assert last.modes["a"] == [] and not last.unsafe


def test_from_dict_is_one_walk(monkeypatch):
    def second_walk(doc):
        raise AssertionError("from_dict walked the document twice")

    monkeypatch.setattr(trace_module, "validate_trace_dict", second_walk)
    trace = ExecutionTrace.from_dict(two_agent_doc())
    assert trace.unsafe == {"u1": [[[10.0], 7.0], [[10.1], 7.0]]}
    assert trace.rows["leader"] == [(5.0, 1.0), (5.1, 1.0)]


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_wire_round_trip_of_shipped_config_traces(name):
    trace = execute(build_scenario(parse_scenario_config(CONFIGS / f"{name}.json")))
    text = trace.to_json()
    assert ExecutionTrace.from_dict(json.loads(text)).to_json() == text


@pytest.mark.parametrize("doc", config_docs())
def test_to_json_is_the_checked_dump_of_to_dict(doc):
    trace = execute(build_scenario(config_from_dict(doc)))
    assert trace.to_json() == json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))


def test_to_json_of_numpy_rows_and_integer_payloads():
    trace = ExecutionTrace()
    trace.times = [0.5 * k for k in range(3)]
    trace.rows["a"] = [(np.float64(k), np.float64(-1.25)) for k in range(3)]
    trace.modes["a"] = [Mode.SAFETY] * 2
    trace.kinds.update(wall="ball", box="hyperrectangle")
    trace.unsafe["wall"] = [[[10 + k], 7] for k in range(3)]
    trace.unsafe["box"] = [[[0, 1], [2, 3]] for _ in range(3)]
    text = trace.to_json()
    assert text == json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
    assert '"state_trace":[[0.0,[[10],7]]' in text
    assert ExecutionTrace.from_dict(json.loads(text)).to_json() == text


# -- output files are replaced, not rewritten in place ----------------------------------

def long_and_short_traces():
    """A trace of three samples and one of a single sample: a dump of the
    second is shorter than a dump of the first."""
    rows = [[0.0, 0.0, 1.0], [0.1, 0.1, 1.0], [0.2, 0.2, 1.0]]
    return (make_trace({"ego": rows}, {"ego": [Mode.NORMAL] * 2}),
            make_trace({"ego": rows[:1]}))


def test_dump_leaves_an_open_reader_and_a_hard_link_the_old_bytes(tmp_path):
    """The path then holds exactly the new, shorter dump."""
    long, short = long_and_short_traces()
    path, link = tmp_path / "trace.json", tmp_path / "link.json"
    long.dump(path)
    old = path.read_bytes()
    os.link(path, link)
    with open(path, "rb") as reader:
        short.dump(path)
        assert reader.read() == old
    assert link.read_bytes() == old
    assert path.read_bytes() == (short.to_json() + "\n").encode()


def test_dump_through_a_symlink_keeps_the_link(tmp_path):
    long, short = long_and_short_traces()
    target, path = tmp_path / "target.json", tmp_path / "trace.json"
    long.dump(target)
    path.symlink_to(target)
    short.dump(path)
    assert path.is_symlink() and os.readlink(path) == str(target)
    assert target.read_text() == short.to_json() + "\n"


def test_dump_through_a_dangling_symlink_writes_its_target(tmp_path):
    _, short = long_and_short_traces()
    target, path = tmp_path / "target.json", tmp_path / "trace.json"
    path.symlink_to(target)
    short.dump(path)
    assert path.is_symlink() and target.read_text() == short.to_json() + "\n"


def test_dump_onto_a_directory_or_a_symlink_loop_raises(tmp_path):
    _, short = long_and_short_traces()
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        short.dump(tmp_path / "dir")
    assert (tmp_path / "dir").is_dir()
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    with pytest.raises(OSError):
        short.dump(tmp_path / "a")
    assert (tmp_path / "a").is_symlink() and (tmp_path / "b").is_symlink()


def test_replace_text_gives_a_read_only_file_default_permissions(tmp_path):
    path = tmp_path / "out.txt"
    replace_text(path, "first\n")
    fresh = stat.S_IMODE(path.stat().st_mode)
    path.chmod(0o444)
    replace_text(path, "second\n")
    assert path.read_text() == "second\n"
    assert stat.S_IMODE(path.stat().st_mode) == fresh


def test_dump_into_a_fifo_writes_to_its_reader(tmp_path):
    """Only a regular file is replaced: a FIFO stays, and its reader gets the dump."""
    _, short = long_and_short_traces()
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a writer's open then does not block
    try:
        short.dump(fifo)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.read(reader, 1 << 16) == (short.to_json() + "\n").encode()
    finally:
        os.close(reader)


def test_replace_text_truncates_a_file_it_may_not_remove(tmp_path, monkeypatch):
    """Where the directory refuses the removal, the file is rewritten in
    place as before: a hard link then sees the new bytes."""
    path, link = tmp_path / "out.txt", tmp_path / "link.txt"
    replace_text(path, "a longer first text\n")
    os.link(path, link)

    def refuse(target):
        raise PermissionError(13, "Permission denied", str(target))

    monkeypatch.setattr(trace_module.os, "unlink", refuse)
    replace_text(path, "second\n")
    assert path.read_text() == link.read_text() == "second\n"
