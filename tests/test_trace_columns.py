"""The column passes of `ExecutionTrace.from_dict` against the per-entry
reference loader: the same columns, with the same types, from every
document, and the same error, path and message from every broken one.

Each corruption of tests/test_trace.py is placed deep in a long column, at
row DEEP of a 51-sample trace, in a state block, a mode column, a set
timestamp column and a payload column of every set kind."""
import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rtabench import workloads
from rtakit import ExecutionTrace, Mode, TraceSchemaError, build_scenario, config_from_dict, execute
from rtakit import trace as trace_module
from helpers import reference_from_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N = 51
DEEP = 45


def long_doc():
    """Two agents with rows [t, x, y, v] and one set of every kind: a moving
    point and ball, a box that moves for 20 samples and then holds still,
    and a fixed polytope."""
    ts = [k * 0.1 for k in range(N)]

    def states(x0):
        return [[t, x0 + t, 0.5 * t, 1.0] for t in ts]

    def column(payload):
        return [[t, payload(t)] for t in ts]

    square = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    return {
        "agents": {
            "ego": {"state_trace": states(0.0),
                    "mode_trace": ["UNTRUSTED"] * 30 + ["SAFETY"] * (N - 31)},
            "lead": {"state_trace": states(5.0), "mode_trace": ["NORMAL"] * (N - 1)},
        },
        "unsafe": {
            "post": {"type": "point", "state_trace": column(lambda t: [9.0 + t, 1.0])},
            "ball": {"type": "ball", "state_trace": column(lambda t: [[5.0 + t, 0.5 * t], 1.5])},
            "box": {"type": "hyperrectangle", "state_trace": column(
                lambda t: [[min(t, 2.0), -1.0], [min(t, 2.0) + 1.0, 1.0]])},
            "wall": {"type": "polytope", "state_trace": column(
                lambda t: [copy.deepcopy(square), [20.0, -15.0, 3.0, 3.0]])},
        },
    }


def corrupted(where, value):
    doc = long_doc()
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return doc


NUMBERS = {"true": True, "false": False, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
           "int-past-float": 10 ** 400, "string": "1.0", "null": None, "list": [1.0]}
# a payload entry must be exactly an int or a float; a state entry may be a subclass
PAYLOAD_NUMBERS = {**NUMBERS, "numpy-float": np.float64(1.0)}

STATE = ("agents", "ego", "state_trace", DEEP)
MODE = ("agents", "ego", "mode_trace", DEEP)
PAYLOAD_ENTRIES = {  # one number inside each kind's payload at row DEEP
    "point": ("post", 1, 0),
    "ball-center": ("ball", 1, 0, 1),
    "ball-radius": ("ball", 1, 1),
    # equal to the payload before it once 1.0 is replaced by True
    "box-upper": ("box", 1, 1, 1),
    "polytope-matrix": ("wall", 1, 0, 2, 1),
    "polytope-offset": ("wall", 1, 1, 3),
}


def _cases():
    for j in (0, 1, 3):
        for vid, value in NUMBERS.items():
            yield pytest.param((*STATE, j), value, id=f"state[{j}]-{vid}")
    rows = {"short-row": [0.1], "long-row": [4.5, 1.0, 2.0, 1.0, 0.0], "null-row": None,
            "object-row": {"t": 4.5}}
    for rid, row in rows.items():
        yield pytest.param(STATE, row, id=f"state-{rid}")
    yield pytest.param((*STATE, 0), (DEEP - 1) * 0.1, id="state-timestamp-repeats")
    yield pytest.param(("agents", "lead", "state_trace", DEEP, 0), DEEP * 0.1 + 0.01,
                       id="state-timestamp-differs-from-ego")
    for name in (["SAFETY"], [1], True, None, 1, "safety", "AUTOPILOT", Mode.SAFETY):
        yield pytest.param(MODE, name, id=f"mode-{name!r}")
    for sid in ("ball", "wall"):
        where = ("unsafe", sid, "state_trace", DEEP, 0)
        for vid, value in NUMBERS.items():
            yield pytest.param(where, value, id=f"{sid}-timestamp-{vid}")
        yield pytest.param(where, DEEP * 0.1 + 0.01, id=f"{sid}-timestamp-off-grid")
        yield pytest.param(where[:-1], [DEEP * 0.1], id=f"{sid}-row-not-a-pair")
    for place, (sid, *inner) in PAYLOAD_ENTRIES.items():
        where = ("unsafe", sid, "state_trace", DEEP, *inner)
        for vid, value in PAYLOAD_NUMBERS.items():
            yield pytest.param(where, value, id=f"{place}-{vid}")
    for sid, bad, bid in [
        ("post", [9.0, 1.0, 0.0], "point-dimension-changes"),
        ("post", [], "point-empty"),
        ("ball", [[5.0, 1.0]], "ball-no-radius"),
        ("ball", [[5.0, 1.0], -1.0], "ball-negative-radius"),
        ("box", [[3.0, 1.0], [2.0, -1.0]], "box-corners-swapped"),
        ("box", [[2.0, -1.0], [3.0]], "box-corner-dimensions-differ"),
        ("wall", [[[1.0, 0.0]], [20.0, 1.0]], "polytope-offset-too-long"),
        ("wall", "x", "payload-string"),
        ("wall", None, "payload-null"),
    ]:
        yield pytest.param(("unsafe", sid, "state_trace", DEEP, 1), bad, id=bid)


@pytest.mark.parametrize("where, value", _cases())
def test_deep_corruption_raises_the_reference_error(where, value):
    doc = corrupted(where, value)
    with pytest.raises(TraceSchemaError) as want:
        reference_from_dict(doc)
    with pytest.raises(TraceSchemaError) as got:
        ExecutionTrace.from_dict(doc)
    assert (got.value.path, str(got.value)) == (want.value.path, str(want.value))
    # the error is the corruption's, not one in a row before it
    assert f"[{DEEP}]" in got.value.path or "timestamps" in str(got.value)


def assert_same_columns(got: ExecutionTrace, want: ExecutionTrace):
    """Equal columns of exactly the reference's types: float times, tuples
    of floats, Mode members, and the document's own payload objects."""
    assert got.times == want.times and set(map(type, got.times)) == {float}
    assert got.rows == want.rows
    for rows in got.rows.values():
        assert {type(row) for row in rows} == {tuple}
        assert {type(v) for row in rows for v in row} == {float}
    assert got.modes == want.modes
    assert all(type(m) is Mode for modes in got.modes.values() for m in modes)
    assert got.kinds == want.kinds
    assert got.unsafe.keys() == want.unsafe.keys()
    for sid, payloads in got.unsafe.items():
        assert type(payloads) is list and len(payloads) == len(want.unsafe[sid])
        assert all(a is b for a, b in zip(payloads, want.unsafe[sid]))
    assert got.to_json() == want.to_json()


LOADS = {
    "state-int": ((*STATE, 1), 5),
    "state-numpy-timestamp": ((*STATE, 0), np.float64(DEEP * 0.1)),
    "state-numpy-float": ((*STATE, 2), np.float64(1.5)),
    "state-sum-overflows": (STATE, [DEEP * 0.1, 1e308, 1e308, 1e308]),
    "ball-radius-int": (("unsafe", "ball", "state_trace", DEEP, 1, 1), 2),
    "box-equal-payload-with-int": (("unsafe", "box", "state_trace", DEEP, 1, 0, 1), -1),
    "set-timestamp-int": (("unsafe", "wall", "state_trace", 10, 0), 1),
    "set-timestamp-numpy": (("unsafe", "ball", "state_trace", DEEP, 0), np.float64(DEEP * 0.1)),
    "point-sum-overflows": (("unsafe", "post", "state_trace", DEEP, 1), [1e308, 1e308]),
}


@pytest.mark.parametrize("where, value", LOADS.values(), ids=LOADS.keys())
def test_documents_one_pass_cannot_take_load_as_the_reference(where, value):
    doc = corrupted(where, value)
    assert_same_columns(ExecutionTrace.from_dict(doc), reference_from_dict(doc))


def _every_document():
    for path in sorted(CONFIGS.glob("*.json")):
        yield pytest.param(json.loads(path.read_text()), id=path.name)
    for name, generate in sorted(workloads.WORKLOADS.items()):
        for seed in (1, 2):
            for op, doc in generate(seed):
                yield pytest.param(doc, id=f"{name}-{seed}-{op}")


def no_walk(monkeypatch):
    """Make the per-entry walks fail, so a load must take the column passes."""
    def walk(*args):
        raise AssertionError("a column failed its pass")

    for name in ("_walk_states", "_walk_modes", "_walk_payloads"):
        monkeypatch.setattr(trace_module, name, walk)


@pytest.mark.parametrize("doc", _every_document())
def test_executed_trace_loads_as_the_reference(doc, monkeypatch):
    """The same columns, by the column passes alone, and one payload parse
    per run of equal payloads."""
    wire = json.loads(execute(build_scenario(config_from_dict(doc))).to_json())
    want = reference_from_dict(wire)
    no_walk(monkeypatch)
    parses = []
    parse = trace_module.set_from_payload
    monkeypatch.setattr(trace_module, "set_from_payload",
                        lambda kind, payload: parses.append(payload) or parse(kind, payload))
    got = ExecutionTrace.from_dict(wire)
    assert_same_columns(got, want)
    runs = sum(1 + sum(a != b for a, b in zip(p, p[1:])) for p in want.unsafe.values())
    assert len(parses) == runs


def test_long_document_loads_as_the_reference(monkeypatch):
    doc = long_doc()
    no_walk(monkeypatch)
    trace = ExecutionTrace.from_dict(doc)
    assert_same_columns(trace, reference_from_dict(doc))
    assert trace.modes["ego"][30] is Mode.SAFETY
