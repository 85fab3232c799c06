"""The column passes of `ExecutionTrace.from_dict` against the per-entry
reference loader: the same columns, with the same types, from every
document, and the same error, path and message from every broken one.

Each corruption of tests/test_trace.py is placed deep in a long column, at
row DEEP of a 51-sample trace, in a state block, a mode column, a set
timestamp column and a payload column of every set kind."""
import copy
import json
import math

import numpy as np
import pytest

from rtakit import ExecutionTrace, Mode, TraceSchemaError, build_scenario, config_from_dict, execute
from rtakit import geometry
from rtakit import trace as trace_module
from rtakit.geometry import GeometryError, parse_column
from rtakit.evaluation import build_report
from helpers import (
    assert_same_stacks,
    every_document,
    make_trace,
    ref_build_report,
    ref_column,
    reference_from_dict,
)

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


def no_walk(monkeypatch):
    """Make the per-entry walks fail, so a load must take the column passes."""
    def walk(*args):
        raise AssertionError("a column failed its pass")

    for name in ("_walk_states", "_walk_modes", "_walk_payloads"):
        monkeypatch.setattr(trace_module, name, walk)


@pytest.mark.parametrize("doc", every_document())
def test_executed_trace_loads_as_the_reference(doc, monkeypatch):
    """The same columns, by the column passes alone: each set's payloads
    parsed as one column, with no payload parsed on its own. Each set column
    of the executed trace parses as the per-run parse."""
    executed = execute(build_scenario(config_from_dict(doc)))
    wire = json.loads(executed.to_json())
    want = reference_from_dict(wire)
    no_walk(monkeypatch)
    parses, columns = [], []
    parse, column = trace_module.set_from_payload, trace_module.parse_column
    for module in (geometry, trace_module):
        monkeypatch.setattr(module, "set_from_payload",
                            lambda kind, payload: parses.append(payload) or parse(kind, payload))
    monkeypatch.setattr(trace_module, "parse_column",
                        lambda kind, payloads: columns.append(kind) or column(kind, payloads))
    got = ExecutionTrace.from_dict(wire)
    assert_same_columns(got, want)
    for sid, payloads in executed.unsafe.items():
        kind = executed.kinds[sid]
        assert_same_stacks(parse_column(kind, payloads), ref_column(kind, payloads))
    assert parses == []
    assert columns == list(want.kinds.values())


def test_long_document_loads_as_the_reference(monkeypatch):
    doc = long_doc()
    no_walk(monkeypatch)
    trace = ExecutionTrace.from_dict(doc)
    assert_same_columns(trace, reference_from_dict(doc))
    assert trace.modes["ego"][30] is Mode.SAFETY


# -- the column parse against the per-run parse ------------------------------------

SQUARE = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
TRIANGLE = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
STEPS = range(6)


def _balls(radius=lambda k: 1.5, center=lambda k: [0.5 * k, 1.0]):
    return [[center(k), radius(k)] for k in STEPS]


def _boxes(lower_x=lambda k: 0.5 * k):
    return [[[lower_x(k), -1.0], [0.5 * k + 1.0, 1.0]] for k in STEPS]


COLUMNS = {  # kind, payload per sample
    "ball-moves": ("ball", _balls()),
    "ball-int-radius": ("ball", _balls(radius=lambda k: 2)),
    "box-moves": ("hyperrectangle", _boxes()),
    "point-still": ("point", [[3.0, 0.25]] * len(STEPS)),
    "polytope-matrix-changes": ("polytope", [[SQUARE, [1.0, 1.0, 1.0, 1.0 + 0.5 * k]]
                                             for k in range(3)]
                                + [[[[2.0, 0.0], *SQUARE[1:]], [4.0, 1.0, 1.0, 1.0]]] * 3),
    "ball-ragged-centres": ("ball", _balls(center=lambda k: [0.5 * k, 1.0] + [0.0] * (k == 3))),
    "ball-int-past-float": ("ball", _balls(radius=lambda k: 10 ** 400 if k == 2 else 1.5)),
    "ball-negative-radius-last": ("ball", _balls(radius=lambda k: -1.0 if k == 5 else 1.5)),
    "box-lower-above-upper": ("hyperrectangle", _boxes(lambda k: 9.0 if k == 2 else 0.5 * k)),
    "ball-numpy-floats": ("ball", _balls(center=lambda k: [np.float64(0.5 * k), 1.0])),
    "ball-numpy-tuples": ("ball", [((np.float64(0.5 * k), np.float64(1.0)), np.float64(1.5))
                                   for k in STEPS]),
    "polytope-rows-change": ("polytope", [[TRIANGLE, [2.0, 0.0, 0.0]]] * 3
                             + [[SQUARE, [1.0, 1.0, 1.0, 1.0 + 0.5 * k]] for k in range(3)]),
    "polytope-rows-change-back": ("polytope", [[TRIANGLE, [2.0, 0.0, 0.5 * k]] for k in range(2)]
                                  + [[SQUARE, [1.0, 1.0, 1.0, 1.0 + 0.5 * k]] for k in range(2)]
                                  + [[TRIANGLE, [2.0, 0.0, 0.0]]] * 2),
    "polytope-columns-change": ("polytope", [[SQUARE, [1.0, 1.0, 1.0, 1.0]]] * 3
                                + [[[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0]]] * 3),
    # Rectangular columns that the one pass reads but a constructor rejects.
    "ball-zero-dimension": ("ball", _balls(center=lambda k: [], radius=lambda k: 1.0 + k)),
    "polytope-offset-short": ("polytope", [[SQUARE, [1.0, 1.0, 1.0 + 0.5 * k]] for k in STEPS]),
    "point-empty": ("point", [[3.0, 0.25]] * 2 + [[]] + [[3.0, 0.5]] * 3),
}
# Finite centres whose sum overflows: parsed, but measuring them overflows.
PARSE_ONLY = {"ball-sum-overflows": ("ball", _balls(center=lambda k: [1e308, 1e308 - 1e300 * k]))}


def _runs(payloads):
    """The first payload of each run of equal payloads."""
    return [p for k, p in enumerate(payloads) if k == 0 or p != payloads[k - 1]]


@pytest.mark.parametrize("kind, payloads", [*COLUMNS.values(), *PARSE_ONLY.values()],
                         ids=[*COLUMNS, *PARSE_ONLY])
def test_column_parse_equals_the_per_run_parse(kind, payloads, monkeypatch):
    """The same stacks, or the same error. A column that parses makes no
    `set_from_payload` call; one that fails parses its runs, in order, only
    up to the first one `set_from_payload` rejects."""
    try:
        want, error = ref_column(kind, payloads), None
    except GeometryError as exc:
        want, error = None, str(exc)
    parses = []
    parse = geometry.set_from_payload
    monkeypatch.setattr(geometry, "set_from_payload",
                        lambda kind, payload: parses.append(payload) or parse(kind, payload))
    if error is None:
        assert_same_stacks(parse_column(kind, payloads), want)
        assert parses == []
        return
    with pytest.raises(GeometryError) as got:
        parse_column(kind, payloads)
    assert str(got.value) == error
    runs = _runs(payloads)
    rejected = [k for k, p in enumerate(runs) if _rejects(parse, kind, p)]
    assert parses == (runs[:rejected[0] + 1] if rejected else runs)


def _rejects(parse, kind, payload) -> bool:
    try:
        parse(kind, payload)
    except GeometryError:
        return True
    return False


@pytest.mark.parametrize("column, message", [
    ("ball-zero-dimension", "ball center must be a nonempty 1-D vector, got shape (0,)"),
    ("polytope-offset-short", "constraint matrix has 4 rows but offset vector has length 3"),
])
def test_a_column_a_constructor_rejects_raises_its_error_naming_the_row(column, message):
    kind, payloads = COLUMNS[column]
    for parse in (lambda: geometry.set_from_payload(kind, payloads[0]),
                  lambda: parse_column(kind, payloads)):
        with pytest.raises(GeometryError) as err:
            parse()
        assert (type(err.value), str(err.value)) == (GeometryError, message)
    with pytest.raises(TraceSchemaError) as err:
        ExecutionTrace.from_dict(_column_doc(kind, payloads))
    assert (err.value.path, str(err.value)) == (
        "unsafe.set.state_trace[0]", f"unsafe.set.state_trace[0]: {message}")


def test_a_column_of_iterator_payloads_raises_that_they_do_not_stack():
    """A payload must be a sequence: iterators that a constructor unpacks
    one by one are no column, though each parses on its own."""
    payloads = [iter(([0.5 * k, 1.0], 1.5)) for k in range(3)]
    with pytest.raises(GeometryError, match=r"^malformed ball column: its payloads do not stack$"):
        parse_column("ball", payloads)


def _column_doc(kind, payloads):
    """One agent and one set, with the set's payloads given per sample."""
    ts = [0.1 * k for k in range(len(payloads))]
    return {"agents": {"ego": {"state_trace": [[t, 0.5 - t, 2.0] for t in ts],
                               "mode_trace": ["UNTRUSTED"] * (len(ts) - 1)}},
            "unsafe": {"set": {"type": kind,
                               "state_trace": [[t, p] for t, p in zip(ts, payloads)]}}}


@pytest.mark.parametrize("kind, payloads", COLUMNS.values(), ids=COLUMNS.keys())
def test_column_loads_as_the_reference(kind, payloads):
    doc = _column_doc(kind, payloads)
    try:
        want = reference_from_dict(doc)
    except TraceSchemaError as exc:
        with pytest.raises(TraceSchemaError) as got:
            ExecutionTrace.from_dict(doc)
        assert (got.value.path, str(got.value)) == (exc.path, str(exc))
    else:
        assert_same_columns(ExecutionTrace.from_dict(doc), want)


@pytest.mark.parametrize("kind, payloads", COLUMNS.values(), ids=COLUMNS.keys())
def test_column_of_an_in_memory_trace_evaluates_as_the_reference(kind, payloads):
    """An in-memory trace is not checked by a load: its report equals the
    per-pair report, or raises the same error. A set whose dimension
    changes is the exception: the per-pair report stacked the reference
    points first, and numpy refused the ragged rows without naming the set,
    where the column parse names the change."""
    doc = _column_doc(kind, payloads)
    trace = make_trace({"ego": doc["agents"]["ego"]["state_trace"]}, sets={"set": (kind, payloads)})
    try:
        want = ref_build_report(trace)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_report(trace)
        if isinstance(exc, GeometryError):
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        else:
            assert (type(got.value), str(got.value)) == (
                GeometryError, "set dimension changed from 2 to 3")
    else:
        assert build_report(trace).to_dict() == want.to_dict()
