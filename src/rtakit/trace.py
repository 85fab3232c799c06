"""Execution traces: the time-stamped record every other component consumes.

Wire format (JSON), stable so external simulators can produce it:

    {"agents": {"<id>": {"state_trace": [[t, s0, s1, ...], ...],
                         "mode_trace": ["UNTRUSTED", ...]},
                ...},
     "unsafe": {"<id>": {"type": "ball",
                         "state_trace": [[t, <payload>], ...]},
                ...}}

Invariants: all state traces share one strictly increasing timestamp grid;
each agent's mode trace has exactly one entry fewer than its state trace
(a mode labels the transition out of each state); unsafe payloads follow
the layouts documented in the geometry module.

In memory an ExecutionTrace is columnar: one `times` list shared by every
agent and set, one list of state rows per agent in `rows` (a row is a tuple
of floats without its timestamp), one list of modes per agent in `modes`,
one kind per set in `kinds` and one list of payloads per set in `unsafe`.
These columns are the read API. Rows are immutable, so a trace, a prefix
cut from it and a prediction seeded from it share them without copies;
payloads are shared the same way and must not be mutated. `append_sample` is the one way to add a
sample. `to_dict` builds the wire rows; `from_dict` checks and splits
them in one walk.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .agents import Mode
from .geometry import GeometryError, SET_KINDS, SetDef, set_from_payload

MODE_NAMES = tuple(m.value for m in Mode)


class TraceSchemaError(ValueError):
    """Trace document violates the wire format. `path` locates the offense."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ExecutionTrace:
    """Mutable during execution, treated as immutable once complete."""

    def __init__(self):
        self.times: list[float] = []
        self.rows: dict[str, list[tuple[float, ...]]] = {}
        self.modes: dict[str, list[Mode]] = {}
        self.kinds: dict[str, str] = {}
        self.unsafe: dict[str, list] = {}
        # (samples folded, agent memory after them), kept by
        # `Scenario.memory`; in process only, never serialized.
        self.memory: tuple[int, dict] | None = None

    # -- construction ----------------------------------------------------

    def add_agent(self, agent_id: str):
        if agent_id in self.rows:
            raise ValueError(f"duplicate agent id {agent_id!r}")
        if self.times:
            raise ValueError(f"agent {agent_id!r} added after the first sample")
        self.rows[agent_id] = []
        self.modes[agent_id] = []

    def add_unsafe_set(self, set_id: str, kind: str):
        if set_id in self.unsafe:
            raise ValueError(f"duplicate unsafe set id {set_id!r}")
        if kind not in SET_KINDS:
            raise ValueError(f"unknown set type {kind!r}")
        if self.times:
            raise ValueError(f"unsafe set {set_id!r} added after the first sample")
        self.kinds[set_id] = kind
        self.unsafe[set_id] = []

    def append_sample(self, t: float, states: dict, modes: dict | None = None,
                      payloads: dict | None = None):
        """Append one sample: every agent's state, by agent id, the mode
        each agent took into it (None appends no mode, as for a trace's
        first sample) and, if the trace holds sets, every set's payload by
        set id. A state is stored as a tuple of floats; a tuple is stored as
        given, so it must hold floats already."""
        rows, unsafe = self.rows, self.unsafe
        if states.keys() != rows.keys():
            raise ValueError(
                f"sample has states for {sorted(states)}, trace holds agents {sorted(rows)}"
            )
        if unsafe and (payloads is None or payloads.keys() != unsafe.keys()):
            raise ValueError(f"sample has payloads for {sorted(payloads or ())}, "
                             f"trace holds sets {sorted(unsafe)}")
        self.times.append(float(t))
        for aid, column in rows.items():
            row = states[aid]
            column.append(row if type(row) is tuple else tuple(map(float, row)))
        if modes is not None:
            for aid, column in self.modes.items():
                column.append(modes[aid])
        if unsafe:
            for sid, column in unsafe.items():
                column.append(payloads[sid])

    # -- access: read the columns; these two stay for the benchmark tracer --

    def timestamps(self) -> list[float]:
        """A copy of `times`. Kept because the benchmark's tracer wraps it
        by name; code reads `times`."""
        return list(self.times)

    def unsafe_def(self, set_id: str, k: int) -> SetDef:
        """Sample k's payload of the set, parsed. Kept because the benchmark's
        tracer wraps it by name to count the payloads a read parses."""
        return set_from_payload(self.kinds[set_id], self.unsafe[set_id][k])

    def prefix(self, k: int) -> "ExecutionTrace":
        """Samples 0..k with the mode decisions made strictly before k."""
        if not 0 <= k < len(self.times):
            raise IndexError(f"sample index {k} out of range")
        out = ExecutionTrace()
        out.times = self.times[: k + 1]
        out.rows = {aid: rows[: k + 1] for aid, rows in self.rows.items()}
        out.modes = {aid: modes[:k] for aid, modes in self.modes.items()}
        out.kinds = dict(self.kinds)
        out.unsafe = {sid: payloads[: k + 1] for sid, payloads in self.unsafe.items()}
        return out

    def latest(self) -> "ExecutionTrace":
        """The last sample alone, sharing its rows: no mode, no unsafe set
        and no memory."""
        out = ExecutionTrace()
        out.times = self.times[-1:]
        out.rows = {aid: rows[-1:] for aid, rows in self.rows.items()}
        out.modes = {aid: [] for aid in self.rows}
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        times = self.times
        return {
            "agents": {
                aid: {
                    "state_trace": [[t, *row] for t, row in zip(times, rows)],
                    "mode_trace": [m.value for m in self.modes[aid]],
                }
                for aid, rows in self.rows.items()
            },
            "unsafe": {
                sid: {
                    "type": self.kinds[sid],
                    "state_trace": [[t, payload] for t, payload in zip(times, payloads)],
                }
                for sid, payloads in self.unsafe.items()
            },
        }

    @classmethod
    def from_dict(cls, doc) -> "ExecutionTrace":
        """Check a raw document against the wire format and build its trace
        in the same walk. Raises TraceSchemaError naming the first
        offending path."""
        if not isinstance(doc, dict):
            raise TraceSchemaError("<document>", f"expected an object, got {type(doc).__name__}")
        if set(doc) != {"agents", "unsafe"}:
            raise TraceSchemaError(
                "<document>", f"top-level keys must be exactly 'agents' and 'unsafe', got {sorted(doc)}"
            )
        agents = doc["agents"]
        if not isinstance(agents, dict) or not agents:
            raise TraceSchemaError("agents", "must be a nonempty object")
        out = cls()
        for aid, entry in agents.items():
            path = f"agents.{aid}"
            if not isinstance(entry, dict) or set(entry) != {"state_trace", "mode_trace"}:
                raise TraceSchemaError(path, "must have exactly 'state_trace' and 'mode_trace'")
            times, out.rows[aid] = _read_states(f"{path}.state_trace", entry["state_trace"])
            if not out.times:
                out.times, grid_owner = times, aid
            elif times != out.times:
                raise TraceSchemaError(
                    f"{path}.state_trace", f"timestamps differ from agent {grid_owner!r}"
                )
            modes = entry["mode_trace"]
            if not isinstance(modes, list):
                raise TraceSchemaError(f"{path}.mode_trace", "must be a list")
            if len(modes) != len(times) - 1:
                raise TraceSchemaError(
                    f"{path}.mode_trace",
                    f"length must be {len(times) - 1} (one fewer than state_trace), got {len(modes)}",
                )
            for i, name in enumerate(modes):
                if name not in MODE_NAMES:
                    raise TraceSchemaError(
                        f"{path}.mode_trace[{i}]", f"unknown mode {name!r}, expected one of {MODE_NAMES}"
                    )
            out.modes[aid] = [Mode(name) for name in modes]
        unsafe = doc["unsafe"]
        if not isinstance(unsafe, dict):
            raise TraceSchemaError("unsafe", "must be an object")
        for sid, entry in unsafe.items():
            path = f"unsafe.{sid}"
            if not isinstance(entry, dict) or set(entry) != {"type", "state_trace"}:
                raise TraceSchemaError(path, "must have exactly 'type' and 'state_trace'")
            kind = entry["type"]
            if kind not in SET_KINDS:
                raise TraceSchemaError(f"{path}.type", f"unknown set type {kind!r}")
            out.kinds[sid] = kind
            out.unsafe[sid] = _read_payloads(f"{path}.state_trace", kind, entry["state_trace"],
                                             out.times)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def dump(self, path):
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ExecutionTrace":
        try:
            text = Path(path).read_text()
        except FileNotFoundError as exc:
            raise TraceSchemaError("<document>", f"trace file not found: {path}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError("<document>", f"not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


def is_finite_number(x) -> bool:
    """A number (not a bool) that converts to a finite float; an integer
    too large for a float does not."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def non_number_entry(payload):
    """(index path, entry) of the first entry of a nested list that is not
    an int or a float, as ("[i][j]", entry), or None. A type test only: a
    set payload's parse rejects NaN, infinities and integers too large for
    a float, but converts booleans and numeric strings."""
    if type(payload) is not list:
        return "", payload
    for j, v in enumerate(payload):
        t = type(v)
        if t is not float and t is not int:
            bad = non_number_entry(v)
            if bad is not None:
                return f"[{j}]{bad[0]}", bad[1]
    return None


def _check_numbers(row, rpath: str) -> None:
    for j, v in enumerate(row):
        if not is_finite_number(v):
            raise TraceSchemaError(f"{rpath}[{j}]", f"expected a finite number, got {v!r}")


def _read_states(path: str, states) -> tuple[list[float], list[tuple[float, ...]]]:
    """The timestamps and state rows of an agent's wire `state_trace`."""
    if not isinstance(states, list) or not states:
        raise TraceSchemaError(path, "must be a nonempty list")
    times, rows = [], []
    for i, row in enumerate(states):
        rpath = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) < 2:
            raise TraceSchemaError(rpath, "must be a list [t, s0, ...] with >= 2 entries")
        _check_numbers(row, rpath)
        width = len(states[0])  # row 0 passed the checks above
        if len(row) != width:
            raise TraceSchemaError(rpath, f"row length {len(row)} != {width} of earlier rows")
        times.append(float(row[0]))
        rows.append(tuple(map(float, row[1:])))
    if any(b <= a for a, b in zip(times, times[1:])):
        raise TraceSchemaError(path, "timestamps must be strictly increasing")
    return times, rows


def _read_payloads(path: str, kind: str, rows, grid: list[float]) -> list:
    """The payloads of a set's wire `state_trace`, one per sample of the
    grid. A payload equal to the one before it is not parsed again."""
    if not isinstance(rows, list) or not rows:
        raise TraceSchemaError(path, "must be a nonempty list")
    if len(rows) != len(grid):
        raise TraceSchemaError(path, f"expected {len(grid)} samples to match agents, got {len(rows)}")
    dim = parsed = None
    for i, row in enumerate(rows):
        rpath = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != 2:
            raise TraceSchemaError(rpath, "must be a pair [t, definition]")
        _check_numbers(row[:1], rpath)
        if float(row[0]) != grid[i]:
            raise TraceSchemaError(rpath, f"timestamp {row[0]} differs from agent grid {grid[i]}")
        payload = row[1]
        bad = non_number_entry(payload)
        if bad is not None:
            raise TraceSchemaError(f"{rpath}[1]{bad[0]}", f"expected a number, got {bad[1]!r}")
        if payload == parsed:  # the same numbers as the last payload parsed
            continue
        try:
            sd = set_from_payload(kind, payload)
        except GeometryError as exc:
            raise TraceSchemaError(rpath, str(exc)) from exc
        parsed = payload
        if dim is not None and sd.dim != dim:
            raise TraceSchemaError(rpath, f"set dimension changed from {dim} to {sd.dim}")
        dim = sd.dim
    return [row[1] for row in rows]


def validate_trace_dict(doc) -> None:
    """Check a raw document against the wire format: the walk of
    `ExecutionTrace.from_dict`, its trace dropped."""
    ExecutionTrace.from_dict(doc)
