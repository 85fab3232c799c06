"""Execution traces: the time-stamped record every other component consumes.

Wire format (JSON), stable so external simulators can produce it:

    {"agents": {"<id>": {"state_trace": [[t, s0, s1, ...], ...],
                         "mode_trace": ["UNTRUSTED", ...]},
                ...},
     "unsafe": {"<id>": {"type": "ball",
                         "state_trace": [[t, <payload>], ...]},
                ...}}

Invariants: no set id is also an agent id, so an id names one target; all
state traces share one strictly increasing timestamp grid; each agent's
mode trace has exactly one entry fewer than its state trace (a mode labels
the transition out of each state); unsafe payloads follow the layouts
documented in the geometry module.

In memory an ExecutionTrace is columnar: one `times` list shared by every
agent and set, one list of state rows per agent in `rows` (a row is a tuple
of floats without its timestamp), one list of modes per agent in `modes`,
one kind per set in `kinds` and one list of payloads per set in `unsafe`.
These columns are the read API. The constructor makes them empty and each
producer writes its own: `Scenario.initial_trace` the first sample,
`Scenario.advance` every later one, `execute` the set columns, and
`from_dict`, `prefix` and `latest` theirs. Rows are immutable, so a trace,
a prefix cut from it and a prediction seeded from it share them without
copies; payloads are shared the same way and must not be mutated.
`to_dict` builds the wire rows. `from_dict` checks and splits them in one
pass per column: an agent's state block, its mode column, a set's rows,
timestamps and payload types are each tested whole, and a set's payloads
are parsed as one column (`geometry.parse_column`), which has one
dimension. A column that fails its pass is read again entry by entry, a
walk that only names the first offending entry, so every error is the
walk's. Files are UTF-8 text: `read_json` reads every JSON file rtakit
reads, naming the file in its errors, and `replace_text` writes every file.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from functools import partial
from itertools import chain, compress, islice
from operator import itemgetter, lt
from pathlib import Path

from .agents import Mode
from .geometry import GeometryError, SET_KINDS, SetDef, parse_column, set_from_payload

MODE_NAMES = tuple(m.value for m in Mode)
_MODE_BY_NAME = {m.value: m for m in Mode}
_NAME_BY_MODE_ID = {id(m): m.value for m in Mode}


def mode_names(modes: list[Mode]) -> list[str]:
    """The name of each mode, looked up by identity: `Mode.value` is a
    descriptor call, too slow to make once per sample."""
    return list(map(_NAME_BY_MODE_ID.__getitem__, map(id, modes)))


def replace_text(path, text: str) -> None:
    """Write `text` to `path`. A regular file there (through a symlinked
    path: its target, so the link stays) is removed and a fresh one
    created, not truncated and rewritten, so a hard link or an open reader
    of the old file keeps the old bytes. Anything else at the path (a
    device, a FIFO) is opened and written as before, and so is a file the
    directory does not let us remove. Every file rtakit writes is written
    here."""
    target = os.path.realpath(path) if os.path.islink(path) else path
    if os.path.isfile(target):
        try:
            os.unlink(target)
        except OSError:  # e.g. a sticky or read-only directory: truncate instead
            pass
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def read_json(path, error):
    """The JSON document of the UTF-8 file at `path`. A file that is not
    UTF-8 text or not valid JSON raises `error(message)`, the message
    naming the file; every JSON file rtakit reads is read here."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


class TraceSchemaError(ValueError):
    """Trace document violates the wire format. `path` locates the offense."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ExecutionTrace:
    """Mutable during execution, treated as immutable once complete."""

    def __init__(self):
        """Empty columns, for a producer to write (see the module docstring)."""
        self.times: list[float] = []
        self.rows: dict[str, list[tuple[float, ...]]] = {}
        self.modes: dict[str, list[Mode]] = {}
        self.kinds: dict[str, str] = {}
        self.unsafe: dict[str, list] = {}
        # (samples folded, agent memory after them), kept by
        # `Scenario.memory`; in process only, never serialized.
        self.memory: tuple[int, Mapping[str, object]] | None = None

    # -- access: read the columns; these two stay for the benchmark tracer --

    def timestamps(self) -> list[float]:
        """A copy of `times`. Kept because the benchmark's tracer wraps it
        by name; code reads `times`."""
        return list(self.times)

    def unsafe_def(self, set_id: str, k: int) -> SetDef:
        """Sample k's payload of the set, parsed: a read of one sample, as
        `snapshot` and `ScenarioMetadata.from_trace` make. Evaluation and
        `from_dict` parse a set's whole column at once
        (`geometry.parse_column`) and do not come here. Kept by this name
        because the benchmark's tracer wraps it to count the payloads a
        read parses."""
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
        rows, modes = out.rows, out.modes
        for aid, column in self.rows.items():
            rows[aid] = column[-1:]
            modes[aid] = []
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        times = self.times
        return {
            "agents": {
                aid: {
                    "state_trace": [[t, *row] for t, row in zip(times, rows)],
                    "mode_trace": mode_names(self.modes[aid]),
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
        in the same pass. Raises TraceSchemaError naming the first
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
            try:
                out.modes[aid] = list(map(_MODE_BY_NAME.__getitem__, modes))
            except (KeyError, TypeError):  # an unknown or unhashable name
                out.modes[aid] = _walk_modes(f"{path}.mode_trace", modes)
        unsafe = doc["unsafe"]
        if not isinstance(unsafe, dict):
            raise TraceSchemaError("unsafe", "must be an object")
        for sid, entry in unsafe.items():
            path = f"unsafe.{sid}"
            if not isinstance(entry, dict) or set(entry) != {"type", "state_trace"}:
                raise TraceSchemaError(path, "must have exactly 'type' and 'state_trace'")
            if sid in out.rows:
                raise TraceSchemaError(path, "set id is also an agent id")
            kind = entry["type"]
            if kind not in SET_KINDS:
                raise TraceSchemaError(f"{path}.type", f"unknown set type {kind!r}")
            out.kinds[sid] = kind
            out.unsafe[sid] = _read_payloads(f"{path}.state_trace", kind, entry["state_trace"],
                                             out.times)
        return out

    def to_json(self) -> str:
        # `to_dict` builds a fresh tree; only set payloads are the caller's
        # objects, and a cycle in one ends in RecursionError, not ValueError.
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          check_circular=False)

    def dump(self, path):
        """Write the trace as one line of `to_json`; the file is replaced,
        not rewritten in place (see README, "Outputs are replaced")."""
        replace_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ExecutionTrace":
        try:
            doc = read_json(path, partial(TraceSchemaError, "<document>"))
        except FileNotFoundError as exc:
            raise TraceSchemaError("<document>", f"trace file not found: {path}") from exc
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


_FLOAT = frozenset((float,))
_NESTED = frozenset((float, int, list))
_LIST = frozenset((list,))


def plain_finite(*columns) -> bool:
    """Whether every entry of the columns is exactly a float (so not an
    int, a bool or a numpy float) and finite: one type test of them all and
    one finiteness test of their sum, which is finite only if every entry
    is. False for finite floats whose sum overflows, which a walk reads."""
    return _FLOAT.issuperset(map(type, chain(*columns))) and math.isfinite(sum(chain(*columns)))


def _read_states(path: str, states) -> tuple[list[float], list[tuple[float, ...]]]:
    """The timestamps and state rows of an agent's wire `state_trace`. The
    block is tested in one pass: every row a list of one width >= 2, every
    entry a finite float (`plain_finite`), and the timestamps strictly
    increasing. A block that fails is read by `_walk_states`."""
    if (type(states) is list and states and _LIST.issuperset(map(type, states))
            and len(states[0]) >= 2 and len(set(map(len, states))) == 1):
        columns = list(zip(*states))
        times = list(columns[0])
        if plain_finite(*columns) and all(map(lt, times, islice(times, 1, None))):
            return times, list(zip(*columns[1:]))
    return _walk_states(path, states)


def _walk_states(path: str, states) -> tuple[list[float], list[tuple[float, ...]]]:
    """`_read_states` row by row, which names the first bad entry; it also
    reads rows that one pass cannot, such as ints, numpy floats or finite
    numbers whose sum overflows, as floats."""
    if not isinstance(states, list) or not states:
        raise TraceSchemaError(path, "must be a nonempty list")
    times, rows = [], []
    for i, row in enumerate(states):
        if not isinstance(row, list) or len(row) < 2:
            raise TraceSchemaError(f"{path}[{i}]", "must be a list [t, s0, ...] with >= 2 entries")
        _check_numbers(row, f"{path}[{i}]")
        width = len(states[0])  # row 0 passed the checks above
        if len(row) != width:
            raise TraceSchemaError(f"{path}[{i}]",
                                   f"row length {len(row)} != {width} of earlier rows")
        times.append(float(row[0]))
        rows.append(tuple(map(float, row[1:])))
    if any(b <= a for a, b in zip(times, times[1:])):
        raise TraceSchemaError(path, "timestamps must be strictly increasing")
    return times, rows


def _walk_modes(path: str, names: list) -> list[Mode]:
    """The modes of a wire `mode_trace`, name by name, which names the
    first unknown one."""
    for i, name in enumerate(names):
        if name not in MODE_NAMES:
            raise TraceSchemaError(
                f"{path}[{i}]", f"unknown mode {name!r}, expected one of {MODE_NAMES}"
            )
    return [Mode(name) for name in names]


def _plain_payloads(payloads: list) -> bool:
    """Whether every payload is a list of floats, ints and lists of them,
    to any depth, so that `non_number_entry` finds nothing in it: one type
    test per nesting level of the whole column."""
    if not _LIST.issuperset(map(type, payloads)):
        return False
    level = payloads
    while level:
        entries = list(chain.from_iterable(level))
        types = list(map(type, entries))
        kinds = set(types)
        if not kinds <= _NESTED:
            return False
        level = list(compress(entries, map(_LIST.__contains__, types))) if list in kinds else ()
    return True


def _read_payloads(path: str, kind: str, rows, grid: list[float]) -> list:
    """The payloads of a set's wire `state_trace`, one per sample of the
    grid. The column is tested in one pass: every row a pair, the
    timestamps the grid's, every payload of plain number types (see
    `_plain_payloads`). The payloads are parsed as one column
    (`geometry.parse_column`), which has one dimension. A column that
    fails is read by `_walk_payloads`."""
    if not isinstance(rows, list) or not rows:
        raise TraceSchemaError(path, "must be a nonempty list")
    if len(rows) != len(grid):
        raise TraceSchemaError(path, f"expected {len(grid)} samples to match agents, got {len(rows)}")
    if _LIST.issuperset(map(type, rows)) and set(map(len, rows)) == {2}:
        times = list(map(itemgetter(0), rows))
        payloads = list(map(itemgetter(1), rows))
        if plain_finite(times) and times == grid and _plain_payloads(payloads):
            try:
                parse_column(kind, payloads)
                return payloads
            except GeometryError:
                pass
    return _walk_payloads(path, kind, rows, grid)


def _walk_payloads(path: str, kind: str, rows: list, grid: list[float]) -> list:
    """`_read_payloads` row by row, which names the first bad entry. A
    payload equal to the one before it is not parsed again."""
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
    """Check a raw document against the wire format: `ExecutionTrace.from_dict`
    with its trace dropped."""
    ExecutionTrace.from_dict(doc)
