"""Scenario configuration files (JSON) -> ScenarioConfig.

Document layout (see schema/scenario.schema.json for the full contract):

    {"workspace_dim": 1,
     "time": {"dt": 0.1, "T": 5.0},
     "agents": [{"id": "...", "model": "acc|dubins_car|dubins_plane",
                 "params": {...}, "init": [...], "mode": "UNTRUSTED",
                 "rta": {"type": "sim|reach|none", "horizon": 1.0,
                         "bloat_rate": 0.1}},
                ...],
     "unsafe_sets": [{"id": "...", "type": "ball", "definition": [[0.0], 7.0],
                      "anchor": "leader", "offset": [5.0]},
                     ...]}

"params" takes the fields of the model's params_type dataclass plus the
wiring keys (leader_id, formation_offset, waypoints) its constructor takes.
Every numeric field, every formation_offset and waypoint coordinate, and
every number of an unsafe set's definition and offset must be a finite
number (a boolean or a numeric string is not one).
anchor/offset are optional; with them the set is re-resolved every step so
its reference point sits at anchor position + offset.
"""
from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path

from .agents import AccAgent, DubinsCarAgent, DubinsPlaneAgent, Mode
from .geometry import GeometryError, Polytope, RelativeSetSpec, set_from_payload
from .rta import ReachRta, RtaBinding, SimRta
from .scenario import AgentSpec, ScenarioConfig, StaticSetSpec
from .trace import is_finite_number, non_number_entry

MODELS = {cls.model_name: cls for cls in (AccAgent, DubinsCarAgent, DubinsPlaneAgent)}

# Each model's float params; a config must give them as finite numbers.
_FLOAT_PARAMS = {
    name: {k for k, t in typing.get_type_hints(cls.params_type).items() if t is float}
    for name, cls in MODELS.items()
}

# "params" keys that wire the agent to others; the rest fill params_type.
_WIRING_KEYS = {"leader_id", "formation_offset", "waypoints"}

# The keys schema/scenario.schema.json allows in each object.
DOCUMENT_KEYS = {"workspace_dim", "time", "agents", "unsafe_sets"}
TIME_KEYS = {"dt", "T"}
AGENT_KEYS = {"id", "model", "params", "init", "mode", "rta"}
RTA_KEYS = {"type", "horizon", "bloat_rate"}
UNSAFE_SET_KEYS = {"id", "type", "definition", "anchor", "offset"}


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the location."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return doc[key]


def _object(doc, where: str, keys: set[str]) -> dict:
    """`doc`, checked to be an object whose keys are all in `keys`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{where}: unknown field {key!r}; expected one of {sorted(keys)}")
    return doc


def _id(doc: dict, where: str) -> str:
    value = _require(doc, "id", where)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}.id: expected a nonempty string, got {value!r}")
    return value


def _number(value, where: str) -> float:
    if is_finite_number(value):
        return float(value)
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _numbers(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _build_agent(entry: dict, index: int) -> AgentSpec:
    where = f"agents[{index}]"
    agent_id = _id(_object(entry, where, AGENT_KEYS), where)
    model_name = _require(entry, "model", where)
    cls = MODELS.get(model_name)
    if cls is None:
        raise ConfigError(
            f"{where}: unknown model {model_name!r}; expected one of {', '.join(MODELS)}"
        )
    raw = entry.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}.params: expected an object")
    raw = dict(raw)
    wiring = {k: raw.pop(k) for k in list(raw) if k in _WIRING_KEYS}
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls.params_type)}
    if unknown:
        raise ConfigError(
            f"{where}.params: unknown fields {sorted(unknown)} for model {model_name!r}"
        )
    raw = {k: _number(v, f"{where}.params.{k}") if k in _FLOAT_PARAMS[model_name] else v
           for k, v in raw.items()}
    if "formation_offset" in wiring:
        wiring["formation_offset"] = _numbers(
            wiring["formation_offset"], f"{where}.params.formation_offset"
        )
    if "waypoints" in wiring:
        waypoints = wiring["waypoints"]
        if not isinstance(waypoints, list):
            raise ConfigError(f"{where}.params.waypoints: expected a list of points")
        wiring["waypoints"] = [
            _numbers(w, f"{where}.params.waypoints[{j}]") for j, w in enumerate(waypoints)
        ]

    try:
        model = cls(agent_id, cls.params_type(**raw), **wiring)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.params: {exc}") from exc

    init_state = _numbers(_require(entry, "init", where), f"{where}.init")

    mode_name = entry.get("mode", "NORMAL")
    try:
        mode = Mode(mode_name)
    except ValueError as exc:
        raise ConfigError(f"{where}.mode: unknown mode {mode_name!r}") from exc

    return AgentSpec(model, init_state, mode, _build_rta(entry.get("rta"), f"{where}.rta"))


def _build_rta(entry, where: str) -> RtaBinding | None:
    if entry is None:
        return None
    kind = _require(_object(entry, where, RTA_KEYS), "type", where)
    # Every given key is checked, whatever the type; an absent one takes the
    # logic's default.
    given = {key: _number(entry[key], f"{where}.{key}")
             for key in ("horizon", "bloat_rate") if key in entry}
    if given.get("horizon", 1.0) <= 0:
        raise ConfigError(f"{where}.horizon: expected a positive number, got {given['horizon']!r}")
    if given.get("bloat_rate", 0.0) < 0:
        raise ConfigError(f"{where}.bloat_rate: expected a nonnegative number, "
                          f"got {given['bloat_rate']!r}")
    if kind == "none":
        return None
    if kind == "sim":
        given.pop("bloat_rate", None)
        return RtaBinding(SimRta(**given))
    if kind == "reach":
        return RtaBinding(ReachRta(**given))
    raise ConfigError(f"{where}.type: unknown RTA type {kind!r}; expected sim, reach, or none")


def _build_unsafe(entry: dict, index: int):
    where = f"unsafe_sets[{index}]"
    set_id = _id(_object(entry, where, UNSAFE_SET_KEYS), where)
    kind = _require(entry, "type", where)
    definition = _require(entry, "definition", where)
    try:
        base = set_from_payload(kind, definition)
        if isinstance(base, Polytope):  # unchecked payload: rebuild with the emptiness LP
            base = Polytope(base.A, base.b)
    except GeometryError as exc:
        raise ConfigError(f"{where}.definition: {exc}") from exc
    bad = non_number_entry(definition)
    if bad is not None:
        raise ConfigError(f"{where}.definition{bad[0]}: expected a number, got {bad[1]!r}")
    anchor = entry.get("anchor")
    offset = entry.get("offset")
    if anchor is None and offset is None:
        return StaticSetSpec(set_id=set_id, base=base)
    if anchor is None:
        raise ConfigError(f"{where}: offset given without an anchor")
    offset = [0.0] * base.dim if offset is None else _numbers(offset, f"{where}.offset")
    try:
        return RelativeSetSpec(set_id, base, offset, anchor)
    except GeometryError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc: dict) -> ScenarioConfig:
    _object(doc, "<document>", DOCUMENT_KEYS)
    time_section = _object(_require(doc, "time", "<document>"), "time", TIME_KEYS)
    dt = _number(_require(time_section, "dt", "time"), "time.dt")
    horizon = _number(_require(time_section, "T", "time"), "time.T")
    workspace_dim = _require(doc, "workspace_dim", "<document>")
    if isinstance(workspace_dim, bool) or not isinstance(workspace_dim, int):
        raise ConfigError("workspace_dim: expected an integer")
    agents_section = _require(doc, "agents", "<document>")
    if not isinstance(agents_section, list) or not agents_section:
        raise ConfigError("agents: expected a nonempty list")
    agents = [_build_agent(entry, i) for i, entry in enumerate(agents_section)]
    unsafe_section = doc.get("unsafe_sets", [])
    if not isinstance(unsafe_section, list):
        raise ConfigError("unsafe_sets: expected a list")
    unsafe = [_build_unsafe(entry, i) for i, entry in enumerate(unsafe_section)]
    return ScenarioConfig(agents=agents, unsafe_sets=unsafe, dt=dt, horizon=horizon,
                          workspace_dim=workspace_dim)


def parse_scenario_config(path) -> ScenarioConfig:
    """Load and validate a scenario file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(doc)
