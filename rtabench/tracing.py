"""Span recorder for the traced run.

`Recorder.install()` wraps the public function at each layer boundary of
rtakit, in every namespace its callers look it up in (for example `predict`
in both rtakit.scenario and rtakit.rta), and `uninstall()` puts the
originals back; the program itself is not modified. Every call records one
span in flat in-memory arrays: name, parent span, start, end. `aggregate()`
turns the spans of one round into per-name call counts, inclusive time and
self time (duration minus the time covered by child spans).

Span names are `<module>.<function>[.<kind>]`; the kind splits a function by
the set type, agent model or calling context it served.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from functools import wraps
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A function to wrap: `attr` on each owner ("module" or "module:Class")."""

    owners: tuple[str, ...]
    attr: str
    name: str | Callable  # fixed span name, or namer(recorder, args) -> str
    after: Callable | None = None  # hook(recorder, args, result), inside the span


def _kind(prefix: str):
    return lambda rec, args: f"{prefix}.{args[0].kind}"


def _advance_kind(rec, args):
    return ("scenario.advance.rollout" if rec.active("scenario.predict")
            else "scenario.advance.exec")


def _count_safety(rec, args, result):
    if getattr(result, "value", result) == "SAFETY":
        rec.counts["rta.safety"] = rec.counts.get("rta.safety", 0) + 1


def _note_read(rec, args, result):
    trace, set_id, k = args[:3]
    rec.read_samples.add((id(trace), set_id, k))
    rec.keep_alive[id(trace)] = trace  # ids stay unique while the round lasts


SETS = ("rtakit.geometry:PointSet", "rtakit.geometry:Ball",
        "rtakit.geometry:Hyperrectangle", "rtakit.geometry:Polytope")

TARGETS = (
    Target(("rtakit.config",), "config_from_dict", "config.config_from_dict"),
    Target(("rtakit.scenario",), "build_scenario", "scenario.build_scenario"),
    Target(("rtakit.scenario",), "execute", "scenario.execute"),
    Target(("rtakit.scenario:Scenario",), "advance", _advance_kind),
    Target(("rtakit.scenario", "rtakit.rta"), "predict", "scenario.predict"),
    Target(("rtakit.rta:RtaBinding",), "switch", "rta.switch", _count_safety),
    Target(("rtakit.rta:SimRta", "rtakit.rta:ReachRta"), "decide", "rta.decide"),
    Target(("rtakit.rta",), "forward_simulate", "rta.forward_simulate"),
    Target(("rtakit.rta",), "boxes_from_prediction", "rta.boxes_from_prediction"),
    Target(("rtakit.agents:AccAgent", "rtakit.agents:DubinsCarAgent",
            "rtakit.agents:DubinsPlaneAgent"), "step",
           lambda rec, args: f"agents.step.{args[0].model_name}"),
    Target(("rtakit.agents:DubinsCarAgent",), "goal_position", "agents.goal_position"),
    Target(("rtakit.geometry", "rtakit.trace", "rtakit.config"), "set_from_payload",
           "geometry.set_from_payload"),
    Target(("rtakit.geometry", "rtakit.scenario"), "update_relative",
           "geometry.update_relative"),
    Target(SETS, "contains", _kind("geometry.contains")),
    Target(SETS, "distance", _kind("geometry.distance")),
    Target(("rtakit.geometry:Polytope",), "project", "geometry.Polytope.project"),
    Target(("rtakit.geometry", "rtakit.rta"), "box_intersects",
           lambda rec, args: f"geometry.box_intersects.{args[0].kind}"),
    Target(("rtakit.trace:ExecutionTrace",), "unsafe_def", "trace.unsafe_def", _note_read),
    Target(("rtakit.trace:ExecutionTrace",), "timestamps", "trace.timestamps"),
    Target(("rtakit.trace:ExecutionTrace",), "to_json", "trace.to_json"),
    Target(("rtakit.trace:ExecutionTrace",), "dump", "trace.dump"),
    Target(("rtakit.trace:ExecutionTrace",), "load", "trace.load"),
    Target(("rtakit.trace:ExecutionTrace",), "from_dict", "trace.from_dict"),
    Target(("rtakit.trace",), "validate_trace_dict", "trace.validate_trace_dict"),
    Target(("rtakit.evaluation",), "build_report", "evaluation.build_report"),
    Target(("rtakit.evaluation",), "distance_series", "evaluation.distance_series"),
    Target(("rtakit.evaluation",), "ttc", "evaluation.ttc"),
    Target(("rtakit.evaluation",), "controller_usage", "evaluation.controller_usage"),
    Target(("rtabench.pipeline",), "write_reports", "evaluation.write"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.read_samples: set = set()
        self.keep_alive: dict = {}
        self.skipped: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def active(self, name: str) -> bool:
        nid = self.name_ids.get(name)
        return nid is not None and any(self.span_name[i] == nid for i in self.stack[1:])

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counts.clear()
        self.read_samples.clear()
        self.keep_alive.clear()

    def wrap(self, fn, name, after=None):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        fixed = self.name_id(name) if isinstance(name, str) else None
        clock = time.perf_counter
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else rec.name_id(name(rec, args))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, result)
            finally:
                ends[idx] = clock()
                stack.pop()
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            owners = [_resolve(o) for o in target.owners]
            for owner in owners:
                raw = vars(owner).get(target.attr)
                if raw is None:
                    self.skipped.append(f"{owner.__name__}.{target.attr}")
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, target.name, target.after))
                else:
                    patched = self.wrap(raw, target.name, target.after)
                self._saved.append((owner, target.attr, raw))
                setattr(owner, target.attr, patched)
        if self.skipped:
            print(f"tracing: not found, left unwrapped: {', '.join(self.skipped)}",
                  file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def aggregate(self) -> dict[str, float]:
        """Per-name `calls`, `s` (inclusive) and `self_s` for the spans
        recorded since the last reset, plus the derived counters."""
        k = len(self.names)
        n = len(self.span_start)
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end, dtype=float) - np.array(self.span_start, dtype=float)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        own = dur - child
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(incl[i])
            out[f"{name}.self_s"] = float(selfs[i])
        out["bench.attributed_s"] = float(dur[~nested].sum())
        out["rta.safety.calls"] = self.counts.get("rta.safety", 0)
        parse, read = self.name_ids.get("geometry.set_from_payload"), self.name_ids.get("trace.unsafe_def")
        if parse is not None and read is not None and self.read_samples:
            in_reads = (names == parse) & nested
            in_reads[in_reads] = names[parents[in_reads]] == read
            out["geometry.set_from_payload.per_read"] = int(in_reads.sum()) / len(self.read_samples)
        return out
