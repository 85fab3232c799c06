"""Correctness checks on one benchmark operation, computed apart from the program.

Every check reads raw JSON documents (the generated scenario document, the
trace file, the timings file and summary.json) and recomputes what it needs
with its own formulas. Nothing here imports rtakit, and nothing compares
against a stored copy of earlier output. A failed check raises CheckFailure.

Tolerances (absolute unless noted):
    kinematic identities, set payloads   1e-9
    ball / box / point / agent distance  1e-9
    polytope distance (scipy SLSQP)      1e-6
    time to collision                    1e-9 + 1e-7 relative; inf must match inf;
                                         a discriminant above -1e-12 max(b^2, 4ac, 1)
                                         counts as grazing contact
    timing stats, usage percentages      1e-9 relative
    one-step safety                      a set counts as hit only when the
                                         position (or step-1 box) meets the
                                         set shrunk by 1e-9 (1e-7 for the
                                         multi-row polytope LP)
"""
from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, minimize

MODES = ("SAFETY", "UNTRUSTED", "NORMAL")
TOL = 1e-9
POLY_TOL = 1e-6
SAFETY_MARGIN = 1e-9
LP_MARGIN = 1e-7


class CheckFailure(Exception):
    """An operation's output disagrees with an independent recomputation."""


def _fail(message: str):
    raise CheckFailure(message)


# -- document helpers ---------------------------------------------------------

def grid_size(doc: dict) -> int:
    """floor(T/dt) + 1, computed exactly on the decimal values."""
    ratio = Fraction(repr(doc["time"]["T"])) / Fraction(repr(doc["time"]["dt"]))
    return math.floor(ratio) + 1


def positions(trace_doc: dict, agent_id: str, dim: int) -> np.ndarray:
    rows = trace_doc["agents"][agent_id]["state_trace"]
    return np.array([row[1:1 + dim] for row in rows], dtype=float)


def _rta_type(agent_doc: dict) -> str:
    return (agent_doc.get("rta") or {}).get("type", "none")


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _flat(x) -> list[float]:
    if isinstance(x, list):
        return [v for item in x for v in _flat(item)]
    return [x]


# -- trace shape --------------------------------------------------------------

def check_schema(validator, trace_doc: dict) -> None:
    """The trace file conforms to schema/trace.schema.json."""
    error = next(iter(validator.iter_errors(trace_doc)), None)
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path)
        _fail(f"schema: {where}: {error.message[:200]}")


def check_grid(doc: dict, trace_doc: dict) -> None:
    """Every series sits on t_k = k*dt with floor(T/dt) + 1 samples."""
    dt = float(doc["time"]["dt"])
    n = grid_size(doc)
    series = [(f"agent {aid}", e["state_trace"]) for aid, e in trace_doc["agents"].items()]
    series += [(f"set {sid}", e["state_trace"]) for sid, e in trace_doc["unsafe"].items()]
    for label, rows in series:
        if len(rows) != n:
            _fail(f"grid: {label} has {len(rows)} samples, expected {n}")
        for k, row in enumerate(rows):
            if row[0] != k * dt:
                _fail(f"grid: {label} sample {k} at t={row[0]!r}, expected {k * dt!r}")


def check_modes(doc: dict, trace_doc: dict) -> None:
    """n-1 modes per agent; fixed agents keep their mode, RTA agents pick
    SAFETY or UNTRUSTED."""
    for agent in doc["agents"]:
        entry = trace_doc["agents"][agent["id"]]
        modes = entry["mode_trace"]
        if len(modes) != len(entry["state_trace"]) - 1:
            _fail(f"modes: agent {agent['id']} has {len(modes)} modes for "
                  f"{len(entry['state_trace'])} samples")
        if _rta_type(agent) == "none":
            allowed = {agent.get("mode", "NORMAL")}
        else:
            allowed = {"SAFETY", "UNTRUSTED"}
        bad = set(modes) - allowed
        if bad:
            _fail(f"modes: agent {agent['id']} uses {sorted(bad)}, allowed {sorted(allowed)}")


def check_timings(doc: dict, trace_doc: dict, timings_doc: dict) -> None:
    """Exactly one nonnegative duration per tick per RTA binding."""
    ticks = grid_size(doc) - 1
    timings = timings_doc["timings"]
    rta_ids = {a["id"] for a in doc["agents"] if _rta_type(a) != "none"}
    if set(timings) != rta_ids:
        _fail(f"timings: recorded for {sorted(timings)}, RTA agents are {sorted(rta_ids)}")
    for aid, durations in timings.items():
        if len(durations) != ticks:
            _fail(f"timings: agent {aid} has {len(durations)} durations for {ticks} ticks")
        if any(not (d >= 0.0 and math.isfinite(d)) for d in durations):
            _fail(f"timings: agent {aid} has a negative or non-finite duration")


# -- dynamics and sets ----------------------------------------------------------

def check_kinematics(doc: dict, trace_doc: dict) -> None:
    """The position update of every executed step, recomputed from the
    previous sample: p' = p + v dt (ACC, |v| <= v_max); x' = x + v cos h dt,
    y' = y + v sin h dt, z' = z + v sin g dt (car, plane; 0 <= v <= v_max)."""
    dt = float(doc["time"]["dt"])
    for agent in doc["agents"]:
        aid, model = agent["id"], agent["model"]
        v_max = float(agent["params"]["v_max"])
        rows = trace_doc["agents"][aid]["state_trace"]
        for k in range(len(rows) - 1):
            s, nxt = rows[k][1:], rows[k + 1][1:]
            if model == "acc":
                expect = [s[0] + s[1] * dt]
                speed = abs(nxt[1])
            elif model == "dubins_car":
                x, y, h, v = s
                expect = [x + v * math.cos(h) * dt, y + v * math.sin(h) * dt]
                speed = nxt[3]
            else:
                x, y, z, h, g, v = s
                expect = [x + v * math.cos(h) * dt, y + v * math.sin(h) * dt,
                          z + v * math.sin(g) * dt]
                speed = nxt[5]
            for i, e in enumerate(expect):
                if not _close(nxt[i], e, TOL * (1.0 + abs(e))):
                    _fail(f"kinematics: agent {aid} step {k}: position[{i}] is "
                          f"{nxt[i]!r}, expected {e!r}")
            if not -TOL <= speed <= v_max + TOL:
                _fail(f"kinematics: agent {aid} step {k}: speed {speed!r} outside [0, {v_max}]")


def translated_payload(set_doc: dict, reference: np.ndarray):
    """The set's base definition with its reference point moved to `reference`
    (point/ball: the centre, box: the midpoint, polytope: b -> b + A ref)."""
    kind, base = set_doc["type"], set_doc["definition"]
    ref = np.asarray(reference, dtype=float)
    if kind == "point":
        return ref.tolist()
    if kind == "ball":
        return [ref.tolist(), base[1]]
    if kind == "hyperrectangle":
        half = (np.asarray(base[1], float) - np.asarray(base[0], float)) / 2.0
        return [(ref - half).tolist(), (ref + half).tolist()]
    A = np.asarray(base[0], dtype=float)
    return [base[0], (np.asarray(base[1], float) + A @ ref).tolist()]


def check_sets(doc: dict, trace_doc: dict) -> None:
    """Static sets keep their definition; anchored sets equal their base
    translated to anchor position + offset at every sample."""
    dim = doc["workspace_dim"]
    for set_doc in doc.get("unsafe_sets", []):
        sid = set_doc["id"]
        entry = trace_doc["unsafe"][sid]
        if entry["type"] != set_doc["type"]:
            _fail(f"sets: {sid} has type {entry['type']}, expected {set_doc['type']}")
        anchor = set_doc.get("anchor")
        if anchor is not None:
            offset = np.asarray(set_doc.get("offset", [0.0] * dim), dtype=float)
            anchor_pos = positions(trace_doc, anchor, dim)
        for k, (_, payload) in enumerate(entry["state_trace"]):
            expect = (set_doc["definition"] if anchor is None
                      else translated_payload(set_doc, anchor_pos[k] + offset))
            got, want = _flat(payload), _flat(expect)
            if len(got) != len(want) or any(
                    not _close(g, w, TOL * (1.0 + abs(w))) for g, w in zip(got, want)):
                _fail(f"sets: {sid} sample {k} is {payload}, expected {expect}")


def box_meets(set_doc: dict, payload, lower: np.ndarray, upper: np.ndarray) -> bool:
    """Whether the box [lower, upper] meets the set shrunk by the safety margin."""
    kind = set_doc["type"]
    if kind == "point":
        c = np.asarray(payload, dtype=float)
        return bool(np.all(lower <= c) and np.all(c <= upper))
    if kind == "ball":
        c = np.asarray(payload[0], dtype=float)
        gap = float(np.linalg.norm(c - np.clip(c, lower, upper)))
        return gap <= float(payload[1]) - SAFETY_MARGIN
    if kind == "hyperrectangle":
        lo = np.asarray(payload[0], dtype=float) + SAFETY_MARGIN
        hi = np.asarray(payload[1], dtype=float) - SAFETY_MARGIN
        return bool(np.all(np.maximum(lower, lo) <= np.minimum(upper, hi)))
    A = np.asarray(payload[0], dtype=float)
    b = np.asarray(payload[1], dtype=float)
    centre, half = (lower + upper) / 2.0, (upper - lower) / 2.0
    # min of a.x over the box is a.centre - |a|.half; one row above b separates.
    if np.any(A @ centre - np.abs(A) @ half > b - SAFETY_MARGIN):
        return False
    if A.shape[0] == 1:
        return True
    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b - LP_MARGIN,
                  bounds=list(zip(lower, upper)), method="highs")
    return res.status == 0


def check_one_step_safety(doc: dict, trace_doc: dict) -> None:
    """Whenever a binding chose UNTRUSTED at tick k, the ego's executed
    position at k+1 (SimRta) or its step-1 box, position +- bloat_rate*dt
    (ReachRta), lies outside every static guarded set. Anchored sets are
    left out: the rollout's prediction of other agents is not exact."""
    dim = doc["workspace_dim"]
    dt = float(doc["time"]["dt"])
    static = [s for s in doc.get("unsafe_sets", []) if s.get("anchor") is None]
    for agent in doc["agents"]:
        kind = _rta_type(agent)
        if kind == "none" or not static:
            continue
        r = float(agent["rta"]["bloat_rate"]) * dt if kind == "reach" else 0.0
        pos = positions(trace_doc, agent["id"], dim)
        modes = trace_doc["agents"][agent["id"]]["mode_trace"]
        for k, mode in enumerate(modes):
            if mode != "UNTRUSTED":
                continue
            p = pos[k + 1]
            for set_doc in static:
                payload = trace_doc["unsafe"][set_doc["id"]]["state_trace"][k + 1][1]
                if box_meets(set_doc, payload, p - r, p + r):
                    _fail(f"safety: agent {agent['id']} chose UNTRUSTED at tick {k} "
                          f"but reached {p.tolist()} (box +-{r:g}) in {set_doc['id']}")


# -- report recomputation -----------------------------------------------------------

def polytope_distance(A: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    """Euclidean distance from p to {x : Ax <= b} by SLSQP."""
    if np.all(A @ p <= b):
        return 0.0
    if A.shape[0] == 1:
        return float((A[0] @ p - b[0]) / np.linalg.norm(A[0]))
    # Start at p, then at p projected onto its most violated half-space.
    worst = int(np.argmax((A @ p - b) / np.linalg.norm(A, axis=1)))
    a_w = A[worst]
    for x0 in (p, p - (a_w @ p - b[worst]) / (a_w @ a_w) * a_w):
        res = minimize(
            lambda x: float((x - p) @ (x - p)), x0, jac=lambda x: 2.0 * (x - p),
            constraints=[{"type": "ineq", "fun": lambda x: b - A @ x, "jac": lambda x: -A}],
            method="SLSQP", options={"ftol": 1e-12, "maxiter": 500},
        )
        if res.success:
            return float(np.linalg.norm(res.x - p))
    _fail(f"polytope distance solver failed: {res.message}")


def min_polytope_distance(payloads: list, pos: np.ndarray) -> float:
    """min_k dist(pos_k, P_k), solving only the samples whose half-space
    lower bound max_i (a_i.p - b_i)/|a_i| is below the best found so far."""
    bounds = []
    for (A, b), p in zip(payloads, pos):
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        bounds.append(max(0.0, float(np.max((A @ p - b) / np.linalg.norm(A, axis=1)))))
    best = math.inf
    for k in sorted(range(len(bounds)), key=bounds.__getitem__):
        if bounds[k] >= best:
            break
        A, b = (np.asarray(x, dtype=float) for x in payloads[k])
        best = min(best, polytope_distance(A, b, pos[k]))
    return best


def distance_to_set(kind: str, payloads: list, pos: np.ndarray) -> float:
    """Minimum over samples of the distance from the agent to the set."""
    if kind == "polytope":
        return min_polytope_distance(payloads, pos)
    if kind == "point":
        return float(np.min(np.linalg.norm(pos - np.asarray(payloads, float), axis=1)))
    if kind == "ball":
        centres = np.asarray([p[0] for p in payloads], dtype=float)
        radii = np.asarray([p[1] for p in payloads], dtype=float)
        return float(np.min(np.maximum(0.0, np.linalg.norm(pos - centres, axis=1) - radii)))
    lo = np.asarray([p[0] for p in payloads], dtype=float)
    hi = np.asarray([p[1] for p in payloads], dtype=float)
    return float(np.min(np.linalg.norm(pos - np.clip(pos, lo, hi), axis=1)))


def fd_velocity(ts: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Backward finite difference (p_j - p_{j-1}) / (t_j - t_{j-1}) with
    j = max(k, 1), as documented for evaluation.py's velocity fallback."""
    j = np.maximum(np.arange(len(ts)), 1)
    return (pos[j] - pos[j - 1]) / (ts[j] - ts[j - 1])[:, None]


def entry_time(rel_pos: np.ndarray, rel_vel: np.ndarray, radius: float) -> float:
    """Smallest tau >= 0 with |rel_pos + rel_vel tau| <= radius."""
    c = float(rel_pos @ rel_pos) - radius * radius
    if c <= 0.0:
        return 0.0
    a = float(rel_vel @ rel_vel)
    b = 2.0 * float(rel_pos @ rel_vel)
    if a == 0.0 or b >= 0.0:
        return math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        # Grazing contact within the tolerance evaluation.py documents counts
        # as contact, so parallel movers can get a huge but finite TTC.
        if disc < -1e-12 * max(b * b, 4.0 * a * c, 1.0):
            return math.inf
        disc = 0.0
    return (-b - math.sqrt(disc)) / (2.0 * a)


def min_entry_time(ts, pos, vel, centres, centre_vel, radius) -> float:
    return min(entry_time(pos[k] - centres[k], vel[k] - centre_vel[k], radius)
               for k in range(len(ts)))


def _same_ttc(got, want: float) -> bool:
    if math.isinf(want):
        return got is None
    return got is not None and abs(got - want) <= TOL + 1e-7 * abs(want)


def _same_rel(got, want: float) -> bool:
    return got is not None and abs(got - want) <= TOL * max(1.0, abs(want))


def check_summary(doc: dict, trace_doc: dict, timings_doc: dict, summary: dict) -> None:
    """Recompute summary.json from the trace: sample count, duration,
    timing stats, usage, switches, minimum distances to every set and agent,
    and the closed-form TTC to balls and to other agents (radius 0)."""
    dim = doc["workspace_dim"]
    agent_ids = list(trace_doc["agents"])
    ts = np.array([row[0] for row in trace_doc["agents"][agent_ids[0]]["state_trace"]])
    if summary["n_samples"] != len(ts):
        _fail(f"summary: n_samples {summary['n_samples']}, trace has {len(ts)}")
    if not _close(summary["duration"], float(ts[-1] - ts[0])):
        _fail(f"summary: duration {summary['duration']}, trace spans {ts[-1] - ts[0]}")
    if set(summary["agents"]) != set(agent_ids):
        _fail(f"summary: agents {sorted(summary['agents'])}, trace has {sorted(agent_ids)}")

    pos = {aid: positions(trace_doc, aid, dim) for aid in agent_ids}
    vel = {aid: fd_velocity(ts, pos[aid]) for aid in agent_ids}
    balls = {}
    for sid, entry in trace_doc["unsafe"].items():
        if entry["type"] == "ball":
            centres = np.array([row[1][0] for row in entry["state_trace"]], dtype=float)
            balls[sid] = (centres, fd_velocity(ts, centres), float(entry["state_trace"][0][1][1]))

    for aid in agent_ids:
        rep = summary["agents"][aid]
        where = f"summary: agent {aid}"

        durations = timings_doc["timings"].get(aid, [])
        timing = rep["timing"]
        if timing["count"] != len(durations):
            _fail(f"{where}: timing count {timing['count']}, recorded {len(durations)}")
        if durations:
            for key, want in (("avg", sum(durations) / len(durations)),
                              ("min", min(durations)), ("max", max(durations))):
                if not _same_rel(timing[key], want):
                    _fail(f"{where}: timing {key} {timing[key]}, recomputed {want}")

        modes = trace_doc["agents"][aid]["mode_trace"]
        usage = {m: 100.0 * modes.count(m) / len(modes) for m in MODES if m in modes}
        if set(rep["usage_percent"]) != set(usage) or any(
                not _same_rel(rep["usage_percent"][m], u) for m, u in usage.items()):
            _fail(f"{where}: usage {rep['usage_percent']}, recomputed {usage}")
        switches = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
        if rep["switch_count"] != switches:
            _fail(f"{where}: switch_count {rep['switch_count']}, recomputed {switches}")

        for sid, entry in trace_doc["unsafe"].items():
            payloads = [row[1] for row in entry["state_trace"]]
            want = distance_to_set(entry["type"], payloads, pos[aid])
            got = rep["min_distance_to_sets"].get(sid)
            tol = POLY_TOL if entry["type"] == "polytope" else TOL
            if got is None or abs(got - want) > tol:
                _fail(f"{where}: min distance to {sid} is {got}, recomputed {want}")
            if sid in balls:
                centres, centre_vel, radius = balls[sid]
                want = min_entry_time(ts, pos[aid], vel[aid], centres, centre_vel, radius)
                got = rep["min_ttc_to_sets"].get(sid)
                if not _same_ttc(got, want):
                    _fail(f"{where}: min TTC to {sid} is {got}, recomputed {want}")

        others = [o for o in agent_ids if o != aid]
        if set(rep["min_distance_to_agents"]) != set(others):
            _fail(f"{where}: agent distances for {sorted(rep['min_distance_to_agents'])}")
        for other in others:
            want = float(np.min(np.linalg.norm(pos[aid] - pos[other], axis=1)))
            got = rep["min_distance_to_agents"][other]
            if got is None or abs(got - want) > TOL:
                _fail(f"{where}: min distance to agent {other} is {got}, recomputed {want}")
            want = min_entry_time(ts, pos[aid], vel[aid], pos[other], vel[other], 0.0)
            got = rep["min_ttc_to_agents"].get(other)
            if not _same_ttc(got, want):
                _fail(f"{where}: min TTC to agent {other} is {got}, recomputed {want}")


def check_report_files(trace_doc: dict, report_dir: Path) -> None:
    """summary.txt, summary.json and one CSV per agent/target and mode series."""
    expected = ["summary.txt", "summary.json"]
    for aid in trace_doc["agents"]:
        expected += [f"{aid}__dist_set__{sid}.csv" for sid in trace_doc["unsafe"]]
        expected += [f"{aid}__dist_agent__{o}.csv" for o in trace_doc["agents"] if o != aid]
        expected.append(f"{aid}__mode.csv")
    missing = [name for name in expected if not (report_dir / name).is_file()]
    if missing:
        _fail(f"report files missing: {missing[:5]}")


def check_operation(validator, doc: dict, trace_doc: dict, timings_doc: dict,
                    summary: dict, report_dir: Path | None = None) -> None:
    """Every check, in order; the first disagreement raises CheckFailure."""
    check_schema(validator, trace_doc)
    check_grid(doc, trace_doc)
    check_modes(doc, trace_doc)
    check_timings(doc, trace_doc, timings_doc)
    check_kinematics(doc, trace_doc)
    check_sets(doc, trace_doc)
    check_one_step_safety(doc, trace_doc)
    check_summary(doc, trace_doc, timings_doc, summary)
    if report_dir is not None:
        check_report_files(trace_doc, report_dir)
