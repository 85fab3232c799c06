"""Shared test fixtures: independent oracles, scenario builders, a
per-entry reference trace loader and a per-row reference evaluator.

The polytope distance oracle is a refining grid search (pure sampling,
nothing shared with the projection solver under test); `ref_project` is the
one-point-at-a-time projection that the stacked solver must equal bit for bit.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rtabench import workloads
from rtakit import (
    AccAgent,
    AccParams,
    AgentSpec,
    Ball,
    ExecutionTrace,
    Hyperrectangle,
    Mode,
    PointSet,
    RelativeSetSpec,
    RtaBinding,
    ScenarioConfig,
    SimRta,
    TraceSchemaError,
    set_from_payload,
)
from rtakit.geometry import GeometryError, SET_KINDS


def grid_distance_oracle(A, b, query, feasible_point, rounds=9, batch=4096, seed=0):
    """Distance from `query` to {x : Ax <= b} by brute-force ray sampling.

    For every sampled unit direction u the first feasible point along
    query + t*u follows from intersecting the per-row intervals
    (A u) t <= b - A query, which is exact however thin the region is; the
    only error is angular, driven down by re-sampling inside a shrinking
    cone around the best direction. Independent of the projection solver.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(query, dtype=float)
    if np.all(A @ q <= b):
        return 0.0
    rng = np.random.default_rng(seed)
    rhs = b - A @ q

    def first_hit(dirs):
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = dirs / np.where(norms == 0.0, 1.0, norms)
        coef = dirs @ A.T
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = rhs[None, :] / coef
        t_hi = np.where(coef > 0, ratio, np.inf).min(axis=1)
        t_lo = np.where(coef < 0, ratio, 0.0).max(axis=1)
        dead = ((coef == 0) & (rhs[None, :] < 0)).any(axis=1)
        ok = ~dead & (t_lo <= t_hi)
        return dirs, np.where(ok, t_lo, np.inf)

    # a guaranteed hit to anchor the cone search
    anchor = np.asarray(feasible_point, dtype=float) - q
    dirs, hits = first_hit(anchor[None, :])
    best_u, best_d = dirs[0], float(hits[0])
    spread = 2.0
    for _ in range(rounds):
        cloud = best_u[None, :] + spread * rng.normal(size=(batch, q.shape[0]))
        dirs, hits = first_hit(np.vstack([best_u[None, :], cloud]))
        i = int(np.argmin(hits))
        if hits[i] < best_d:
            best_d = float(hits[i])
            best_u = dirs[i]
        spread *= 0.35
    return best_d


def random_polytope(rng, dim, n_rows):
    """Half-spaces with unit normals at distance U(0.5, 3) from the origin;
    always contains the ball of radius 0.5 around the origin."""
    A = rng.normal(size=(n_rows, dim))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = rng.uniform(0.5, 3.0, size=n_rows)
    return A, b


def acc_euler_step(p, v, a, dt, v_max):
    """Reference one-step update for the cruise agent."""
    p_next = p + v * dt
    v_next = v + a * dt
    if abs(v_next) >= v_max:
        v_next = math.copysign(v_max, v_next)
    return p_next, v_next


def make_trace(agent_states: dict[str, list[list[float]]],
               modes: dict[str, list[Mode]] | None = None,
               sets: dict[str, tuple[str, list]] | None = None) -> ExecutionTrace:
    """Build a trace from {agent: [[t, s0, s1, ...], ...]} rows and
    {set: (kind, [payload per sample])} columns."""
    trace = ExecutionTrace(agent_states, {sid: kind for sid, (kind, _) in (sets or {}).items()})
    for k, rows in enumerate(zip(*agent_states.values())):
        taken = {aid: m[k - 1] for aid, m in modes.items()} if modes and k else None
        payloads = {sid: column[k] for sid, (_, column) in sets.items()} if sets else None
        trace.append_sample(rows[0][0], {aid: row[1:] for aid, row in zip(agent_states, rows)},
                            taken, payloads)
    return trace


def acc_scenario_config(follower_init=(0.0, 1.0), leader_init=(5.0, 1.0),
                        dt=0.1, horizon=5.0, ball_radius=7.0, ball_offset=5.0,
                        params: AccParams | None = None, rta: RtaBinding | None = None,
                        follower_mode=Mode.UNTRUSTED) -> ScenarioConfig:
    """The follow-the-leader scenario: bang-bang follower, constant-speed
    leader, unsafe ball riding ahead of the leader."""
    params = params or AccParams()
    follower = AccAgent("follower", params, leader_id="leader")
    leader = AccAgent("leader", params)
    return ScenarioConfig(
        agents=[
            AgentSpec(follower, list(follower_init), follower_mode, rta),
            AgentSpec(leader, list(leader_init), Mode.NORMAL, None),
        ],
        unsafe_sets=[
            RelativeSetSpec("unsafe1", Ball([0.0], ball_radius), [ball_offset], "leader")
        ],
        dt=dt,
        horizon=horizon,
        workspace_dim=1,
    )


def sim_rta_binding(horizon=1.0) -> RtaBinding:
    return RtaBinding(SimRta(horizon=horizon))


def random_acc_config(rng, horizon=2.0, rta: RtaBinding | None = None) -> ScenarioConfig:
    """Randomized follow scenario for the logic-equivalence sweeps."""
    p_f = rng.uniform(-5.0, 5.0)
    v_f = rng.uniform(-3.0, 3.0)
    p_l = p_f + rng.uniform(2.0, 15.0)
    v_l = rng.uniform(0.5, 2.0)
    radius = rng.uniform(1.0, 6.0)
    offset = rng.uniform(0.0, 6.0)
    follow = rng.uniform(3.0, 12.0)
    params = AccParams(follow_distance=follow, collision_distance=min(radius, follow / 2))
    return acc_scenario_config(
        follower_init=(p_f, v_f),
        leader_init=(p_l, v_l),
        dt=0.1,
        horizon=horizon,
        ball_radius=radius,
        ball_offset=offset,
        params=params,
        rta=rta,
    )


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_docs():
    """The shipped configs and the benchmark workloads at seeds 1 and 2 (the
    first 8 operations of acc-sweep), as pytest params named after each."""
    for path in sorted(CONFIGS.glob("*.json")):
        yield pytest.param(json.loads(path.read_text()), id=path.name)
    for name, generate in sorted(workloads.WORKLOADS.items()):
        for seed in (1, 2):
            ops = generate(seed)
            if name == "acc-sweep":
                ops = ops[:8]
            for op, doc in ops:
                yield pytest.param(doc, id=f"{name}-{seed}-{op}")


# -- per-entry reference loader ------------------------------------------------------
#
# `ExecutionTrace.from_dict` as one walk over every entry, each row, mode name
# and payload tested on its own. The column-wise loader must build the same
# columns from any document, and raise the same error, path and message.

def _ref_finite_number(x) -> bool:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _ref_check_numbers(row, rpath: str) -> None:
    for j, v in enumerate(row):
        if not _ref_finite_number(v):
            raise TraceSchemaError(f"{rpath}[{j}]", f"expected a finite number, got {v!r}")


def _ref_non_number(payload):
    """(index path, entry) of the first non-int, non-float entry, or None."""
    if type(payload) is not list:
        return "", payload
    for j, v in enumerate(payload):
        if type(v) is not float and type(v) is not int:
            bad = _ref_non_number(v)
            if bad is not None:
                return f"[{j}]{bad[0]}", bad[1]
    return None


def _ref_states(path: str, states):
    if not isinstance(states, list) or not states:
        raise TraceSchemaError(path, "must be a nonempty list")
    times, rows = [], []
    for i, row in enumerate(states):
        if not isinstance(row, list) or len(row) < 2:
            raise TraceSchemaError(f"{path}[{i}]", "must be a list [t, s0, ...] with >= 2 entries")
        _ref_check_numbers(row, f"{path}[{i}]")
        width = len(states[0])
        if len(row) != width:
            raise TraceSchemaError(f"{path}[{i}]",
                                   f"row length {len(row)} != {width} of earlier rows")
        times.append(float(row[0]))
        rows.append(tuple(map(float, row[1:])))
    if any(b <= a for a, b in zip(times, times[1:])):
        raise TraceSchemaError(path, "timestamps must be strictly increasing")
    return times, rows


def _ref_payloads(path: str, kind: str, rows, grid: list[float]) -> list:
    if not isinstance(rows, list) or not rows:
        raise TraceSchemaError(path, "must be a nonempty list")
    if len(rows) != len(grid):
        raise TraceSchemaError(path, f"expected {len(grid)} samples to match agents, got {len(rows)}")
    dim = parsed = None
    for i, row in enumerate(rows):
        rpath = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != 2:
            raise TraceSchemaError(rpath, "must be a pair [t, definition]")
        _ref_check_numbers(row[:1], rpath)
        if float(row[0]) != grid[i]:
            raise TraceSchemaError(rpath, f"timestamp {row[0]} differs from agent grid {grid[i]}")
        payload = row[1]
        bad = _ref_non_number(payload)
        if bad is not None:
            raise TraceSchemaError(f"{rpath}[1]{bad[0]}", f"expected a number, got {bad[1]!r}")
        if payload == parsed:
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


def reference_from_dict(doc) -> ExecutionTrace:
    """The trace of a wire document, read entry by entry."""
    names = tuple(m.value for m in Mode)
    if not isinstance(doc, dict):
        raise TraceSchemaError("<document>", f"expected an object, got {type(doc).__name__}")
    if set(doc) != {"agents", "unsafe"}:
        raise TraceSchemaError(
            "<document>", f"top-level keys must be exactly 'agents' and 'unsafe', got {sorted(doc)}"
        )
    agents = doc["agents"]
    if not isinstance(agents, dict) or not agents:
        raise TraceSchemaError("agents", "must be a nonempty object")
    out = ExecutionTrace()
    for aid, entry in agents.items():
        path = f"agents.{aid}"
        if not isinstance(entry, dict) or set(entry) != {"state_trace", "mode_trace"}:
            raise TraceSchemaError(path, "must have exactly 'state_trace' and 'mode_trace'")
        times, out.rows[aid] = _ref_states(f"{path}.state_trace", entry["state_trace"])
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
            if name not in names:
                raise TraceSchemaError(
                    f"{path}.mode_trace[{i}]", f"unknown mode {name!r}, expected one of {names}"
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
        out.unsafe[sid] = _ref_payloads(f"{path}.state_trace", kind, entry["state_trace"],
                                        out.times)
    return out


# -- per-row reference evaluation ----------------------------------------------------
#
# Eval's geometry one sample at a time, written out plainly: the norm of one
# difference vector, the scalar quadratic for a ball, the slab and half-space
# loops for a box and a polytope. Stacked and column-wise eval code must equal
# these bit for bit.

def ref_ball_entry_time(rel_pos, rel_vel, radius: float) -> float:
    """Smallest tau >= 0 with ||rel_pos + rel_vel*tau|| <= radius, for one row."""
    c = float(rel_pos @ rel_pos) - radius * radius
    if c <= 0.0:
        return 0.0
    a = float(rel_vel @ rel_vel)
    b = 2.0 * float(rel_pos @ rel_vel)
    if a == 0.0:
        return math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc > -1e-12 * max(b * b, abs(4.0 * a * c), 1.0):
            disc = 0.0
        else:
            return math.inf
    sq = math.sqrt(disc)
    if b >= 0.0:
        return math.inf
    q = -0.5 * (b - sq)
    lo, hi = c / q, q / a
    for root in sorted((lo, hi)):
        if root >= -1e-12:
            return max(root, 0.0)
    return math.inf


def ref_distance(s, p) -> float:
    """Distance from one point to one (unstacked) set."""
    if isinstance(s, PointSet):
        return float(np.linalg.norm(p - s.coords))
    if isinstance(s, Ball):
        return max(0.0, float(np.linalg.norm(p - s.center)) - s.radius)
    if isinstance(s, Hyperrectangle):
        return float(np.linalg.norm(p - np.clip(p, s.lower, s.upper)))
    return float(np.linalg.norm(p - ref_project(s, p)))


def ref_project(s, p) -> np.ndarray:
    """Nearest point of one (unstacked) polytope to one point, one solve
    at a time: membership, the NNLS active set, the KKT solve of the
    active rows (lstsq where they are dependent), then the feasibility
    guard."""
    from scipy.optimize import nnls

    p = np.asarray(p, dtype=float)
    if s.contains(p):
        return p.copy()
    A, b = s.A, s.b
    E = np.vstack([-A.T, (A @ p - b)[None, :]])
    f = np.zeros(s.dim + 1)
    f[-1] = 1.0
    active = np.flatnonzero(nnls(E, f)[0] > 0)
    rows = A[active]
    gram = rows @ rows.T
    rhs = rows @ p - b[active]
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        lam = np.linalg.lstsq(gram, rhs)[0]
    x = p - rows.T @ lam
    if not (A @ x <= b + 1e-9 * (1.0 + float(np.max(np.abs(b))))).all():
        raise GeometryError("polytope projection found no feasible point; "
                            "Ax <= b may have no solution")
    return x


def ref_entry_time(s, pos, vel) -> float:
    """Entry time of one straight course into one (unstacked) set."""
    if isinstance(s, PointSet):
        return ref_ball_entry_time(pos - s.coords, vel, 0.0)
    if isinstance(s, Ball):
        return ref_ball_entry_time(pos - s.center, vel, s.radius)
    if isinstance(s, Hyperrectangle):
        t_lo, t_hi = 0.0, math.inf
        for p, v, lo, hi in zip(pos, vel, s.lower, s.upper):
            if v == 0.0:
                if not lo <= p <= hi:
                    return math.inf
                continue
            a, b = (lo - p) / v, (hi - p) / v
            if a > b:
                a, b = b, a
            t_lo, t_hi = max(t_lo, a), min(t_hi, b)
        return t_lo if t_lo <= t_hi else math.inf
    g = s.b - s.A @ pos
    h = s.A @ vel
    t_lo, t_hi = 0.0, math.inf
    for gi, hi in zip(g, h):
        if hi == 0.0:
            if gi < 0.0:
                return math.inf
        elif hi > 0.0:
            t_hi = min(t_hi, gi / hi)
        else:
            t_lo = max(t_lo, gi / hi)
    return t_lo if t_lo <= t_hi else math.inf


def _ref_velocities(ts, xs):
    """Backward differences of the rows, row 0 taking row 1's; zero for one row."""
    if len(ts) < 2:
        return [np.zeros_like(x) for x in xs]
    d = [(xs[j] - xs[j - 1]) / (ts[j] - ts[j - 1]) for j in range(1, len(ts))]
    return [d[0]] + d


def reference_eval_files(trace, timings=None) -> dict[str, str]:
    """The summary.json and CSV files `rtakit eval` writes for a trace that
    holds an unsafe set (its dimension is the workspace's), by file name,
    computed one sample at a time: every payload parsed on its own, every
    distance and time to collision by the references above."""
    timings = timings or {}
    ts, agent_ids, set_ids = trace.times, list(trace.rows), list(trace.unsafe)
    defs = {sid: [set_from_payload(trace.kinds[sid], p) for p in trace.unsafe[sid]]
            for sid in set_ids}
    dim = defs[set_ids[0]][0].dim
    pos = {aid: [np.array(row[:dim]) for row in trace.rows[aid]] for aid in agent_ids}
    vel = {aid: _ref_velocities(ts, xs) for aid, xs in pos.items()}
    set_vel = {sid: _ref_velocities(ts, [d.reference() for d in column])
               for sid, column in defs.items()}
    files, agents = {}, {}

    def csv(name, rows):
        files[name] = "\n".join(["time,value"] + [f"{t!r},{v}" for t, v in rows]) + "\n"

    def num(x):
        return None if x is None or math.isinf(x) else x

    for aid in agent_ids:
        others = [other for other in agent_ids if other != aid]
        p, v = pos[aid], vel[aid]
        n = range(len(ts))
        set_d = {sid: [ref_distance(defs[sid][k], p[k]) for k in n] for sid in set_ids}
        set_ttc = {sid: min(ref_entry_time(defs[sid][k], p[k], v[k] - set_vel[sid][k]) for k in n)
                   for sid in set_ids}
        agent_d = {o: [float(np.linalg.norm(p[k] - pos[o][k])) for k in n] for o in others}
        agent_ttc = {o: min(ref_ball_entry_time(p[k] - pos[o][k], v[k] - vel[o][k], 0.0)
                            for k in n) for o in others}
        for sid, d in set_d.items():
            csv(f"{aid}__dist_set__{sid}.csv", [(t, repr(x)) for t, x in zip(ts, d)])
        for o, d in agent_d.items():
            csv(f"{aid}__dist_agent__{o}.csv", [(t, repr(x)) for t, x in zip(ts, d)])
        modes = trace.modes[aid]
        if modes:
            csv(f"{aid}__mode.csv", [(ts[k], m.value) for k, m in enumerate(modes)])
        counts = {}
        for m in modes:
            counts[m.value] = counts.get(m.value, 0) + 1
        durations = list(timings.get(aid, []))
        agents[aid] = {
            "timing": {
                "count": len(durations),
                "avg": num(sum(durations) / len(durations)) if durations else None,
                "min": num(min(durations)) if durations else None,
                "max": num(max(durations)) if durations else None,
            },
            "usage_percent": {name: 100.0 * c / len(modes) for name, c in counts.items()},
            "switch_count": sum(1 for a, b in zip(modes, modes[1:]) if a is not b),
            "min_distance_to_sets": {sid: num(min(d)) for sid, d in set_d.items()},
            "min_distance_to_agents": {o: num(min(d)) for o, d in agent_d.items()},
            "min_ttc_to_sets": {sid: num(t) for sid, t in set_ttc.items()},
            "min_ttc_to_agents": {o: num(t) for o, t in agent_ttc.items()},
        }
    summary = {"n_samples": len(ts), "duration": ts[-1] - ts[0] if len(ts) > 1 else 0.0,
               "agents": agents}
    files["summary.json"] = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    return files
