"""Shared test fixtures: independent oracles and scenario builders.

The polytope distance oracle is a refining grid search (pure sampling,
nothing shared with the projection solver under test).
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
    Mode,
    RelativeSetSpec,
    RtaBinding,
    ScenarioConfig,
    SimRta,
)


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
