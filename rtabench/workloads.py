"""Seeded scenario generators for the benchmark workloads.

Each generator maps (seed, smoke) to a list of (operation name, scenario
document) pairs. The documents are plain dicts in the scenario-file format
(schema/scenario.schema.json) and are the only input the program receives.
Every model parameter the checks read is written out explicitly, so they
never depend on the program's defaults.

The fixed parts come from the shipped configs:

- gcas-ridge       configs/gcas.json: plane gains, dt = 0.05 s, 2 s RTA
                   horizon, the ground half-space z <= 0.
- dubins-formation configs/dubins.json: leader/follower gains, dt = 0.05 s,
                   1 s RTA horizon, the 1.2 m leader ball, a building box.
- acc-sweep        configs/acc_sim_rta.json: the cruise pair, dt = 0.1 s,
                   T = 5 s, 1 s RTA horizon, the radius-7 ball 5 m ahead of
                   the leader.

In acc-sweep each scenario has one binding, so a tick's decision time is a
single SimRta or ReachRta decision. SimRta looks 2 s ahead there against
ReachRta's 1 s, which makes the two cost about the same: the logics are
compared at equal decision cost, and the decision percentiles do not fall
into a gap between two latency modes, where they would jump between runs.

`smoke=True` shrinks every workload to a few ticks for the fast tests.
"""
from __future__ import annotations

import random

PLANE_PARAMS = {
    "k_heading": 1.0, "k_speed": 1.0, "v_max": 3.0, "v_cruise": 2.0,
    "v_safe": 1.0, "k_gamma": 1.2, "pitch_up": 0.25, "gamma_max": 0.6,
    "capture_radius": 2.0, "nominal": "coast",
}
LEADER_PARAMS = {
    "k_heading": 2.0, "k_speed": 1.5, "v_max": 3.0, "v_cruise": 2.5,
    "v_safe": 0.0, "capture_radius": 1.0, "nominal": "track",
}
FOLLOWER_PARAMS = {
    "k_heading": 2.0, "k_speed": 3.0, "v_max": 3.0, "v_safe": 0.0,
    "capture_radius": 1.0, "nominal": "coast",
}
ACC_PARAMS = {
    "k1": 1.0, "k2": 2.0, "a_max": 16.0, "v_max": 20.0,
    "follow_distance": 10.0, "collision_distance": 7.0,
}

GROUND = {"id": "ground", "type": "polytope", "definition": [[[0.0, 0.0, 1.0]], [0.0]]}


def _r(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw rounded to 1e-3, so documents print compactly."""
    return round(rng.uniform(lo, hi), 3)


def gcas_ridge(seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """Two planes dive along a waypoint route across a ridge.

    One plane runs SimRta and one ReachRta, both with a 2 s horizon. The
    ridge is the 4-row wedge z <= h - s|x - xr| for |y| <= 6, with its crest
    near 2.1 m. The route skims the crest at about 2.5 m, so the untrusted
    controller brushes the ridge and the RTA pulls up on about a tenth of the
    ticks (with the route at ground level it was half, and the per-tick
    decision time split into an early-exit mode and a full-check mode). The
    seed jitters a fixed layout by a few centimetres: how close a ReachRta
    box comes to the polytopes sets the cost of its box test, and over wide
    random layouts the median per-tick decision time ranged 18-28 ms.
    """
    rng = random.Random(f"gcas-ridge/{seed}")
    xr, s, h = _r(rng, 4.95, 5.05), _r(rng, 0.98, 1.02), _r(rng, 2.05, 2.15)
    ridge = {
        "id": "ridge", "type": "polytope",
        "definition": [
            [[s, 0.0, 1.0], [-s, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
            [round(s * xr + h, 6), round(-s * xr + h, 6), 6.0, 6.0],
        ],
    }
    agents = []
    roles = (("plane_sim", -1.5, {"type": "sim", "horizon": 2.0}),
             ("plane_reach", 1.5, {"type": "reach", "horizon": 2.0, "bloat_rate": 0.06}))
    for aid, y0, rta in roles:
        y = round(y0 + _r(rng, -0.05, 0.05), 3)
        waypoints = [
            [3.0, y, 2.0],
            [6.5, y, _r(rng, 2.45, 2.55)],
            [10.0, y, 0.5],
        ]
        agents.append({
            "id": aid, "model": "dubins_plane",
            "params": dict(PLANE_PARAMS, waypoints=waypoints),
            "init": [_r(rng, -0.05, 0.05), y, _r(rng, 2.65, 2.75), 0.0,
                     _r(rng, -0.11, -0.09), 2.0],
            "mode": "UNTRUSTED", "rta": rta,
        })
    doc = {
        "workspace_dim": 3,
        "time": {"dt": 0.05, "T": 0.5 if smoke else 5.0},
        "agents": agents,
        "unsafe_sets": [GROUND, ridge],
    }
    return [("ridge", doc)]


def dubins_formation(seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """A waypoint leader loops a square while four followers hold formation.

    Followers 1-2 run SimRta and 3-4 ReachRta (1 s horizon). Guarded sets:
    a ball anchored to the leader and two static buildings beside the route.
    """
    rng = random.Random(f"dubins-formation/{seed}")
    side = _r(rng, 7.0, 9.0)
    corners = [[side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]
    agents = [{
        "id": "leader", "model": "dubins_car",
        "params": dict(LEADER_PARAMS, waypoints=corners * 2),
        "init": [0.0, 0.0, 0.0, _r(rng, 1.6, 2.0)], "mode": "NORMAL",
    }]
    offsets = ([-2.5, 0.0], [-2.0, 1.5], [-2.0, -1.5], [-4.0, 0.0])
    for i, offset in enumerate(offsets, start=1):
        rta = ({"type": "sim", "horizon": 1.0} if i <= 2 else
               {"type": "reach", "horizon": 1.0, "bloat_rate": 0.1})
        agents.append({
            "id": f"ego{i}", "model": "dubins_car",
            "params": dict(FOLLOWER_PARAMS, v_cruise=3.0 if i % 2 else 2.5,
                           leader_id="leader", formation_offset=offset),
            "init": [round(offset[0] - 3.0 + _r(rng, -0.5, 0.5), 3),
                     round(offset[1] * 2.0 + _r(rng, -0.5, 0.5), 3), 0.0, 1.0],
            "mode": "UNTRUSTED",
            "rta": rta,
        })
    b1 = _r(rng, 2.5, 4.0)
    b2 = _r(rng, 2.5, 4.0)
    unsafe = [
        {"id": "leader_ball", "type": "ball", "definition": [[0.0, 0.0], 1.2],
         "anchor": "leader", "offset": [0.0, 0.0]},
        {"id": "building1", "type": "hyperrectangle",
         "definition": [[b1, 1.6], [round(b1 + 3.0, 3), 3.6]]},
        {"id": "building2", "type": "hyperrectangle",
         "definition": [[round(side + 1.6, 3), b2], [round(side + 3.6, 3), round(b2 + 3.0, 3)]]},
    ]
    doc = {
        "workspace_dim": 2,
        "time": {"dt": 0.05, "T": 0.5 if smoke else 10.0},
        "agents": agents,
        "unsafe_sets": unsafe,
    }
    return [("formation", doc)]


ACC_VARIANTS = (
    ("none", {"type": "none"}),
    ("sim", {"type": "sim", "horizon": 2.0}),
    ("reach_slow", {"type": "reach", "horizon": 1.0, "bloat_rate": 0.1}),
    ("reach_fast", {"type": "reach", "horizon": 1.0, "bloat_rate": 1.0}),
)


def acc_sweep(seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """Short cruise scenarios, each run with no RTA, SimRta (2 s horizon)
    and ReachRta (1 s) at two bloat rates."""
    rng = random.Random(f"acc-sweep/{seed}")
    out = []
    for i in range(2 if smoke else 16):
        follower_init = [_r(rng, -2.0, 1.0), _r(rng, 0.0, 2.0)]
        leader_init = [_r(rng, 4.0, 7.0), _r(rng, 0.5, 1.5)]
        for label, rta in ACC_VARIANTS:
            doc = {
                "workspace_dim": 1,
                "time": {"dt": 0.1, "T": 1.0 if smoke else 5.0},
                "agents": [
                    {"id": "follower", "model": "acc",
                     "params": dict(ACC_PARAMS, leader_id="leader"),
                     "init": follower_init, "mode": "UNTRUSTED", "rta": dict(rta)},
                    {"id": "leader", "model": "acc", "params": dict(ACC_PARAMS),
                     "init": leader_init, "mode": "NORMAL"},
                ],
                "unsafe_sets": [
                    {"id": "unsafe1", "type": "ball", "definition": [[0.0], 7.0],
                     "anchor": "leader", "offset": [5.0]},
                ],
            }
            out.append((f"s{i:02d}_{label}", doc))
    return out


WORKLOADS = {
    "gcas-ridge": gcas_ridge,
    "dubins-formation": dubins_formation,
    "acc-sweep": acc_sweep,
}
