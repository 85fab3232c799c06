"""rtakit runs without scipy: every polytope question is answered in numpy.

A fresh interpreter, with scipy made unimportable, runs, evaluates and
snapshots every shipped config and the aircraft ridge documents of the
benchmark; its traces and reports must equal this process's byte for byte.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from rtakit.cli import main
from rtabench import workloads

ROOT = Path(__file__).resolve().parent.parent

# Prints one JSON line: per config, the exit codes of run, eval and snapshot.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from pathlib import Path
from rtakit import cli
out = sys.argv[1]
codes = []
for config in sys.argv[2:]:
    trace = f"{out}/{Path(config).stem}.json"
    codes.append([cli.main(["run", "--config", config, "--out", trace]),
                  cli.main(["eval", trace, "--out", trace[:-len(".json")]]),
                  cli.main(["snapshot", trace, "--time", "0.5"])])
print(json.dumps(codes))
"""


def _files(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_run_eval_and_snapshot_need_no_scipy(tmp_path):
    configs = sorted((ROOT / "configs").glob("*.json"))
    for seed in (1, 2):  # the ridge adds a four-row polytope to gcas's ground
        for op, doc in workloads.gcas_ridge(seed):
            configs.append(tmp_path / f"gcas-ridge-{seed}-{op}.json")
            configs[-1].write_text(json.dumps(doc))
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(fresh), *map(str, configs)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0]] * len(configs), proc.stderr
    for config in configs:
        name = config.stem
        trace = tmp_path / f"{name}.json"
        assert main(["run", "--config", str(config), "--out", str(trace)]) == 0
        assert trace.read_bytes() == (fresh / f"{name}.json").read_bytes(), name
        # The fresh trace with its own timings file, so every report byte compares.
        assert main(["eval", str(fresh / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        assert _files(tmp_path / name) == _files(fresh / name), name
        if name.startswith("gcas"):  # the ground and ridge distances are projections
            summary = json.loads((fresh / name / "summary.json").read_text())
            distances = [d for agent in summary["agents"].values()
                         for d in agent["min_distance_to_sets"].values()]
            assert distances and all(0.0 < d < math.inf for d in distances), name
