"""Start-up cost: scipy loads only where a polytope needs it.

scipy.optimize takes about half a second to import, which every short
`rtakit run` / `rtakit eval` process would pay. The checks run in a fresh
interpreter, because this test process has imported scipy already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from rtakit.cli import main

ROOT = Path(__file__).resolve().parent.parent

# Prints, one JSON line per stage, whether scipy is loaded after it.
_STAGES = """
import json, sys
out = sys.argv[1]

def report(stage, code=None):
    print(json.dumps([stage, code, "scipy" in sys.modules]), flush=True)

import rtakit
report("import rtakit")
from rtakit import cli
for name in ("acc_sim_rta", "dubins", "gcas"):
    trace = f"{out}/{name}.json"
    report(f"run {name}", cli.main(["run", "--config", f"configs/{name}.json", "--out", trace]))
    report(f"eval {name}", cli.main(["eval", trace, "--out", f"{out}/{name}"]))
"""


def _reports(outdir: Path):
    """Files of an eval report, with the wall-clock decision timings dropped."""
    files = {p.name: p.read_text() for p in outdir.iterdir() if p.name != "summary.txt"}
    summary = json.loads(files.pop("summary.json"))
    for agent in summary["agents"].values():
        del agent["timing"]
    return files, summary


def test_scipy_is_loaded_only_by_a_polytope_scenario(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _STAGES, str(tmp_path / "fresh")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert stages == [
        ["import rtakit", None, False],
        ["run acc_sim_rta", 0, False],
        ["eval acc_sim_rta", 0, False],
        ["run dubins", 0, False],
        ["eval dubins", 0, False],
        # gcas's ground is a polytope: the config check runs its emptiness LP
        ["run gcas", 0, True],
        ["eval gcas", 0, True],
    ]
    # A scipy loaded late reports as one loaded at start-up (this process).
    trace = tmp_path / "gcas.json"
    assert main(["run", "--config", str(ROOT / "configs/gcas.json"), "--out", str(trace)]) == 0
    assert main(["eval", str(trace), "--out", str(tmp_path / "gcas")]) == 0
    assert trace.read_bytes() == (tmp_path / "fresh/gcas.json").read_bytes()
    assert _reports(tmp_path / "gcas") == _reports(tmp_path / "fresh/gcas")


_RUN = """
import sys
from rtakit import cli
sys.exit(cli.main(["run", "--config", "configs/gcas.json", "--out", sys.argv[1]]))
"""

_EVAL = """
import json, sys
from rtakit import cli
code = cli.main(["eval", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, "scipy" in sys.modules]))
"""


def test_eval_of_a_polytope_trace_does_not_load_scipy(tmp_path):
    # Every gcas ground distance is certified without NNLS, and a trace's
    # payloads skip the emptiness LP, so eval alone never needs scipy.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "gcas.json"
    for script, *args in ((_RUN, trace), (_EVAL, trace, tmp_path / "fresh")):
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False]
    assert main(["eval", str(trace), "--out", str(tmp_path / "inproc")]) == 0
    assert _reports(tmp_path / "fresh") == _reports(tmp_path / "inproc")
