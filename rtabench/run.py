"""rtakit benchmark: run -> trace I/O -> eval on seeded RTA workloads.

    python3 rtabench/run.py --workload gcas-ridge --seed 1 --seconds 30 --trace 0
    python3 rtabench/run.py --workload all --seed 1 --seconds 30

Each workload runs in one single-threaded process as a closed loop with one
client: an operation (one generated scenario through build, execute, dump,
load, eval and the independent checks) starts when the previous one ends.
A round runs every operation of the workload once; rounds repeat until
--seconds have passed. `--workload all` runs each workload in its own child
process, one after another.

Standard output lists every metric by name with its unit; its last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, their times scaled to a reference
host's speed (rtabench/host.py) and printed as measured beside them. With
--trace 1 the first half of the run is untraced and the second half traced,
and the metrics are the per-layer ones plus the tracing overhead. Exit code
0 when every operation passed its checks, 1 when one failed, 2 when the
checkout lacks the program.
"""
import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schema" / "trace.schema.json"
WORKLOAD_NAMES = ("gcas-ridge", "dubins-formation", "acc-sweep")
MIN_IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time; whole rounds run until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one import sample, for a quick try")
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    import jsonschema

    from rtabench import host, metrics, rounds, tracing, workloads

    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    ops = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    # The traced run reports unscaled layer times, so it runs no calibration.
    speed = None if args.trace else host.HostSpeed()
    runner = rounds.Runner(args.workload, ops, validator, speed)

    samples = 1 if args.smoke else MIN_IMPORT_SAMPLES
    if args.trace:
        plain = runner.rounds_for(args.seconds / 2, sample_import=not args.smoke)
        recorder = tracing.Recorder()
        recorder.install()
        try:
            traced = runner.rounds_for(args.seconds / 2, recorder)
        finally:
            recorder.uninstall()
        values = metrics.per_layer(plain, traced, runner.import_s(samples))
        declared = metrics.PER_LAYER
        n_rounds = len(plain) + len(traced)
    else:
        timed = runner.rounds_for(args.seconds, sample_import=not args.smoke)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.measured(timed, runner.import_s(samples, "scaled"), "scaled")
        values["peak_rss_mb"] = peak_rss_mb
        raw = metrics.measured(timed, runner.import_s(samples, "raw"), "raw")
        declared = metrics.END_TO_END
        n_rounds = len(timed)

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{n_rounds} rounds x {len(ops)} operations")
    print(f"operations attempted {runner.attempted}  failed {failed}")
    for line in runner.failures[:10]:
        print(f"  FAILED {line}")
    print(f"trace sha256 (all operations) {runner.workload_digest()}")
    if args.trace:
        _print_layers(values, dict(declared))
    else:
        print(f"times scaled to the reference host (median host factor of the run "
              f"{speed.run_factor():.4f}); as measured in brackets")
        for name, unit in declared:
            measured_as = f"  ({_fmt(raw[name])} {unit})" if name in raw else ""
            print(f"  {name:<20} {_fmt(values[name])} {unit}{measured_as}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _print_layers(values: dict, declared: dict) -> None:
    """Every span by self time, then the wall-time account of a traced round."""
    selfs = sorted(((v, k[:-len(".self_s")]) for k, v in values.items()
                    if k.endswith(".self_s")), reverse=True)
    wall = values["bench.traced_wall_s"]
    print(f"  {'span':<44} {'calls':>9} {'self s':>10} {'incl s':>10} {'self %':>7}")
    for own, span in selfs:
        print(f"  {span:<44} {int(values.get(span + '.calls', 0)):>9} {own:>10.4f} "
              f"{values.get(span + '.s', 0.0):>10.4f} {100 * own / wall:>6.1f}%")
    print(f"  self times sum to {values['bench.attributed_s']:.4f} s of the traced round's "
          f"{wall:.4f} s; unattributed {values['bench.unattributed_s']:.4f} s")
    print(f"  tracing overhead {values['bench.trace_overhead_s']:.4f} s "
          f"(traced total_s {values['bench.traced_total_s']:.4f} s, "
          f"untraced {values['bench.untraced_total_s']:.4f} s)")
    for name in declared:
        print(f"  {name:<48} {_fmt(values.get(name, 0))} {declared[name]}")


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results
    with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {workload} printed no result (exit {done.returncode})",
                  file=sys.stderr)
            return 2
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["failed"] == 0 and merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = "1"
    if not (SRC / "rtakit" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: {ROOT} holds no rtakit checkout (src/rtakit and "
              f"schema/trace.schema.json are needed)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(ROOT)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
