"""Rounds of one workload: every operation run, checked and timed.

A round runs every operation of the workload once, in order, each starting
when the previous one has finished (a closed loop with one client). Before
each round of a measured run, one `import rtakit` is timed in a fresh
interpreter, so set-up is sampled across the run like the rounds are.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from rtabench import checks, host, metrics, pipeline

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
IMPORT_CODE = ("import time; t = time.perf_counter(); import rtakit; "
               "print(repr(time.perf_counter() - t))")


def measure_import() -> float:
    """Time of `import rtakit` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs rounds of one workload's operations and checks every operation."""

    def __init__(self, workload: str, ops, validator, speed=None):
        self.workload = workload
        self.ops = ops
        self.validator = validator
        self.speed = speed  # a host.HostSpeed, or None to leave times unscaled
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.import_times: dict[str, list[float]] = {"raw": [], "scaled": []}

    def run_round(self, recorder=None) -> metrics.Round:
        rnd = metrics.Round()
        if recorder is not None:
            recorder.reset()
        completed = []
        for name, doc in self.ops:
            self.attempted += 1
            outdir = OUT / self.workload / name
            gc.collect()  # every operation starts from the same collector state
            try:
                op = pipeline.run_operation(doc, outdir, self.speed)
            except Exception as exc:  # an operation's failure must not end the run
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            rnd.add(name, op)
            if recorder is None:
                self._check(name, doc, outdir)
            else:
                completed.append((name, doc, outdir))
        if recorder is not None:
            # Checked after the round, so check time stays out of the spans.
            rnd.layers = recorder.aggregate()
            recorder.reset()
            for name, doc, outdir in completed:
                self._check(name, doc, outdir)
        return rnd

    def _check(self, name: str, doc: dict, outdir: Path) -> None:
        try:
            raw = (outdir / pipeline.TRACE_FILE).read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            if self.digests.setdefault(name, digest) != digest:
                raise checks.CheckFailure("trace bytes differ from the first round")
            checks.check_operation(
                self.validator, doc, json.loads(raw),
                json.loads((outdir / pipeline.TIMINGS_FILE).read_text()),
                json.loads((outdir / pipeline.REPORT_DIR / "summary.json").read_text()),
                outdir / pipeline.REPORT_DIR,
            )
        except (checks.CheckFailure, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def rounds_for(self, seconds: float, recorder=None, sample_import=False):
        """Whole rounds until `seconds` have passed, timing one import before
        each when sample_import is set."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            if sample_import:
                self._sample_import()
            rounds.append(self.run_round(recorder))
        return rounds

    def _sample_import(self) -> None:
        speed = self.speed or host.Unscaled()
        if speed.due():
            speed.sample()
        mark = speed.mark()
        seconds = measure_import()
        speed.settle()
        self.import_times["raw"].append(seconds)
        self.import_times["scaled"].append(seconds * speed.factor(mark))

    def import_s(self, samples: int, which: str = "raw") -> float:
        """Median `which` ("raw" or "scaled") import time, topped up to
        `samples` samples."""
        while len(self.import_times[which]) < samples:
            self._sample_import()
        return statistics.median(self.import_times[which])

    def workload_digest(self) -> str:
        """SHA-256 over one `<operation> <trace sha256>` line per operation."""
        joined = "".join(f"{name} {self.digests.get(name, '-')}\n" for name, _ in self.ops)
        return hashlib.sha256(joined.encode()).hexdigest()
