"""The host's speed through a run, from a fixed calibration loop.

The benchmark's host is a VM on a shared machine. Its speed drifts by up to
1.7x over periods of about a second, and whole runs of 30 s move by 20-25 %
for minutes at a time; no statistic over one run's rounds removes the
second. So the run times a fixed loop every INTERVAL_S or so, between the
pieces of work it measures (and between chunks of a long piece), and every
piece or chunk is scaled by the host factor around it: REFERENCE_S over the
median of the WINDOW loop times before it and the WINDOW after it. A
scaled time reads as seconds on the reference host. The loop calls nothing
of rtakit, so a change to the program leaves it as it is, while a change in
the host's speed moves it with the program's own work.
"""
from __future__ import annotations

import statistics
import time

INTERVAL_S = 0.02
WINDOW = 5
LOOP_ITERATIONS = 1000
# Median loop time on the 2-vCPU VM the reference figures in README.md were
# measured on, at its usual speed.
REFERENCE_S = 0.00033


def calibration_loop() -> float:
    """Time of a fixed loop of dict updates and float arithmetic, the
    interpreter work rtakit's stages are made of."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(LOOP_ITERATIONS):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += (i * 1.1) ** 0.5
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples of one run."""

    scales = True

    def __init__(self):
        self.samples: list[float] = []
        self.settle()

    def due(self) -> bool:
        """Whether the loop last ran INTERVAL_S or more ago."""
        return time.perf_counter() - self._last >= INTERVAL_S

    def sample(self) -> None:
        """Time the loop once."""
        self.samples.append(calibration_loop())
        self._last = time.perf_counter()

    def settle(self) -> None:
        """Time the loop WINDOW times, so that the pieces just measured have
        samples after them."""
        self.samples.extend(calibration_loop() for _ in range(WINDOW))
        self._last = time.perf_counter()

    def mark(self) -> int:
        """Position of a piece starting now among the samples."""
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Reference loop time over the loop's time on this host around the
        piece at `mark`; the samples after it must have been taken."""
        return REFERENCE_S / statistics.median(
            self.samples[max(0, mark - WINDOW):mark + WINDOW])

    def run_factor(self) -> float:
        """The factor over the whole run, for the printout."""
        return REFERENCE_S / statistics.median(self.samples)


class Unscaled:
    """No calibration: every factor is 1 (tests and the traced run)."""

    scales = False

    def due(self) -> bool:
        return False

    def sample(self) -> None:
        pass

    def settle(self) -> None:
        pass

    def mark(self) -> int:
        return 0

    def factor(self, mark: int) -> float:
        return 1.0
