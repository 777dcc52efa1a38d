"""Timing on a shared machine: CPU clock, speed correction, collector time.

The 2-core virtual machine this benchmark was built on changes speed by up
to a third over seconds to minutes, as other tenants of its host come and
go; a fixed loop of plain Python slows down with it.  Every timing is therefore taken in CPU time
(the library is single-threaded, CPU-bound and does no I/O, so that is its
latency on an idle machine, without the time the scheduler gives to other
tenants) and is scaled by the speed of a calibration loop run between ops:

    reported = measured * (calibration rate now / REFERENCE_RATE)

i.e. the time the op would take on the machine at its reference speed.  The
calibration loop is the benchmark's own plain-loop q-calculus
(reference.py), not qfrac's, so a change to the program cannot move it.  It
tracks qfrac better than a generic loop did: over six pointwise runs the
spread of op_p50_ms was 4% with it and 10% with a loop of float arithmetic,
a generator and a small dict.  The human-readable output also gives the
speed factor of each run.

Python's cyclic garbage collector runs when allocation counts cross its
thresholds, inside whichever op happens to allocate then.  Its time counts
in that op's latency, as a user of the program would see it, and is also
recorded apart (GcTimer) for the per-layer python.gc_s.
"""

from __future__ import annotations

import gc
import statistics
import time

import reference as ref

CLOCK = time.process_time
# Calibration loops per CPU second on a 2-core x86-64 virtual machine at its
# median speed.  A constant of the benchmark: changing it rescales every timing.
REFERENCE_RATE = 5000.0
SAMPLE_LOOPS = 60  # about 12 ms of calibration per sample
SAMPLE_EVERY_S = 0.25  # CPU seconds of ops between samples


def _calibration_loop() -> float:
    """Plain q-calculus from reference.py: the float loops, calls and
    divisions that qfrac runs, without any of qfrac's code."""
    total = 0.0
    for k in range(12):
        total += (ref.factorial_power(1.3, 0.47 + 0.01 * k, 0.63, 0.7)
                  + ref.q_gamma(2.2 + 0.1 * k, 0.5))
    return total


def speed_factor() -> float:
    """Current speed relative to the reference: > 1 means faster."""
    start = CLOCK()
    for _ in range(SAMPLE_LOOPS):
        _calibration_loop()
    return SAMPLE_LOOPS / (CLOCK() - start) / REFERENCE_RATE


class Speedometer:
    """Samples the speed factor between ops and scales their timings by it."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.spent = 0.0  # CPU seconds spent calibrating
        self._last = -SAMPLE_EVERY_S

    def tick(self) -> int:
        """Call before each timed op, outside its timing; returns its chunk."""
        now = CLOCK()
        if now - self._last >= SAMPLE_EVERY_S:
            self.factors.append(speed_factor())
            self._last = CLOCK()
            self.spent += self._last - now
        return len(self.factors) - 1

    def scale(self, latencies: list, chunks: list) -> list:
        """Latencies at reference speed.  Chunk k lies between samples k and
        k + 1; its factor is the mean of the samples from k - 1 to k + 2,
        which smooths the noise of single short samples while following
        the machine's swings, which last seconds."""
        self.factors.append(speed_factor())
        f = self.factors
        smooth = [statistics.fmean(f[max(k - 1, 0):k + 3]) for k in range(len(f) - 1)]
        return [lat * smooth[k] for lat, k in zip(latencies, chunks)]

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else speed_factor()


class GcTimer:
    """CPU seconds spent in the cyclic garbage collector while installed."""

    def __init__(self) -> None:
        self.total = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = CLOCK()
        else:
            self.total += CLOCK() - self._start

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
