"""Hold the benchmark to one CPU and scale its times by that CPU's speed.

The benchmark runs on a few virtual CPUs of a shared host. Each of them
switches, for seconds at a time, between a fast and a slow speed about
1.5x apart, with nothing else running in the machine, and not in step
with the others. A 25-second run sits in one speed or in a mix of both,
so raw wall times of the same code differ by a quarter from run to run.
Two things take that out:

* `pin()` keeps the benchmark and every child it starts on one CPU, so
  the CPU whose speed is measured is the one the children run on;
* `Speedometer` times a short fixed pure-Python loop every
  `INTERVAL_S` on a thread of the parent, by the thread's own CPU time,
  so that the child it interrupts does not count. A span's wall time,
  less the loop's own share of it, is scaled by the loop's mean speed
  over the span relative to `REFERENCE_S`: it reads in seconds at the
  reference speed.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: The loop's CPU time at the fast speed of a 2-vCPU Xeon VM (Python
#: 3.11), so that scaled times there read close to the wall times of a
#: calm host. It is a fixed unit: any value gives the same relative
#: changes.
REFERENCE_S = 0.0010
INTERVAL_S = 0.05


def pin() -> int:
    """Restrict this process, and so its children, to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _loop() -> int:
    """Fixed work of the kind the checkers do: tuples hashed into a dict."""
    seen: dict[tuple[int, int, int], int] = {}
    a = b = 0
    for i in range(4000):
        a = (a + 7) % 97
        b = (b + a) % 89
        key = (a, b, i & 7)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Speedometer:
    """Samples the loop's speed until `stop`; scales spans by it.

    Each sample is (wall start, wall end, CPU seconds of the loop).
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._sample()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        started, cpu = time.perf_counter(), time.thread_time()
        _loop()
        self.samples.append((started, time.perf_counter(),
                             time.thread_time() - cpu))

    def _run(self) -> None:
        while not self._stopped.wait(INTERVAL_S):
            self._sample()

    def stop(self) -> None:
        self._stopped.set()
        self._thread.join()

    def scaled(self, started: float, ended: float) -> float:
        """The span's wall time less the loop's, at the reference speed.

        The speed is the mean over the samples that ended within the
        span or one interval before it, or the latest sample if none did.
        """
        samples = list(self.samples)
        window = [cpu for _, end, cpu in samples
                  if started - INTERVAL_S <= end <= ended]
        speed = statistics.fmean(REFERENCE_S / cpu
                                 for cpu in window or [samples[-1][2]])
        busy = sum(cpu for start, end, cpu in samples
                   if started <= start and end <= ended)
        return (ended - started - busy) * speed
