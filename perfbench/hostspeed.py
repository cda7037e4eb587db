"""The host's speed, measured beside the workload, to take it out of the timings.

A shared host slows this process for whole runs at a time, by up to a half;
a best time per query removes the short spells but not those.  Two probes
-- fixed loops of CPython work, about 2 ms each -- are timed many times in
every run, between the workload's operations and never during one:

* ``compute``: integer arithmetic in the interpreter loop;
* ``allocate``: building and dropping small tuples and a dict, the way
  row-at-a-time code does.

They are the benchmark's own code, so a change to the program cannot move
them; only the host can.  Every time metric is reported at a reference
speed: multiplied by the geometric mean, over the probes, of
``REFERENCE_S / p10`` -- ``p10`` being the probe's 10th-percentile time in
the run, its speed when the host lets it run freely -- and a rate is divided
by the same factor.  On a host where every probe takes its ``REFERENCE_S``
the figures are plain wall-clock times.
"""

from __future__ import annotations

import gc
import math
import statistics
import time


def _compute() -> int:
    acc = 0
    for i in range(20_000):
        acc += (i * 7919) % 1013 ^ (acc & 255)
    return acc


def _allocate() -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = [(i, i + 1, "x") for i in range(20_000)]
        index = {}
        for row in rows:
            index[row[0] & 1023] = row
        return len(index)
    finally:
        if enabled:
            gc.enable()


#: (name, probe, its reference time in seconds)
PROBES = [
    ("compute", _compute, 0.0018),
    ("allocate", _allocate, 0.0028),
]


class HostSpeed:
    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name, _, _ in PROBES}
        self._next = 0

    def sample(self, times: int = 1) -> None:
        """Time the next ``times`` probes, taking them in turn."""
        for _ in range(times):
            name, probe, _ = PROBES[self._next % len(PROBES)]
            self._next += 1
            started = time.perf_counter()
            probe()
            self.samples[name].append(time.perf_counter() - started)

    def p10(self, name: str) -> float:
        return statistics.quantiles(self.samples[name], n=10)[0]

    def factor(self) -> float:
        """Scale from this run's wall-clock times to reference-speed ones."""
        logs = [math.log(reference / self.p10(name)) for name, _, reference in PROBES]
        return math.exp(sum(logs) / len(logs))

    def describe(self) -> str:
        return ", ".join(
            f"{name} {self.p10(name) * 1e3:.4f} ms of {len(self.samples[name])}"
            for name in self.samples
        )

    def scale(self, metrics: dict[str, tuple[float, str]]) -> None:
        """Scale every time (``s``, ``ms``) and rate (``1/s``) in ``metrics``."""
        factor = self.factor()
        for name, (value, unit) in metrics.items():
            if unit in ("s", "ms"):
                metrics[name] = (value * factor, unit)
            elif unit == "1/s":
                metrics[name] = (value / factor, unit)
