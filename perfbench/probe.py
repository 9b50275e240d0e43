"""CPU speed probe that samples the processor while a CLI child runs on it.

On a shared virtual machine the speed of one virtual CPU swings by 1.5-1.8x
over seconds to minutes, with the load of neighbours on the host. That
swing is larger than any bound a benchmark could hold a change to, and it
does not average out within one run. So the benchmark pins itself and its
children to one CPU, and while a child runs, a thread of the benchmark
wakes every ``INTERVAL_S`` and times a fixed piece of work in thread CPU
time: small numpy operations like the SMO loop, and unmarshalling and
running module code like an import. The samples are evenly spaced in time,
so their mean over the child's life (without the highest and lowest
tenth, which catch one-off stalls), divided by ``REFERENCE_S``, is the
average slowdown of that CPU while the child ran: 1 means reference speed,
1.5 means everything took 1.5x longer.

The probe takes about 2% of the CPU from the child, the same share on
every commit.
"""

from __future__ import annotations

import marshal
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.025
# Thread CPU time of one sample at reference speed (a quiet period of the
# 2-vCPU Xeon machine the benchmark was tuned on).
REFERENCE_S = 0.0005
_ROWS = 40
_MODULE_SOURCE = """
import math

LIMIT = 10


class Point:
    def __init__(self, x, y):
        self.x, self.y = x, y

    def norm(self):
        return math.hypot(self.x, self.y)


def table(n=LIMIT):
    return {f"key{i}": Point(i, -i).norm() for i in range(n)}


DATA = table()
"""


class SpeedProbe:
    """Context manager that samples CPU speed until it exits."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(_ROWS, 100))
        self._vector = rng.normal(size=100)
        self._module = marshal.dumps(compile(_MODULE_SOURCE, "<probe>", "exec"))
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, daemon=True)

    def _sample_once(self) -> float:
        start = time.thread_time()
        acc = 0.0
        for row in self._matrix:
            masked = np.where(self._vector > 0, row, -np.inf)
            acc += float(self._matrix[int(np.argmax(masked)) % _ROWS] @ self._vector)
            acc += sum(range(20))
        for _ in range(4):
            exec(marshal.loads(self._module), {"__name__": "probe"})
        return time.thread_time() - start

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(self._sample_once())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def slowdown(self) -> float:
        """Trimmed mean sample over the reference; 1.0 when no sample was taken."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_S
