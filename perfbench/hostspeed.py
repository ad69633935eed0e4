"""Clock and host-speed calibration.

The benchmark runs on a shared host.  Two kinds of noise were measured
there (NOTES.md, "Measured steadiness"):

- the process waits for a processor now and then, so a 1.3 s call can take
  2.5 s of wall time;
- for seconds to minutes at a time the host runs the process up to about
  1.8 times slower, and its CPU time grows with its wall time.

`clock()` counts CPU time, which leaves out the waits.  The workloads run
one BLAS thread and at most one child at a time, so on an idle host their
CPU time is their wall time.  Against the slow phases, a `Timeline` times
`block()` now and then: a fixed piece of work that does not use the
package, made of interpreter arithmetic with dict and list traffic, numpy
operations on vectors of a few hundred entries, and LAPACK eigensolves,
each about a third of the block.  Each stretch of CPU time between two
blocks is multiplied by `REFERENCE_S` over the mean of those two blocks, so
reported times are in seconds of a host on which one block takes
`REFERENCE_S`.
"""

from __future__ import annotations

import bisect
import resource
import time

import numpy as np

#: block time on the reference host (the 2-core machine of NOTES.md in its
#: fast phase, one BLAS thread); it sets only the scale of reported times
REFERENCE_S = 0.030

_RNG = np.random.default_rng(20261017)
_MAT = _RNG.standard_normal((384, 384))
_VEC = _RNG.standard_normal(384)
_SYM = _RNG.standard_normal((200, 200))
_SYM = _SYM + _SYM.T


def clock() -> float:
    """CPU seconds of this process and of its children that have been
    waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def block() -> float:
    """CPU time of one calibration block, in seconds."""
    start = time.process_time()
    acc, table, items = 0.0, {}, []
    for i in range(25000):
        x = (i % 97) * 0.37
        acc += x * x / (1.0 + x)
        table[i & 1023] = acc
        items.append(x)
    v = _VEC
    for _ in range(300):
        w = _MAT @ v
        v = np.maximum(w / np.sqrt(np.sum(w * w)), -0.5)
    np.linalg.eigh(_SYM)
    np.linalg.eigh(_SYM)
    return time.process_time() - start


class Timeline:
    """`clock()` less the time spent in calibration blocks, with the blocks
    taken along it.  `seconds(a, b)` turns an interval of it into reference
    seconds, stretch by stretch between blocks; before the first block and
    after the last, the factor of the nearest stretch holds."""

    def __init__(self):
        self._in_blocks = 0.0
        #: time on this timeline at which each block was taken, and its CPU
        #: seconds
        self.marks: list[float] = []
        self.blocks: list[float] = []
        self._done: tuple[list[float], list[float]] | None = None
        self.calibrate()

    def now(self) -> float:
        return clock() - self._in_blocks

    def since_block(self) -> float:
        return self.now() - self.marks[-1]

    def calibrate(self):
        start = clock()
        self.marks.append(start - self._in_blocks)
        self.blocks.append(block())
        self._in_blocks += clock() - start
        self._done = None

    def _stretches(self) -> tuple[list[float], list[float]]:
        """Reference seconds per CPU second in each stretch between marks,
        and reference seconds from the first mark to each mark."""
        if self._done is None:
            b, m = self.blocks, self.marks
            factors = [REFERENCE_S * 2.0 / (b[i] + b[i + 1])
                       for i in range(len(b) - 1)] or [REFERENCE_S / b[0]]
            at = [0.0]
            for i in range(len(m) - 1):
                at.append(at[-1] + factors[i] * (m[i + 1] - m[i]))
            self._done = (factors, at)
        return self._done

    def _scaled(self, t: float) -> float:
        """Reference seconds from the first mark to time `t`."""
        factors, at = self._stretches()
        i = min(max(bisect.bisect_right(self.marks, t) - 1, 0),
                len(factors) - 1)
        return at[i] + factors[i] * (t - self.marks[i])

    def seconds(self, start: float, end: float) -> float:
        return self._scaled(end) - self._scaled(start)
