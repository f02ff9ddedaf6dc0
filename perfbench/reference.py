"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to 1.4 times slower or faster from
one second to the next, and the level drifts over minutes, because other
tenants load the same cores and caches.  An untraced run therefore stops the
pass clock every ``PERIOD_S`` seconds and at the end of each pass, and runs a
short block of this kernel, which runs no merminkit code: a change to the
package cannot change the kernel's time, but a slow host slows both.  The
mean pass time divided by the mean kernel time of the same run cancels the
host's speed and keeps the program's.

Both are means, not medians, on purpose.  The blocks last a fixed share of
the time just timed, so the kernel samples the host's fast and slow spells in
the proportion the passes met them; a mean of either moves linearly with that
proportion and the ratio cancels it, while a median jumps between the spells.

The kernel mixes pure-Python loops and small numpy calls, as the workloads
do.
"""

from __future__ import annotations

import signal
import time

import numpy as np

MIN_BLOCK_S = 0.005  # shortest reference block
BLOCK_SHARE = 0.2  # reference time per second of timed work
PERIOD_S = 0.25  # wall time between reference blocks inside a pass


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0x5EF)
        self._a = rng.standard_normal((8, 8)) / 4.0
        self._keys = [f"k{i}" for i in range(64)]
        self.kernel()  # first call pays numpy's lazy set-up

    def kernel(self) -> float:
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        table = {}
        for k in self._keys:
            table[k] = len(k) + acc
        m = self._a
        for _ in range(12):
            m = np.tanh(m @ self._a + 0.5)
        return float(m.sum()) + sum(table.values())

    def block(self, seconds: float) -> tuple[int, float]:
        """Run whole kernels for at least ``seconds``; (count, seconds taken)."""
        count = 0
        t0 = time.perf_counter()
        while True:
            self.kernel()
            count += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return count, elapsed


class RefClock:
    """Times passes while blocks of the reference kernel interleave with them.

    Inside a ``with`` block, a real-time interval timer calls ``mark()``
    every ``PERIOD_S`` seconds while a pass is being timed, and ``stop()``
    calls it once more when the pass ends.  Each stretch of timed work is
    followed by a block of kernels lasting ``BLOCK_SHARE`` of it.  The clock
    stops while a block runs, so ``wall`` is the pass time without the
    blocks.  A signal handler runs between bytecodes of the main thread, so a
    block never splits a numpy call.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self._t0 = 0.0
        self._timing = False
        self._busy = False
        self._old_handler = None
        self.wall = 0.0
        self.kernels = 0
        self.block_s = 0.0

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _on_alarm(self, signum, frame) -> None:
        if self._timing and not self._busy:
            self.mark()

    def start(self) -> None:
        self.wall = 0.0
        self._t0 = time.perf_counter()
        self._timing = True

    def stop(self) -> None:
        """End the pass: stop marking and time its last stretch."""
        self._timing = False
        self.mark()

    def mark(self) -> None:
        self._busy = True
        try:
            dt = time.perf_counter() - self._t0
            count, spent = self.ref.block(max(MIN_BLOCK_S, BLOCK_SHARE * dt))
            self.wall += dt
            self.kernels += count
            self.block_s += spent
            self._t0 = time.perf_counter()
        finally:
            self._busy = False

    def kernel_s(self) -> float:
        """Mean seconds per kernel over every block so far."""
        return self.block_s / self.kernels
