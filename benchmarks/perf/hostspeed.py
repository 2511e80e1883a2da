"""Host-speed reference: timings at a reference host speed.

The bench host is a shared 2-vCPU VM whose speed moves by +/-20% for
seconds to minutes at a time.  The same 3-round campaign, same seed, ran
at 1,350-2,060 records/s over fourteen back-to-back tries (quartile
spread 19% of the median), and ten runs of the whole benchmark on ten
seeds spread every timing metric by 12-40%, wider than any bound the
contract allows.  The slowdown is uniform down to 2 ms (low quantiles of
5-record chunks move with the mean, so best-of-N does not help), shows in
CPU time as much as in wall time, and hits whatever runs at that moment.

So the harness runs a small fixed kernel of plain Python between chunks
of measured work and scales each chunk by how slow the kernel ran beside
it.  Over five sets of 14-20 campaign runs that cut the quartile spread
by 1.5-2.5x (raw 13-19% -> 5.5-10%).  It removes what the host does to
all code alike; it cannot remove contention that hits the simulator's
larger working set harder than the kernel's.

The kernel touches no ``repro`` code: pointer chasing through a list of
ints, dict lookups on string keys, heap pushes and pops, small tuple and
bytes allocations.  Its tables hold only ints and strings (the garbage
collector never walks them) and fit in a core's cache, and each reading is
the median of three passes after one pass to warm it, so what the program
under test left in the cache does not change the reading: a change that makes the simulator use
less memory is not charged for speeding the kernel up.

Work that runs in other processes (the pool of ``ec2_sharded_store``) has
no place for a lap; :class:`BesideSampler` reads the kernel from a thread
beside it instead.

``REFERENCE_KERNEL_S`` is the kernel's time on the bench host when quiet;
a value "at reference speed" is what the measured work would have taken
on a host where the kernel takes exactly that long.  Raw (unscaled) times
are kept beside the scaled ones in every report.
"""

from __future__ import annotations

import heapq
import threading
import time
from statistics import median
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Kernel time, in seconds, between chunks of the ``ec2_doh_cold`` campaign
#: on the bench host in its quiet state (~1,930 records/s raw), so that a
#: scaled value reads like a raw one taken on a quiet host.
REFERENCE_KERNEL_S = 0.00038

_CHAIN = 30_011  # prime, so the stride below visits every slot
_STRIDE = 7_919
_KEYS = 2_000
_HOPS = 800


class ReferenceKernel:
    """The fixed computation whose speed stands for the host's."""

    def __init__(self) -> None:
        # Offsets keep the values out of CPython's small-int cache, so each
        # hop lands on its own int object.
        self._next: List[int] = [
            (i * _STRIDE + 13) % _CHAIN + 1000 for i in range(_CHAIN)
        ]
        self._keys: List[str] = [f"host-{i:05d}" for i in range(_KEYS)]
        self._table = {key: i for i, key in enumerate(self._keys)}

    def _pass(self, clock: Callable[[], float]) -> float:
        started = clock()
        nxt, keys, table = self._next, self._keys, self._table
        at, acc = 0, 0
        heap: List[Tuple[int, int]] = []
        for i in range(_HOPS):
            at = nxt[at] - 1000
            acc += table[keys[at % _KEYS]]
            heapq.heappush(heap, (acc & 1023, i))
            if not i & 3:
                heapq.heappop(heap)
            _pair = (acc, i)
        out = bytearray()
        for i in range(200):
            out += i.to_bytes(2, "big")
        return clock() - started

    def run(self, clock: Callable[[], float] = time.perf_counter) -> float:
        """One reading: a pass to warm the kernel, then the median of three."""
        self._pass(clock)
        return sorted(self._pass(clock) for _ in range(3))[1]


class Stopwatch:
    """Times a region in chunks, each scaled by the kernel runs around it.

    ``start`` ... ``lap`` ... ``lap`` ... ``stop``: every lap closes a chunk
    of measured work, runs the kernel, and opens the next chunk.  Kernel
    time is never counted as work.  ``around`` (optional) wraps each kernel
    run, e.g. to switch a profiler off for its duration.
    """

    def __init__(
        self,
        kernel: ReferenceKernel,
        around: Optional[Callable[[Callable[[], float]], float]] = None,
    ) -> None:
        self.kernel = kernel
        self._around = around
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._before = 0.0
        self._opened = 0.0

    def _run_kernel(self) -> float:
        if self._around is not None:
            return self._around(self.kernel.run)
        return self.kernel.run()

    def start(self, opened_at: Optional[float] = None) -> "Stopwatch":
        """Open the first chunk now, or at ``opened_at`` (a past
        ``perf_counter`` reading, e.g. of the process that started this one);
        work done before the first reading is scaled by that reading alone."""
        now = time.perf_counter()
        self._before = self._run_kernel()
        if opened_at is not None:
            work = now - opened_at
            self.raw_s += work
            self.scaled_s += work * REFERENCE_KERNEL_S / self._before
        self._opened = time.perf_counter()
        return self

    def lap(self) -> None:
        work = time.perf_counter() - self._opened
        after = self._run_kernel()
        self.raw_s += work
        self.scaled_s += work * REFERENCE_KERNEL_S / ((self._before + after) / 2)
        self._before = after
        self._opened = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        """Close the last chunk; (raw seconds, seconds at reference speed)."""
        self.lap()
        return self.raw_s, self.scaled_s

    def ticking(self, items: Iterable[T], every: int) -> Iterator[T]:
        """Yield ``items``, closing a chunk after every ``every`` of them."""
        for count, item in enumerate(items, start=1):
            yield item
            if not count % every:
                self.lap()


class BesideSampler:
    """Host speed while *other processes* do the measured work.

    No lap can be put inside a process pool, and readings taken before and
    after a pooled run say nothing about it: with the workers on both cores
    the kernel runs at another speed than with one core idle.  So a thread
    of the waiting parent wakes every ``PERIOD_S`` seconds and runs the
    kernel beside the workers, reading it in *thread CPU time*: what the
    host does to the core shows there, the guest's own run queue (two
    workers and this thread on two cores) does not, which is what blurs
    wall-clock readings from such a thread.  Over sixteen pooled
    runs the quartile spread was 12.4% raw, 7.1% scaled by wall-clock
    readings and 4.8% scaled by CPU-time readings.  The thread costs the
    workers ~4% of one core, the same on every run.
    """

    PERIOD_S = 0.05

    def __init__(self, kernel: ReferenceKernel) -> None:
        self._kernel = kernel
        self._readings: List[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self._readings.append(self._kernel.run(time.thread_time))
            if self._done.wait(self.PERIOD_S):
                return

    def start(self) -> "BesideSampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; the factor from raw seconds to reference speed."""
        self._done.set()
        self._thread.join()
        return REFERENCE_KERNEL_S / median(self._readings)


def scaled(kernel: ReferenceKernel, fn: Callable[[], T]) -> Tuple[float, float, T]:
    """Run ``fn`` as one chunk: (raw s, s at reference speed, result)."""
    watch = Stopwatch(kernel).start()
    result = fn()
    raw, at_reference = watch.stop()
    return raw, at_reference, result
