"""Host-speed reference kernel and the drift correction built on it.

On a shared host the speed of a fixed piece of Python code swings by tens
of percent over a few seconds, so no raw wall-clock figure repeats.  The
benchmark therefore times a small *reference kernel* next to the work it
measures and rescales every host-time sample by::

    corrected = raw * REF_NOMINAL_MS / adjacent_reference_ms

The kernel is shaped like the simulator -- objects with slots, attribute
traffic, short list scans, int/dict work and pointer chasing through a
working set larger than the core's private caches -- because a plain
arithmetic loop, or a kernel that fits in the first-level cache, tracks
the simulator's speed less closely.  It deliberately
imports nothing from ``repro``: the reference must not move when the program
under test changes.
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

#: Nominal reference-kernel time (ms).  Corrected host times are expressed as
#: if every reference sample had taken exactly this long.  Fixed forever:
#: changing it rescales every corrected metric.
REF_NOMINAL_MS = 2.5

#: The kernel's result on the fixed address list (checked by the tests).
REF_CHECKSUM = 3479301352

_SETS = 64
_WAYS = 8
_BLOCK_SHIFT = 6
_SET_SHIFT = 6


def _address_list(count: int = 800) -> Tuple[Tuple[int, bool, int], ...]:
    """A fixed (address, is_store, pc) stream: a hot set plus a stream.

    Generated by a 32-bit LCG so it never depends on ``random``'s algorithm.
    """
    state = 0x2545F491
    accesses = []
    stream = 0x400000
    for index in range(count):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        pc = 0x1000 + ((state >> 8) & 0x3F) * 4
        if state & 0x300:
            address = 0x10000 + ((state >> 12) & 0x3FF) * 64
        else:
            stream += 64
            address = stream
        accesses.append((address, bool(state & 0x10000), pc))
    return tuple(accesses)


_ACCESSES = _address_list()


class _Line:
    __slots__ = ("tag", "dirty", "uses")

    def __init__(self, tag: int, dirty: bool) -> None:
        self.tag = tag
        self.dirty = dirty
        self.uses = 0


class _ReferenceCache:
    """A set-associative LRU cache: MRU line last in each set's list."""

    __slots__ = ("sets", "hits", "misses", "writebacks", "pc_misses")

    def __init__(self) -> None:
        self.sets: List[List[_Line]] = [[] for _ in range(_SETS)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.pc_misses: dict = {}

    def access(self, address: int, is_store: bool, pc: int) -> bool:
        block = address >> _BLOCK_SHIFT
        lines = self.sets[block & (_SETS - 1)]
        tag = block >> _SET_SHIFT
        for index, line in enumerate(lines):
            if line.tag == tag:
                if index != len(lines) - 1:
                    lines.append(lines.pop(index))
                line.uses += 1
                if is_store:
                    line.dirty = True
                self.hits += 1
                return True
        self.misses += 1
        if len(lines) >= _WAYS:
            victim = lines.pop(0)
            if victim.dirty:
                self.writebacks += 1
        lines.append(_Line(tag, is_store))
        self.pc_misses[pc] = self.pc_misses.get(pc, 0) + 1
        return False


class _Node:
    __slots__ = ("next", "value")


def _chase_ring(count: int = 50_000) -> "_Node":
    """``count`` nodes linked in one cycle, in LCG-shuffled order."""
    nodes = [_Node() for _ in range(count)]
    order = list(range(count))
    state = 0x9E3779B9
    for index in range(count - 1, 0, -1):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        other = (state >> 8) % (index + 1)
        order[index], order[other] = order[other], order[index]
    for position, index in enumerate(order):
        node = nodes[index]
        node.value = position
        node.next = nodes[order[(position + 1) % count]]
    return nodes[order[0]]


_RING = _chase_ring()
_CHASE_STEPS = 8000


def reference_kernel() -> int:
    """Run the fixed reference work once; return its checksum.

    Two halves of similar length: the cache model over the fixed stream
    (attribute, list and int/dict work on a small working set) and a
    pointer chase through a ~3 MB ring of objects, whose time follows the
    host's cache and memory latency the way the simulator's object graphs
    do.
    """
    cache = _ReferenceCache()
    access = cache.access
    for address, is_store, pc in _ACCESSES:
        access(address, is_store, pc)
    checksum = cache.hits * 1_000_003 + cache.misses * 7919 \
        + cache.writebacks * 131 + len(cache.pc_misses)
    for pc in sorted(cache.pc_misses):
        checksum = (checksum * 31 + pc * cache.pc_misses[pc]) & 0xFFFFFFFF
    node = _RING
    for _ in range(_CHASE_STEPS):
        checksum = (checksum + node.value) & 0xFFFFFFFF
        node = node.next
    return checksum


def reference_ms() -> float:
    """One reference sample: the kernel's host time, in ms.

    Taken right after the timed work, so the sample sees the caches and
    the host in the state that work left them.
    """
    # The cyclic collector would otherwise run inside some samples, paying
    # for garbage the timed work left behind.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def correction_factor(reference_samples_ms: List[float]) -> float:
    """The scale applied to host time measured next to these samples."""
    return REF_NOMINAL_MS / (sum(reference_samples_ms)
                             / len(reference_samples_ms))


class DriftClock:
    """Times work in segments, each closed by a reference sample.

    ``add(raw_s)`` records one operation's raw host time in the open
    segment; once the segment holds ``segment_s`` of work (or on
    ``flush()``) a reference sample closes it.  A segment's host time is
    scaled by :func:`correction_factor` of the samples taken within
    ``window_s`` seconds of it, always including the two that bracket it.
    ``window_s = 0`` uses just those two.
    """

    def __init__(self, segment_s: float = 0.1, window_s: float = 1.0
                 ) -> None:
        self.segment_s = segment_s
        self.window_s = window_s
        self.ref_samples: List[float] = [reference_ms()]
        self.ref_times: List[float] = [time.perf_counter()]
        #: Raw per-operation host times, and the segment of each.
        self.raw: List[float] = []
        self._segment: List[int] = []
        self._open_s = 0.0

    def add(self, raw_s: float) -> None:
        self.raw.append(raw_s)
        self._segment.append(len(self.ref_samples) - 1)
        self._open_s += raw_s
        if self._open_s >= self.segment_s:
            self.flush()

    def flush(self) -> None:
        """Close the open segment, if it holds any operation."""
        if not self._segment or self._segment[-1] != len(self.ref_samples) - 1:
            return
        self.ref_samples.append(reference_ms())
        self.ref_times.append(time.perf_counter())
        self._open_s = 0.0

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` as one operation; return its result."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(time.perf_counter() - start)
        return result

    @property
    def factors(self) -> List[float]:
        """One correction factor per closed segment."""
        times, samples = self.ref_times, self.ref_samples
        factors = []
        low = high = 0
        for segment in range(len(samples) - 1):
            middle = (times[segment] + times[segment + 1]) / 2.0
            while times[low] < middle - self.window_s and low < segment:
                low += 1
            high = max(high, segment + 1)
            while high + 1 < len(times) and \
                    times[high + 1] <= middle + self.window_s:
                high += 1
            factors.append(correction_factor(samples[low:high + 1]))
        return factors

    @property
    def corrected(self) -> List[float]:
        """Per-operation corrected host times (closed segments only)."""
        factors = self.factors
        return [raw * factors[segment]
                for raw, segment in zip(self.raw, self._segment)
                if segment < len(factors)]
