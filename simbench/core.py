"""Run-time plumbing shared by the workloads: spans, set-up time, profiling.

One :class:`Recorder` lives for one benchmark process.  Workloads wrap every
call they make into the simulator in :meth:`Recorder.span`; a span records
its name, start, end and parent in memory, adds its duration -- scaled to
the reference host speed, see :class:`HostSpeed` -- to the current round's
totals, and in a traced run switches on the interpreter's profiler for the
span's profile group.  Spans whose name starts with
``setup.`` (or flagged ``setup=True``) are set-up work: building clusters,
worlds, rank runtimes, coordinators and facilities before the first
simulated event.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import os
import random
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, Optional

from layers import LAYERS, FileLayers, attribute

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for checkpoint sets and span dumps, inside the checkout
OUT_DIR = os.path.join(ROOT, ".simbench_out")

#: profile groups: the MANA half (or checkpoint/restart windows, or the
#: facility drain) and the native half of a workload
MANA, NATIVE = "mana", "native"


# ------------------------------------------------------------ host speed

class _Link:
    __slots__ = ("key", "value", "nxt")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.nxt = None

    def step(self, table: dict) -> float:
        slot = self.key & 63
        table[slot] = table.get(slot, 0.0) + self.value
        return self.value


class HostSpeed:
    """A fixed pure-Python/numpy kernel, independent of the simulator, whose
    duration tracks how fast the host runs right now.

    On a shared host the same work takes up to a third longer from one
    minute to the next.  Workload wall times are divided by the kernel's
    duration measured around them (relative to :attr:`REFERENCE_S`), which
    cancels that drift while leaving every change to the simulator's own
    cost in the figure.  The kernel mixes what the simulator does: heap
    traffic and method calls on small objects, pointer chasing through a
    working set larger than the caches, and small numpy operations.
    """

    #: kernel duration on a quiet 2-core reference host (Python 3.11)
    REFERENCE_S = 0.016

    def __init__(self) -> None:
        import numpy as np

        rng = random.Random(0x5EED)
        self._chain = [_Link(i, float(i)) for i in range(100_000)]
        order = list(range(len(self._chain)))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            self._chain[a].nxt = self._chain[b]
        self._head = self._chain[order[0]]
        self._table = {("k", i): i for i in range(50_000)}
        self._vec = np.arange(64.0)
        self._np = np

    def _kernel(self) -> float:
        heap, table, total = [], {}, 0.0
        for i in range(1500):
            heapq.heappush(heap, ((i * 7919) % 1000, i, _Link(i, i * 0.5)))
        while heap:
            total += heapq.heappop(heap)[2].step(table)
        node, keys = self._head, self._table
        for i in range(8000):
            total += node.value + keys[("k", (i * 7919) % 50_000)]
            node = node.nxt
        roll, x = self._np.roll, self._vec.copy()
        for _ in range(500):
            x = 0.5 * x + 0.25 * roll(x, 1)
        return total + float(x[3])

    def sample(self) -> float:
        """Seconds one kernel pass takes now.  The cyclic garbage collector
        is paused for the pass: a collection would scan the workload's heap
        and make the sample depend on it rather than on the host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def factor(self, samples) -> float:
        """How much slower than the reference host the samples show (1.0
        when the host runs at the reference speed)."""
        return statistics.mean(samples) / self.REFERENCE_S


class CheckFailed(AssertionError):
    """A check on the program's outputs did not hold."""


def check(cond: bool, what: str) -> None:
    """Raise :class:`CheckFailed` unless ``cond`` holds."""
    if not cond:
        raise CheckFailed(what)


class Span:
    """What a ``with recorder.span(...)`` block yields: its duration, set
    when the block exits."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


class Recorder:
    """Spans, per-round totals and (when tracing) per-group profilers."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, Optional[int]]] = []
        self._stack: list[int] = []
        self.profiling = False
        self.profilers = {MANA: cProfile.Profile(), NATIVE: cProfile.Profile()}
        self._active: Optional[str] = None
        #: simulated events fired inside profiled spans, per group
        self.events = {MANA: 0, NATIVE: 0}
        self.host = HostSpeed()
        #: per-round span totals scaled to the reference host speed
        self.norm: dict[str, float] = defaultdict(float)
        #: spans closed since the last host-speed sample: (name, s, setup)
        self._pending: list[tuple[str, float, bool]] = []
        self._last_sample: Optional[float] = None

    def new_round(self) -> None:
        """Start fresh per-round totals."""
        self.norm = defaultdict(float)

    def calibrate(self) -> None:
        """Sample the host's speed and scale every span closed since the
        previous sample by the mean of the two samples.  Workloads call it
        between the units of a round, so each unit is scaled by the speed
        the host ran at while it ran."""
        sample = self.host.sample()
        if self._last_sample is not None:
            slowdown = self.host.factor((self._last_sample, sample))
            for name, seconds, setup in self._pending:
                self.norm[name] += seconds / slowdown
                if setup:
                    self.norm["setup"] += seconds / slowdown
        self._pending.clear()
        self._last_sample = sample

    @contextmanager
    def span(self, name: str, group: Optional[str] = None,
             setup: bool = False, collect: bool = False) -> Iterator[Span]:
        """Time the enclosed calls as span ``name``; profile them as
        ``group`` when this is a traced round.  ``setup`` (implied by a
        ``setup.`` prefix) adds the duration to the round's set-up time.
        ``collect`` ends the span with a garbage collection, so a unit of
        work pays for collecting its own garbage and none is left to land
        in whichever span the collector next happens to run in."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        enable = self.profiling and group is not None and self._active is None
        if enable:
            self._active = group
            self.profilers[group].enable()
        handle = Span()
        start = time.perf_counter()
        try:
            yield handle
            if collect:
                gc.collect()
        finally:
            end = time.perf_counter()
            handle.seconds = end - start
            if enable:
                self.profilers[group].disable()
                self._active = None
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            self._pending.append(
                (name, end - start, setup or name.startswith("setup.")))

    def count_events(self, engine, before: int, group: str = MANA) -> None:
        """Add the events ``engine`` fired since ``before`` (its trace length
        when the window opened) to ``group``'s tally; a no-op untraced."""
        if engine.trace is not None:
            self.events[group] += len(engine.trace) - before

    def layer_stats(self, group: str) -> dict[str, list[float]]:
        """``{layer: [calls, self_seconds]}`` for one profile group."""
        prof = self.profilers[group]
        prof.create_stats()
        return attribute(prof.stats, FileLayers(SRC, HERE))

    def dump_spans(self, path: str) -> None:
        """Write every recorded span once, at the end of the run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in self.spans], fh)


def new_engine(rec: Recorder):
    """A fresh simulation engine; traced runs record its fired events."""
    from repro.simtime import Engine

    engine = Engine()
    if rec.profiling:
        engine.trace = []
    return engine


def trace_len(engine) -> int:
    """Current length of the engine's event trace (0 when not recording)."""
    return len(engine.trace) if engine.trace is not None else 0


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def layer_metrics(rec: Recorder, ops: float) -> dict[str, tuple[float, str]]:
    """``L.calls_per_op`` and ``L.self_us_per_op`` for every layer, from the
    MANA profile group, per ``ops`` operations."""
    stats = rec.layer_stats(MANA)
    out = {}
    for layer in LAYERS:
        calls, self_s = stats[layer]
        out[f"{layer}.calls_per_op"] = (calls / ops, "calls")
        out[f"{layer}.self_us_per_op"] = (self_s * 1e6 / ops, "us")
    out["all.calls_per_op"] = (sum(c for c, _ in stats.values()) / ops, "calls")
    return out
