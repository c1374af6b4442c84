"""Harness-side spans around the layers' public entry points.

The traced run measures every layer *from outside*: ``install`` binds a
timing wrapper, by attribute name, on the instances the public
constructors return (``engine.model``, ``engine.store``, ...).  A target a
later refactor renamed is reported in ``unresolved`` and its metrics read
``null``; nothing here raises on a missing attribute.

A span is ``(name, start, end, parent)``.  A span's self time is its
duration minus its children's, so the self times of all spans under one
root sum to the root's duration: the layer split tiles the traced wall.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["SpanLog", "SpanTotals", "Hook", "install", "percentile"]


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Buffer:
    """One thread's spans; ``parent`` indexes into the same buffer."""

    def __init__(self) -> None:
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.current = -1


class SpanLog:
    """In-memory span store with wrappers that record into it.

    Each thread appends to its own buffer (a parent is always on the same
    thread), so the runtime workloads' worker and timer threads record
    without a lock on the measured path.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        #: name -> sum of the numeric results of ``wrap(..., sum_result=True)``
        self.result_sums: Dict[str, float] = defaultdict(float)
        self._callback_names: Dict[str, str] = {}

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
            return buffer

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        buffer = self._buffer()
        index = len(buffer.name)
        buffer.name.append(name)
        buffer.parent.append(buffer.current)
        buffer.end.append(0.0)
        buffer.current = index
        buffer.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            buffer.end[index] = time.perf_counter()
            buffer.current = buffer.parent[index]

    def wrap(self, fn: Callable, name: str, sum_result: bool = False) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        call = self._call
        if not sum_result:
            return lambda *args, **kwargs: call(name, fn, args, kwargs)
        sums = self.result_sums

        def summed(*args, **kwargs):
            result = call(name, fn, args, kwargs)
            sums[name] += result
            return result

        return summed

    def _run_callback(self, callback: Callable, *args):
        """Run a DES callback under a span named after the layer that owns
        it (``repro.<layer>...`` -> ``<layer>.callback``)."""
        owner = getattr(callback, "__module__", None) or type(callback).__module__
        name = self._callback_names.get(owner)
        if name is None:
            parts = owner.split(".")
            layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else owner
            name = self._callback_names[owner] = f"{layer}.callback"
        return self._call(name, callback, args, {})

    def wrap_scheduling(self, fn: Callable, name: str) -> Callable:
        """For ``Simulator.schedule``/``defer``/``schedule_at``: time the
        heap push, and run the scheduled callback under its owner's span."""
        run_callback = self._run_callback

        def schedule(when, callback, *args):
            if callback == run_callback:  # schedule() delegating to schedule_at()
                return fn(when, callback, *args)
            return fn(when, run_callback, callback, *args)

        return self.wrap(schedule, name)

    def wrap_send(self, fn: Callable, name: str) -> Callable:
        """For ``Network.send``: time the send, and run ``on_delivery``
        under its owner's span so engine glue is not booked to netsim."""
        run_callback = self._run_callback

        def send(message, on_delivery):
            return fn(message, lambda delivered: run_callback(on_delivery, delivered))

        return self.wrap(send, name)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, SpanTotals]:
        """Calls, total and self seconds per span name, over all threads."""
        totals: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        for buffer in self._buffers:
            durations = [end - start for start, end in zip(buffer.start, buffer.end)]
            child_s = [0.0] * len(durations)
            for duration, parent in zip(durations, buffer.parent):
                if parent >= 0:
                    child_s[parent] += duration
            for name, duration, children in zip(buffer.name, durations, child_s):
                entry = totals[name]
                entry.calls += 1
                entry.total_s += duration
                entry.self_s += duration - children
        return totals

    def durations(self, name: str) -> List[float]:
        """Every duration recorded under ``name``, in seconds."""
        return [
            end - start
            for buffer in self._buffers
            for span, start, end in zip(buffer.name, buffer.start, buffer.end)
            if span == name
        ]

    def span_count(self) -> int:
        return sum(len(buffer.name) for buffer in self._buffers)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass(frozen=True)
class Hook:
    """One wrapper target: a dotted path from the root object.

    A ``[*]`` suffix on a component fans out over a sequence, e.g.
    ``workers[*].partition.sample_batch``.
    """

    span: str
    path: str
    kind: str = "call"  # "call" | "scheduling" | "send" | "sum"


def _owners(root: object, components: List[str]) -> List[object]:
    owners = [root]
    for component in components:
        fan_out = component.endswith("[*]")
        attr = component[:-3] if fan_out else component
        step: List[object] = []
        for owner in owners:
            value = getattr(owner, attr, None)
            if value is None:
                continue
            step.extend(value if fan_out else [value])
        owners = step
    return owners


def install(log: SpanLog, root: object, hooks: Iterable[Hook]) -> List[str]:
    """Bind every hook it can resolve; return the paths it could not."""
    unresolved: List[str] = []
    wrapped: set = set()
    for hook in hooks:
        *components, attr = hook.path.split(".")
        targets: List[Tuple[object, Callable]] = [
            (owner, getattr(owner, attr))
            for owner in _owners(root, components)
            if callable(getattr(owner, attr, None))
        ]
        if not targets:
            unresolved.append(hook.path)
            continue
        for owner, fn in targets:
            if (id(owner), attr) in wrapped:  # one instance shared by workers
                continue
            wrapped.add((id(owner), attr))
            if hook.kind == "scheduling":
                traced = log.wrap_scheduling(fn, hook.span)
            elif hook.kind == "send":
                traced = log.wrap_send(fn, hook.span)
            else:
                traced = log.wrap(fn, hook.span, sum_result=hook.kind == "sum")
            # object.__setattr__: compute models are frozen dataclasses.
            object.__setattr__(owner, attr, traced)
    return unresolved
