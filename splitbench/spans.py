"""In-memory span recorder that wraps the program's public functions from
outside, plus the arithmetic that turns spans into per-layer figures.

A span is (name, start, end, parent). Each thread appends to its own log,
so threads never contend; ``parent`` indexes the same thread's log (-1 for
a root). Logs are flat typed arrays, which the garbage collector does not
walk, so a long traced run does not slow down as spans accumulate. Nothing
is written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass


class ThreadLog:
    def __init__(self, name: str, names: list[str]):
        self.name = name
        self.names = names  # span name of each name id, shared by all logs
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.notes: dict[str, int] = defaultdict(int)  # counts taken at span boundaries

    def spans(self) -> list[tuple[str, float, float, int]]:
        names = self.names
        return [(names[n], t0, t1, p) for n, t0, t1, p in zip(self.name_ids, self.starts, self.ends, self.parents)]


class Recorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.names: list[str] = []
        self.logs: list[ThreadLog] = []

    def log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog(threading.current_thread().name, self.names)
            with self._lock:
                self.logs.append(log)
            self._local.log = log
        return log

    def wrap(self, name: str, fn, note=None):
        """Return fn wrapped in a span; ``note(counters, args, result)`` may
        add counts measured at the same boundary."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        local, log_of, clock = self._local, self.log, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = getattr(local, "log", None) or log_of()
            stack = log.stack
            idx = len(log.starts)
            log.name_ids.append(nid)
            log.parents.append(stack[-1] if stack else -1)
            log.starts.append(0.0)
            log.ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                log.starts[idx] = t0
                log.ends[idx] = t1
            if note is not None:
                note(log.notes, args, result)
            return result

        return traced


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: targets is a list of
    (owner, attribute, replacement_factory) where the factory receives the
    original callable. Attributes the program no longer has are skipped."""
    saved = []
    try:
        for owner, attr, factory in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass
class NameStats:
    calls: int = 0
    total: float = 0.0  # seconds
    self_: float = 0.0  # seconds not covered by child spans


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children. Children of one span never overlap (one stack per
    thread), so their durations add up to the covered part."""
    covered = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [(t1 - t0) - covered[i] for i, (name, t0, t1, parent) in enumerate(spans)]


def outermost_total(spans: list, group: set[str]) -> float:
    """Summed duration of spans in ``group`` that have no ancestor in it, so
    nested members (apply_and_reinit -> lora.reinit) count once."""
    total = 0.0
    for name, t0, t1, parent in spans:
        if name not in group:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in group:
            p = spans[p][3]
        if p < 0:
            total += t1 - t0
    return total


def stats_by_name(span_lists) -> dict[str, NameStats]:
    """Calls, total and self time per span name over several threads' spans."""
    out: dict[str, NameStats] = defaultdict(NameStats)
    for spans in span_lists:
        for (name, t0, t1, _), s in zip(spans, self_times(spans)):
            st = out[name]
            st.calls += 1
            st.total += t1 - t0
            st.self_ += s
    return out
