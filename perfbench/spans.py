"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer's public function, timed by a wrapper
that :mod:`perfbench.boot` installs around that function.  Each thread
keeps a stack of open spans, so when a span ends its duration is charged
to its parent and its *self time* is its duration minus the time its
children took.  Spans are aggregated per ``(phase, name, parent)`` as
they end (count, total time, total self time, bytes), so a long run
costs constant memory; the first :data:`RAW_CAP` spans of each process
are also kept raw for the Chrome-trace file.

Timestamps come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC``: spans from the main process and the worker share
one time base and land on one Chrome-trace timeline.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array

#: Raw spans kept per process for the Chrome-trace file; aggregates
#: keep counting past it.
RAW_CAP = 60_000

_clock = time.perf_counter


class Recorder:
    """Per-process span store (one per interpreter, see :data:`RECORDER`)."""

    def __init__(self) -> None:
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        # (phase, name, parent) -> [count, total_s, self_s, bytes]
        self.stats: dict[tuple[str, str, str], list] = {}
        # (phase, name) -> [count, total_s] for plain samples (not spans)
        self.samples: dict[tuple[str, str], list] = {}
        #: End time of the latest span of each name.
        self.last_end: dict[str, float] = {}
        self._names: dict[str, int] = {}
        self._raw_name = array("i")
        self._raw_tid = array("q")
        self._raw_t0 = array("d")
        self._raw_t1 = array("d")

    # -- recording -------------------------------------------------------

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self, name: str, parent: str, t0: float, t1: float, child_s: float,
        nbytes: int = 0,
    ) -> None:
        dur = t1 - t0
        key = (self.phase, name, parent)
        self.last_end[name] = t1
        with self._lock:
            entry = self.stats.get(key)
            if entry is None:
                entry = self.stats[key] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_s
            entry[3] += nbytes
            if len(self._raw_t0) < RAW_CAP:
                code = self._names.get(name)
                if code is None:
                    code = self._names[name] = len(self._names)
                self._raw_name.append(code)
                self._raw_tid.append(threading.get_ident())
                self._raw_t0.append(t0)
                self._raw_t1.append(t1)

    def sample(self, name: str, value: float) -> None:
        """Record one value that is not a span (e.g. a mailbox wait)."""
        key = (self.phase, name)
        with self._lock:
            entry = self.samples.get(key)
            if entry is None:
                entry = self.samples[key] = [0, 0.0]
            entry[0] += 1
            entry[1] += value

    def span(self, name: str, func, measure_bytes=None, before=None):  # type: ignore[no-untyped-def]
        """Wrap *func* so every call records a span called *name*.

        *measure_bytes(args, result, mark)* may return the bytes the call
        produced or consumed, where *mark* is ``before(args)`` taken
        before the call (``None`` without *before*).  A call nested directly inside a span of
        the same name (``enqueue_columns`` → ``enqueue_batch``) is not a
        new span: it would count one call twice.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):  # type: ignore[no-untyped-def]
            stack = self.stack()
            if stack and stack[-1][1] == name:
                return func(*args, **kwargs)
            parent = stack[-1][1] if stack else ""
            mark = before(args) if before else None
            frame = [0.0, name]
            stack.append(frame)
            t0 = _clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                t1 = _clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                nbytes = measure_bytes(args, result, mark) if measure_bytes else 0
                self.record(name, parent, t0, t1, frame[0], nbytes)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates plus raw spans, in a form the codec ships cheaply."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "stats": [list(key) + list(val) for key, val in self.stats.items()],
                "samples": [list(key) + list(val) for key, val in self.samples.items()],
                "names": sorted(self._names, key=self._names.__getitem__),
                "raw_name": self._raw_name.tobytes(),
                "raw_tid": self._raw_tid.tobytes(),
                "raw_t0": self._raw_t0.tobytes(),
                "raw_t1": self._raw_t1.tobytes(),
            }


#: The recorder of this interpreter.
RECORDER = Recorder()


class Aggregate:
    """Span statistics merged over processes, queried per phase."""

    def __init__(self, snapshots: list[dict]) -> None:
        self.stats: dict[tuple[str, str, str], list] = {}
        self.samples: dict[tuple[str, str], list] = {}
        for snap in snapshots:
            for phase, name, parent, count, total, self_s, nbytes in snap["stats"]:
                entry = self.stats.setdefault((phase, name, parent), [0, 0.0, 0.0, 0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_s
                entry[3] += nbytes
            for phase, name, count, total in snap["samples"]:
                entry = self.samples.setdefault((phase, name), [0, 0.0])
                entry[0] += count
                entry[1] += total

    def _rows(self, phases, name, parent=None):  # type: ignore[no-untyped-def]
        for (phase, n, p), row in self.stats.items():
            if phase in phases and n == name and (parent is None or p == parent):
                yield row

    def count(self, phases, name, parent=None) -> int:  # type: ignore[no-untyped-def]
        return sum(row[0] for row in self._rows(phases, name, parent))

    def total(self, phases, name, parent=None) -> float:  # type: ignore[no-untyped-def]
        return sum(row[1] for row in self._rows(phases, name, parent))

    def self_total(self, phases, name, parent=None) -> float:  # type: ignore[no-untyped-def]
        return sum(row[2] for row in self._rows(phases, name, parent))

    def bytes(self, phases, name, parent=None) -> int:  # type: ignore[no-untyped-def]
        return sum(row[3] for row in self._rows(phases, name, parent))

    def mean(self, phases, name, parent=None) -> float:  # type: ignore[no-untyped-def]
        count = self.count(phases, name, parent)
        return self.total(phases, name, parent) / count if count else 0.0

    def mean_self(self, phases, name, parent=None) -> float:  # type: ignore[no-untyped-def]
        count = self.count(phases, name, parent)
        return self.self_total(phases, name, parent) / count if count else 0.0

    def sample_mean(self, phases, name) -> float:  # type: ignore[no-untyped-def]
        count = sum(v[0] for (ph, n), v in self.samples.items() if ph in phases and n == name)
        total = sum(v[1] for (ph, n), v in self.samples.items() if ph in phases and n == name)
        return total / count if count else 0.0


def write_chrome_trace(path: str, snapshots: list[dict]) -> int:
    """Write every raw span of *snapshots* as one Chrome-trace file.

    One process lane per snapshot (main process, worker); returns the
    number of events written.
    """
    events = []
    for snap in snapshots:
        names = snap["names"]
        codes = array("i")
        codes.frombytes(snap["raw_name"])
        tids = array("q")
        tids.frombytes(snap["raw_tid"])
        t0s = array("d")
        t0s.frombytes(snap["raw_t0"])
        t1s = array("d")
        t1s.frombytes(snap["raw_t1"])
        pid = snap["pid"]
        for code, tid, t0, t1 in zip(codes, tids, t0s, t1s):
            name = names[code]
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": t0 * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "pid": pid,
                    "tid": tid,
                }
            )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
    return len(events)
