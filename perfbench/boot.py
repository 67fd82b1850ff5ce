"""Boot module of the benchmark, imported by the main process and, through
``ParcConfig(worker_modules=...)``, by the worker process at boot.

It registers the benchmark's own parallel class :class:`Echo`, imports the
application classes the workloads use (so the worker can host them), and
counts rendered image lines so the ray-tracer check can see each line
rendered exactly once.  When the environment variable :data:`TRACE_ENV`
is ``"1"`` it also wraps each layer's public functions with
:mod:`perfbench.spans` recorders; otherwise it installs no wrapper.

In a worker it starts a thread that ends the worker when its parent
process dies, since a worker whose parent is gone would otherwise wait
on its command queue forever.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from collections import Counter, deque

import repro.apps.primes.farm as prime_farm
import repro.apps.raytracer.parallel as ray_farm
from repro.core.model import parallel

from perfbench.spans import RECORDER

TRACE_ENV = "PERFBENCH_TRACE"
TRACING = os.environ.get(TRACE_ENV) == "1"


def mix(x: int) -> int:
    """The function :meth:`Echo.echo` computes; the caller checks it."""
    return (x * 2654435761 + 40503) % 4294967291


# -- line counter (ray-tracer exactly-once check) ---------------------------

_lines: Counter = Counter()
_lines_lock = threading.Lock()


def _count_lines(render_lines):  # type: ignore[no-untyped-def]
    def counted(scene, ys, width, height):  # type: ignore[no-untyped-def]
        ys = list(ys)
        with _lines_lock:
            _lines.update(ys)
        return render_lines(scene, ys, width, height)

    return counted


ray_farm.render_lines = _count_lines(ray_farm.render_lines)


def take_lines() -> dict:
    """Lines rendered in this process since the last call, as y -> times."""
    with _lines_lock:
        taken = dict(_lines)
        _lines.clear()
    return taken


@parallel(
    name="perfbench.Echo",
    async_methods=["bump"],
    sync_methods=[
        "echo", "calls", "bumped", "pid", "take_lines",
        "trace_phase", "trace_snapshot",
    ],
)
class Echo:
    """The benchmark's grain: small sync calls plus probes of its process."""

    def __init__(self) -> None:
        self.echoes = 0
        self.bumps = 0
        self.bump_sum = 0

    def echo(self, x: int) -> int:
        self.echoes += 1
        return mix(x)

    def calls(self) -> int:
        return self.echoes

    def bump(self, x: int) -> None:
        self.bumps += 1
        self.bump_sum += x

    def bumped(self) -> list:
        return [self.bumps, self.bump_sum]

    def pid(self) -> int:
        return os.getpid()

    def take_lines(self) -> dict:
        return take_lines()

    def trace_phase(self, phase: str) -> None:
        RECORDER.phase = phase

    def trace_snapshot(self) -> dict:
        return RECORDER.snapshot()


# -- tracing -----------------------------------------------------------------

#: Per implementation object: FIFO of [enqueue time or None, calls left].
#: Execution is FIFO per grain, so the head entry belongs to the call that
#: starts next; the gap is that call's mailbox wait.
_posted: dict[int, deque] = {}

#: User methods timed as ``apps.execute``, per class.
_EXECUTED = {
    Echo: ("echo", "calls", "bump", "bumped", "pid", "take_lines"),
    prime_farm.PrimeServer: ("process", "count", "found"),
    ray_farm.RenderWorker: ("render_chunk", "collect"),
}


def _mark_posted(func, calls_of, stamp_first):  # type: ignore[no-untyped-def]
    """Note each posted call so the executing method can find its wait.

    Sync ``invoke`` is stamped at its start (it posts first and then
    waits); the ``enqueue`` forms are stamped when they return, and a call
    that starts executing before that is counted as not having waited.
    """

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        calls = calls_of(args, kwargs)
        entry = [time.perf_counter() if stamp_first else None, calls]
        queue = _posted.get(id(self))
        if queue is None:
            queue = _posted.setdefault(id(self), deque())
        queue.append(entry)
        if not stamp_first:
            RECORDER.sample("impl.enqueued_calls", calls)
        try:
            return func(self, *args, **kwargs)
        finally:
            if entry[0] is None:
                entry[0] = time.perf_counter()

    return wrapper


def _pop_posted(func, timed):  # type: ignore[no-untyped-def]
    from repro.core.impl import executing_impl

    inner = RECORDER.span("apps.execute", func) if timed else func

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        impl = executing_impl.get()
        queue = _posted.get(id(impl)) if impl is not None else None
        if queue:
            entry = queue[0]
            entry[1] -= 1
            if entry[1] <= 0:
                queue.popleft()
            if timed:
                posted = entry[0]
                waited = time.perf_counter() - posted if posted is not None else 0.0
                RECORDER.sample("impl.mailbox_wait", max(0.0, waited))
        return inner(self, *args, **kwargs)

    return wrapper


def install_tracing() -> None:
    """Wrap each layer's public functions with span recorders."""
    import repro.cluster.proc as proc
    from repro.channels.tcp import TcpChannel
    from repro.core.impl import ImplementationObject
    from repro.core.proxy_object import ProxyObject, RemoteGrain
    from repro.core.runtime import ParcRuntime
    from repro.serialization import FastBinaryFormatter

    span = RECORDER.span
    proc.spawn_workers = span("cluster.worker_boot", proc.spawn_workers)
    ParcRuntime.create_grain = span("runtime.create", ParcRuntime.create_grain)
    ProxyObject.parc_release = span("runtime.release", ProxyObject.parc_release)
    RemoteGrain.post = span("po.post", RemoteGrain.post)
    RemoteGrain.call = span("po.call", RemoteGrain.call)

    FastBinaryFormatter.dumps = span(
        "codec.encode", FastBinaryFormatter.dumps,
        measure_bytes=lambda args, result, mark: len(result),
    )
    FastBinaryFormatter.dumps_into = span(
        "codec.encode", FastBinaryFormatter.dumps_into,
        before=lambda args: len(args[1]),
        measure_bytes=lambda args, result, mark: len(args[1]) - mark,
    )
    FastBinaryFormatter.loads = span(
        "codec.decode", FastBinaryFormatter.loads,
        measure_bytes=lambda args, result, mark: len(args[1]),
    )

    TcpChannel.round_trip = span("tcp.round_trip", TcpChannel.round_trip)
    TcpChannel.call = span("tcp.round_trip", TcpChannel.call)
    listen = TcpChannel.listen

    def traced_listen(self, authority, handler):  # type: ignore[no-untyped-def]
        return listen(self, authority, span("remoting.handler", handler))

    TcpChannel.listen = traced_listen

    one = lambda args, kwargs: 1  # noqa: E731
    ImplementationObject.invoke = _mark_posted(
        span("impl.invoke", ImplementationObject.invoke), one, True
    )
    ImplementationObject.enqueue = _mark_posted(
        span("impl.enqueue", ImplementationObject.enqueue), one, False
    )
    ImplementationObject.enqueue_batch = _mark_posted(
        span("impl.enqueue", ImplementationObject.enqueue_batch),
        lambda args, kwargs: len(args[1]),
        False,
    )
    # enqueue_columns rebuilds the rows and calls enqueue_batch, which
    # marks the calls; its own span covers the unpacking.
    ImplementationObject.enqueue_columns = span(
        "impl.enqueue", ImplementationObject.enqueue_columns
    )

    for cls in (Echo, prime_farm.PrimeServer, ray_farm.RenderWorker):
        for name, member in list(vars(cls).items()):
            if callable(member) and not name.startswith("_"):
                setattr(cls, name, _pop_posted(member, name in _EXECUTED[cls]))


def _exit_with_parent(parent_pid: int) -> None:
    while True:
        time.sleep(0.5)
        if os.getppid() != parent_pid:
            os._exit(3)


if TRACING:
    install_tracing()

if multiprocessing.parent_process() is not None:
    threading.Thread(
        target=_exit_with_parent,
        args=(os.getppid(),),
        name="perfbench-parent-watch",
        daemon=True,
    ).start()
