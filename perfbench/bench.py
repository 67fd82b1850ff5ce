"""One benchmark run: boot, workload, checks, metrics.

Imported by :mod:`perfbench.run` only after it has decided whether this
run is traced, because importing :mod:`perfbench.boot` installs the span
wrappers of a traced run.
"""

from __future__ import annotations

import atexit
import faulthandler
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter

import repro.core as parc
from repro.apps.primes.farm import PrimeServer
from repro.apps.raytracer.parallel import farm_render, make_chunks
from repro.apps.raytracer.scene import create_scene
from repro.apps.raytracer.tracer import checksum, render
from repro.cluster.placement import RoundRobinPlacement
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.remoting.proxy import is_proxy, proxy_uri

from perfbench import boot
from perfbench.boot import Echo, mix
from perfbench.run import (
    END_TO_END_UNITS,
    MAX_CALLS,
    PER_LAYER_UNITS,
    PRIMARY,
    SIZES,
    watchdog_s,
)
from perfbench.spans import RECORDER, Aggregate, write_chrome_trace

clock = time.perf_counter


class PinnedPlacement(RoundRobinPlacement):
    """Round robin, except while :attr:`pin` names a directory index.

    The benchmark pins its :class:`Echo` grain to the worker process;
    the farms' grains go round robin, one per node.  The class keeps the
    ``round_robin`` name, which is what the worker builds for itself (the
    worker never creates grains here).
    """

    def __init__(self) -> None:
        super().__init__()
        self.pin: int | None = None

    def choose(self, view, home_index):  # type: ignore[no-untyped-def]
        if self.pin is not None:
            return self.pin
        return super().choose(view, home_index)


# -- host ------------------------------------------------------------------


def ref_loop_ms() -> float:
    """One fixed pure-Python loop, in ms: a gauge of the host's speed."""
    started = clock()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (clock() - started) * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_kb(pid: int) -> int:
    """Peak resident set of *pid* in KiB (VmHWM), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- process hygiene -------------------------------------------------------

_workers: list = []


def _kill_workers() -> None:
    for process in _workers:
        if process.is_alive():
            process.kill()
        process.join(timeout=5.0)


def _start_watchdog(run: "Run", deadline: float) -> None:
    """Turn a hang into a failed run: dump every stack, report, exit."""

    def fire() -> None:
        time.sleep(deadline)
        sys.stderr.write(f"perfbench: run exceeded {deadline:.0f} s; stacks:\n")
        faulthandler.dump_traceback(all_threads=True)
        print(json.dumps({
            "correct": False,
            "attempted": run.attempted + 1,
            "failed": run.failed + 1,
            "metrics": {},
        }), flush=True)
        for process in _workers:
            if process.is_alive():
                process.kill()
        os._exit(4)

    threading.Thread(target=fire, name="perfbench-watchdog", daemon=True).start()
    # Backstop for a hang that never releases the GIL.
    faulthandler.dump_traceback_later(deadline + 5.0, exit=True)


# -- runtime -----------------------------------------------------------------


class Cluster:
    """One booted runtime with the benchmark's Echo grain in the worker."""

    def __init__(self, workload: str, seed: int) -> None:
        self.placement = PinnedPlacement()
        config = ParcConfig(
            nodes=1,
            channel="tcp",
            worker_processes=1,
            worker_modules=("perfbench.boot",),
            scheduler=SchedulerConfig(
                grain=GrainPolicy(max_calls=MAX_CALLS[workload]),
                placement=self.placement,
            ),
        )
        started = clock()
        self.runtime = parc.init(config)
        booted = clock()
        if boot.TRACING:
            RECORDER.record("cluster.init", "", started, booted, 0.0)
        handles = self.runtime.cluster.worker_handles
        _workers.extend(handle.process for handle in handles)
        self.worker_pid = handles[0].process.pid
        self.placement.pin = len(self.runtime.cluster.nodes)
        try:
            self.echo = parc.new(Echo)
        finally:
            self.placement.pin = None
        x = random.Random(seed).randrange(1 << 31)
        answered = self.echo.echo(x)
        self.setup_s = clock() - started
        self.echo_calls = 1
        if answered != mix(x):
            raise RuntimeError(f"setup echo({x}) returned {answered}")
        pid = self.echo.pid()
        if pid != self.worker_pid or pid == os.getpid():
            raise RuntimeError("the Echo grain does not live in the worker process")


def boot_cluster(workload: str, seed: int, setups: int) -> tuple[Cluster, float]:
    """Boot *setups* times; keep the last runtime, report the median setup."""
    times = []
    for index in range(setups):
        cluster = Cluster(workload, seed)
        times.append(cluster.setup_s)
        if index < setups - 1:
            parc.shutdown()
    return cluster, statistics.median(times)


def set_phase(cluster: Cluster, phase: str) -> None:
    """Start a new span phase in both processes (traced runs only)."""
    if boot.TRACING:
        RECORDER.phase = phase
        cluster.echo.trace_phase(phase)


# -- workloads ---------------------------------------------------------------


class Run:
    """Counters and samples of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.round_s: "list[float] | array" = []
        self.round_calls = 0
        self.sync_s = array("d")
        self.barrier_s: list[float] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        sys.stderr.write(f"perfbench: check failed: {why}\n")


def echo_probe(cluster: Cluster, rng: random.Random, calls: int, run: Run) -> None:
    """Idle sync round trips to the worker's Echo grain, each timed."""
    xs = [rng.randrange(1 << 31) for _ in range(calls)]
    replies = []
    for x in xs:
        started = clock()
        replies.append(cluster.echo.echo(x))
        run.sync_s.append(clock() - started)
    cluster.echo_calls += calls
    run.attempted += calls
    bad = sum(1 for x, r in zip(xs, replies) if r != mix(x))
    if bad:
        run.fail(bad, f"{bad} echo replies differ from mix(x)")


def check_echo_count(cluster: Cluster, run: Run) -> None:
    served = cluster.echo.calls()
    if served != cluster.echo_calls:
        run.fail(
            min(run.attempted, abs(served - cluster.echo_calls)),
            f"Echo served {served} calls, {cluster.echo_calls} were made",
        )


def rpc_tcp(cluster, rng, size, seconds, tracing, run, reference):  # type: ignore[no-untyped-def]
    """Closed loop of small sync calls from one caller."""
    echo = cluster.echo
    for _ in range(size["rpc_warmup"]):
        echo.echo(rng.randrange(1 << 31))
    cluster.echo_calls += size["rpc_warmup"]
    set_phase(cluster, "window")
    per_batch = size["rpc_batch"]
    deadline = clock() + seconds
    while True:
        xs = [rng.randrange(1 << 31) for _ in range(per_batch)]
        replies = []
        sync_s = run.sync_s
        for x in xs:
            started = clock()
            replies.append(echo.echo(x))
            sync_s.append(clock() - started)
        run.attempted += per_batch
        cluster.echo_calls += per_batch
        bad = sum(1 for x, r in zip(xs, replies) if r != mix(x))
        if bad:
            run.fail(bad, f"{bad} echo replies differ from mix(x)")
        if clock() >= deadline:
            break
    set_phase(cluster, "probe")
    if tracing:
        # rpc_tcp makes no async calls; this fixed stream of posts keeps
        # the PO and enqueue layers measured in its traced run.
        values = [rng.randrange(1000) for _ in range(size["post_probe"])]
        for value in values:
            echo.bump(value)
        posted = clock()
        count, total = echo.bumped()
        run.barrier_s.append(clock() - posted)
        run.attempted += len(values)
        if count != len(values) or total != sum(values):
            run.fail(len(values), f"bump probe: {count} calls, sum {total}")
    # A round of rpc_tcp is one call: rounds of several calls would sum
    # the scheduler stalls that the per-call median leaves out.
    run.round_s = run.sync_s
    run.round_calls = len(run.round_s)
    check_echo_count(cluster, run)


def sieve_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes: table[n] == 1 exactly when n is prime."""
    table = bytearray([1]) * limit
    table[0:2] = b"\x00\x00"
    for n in range(2, int(limit ** 0.5) + 1):
        if table[n]:
            table[n * n :: n] = bytes(len(range(n * n, limit, n)))
    return table


def prime_stream(cluster, rng, size, seconds, tracing, run, reference):  # type: ignore[no-untyped-def]
    """One-way stream of single-candidate posts to a PrimeServer farm."""
    limit = size["prime_limit"]
    is_prime = sieve_table(limit)
    servers = [parc.new(PrimeServer) for _ in range(2)]
    # One server in each process: the main node hosts its IO in-process,
    # the worker's is reached through a remoting proxy.
    worker_uri = cluster.runtime.cluster.worker_handles[0].base_uri
    homes = sorted(
        proxy_uri(impl).startswith(worker_uri + "/") if is_proxy(impl) else False
        for impl in (server._parc_grain.impl for server in servers)
    )
    if homes != [False, True]:
        run.fail(1, "the PrimeServers are not one per node")
    expected = [Counter(), Counter()]
    posts = [0, 0]
    sync_calls = [0, 0]
    per_round = size["prime_round"]

    def one_round(measured: bool) -> None:
        candidates = [rng.randrange(2, limit) for _ in range(per_round)]
        first, second = servers
        started = clock()
        for index in range(0, per_round, 2):
            first.process([candidates[index]])
            second.process([candidates[index + 1]])
        posted = clock()
        counts = [first.count(), second.count()]
        finished = clock()
        for k in (0, 1):
            mine = candidates[k::2]
            posts[k] += len(mine)
            sync_calls[k] += 1
            expected[k].update(c for c in mine if is_prime[c])
            if counts[k] != sum(expected[k].values()):
                run.fail(len(mine), f"server {k} counted {counts[k]} primes")
        if measured:
            run.round_s.append(finished - started)
            run.barrier_s.append(finished - posted)
            run.round_calls += per_round
            run.attempted += per_round

    one_round(measured=False)
    set_phase(cluster, "window")
    deadline = clock() + seconds
    while True:
        one_round(measured=True)
        if not tracing:
            echo_probe(cluster, rng, size["probe_calls"], run)
        if clock() >= deadline:
            break
    set_phase(cluster, "teardown")
    for k, server in enumerate(servers):
        found = Counter(server.found())
        sync_calls[k] += 1
        if found != expected[k]:
            missing = sum((expected[k] - found).values())
            extra = sum((found - expected[k]).values())
            run.fail(missing + extra, f"server {k} primes differ from the sieve")
        processed = server._parc_grain.impl.stats()["processed"]
        if processed != posts[k] + sync_calls[k]:
            run.fail(
                min(run.attempted, abs(processed - posts[k] - sync_calls[k])),
                f"server {k} executed {processed} calls, "
                f"{posts[k]} posts + {sync_calls[k]} sync calls were made",
            )
        server.parc_release()
    check_echo_count(cluster, run)


def raytrace_farm(cluster, rng, size, seconds, tracing, run, reference):  # type: ignore[no-untyped-def]
    """Frames rendered back to back by farm_render, one worker per node."""
    side, grid = size["frame"], size["grid"]
    chunks = len(make_chunks(side, 4))

    def frame(measured: bool) -> None:
        boot.take_lines()
        started = clock()
        image = farm_render(2, side, side, grid=grid, lines_per_chunk=4)
        finished = clock()
        if tracing:
            # Last render_chunk post to the return of the last collect.
            run.barrier_s.append(
                RECORDER.last_end["po.call"] - RECORDER.last_end["po.post"]
            )
        lines = Counter(boot.take_lines())
        lines.update(cluster.echo.take_lines())
        if checksum(image) != reference or len(image) != side:
            run.fail(1, "frame checksum differs from the sequential render")
        elif sorted(lines) != list(range(side)) or set(lines.values()) != {1}:
            run.fail(1, "frame lines were not each rendered exactly once")
        if measured:
            run.round_s.append(finished - started)
            run.round_calls += chunks
            run.attempted += 1

    frame(measured=False)
    set_phase(cluster, "window")
    deadline = clock() + seconds
    while True:
        frame(measured=True)
        if not tracing:
            echo_probe(cluster, rng, size["probe_calls"], run)
        if clock() >= deadline:
            break
    set_phase(cluster, "teardown")
    check_echo_count(cluster, run)


WORKLOADS = {
    "rpc_tcp": rpc_tcp,
    "prime_stream": prime_stream,
    "raytrace_farm": raytrace_farm,
}


# -- metrics -----------------------------------------------------------------


def end_to_end(run: Run, setup_s: float, rss_kb: int) -> dict:
    per_round = run.round_calls / len(run.round_s)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "sync_call_p50_us":
            statistics.median(run.sync_s) * 1e6 if run.sync_s else float("nan"),
        "stream_calls_per_s": statistics.median(per_round / t for t in run.round_s),
        "frame_s": statistics.median(run.round_s),
    }


def per_layer(workload: str, agg: Aggregate, run: Run, extra: dict) -> dict:
    window = ("window",)
    stream = ("probe",) if workload == "rpc_tcp" else window
    every = ("setup", "warmup", "window", "probe", "teardown", "done")
    calls = agg.count(window, "po.post") + agg.count(window, "po.call")
    trips = agg.count(window, "tcp.round_trip")
    handler_s = agg.total(window, "remoting.handler")
    trip_self_s = agg.self_total(window, "tcp.round_trip")
    posts = agg.count(stream, "po.post")
    enqueues = agg.count(stream, "impl.enqueue")
    enqueued = agg.sample_mean(stream, "impl.enqueued_calls")
    return {
        "cluster.init_s": agg.mean(("setup",), "cluster.init"),
        "cluster.worker_boot_s": agg.mean(("setup",), "cluster.worker_boot"),
        "runtime.create_ms": agg.mean(every, "runtime.create") * 1e3,
        "runtime.release_ms": agg.mean(every, "runtime.release") * 1e3,
        "po.post_us": agg.mean(stream, "po.post") * 1e6,
        "po.barrier_ms": statistics.mean(run.barrier_s) * 1e3,
        "po.calls_per_message": posts / enqueues if enqueues else 0.0,
        "po.call_self_us": agg.mean_self(window, "po.call") * 1e6,
        "codec.encode_us": agg.mean(window, "codec.encode") * 1e6,
        "codec.decode_us": agg.mean(window, "codec.decode") * 1e6,
        "codec.request_bytes_per_call":
            agg.bytes(window, "codec.encode", "tcp.round_trip") / calls,
        "codec.reply_bytes_per_call":
            agg.bytes(window, "codec.encode", "remoting.handler") / calls,
        "tcp.round_trip_us": agg.mean(window, "tcp.round_trip") * 1e6,
        "tcp.transport_us": (trip_self_s - handler_s) / trips * 1e6,
        "tcp.frames_per_call": trips / calls,
        "remoting.handler_self_us": agg.mean_self(window, "remoting.handler") * 1e6,
        "impl.invoke_us": agg.mean_self(window, "impl.invoke") * 1e6,
        "impl.enqueue_us": agg.mean(stream, "impl.enqueue") * 1e6,
        "impl.mailbox_wait_us": agg.sample_mean(window, "impl.mailbox_wait") * 1e6,
        "impl.calls_per_batch": enqueued,
        "apps.execute_us": agg.mean_self(window, "apps.execute") * 1e6,
        "apps.seq_frame_s": extra["seq_frame_s"],
        "host.ref_loop_ms": extra["ref_loop_ms"],
        "trace.overhead_pct": extra["overhead_pct"],
    }


def blocking_path(agg: Aggregate) -> dict:
    """rpc_tcp: per-call means of the stages a sync call waits on.

    Self times partition the call: the PO's own work, the client codec,
    the wire (round trip minus its codec and minus the server's handler),
    the handler's own work, the server codec, the IO's invoke and the user
    method.  Their sum should equal the traced mean call time.
    """
    w = ("window",)
    calls = agg.count(w, "po.call")
    per_call = lambda seconds: seconds / calls * 1e6  # noqa: E731
    stages = {
        "po.call_self": per_call(agg.self_total(w, "po.call")),
        "codec.client": per_call(
            agg.total(w, "codec.encode", "tcp.round_trip")
            + agg.total(w, "codec.decode", "tcp.round_trip")
        ),
        "tcp.transport": per_call(
            agg.self_total(w, "tcp.round_trip") - agg.total(w, "remoting.handler")
        ),
        "remoting.handler_self": per_call(agg.self_total(w, "remoting.handler")),
        "codec.server": per_call(
            agg.total(w, "codec.encode", "remoting.handler")
            + agg.total(w, "codec.decode", "remoting.handler")
        ),
        "impl.invoke_self": per_call(agg.self_total(w, "impl.invoke")),
        "apps.execute": per_call(agg.self_total(w, "apps.execute")),
    }
    return {
        "stages_us": {k: round(v, 3) for k, v in stages.items()},
        "stage_sum_us": sum(stages.values()),
        "traced_call_mean_us": per_call(agg.total(w, "po.call")),
    }


def untraced_baseline(args, script: str) -> dict:  # type: ignore[no-untyped-def]
    """Run the same workload untraced in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    command = [
        sys.executable, script, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(max(1.0, args.seconds / 2)),
        "--trace", "0", "--size", args.size,
    ]
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=watchdog_s(args.seconds) / 2,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError("untraced baseline run failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


# -- one run -----------------------------------------------------------------


def run(args, script: str) -> int:  # type: ignore[no-untyped-def]
    size = SIZES[args.size]
    tracing = boot.TRACING
    run_ = Run()
    _start_watchdog(run_, watchdog_s(args.seconds))
    atexit.register(_kill_workers)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    baseline = untraced_baseline(args, script) if tracing else None
    ref_ms = [ref_loop_ms() for _ in range(size["ref_loops"])]
    seq_frame_s = 0.0
    reference = None
    if tracing or args.workload == "raytrace_farm":
        scene = create_scene(size["grid"])
        started = clock()
        image = render(scene, size["frame"], size["frame"])
        seq_frame_s = clock() - started
        reference = checksum(image)

    rng = random.Random(args.seed)
    setups = size["traced_setups"] if tracing else size["setups"]
    cluster, setup_s = boot_cluster(args.workload, args.seed, setups)
    try:
        set_phase(cluster, "warmup")
        WORKLOADS[args.workload](
            cluster, rng, size, args.seconds, tracing, run_, reference
        )
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + peak_rss_kb(cluster.worker_pid)
        )
        set_phase(cluster, "teardown")
        snapshots = None
        if tracing:
            RECORDER.phase = "done"
            snapshots = [cluster.echo.trace_snapshot()]
        cluster.echo.parc_release()
    finally:
        parc.shutdown()
        _kill_workers()
    ref_ms += [ref_loop_ms() for _ in range(size["ref_loops"])]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(tracing),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "host.ref_loop_ms": statistics.median(ref_ms),
        "sync_calls": len(run_.sync_s),
        "rounds": len(run_.round_s),
    }
    if len(run_.round_s) >= 2:
        info["round_s_quartiles"] = statistics.quantiles(run_.round_s, n=4)
    if len(run_.sync_s) >= 1000:
        info["sync_call_p99_us"] = statistics.quantiles(run_.sync_s, n=100)[98] * 1e6
    if tracing:
        snapshots.append(RECORDER.snapshot())
        agg = Aggregate(snapshots)
        name, higher = PRIMARY[args.workload]
        traced = end_to_end(run_, setup_s, rss_kb)[name]
        base = baseline[name]
        overhead = (base / traced - 1) if higher else (traced / base - 1)
        metrics = per_layer(args.workload, agg, run_, {
            "seq_frame_s": seq_frame_s,
            "ref_loop_ms": info["host.ref_loop_ms"],
            "overhead_pct": overhead * 100.0,
        })
        units = PER_LAYER_UNITS
        if args.workload == "rpc_tcp":
            info["blocking_path"] = blocking_path(agg)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(script)), "out")
        trace_path = os.path.join(
            out_dir, f"trace-{args.workload}-{args.seed}.json"
        )
        info["trace_events"] = write_chrome_trace(trace_path, snapshots)
        info["trace_file"] = os.path.relpath(trace_path)
    else:
        metrics = end_to_end(run_, setup_s, rss_kb)
        units = END_TO_END_UNITS
    correct = run_.failed == 0
    print(json.dumps(info), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": run_.attempted,
        "failed": run_.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }), flush=True)
    return 0 if correct else 1
