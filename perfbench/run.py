"""End-to-end benchmark of the SCOOPP runtime on a real worker process.

Usage::

    python3 perfbench/run.py --workload rpc_tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --small          # all workloads, tiny sizes

Every workload boots ``ParcConfig(nodes=1, channel="tcp",
worker_processes=1)``: the main process (one node plus the load-generating
thread) and one worker process, over tcp, with a static ``GrainPolicy`` and
telemetry off.  See ``perfbench/README.md`` for the workloads, metrics and
predictions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it describes the host and the run.  The exit code is 0 only
when every check passed.

The command measures in a child interpreter of its own session and returns
only when every process that child started has ended (see
:mod:`perfbench.supervise`).
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Set in the measuring child's environment (and so inherited by the
#: untraced baseline a traced run starts), which then runs unsupervised.
CHILD_ENV = "PERFBENCH_CHILD"

WORKLOADS = ("rpc_tcp", "prime_stream", "raytrace_farm")

#: Problem sizes.  ``small`` is the benchmark's own self-test.
SIZES = {
    "full": {
        "setups": 7,
        "traced_setups": 2,
        "rpc_warmup": 300,
        "rpc_batch": 500,
        "prime_round": 8192,
        "prime_limit": 1 << 14,
        "frame": 160,
        "grid": 2,
        "probe_calls": 20,
        "post_probe": 4096,
        "ref_loops": 5,
    },
    "small": {
        "setups": 2,
        "traced_setups": 1,
        "rpc_warmup": 20,
        "rpc_batch": 50,
        "prime_round": 512,
        "prime_limit": 1 << 10,
        "frame": 24,
        "grid": 2,
        "probe_calls": 5,
        "post_probe": 256,
        "ref_loops": 2,
    },
}

#: Aggregation bound per workload (``GrainPolicy.max_calls``).  Sync calls
#: bypass the PO buffer, so rpc_tcp's value only shapes its traced post
#: probe; the farm's chunks take milliseconds each and are sent singly.
MAX_CALLS = {"rpc_tcp": 64, "prime_stream": 64, "raytrace_farm": 1}


def watchdog_s(seconds: float) -> float:
    """Seconds after which a hung run dumps its stacks and fails.

    A traced run measures for 1.5 × *seconds* plus boots; 170 s keeps a
    run of up to 30 s inside a 180 s budget.
    """
    return max(170.0, 3.0 * seconds + 60.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sync_call_p50_us": "us",
    "stream_calls_per_s": "1/s",
    "frame_s": "s",
}

PER_LAYER_UNITS = {
    "cluster.init_s": "s",
    "cluster.worker_boot_s": "s",
    "runtime.create_ms": "ms",
    "runtime.release_ms": "ms",
    "po.post_us": "us",
    "po.barrier_ms": "ms",
    "po.calls_per_message": "count",
    "po.call_self_us": "us",
    "codec.encode_us": "us",
    "codec.decode_us": "us",
    "codec.request_bytes_per_call": "B",
    "codec.reply_bytes_per_call": "B",
    "tcp.round_trip_us": "us",
    "tcp.transport_us": "us",
    "tcp.frames_per_call": "count",
    "remoting.handler_self_us": "us",
    "impl.invoke_us": "us",
    "impl.enqueue_us": "us",
    "impl.mailbox_wait_us": "us",
    "impl.calls_per_batch": "count",
    "apps.execute_us": "us",
    "apps.seq_frame_s": "s",
    "host.ref_loop_ms": "ms",
    "trace.overhead_pct": "%",
}

#: The end-to-end metric each workload's trace overhead is judged on,
#: and whether higher is better for it.
PRIMARY = {
    "rpc_tcp": ("sync_call_p50_us", False),
    "prime_stream": ("stream_calls_per_s", True),
    "raytrace_farm": ("frame_s", False),
}


def parse_args(argv):  # type: ignore[no-untyped-def]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument(
        "--small", action="store_true",
        help="run every workload at the small size, traced and untraced, "
        "and check the output schema",
    )
    args = parser.parse_args(argv)
    if not args.small and args.workload is None:
        parser.error("--workload is required (or pass --small)")
    return args


def main(argv=None) -> int:  # type: ignore[no-untyped-def]
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not args.small and os.environ.get(CHILD_ENV) != "1":
        from perfbench.supervise import supervise

        env = dict(os.environ)
        env[CHILD_ENV] = "1"
        command = [sys.executable, os.path.abspath(__file__), *argv]
        return supervise(command, env, watchdog_s(args.seconds) + 5.0)
    if args.small:
        from perfbench.selftest import run_small

        return run_small(__file__)
    if args.trace:
        # Read by perfbench.boot in this process and, through the
        # inherited environment, in the worker.
        os.environ["PERFBENCH_TRACE"] = "1"
    else:
        os.environ.pop("PERFBENCH_TRACE", None)
    from perfbench.bench import run

    return run(args, __file__)


if __name__ == "__main__":
    sys.exit(main())
