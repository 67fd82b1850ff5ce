"""Run the measuring process and outlast every process it starts.

A run starts a worker process and, through ``multiprocessing``, a
resource-tracker process that outlives the measuring process by a few
milliseconds; a traced run also starts an untraced baseline run with a
worker of its own.  :func:`supervise` starts the measuring process in a
session of its own, becomes the reaper of every orphan in that tree
(``PR_SET_CHILD_SUBREAPER``), forwards its output, and returns only when
no process of the tree is left.  A tree still running past its deadline,
or :data:`GRACE_S` after the measuring process has exited, is killed as a
whole, and so is the tree when this process gets SIGTERM.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time

PR_SET_CHILD_SUBREAPER = 36

#: Seconds the rest of the tree gets to end after the measuring process.
GRACE_S = 5.0


def _become_subreaper() -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _pump(source, sink) -> None:  # type: ignore[no-untyped-def]
    for line in iter(source.readline, b""):
        sink.write(line)
        sink.flush()
    source.close()


def _kill_session(session: int) -> None:
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_orphans(session: int, reaper: bool, deadline: float) -> None:
    """Wait for the orphans re-parented here; kill the session at *deadline*."""
    killed = False
    while reaper:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if not killed and time.monotonic() >= deadline:
            _kill_session(session)
            killed = True
        time.sleep(0.005)


def supervise(command: list, env: dict, timeout_s: float) -> int:
    """Run *command* as described above; return its exit code."""
    reaper = _become_subreaper()
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    pumps = [
        threading.Thread(target=_pump, args=(child.stdout, sys.stdout.buffer)),
        threading.Thread(target=_pump, args=(child.stderr, sys.stderr.buffer)),
    ]
    for pump in pumps:
        pump.start()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    code = 124
    deadline = time.monotonic() + GRACE_S
    try:
        code = child.wait(timeout=timeout_s)
        deadline = time.monotonic() + GRACE_S
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: the measuring process did not end; killed\n")
    finally:
        if child.returncode is None:
            _kill_session(child.pid)
            child.wait()
        # Every process of the tree holds the child's output pipes, unless
        # it was started with pipes of its own; the reaper waits for those.
        for pump in pumps:
            pump.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(pump.is_alive() for pump in pumps):
            _kill_session(child.pid)
            for pump in pumps:
                pump.join(timeout=GRACE_S)
        _reap_orphans(child.pid, reaper, deadline)
    return code
