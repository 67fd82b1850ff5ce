"""Small-size mode: every workload in seconds, with its output checked.

``python3 perfbench/run.py --small`` runs each workload at the ``small``
size, untraced and traced, each in a fresh interpreter, and checks that

* the run exits 0 and its last line has exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) metrics of ``BENCHMARK.json``, each a finite number with the
  declared unit;
* every operation passed its correctness check;
* on ``rpc_tcp`` the per-call stage self times add up to the traced mean
  sync call time.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from perfbench.run import WORKLOADS


def check_run(script: str, spec: dict, workload: str, trace: int) -> list[str]:
    """Run one small workload; return the problems found."""
    command = [
        sys.executable, script, "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "small",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-1500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(result["metrics"]) != set(units):
        problems.append(
            f"{label}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(units))}"
        )
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
        if metric.get("unit") != units.get(name):
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}")
    for key in ("nproc", "cpu_model", "python", "host.ref_loop_ms"):
        if key not in info:
            problems.append(f"{label}: run info lacks {key}")
    if trace and workload == "rpc_tcp":
        path = info["blocking_path"]
        total, mean = path["stage_sum_us"], path["traced_call_mean_us"]
        if abs(total - mean) > 0.02 * mean:
            problems.append(
                f"{label}: stage self times sum to {total:.1f} us, "
                f"traced calls average {mean:.1f} us"
            )
    return problems


def run_small(script: str) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(script)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(script, spec, workload, trace)
            problems += found
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0
