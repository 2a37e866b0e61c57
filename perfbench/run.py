"""Run one workload of the spepi benchmark and print its metrics.

    python3 perfbench/run.py --workload deep-trajectory --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the benchmark imports ``spepi`` from its
``src`` directory.  Workloads: deep-trajectory, param-sweep,
general-analysis.

With ``--trace 0`` the run starts fresh worker processes one after another:
one that sets up and runs the timed loop, and ``SETUP_SAMPLES - 1`` that
only set up, half before it and half after.  It prints the end-to-end
metrics; ``setup_s`` is the median set-up time of all of them.  With
``--trace 1`` one worker runs the timed loop with spans at every layer and
the run prints the per-layer metrics; the spans are written under
``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run's full
record, with its environment, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import BLAS_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0  # every run ends within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def launch(args, deadline, *extra) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), *extra]
    timeout = deadline - t0
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    extra = ("--round-ops", str(args.round_ops)) if args.round_ops else ()
    # set-up probes go before and after the timed worker, so the median
    # spans the run rather than one moment of a machine whose speed drifts
    probes = 0 if args.trace or args.round_ops else SETUP_SAMPLES - 1
    setups = [launch(args, deadline, "--setup-only", *extra)["setup_s"]
              for _ in range(probes // 2)]
    result = launch(args, deadline, *extra)
    setups.append(result["setup_s"])
    setups += [launch(args, deadline, "--setup-only", *extra)["setup_s"]
               for _ in range(probes - probes // 2)]
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def summary(result, trace) -> dict:
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def save(args, result) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"run-{args.workload}-s{args.seed}-t{args.trace}-"
                                 f"{stamp}-{os.getpid()}.json")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="deep-trajectory, param-sweep or general-analysis")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall time of operations to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--round-ops", type=int, default=0,
                   help="quick mode: only the first K operations of each round, "
                        "and no separate set-up probes")
    args = p.parse_args(argv)
    try:
        result = measure(args)
    except (WorkerError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = save(args, result)
    for line in result["errors"] + result["wrong"]:
        print(line, file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}; kernel path {result['env']['kernel_path']}",
          file=sys.stderr)
    print(json.dumps(summary(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
