"""One benchmark process: set up a workload, time its operations, check them.

Started by ``run.py`` in a fresh interpreter, with BLAS limited to one
thread.  ``--t0`` is the parent's ``time.monotonic()`` just before the
process was started, so set-up runs from process start until the
operations are ready: importing ``spepi``, generating the round from the
seed and writing its scenario files.  With ``--setup-only`` the process
stops there, after the calibration runs that give set-up's speed factor.

The timed loop is a closed loop with one client: operations run one after
another in this process, in whole rounds, until the operations have taken
``--seconds`` of wall time.  Each output is checked after its operation,
outside the timed interval, and a fixed calibration loop is timed beside
it.  The result is printed as one JSON line.

The host's speed drifts by up to a factor of two over minutes, and every
kind of work here slows together.  So the times are reported in reference
seconds: divided by the machine's speed factor at that moment, the
calibration loop's time over ``REF_S``.  The calibration loop is the
benchmark's own code, so a change to ``spepi`` moves reference times in
the same proportion as wall times.  The wall figures go to the record.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")
# a p90 needs ten samples beyond it
MIN_OPS = 100
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# seconds the calibration loop takes at speed factor 1: the reference second's unit
REF_S = 0.003
# calibration loops timed after set-up; their median gives set-up's speed factor
SETUP_CALIBRATIONS = 21
_REF_MATRIX = np.random.default_rng(0).random((12, 12))


def calibration_loop():
    """Fixed work of the two kinds spepi does: float updates and text, then mat-vecs."""
    x = [0.1 * j + 0.5 for j in range(8)]
    lines = []
    for _ in range(240):
        for j in range(8):
            x[j] = x[j] * 0.999 + 1e-4 * j
        lines.append(",".join(f"{v:.17g}" for v in x))
    v = np.ones(12)
    for _ in range(120):
        v = _REF_MATRIX @ v
        v /= np.linalg.norm(v)
    return len(lines), v


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def import_spepi():
    """Import ``spepi`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import spepi
    import spepi.cli  # noqa: F401  (the CLI is what most operations call)

    if not os.path.abspath(spepi.__file__).startswith(SRC + os.sep):
        raise ImportError(f"spepi was imported from {spepi.__file__}, not from {SRC}")
    return spepi


def environment(spepi) -> dict:
    """What a result depends on besides the code: versions, kernel path, cores, BLAS."""
    import numpy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "kernel_path": "numba" if spepi._kernels.using_numba else "python",
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def figure_specs() -> dict:
    import oracle

    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "spepi", "scenarios", "*.ini"))):
        with open(path, encoding="utf-8") as fh:
            spec = oracle.spec_from_ini(fh.read())
        out[spec["label"]] = spec
    return out


def warm_up(ops, spepi):
    """One untimed operation, so lazy imports and file caches settle first."""
    try:
        ops[0].check(ops[0].run(spepi))
    except Exception:  # the timed loop meets the same fault and records it
        pass


def run_loop(ops, spepi, seconds, tracer=None, min_ops=0):
    """Run whole rounds of ``ops``; check each output and time the calibration loop.

    Rounds repeat until the operations have taken ``seconds`` and at least
    ``min_ops`` of them have run.
    """
    clock = time.perf_counter
    run = (lambda op: op.run(spepi)) if tracer is None else \
        tracer.wrap("bench.op", lambda op: op.run(spepi))
    errors, wrong, round_durations, round_times, round_rows, round_refs = [], [], [], [], [], []
    attempted = failed = 0
    busy = 0.0
    while busy < seconds or attempted < min_ops or not round_times:
        round_busy, rows, durations, ref = 0.0, 0, [], 0.0
        for op in ops:
            attempted += 1
            start = clock()
            try:
                output = run(op)
            except Exception:  # the program failed: count it, keep the loop going
                round_busy += clock() - start
                failed += 1
                errors.append(f"{op.label}: {traceback.format_exc(limit=3).strip()}")
                ref += time_calibration()
                continue
            elapsed = clock() - start
            round_busy += elapsed
            durations.append(elapsed)
            try:
                rows += op.check(output)
            except Exception as exc:  # any fault in reading the output is a wrong output
                wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
            ref += time_calibration()
        busy += round_busy
        round_durations.append(durations)
        round_times.append(round_busy)
        round_rows.append(rows)
        round_refs.append(ref / len(ops))
    return {"round_durations": round_durations, "errors": errors, "wrong": wrong,
            "attempted": attempted, "failed": failed, "rows": sum(round_rows),
            "rounds": len(round_times), "busy_s": busy, "round_times": round_times,
            "round_rows": round_rows, "speed_factors": [r / REF_S for r in round_refs]}


def end_to_end(loop, speeds) -> dict:
    """Metrics with each round's times divided by its speed factor in ``speeds``.

    Throughputs are medians over rounds, so a burst of machine noise moves
    one round only.
    """
    d = [t / k for ts, k in zip(loop["round_durations"], speeds) for t in ts]
    per_round = len(d) // loop["rounds"]
    # a quick run may time a single operation
    p90 = statistics.quantiles(d, n=10, method="inclusive")[8] if len(d) > 1 else d[0]
    times = [t / k for t, k in zip(loop["round_times"], speeds)]
    return {
        "ops_per_s": statistics.median(per_round / t for t in times),
        "op_s_p50": statistics.median(d),
        "op_s_p90": p90,
        "rows_per_s": statistics.median(r / t for r, t in zip(loop["round_rows"], times)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="parent's time.monotonic() when it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--round-ops", type=int, default=0,
                   help="use only the first K operations of the round (0: all)")
    args = p.parse_args(argv)

    spepi = import_spepi()
    import ops as ops_mod
    import workloads

    descs = workloads.build_round(args.workload, args.seed, figure_specs())
    if args.round_ops:
        descs = descs[:args.round_ops]
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        ops = ops_mod.prepare(descs, workdir, spepi)
        setup_wall_s = time.monotonic() - args.t0
        setup_speed = statistics.median(time_calibration()
                                        for _ in range(SETUP_CALIBRATIONS)) / REF_S
        result = {"setup_s": setup_wall_s / setup_speed, "setup_wall_s": setup_wall_s,
                  "setup_speed_factor": setup_speed, "env": environment(spepi)}
        if not args.setup_only:
            warm_up(ops, spepi)
            tracer = None
            if args.trace:
                import tracing
                tracer = tracing.Tracer()
                tracer.patch(tracing.PATCHES)
            try:
                loop = run_loop(ops, spepi, args.seconds, tracer,
                                min_ops=0 if args.round_ops else MIN_OPS)
            finally:
                if tracer is not None:
                    tracer.unpatch()
            result.update(end_to_end(loop, loop["speed_factors"]))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["wall"] = end_to_end(loop, [1.0] * loop["rounds"])
            result.update({k: loop[k] for k in ("attempted", "failed", "rows", "rounds",
                                                "busy_s", "round_times", "speed_factors")})
            result["round_ops"] = len(ops)
            result["errors"] = loop["errors"][:5]
            result["wrong"] = loop["wrong"][:5]
            result["correct"] = not loop["wrong"]
            if tracer is not None:
                result["per_layer"] = tracing.per_layer_metrics(tracer, loop["attempted"])
                result["trace_file"] = write_trace(tracer, args, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def write_trace(tracer, args, result) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{args.workload}-s{args.seed}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "env": result["env"],
            "attempted": result["attempted"], "ops_per_s_traced": result["ops_per_s"],
            "per_layer": result["per_layer"], "spans_by_name": tracer.summary(),
            "counts": dict(tracer.counts),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": tracer.spans,
        }, fh)
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
