"""Steadiness, comparison and tracing overhead of the spepi benchmark.

    python3 perfbench/steady.py --runs 10                   # every workload
    python3 perfbench/steady.py --runs 5 --workloads general-analysis
    python3 perfbench/steady.py --runs 10 --save a.json     # keep the figures
    python3 perfbench/steady.py --compare a.json b.json     # medians of two sets
    python3 perfbench/steady.py --overhead                  # tracing cost, seed 1

Each run is ``run.py`` in a fresh process with its own seed (1, 2, ...).
For every end-to-end metric the table gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median
beside the metric's bound in ``BENCHMARK.json``.  A spread above a third of
its bound is marked; ``setup_s`` has no spread limit, only its bound on the
median.  ``--compare`` refuses two sets recorded on different kernel paths.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace=0) -> dict:
    """One ``run.py`` process; its printed result plus the record it saved."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    record_line = [line for line in proc.stderr.splitlines() if line.startswith("record: ")]
    path = record_line[-1][len("record: "):].split(";")[0]
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        out["record"] = json.load(fh)
    return out


def spread_row(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def steadiness(bench, workloads, runs, first_seed, seconds) -> dict:
    sets = {}
    env = None
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            res = run_once(workload, seed, seconds)
            env = env or res["record"]["env"]
            if res["record"]["env"]["kernel_path"] != env["kernel_path"]:
                raise SystemExit("runs in one set used different kernel paths")
            results.append(res)
            print(f"  {workload} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}", file=sys.stderr)
        metrics = {m["name"]: spread_row([r["metrics"][m["name"]]["value"] for r in results])
                   for m in bench["end_to_end"]}
        sets[workload] = {
            "metrics": metrics,
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "correct": all(r["correct"] for r in results),
        }
    return {"env": env, "seconds": seconds, "runs": runs, "first_seed": first_seed,
            "workloads": sets}


def print_table(bench, summary):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    env = summary["env"]
    print(f"kernel path {env['kernel_path']}, python {env['python']}, numpy {env['numpy']}, "
          f"numba {env['numba']}, {env['cores_usable']} cores, BLAS threads "
          f"{env['blas_threads'].get('OPENBLAS_NUM_THREADS')}; {summary['runs']} runs of "
          f"{summary['seconds']} s each")
    for workload, data in summary["workloads"].items():
        print(f"\n{workload}: correct {data['correct']}, attempted {data['attempted']}, "
              f"failed share {sorted(set(data['failed_share']))}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}")
        for name, row in data["metrics"].items():
            bound = bounds[name]
            mark = "" if name == "setup_s" or row["spread"] <= bound / 3 else \
                ("  above bound/3" if row["spread"] <= bound else "  ABOVE BOUND")
            print(f"  {name:<12} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['spread']:8.4f} {bound:6.3f}{mark}")


def compare(bench, a, b) -> int:
    """Median of set b against set a, per metric and workload, in units of the bound."""
    if a["env"]["kernel_path"] != b["env"]["kernel_path"]:
        print(f"refusing to compare: kernel paths differ ({a['env']['kernel_path']} vs "
              f"{b['env']['kernel_path']})", file=sys.stderr)
        return 2
    worse = 0
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for workload in shared:
            ma = a["workloads"][workload]["metrics"][name]["median"]
            mb = b["workloads"][workload]["metrics"][name]["median"]
            change = (mb - ma) / ma if lower else (ma - mb) / ma
            verdict = "worse beyond bound" if change > bound else "within bound"
            worse += change > bound
            print(f"{workload:<18} {name:<12} {ma:12.6g} -> {mb:12.6g} "
                  f"worse by {100 * change:+7.2f}% (bound {100 * bound:.0f}%) {verdict}")
    for workload in shared:
        if a["workloads"][workload]["failed_share"] != b["workloads"][workload]["failed_share"]:
            print(f"{workload}: failed shares differ")
            worse += 1
    return 1 if worse else 0


def overhead(names, seed, seconds):
    """Tracing overhead from traced and untraced rounds alternated in one process.

    The machine's speed drifts by more than the overhead between two runs,
    so the rounds are paired inside one process and the median ratio of
    their operation times is reported.
    """
    from worker import BLAS_VARS
    os.environ.update({var: "1" for var in BLAS_VARS})
    import shutil

    import ops as ops_mod
    import tracing
    import worker
    import workloads

    spepi = worker.import_spepi()
    for name in names:
        workdir = os.path.join(worker.WORK, f"overhead-{name}-{os.getpid()}")
        try:
            ops = ops_mod.prepare(workloads.build_round(name, seed, worker.figure_specs()),
                                  workdir, spepi)
            worker.warm_up(ops, spepi)
            ratios, plains, busy = [], [], 0.0
            while busy < seconds or len(ratios) < 3:
                plain = worker.run_loop(ops, spepi, 0.0)["busy_s"]
                tracer = tracing.Tracer()
                tracer.patch(tracing.PATCHES)
                try:
                    traced = worker.run_loop(ops, spepi, 0.0, tracer)["busy_s"]
                finally:
                    tracer.unpatch()
                ratios.append(traced / plain)
                plains.append(plain)
                busy += plain + traced
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        # the same overhead from counts: wrapped calls a round times the cost of one
        estimate = sum(tracer.calls.values()) * wrapper_cost(tracing) / statistics.median(plains)
        print(f"{name:<18} tracing slows a round by {100 * (med - 1):6.2f}% "
              f"(quartiles {100 * (q1 - 1):.2f}% to {100 * (q3 - 1):.2f}%, "
              f"{len(ratios)} round pairs); from counts {100 * estimate:.3f}% "
              f"({sum(tracer.calls.values())} wrapped calls a round)")


def wrapper_cost(tracing, calls=100_000) -> float:
    """Seconds a span wrapper adds to one call."""
    import time

    def noop():
        return None

    traced = tracing.Tracer().wrap("bench.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - start - bare) / calls


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--save", help="write the set's figures to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return compare(bench, *sets)
    if args.overhead:
        overhead(workloads, args.first_seed, args.seconds)
        return 0
    summary = steadiness(bench, workloads, args.runs, args.first_seed, args.seconds)
    print_table(bench, summary)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
