"""Quick tests of the benchmark itself: workloads, checks, tracing, command.

Each workload runs a few of its operations with every check; each check
is then fed one corrupted output and must reject it.  Run with

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import oracle  # noqa: E402
import ops as ops_mod  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
# a few cheap operations of each round, by label
QUICK = {
    "deep-trajectory": ["deep-00"],  # exponential, n = 3, the cheapest stratum
    "param-sweep": ["sweep-00"],  # exponential beta sweep
    "general-analysis": list(workloads.FIGURES) + ["super-00", "concave-00", "convex-00"],
}


@pytest.fixture(scope="module")
def spepi():
    return worker.import_spepi()


@pytest.fixture(scope="module")
def quick_runs(spepi, tmp_path_factory):
    """Each workload's quick operations, run once with all checks."""
    runs = {}
    for workload, picks in QUICK.items():
        descs = workloads.build_round(workload, SEED, worker.figure_specs())
        chosen = [d for d in descs if d["spec"]["label"] in picks]
        assert len(chosen) == len(picks)
        ops = ops_mod.prepare(chosen, str(tmp_path_factory.mktemp(workload)), spepi)
        outputs = [op.run(spepi) for op in ops]
        runs[workload] = list(zip(ops, outputs))
    return runs


@pytest.mark.parametrize("workload", sorted(QUICK))
def test_quick_operations_pass_their_checks(quick_runs, workload):
    for op, output in quick_runs[workload]:
        assert op.check(output) > 0, op.label


def test_round_is_a_function_of_the_seed():
    figs = worker.figure_specs()
    for workload in workloads.WORKLOADS:
        a = workloads.build_round(workload, 3, figs)
        assert a == workloads.build_round(workload, 3, figs)
        assert a != workloads.build_round(workload, 4, figs)


def test_run_loop_counts_whole_rounds(quick_runs, spepi):
    ops = [op for op, _ in quick_runs["general-analysis"][:2]]
    loop = worker.run_loop(ops, spepi, seconds=0.0)
    assert (loop["attempted"], loop["failed"], loop["rounds"]) == (2, 0, 1)
    assert not loop["wrong"] and loop["rows"] > 0
    assert len(loop["speed_factors"]) == 1 and loop["speed_factors"][0] > 0


def test_times_are_divided_by_the_speed_factor(quick_runs, spepi):
    ops = [op for op, _ in quick_runs["general-analysis"][:3]]
    loop = worker.run_loop(ops, spepi, seconds=0.0)
    wall = worker.end_to_end(loop, [1.0])
    slow = worker.end_to_end(loop, [2.0])
    for name in ("op_s_p50", "op_s_p90"):
        assert slow[name] == pytest.approx(wall[name] / 2.0)
    for name in ("ops_per_s", "rows_per_s"):
        assert slow[name] == pytest.approx(wall[name] * 2.0)


def _rewrite(src, dst, edit):
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))


def _reject(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


def _nudge_field(line, index, factor):
    fields = line.rstrip("\n").split(",")
    fields[index] = repr(float(fields[index]) * factor)
    return ",".join(fields) + "\n"


def test_trajectory_check_rejects_corruption(quick_runs, tmp_path):
    op, _ = quick_runs["deep-trajectory"][0]
    bad = str(tmp_path / "bad.csv")
    n = len(op.spec["gamma"])
    edits = {
        "S nudged, conservation broken": lambda ls: ls[:5] + [_nudge_field(ls[5], 1, 1.0 + 1e-6)]
        + ls[6:],
        "stop reason": lambda ls: [line.replace("converged", "max-steps") for line in ls],
        "Z not the stage sum": lambda ls: ls[:9] + [_nudge_field(ls[9], 3 + n, 1.001)]
        + ls[10:],
        "tail cut short": lambda ls: ls[:len(ls) // 2] + ls[-3:],
        "row 0 not the initial state": lambda ls: ls[:1] + [_nudge_field(ls[1], 1, 1 - 1e-12)]
        + ls[2:],
    }
    for name, edit in edits.items():
        _rewrite(op.out_path, bad, edit)
        with pytest.raises(checks.CheckError):
            checks.check_trajectory_csv(bad, op.spec)
            pytest.fail(f"accepted: {name}")


def test_trajectory_check_rejects_wrong_final_size(quick_runs):
    op, _ = quick_runs["deep-trajectory"][0]
    spec = dict(op.spec, inc=dict(op.spec["inc"]))
    spec["inc"]["beta"] = [b * 1.01 for b in spec["inc"]["beta"]]  # another model's root
    assert spec["inc"]["family"] == "exponential"
    with pytest.raises(checks.CheckError, match="final-size root|tail sum"):
        checks.check_trajectory_csv(op.out_path, spec)


def test_sweep_check_rejects_corruption(quick_runs, tmp_path):
    op, _ = quick_runs["param-sweep"][0]
    bad = str(tmp_path / "bad.csv")
    args = (op.spec, op.desc["param"], op.desc["grid"])
    edits = {
        "missing row": lambda ls: ls[:3] + ls[4:],
        "wrong R0": lambda ls: ls[:2] + [_nudge_field(ls[2], 1, 1.0 + 1e-9)] + ls[3:],
        "wrong S_inf": lambda ls: ls[:-1] + [_nudge_field(ls[-1], 2, 1.0 + 1e-6)],
        "wrong value": lambda ls: ls[:2] + [_nudge_field(ls[2], 0, 1.5)] + ls[3:],
    }
    for name, edit in edits.items():
        _rewrite(op.out_path, bad, edit)
        with pytest.raises(checks.CheckError):
            checks.check_sweep_csv(bad, *args)
            pytest.fail(f"accepted: {name}")


def _edit_report(text, key, new):
    return "\n".join(f"{key} = {new}" if line.startswith(f"{key} = ") else line
                     for line in text.splitlines())


def test_report_check_rejects_corruption(quick_runs):
    for op, text in quick_runs["general-analysis"]:
        if op.desc["kind"] != "analyze":
            continue
        rep = checks.parse_report(text)
        for key, factor in (("R0", 1.0 + 1e-9), ("r0_spectral_nrv", 1.0 + 1e-9),
                            ("perron_rho", 1.0 + 1e-6)):
            bad = _edit_report(text, key, repr(float(rep[key]) * factor))
            _reject(checks.check_report, bad, op.spec)
        _reject(checks.check_report, _edit_report(text, "tail_sum_max_rel_error", "1e-7"),
                op.spec)
        _reject(checks.check_report, _edit_report(text, "stop_reason", "max-steps"), op.spec)
        for key in ("upper_bound", "lower_bound"):
            if not rep[key].startswith("n/a"):
                outside = float(rep["S_inf_simulated"]) * (0.5 if key == "upper_bound" else 2.0)
                _reject(checks.check_report, _edit_report(text, key, repr(outside)), op.spec)


def test_library_check_rejects_corruption(quick_runs):
    lib = [(op, out) for op, out in quick_runs["general-analysis"]
           if op.desc["kind"] == "library"]
    assert {op.spec["inc"]["family"] for op, _ in lib} == {"custom-concave", "custom-convex"}
    for op, out in lib:
        concave = op.spec["inc"]["family"] == "custom-concave"
        reg = dict(out["regularity"], concave_ok=not concave, passed=not concave)
        _reject(checks.check_library, dict(out, regularity=reg), op.spec)
        _reject(checks.check_library, dict(out, rho=out["rho"] * (1.0 + 1e-6)), op.spec)
        _reject(checks.check_library, dict(out, R0=out["R0"] * (1.0 + 1e-9)), op.spec)
        _reject(checks.check_library, dict(out, tail_sum_max=1e-7), op.spec)
        S = out["S"].copy()
        S[len(S) // 2] *= 1.0 + 1e-6
        _reject(checks.check_library, dict(out, S=S), op.spec)


def test_final_size_root_solves_its_equation():
    spec = worker.figure_specs()["fig3-top-left"]
    x = oracle.final_size_root(spec)
    beta, gamma = np.array(spec["inc"]["beta"]), np.array(spec["gamma"])
    C = float(((beta / gamma) * (spec["S"] + np.cumsum(spec["I"]))).sum())
    assert abs(np.log(spec["S"] / x) - C + float((beta / gamma).sum()) * x) < 1e-12


def test_traced_loop_reports_layers_and_restores_functions(quick_runs, spepi):
    import spepi.cli
    import spepi.incidence

    originals = (spepi.cli.main, spepi.cli.simulate, spepi.incidence.IncidenceModel.phi)
    ops = [op for op, _ in quick_runs["general-analysis"]]
    tracer = tracing.Tracer()
    tracer.patch(tracing.PATCHES)
    try:
        loop = worker.run_loop(ops, spepi, seconds=0.0, tracer=tracer)
    finally:
        tracer.unpatch()
    assert (spepi.cli.main, spepi.cli.simulate, spepi.incidence.IncidenceModel.phi) == originals
    assert loop["failed"] == 0 and not loop["wrong"]
    layer = tracing.per_layer_metrics(tracer, loop["attempted"])
    assert set(layer) == {name for name, _, _ in tracing.PER_LAYER}
    for name in ("spectral.perron_s", "spectral.nrv_s", "incidence.phi_calls",
                 "incidence.regularity_points", "model.generic_s", "cli.self_s",
                 "asymptotics.final_size_equation_s", "prevalence.classify_shape_s"):
        assert layer[name]["value"] > 0.0, name
    assert layer["cli.csv_rows"]["value"] == 0.0
    # spans nest: every parent id refers to a recorded span
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] is None or span[1] in ids for span in tracer.spans)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("b.inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("a.outer", lambda: inner())
    outer()
    assert tracer.self_time["a.outer"] < 0.01 < tracer.total["a.outer"]
    assert tracer.layer_outer["b"] == tracer.total["b.inner"]


def _run_command(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_command_prints_the_result_line():
    proc = _run_command(ROOT, "--workload", "general-analysis", "--seed", "1",
                        "--seconds", "0", "--trace", "0", "--round-ops", "2")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] == 2 and out["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(out["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run_command(tmp_path, "--workload", "param-sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_different_kernel_paths(capsys):
    import steady

    bench = steady.load_benchmark()
    row = {"median": 1.0}
    sets = [{"env": {"kernel_path": path},
             "workloads": {"param-sweep": {"failed_share": [0.0],
                                           "metrics": {m["name"]: row
                                                       for m in bench["end_to_end"]}}}}
            for path in ("python", "numba")]
    assert steady.compare(bench, *sets) == 2
    assert "refusing" in capsys.readouterr().err
    assert steady.compare(bench, sets[0], sets[0]) == 0
