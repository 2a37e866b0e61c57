"""End-to-end CLI behaviour: CSV contracts, reports, sweeps, exit codes."""

from __future__ import annotations

import dataclasses
from importlib import resources

import numpy as np
import pytest

from spepi import (
    ExponentialIncidence,
    RegularityReport,
    StageParams,
    StoppingRule,
    cli,
    simulate,
    simulate_summary,
)
from spepi import scenario as scenario_module
from spepi.cli import _figure_verdict, main
from spepi.model import Trajectory
from spepi.scenario import FIGURE_SCENARIO_NAMES

from conftest import corrupt_one_row


def _read_csv(path):
    header = None
    rows = []
    comments = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, comments


def test_simulate_fig2_left_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--scenario", "fig2-left", "--out", str(out)]) == 0
    header, rows, comments = _read_csv(out)
    assert header == ["t", "S", "I1", "I2", "I3", "R", "Z", "phi"]
    Z = np.array([float(r[6]) for r in rows])
    assert np.any(np.diff(Z) > 0.0)  # non-monotone prevalence
    assert any("S_inf_estimate" in c for c in comments)
    assert any("stop_reason = converged" in c for c in comments)
    # 17-significant-digit output reparses to the exact double
    S0 = float(rows[0][1])
    assert S0 == 0.99


def test_simulate_zero_seed_two_row_csv(tmp_path):
    scenario = tmp_path / "flat.ini"
    scenario.write_text("""
[params]
gamma = 0.5
N = 1.0
[incidence]
family = exponential
beta = 0.4
[initial]
S = 1.0
I = 0.0
R = 0.0
""", encoding="utf-8")
    out = tmp_path / "flat.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    header, rows, _ = _read_csv(out)
    assert len(rows) == 1  # header plus the single converged t=0 row
    assert rows[0][0] == "0"


def test_simulate_fig3_top_left_fall_before_rise(tmp_path):
    out = tmp_path / "ftl.csv"
    assert main(["simulate", "--scenario", "fig3-top-left", "--out", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    Z = np.array([float(r[6]) for r in rows])
    d = np.diff(Z)
    first_fall = np.nonzero(d < 0)[0][0]
    first_rise = np.nonzero(d > 0)[0][0]
    assert first_fall < first_rise


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", "fig2-right", "--out", str(a)]) == 0
    assert main(["simulate", "--scenario", "fig2-right", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trajectory_csv_matches_per_value_formatting(tmp_path):
    # the writer formats blocks of rows in numpy (spepi._format), subnormals
    # through the "%.17g" fallback; over several blocks and values from
    # subnormal to 1/3 it must give the bytes of f"{x:.17g}"
    values = [5e-324, 1e-240, 0.1, 1 / 3, 0.0, 1.0, 2.2250738585072014e-308, 0.99]
    rows, n = 2500, 2
    draw = np.random.default_rng(3).choice(values, size=(rows, n + 4))
    traj = Trajectory(
        params=StageParams(gamma=[0.5, 0.5], N=1.0),
        incidence=ExponentialIncidence([0.2, 0.2], N=1.0),
        S=draw[:, 0], I=draw[:, 1:3], R=draw[:, 3], phi=draw[:, 4], Z=draw[:, 5],
        stop_reason="converged", eps_z=1e-12, eps_s=1e-14, max_steps=10**6,
    )
    out = tmp_path / "traj.csv"
    cli._write_trajectory_csv(traj, out)
    lines = ["t,S,I1,I2,R,Z,phi"]
    for t in range(rows):
        cells = [traj.S[t], *traj.I[t], traj.R[t], traj.Z[t], traj.phi[t]]
        lines.append(",".join([str(t)] + [f"{x:.17g}" for x in cells]))
    lines += [f"# S_inf_estimate = {traj.S[-1]:.17g}", "# stop_reason = converged",
              f"# steps = {rows - 1}"]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def _analyze_dict(capsys, *args):
    assert main(["analyze", *args]) == 0
    out = capsys.readouterr().out
    entries = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def test_analyze_fig2_left_report(tmp_path, capsys):
    rep = _analyze_dict(capsys, "--scenario", "fig2-left")
    assert float(rep["R0"]) == pytest.approx(0.952381, abs=5e-7)
    assert float(rep["delta"]) == pytest.approx(float(rep["R0"]), rel=1e-12)  # N = 1
    assert float(rep["r0_spectral_nrv"]) == pytest.approx(float(rep["R0"]), rel=1e-10)
    assert rep["upper_bound"].startswith("n/a")
    assert float(rep["lower_bound"]) == pytest.approx(0.825, rel=1e-12)
    assert rep["prevalence_shape"] != "monotone-decreasing"
    assert rep["initial_rise_observed"] == "True"
    assert rep["rise_predicted"] == "True"
    assert float(rep["S_inf_equation"]) == pytest.approx(float(rep["S_inf_simulated"]),
                                                         abs=1e-8)
    assert float(rep["tail_sum_max_rel_error"]) <= 1e-7
    assert float(rep["limit_direction_error"]) <= 1e-5
    assert rep["monotonicity_persistent"] == "True"


def test_analyze_fig3_top_left_report(capsys):
    rep = _analyze_dict(capsys, "--scenario", "fig3-top-left")
    assert float(rep["R0"]) == pytest.approx(1.555556, abs=5e-7)
    assert float(rep["upper_bound"]) == pytest.approx(0.642857, abs=5e-7)
    assert rep["lower_bound"].startswith("n/a")
    assert rep["initial_rise_observed"] == "False"


def test_analyze_lastclass_scenario(tmp_path, capsys):
    scenario = tmp_path / "seir.ini"
    scenario.write_text("""
[params]
gamma = 0.4, 0.5
N = 1.0
[incidence]
family = last-class-exponential
n = 2
beta = 1.5
[initial]
S = 0.999
I = 0.0, 0.001
R = 0.0
""", encoding="utf-8")
    rep = _analyze_dict(capsys, "--scenario", str(scenario))
    assert float(rep["R0"]) == pytest.approx(3.0, rel=1e-12)
    assert rep["ratio_condition_holds"] == "True"
    assert rep["lastclass_rise_predicted"] == "True"
    assert int(rep["threshold_decay_from"]) > 0
    assert rep["threshold_decay_verified"] == "True"
    assert rep["rise_predicted"].startswith("n/a")
    assert float(rep["S_inf_equation"]) == pytest.approx(float(rep["S_inf_simulated"]),
                                                         abs=1e-8)


def test_analyze_no_infected_names_the_initial_condition(tmp_path, capsys):
    # the solver covers this family; it is the start that it rejects
    scenario = tmp_path / "no-infected.ini"
    scenario.write_text("""
[params]
gamma = 0.6, 0.7, 0.3
N = 1.0
[incidence]
family = exponential
beta = 0.2, 0.2, 0.1
[initial]
S = 1.0
I = 0.0, 0.0, 0.0
R = 0.0
""", encoding="utf-8")
    rep = _analyze_dict(capsys, "--scenario", str(scenario))
    assert rep["S_inf_equation"] == "n/a (initial state must have S(0) > 0 and I(0) != 0)"


def test_analyze_threshold_sir(tmp_path, capsys):
    scenario = tmp_path / "thr.ini"
    scenario.write_text("""
[params]
gamma = 0.4
N = 1.0
[incidence]
family = exponential
beta = 0.4
[initial]
S = 0.99
I = 0.01
R = 0.0
""", encoding="utf-8")
    rep = _analyze_dict(capsys, "--scenario", str(scenario))
    assert float(rep["R0"]) == pytest.approx(1.0, rel=1e-12)
    assert rep["upper_bound"].startswith("n/a")
    assert rep["lower_bound"].startswith("n/a")


def test_analyze_near_cyclic_scenario(tmp_path, capsys):
    # ten stages at gamma = 0.9999 leave B(S_inf) almost cyclic: its spectral
    # gap nearly vanishes, yet the Perron root must still match eigvals
    scenario = tmp_path / "near-cyclic.ini"
    scenario.write_text(f"""
[params]
gamma = {", ".join(["0.9999"] * 10)}
N = 1.0
[incidence]
family = last-class-linear
n = 10
beta = 1.0
[initial]
S = 0.99
I = {", ".join(["0.0"] * 9)}, 0.01
R = 0.0
""", encoding="utf-8")
    rep = _analyze_dict(capsys, "--scenario", str(scenario))
    B = (np.diag(np.full(10, 1.0 - 0.9999)) + np.diag(np.full(9, 0.9999), -1))
    B[0, -1] += float(rep["S_inf_simulated"])
    rho = np.max(np.abs(np.linalg.eigvals(B)))
    assert float(rep["perron_rho"]) == pytest.approx(rho, rel=1e-13)


def test_sweep_beta3_monotone_r0(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--scenario", "fig2-left", "--out", str(out),
        "--param", "incidence.beta[2]", "--grid", "0.05:0.5:10",
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value,R0,S_inf,peak_Z,peak_time,onset_t0"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    values = [float(r[0]) for r in rows]
    r0s = [float(r[1]) for r in rows]
    assert values == sorted(values)
    assert all(b > a for a, b in zip(r0s, r0s[1:]))  # strictly increasing in beta_3


def test_sweep_lambda_proportional_r0(tmp_path):
    scenario = tmp_path / "pois.ini"
    scenario.write_text("""
[params]
gamma = 0.5, 0.6
N = 1.0
[incidence]
family = poisson-composed
lambda = 1.0
pi_family = exponential
pi_beta = 0.2, 0.3
[initial]
S = 0.99
I = 0.005, 0.005
R = 0.0
""", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--scenario", str(scenario), "--out", str(out),
        "--param", "incidence.lambda", "--grid", "1,2,4",
    ]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    r0s = [float(r[1]) for r in rows]
    assert r0s[1] == pytest.approx(2 * r0s[0], rel=1e-12)
    assert r0s[2] == pytest.approx(4 * r0s[0], rel=1e-12)


def test_sweep_rejects_bad_grid_and_path(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(out),
                 "--param", "incidence.beta[2]", "--grid", ""]) == 1
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(out),
                 "--param", "nothing.here", "--grid", "1,2"]) == 1
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(out),
                 "--param", "scenario.label", "--grid", "1,2"]) == 1
    assert "scenario.label is not numeric" in capsys.readouterr().err
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(out),
                 "--param", "stopping.max_steps", "--grid", "100,200.5"]) == 1
    assert "max_steps takes integers, got 200.5" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("1,abc", "--grid: cannot parse number from 'abc'"),
    ("1:abc:3", "--grid: cannot parse number from 'abc'"),
    ("1:2:3.5", "--grid: cannot parse integer from '3.5'"),
    ("0:1", "grid '0:1': expected lo:hi:count"),
    ("0:1:0", "grid count must be at least 1"),
])
def test_sweep_grid_errors_name_the_grid_and_token(tmp_path, capsys, grid, message):
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(tmp_path / "x.csv"),
                 "--param", "incidence.beta[2]", "--grid", grid]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key, grid", [("max_steps", "100,200"), ("eps_z", "1e-3,1e-10"),
                                       ("eps_s", "1e-3,1e-10")])
def test_sweep_rejects_a_flag_for_the_swept_entry(tmp_path, capsys, key, grid):
    # --eps-z 1e-5 used to overwrite the swept eps_z at every grid point, so
    # each row was the same run
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(out), "--eps-s", "1",
                 "--param", f"stopping.{key}", "--grid", grid, flag, "50"]) == 1
    assert capsys.readouterr().err == (
        f"error: --param stopping.{key} and {flag} both set stopping.{key}; give one\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-steps", "0", "max_steps must be at least 1"),
    ("--eps-z", "nan", "eps_z must be nonnegative, got nan"),
])
@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
def test_stopping_flags_are_checked_as_stopping_entries(tmp_path, capsys, command, flag, value,
                                                        message):
    # these used to read "error: max_steps must be at least 1", with no
    # section, and "error: tolerances must be nonnegative, got nan and 1e-14"
    out = tmp_path / "o.csv"
    args = {"simulate": ["--out", str(out)], "analyze": [],
            "sweep": ["--out", str(out), "--param", "incidence.beta[2]", "--grid", "0.1"]}[command]
    assert main([command, "--scenario", "fig2-left", flag, value, *args]) == 1
    assert capsys.readouterr().err == f"error: stopping: {message}\n"
    assert not out.exists()


_FLAGS = (["--max-steps", "40", "--eps-z", "1e-9"], {"max_steps": "40", "eps_z": "1e-09"})


@pytest.mark.parametrize("command, flags, stopping", [
    pytest.param(command, *flagged, id=f"{command}-{'flags' if flagged[0] else 'none'}")
    for command in ("simulate", "analyze", "validate", "sweep")
    for flagged in [([], None)] + ([_FLAGS] if command != "validate" else [])])
def test_each_command_builds_its_scenario_once(tmp_path, monkeypatch, command, flags, stopping):
    # a stopping flag used to build the scenario, turn it back into strings
    # and build it again: two builds, [None, stopping]
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    build = scenario_module.scenario_from_dict
    monkeypatch.setattr(scenario_module, "scenario_from_dict", counted)
    monkeypatch.setattr(cli, "scenario_from_dict", counted)
    out = tmp_path / "o.csv"
    args = {"simulate": ["--out", str(out)], "analyze": [], "validate": [],
            "sweep": ["--out", str(out), "--param", "incidence.beta[2]", "--grid", "0.1,0.2,0.3"]}
    assert main([command, "--scenario", "fig2-left", *args[command], *flags]) == 0
    # the bundled file has no [stopping]; the flags write the entries they set
    built = [data.get("stopping") for data, *_ in calls]
    assert built == [stopping] * (3 if command == "sweep" else 1)


def test_a_stopping_flag_stands_in_for_a_bad_file_entry(tmp_path, capsys):
    # the file was built before the flag was written, so this exited 1 with
    # "error: stopping.eps_z: cannot parse number from 'abc'"
    path = tmp_path / "bad.ini"
    text = (resources.files("spepi") / "scenarios" / "fig2-left.ini").read_text()
    path.write_text(text + "\n[stopping]\neps_z = abc\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--eps-z", "1e-9"]) == 0
    assert main(["simulate", "--scenario", "fig2-left", "--out", str(tmp_path / "b.csv"),
                 "--eps-z", "1e-9"]) == 0
    assert out.read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: stopping.eps_z: cannot parse number from 'abc'\n"


def test_simulate_warns_when_max_steps_cuts_the_run(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["simulate", "--scenario", "fig2-left", "--out", str(out), "--max-steps", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"wrote {out}: 3 steps, stop_reason = max-steps, ")
    assert captured.err == "warning: run hit max_steps before converging; output is partial\n"
    assert "# stop_reason = max-steps\n" in out.read_text()


def test_analyze_names_a_run_too_short_for_a_direction(capsys):
    assert main(["analyze", "--scenario", "fig2-left", "--eps-z", "1", "--eps-s", "1"]) == 0
    out = capsys.readouterr().out
    assert "steps = 1\n" in out
    assert ("limit_direction_error = n/a (trajectory with 1 steps is too short for a stable "
            "direction (need at least n = 3))\n") in out


def test_sweep_over_max_steps(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(out),
                 "--param", "stopping.max_steps", "--grid", "100,200"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["100", "200"]
    assert rows[0][2] != rows[1][2]  # S_inf moves with the cap


@pytest.mark.parametrize("param", ["params.gamma", "initial.I", "incidence.beta"])
def test_sweep_rejects_a_whole_list_entry(tmp_path, capsys, param):
    # params.gamma used to exit 1 from [incidence]: "built for 3 stages but
    # params.gamma has 1"
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(tmp_path / "x.csv"),
                 "--param", param, "--grid", "0.5"]) == 1
    assert capsys.readouterr().err == (
        f"error: sweep path '{param}': {param} is a list; name one entry, as in {param}[0]\n")
    assert not (tmp_path / "x.csv").exists()


def test_sweep_sets_a_tolerance_the_scenario_leaves_out(figures, tmp_path):
    # with eps_s = 1 the prevalence cutoff alone stops each run
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(out), "--eps-s", "1",
                 "--param", "stopping.eps_z", "--grid", "1e-3,1e-10"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    sc = figures["fig2-left"]
    for row, eps_z in zip(rows, (1e-3, 1e-10), strict=True):
        rule = StoppingRule(eps_z=eps_z, eps_s=1.0)
        run = simulate_summary(sc.initial, sc.params, sc.incidence, rule)
        assert row[2] == f"{run.S_inf:.17g}"
    assert rows[0][2] != rows[1][2]


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scenario", "fig2-left", "--param", "incidence.beta[2]",
            "--grid", "0.05:0.5:7"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_figures_outputs_and_verdicts(tmp_path, capsys):
    out = tmp_path / "figs"
    code = main(["reproduce-figures", "--out", str(out)])
    text = (out / "verdicts.txt").read_text().splitlines()
    verdicts = {line.split()[0]: line.split()[1] for line in text}
    assert verdicts == {name: "PASS" for name in FIGURE_SCENARIO_NAMES}
    assert code == 0
    for name in verdicts:
        assert (out / f"{name}.csv").exists()
        dat = (out / f"{name}.dat").read_text().splitlines()
        t0, z0 = dat[0].split()
        assert t0 == "0" and float(z0) == pytest.approx(0.01)


def _seed_swapped(figures, label, seed_from):
    """Bundled scenario ``label`` started from ``seed_from``'s initial state."""
    return dataclasses.replace(figures[label], initial=figures[seed_from].initial)


@pytest.mark.parametrize("label, seed_from", [
    ("fig3-top-right", "fig3-top-left"),
    ("fig3-top-left", "fig3-top-right"),
])
def test_figure_claim_rejects_the_other_seed(figures, label, seed_from):
    # the two top panels share every parameter, so only the seeded stage
    # separates their claims: each must fail on the other's start
    scenario = _seed_swapped(figures, label, seed_from)
    traj = simulate(scenario.initial, scenario.params, scenario.incidence,
                    scenario.stopping)
    passed, reason = _figure_verdict(label, scenario, traj)
    assert not passed, reason


def test_figure_verdict_needs_a_recorded_claim(figures):
    scenario = figures["fig2-left"]
    traj = simulate(scenario.initial, scenario.params, scenario.incidence,
                    scenario.stopping)
    with pytest.raises(ValueError, match="no recorded claim"):
        _figure_verdict("fig9", scenario, traj)


@pytest.mark.parametrize("claim, Z, reason", [
    (cli._rises_somewhere, [0.3, 0.2, 0.1], "Z never rises"),
    (cli._rises_somewhere, [0.3], "Z never rises"),
    (cli._falls_before_rising, [0.1, 0.2, 0.3], "Z never falls"),
    (cli._falls_before_rising, [0.3, 0.2, 0.1], "Z never rises"),
    (cli._falls_before_rising, [0.3, 0.3], "Z never falls"),
])
def test_figure_claims_name_a_series_that_never_rises_or_falls(claim, Z, reason):
    assert claim(np.array(Z)) == (False, reason)


def test_reproduce_figures_failing_verdict_exit_code(figures, tmp_path, monkeypatch):
    swapped = dict(figures)
    swapped["fig3-top-right"] = _seed_swapped(figures, "fig3-top-right", "fig3-top-left")
    monkeypatch.setattr(cli, "figure_scenarios", lambda: swapped)
    out = tmp_path / "figs"
    assert main(["reproduce-figures", "--out", str(out)]) == 2
    failed = [line for line in (out / "verdicts.txt").read_text().splitlines()
              if " FAIL " in line]
    assert failed == ["fig3-top-right FAIL R0 = 1.555556 > 1; Z(1) <= Z(0)"]


def test_validate_command(tmp_path, capsys):
    assert main(["validate", "--scenario", "fig2-left"]) == 0
    out = capsys.readouterr().out
    assert "passed = True" in out
    assert "analytic = True" in out


@pytest.mark.parametrize("label, source, verdict", [
    ("fig2-left", "fig2-left", (True, "R0 = 0.952381 < 1; Z rises at t = 0")),
    ("fig2-left", "fig3-bottom", (False, "R0 = 1.011111 !< 1; Z rises at t = 1")),
    ("fig3-top-right", "fig3-top-right", (True, "R0 = 1.555556 > 1; Z(1) > Z(0)")),
    ("fig3-top-right", "fig2-left", (False, "R0 = 0.952381 !> 1; Z(1) > Z(0)")),
])
def test_figure_verdict_names_each_r0_relation(figures, label, source, verdict):
    # ``label``'s claim checked on ``source``'s run: each of >, !>, < and !<
    scenario = figures[source]
    traj = simulate(scenario.initial, scenario.params, scenario.incidence,
                    scenario.stopping)
    passed, reason = _figure_verdict(label, scenario, traj)
    assert (type(passed), passed, reason) == (bool, *verdict)


_ANALYTIC_REPORT = """\
family = exponential
analytic = True
range_ok = True
zero_ok = True
gradient_ok = True
r_last_ok = True
concave_ok = True
points_checked = 0
passed = True
"""


@pytest.mark.parametrize("name", FIGURE_SCENARIO_NAMES)
def test_validate_stdout_of_the_bundled_figures(capsys, name):
    assert main(["validate", "--scenario", name]) == 0
    assert capsys.readouterr().out == _ANALYTIC_REPORT


def test_validate_prints_each_failure_and_exits_2(capsys, monkeypatch):
    report = RegularityReport(
        family="custom", analytic=False, range_ok=False, zero_ok=True, gradient_ok=True,
        r_last_ok=False, concave_ok=True, points_checked=45,
        failures=["phi([1.0]) = 1 outside [0, 1)", "r_n = 0: last stage not infectious"])
    monkeypatch.setattr(cli, "validate_regularity", lambda incidence: report)
    assert main(["validate", "--scenario", "fig2-left"]) == 2
    assert capsys.readouterr().out == (
        "family = custom\nanalytic = False\nrange_ok = False\nzero_ok = True\n"
        "gradient_ok = True\nr_last_ok = False\nconcave_ok = True\npoints_checked = 45\n"
        "passed = False\nfailure: phi([1.0]) = 1 outside [0, 1)\n"
        "failure: r_n = 0: last stage not infectious\n")


def test_bad_scenario_exit_code(tmp_path, capsys):
    missing = tmp_path / "none.ini"
    assert main(["simulate", "--scenario", str(missing), "--out",
                 str(tmp_path / "o.csv")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[params]\ngamma = 2.0\nN = 1\n", encoding="utf-8")
    assert main(["analyze", "--scenario", str(bad)]) == 1


_TWO_STAGE = """
[params]
gamma = 0.5, 0.5
N = 1.0
[incidence]
family = exponential
beta = 0.5, 0.5
[initial]
S = 0.99
I = 0.01, 0.0
R = 0.0
[stopping]
eps_z = 1e-12
"""


@pytest.mark.parametrize("old, new, message", [
    ("family = exponential", "family = quadratic",
     "incidence.family: unknown incidence family 'quadratic'"),
    ("beta = 0.5, 0.5", "beta = 0.5, x", "incidence.beta: cannot parse number list from '0.5, x'"),
])
def test_scenario_entry_errors_name_the_entry(tmp_path, capsys, old, new, message):
    bad = tmp_path / "bad.ini"
    bad.write_text(_TWO_STAGE.replace(old, new), encoding="utf-8")
    out = tmp_path / "x.csv"
    # a sweep names the bad entry alike, whether it sweeps that entry or not
    for command in (["validate"],
                    ["sweep", "--param", "incidence.beta[0]", "--grid", "0.1", "--out", str(out)],
                    ["sweep", "--param", "params.gamma[0]", "--grid", "0.1", "--out", str(out)]):
        assert main([*command, "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_malformed_ini_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[params\ngamma = 0.5\n", encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: File contains no section headers.\n")


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("section, line", [
    ("params", "gamma = nan, 0.5"),
    ("params", "N = inf"),
    ("incidence", "beta = nan, 0.5"),
    ("initial", "S = nan"),
    ("initial", "I = inf, 0.0"),
    ("initial", "R = nan"),
    ("stopping", "eps_z = nan"),
])
def test_non_finite_scenario_value_exits_1(tmp_path, capsys, section, line, command):
    # with S = nan, simulate used to run all max_steps and write
    # S_inf_estimate = nan, and analyze printed lower_bound = nan; both exited 0
    key = line.split(" = ")[0]
    text = "\n".join(line if row.split(" = ")[0] == key else row
                     for row in _TWO_STAGE.splitlines())
    assert line in text.splitlines()
    bad = tmp_path / "bad.ini"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "o.csv"
    args = ["--out", str(out)] if command == "simulate" else []
    assert main([command, "--scenario", str(bad), *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {section}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
def test_phi_one_scenario_exits_1(tmp_path, capsys, command):
    # exp(-40) rounds phi(I(0)) to 1.0; simulate used to write
    # S_inf_estimate = 0 and exit 0.  sweep's summary runs fail alike
    path = tmp_path / "phi1.ini"
    path.write_text("[params]\ngamma = 0.5\nN = 1.0\n"
                    "[incidence]\nfamily = exponential\nbeta = 50\n"
                    "[initial]\nS = 0.2\nI = 0.8\nR = 0.0\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    args = {"simulate": ["--out", str(out)], "analyze": [],
            "sweep": ["--out", str(out), "--param", "incidence.beta[0]", "--grid", "50"]}[command]
    assert main([command, "--scenario", str(path), *args]) == 1
    assert capsys.readouterr().err == "error: step 0: phi = 1.0 lies outside [0, 1)\n"
    assert not out.exists()


def test_invalid_dynamics_exit_1(tmp_path, monkeypatch, capsys):
    corrupt_one_row(monkeypatch, 7, "I", -1e-3, stage=2)
    out = tmp_path / "o.csv"
    assert main(["simulate", "--scenario", "fig2-left", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: step 7: I3 = -0.001 is negative\n"
    assert not out.exists()


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main reuses one parser: calls in one process, after other subcommands
    # and a usage error, print what they print with a parser of their own
    calls = [["validate", "--scenario", "fig2-left"],
             ["analyze", "--scenario", "fig3-bottom", "--max-steps", "50"],
             ["sweep", "--scenario", "fig2-left", "--out", str(tmp_path / "s.csv"),
              "--param", "incidence.beta[2]", "--grid", "0.1,0.2"],
             ["validate", "--scenario", "fig2-right"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert cli.build_parser() is cli.build_parser()
    shared = [run(argv) for argv in [*calls, ["sweep", "--scenario", "fig2-left"]]]
    assert shared[-1][0] == 2 and "required" in shared[-1][2]
    assert run(calls[0]) == shared[0]  # after the usage error
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0]
    assert shared[:-1] == fresh


def test_io_error_exit_code(tmp_path):
    assert main(["simulate", "--scenario", "fig2-left",
                 "--out", str(tmp_path / "no" / "dir" / "o.csv")]) == 3
