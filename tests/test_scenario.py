"""Scenario files: fixtures, validation messages, lossless round-trips."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from spepi import (
    ContactDistribution,
    EpidemicState,
    ExponentialIncidence,
    LastClassIncidence,
    LinearIncidence,
    Scenario,
    SplitExponentialIncidence,
    StageParams,
    StoppingRule,
    compose_incidence,
    load_scenario,
    poisson_incidence,
    save_scenario,
    simulate,
)
from spepi.scenario import (
    ScenarioError,
    _parse_ini,
    scenario_from_dict,
    scenario_to_dict,
    set_scenario_value,
)


def test_bundled_fig2_left_matches_caption(figures):
    sc = figures["fig2-left"]
    assert sc.params.N == 1.0
    np.testing.assert_array_equal(sc.incidence.beta, [0.2, 0.2, 0.1])
    np.testing.assert_array_equal(sc.params.gamma, [0.6, 0.7, 0.3])
    np.testing.assert_array_equal(sc.initial.I, [0.01, 0.0, 0.0])
    assert sc.initial.S == 0.99 and sc.initial.R == 0.0


def test_bundled_fig3_bottom_matches_caption(figures):
    sc = figures["fig3-bottom"]
    np.testing.assert_array_equal(sc.incidence.beta, [0.4, 0.01, 0.5])
    np.testing.assert_array_equal(sc.params.gamma, [0.9, 0.9, 0.9])
    np.testing.assert_array_equal(sc.initial.I, [0.0, 0.0, 0.01])


def _write(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_malformed_gamma_names_the_bound(tmp_path):
    path = _write(tmp_path, """
[params]
gamma = 1.0, 0.5
N = 1.0
[incidence]
family = exponential
beta = 0.1, 0.2
[initial]
S = 0.99
I = 0.01, 0.0
R = 0.0
""")
    with pytest.raises(ScenarioError, match=r"params.*\(0, 1\)"):
        load_scenario(path)


def test_linear_range_condition_rejected_at_load(tmp_path):
    path = _write(tmp_path, """
[params]
gamma = 0.5
N = 1.0
[incidence]
family = linear
beta = 1.5
[initial]
S = 0.99
I = 0.01
R = 0.0
""")
    with pytest.raises(ScenarioError, match="1/N"):
        load_scenario(path)


def test_zero_last_infectivity_rejected(tmp_path):
    path = _write(tmp_path, """
[params]
gamma = 0.5, 0.5
N = 1.0
[incidence]
family = exponential
beta = 0.5, 0.0
[initial]
S = 0.99
I = 0.01, 0.0
R = 0.0
""")
    with pytest.raises(ScenarioError, match="beta_n > 0"):
        load_scenario(path)


def test_missing_section_and_key_paths(tmp_path):
    with pytest.raises(ScenarioError, match="incidence: required section"):
        load_scenario(_write(tmp_path, "[params]\ngamma = 0.5\nN = 1\n"))
    path = _write(tmp_path, """
[params]
gamma = 0.5
N = 1.0
[incidence]
family = exponential
[initial]
S = 0.99
I = 0.01
R = 0.0
""")
    with pytest.raises(ScenarioError, match="incidence.beta"):
        load_scenario(path)


def test_conservation_mismatch_rejected(tmp_path):
    path = _write(tmp_path, """
[params]
gamma = 0.5
N = 1.0
[incidence]
family = exponential
beta = 0.5
[initial]
S = 0.5
I = 0.01
R = 0.0
""")
    with pytest.raises(ScenarioError, match="initial"):
        load_scenario(path)


def _roundtrip(scenario, tmp_path, name="rt.ini"):
    path = tmp_path / name
    save_scenario(scenario, path)
    return load_scenario(path)


def test_round_trip_all_families(tmp_path):
    N = 1.0
    params = StageParams(gamma=[0.37, 0.61], N=N)
    initial = EpidemicState(S=0.97, I=[0.02, 0.01], R=0.0)
    stopping = StoppingRule(max_steps=5000, eps_z=1e-11, eps_s=3e-13)
    cases = [
        ExponentialIncidence([0.123456789012345, 0.9], N),
        compose_incidence(
            ExponentialIncidence([0.3, 0.8], N),
            ContactDistribution.explicit([0.25, 0.5, 0.25]),
        ),
        poisson_incidence(2.71828, ExponentialIncidence([0.3, 0.8], N)),
        LastClassIncidence(n=2, N=N, kind="exponential", beta=1.75),
        LinearIncidence([0.3, 0.123456789012345], N),
        SplitExponentialIncidence([0.25, 0.75], [0.4, 1.1], N),
        LastClassIncidence(n=2, N=N, kind="linear", beta=0.6),
        poisson_incidence(1.5, LastClassIncidence(n=2, N=N, kind="linear", beta=0.6)),
    ]
    for inc in cases:
        sc = Scenario(label="round trip", params=params, incidence=inc,
                      initial=initial, stopping=stopping)
        back = _roundtrip(sc, tmp_path)
        assert scenario_to_dict(back) == scenario_to_dict(sc)
        # semantics survive too: one simulated step agrees bitwise
        a = simulate(sc.initial, sc.params, sc.incidence, StoppingRule(max_steps=3))
        b = simulate(back.initial, back.params, back.incidence, StoppingRule(max_steps=3))
        np.testing.assert_array_equal(a.S, b.S)
        np.testing.assert_array_equal(a.I, b.I)


def test_round_trip_preserves_awkward_floats(tmp_path, figures):
    sc = figures["fig2-left"]
    data = scenario_to_dict(sc)
    set_scenario_value(data, "incidence.beta[2]", 0.1 + 1e-16)
    set_scenario_value(data, "params.N", 1.0000000000000002)
    set_scenario_value(data, "initial.S", 0.9899999999999998)
    mutated = scenario_from_dict(data)
    back = _roundtrip(mutated, tmp_path)
    assert back.params.N == mutated.params.N
    assert back.initial.S == mutated.initial.S
    np.testing.assert_array_equal(back.incidence.beta, mutated.incidence.beta)


def test_stopping_rules_given_as_numpy_or_integral_floats_round_trip(tmp_path, figures):
    # each used to be saved as written by repr: "np.float64(1e-12)" and
    # "1000.0" failed to load back
    rule = StoppingRule(max_steps=1000.0, eps_z=np.float64(1e-12), eps_s=np.float32(0.5))
    assert (type(rule.max_steps), type(rule.eps_z), type(rule.eps_s)) == (int, float, float)
    sc = figures["fig2-left"]
    back = _roundtrip(Scenario(label="rule", params=sc.params, incidence=sc.incidence,
                               initial=sc.initial, stopping=rule), tmp_path)
    assert back.stopping == rule == StoppingRule(max_steps=1000, eps_z=1e-12, eps_s=0.5)


@pytest.mark.parametrize("max_steps, message", [
    (0, "max_steps must be at least 1"), (-np.inf, "max_steps must be at least 1"),
    (1.5, "max_steps must be a whole number, got 1.5"),
    (np.nan, "max_steps must be a whole number, got nan"),
    (np.inf, "max_steps must be a whole number, got inf")])
def test_stopping_rules_reject_a_max_steps_that_is_not_a_count(max_steps, message):
    # 1.5 used to run 1 step
    with pytest.raises(ValueError, match=f"^{message}$"):
        StoppingRule(max_steps=max_steps)


def test_set_scenario_value_paths(figures):
    data = scenario_to_dict(figures["fig2-left"])
    set_scenario_value(data, "incidence.beta[1]", 0.5)
    sc = scenario_from_dict(data)
    np.testing.assert_array_equal(sc.incidence.beta, [0.2, 0.5, 0.1])
    with pytest.raises(ScenarioError, match="no such scenario entry"):
        set_scenario_value(data, "incidence.nothing", 1.0)
    with pytest.raises(ScenarioError, match="out of range"):
        set_scenario_value(data, "incidence.beta[7]", 1.0)
    with pytest.raises(ScenarioError, match="sweep path"):
        set_scenario_value(data, "justakey", 1.0)


def test_stopping_round_trip_defaults(tmp_path, figures):
    sc = figures["fig2-left"]  # no explicit eps: defaults stay implicit
    back = _roundtrip(sc, tmp_path)
    assert back.stopping.eps_z is None
    assert back.stopping.eps_s is None
    assert back.stopping.max_steps == 10**6


_FIG2_LEFT = """
[params]
gamma = 0.6, 0.7, 0.3
N = 1.0
[incidence]
family = exponential
beta = 0.2, 0.2, 0.1
[initial]
S = 0.99
I = 0.01, 0.0, 0.0
R = 0.0
[stopping]
"""


def test_stopping_values_are_parsed_under_their_key(tmp_path):
    for text, message in (("eps_z = abc", "stopping.eps_z: cannot parse number from 'abc'"),
                          ("max_steps = 1e6",
                           "stopping.max_steps: cannot parse integer from '1e6'")):
        with pytest.raises(ScenarioError) as err:
            load_scenario(_write(tmp_path, _FIG2_LEFT + text))
        assert str(err.value) == message
    sc = load_scenario(_write(tmp_path, _FIG2_LEFT + "max_steps = 5\neps_s = 1e-3"))
    assert sc.stopping == StoppingRule(max_steps=5, eps_z=None, eps_s=1e-3)


def test_unknown_stopping_keys_are_rejected_by_name(tmp_path):
    # misspelt keys used to be ignored, and the run went on the defaults
    path = _write(tmp_path, _FIG2_LEFT + "eps-z = 1e-3\nmax_step = 5")
    with pytest.raises(ScenarioError, match=r"^stopping: unknown key\(s\) eps-z, max_step;"):
        load_scenario(path)


@pytest.mark.parametrize("old, new, message", [
    ("[params]", "[scenario]\nlabl = x\n[params]",
     "scenario: unknown key(s) labl; known: label"),
    ("N = 1.0", "N = 1.0\nNn = 2", "params: unknown key(s) Nn; known: gamma, N"),
    ("[initial]", "theta = 5, 5, 5\n[initial]",
     "incidence: unknown key(s) theta; known: family, beta"),
    ("[initial]", "r = 4\n[initial]", "incidence: unknown key(s) r; known: family, beta"),
    ("[initial]", "lambda = 2\n[initial]",
     "incidence: unknown key(s) lambda; known: family, beta"),
    ("R = 0.0", "R = 0.0\nZ = 0.01", "initial: unknown key(s) Z; known: S, I, R"),
    ("[stopping]", "[extra]\n[stopping]",
     "unknown section(s) extra; known: scenario, params, incidence, initial, stopping"),
], ids=["scenario-labl", "params-Nn", "theta-under-exponential", "incidence-r",
        "lambda-under-exponential", "initial-Z", "extra-section"])
def test_unknown_keys_and_sections_are_rejected_by_name(tmp_path, old, new, message):
    # each used to be ignored: the file validated and ran on what was left
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, _FIG2_LEFT.replace(old, new, 1)))
    assert str(err.value) == message


def test_composed_families_know_the_law_key_and_prefixed_inner_keys(tmp_path):
    composed = _FIG2_LEFT.replace("family = exponential\nbeta",
                                  "family = poisson-composed\nlambda = 2\n"
                                  "pi_family = exponential\npi_beta")
    assert load_scenario(_write(tmp_path, composed)).incidence.family == "poisson-composed"
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, composed.replace("lambda = 2", "lambda = 2\nbeta = 1")))
    assert str(err.value) == ("incidence: unknown key(s) beta; "
                              "known: family, pi_family, lambda, pi_beta")


def test_benchmark_scenario_files_hold_only_known_keys(monkeypatch):
    # the benchmark writes its scenario files with perfbench/oracle.ini_text,
    # except for library operations and the bundled figures
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import oracle
    import worker
    import workloads

    files = [desc["spec"] for workload in workloads.WORKLOADS
             for desc in workloads.build_round(workload, 7, worker.figure_specs())
             if desc["kind"] != "library" and not desc.get("bundled")]
    assert len(files) > 20
    for spec in files:
        scenario_from_dict(_parse_ini(oracle.ini_text(spec), spec["label"]))


def test_sweep_paths_name_numeric_entries(figures):
    data = scenario_to_dict(figures["fig2-left"])
    for path in ("scenario.label", "incidence.family"):
        with pytest.raises(ScenarioError, match=f"{path} is not numeric"):
            set_scenario_value(data, path, 1.0)
    composed = scenario_to_dict(Scenario(
        label="c", params=StageParams(gamma=[0.5], N=1.0),
        incidence=poisson_incidence(2.0, LinearIncidence([0.1], 1.0)),
        initial=EpidemicState(S=0.99, I=[0.01], R=0.0), stopping=StoppingRule()))
    with pytest.raises(ScenarioError, match="incidence.pi_family is not numeric"):
        set_scenario_value(composed, "incidence.pi_family", 1.0)


def test_sweep_writes_integer_entries_as_integers(figures):
    data = scenario_to_dict(figures["fig2-left"])
    set_scenario_value(data, "stopping.max_steps", 100.0)
    assert data["stopping"]["max_steps"] == "100"
    assert scenario_from_dict(data).stopping.max_steps == 100
    with pytest.raises(ScenarioError, match="max_steps takes integers, got 100.5"):
        set_scenario_value(data, "stopping.max_steps", 100.5)
    last = scenario_to_dict(Scenario(
        label="l", params=StageParams(gamma=[0.5, 0.5], N=1.0),
        incidence=LastClassIncidence(n=2, N=1.0, kind="linear", beta=0.5),
        initial=EpidemicState(S=0.99, I=[0.0, 0.01], R=0.0), stopping=StoppingRule()))
    set_scenario_value(last, "incidence.n", 2.0)
    assert last["incidence"]["n"] == "2"
    with pytest.raises(ScenarioError, match="n takes integers"):
        set_scenario_value(last, "incidence.n", float("nan"))


def _sections(sc):
    return sc.params, sc.incidence, sc.initial, sc.stopping


@pytest.mark.parametrize("edits, rebuilt", [
    ({"params.gamma[0]": 0.5}, {0}),
    ({"params.N": 2.0, "initial.S": 1.99}, {0, 1, 2}),  # [incidence] is built with N
    ({"params.N": 2.0}, None),
    ({"incidence.beta[1]": 0.3}, {1}),
    ({"initial.S": 0.98, "initial.R": 0.01}, {2}),
    ({"initial.S": 0.9}, None),
    ({"stopping.max_steps": 7.0}, {3}),
])
def test_built_sections_are_reused_until_their_entries_change(figures, edits, rebuilt):
    base = scenario_to_dict(figures["fig2-left"])
    built = {}
    first = _sections(scenario_from_dict(base, built))
    assert all(a is b for a, b in zip(_sections(scenario_from_dict(base, built)), first))
    data = {section: dict(entries) for section, entries in base.items()}
    for path, value in edits.items():
        set_scenario_value(data, path, value)
    try:
        fresh = scenario_from_dict(data)
    except ScenarioError as exc:  # S + Z + R no longer N: checked across sections
        assert rebuilt is None
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(exc))}$"):
            scenario_from_dict(data, built)
        return
    again = scenario_from_dict(data, built)
    assert {k for k, (a, b) in enumerate(zip(first, _sections(again))) if a is not b} == rebuilt
    assert scenario_to_dict(again) == scenario_to_dict(fresh)


def test_built_sections_keep_the_cross_section_checks(figures):
    # gamma gains a stage: the cached 3-stage incidence no longer fits
    base = scenario_to_dict(figures["fig2-left"])
    built = {}
    scenario_from_dict(base, built)
    data = {section: dict(entries) for section, entries in base.items()}
    data["params"]["gamma"] += ", 0.5"
    with pytest.raises(ScenarioError) as fresh:
        scenario_from_dict(data)
    with pytest.raises(ScenarioError) as cached:
        scenario_from_dict(data, built)
    assert str(cached.value) == str(fresh.value)
    assert "built for 3 stages but params.gamma has 4" in str(fresh.value)
