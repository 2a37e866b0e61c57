"""Scenario files: fixtures, validation messages, lossless round-trips."""

from __future__ import annotations

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
