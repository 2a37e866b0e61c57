"""Scenario files: the bytes ``save_scenario`` writes never change.

For the five bundled figures and one scenario of every family and contact
law a file can name, ``scenario_files.json`` holds the text
``save_scenario`` writes and the dict ``scenario_to_dict`` returns.  The
family scenarios set every stopping entry, carry an empty label and use
floats whose ``repr`` needs all 17 digits.  A change meant to alter the
file format must say so and regenerate the file with

    PYTHONPATH=src python tests/test_scenario_files.py > tests/scenario_files.json
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

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
    figure_scenarios,
    poisson_incidence,
    save_scenario,
)
from spepi.scenario import (
    _FAMILIES,
    _LAWS,
    FIGURE_SCENARIO_NAMES,
    load_scenario,
    scenario_to_dict,
)

PINNED_PATH = Path(__file__).with_name("scenario_files.json")

_N = 2.0000000000000004
_THIRD = 1.0 / 3.0
# one incidence per plain family and per contact law, each on 3 stages
_INCIDENCES = {
    "exponential": lambda: ExponentialIncidence([0.1 + 0.2, 0.2, _THIRD], _N),
    "linear": lambda: LinearIncidence([0.1, 0.05 + 1e-17, _THIRD / 10.0], _N),
    "split-exponential": lambda: SplitExponentialIncidence(
        [0.25, 0.5, 0.25], [0.4, 1.1, _THIRD], _N),
    "last-class-linear": lambda: LastClassIncidence(n=3, N=_N, kind="linear", beta=_THIRD),
    "last-class-exponential": lambda: LastClassIncidence(
        n=3, N=_N, kind="exponential", beta=1.75),
    "contact-composed": lambda: compose_incidence(
        SplitExponentialIncidence([0.2, 0.3, 0.5], [0.3, 0.2, 0.1], _N),
        ContactDistribution.explicit([0.25, _THIRD, 1.0 - 0.25 - _THIRD])),
    "poisson-composed": lambda: poisson_incidence(
        2.718281828459045, LastClassIncidence(n=3, N=_N, kind="linear", beta=0.1)),
}


def _family_scenario(family: str) -> Scenario:
    return Scenario(
        label="",
        params=StageParams(gamma=[0.6, 0.7 + 1e-16, _THIRD], N=_N),
        incidence=_INCIDENCES[family](),
        initial=EpidemicState(S=_N - 0.01 - 1e-3, I=[0.01, 1e-3, 0.0], R=0.0),
        stopping=StoppingRule(max_steps=123456, eps_z=1e-12 * _THIRD, eps_s=3e-300),
    )


def _scenarios() -> dict:
    scenarios = dict(figure_scenarios())
    scenarios.update({family: _family_scenario(family) for family in _INCIDENCES})
    return scenarios


def _pin(scenario: Scenario, tmp_dir: Path) -> dict:
    path = tmp_dir / "pinned.ini"
    save_scenario(scenario, path)
    return {"ini": path.read_bytes().decode("utf-8"), "dict": scenario_to_dict(scenario)}


def _expected() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def test_pinned_names_cover_the_figures_and_every_family():
    assert sorted(_INCIDENCES) == sorted((*_FAMILIES, *_LAWS))
    assert sorted(_expected()) == sorted((*FIGURE_SCENARIO_NAMES, *_INCIDENCES))


@pytest.mark.parametrize("name", [*FIGURE_SCENARIO_NAMES, *_INCIDENCES])
def test_saved_bytes_and_dict_match_the_pinned_ones(name, tmp_path):
    scenario = _scenarios()[name]
    pinned = _expected()[name]
    assert _pin(scenario, tmp_path) == pinned
    # the pinned file loads back to the same dict
    assert scenario_to_dict(load_scenario(tmp_path / "pinned.ini")) == pinned["dict"]


if __name__ == "__main__":  # regenerate: print this checkout's files and dicts as JSON
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: _pin(sc, Path(tmp)) for name, sc in _scenarios().items()}
    print(json.dumps(pinned, indent=2, sort_keys=True))
