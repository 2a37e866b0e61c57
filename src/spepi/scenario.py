"""Scenario files: a human-readable INI schema for complete model setups.

A scenario bundles stage parameters, an incidence specification, the
initial state and a stopping rule:

    [scenario]
    label = fig2-left

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

    [stopping]            ; optional section, values are absolute
    max_steps = 1000000
    eps_z = 1e-12
    eps_s = 1e-14

Families: ``exponential`` and ``linear`` (key ``beta``),
``split-exponential`` (``theta`` + ``beta``), ``last-class-linear`` and
``last-class-exponential`` (scalar ``beta``), ``contact-composed``
(``contact_p`` + a ``pi_``-prefixed inner family) and
``poisson-composed`` (``lambda`` + a ``pi_``-prefixed inner family).

Scenarios round-trip losslessly: floats are written with ``repr`` and the
parsed model is rebuilt through the ordinary constructors, re-running all
validation.  Errors name the offending ``section.key``.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .contacts import ComposedIncidence, ContactDistribution, compose_incidence, poisson_incidence
from .incidence import (
    ExponentialIncidence,
    IncidenceModel,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
)
from .model import DEFAULT_MAX_STEPS, EpidemicState, StageParams, StoppingRule

__all__ = [
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "set_scenario_value",
    "figure_scenario",
    "figure_scenarios",
    "FIGURE_SCENARIO_NAMES",
]

FIGURE_SCENARIO_NAMES = (
    "fig2-left",
    "fig2-right",
    "fig3-top-left",
    "fig3-top-right",
    "fig3-bottom",
)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario data; the message names the field."""


@dataclass(eq=False)
class Scenario:
    """A fully validated model setup ready to simulate or analyze."""

    label: str
    params: StageParams
    incidence: IncidenceModel
    initial: EpidemicState
    stopping: StoppingRule


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _parse_floats(text: str, path: str) -> list:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ScenarioError(f"{path}: cannot parse number list from {text!r}") from exc


def _parse_float(text: str, path: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ScenarioError(f"{path}: cannot parse number from {text!r}") from exc


def _parse_int(text: str, path: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ScenarioError(f"{path}: cannot parse integer from {text!r}") from exc


def _get(section: dict, key: str, where: str) -> str:
    if key not in section:
        raise ScenarioError(f"{where}.{key}: required key is missing")
    return section[key]


# The plain INI families: name -> (constructor taking N and the keys by
# keyword, (key, parser) pairs in file order).  Parsing and serialization
# both read this table; the model attribute of each key is its name.
_LAST_CLASS_KEYS = (("n", _parse_int), ("beta", _parse_float))
_FAMILIES = {
    "exponential": (ExponentialIncidence, (("beta", _parse_floats),)),
    "linear": (LinearIncidence, (("beta", _parse_floats),)),
    "split-exponential": (
        SplitExponentialIncidence, (("theta", _parse_floats), ("beta", _parse_floats))
    ),
    "last-class-linear": (partial(LastClassIncidence, kind="linear"), _LAST_CLASS_KEYS),
    "last-class-exponential": (partial(LastClassIncidence, kind="exponential"), _LAST_CLASS_KEYS),
}


def _build_plain_incidence(family: str, spec: dict, N: float,
                           prefix: str = "") -> IncidenceModel:
    if family not in _FAMILIES:
        raise ScenarioError(f"incidence.{prefix}family: unknown incidence family {family!r}")
    build, keys = _FAMILIES[family]
    values = {
        key: parse(_get(spec, prefix + key, "incidence"), f"incidence.{prefix}{key}")
        for key, parse in keys
    }
    return build(N=N, **values)


def _build_incidence(spec: dict, N: float) -> IncidenceModel:
    family = _get(spec, "family", "incidence").strip()
    if family not in ("contact-composed", "poisson-composed"):
        return _build_plain_incidence(family, spec, N)
    pi_family = _get(spec, "pi_family", "incidence").strip()
    pi = _build_plain_incidence(pi_family, spec, N, prefix="pi_")
    if family == "contact-composed":
        dist = ContactDistribution.explicit(
            _parse_floats(_get(spec, "contact_p", "incidence"), "incidence.contact_p")
        )
        return compose_incidence(pi, dist)
    lam = _parse_float(_get(spec, "lambda", "incidence"), "incidence.lambda")
    return poisson_incidence(lam, pi)


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from nested section dicts of strings."""
    for section in ("params", "incidence", "initial"):
        if section not in data:
            raise ScenarioError(f"{section}: required section is missing")
    label = data.get("scenario", {}).get("label", "")

    # a ValueError from a constructor becomes a ScenarioError naming the
    # section being built; one try costs nothing until it catches
    where = "params"
    try:
        p = data["params"]
        params = StageParams(
            gamma=np.array(_parse_floats(_get(p, "gamma", "params"), "params.gamma")),
            N=_parse_float(_get(p, "N", "params"), "params.N"),
        )

        where = "incidence"
        incidence = _build_incidence(dict(data["incidence"]), params.N)
        if incidence.n != params.n:
            raise ScenarioError(
                f"incidence: built for {incidence.n} stages but params.gamma has {params.n}"
            )

        where = "initial"
        ini = data["initial"]
        initial = EpidemicState(
            S=_parse_float(_get(ini, "S", "initial"), "initial.S"),
            I=np.array(_parse_floats(_get(ini, "I", "initial"), "initial.I")),
            R=_parse_float(_get(ini, "R", "initial"), "initial.R"),
        )
        initial.validate_against(params)

        where = "stopping"
        stop = data.get("stopping", {})
        stopping = StoppingRule(
            max_steps=int(stop.get("max_steps", DEFAULT_MAX_STEPS)),
            eps_z=float(stop["eps_z"]) if "eps_z" in stop else None,
            eps_s=float(stop["eps_s"]) if "eps_s" in stop else None,
        )
        stopping.resolve(params.N)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{where}: {exc}") from exc

    return Scenario(
        label=label, params=params, incidence=incidence,
        initial=initial, stopping=stopping,
    )


def _incidence_to_dict(model: IncidenceModel) -> dict:
    if isinstance(model, ComposedIncidence):
        if isinstance(model.pi_model, ComposedIncidence):
            raise ScenarioError("nested contact compositions cannot be serialized")
        out = {"family": model.family}
        out.update({f"pi_{k}": v for k, v in _incidence_to_dict(model.pi_model).items()})
        if model.dist.kind == "poisson":
            out["lambda"] = repr(model.dist.lam)
        else:
            out["contact_p"] = _fmt(model.dist.p)
        return out
    family = model.family
    if isinstance(model, LastClassIncidence):
        family = f"{family}-{model.kind}"
    if family not in _FAMILIES:
        raise ScenarioError(f"incidence family {family!r} cannot be serialized")
    out = {"family": family}
    out.update({key: _fmt(getattr(model, key)) for key, _ in _FAMILIES[family][1]})
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    """Nested string dict mirroring the file schema (lossless for floats)."""
    data = {
        "scenario": {"label": scenario.label},
        "params": {"gamma": _fmt(scenario.params.gamma), "N": repr(scenario.params.N)},
        "incidence": _incidence_to_dict(scenario.incidence),
        "initial": {
            "S": repr(scenario.initial.S),
            "I": _fmt(scenario.initial.I),
            "R": repr(scenario.initial.R),
        },
        "stopping": {"max_steps": str(scenario.stopping.max_steps)},
    }
    if scenario.stopping.eps_z is not None:
        data["stopping"]["eps_z"] = repr(scenario.stopping.eps_z)
    if scenario.stopping.eps_s is not None:
        data["stopping"]["eps_s"] = repr(scenario.stopping.eps_s)
    return data


def _parse_ini(text: str, source: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ScenarioError(f"{source}: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return scenario_from_dict(_parse_ini(text, str(path)))


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario file that loads back to an identical setup."""
    data = scenario_to_dict(scenario)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for section, items in data.items():
        parser[section] = {k: str(v) for k, v in items.items()}
    buf = io.StringIO()
    parser.write(buf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def set_scenario_value(data: dict, path: str, value: float) -> None:
    """Assign one numeric scenario entry by path, e.g. ``incidence.beta[2]``.

    Operates on the string dict from :func:`scenario_to_dict`; rebuild
    through :func:`scenario_from_dict` to re-validate.
    """
    try:
        section_key, _, rest = path.partition(".")
        if not rest:
            raise ValueError("path needs the form section.key or section.key[i]")
        index = None
        key = rest
        if rest.endswith("]"):
            key, _, idx_text = rest[:-1].partition("[")
            index = int(idx_text)
    except ValueError as exc:
        raise ScenarioError(f"sweep path {path!r}: {exc}") from exc
    if section_key not in data or key not in data[section_key]:
        raise ScenarioError(f"sweep path {path!r}: no such scenario entry")
    if index is None:
        data[section_key][key] = repr(float(value))
        return
    items = _parse_floats(data[section_key][key], path)
    if not 0 <= index < len(items):
        raise ScenarioError(
            f"sweep path {path!r}: index {index} out of range (length {len(items)})"
        )
    items[index] = float(value)
    data[section_key][key] = ", ".join(repr(v) for v in items)


def figure_scenario(name: str) -> Scenario:
    """The bundled figure scenario with label ``name``."""
    if name not in FIGURE_SCENARIO_NAMES:
        raise ScenarioError(f"no bundled figure scenario named {name!r}")
    path = resources.files("spepi").joinpath("scenarios").joinpath(f"{name}.ini")
    return scenario_from_dict(_parse_ini(path.read_text(encoding="utf-8"), f"{name}.ini"))


def figure_scenarios() -> dict:
    """The five bundled figure scenarios, keyed by label."""
    return {name: figure_scenario(name) for name in FIGURE_SCENARIO_NAMES}

