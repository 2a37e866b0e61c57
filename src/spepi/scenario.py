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
from importlib import resources

import numpy as np

from .contacts import ContactDistribution, compose_incidence, poisson_incidence
from .incidence import (
    ExponentialIncidence,
    IncidenceModel,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
)
from .model import EpidemicState, StageParams, StoppingRule

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

_PLAIN_FAMILIES = (
    "exponential",
    "linear",
    "split-exponential",
    "last-class-linear",
    "last-class-exponential",
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


def _get(section: dict, key: str, where: str) -> str:
    if key not in section:
        raise ScenarioError(f"{where}.{key}: required key is missing")
    return section[key]


def _build_plain_incidence(family: str, spec: dict, N: float, prefix: str = "",
                           where: str = "incidence") -> IncidenceModel:
    def need(key):
        return _get(spec, prefix + key, where)

    try:
        if family == "exponential":
            return ExponentialIncidence(_parse_floats(need("beta"), where), N)
        if family == "linear":
            return LinearIncidence(_parse_floats(need("beta"), where), N)
        if family == "split-exponential":
            return SplitExponentialIncidence(
                _parse_floats(need("theta"), where),
                _parse_floats(need("beta"), where),
                N,
            )
        if family in ("last-class-linear", "last-class-exponential"):
            n = int(_get(spec, prefix + "n", where)) if prefix + "n" in spec else None
            if n is None:
                raise ScenarioError(f"{where}.{prefix}n: last-class families need the stage count")
            kind = "linear" if family.endswith("linear") else "exponential"
            return LastClassIncidence(
                n=n, N=N, kind=kind, beta=_parse_float(need("beta"), where)
            )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}.family: unknown incidence family {family!r}")


def _build_incidence(spec: dict, N: float) -> IncidenceModel:
    family = _get(spec, "family", "incidence").strip()
    if family in _PLAIN_FAMILIES:
        return _build_plain_incidence(family, spec, N)
    try:
        if family == "contact-composed":
            pi_family = _get(spec, "pi_family", "incidence").strip()
            pi = _build_plain_incidence(pi_family, spec, N, prefix="pi_")
            dist = ContactDistribution.explicit(
                _parse_floats(_get(spec, "contact_p", "incidence"), "incidence.contact_p")
            )
            return compose_incidence(pi, dist)
        if family == "poisson-composed":
            pi_family = _get(spec, "pi_family", "incidence").strip()
            pi = _build_plain_incidence(pi_family, spec, N, prefix="pi_")
            lam = _parse_float(_get(spec, "lambda", "incidence"), "incidence.lambda")
            return poisson_incidence(lam, pi)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"incidence: {exc}") from exc
    raise ScenarioError(f"incidence.family: unknown incidence family {family!r}")


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from nested section dicts of strings."""
    for section in ("params", "incidence", "initial"):
        if section not in data:
            raise ScenarioError(f"{section}: required section is missing")
    label = data.get("scenario", {}).get("label", "")

    p = data["params"]
    try:
        params = StageParams(
            gamma=np.array(_parse_floats(_get(p, "gamma", "params"), "params.gamma")),
            N=_parse_float(_get(p, "N", "params"), "params.N"),
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"params: {exc}") from exc

    incidence = _build_incidence(dict(data["incidence"]), params.N)
    if incidence.n != params.n:
        raise ScenarioError(
            f"incidence: built for {incidence.n} stages but params.gamma has {params.n}"
        )

    ini = data["initial"]
    try:
        initial = EpidemicState(
            S=_parse_float(_get(ini, "S", "initial"), "initial.S"),
            I=np.array(_parse_floats(_get(ini, "I", "initial"), "initial.I")),
            R=_parse_float(_get(ini, "R", "initial"), "initial.R"),
        )
        initial.validate_against(params)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"initial: {exc}") from exc

    stop = data.get("stopping", {})
    try:
        stopping = StoppingRule(
            max_steps=int(stop["max_steps"]) if "max_steps" in stop else 10**6,
            eps_z=float(stop["eps_z"]) if "eps_z" in stop else None,
            eps_s=float(stop["eps_s"]) if "eps_s" in stop else None,
        )
        stopping.resolve(params.N)
    except ValueError as exc:
        raise ScenarioError(f"stopping: {exc}") from exc

    return Scenario(
        label=label, params=params, incidence=incidence,
        initial=initial, stopping=stopping,
    )


def _incidence_to_dict(model: IncidenceModel) -> dict:
    fam = model.family
    if fam == "exponential":
        return {"family": "exponential", "beta": _fmt(model.beta)}
    if fam == "linear":
        return {"family": "linear", "beta": _fmt(model.beta)}
    if fam == "split-exponential":
        return {
            "family": "split-exponential",
            "theta": _fmt(model.theta),
            "beta": _fmt(model.beta),
        }
    if fam == "last-class":
        if model.kind not in ("linear", "exponential"):
            raise ScenarioError("custom last-class profiles cannot be serialized")
        return {
            "family": f"last-class-{model.kind}",
            "n": str(model.n),
            "beta": repr(model.beta),
        }
    if fam in ("contact-composed", "poisson-composed"):
        inner = _incidence_to_dict(model.pi_model)
        if inner["family"] in ("contact-composed", "poisson-composed"):
            raise ScenarioError("nested contact compositions cannot be serialized")
        out = {"family": fam}
        out.update({f"pi_{k}": v for k, v in inner.items()})
        if fam == "contact-composed":
            out["contact_p"] = _fmt(model.dist.p)
        else:
            out["lambda"] = repr(model.lam)
        return out
    raise ScenarioError(f"incidence family {fam!r} cannot be serialized")


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

