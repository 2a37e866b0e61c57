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
from typing import Optional

import numpy as np

from .contacts import ComposedIncidence, ContactDistribution, compose_incidence, poisson_incidence
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


def _parse_text(text: str, path: str) -> str:
    return text.strip()


def _get(section: dict, key: str, where: str) -> str:
    if key not in section:
        raise ScenarioError(f"{where}.{key}: required key is missing")
    return section[key]


def _check_known(names, known, what: str) -> None:
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ScenarioError(f"{what} {', '.join(unknown)}; known: {', '.join(known)}")


def _parse_section(data: dict, section: str, keys=None) -> dict:
    """``data[section]`` parsed by its (key, parser) pairs, by default those
    in ``_SECTIONS``; an unknown key raises, as does a missing one unless
    the section is optional ([scenario] and [stopping])."""
    items, keys = data.get(section, {}), keys or _SECTIONS[section]
    _check_known(items, [key for key, _ in keys], f"{section}: unknown key(s)")
    return {key: parse(_get(items, key, section), f"{section}.{key}") for key, parse in keys
            if key in items or section not in ("scenario", "stopping")}


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
# The contact laws: family -> the (key, parser) pair of the law's parameter;
# the inner family's keys take the prefix pi_
_LAWS = {"contact-composed": ("contact_p", _parse_floats), "poisson-composed": ("lambda", _parse_float)}
# Each section's (key, parser) pairs; [incidence]'s follow its family
_SECTIONS = {
    "scenario": (("label", _parse_text),),
    "params": (("gamma", _parse_floats), ("N", _parse_float)),
    "incidence": None,
    "initial": (("S", _parse_float), ("I", _parse_floats), ("R", _parse_float)),
    "stopping": (("max_steps", _parse_int), ("eps_z", _parse_float), ("eps_s", _parse_float)),
}


def _incidence_keys(spec: dict) -> tuple:
    """[incidence]'s (key, parser) pairs for the family that ``spec`` names."""
    law = _LAWS.get(_get(spec, "family", "incidence").strip())
    prefix = "pi_" if law else ""
    plain = _get(spec, prefix + "family", "incidence").strip()
    if plain not in _FAMILIES:
        raise ScenarioError(f"incidence.{prefix}family: unknown incidence family {plain!r}")
    head = (("family", _parse_text),) + ((("pi_family", _parse_text), law) if law else ())
    return head + tuple((prefix + key, parse) for key, parse in _FAMILIES[plain][1])


def _build_incidence(data: dict, N: float) -> IncidenceModel:
    values = _parse_section(data, "incidence", _incidence_keys(data["incidence"]))
    family = values["family"]
    prefix = "pi_" if family in _LAWS else ""
    build, keys = _FAMILIES[values[prefix + "family"]]
    pi = build(N=N, **{key: values[prefix + key] for key, _ in keys})
    if family == "contact-composed":
        return compose_incidence(pi, ContactDistribution.explicit(values["contact_p"]))
    if family == "poisson-composed":
        return poisson_incidence(values["lambda"], pi)
    return pi


def scenario_from_dict(data: dict, built: Optional[dict] = None) -> Scenario:
    """Build and validate a Scenario from nested section dicts of strings.

    ``built`` is a dict the caller owns and passes again with each ``data``
    (as a sweep does).  It maps each section to its entries (and N, for
    [incidence]) and the object built from them, and a section whose
    entries have not changed is not parsed or built again.  The checks
    across sections run every time.
    """
    _check_known(data, list(_SECTIONS), "unknown section(s)")
    for section in ("params", "incidence", "initial"):
        if section not in data:
            raise ScenarioError(f"{section}: required section is missing")
    label = _parse_section(data, "scenario").get("label", "")

    def build(section, make, *extra):
        """``make()``, or the object ``built`` holds for the same entries."""
        if built is None:
            return make()
        key = (dict(data.get(section, {})), *extra)
        if section not in built or built[section][0] != key:
            built[section] = (key, make())
        return built[section][1]

    # a ValueError from a constructor becomes a ScenarioError naming the
    # section being built; one try costs nothing until it catches
    where = "params"
    try:
        params = build("params", lambda: StageParams(**_parse_section(data, "params")))

        where = "incidence"
        incidence = build("incidence", lambda: _build_incidence(data, params.N), params.N)
        if incidence.n != params.n:
            raise ScenarioError(
                f"incidence: built for {incidence.n} stages but params.gamma has {params.n}"
            )

        where = "initial"
        initial = build("initial", lambda: EpidemicState(**_parse_section(data, "initial")))
        initial.validate_against(params)

        where = "stopping"
        stopping = build("stopping", lambda: StoppingRule(**_parse_section(data, "stopping")))
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
    keys = (_incidence_keys(data[section_key]) if section_key == "incidence"
            else _SECTIONS.get(section_key) or ())
    parse = dict(keys).get(key, _parse_text)
    if parse is _parse_text:
        raise ScenarioError(f"sweep path {path!r}: {section_key}.{key} is not numeric")
    if index is None and parse is _parse_int:
        if not float(value).is_integer():
            raise ScenarioError(f"sweep path {path!r}: {key} takes integers, got {value!r}")
        data[section_key][key] = str(int(value))
        return
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

