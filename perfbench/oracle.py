"""The benchmark's own model mathematics, written apart from ``spepi``.

Checks compare the program's outputs against these computations, and the
input generators use them to size each generated scenario.  Nothing here
imports ``spepi``.

A scenario *spec* is a plain dict:

    {"label": str, "gamma": [..], "N": float, "S": float, "I": [..], "R": float,
     "inc": {"family": "exponential", "beta": [..]}, "stopping": {..}}

with ``inc`` one of

    {"family": "exponential" | "linear", "beta": [..]}
    {"family": "split-exponential", "theta": [..], "beta": [..]}
    {"family": "last-class-linear" | "last-class-exponential", "beta": b}
    {"family": "contact-composed", "contact_p": [..], "pi": <plain inc>}
    {"family": "poisson-composed", "lambda": lam, "pi": <plain inc>}
    {"family": "custom-concave", "b": [..]}         phi = b.I / (1 + b.I)
    {"family": "custom-convex", "b": [..], "c": c}  phi = c (exp(b.I) - 1)

The two custom families have no scenario file; the benchmark hands them to
the library as callables.
"""

from __future__ import annotations

import configparser
import copy
import math

import numpy as np


def r_vector(inc: dict, n: int) -> np.ndarray:
    """First-order infectivities r = grad phi(0) of an incidence spec."""
    fam = inc["family"]
    if fam in ("exponential", "linear"):
        return np.asarray(inc["beta"], dtype=float)
    if fam == "split-exponential":
        return np.asarray(inc["theta"], dtype=float) * np.asarray(inc["beta"], dtype=float)
    if fam in ("last-class-linear", "last-class-exponential"):
        r = np.zeros(n)
        r[-1] = float(inc["beta"])
        return r
    if fam == "contact-composed":
        p = np.asarray(inc["contact_p"], dtype=float)
        p = p / p.sum()
        return float(np.arange(p.size) @ p) * r_vector(inc["pi"], n)
    if fam == "poisson-composed":
        return float(inc["lambda"]) * r_vector(inc["pi"], n)
    if fam == "custom-concave":  # phi = b.I / (1 + b.I)
        return np.asarray(inc["b"], dtype=float)
    if fam == "custom-convex":  # phi = c (exp(b.I) - 1)
        return float(inc["c"]) * np.asarray(inc["b"], dtype=float)
    raise ValueError(f"unknown family {fam!r}")


def delta(spec: dict) -> float:
    gamma = np.asarray(spec["gamma"], dtype=float)
    return math.fsum(r_vector(spec["inc"], gamma.size) / gamma)


def r0(spec: dict) -> float:
    """R0 = N * sum_j r_j / gamma_j."""
    return float(spec["N"]) * delta(spec)


def stage_matrix(gamma, r, a: float) -> np.ndarray:
    """B(a): diagonal 1 - gamma_j, subdiagonal gamma_j, a * r added to row one."""
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.size
    B = np.diag(1.0 - gamma)
    B[np.arange(1, n), np.arange(n - 1)] = gamma[:-1]
    B[0, :] += a * np.asarray(r, dtype=float)
    return B


def spectral_radius(gamma, r, a: float) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(stage_matrix(gamma, r, a)))))


def final_size_root(spec: dict) -> float:
    """Root of the exponential-incidence final-size equation, by bisection.

    h(x) = log(S0/x) - sum_j (b_j/g_j)(S0 + I_1(0)+...+I_j(0)) + delta x
    falls on (0, 1/delta) and has one root below min(S0, 1/delta).
    """
    if spec["inc"]["family"] != "exponential":
        raise ValueError("the final-size equation holds for exponential incidence only")
    beta = np.asarray(spec["inc"]["beta"], dtype=float)
    gamma = np.asarray(spec["gamma"], dtype=float)
    S0 = float(spec["S"])
    dlt = math.fsum(beta / gamma)
    C = math.fsum((beta / gamma) * (S0 + np.cumsum(spec["I"])))

    def h(x):
        return math.log(S0 / x) - C + dlt * x

    lo, hi = 1e-300, min(S0, 1.0 / dlt)
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def perron_shape(gamma, lam: float) -> np.ndarray:
    """Unnormalized eigenvector of B for eigenvalue lam (v_1 = 1)."""
    v = np.empty(len(gamma))
    v[0] = 1.0
    for j in range(1, len(gamma)):
        v[j] = v[j - 1] * gamma[j - 1] / (lam - 1.0 + gamma[j])
    return v


def scale_for_radius(gamma, r_hat, a: float, lam: float) -> float:
    """c such that rho(B(a)) = lam when r = c * r_hat (needs lam > max(1 - gamma)).

    The first row of B v = lam v gives (1 - g_1) + a c r_hat . v = lam.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not lam > float(np.max(1.0 - gamma)):
        raise ValueError("target radius must exceed every 1 - gamma_j")
    v = perron_shape(gamma, lam)
    return (lam - 1.0 + gamma[0]) / (a * float(np.asarray(r_hat) @ v))


def second_ratio(gamma, r, a: float) -> float:
    """|lambda_2| / rho of B(a): the power iteration's contraction per step."""
    mods = np.sort(np.abs(np.linalg.eigvals(stage_matrix(gamma, r, a))))[::-1]
    return float(mods[1] / mods[0]) if len(mods) > 1 else 0.0


def set_value(spec: dict, path: str, value: float) -> dict:
    """Copy of ``spec`` with one sweep entry replaced, e.g. ``incidence.beta[2]``."""
    out = copy.deepcopy(spec)
    section, _, key = path.partition(".")
    index = None
    if key.endswith("]"):
        key, _, idx = key[:-1].partition("[")
        index = int(idx)
    if section == "params":
        target, name = out, key
    elif key.startswith("pi_"):
        target, name = out["inc"]["pi"], key[3:]
    else:
        target, name = out["inc"], key
    if index is None:
        target[name] = float(value)
    else:
        target[name] = list(target[name])
        target[name][index] = float(value)
    return out


# --- scenario files -------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (list, tuple, np.ndarray)):
        return ", ".join(repr(float(x)) for x in v)
    return repr(float(v))


def _inc_items(inc: dict, n: int, prefix: str = "") -> list:
    fam = inc["family"]
    items = [(prefix + "family", fam)]
    if fam in ("exponential", "linear"):
        items.append((prefix + "beta", _fmt(inc["beta"])))
    elif fam == "split-exponential":
        items += [(prefix + "theta", _fmt(inc["theta"])), (prefix + "beta", _fmt(inc["beta"]))]
    elif fam in ("last-class-linear", "last-class-exponential"):
        items += [(prefix + "n", str(n)), (prefix + "beta", _fmt(inc["beta"]))]
    elif fam == "contact-composed":
        items = [("family", fam)] + _inc_items(inc["pi"], n, "pi_")
        items.append(("contact_p", _fmt(inc["contact_p"])))
    elif fam == "poisson-composed":
        items = [("family", fam)] + _inc_items(inc["pi"], n, "pi_")
        items.append(("lambda", _fmt(inc["lambda"])))
    else:
        raise ValueError(f"unknown family {fam!r}")
    return items


def ini_text(spec: dict) -> str:
    """The scenario file for ``spec``; floats are written with ``repr``."""
    n = len(spec["gamma"])
    lines = ["[scenario]", f"label = {spec['label']}", "",
             "[params]", f"gamma = {_fmt(spec['gamma'])}", f"N = {_fmt(spec['N'])}", "",
             "[incidence]"]
    lines += [f"{k} = {v}" for k, v in _inc_items(spec["inc"], n)]
    lines += ["", "[initial]", f"S = {_fmt(spec['S'])}", f"I = {_fmt(spec['I'])}",
              f"R = {_fmt(spec['R'])}", ""]
    if spec.get("stopping"):
        lines.append("[stopping]")
        lines += [f"{k} = {_fmt(v)}" for k, v in spec["stopping"].items()]
        lines.append("")
    return "\n".join(lines)


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _inc_from_items(items: dict, prefix: str = "") -> dict:
    fam = items[prefix + "family"].strip()
    if fam in ("exponential", "linear"):
        return {"family": fam, "beta": _floats(items[prefix + "beta"])}
    if fam == "split-exponential":
        return {"family": fam, "theta": _floats(items[prefix + "theta"]),
                "beta": _floats(items[prefix + "beta"])}
    if fam in ("last-class-linear", "last-class-exponential"):
        return {"family": fam, "beta": float(items[prefix + "beta"])}
    if fam == "contact-composed":
        return {"family": fam, "contact_p": _floats(items["contact_p"]),
                "pi": _inc_from_items(items, "pi_")}
    if fam == "poisson-composed":
        return {"family": fam, "lambda": float(items["lambda"]),
                "pi": _inc_from_items(items, "pi_")}
    raise ValueError(f"unknown family {fam!r}")


def spec_from_ini(text: str) -> dict:
    """Read a scenario file into a spec (used for the bundled figures)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    spec = {
        "label": cp.get("scenario", "label", fallback=""),
        "gamma": _floats(cp["params"]["gamma"]),
        "N": float(cp["params"]["N"]),
        "S": float(cp["initial"]["S"]),
        "I": _floats(cp["initial"]["I"]),
        "R": float(cp["initial"]["R"]),
        "inc": _inc_from_items(dict(cp["incidence"])),
    }
    if cp.has_section("stopping"):
        spec["stopping"] = {k: float(v) for k, v in cp["stopping"].items()}
    return spec
