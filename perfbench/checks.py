"""Output checks, computed apart from the program.

Each check takes the program's output (a file path, report text or result
object) and the scenario spec it was made from, and raises
:class:`CheckError` naming the first property that fails.  The properties
are ones the method must have, or values recomputed by :mod:`oracle`; none
compares against a stored copy of earlier output.  Nothing here imports
``spepi``.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

CONSERVATION_REL = 1e-9
TAIL_SUM_REL = 1e-8
FINAL_SIZE_ABS_REL = 1e-8  # |S_inf - root| / N
R0_REL = 1e-12
PERRON_ABS = 1e-9
# a converged run stops just above the true limit; bounds on S_inf are
# checked with this much slack relative to N
BOUND_SLACK_REL = 1e-9


class CheckError(AssertionError):
    """An output violates a property it must have."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def tail_sum_errors(S, I, gamma, t0=0):
    """Relative residuals of sum_{t>=t0} I_j(t) = (S(t0) - S_inf + I_1(t0)+..+I_j(t0)) / g_j."""
    cum = np.cumsum(I[t0])
    out = []
    for j in range(I.shape[1]):
        lhs = math.fsum(I[t0:, j])
        rhs = (S[t0] - S[-1] + cum[j]) / gamma[j]
        out.append(_rel(lhs, rhs))
    return out


def check_trajectory_csv(path, spec) -> int:
    """Check a `spepi simulate` CSV; returns its row count."""
    n = len(spec["gamma"])
    N = float(spec["N"])
    # the file is parsed where it lies, never held whole as text: a copy of
    # it would set the worker's peak RSS, which is the program's to set
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        footer = [line.rstrip("\n") for line in fh if line.startswith("#")]
    cols = ["t", "S"] + [f"I{j + 1}" for j in range(n)] + ["R", "Z", "phi"]
    _require(header == ",".join(cols), f"header {header!r} is not {','.join(cols)!r}")
    footer = dict(line.lstrip("# ").split(" = ", 1) for line in footer if " = " in line)
    _require(footer.get("stop_reason") == "converged",
             f"stop_reason is {footer.get('stop_reason')!r}, not 'converged'")
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    _require(data.shape[1] == len(cols), f"rows have {data.shape[1]} fields, not {len(cols)}")
    rows = data.shape[0]
    _require(int(footer.get("steps", -1)) == rows - 1,
             f"footer steps {footer.get('steps')} != {rows - 1} data rows after row 0")
    t, S, I, R, Z = data[:, 0], data[:, 1], data[:, 2:2 + n], data[:, 2 + n], data[:, 3 + n]
    phi = data[:, 4 + n]
    _require(np.array_equal(t, np.arange(rows)), "t column is not 0, 1, 2, ...")
    _require(S[0] == spec["S"] and R[0] == spec["R"] and np.array_equal(I[0], spec["I"]),
             "row 0 is not the initial state")
    _require(float(footer.get("S_inf_estimate", "nan")) == S[-1],
             "S_inf_estimate is not the last S")
    total = S + I.sum(axis=1) + R
    worst = int(np.argmax(np.abs(total - N)))
    _require(abs(total[worst] - N) <= CONSERVATION_REL * N,
             f"row {worst}: S + sum(I) + R = {total[worst]!r} is not N = {N!r}")
    _require(bool(np.all(np.diff(S) <= 0.0)), "S increases somewhere")
    _require(bool(np.all(data[:, 1:] >= 0.0)), "a compartment is negative")
    _require(bool(np.all(phi < 1.0)), "phi reaches 1")
    zsum = I.sum(axis=1)
    _require(bool(np.all(np.abs(Z - zsum) <= 4 * n * np.finfo(float).eps * zsum)),
             "Z is not the sum of the stage columns")
    errs = tail_sum_errors(S, I, spec["gamma"])
    j = int(np.argmax(errs))
    _require(errs[j] <= TAIL_SUM_REL, f"stage {j + 1} tail sum off by {errs[j]:.3g} relative")
    if spec["inc"]["family"] == "exponential":
        root = oracle.final_size_root(spec)
        _require(abs(S[-1] - root) <= FINAL_SIZE_ABS_REL * N,
                 f"S_inf = {S[-1]!r} but the final-size root is {root!r}")
    return rows


def check_sweep_csv(path, spec, param, grid) -> int:
    """Check a `spepi sweep` summary CSV; returns its row count."""
    N = float(spec["N"])
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(lines and lines[0] == "value,R0,S_inf,peak_Z,peak_time,onset_t0",
             "sweep header is wrong")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid values")
    z0 = math.fsum(spec["I"])
    for k, (row, value) in enumerate(zip(rows, grid)):
        _require(len(row) == 6, f"row {k} has {len(row)} fields")
        _require(float(row[0]) == value, f"row {k} value {row[0]} is not grid value {value!r}")
        point = oracle.set_value(spec, param, value)
        R0, s_inf, peak_z = float(row[1]), float(row[2]), float(row[3])
        own = oracle.r0(point)
        _require(_rel(R0, own) <= R0_REL, f"row {k}: R0 = {R0!r}, benchmark has {own!r}")
        _require(0.0 < s_inf <= point["S"], f"row {k}: S_inf = {s_inf!r} outside (0, S(0)]")
        if own > 1.0:
            _require(s_inf <= N / own + BOUND_SLACK_REL * N,
                     f"row {k}: S_inf = {s_inf!r} above N/R0 = {N / own!r}")
        # Z(0) is summed in another order by the program: allow its rounding
        _require(z0 * (1.0 - 1e-14) <= peak_z <= N,
                 f"row {k}: peak_Z = {peak_z!r} outside [Z(0), N]")
        _require(int(row[4]) >= 0, f"row {k}: negative peak time")
        if point["inc"]["family"] == "exponential":
            root = oracle.final_size_root(point)
            _require(abs(s_inf - root) <= FINAL_SIZE_ABS_REL * N,
                     f"row {k}: S_inf = {s_inf!r} but the final-size root is {root!r}")
    return len(rows)


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _number(report, key):
    _require(key in report, f"report has no {key!r} line")
    try:
        return float(report[key])
    except ValueError:
        raise CheckError(f"{key} = {report[key]!r} is not a number") from None


def check_analysis(spec, R0, s_inf, rho, tail_sum_max, upper=None, lower=None):
    """Checks shared by `spepi analyze` reports and library analyses."""
    N = float(spec["N"])
    own = oracle.r0(spec)
    _require(_rel(R0, own) <= R0_REL, f"R0 = {R0!r}, benchmark has {own!r}")
    r = oracle.r_vector(spec["inc"], len(spec["gamma"]))
    own_rho = oracle.spectral_radius(spec["gamma"], r, s_inf)
    _require(abs(rho - own_rho) <= PERRON_ABS,
             f"perron_rho = {rho!r}, eigvals of B(S_inf) give {own_rho!r}")
    _require(tail_sum_max < TAIL_SUM_REL, f"tail-sum error {tail_sum_max!r} >= {TAIL_SUM_REL}")
    slack = BOUND_SLACK_REL * N
    if upper is not None:
        _require(s_inf <= upper + slack, f"S_inf = {s_inf!r} above upper bound {upper!r}")
    if lower is not None:
        _require(s_inf >= lower - slack, f"S_inf = {s_inf!r} below lower bound {lower!r}")


def check_report(text, spec) -> int:
    """Check a `spepi analyze` report; returns the simulated states (steps + 1)."""
    rep = parse_report(text)
    N = float(spec["N"])
    own = oracle.r0(spec)
    _require(rep.get("stop_reason") == "converged",
             f"stop_reason is {rep.get('stop_reason')!r}, not 'converged'")
    nrv = _number(rep, "r0_spectral_nrv")
    _require(_rel(nrv, own) <= R0_REL, f"r0_spectral_nrv = {nrv!r}, benchmark has {own!r}")
    upper = lower = None
    if own > 1.0:
        upper = _number(rep, "upper_bound")
        _require(_rel(upper, N / own) <= R0_REL, f"upper_bound {upper!r} is not N/R0")
    if rep.get("lower_bound", "n/a").startswith("n/a"):
        _require(own >= 1.0 or any(spec["I"][1:]),
                 "lower bound missing for R0 < 1 with a first-stage seed")
    else:
        lower = _number(rep, "lower_bound")
    s_inf = _number(rep, "S_inf_simulated")
    check_analysis(spec, _number(rep, "R0"), s_inf, _number(rep, "perron_rho"),
                   _number(rep, "tail_sum_max_rel_error"), upper, lower)
    if spec["inc"]["family"] == "exponential":
        root = oracle.final_size_root(spec)
        eq = _number(rep, "S_inf_equation")
        _require(abs(eq - root) <= FINAL_SIZE_ABS_REL * N,
                 f"S_inf_equation = {eq!r}, benchmark root {root!r}")
        _require(abs(s_inf - root) <= FINAL_SIZE_ABS_REL * N,
                 f"S_inf_simulated = {s_inf!r}, benchmark root {root!r}")
    return int(_number(rep, "steps")) + 1


def check_library(result: dict, spec) -> int:
    """Check a library analysis on a custom callable; returns steps + 1."""
    concave = spec["inc"]["family"] == "custom-concave"
    reg = result["regularity"]
    _require(reg["range_ok"] and reg["zero_ok"] and reg["gradient_ok"] and reg["r_last_ok"],
             f"regularity flags {reg}")
    if concave:
        _require(reg["passed"], f"validate_regularity rejects a concave callable: {reg}")
    else:
        _require(not reg["concave_ok"], "validate_regularity calls a convex callable concave")
    _require(result["stop_reason"] == "converged", "library run did not converge")
    S, I, R = result["S"], result["I"], result["R"]
    N = float(spec["N"])
    total = S + I.sum(axis=1) + R
    _require(bool(np.all(np.abs(total - N) <= CONSERVATION_REL * N)), "conservation broken")
    _require(bool(np.all(np.diff(S) <= 0.0)), "S increases somewhere")
    own = oracle.r0(spec)
    upper = N / own if concave and own > 1.0 else None
    check_analysis(spec, result["R0"], float(S[-1]), result["rho"], result["tail_sum_max"],
                   upper=upper)
    _require(result["onset"] is not None and result["persistent"],
             "no persistent componentwise decrease of I(t) in a converged run")
    Z = I.sum(axis=1)
    _require(result["initial_rise"] == bool(Z[1] > Z[0]), "initial_rise disagrees with Z")
    return len(S)
