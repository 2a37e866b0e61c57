"""Operations: one call into ``spepi`` each, and the check of its output.

``prepare`` writes a round's scenario files and builds the custom-incidence
objects; ``Operation.run`` is the timed call; ``Operation.check`` verifies
the output and returns the rows it produced.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import checks
import oracle


class OperationFailed(RuntimeError):
    """The program reported an error for an admissible input."""


def _call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"spepi {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Operation:
    def __init__(self, desc, path, out_path):
        self.desc = desc
        self.spec = desc["spec"]
        self.path = path
        self.out_path = out_path

    @property
    def label(self):
        return f"{self.desc['kind']}:{self.spec['label']}"


class Simulate(Operation):
    def argv(self):
        eps = repr(self.desc["eps"])
        return ["simulate", "--scenario", self.path, "--out", self.out_path,
                "--eps-z", eps, "--eps-s", eps]

    def run(self, spepi):
        return _call_cli(spepi.cli, self.argv())

    def check(self, output):
        return checks.check_trajectory_csv(self.out_path, self.spec)


class Sweep(Operation):
    def argv(self):
        grid = ",".join(repr(v) for v in self.desc["grid"])
        return ["sweep", "--scenario", self.path, "--out", self.out_path,
                "--param", self.desc["param"], "--grid", grid]

    def run(self, spepi):
        return _call_cli(spepi.cli, self.argv())

    def check(self, output):
        return checks.check_sweep_csv(self.out_path, self.spec, self.desc["param"],
                                      self.desc["grid"])


class Analyze(Operation):
    def argv(self):
        return ["analyze", "--scenario", self.desc.get("bundled") or self.path]

    def run(self, spepi):
        return _call_cli(spepi.cli, self.argv())

    def check(self, output):
        return checks.check_report(output, self.spec)


class _Concave:
    """phi(I) = b.I / (1 + b.I)."""

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)

    def __call__(self, I):
        x = float(self.b @ I)
        return x / (1.0 + x)

    def grad(self, I):
        return self.b / (1.0 + float(self.b @ I)) ** 2


class _Convex:
    """phi(I) = c (exp(b.I) - 1)."""

    def __init__(self, b, c):
        self.b = np.asarray(b, dtype=float)
        self.c = float(c)

    def __call__(self, I):
        return self.c * math.expm1(float(self.b @ I))

    def grad(self, I):
        return self.c * math.exp(float(self.b @ I)) * self.b


class Library(Operation):
    """The analysis of `spepi analyze`, through public library calls."""

    def build(self, spepi):
        spec = self.spec
        n = len(spec["gamma"])
        inc = spec["inc"]
        fn = (_Concave(inc["b"]) if inc["family"] == "custom-concave"
              else _Convex(inc["b"], inc["c"]))
        self.params = spepi.StageParams(gamma=np.array(spec["gamma"]), N=spec["N"])
        self.incidence = spepi.CustomIncidence(fn, n, spec["N"], grad=fn.grad)
        self.initial = spepi.EpidemicState(S=spec["S"], I=np.array(spec["I"]), R=spec["R"])
        self.stopping = spepi.StoppingRule(**spec.get("stopping", {}))

    def run(self, spepi):
        from spepi import asymptotics, incidence, model, prevalence, spectral
        params, inc = self.params, self.incidence
        report = incidence.validate_regularity(inc)
        R0 = spectral.r0(params, inc)
        traj = model.simulate(self.initial, params, inc, self.stopping)
        ld = asymptotics.limit_direction(traj)
        n = params.n
        tail = max(asymptotics.tail_sum_check(traj, t0).max_rel_error
                   for t0 in (0, n, 2 * n) if t0 <= traj.n_steps)
        mono = asymptotics.monotonicity_onset(traj)
        shape = prevalence.classify_shape(traj.Z)
        return {
            "regularity": {k: getattr(report, k) for k in
                           ("range_ok", "zero_ok", "gradient_ok", "r_last_ok", "concave_ok",
                            "passed")},
            "R0": R0, "stop_reason": traj.stop_reason, "S": traj.S, "I": traj.I, "R": traj.R,
            "rho": ld.rho, "tail_sum_max": tail, "onset": mono.onset,
            "persistent": mono.persistent, "initial_rise": shape.initial_rise,
        }

    def check(self, output):
        return checks.check_library(output, self.spec)


_KINDS = {"simulate": Simulate, "sweep": Sweep, "analyze": Analyze, "library": Library}


def prepare(descs, workdir, spepi):
    """Write each generated scenario file and build each operation."""
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for k, desc in enumerate(descs):
        path = os.path.join(workdir, f"{k:02d}-{desc['spec']['label']}.ini")
        out_path = os.path.join(workdir, f"{k:02d}-out.csv")
        op = _KINDS[desc["kind"]](desc, path, out_path)
        if desc["kind"] == "library":
            op.build(spepi)
        elif not desc.get("bundled"):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(oracle.ini_text(desc["spec"]))
        ops.append(op)
    return ops
