"""The generated steppers: one per key, none at import, and bitwise equal to
the two-pass reference on both sides of each 1024-term split of a sum."""

from __future__ import annotations

import collections
import os
import subprocess
import sys

import numpy as np
import pytest

import spepi._kernels as kernels
from spepi import ContactDistribution, StageParams, StoppingRule, compose_incidence, simulate
from spepi.cli import main

from test_stepping_properties import _gamma, _hex, _initial, _inner, _model, _reference_run

INNER_KINDS = ("linear", "exponential", "split-exponential", "custom")


@pytest.fixture
def generated(monkeypatch):
    """Count each key the generator writes source for, from an empty cache."""
    counts = collections.Counter()
    source = kernels._source
    monkeypatch.setattr(kernels, "_GENERATED", {})
    monkeypatch.setattr(kernels, "_source", lambda key: counts.update([key]) or source(key))
    return counts


def test_each_key_is_generated_once_across_a_sweep(generated, tmp_path):
    assert main(["sweep", "--scenario", "fig2-left", "--out", str(tmp_path / "sweep.csv"),
                 "--param", "incidence.beta[2]", "--grid", "0.05:0.5:34"]) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 35
    steppers = [key for key in generated if key[0] not in ("inner", "outer")]
    # fig2-left: 3 stages, exponential; a sweep records no stage rows
    assert steppers == [(3, 1, 0, None, False)]
    assert set(generated.values()) == {1}


def test_importing_spepi_generates_nothing():
    code = ("import spepi, spepi.cli, spepi._kernels as k; "
            "print(len(k._GENERATED))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kernels.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0"]


def _check_against_reference(inc, rng, n, N, generated, steps=300):
    params = StageParams(gamma=_gamma(rng, n, "mixed"), N=N)
    initial = _initial(rng, n, N)
    stopping = StoppingRule(max_steps=steps, eps_z=0.0, eps_s=0.0)
    traj = simulate(initial, params, inc, stopping)
    rows, reason = _reference_run(initial, params, inc, steps, 0.0, 0.0)
    assert traj.stop_reason == reason
    S, I, R, phi, Z = zip(*rows)
    assert _hex(traj.S) == _hex(S)
    assert _hex(traj.R) == _hex(R)
    assert _hex(traj.phi) == _hex(phi)
    assert _hex(traj.Z) == _hex(Z)
    assert _hex(traj.I.ravel()) == _hex(x for row in I for x in row)
    return [key for key in generated if key[0] not in ("inner", "outer")]


def _want(inc, n):
    """The recording stepper's key for ``inc`` over n stages."""
    spec = inc.kernel_spec()
    if spec is None:  # a custom model calls phi_fn from the stepper
        return (n, None, 0, None, True)
    ik, _, _, ok, op = spec
    return (n, ik, ok, len(op) if ok else None, True)


# the stage sums split every 1024 terms: one line, two lines, three lines (a
# contact law adds lines per table entry, none to a sum over the stages)
@pytest.mark.parametrize("n, encoding, steps", [
    *((n, f"{inner}{outer}", 300) for n in (1024, 1025) for inner in INNER_KINDS
      for outer in ("", "/explicit", "/poisson")),
    *((2049, inner, 40) for inner in INNER_KINDS)])
def test_stepper_matches_the_reference_at_the_sum_splits(encoding, n, steps, generated):
    rng = np.random.default_rng([n, len(encoding)])
    N = 2.0
    inc = _model(encoding, rng, n, N)
    assert _check_against_reference(inc, rng, n, N, generated, steps) == [_want(inc, n)]


def test_stepper_compiles_and_matches_the_reference_at_3000_stages(generated):
    # past the length at which CPython 3.11 stopped compiling an unsplit sum
    rng = np.random.default_rng(3000)
    n, N = 3000, 2.0
    inc = _model("exponential", rng, n, N)
    assert _check_against_reference(inc, rng, n, N, generated, steps=20) == [_want(inc, n)]


@pytest.mark.parametrize("K", [64, 65])
@pytest.mark.parametrize("inner", INNER_KINDS)
def test_stepper_matches_the_reference_on_long_contact_tables(inner, K, generated):
    rng = np.random.default_rng([K, len(inner)])
    n, N = 3, 2.0
    inc = compose_incidence(_inner(inner, rng, n, N),
                            ContactDistribution.explicit(rng.dirichlet(np.ones(K))))
    assert _check_against_reference(inc, rng, n, N, generated) == [_want(inc, n)]


def test_phi_fn_receives_a_tuple_of_the_stages():
    # a snapshot the callable cannot change, at any n
    n, rows = 1025, 3
    seen = []

    def phi_fn(I):
        seen.append((type(I), len(I)))
        return 0.0

    kernels.run_chunk(1.0, [1e-3] * n, 0.0, -1.0, [0.5] * n, 0, [], [], 0, [], 0.0, 0.0,
                      [0.0] * rows, [0.0] * (rows * n), [0.0] * rows, [0.0] * rows,
                      [0.0] * rows, phi_fn)
    assert seen == [(tuple, n)] * rows
