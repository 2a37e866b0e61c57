"""Summary runs against full runs: ``simulate_summary`` steps the same map
without stage rows, so S_inf, Z, the stop and the step count must match
``simulate`` bit for bit, the onset must match ``monotonicity_onset``, and
an inadmissible run must fail at the same step with the same cause."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spepi._kernels as kernels
import spepi.model as model
from spepi import (
    ContactDistribution,
    CustomIncidence,
    DynamicsError,
    EpidemicState,
    ExponentialIncidence,
    StageParams,
    StoppingRule,
    compose_incidence,
    monotonicity_onset,
    simulate,
    simulate_summary,
)

from test_stepping_properties import (
    ENCODINGS,
    _gamma,
    _hex,
    _initial,
    _inner,
    _model,
    _reference_run,
)


def _check_summary(initial, params, inc, stopping):
    """Assert that the summary run matches the full run; return the latter."""
    traj = simulate(initial, params, inc, stopping)
    run = simulate_summary(initial, params, inc, stopping)
    assert run.stop_reason == traj.stop_reason
    assert run.n_steps == traj.n_steps
    assert run.S_inf.hex() == traj.S_inf.hex()
    assert run.Z.tobytes() == traj.Z.tobytes()
    assert run.onset == monotonicity_onset(traj).onset
    return traj


@pytest.mark.parametrize("encoding", ENCODINGS)
# 10 examples per encoding; 100 under --hypothesis-profile=thorough
@settings(max_examples=max(10, settings().max_examples // 50), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3, 5, 8]),
    K=st.sampled_from([None, 64, 65]),
    eps=st.sampled_from(["default", "zero", "loose"]),
    max_steps=st.one_of(st.integers(1, 60), st.just(3000)),
)
# a stage sum on one line and split in two (every 1024 terms; three lines in
# the tie test), tables of 64 and 65 entries, converged and stopped at
# max_steps; wide n only here, as each new n costs two compiles per encoding
@example(seed=1, n=1024, K=64, eps="loose", max_steps=60)
@example(seed=2, n=1025, K=65, eps="zero", max_steps=9)
@example(seed=3, n=3, K=None, eps="loose", max_steps=3000)
def test_summary_run_matches_the_full_run(encoding, seed, n, K, eps, max_steps):
    if n > 8:
        max_steps = min(max_steps, 60)  # keep the wide runs cheap
    if encoding.startswith("split-exponential"):
        n = max(n, 2)  # the split family needs >= 2 contact pools
    rng = np.random.default_rng(seed)
    N = float(10.0 ** rng.uniform(-1.0, 2.0))
    params = StageParams(gamma=_gamma(rng, n, "mixed"), N=N)
    inner, _, outer = encoding.partition("/")
    if outer == "explicit" and K is not None:  # a table of 64 or 65 entries
        inc = compose_incidence(_inner(inner, rng, n, N),
                                ContactDistribution.explicit(rng.dirichlet(np.ones(K))))
    else:
        inc = _model(encoding, rng, n, N)
    initial = _initial(rng, n, N)
    tol = {"default": None, "zero": 0.0, "loose": 1e-4 * N}[eps]
    stopping = StoppingRule(max_steps=max_steps, eps_z=tol, eps_s=tol)

    # blocks of 4 rows: onsets and stops land on block edges
    with mock.patch.object(model, "BLOCK_ROWS", 4):
        traj = _check_summary(initial, params, inc, stopping)
    rows, reason = _reference_run(initial, params, inc, max_steps, *stopping.resolve(N)[1:])
    assert reason == traj.stop_reason
    assert _hex(traj.Z) == _hex(row[4] for row in rows)


@pytest.mark.parametrize("stopping", [None, StoppingRule(eps_z=1e-200, eps_s=1e-200),
                                      StoppingRule(max_steps=37)],
                         ids=["default", "eps-1e-200", "max-steps"])
def test_onset_on_either_side_of_a_block_edge(monkeypatch, figures, stopping):
    # the onset compares rows t and t + 1; put t last in its block, then first
    for sc in figures.values():
        stop = stopping or sc.stopping
        onset = monotonicity_onset(simulate(sc.initial, sc.params, sc.incidence, stop)).onset
        assert onset is not None
        for block_rows in (onset + 1, onset, 1):
            monkeypatch.setattr(model, "BLOCK_ROWS", block_rows)
            traj = _check_summary(sc.initial, sc.params, sc.incidence, stop)
            assert traj.stop_reason == ("max-steps" if stopping and stopping.max_steps == 37
                                        else "converged")


@pytest.mark.parametrize("n", [2, 2049])
def test_a_tie_is_not_a_decrease(n):
    # with gamma = 1/2 and equal stages, 0.5 * x + 0.5 * x == x: every stage
    # past the first keeps its value exactly until the first one's fall
    # reaches it, so no row decreases strictly in all of them before then
    params = StageParams(gamma=np.full(n, 0.5), N=1.0)
    inc = ExponentialIncidence(np.full(n, 1e-5), N=1.0)  # the first stage falls at once
    I = np.full(n, 0.01 / n)
    traj = _check_summary(EpidemicState(S=1.0 - I.sum(), I=I, R=0.0), params, inc,
                          StoppingRule(max_steps=60))
    assert traj.I[1, -1] == traj.I[0, -1]
    assert monotonicity_onset(traj).onset != 0


def test_zero_seed_summary_is_one_row():
    params = StageParams(gamma=[0.5, 0.5], N=1.0)
    inc = ExponentialIncidence([0.5, 0.5], N=1.0)
    traj = _check_summary(EpidemicState(S=1.0, I=[0.0, 0.0], R=0.0), params, inc, None)
    assert traj.n_steps == 0


@pytest.mark.parametrize("stopping", [None, StoppingRule(max_steps=5, eps_z=0.0, eps_s=0.0)])
def test_zero_seed_runs_are_one_converged_row(stopping):
    # the dynamics are the identity at I = 0: one row, converged whatever the
    # tolerances, the stages kept as given, -0.0 included
    params = StageParams(gamma=[0.5, 0.5], N=1.0)
    inc = ExponentialIncidence([0.5, 0.5], N=1.0)
    initial = EpidemicState(S=0.75, I=[0.0, -0.0], R=0.25)
    run = simulate_summary(initial, params, inc, stopping)
    assert (type(run.S_inf), run.S_inf, run.onset, run.stop_reason, run.n_steps) == (
        float, 0.75, None, "converged", 0)
    assert (run.Z.dtype, run.Z.tobytes()) == (np.float64, np.zeros(1).tobytes())
    traj = simulate(initial, params, inc, stopping)
    assert (traj.stop_reason, traj.n_steps) == ("converged", 0)
    expected = {"S": [0.75], "I": [[0.0, -0.0]], "R": [0.25], "phi": [0.0], "Z": [0.0]}
    for name, rows in expected.items():
        got = getattr(traj, name)
        assert (got.dtype, got.shape, got.tobytes()) == (
            np.float64, np.shape(rows), np.array(rows).tobytes()), name
        assert got.flags.writeable, name


def _nan_at_step_9(figures):
    """fig2-left with a custom phi that returns NaN at the state of step 9."""
    sc = figures["fig2-left"]
    I9 = simulate(sc.initial, sc.params, sc.incidence).I[9].copy()
    exact = sc.incidence._phi_raw
    inc = CustomIncidence(lambda I: math.nan if np.array_equal(I, I9) else exact(I),
                          n=3, N=1.0, grad=sc.incidence._grad_raw)
    return sc.initial, sc.params, inc, "step 9: phi = nan lies outside [0, 1)"


def _phi_one(figures):
    """exp(-40) rounds phi(I(0)) to 1.0 (the scenario of the CLI's phi-one test)."""
    return (EpidemicState(S=0.2, I=[0.8], R=0.0), StageParams(gamma=[0.5], N=1.0),
            ExponentialIncidence([50.0], N=1.0), "step 0: phi = 1.0 lies outside [0, 1)")


@pytest.mark.parametrize("block_rows", [4, 1024])
@pytest.mark.parametrize("case", [_phi_one, _nan_at_step_9], ids=["phi-one", "nan-at-9"])
def test_summary_and_full_runs_raise_the_same_error(monkeypatch, figures, case, block_rows):
    monkeypatch.setattr(model, "BLOCK_ROWS", block_rows)
    initial, params, inc, message = case(figures)
    errors = []
    for run in (simulate, simulate_summary):
        with pytest.raises(DynamicsError) as err:
            run(initial, params, inc)
        errors.append((err.value.step, err.value.cause, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][2] == message


@pytest.mark.parametrize("stage_fault, cause", [(True, "I2 = inf is not finite"),
                                                (False, "Z = inf is not finite")],
                         ids=["stage-named", "phi-fn-changed"])
def test_a_failing_summary_block_is_stepped_again_with_its_stages(monkeypatch, figures,
                                                                  stage_fault, cause):
    # Z of step 9 reads inf in the summary block.  Stepped again with its
    # stages, the block names stage 2 of that row when it is inf there too;
    # when the second run passes, the summary block's own cause stands
    monkeypatch.setattr(model, "BLOCK_ROWS", 4)
    real = kernels.run_chunk
    span = [0, 0]  # the rows of the last summary block

    def run_chunk(*args):
        result = real(*args)
        if args[13] is None:
            span[:] = span[1], span[1] + result[0]
            if span[0] <= 9 < span[1]:
                args[16][9 - span[0]] = math.inf
        elif stage_fault:
            args[13][(9 - span[0]) * 3 + 1] = math.inf
        return result

    monkeypatch.setattr(kernels, "run_chunk", run_chunk)
    sc = figures["fig2-left"]
    with pytest.raises(DynamicsError) as err:
        simulate_summary(sc.initial, sc.params, sc.incidence)
    assert (err.value.step, err.value.cause) == (9, cause)


def test_summary_memory_grows_with_steps_not_stages():
    # n = 200 over 50,000 steps: the stage rows alone would take 80 MB, Z
    # takes 0.4 MB.  Peak RSS of a fresh process is read around the run
    # (tracemalloc makes the written-out 200-stage stepper thousands of times
    # slower: each allocation it traces looks up its line in that function)
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from spepi import (EpidemicState, ExponentialIncidence, StageParams,
                           StoppingRule, simulate_summary)
        n = 200
        params = StageParams(gamma=np.full(n, 0.5), N=1.0)
        inc = ExponentialIncidence(np.full(n, 1e-6), N=1.0)
        I = np.linspace(1e-5, 1e-4, n)
        initial = EpidemicState(S=1.0 - I.sum(), I=I, R=0.0)
        stop = StoppingRule(max_steps=50_000, eps_z=0.0, eps_s=0.0)
        simulate_summary(initial, params, inc, StoppingRule(max_steps=10))  # generates the stepper
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run = simulate_summary(initial, params, inc, stop)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(run.n_steps, run.Z.nbytes, (after - before) * 1024)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kernels.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    steps, z_bytes, grown = map(int, out.split())
    assert steps == 50_000
    assert z_bytes == 8 * (steps + 1)
    assert grown < 8 * 2**20, f"peak RSS grew by {grown} bytes"
