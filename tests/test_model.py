"""Core dynamics: stepping, conservation, stopping, trajectory invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spepi import (
    CustomIncidence,
    DomainError,
    DynamicsError,
    EpidemicState,
    ExponentialIncidence,
    LinearIncidence,
    StageParams,
    StoppingRule,
    simulate,
    step,
)

import spepi._kernels as kernels
import spepi.model as model_mod

from conftest import corrupt_one_row, random_initial, random_model


def test_stage_params_validation():
    p = StageParams(gamma=[0.6, 0.7, 0.3], N=1.0)
    assert p.n == 3
    with pytest.raises(ValueError):
        StageParams(gamma=[1.0, 0.5], N=1.0)
    with pytest.raises(ValueError):
        StageParams(gamma=[0.0], N=1.0)
    with pytest.raises(ValueError):
        StageParams(gamma=[0.5], N=0.0)


def test_state_validation():
    with pytest.raises(ValueError):
        EpidemicState(S=-0.1, I=[0.1], R=0.0)
    with pytest.raises(ValueError):
        EpidemicState(S=0.5, I=[-0.1], R=0.0)
    st_ = EpidemicState(S=0.8, I=[0.1, 0.05], R=0.05)
    assert st_.Z == pytest.approx(0.15)
    params = StageParams(gamma=[0.5, 0.5], N=1.0)
    st_.validate_against(params)
    with pytest.raises(ValueError):
        EpidemicState(S=0.8, I=[0.1], R=0.05).validate_against(params)
    with pytest.raises(ValueError):
        EpidemicState(S=0.9, I=[0.1, 0.05], R=0.05).validate_against(params)


def test_step_identity_at_zero_infected():
    params = StageParams(gamma=[0.6, 0.7, 0.3], N=1.0)
    inc = ExponentialIncidence([0.2, 0.2, 0.1], N=1.0)
    s0 = EpidemicState(S=0.7, I=np.zeros(3), R=0.3)
    s1 = step(s0, params, inc)
    assert s1.S == s0.S and s1.R == s0.R
    np.testing.assert_array_equal(s1.I, s0.I)


def test_step_hand_value_linear_sir():
    # one-step update with phi = 0.05: (0.8, 0.1, 0.1) -> (0.76, 0.11, 0.13)
    params = StageParams(gamma=[0.3], N=1.0)
    inc = LinearIncidence([0.5], N=1.0)
    s1 = step(EpidemicState(S=0.8, I=[0.1], R=0.1), params, inc)
    assert s1.S == pytest.approx(0.76, abs=1e-15)
    assert s1.I[0] == pytest.approx(0.11, abs=1e-15)
    assert s1.R == pytest.approx(0.13, abs=1e-15)


def test_step_fig2_left_first_step(figures):
    sc = figures["fig2-left"]
    s1 = step(sc.initial, sc.params, sc.incidence)
    expected_i1 = 0.4 * 0.01 + 0.99 * -np.expm1(-0.002)
    assert s1.I[0] == pytest.approx(expected_i1, rel=1e-14)
    assert s1.I[1] == pytest.approx(0.006, rel=1e-15)
    assert s1.I[2] == 0.0
    assert s1.Z == pytest.approx(0.011978, abs=5e-7)
    assert s1.Z > sc.initial.Z  # prevalence rises despite subcritical R0


def test_step_dimension_mismatch():
    params = StageParams(gamma=[0.3, 0.4], N=1.0)
    inc = ExponentialIncidence([0.5], N=1.0)
    with pytest.raises(ValueError):
        step(EpidemicState(S=0.9, I=[0.05, 0.05], R=0.0), params, inc)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_step_conserves_population(seed):
    rng = np.random.default_rng(seed)
    params, inc = random_model(rng)
    state = random_initial(rng, params, seed_lo=-4, seed_hi=-0.5)
    before = state.total
    for _ in range(5):
        state = step(state, params, inc)
        assert abs(state.total - before) <= 1e-12 * params.N
        before = state.total


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_susceptibles_strictly_decrease_while_infectious(seed):
    # phi(I) > 0 exactly when the first-order-infectious mass r.I is
    # positive (a seed confined to r_j = 0 stages infects nobody yet)
    rng = np.random.default_rng(seed)
    params, inc = random_model(rng)
    state = random_initial(rng, params)
    for _ in range(8):
        nxt = step(state, params, inc)
        if float(inc.r @ state.I) > 0.0:
            assert nxt.S < state.S
        else:
            assert nxt.S == state.S
        state = nxt


def test_simulate_zero_seed_converges_at_t0():
    params = StageParams(gamma=[0.5], N=1.0)
    inc = ExponentialIncidence([0.4], N=1.0)
    traj = simulate(EpidemicState(S=0.9, I=[0.0], R=0.1), params, inc)
    assert traj.stop_reason == "converged"
    assert traj.n_steps == 0
    assert len(traj.S) == 1
    assert traj.phi[0] == 0.0


@pytest.mark.parametrize("path", ["kernel", "generic"])
def test_simulate_matches_iterated_step_bitwise(figures, path):
    sc = figures["fig2-left"]
    inc = sc.incidence
    if path == "generic":  # the same phi as a custom callable
        inc = CustomIncidence(inc._phi_raw, n=sc.params.n, N=sc.params.N)
    assert (inc.kernel_spec() is None) == (path == "generic")
    traj = simulate(sc.initial, sc.params, inc, sc.stopping)
    state = sc.initial
    for t in range(1, min(traj.n_steps, 200) + 1):
        state = step(state, sc.params, inc)
        assert state.S == traj.S[t]
        np.testing.assert_array_equal(state.I, traj.I[t])
        assert state.R == traj.R[t]


def test_simulate_converges_and_limits(figures):
    sc = figures["fig2-left"]
    traj = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    assert traj.stop_reason == "converged"
    assert 0.0 < traj.S_inf < sc.initial.S
    assert traj.Z[-1] < traj.eps_z
    # R nondecreasing, S nonincreasing throughout
    assert np.all(np.diff(traj.R) >= 0.0)
    assert np.all(np.diff(traj.S) <= 0.0)
    # S strictly decreasing while prevalence is numerically resolvable
    live = traj.Z[:-1] > 1e-9 * sc.params.N
    assert np.all(np.diff(traj.S)[live] < 0.0)


def test_positivity_from_stage_count_onwards(figures):
    # admissible starts fill every class within n steps and stay positive
    for sc in figures.values():
        traj = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
        n = sc.params.n
        upto = min(traj.n_steps + 1, n + 50)
        assert np.all(traj.I[n:upto] > 0.0)
        assert np.all(traj.R[n:upto] > 0.0)


def test_deep_run_conservation(figures):
    # population conservation holds to the accumulated-rounding budget
    # even over a ~1.5e4-step tail run
    sc = figures["fig2-left"]
    traj = simulate(sc.initial, sc.params, sc.incidence,
                    StoppingRule(eps_z=1e-245, eps_s=1e-245))
    total = traj.S + traj.Z + traj.R
    assert traj.n_steps > 10_000
    assert np.max(np.abs(total - sc.params.N)) <= 1e-9 * sc.params.N


def test_simulate_max_steps_stop():
    params = StageParams(gamma=[0.5], N=1.0)
    inc = ExponentialIncidence([1.2], N=1.0)
    traj = simulate(
        EpidemicState(S=1 - 1e-4, I=[1e-4], R=0.0), params, inc,
        StoppingRule(max_steps=5),
    )
    assert traj.stop_reason == "max-steps"
    assert traj.n_steps == 5
    assert len(traj.S) == 6


def test_simulate_incompatible_inputs():
    params = StageParams(gamma=[0.5], N=1.0)
    with pytest.raises(ValueError):
        simulate(EpidemicState(S=0.9, I=[0.1], R=0.0), params,
                 ExponentialIncidence([0.5], N=2.0))


def test_multi_chunk_growth_matches_single_chunk(monkeypatch, figures):
    sc = figures["fig2-left"]
    ref = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    monkeypatch.setattr(model_mod, "BLOCK_ROWS", 7)
    chunked = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    assert chunked.stop_reason == ref.stop_reason
    np.testing.assert_array_equal(chunked.S, ref.S)
    np.testing.assert_array_equal(chunked.I, ref.I)
    np.testing.assert_array_equal(chunked.R, ref.R)
    np.testing.assert_array_equal(chunked.phi, ref.phi)


@pytest.mark.parametrize("path", ["kernel", "custom"])
@pytest.mark.parametrize("edge", ["max-steps-one-block", "max-steps-two-blocks",
                                  "converged-on-a-block-end"])
def test_block_edges_match_small_blocks(monkeypatch, figures, path, edge):
    # a run whose last row is a block's last row: the stop reason and every
    # row must be those of the same run stepped in blocks of 7 rows
    sc, inc = _fig2_left(figures, path)
    B = model_mod.BLOCK_ROWS
    if edge == "converged-on-a-block-end":
        free = simulate(sc.initial, sc.params, inc,
                        StoppingRule(max_steps=3 * B, eps_z=0.0, eps_s=0.0))
        rule = StoppingRule(max_steps=3 * B, eps_z=float(np.nextafter(free.Z[2 * B - 1], 1.0)),
                            eps_s=1.0)
        rows, reason = 2 * B, "converged"
    else:
        rows = B if edge == "max-steps-one-block" else 2 * B
        rule, reason = StoppingRule(max_steps=rows - 1, eps_z=0.0, eps_s=0.0), "max-steps"
    traj = simulate(sc.initial, sc.params, inc, rule)
    monkeypatch.setattr(model_mod, "BLOCK_ROWS", 7)
    small = simulate(sc.initial, sc.params, inc, rule)
    assert (traj.stop_reason, len(traj.S)) == (small.stop_reason, len(small.S)) == (reason, rows)
    for name in ("S", "I", "R", "phi", "Z"):
        assert getattr(traj, name).tobytes() == getattr(small, name).tobytes(), name


def test_generic_python_path_matches_kernel(figures):
    import math

    from spepi import CustomIncidence

    sc = figures["fig2-left"]
    beta = sc.incidence.beta

    def f(I):
        x = 0.0
        for j in range(3):
            x += beta[j] * I[j]
        return -math.expm1(-x)

    custom = CustomIncidence(f, n=3, N=1.0)
    ref = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    alt = simulate(sc.initial, sc.params, custom, sc.stopping)
    assert alt.n_steps == ref.n_steps
    np.testing.assert_allclose(alt.S, ref.S, rtol=0, atol=0)
    np.testing.assert_allclose(alt.I, ref.I, rtol=0, atol=0)


def _sequential(v):
    z = 0.0
    for x in v:
        z += x
    return z


@pytest.mark.parametrize("n", [10, 11, 12])
def test_generic_stop_rule_sums_like_the_kernel(n):
    # for n >= 8 numpy's pairwise I.sum() adds in another order than the
    # kernel's sequential loop; with eps_z between the two sums of ||I(t)||_1
    # the kernel and the generic path must still stop at the same step
    params = StageParams(gamma=np.full(n, 0.3), N=1.0)
    inc = ExponentialIncidence(np.full(n, 0.02), N=1.0)
    mirror = CustomIncidence(inc._phi_raw, n=n, N=1.0)
    initial = EpidemicState(S=0.99, I=[0.01] + [0.0] * (n - 1), R=0.0)
    free = simulate(initial, params, inc, StoppingRule(max_steps=400, eps_z=0.0, eps_s=0.0))
    seq = [_sequential(v) for v in free.I]
    pairwise = [float(v.sum()) for v in free.I]
    t = next(t for t in range(1, free.n_steps + 1)
             if seq[t] != pairwise[t]
             and min(seq[1:t] + pairwise[1:t], default=math.inf) >= max(seq[t], pairwise[t]))
    rule = StoppingRule(max_steps=400, eps_z=max(seq[t], pairwise[t]), eps_s=1.0)
    a = simulate(initial, params, inc, rule)
    b = simulate(initial, params, mirror, rule)
    assert a.stop_reason == b.stop_reason == "converged"
    assert a.n_steps == b.n_steps
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.I, b.I)


@pytest.mark.parametrize("path", ["kernel", "generic"])
def test_converged_run_records_z_below_eps_z(path):
    # with n = 10 numpy's pairwise I.sum() and the stop rule's sequential
    # sum differ in the last digit; eps_z at the pairwise sum of a step where
    # the sequential one is smaller stops the run there, and the recorded Z
    # must be the sum the stop rule tested
    n = 10
    params = StageParams(gamma=np.full(n, 0.3), N=1.0)
    inc = ExponentialIncidence(np.full(n, 0.02), N=1.0)
    if path == "generic":
        inc = CustomIncidence(inc._phi_raw, n=n, N=1.0)
    initial = EpidemicState(S=0.99, I=[0.01] + [0.0] * (n - 1), R=0.0)
    free = simulate(initial, params, inc, StoppingRule(max_steps=400, eps_z=0.0, eps_s=0.0))
    seq = [_sequential(v) for v in free.I]
    pairwise = [float(v.sum()) for v in free.I]
    t = next(t for t in range(1, free.n_steps + 1)
             if seq[t] < pairwise[t] and min(seq[1:t], default=math.inf) >= pairwise[t])
    traj = simulate(initial, params, inc,
                    StoppingRule(max_steps=400, eps_z=pairwise[t], eps_s=1.0))
    assert traj.stop_reason == "converged" and traj.n_steps == t
    assert traj.Z[-1] < traj.eps_z
    assert traj.Z.tolist() == seq[:t + 1]


@pytest.mark.parametrize("path", ["kernel", "generic"])
def test_state_z_is_the_recorded_z(path):
    # a state read back from a run has the prevalence the run recorded; with
    # n = 10 numpy's pairwise I.sum() differs from the stop rule's
    # sequential sum in the last digit on 61 of these 201 rows
    n = 10
    params = StageParams(gamma=np.full(n, 0.3), N=1.0)
    inc = ExponentialIncidence(np.full(n, 0.02), N=1.0)
    if path == "generic":
        inc = CustomIncidence(inc._phi_raw, n=n, N=1.0)
    initial = EpidemicState(S=0.99, I=[0.01] + [0.0] * (n - 1), R=0.0)
    traj = simulate(initial, params, inc, StoppingRule(max_steps=200, eps_z=0.0, eps_s=0.0))
    assert traj.n_steps == 200
    for t in range(traj.n_steps + 1):
        assert traj.state(t).Z == traj.Z[t], t


@pytest.mark.parametrize("func, message", [
    (lambda I: math.nan if I.any() else 0.0, r"^step 0: phi = nan lies outside \[0, 1\)"),
    (lambda I: 50.0 * float(I.sum()), r"^step 0: phi = 1\.0 lies outside \[0, 1\)"),
    (lambda I: 1.0 if I.any() else 0.0, r"^step 0: phi = 1\.0 lies outside \[0, 1\)"),
], ids=["nan", "fifty-Z", "one"])
def test_generic_path_rejects_invalid_phi(func, message):
    # unchecked, a NaN phi runs all max_steps to S_inf = nan, and phi = 50 Z
    # (1.0 at Z(0) = 0.02) or phi = 1 empties S in one step and then
    # "converges" with S_inf = 0
    params = StageParams(gamma=[0.5, 0.5], N=1.0)
    inc = CustomIncidence(func, n=2, N=1.0, grad=lambda I: [1.0, 1.0])
    initial = EpidemicState(S=0.98, I=[0.02, 0.0], R=0.0)
    with pytest.raises(DomainError, match=message):
        simulate(initial, params, inc, StoppingRule(max_steps=20_000))
    with pytest.raises(DomainError, match="outside"):
        inc.phi([0.5, 0.5])


@pytest.mark.parametrize("block_rows", [4096, 1, 2])
@pytest.mark.parametrize("S0, beta, step_no", [(0.2, 50.0, 0), (0.99, 60.0, 2)])
def test_kernel_path_rejects_phi_one(monkeypatch, block_rows, S0, beta, step_no):
    # -expm1(-x) rounds to 1.0 for x above about 37; unchecked, the kernel
    # emptied S in one step and "converged" with S_inf = 0.  The step is
    # counted across blocks, and the message is the generic path's own.
    monkeypatch.setattr("spepi.model.BLOCK_ROWS", block_rows)
    params = StageParams(gamma=[0.5], N=1.0)
    inc = ExponentialIncidence([beta], N=1.0)
    initial = EpidemicState(S=S0, I=[1.0 - S0], R=0.0)
    message = f"step {step_no}: phi = 1.0 lies outside [0, 1)"
    assert inc.kernel_spec() is not None
    with pytest.raises(DomainError) as kernel:
        simulate(initial, params, inc)
    assert str(kernel.value) == message
    mirror = CustomIncidence(inc._phi_raw, n=1, N=1.0)
    with pytest.raises(DomainError) as generic:
        simulate(initial, params, mirror)
    assert str(generic.value) == message


def _fig2_left(figures, path):
    """fig2-left's scenario and its incidence, or a custom mirror of it."""
    sc = figures["fig2-left"]
    inc = sc.incidence
    if path == "custom":
        inc = CustomIncidence(inc._phi_raw, n=inc.n, N=inc.N, grad=inc._grad_raw)
    assert (inc.kernel_spec() is None) == (path == "custom")
    return sc, inc


@pytest.mark.parametrize("field, stage, value, cause", [
    ("phi", 0, 1.5, "phi = 1.5 lies outside [0, 1)"),
    ("phi", 0, math.nan, "phi = nan lies outside [0, 1)"),
    ("S", 0, math.nan, "S = nan is not finite"),
    ("I", 1, math.inf, "I2 = inf is not finite"),
    ("R", 0, -1e-300, "R = -1e-300 is negative"),
    ("Z", 0, -0.25, "Z = -0.25 is negative"),
    ("S", 0, 0.5, "S + Z + R = "),
], ids=["phi-above-one", "phi-nan", "S-nan", "I-inf", "R-negative", "Z-negative", "drift"])
@pytest.mark.parametrize("path, step_no", [
    pytest.param(path, step_no, id=f"{step_no}" if path == "kernel" else f"custom-{step_no}")
    for path in ("kernel", "custom") for step_no in (0, 3, 9)
])
def test_kernel_chunk_check_names_step_and_cause(monkeypatch, figures, path, field, stage,
                                                  value, cause, step_no):
    # blocks of 4 rows: step 9 lies in the third block
    monkeypatch.setattr("spepi.model.BLOCK_ROWS", 4)
    sc, inc = _fig2_left(figures, path)
    corrupt_one_row(monkeypatch, step_no, field, value, stage)
    with pytest.raises(DynamicsError) as err:
        simulate(sc.initial, sc.params, inc)
    assert err.value.step == step_no
    assert err.value.cause.startswith(cause)
    assert str(err.value) == f"step {step_no}: {err.value.cause}"
    assert isinstance(err.value, DomainError)


def test_kernel_chunk_check_reports_drift_beyond_tolerance(monkeypatch, figures):
    for path in ("kernel", "custom"):
        sc, inc = _fig2_left(figures, path)
        traj = simulate(sc.initial, sc.params, inc)
        S5 = float(traj.S[5])
        N = sc.params.N
        corrupt_one_row(monkeypatch, 5, "S", S5 + 2e-9 * N)
        with pytest.raises(DynamicsError, match=r"^step 5: S \+ Z \+ R = .* drifts from "
                                                 r"N = 1\.0 by more than 1e-09 N$"):
            simulate(sc.initial, sc.params, inc)
        monkeypatch.undo()
        corrupt_one_row(monkeypatch, 5, "S", S5 + 0.5e-9 * N)  # within the tolerance
        np.testing.assert_array_equal(simulate(sc.initial, sc.params, inc).Z, traj.Z)
        monkeypatch.undo()


def test_custom_phi_outside_range_stops_the_run_at_its_step():
    # the callable returns 1.5 at a step past two blocks; the run must stop
    # there, and never call it on the state that an inadmissible phi would
    # step to
    step_no = 2 * model_mod.BLOCK_ROWS + 5
    beta = np.array([0.2, 0.2, 0.1])
    calls = [0]

    def f(I):
        t = calls[0]
        calls[0] += 1
        assert t <= step_no, f"called again at step {t}"
        return 1.5 if t == step_no else -math.expm1(-float(beta @ I))

    inc = CustomIncidence(f, n=3, N=1.0, grad=lambda I: beta * math.exp(-float(beta @ I)))
    calls[0] = 0  # construction evaluated phi(0)
    initial = EpidemicState(S=0.99, I=[0.01, 0.0, 0.0], R=0.0)
    with pytest.raises(DynamicsError) as err:
        simulate(initial, StageParams(gamma=[0.6, 0.7, 0.3], N=1.0), inc,
                 StoppingRule(max_steps=10**5, eps_z=0.0, eps_s=0.0))
    assert err.value.step == step_no
    assert str(err.value) == f"step {step_no}: phi = 1.5 lies outside [0, 1)"
    assert calls[0] == step_no + 1


def test_custom_models_step_through_run_chunk(monkeypatch, figures):
    # a custom run's chunks pass through _kernels.run_chunk with a phi_fn,
    # and together they record every row of its trajectory
    real, chunks = kernels.run_chunk, []

    def run_chunk(*args):
        result = real(*args)
        chunks.append((result[0], args[17]))
        return result

    sc, inc = _fig2_left(figures, "custom")
    ref = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    monkeypatch.setattr(kernels, "run_chunk", run_chunk)
    traj = simulate(sc.initial, sc.params, inc, sc.stopping)
    assert traj.stop_reason == ref.stop_reason == "converged"
    np.testing.assert_array_equal(traj.S, ref.S)
    assert chunks and all(callable(phi_fn) for _, phi_fn in chunks)
    assert sum(rows for rows, _ in chunks) == len(traj.S)
