"""Prevalence balance, rise/decay predicates, shape classification."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spepi import (
    EpidemicState,
    ExponentialIncidence,
    LastClassIncidence,
    StageParams,
    StoppingRule,
    Trajectory,
    classify_shape,
    initial_rise_predicate_general,
    is_rise_then_fall,
    outbreak_predicate_lastclass,
    monotone_decay_ratio_check,
    simulate,
    step,
    threshold_decay_predicate,
    r0,
)
import spepi.prevalence as prevalence
from spepi.prevalence import (
    FLAT_STEP_TOL_REL,
    RATIO_SLACK_REL,
    PrevalenceShape,
    ThresholdDecayResult,
)

from conftest import random_initial, random_lastclass_model, random_model


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_prevalence_balance_identity(seed):
    # Z(t+1) - Z(t) = S(t) phi(I(t)) - g_n I_n(t), exactly up to rounding
    rng = np.random.default_rng(seed)
    params, inc = random_model(rng)
    traj = simulate(random_initial(rng, params), params, inc,
                    StoppingRule(max_steps=200))
    Z = traj.Z
    gn = params.gamma[-1]
    for t in range(min(traj.n_steps, 50)):
        balance = traj.S[t] * traj.phi[t] - gn * traj.I[t, -1]
        assert abs((Z[t + 1] - Z[t]) - balance) <= 1e-12 * params.N


def test_prevalence_series_values(figures):
    sc = figures["fig2-left"]
    traj = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    Z = traj.Z
    assert np.any(np.diff(Z) > 0.0)  # a strict rise despite subcritical R0

    params = StageParams(gamma=[0.5], N=1.0)
    inc = ExponentialIncidence([0.4], N=1.0)
    flat = simulate(EpidemicState(S=1.0, I=[0.0], R=0.0), params, inc)
    np.testing.assert_array_equal(flat.Z, [0.0])


def test_initial_rise_predicate_fig2_left(figures):
    sc = figures["fig2-left"]
    pred = initial_rise_predicate_general(sc.initial, sc.params, sc.incidence)
    assert pred.predicted is True
    traj = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    assert traj.Z[1] > traj.Z[0]


def test_initial_rise_predicate_is_exact_both_ways():
    # the one-step balance flips exactly at I_n(0) = c
    params = StageParams(gamma=[0.6, 0.7, 0.3], N=1.0)
    inc = ExponentialIncidence([0.2, 0.2, 0.1], N=1.0)
    for i3, expect_rise in ((0.001, True), (0.05, False)):
        initial = EpidemicState(S=0.9, I=[0.01, 0.0, i3], R=0.09 - i3)
        pred = initial_rise_predicate_general(initial, params, inc)
        assert pred.predicted is expect_rise
        nxt = step(initial, params, inc)
        assert (nxt.Z > initial.Z) is expect_rise


def test_initial_rise_predicate_defers_without_early_infectivity():
    params = StageParams(gamma=[0.5, 0.5], N=1.0)
    inc = LastClassIncidence(n=2, N=1.0, kind="exponential", beta=2.0)
    initial = EpidemicState(S=0.99, I=[0.0, 0.01], R=0.0)
    pred = initial_rise_predicate_general(initial, params, inc)
    assert pred.predicted is None
    assert "no earlier stage" in pred.reason


def test_threshold_decay_from_start_when_subthreshold():
    # S(0) < N/R0: the prevalence decays from t = 0 on, and the infected
    # stages also lock into componentwise-strict decay that persists
    from spepi import monotonicity_onset

    N = 1.0
    params = StageParams(gamma=[0.5], N=N)
    inc = LastClassIncidence(n=1, N=N, kind="exponential", beta=1.0)  # R0 = 2
    initial = EpidemicState(S=0.3, I=[0.05], R=0.65)
    traj = simulate(initial, params, inc, StoppingRule())
    rep = threshold_decay_predicate(traj)
    assert rep.holds_from == 0
    assert rep.verified
    mono = monotonicity_onset(traj)
    assert mono.onset == 0
    assert mono.persistent


def test_threshold_decay_subcritical_R0():
    # R0 < 1 implies S(0) < N <= N/R0, decay from the start
    params = StageParams(gamma=[0.5, 0.6], N=1.0)
    inc = LastClassIncidence(n=2, N=1.0, kind="linear", beta=0.4)  # R0 = 2/3
    initial = EpidemicState(S=0.98, I=[0.0, 0.02], R=0.0)
    traj = simulate(initial, params, inc)
    rep = threshold_decay_predicate(traj)
    assert rep.holds_from == 0
    assert rep.verified


def test_threshold_decay_crossing_time_seir():
    # SEIR-style: supercritical start, the crossing happens mid-run
    N = 1.0
    params = StageParams(gamma=[0.4, 0.5], N=N)
    inc = LastClassIncidence(n=2, N=N, kind="exponential", beta=1.5)  # R0 = 3
    initial = EpidemicState(S=0.999, I=[0.0, 0.001], R=0.0)
    traj = simulate(initial, params, inc)
    rep = threshold_decay_predicate(traj)
    assert rep.holds_from is not None and rep.holds_from > 0
    assert traj.S[rep.holds_from] < N / 3.0
    assert traj.S[rep.holds_from - 1] >= N / 3.0
    assert rep.verified


def test_threshold_decay_needs_lastclass_structure(figures):
    sc = figures["fig2-left"]  # r_1, r_2 > 0
    traj = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    with pytest.raises(ValueError):
        threshold_decay_predicate(traj)


def test_rise_predicate_names_a_stage_count_mismatch():
    # it used to fail inside phi: "infected vector has shape (3,), expected (2,)"
    params = StageParams(gamma=[0.5, 0.5, 0.5], N=1.0)
    initial = EpidemicState(S=0.99, I=[0.01, 0.0, 0.0], R=0.0)
    with pytest.raises(ValueError, match="^incidence is built for 2 stages, params have 3$"):
        initial_rise_predicate_general(initial, params, ExponentialIncidence([0.5, 0.5], N=1.0))


def test_outbreak_lastclass_sir_rise():
    N = 1.0
    params = StageParams(gamma=[0.5], N=N)
    inc = LastClassIncidence(n=1, N=N, kind="exponential", beta=1.0)  # R0 = 2
    initial = EpidemicState(S=0.99, I=[0.01], R=0.0)
    res = outbreak_predicate_lastclass(initial, params, inc)
    assert res.rise_predicted
    assert res.eta_witness == pytest.approx(0.01)
    nxt = step(initial, params, inc)
    assert nxt.Z > initial.Z


def test_outbreak_lastclass_window_enforced():
    N = 1.0
    params = StageParams(gamma=[0.5], N=N)
    inc = LastClassIncidence(n=1, N=N, kind="exponential", beta=1.0)
    with pytest.raises(ValueError):
        outbreak_predicate_lastclass(
            EpidemicState(S=0.3, I=[0.05], R=0.65), params, inc
        )


def test_outbreak_lastclass_eta_search_seir():
    # saturated large seed: one step falls, but halving finds the rise regime
    N = 1.0
    params = StageParams(gamma=[0.4, 0.9], N=N)
    inc = LastClassIncidence(n=2, N=N, kind="exponential", beta=6.0)
    initial = EpidemicState(S=0.2, I=[0.0, 0.4], R=0.4)
    assert N / (N * 6.0 / 0.9) < 0.2 < N  # inside the outbreak window
    res = outbreak_predicate_lastclass(initial, params, inc)
    assert res.rise_predicted is False
    assert res.eta_witness is not None and 0.0 < res.eta_witness < 0.4
    gain = 0.2 * inc.scalar_phi(res.eta_witness) - 0.9 * res.eta_witness
    assert gain > 0.0


def test_ratio_condition_families():
    lin = LastClassIncidence(n=1, N=1.0, kind="linear", beta=0.8)
    assert monotone_decay_ratio_check(lin) is True
    exp = LastClassIncidence(n=2, N=1.0, kind="exponential", beta=2.0)
    assert monotone_decay_ratio_check(exp) is True

    r = 0.5
    sub = LastClassIncidence(
        n=1, N=1.0, kind="custom",
        func=lambda x: r * x / (1.0 + 2.0 * r * x),
        deriv=lambda x: r / (1.0 + 2.0 * r * x) ** 2,
    )
    assert monotone_decay_ratio_check(sub) is False


def test_last_class_predicates_reject_other_incidences(figures):
    sc = figures["fig2-left"]
    with pytest.raises(TypeError, match="^last-class outbreak predicate needs a LastClassIncidence$"):
        outbreak_predicate_lastclass(sc.initial, sc.params, sc.incidence)
    with pytest.raises(TypeError, match="^ratio check applies to last-class incidence only$"):
        monotone_decay_ratio_check(sc.incidence)


def test_once_decreasing_stays_decreasing_lastclass():
    # ratio-condition families: after the first resolved fall, Z never rises.
    # The one-step motion is read from the balance S phi - g_n I_n (summing
    # the stages makes Z itself wiggle by +-1 ulp during exactly-flat
    # phases); "resolved" means beyond the identity's rounding budget.
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(25):
        params, inc = random_lastclass_model(rng)
        assert monotone_decay_ratio_check(inc)
        initial = random_initial(rng, params)
        traj = simulate(initial, params, inc,
                        StoppingRule(eps_z=1e-13 * params.N))
        gn = params.gamma[-1]
        d = traj.S[:-1] * traj.phi[:-1] - gn * traj.I[:-1, -1]
        tol = 1e-12 * params.N
        falls = np.nonzero(d < -tol)[0]
        if falls.size == 0:
            continue
        checked += 1
        assert np.all(d[falls[0]:] <= tol)
    assert checked >= 10  # the draw box must actually exercise the claim


def test_classify_shape_basic_buckets():
    assert classify_shape([5.0, 4.0, 3.0, 1.0]).classification == "monotone-decreasing"
    assert classify_shape([5.0, 4.0, 4.0, 1.0]).classification == "monotone-decreasing"
    s = classify_shape([1.0, 3.0, 2.0, 1.0])
    assert s.classification == "single-peak"
    assert s.peak_times == (1,)
    assert s.initial_rise
    m = classify_shape([3.0, 1.0, 2.0, 0.5])
    assert m.classification == "multi-peak"
    assert m.peak_times == (0, 2)
    assert not m.initial_rise
    # plateau at the top collapses to one extremum
    p = classify_shape([1.0, 2.0, 2.0, 1.0])
    assert p.classification == "single-peak"
    assert p.peak_times == (1,)
    # degenerate single value
    assert classify_shape([0.0]).classification == "monotone-decreasing"
    with pytest.raises(ValueError, match="^Z must be a nonempty 1-d series$"):
        classify_shape([])


def test_classify_shape_figures(figures):
    runs = {
        name: simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
        for name, sc in figures.items()
    }
    shape = classify_shape(runs["fig2-left"].Z)
    assert shape.initial_rise and shape.classification == "single-peak"

    shape = classify_shape(runs["fig2-right"].Z)
    assert shape.classification != "monotone-decreasing"

    shape = classify_shape(runs["fig3-top-left"].Z)
    assert not shape.initial_rise
    assert any(t > 0 for t in shape.peak_times)  # a later peak exists

    shape = classify_shape(runs["fig3-bottom"].Z)
    assert shape.classification == "multi-peak"  # not single-peaked


def test_is_rise_then_fall():
    assert is_rise_then_fall([1.0, 2.0, 3.0, 2.0, 1.0, 0.5])
    assert not is_rise_then_fall([3.0, 2.0, 1.0])          # no rise
    assert not is_rise_then_fall([1.0, 2.0, 3.0])          # no fall
    assert not is_rise_then_fall([1.0, 2.0, 1.5, 1.7, 0.5])  # wiggle after peak
    assert not is_rise_then_fall([2.0, 1.0, 3.0, 0.5])     # dip first


# Loop forms of the three series scans, kept as references for their
# array versions: each result, field for field and type for type, must
# equal what these give.

def _classify_shape_loop(Z):
    Z = np.asarray(Z, dtype=float)
    initial_rise = bool(Z.size > 1 and Z[1] > Z[0])
    vals = [float(Z[0])]
    starts = [0]
    for t in range(1, Z.size):
        z = float(Z[t])
        if z != vals[-1]:
            vals.append(z)
            starts.append(t)
    peaks = []
    m = len(vals)
    for k in range(m):
        left_ok = k == 0 or vals[k] > vals[k - 1]
        right_ok = k == m - 1 or vals[k] > vals[k + 1]
        if m > 1 and left_ok and right_ok:
            peaks.append(starts[k])
    if m == 1 or all(vals[k] > vals[k + 1] for k in range(m - 1)):
        classification = "monotone-decreasing"
        if m > 1:
            peaks = []
    elif len(peaks) >= 2:
        classification = "multi-peak"
    else:
        classification = "single-peak"
    return PrevalenceShape(classification, tuple(peaks), initial_rise)


def _is_rise_then_fall_loop(Z):
    Z = np.asarray(Z, dtype=float)
    if Z.size < 3:
        return False
    d = np.diff(Z)
    if not d[0] > 0.0:
        return False
    p = 0
    while p < d.size and d[p] > 0.0:
        p += 1
    return bool(np.all(d[p:] < 0.0)) and p < d.size


def _threshold_decay_loop(trajectory):
    threshold = trajectory.params.N / r0(trajectory.params, trajectory.incidence)
    below = np.nonzero(trajectory.S < threshold)[0]
    if below.size == 0:
        return ThresholdDecayResult(holds_from=None, verified=True, first_violation=None)
    t_star = int(below[0])
    Z = trajectory.Z
    In = trajectory.I[:, -1]
    flat_tol = FLAT_STEP_TOL_REL * trajectory.params.N
    for t in range(t_star, trajectory.n_steps):
        if In[t] > 0.0:
            ok = Z[t + 1] < Z[t]
        else:
            ok = abs(Z[t + 1] - Z[t]) <= flat_tol
        if not ok:
            return ThresholdDecayResult(holds_from=t_star, verified=False, first_violation=t)
    return ThresholdDecayResult(holds_from=t_star, verified=True, first_violation=None)


def _typed(x):
    """A value with the type of every part of it, for exact comparison."""
    if dataclasses.is_dataclass(x):
        return [(f.name, _typed(getattr(x, f.name))) for f in dataclasses.fields(x)]
    if isinstance(x, tuple):
        return tuple(_typed(v) for v in x)
    return type(x), x


# small pools, so that plateaus, ties and -0.0 come up often
_SHAPE_POOL = [0.0, -0.0, 1.0, 2.0, 2.5, 3.0, math.nan, math.inf, -math.inf]
_FINITE_POOL = [0.0, -0.0, 1.0, 1.5, 2.0, 3.0]


@given(st.lists(st.sampled_from(_SHAPE_POOL), min_size=1, max_size=24))
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_classify_shape_matches_its_loop_form(Z):
    assert _typed(classify_shape(Z)) == _typed(_classify_shape_loop(Z))


@given(st.lists(st.sampled_from(_FINITE_POOL), min_size=0, max_size=24))
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_is_rise_then_fall_matches_its_loop_form(Z):
    assert _typed(is_rise_then_fall(Z)) == _typed(_is_rise_then_fall_loop(Z))


@given(
    st.sampled_from([0.5, 1.0, 4.0]),
    st.lists(
        st.tuples(
            st.sampled_from([0.25, 0.5, 1.0, 2.0]),  # S(t) over N/R0
            st.sampled_from([0.0, -0.0, 0.01]),  # I_n(t) over N
            # Z(t) over N: steps of 0, +-1e-13 and exactly the flat tolerance
            st.sampled_from([0.0, FLAT_STEP_TOL_REL, 2 * FLAT_STEP_TOL_REL,
                             0.5 - 1e-13, 0.5, 0.5 + 1e-13, 0.6]),
        ),
        min_size=1, max_size=24,
    ),
)
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_threshold_decay_predicate_matches_its_loop_form(N, rows):
    params = StageParams(gamma=[0.5, 0.25], N=N)
    inc = LastClassIncidence(n=2, N=N, kind="exponential", beta=2.0 / N)
    threshold = N / r0(params, inc)
    S = np.array([s for s, _, _ in rows]) * threshold
    I = np.zeros((len(rows), 2))
    I[:, -1] = [i * N for _, i, _ in rows]
    Z = np.array([z * N for _, _, z in rows])
    traj = Trajectory(
        params=params, incidence=inc, S=S, I=I, R=N - S - Z, phi=np.zeros(len(rows)),
        Z=Z, stop_reason="max-steps", eps_z=0.0, eps_s=0.0, max_steps=len(rows),
    )
    got = threshold_decay_predicate(traj)
    assert _typed(got) == _typed(_threshold_decay_loop(traj))


def _ratio_check_loop(incidence):
    """The point-by-point form of ``monotone_decay_ratio_check`` for a custom
    profile: the reference for its bound array."""
    rn = float(incidence.r[-1])
    points = prevalence.RATIO_GRID_POINTS
    for x in np.linspace(incidence.N / points, incidence.N, points):
        bound = rn * x / (1.0 + rn * x)
        if incidence.scalar_phi(float(x)) < bound * (1.0 - RATIO_SLACK_REL) - 1e-300:
            return False
    return True


_RATIO_POINTS = 16  # a short grid keeps the thorough profile fast


@given(
    st.sampled_from([0.5, 1.0, 4.0]),
    st.sampled_from([0.5, 1.0, 3.0]),
    # the profile at each grid point, against the slackened bound there
    st.lists(st.sampled_from(["above", "at", "below", "nan", "zero", "one"]),
             min_size=_RATIO_POINTS, max_size=_RATIO_POINTS),
)
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_monotone_decay_ratio_check_matches_its_loop_form(N, rn, kinds):
    xs = np.linspace(N / _RATIO_POINTS, N, _RATIO_POINTS).tolist()
    values = {}
    for x, kind in zip(xs, kinds):
        at = rn * x / (1.0 + rn * x) * (1.0 - RATIO_SLACK_REL) - 1e-300
        values[x] = {"above": math.nextafter(at, math.inf), "at": at,
                     "below": math.nextafter(at, -math.inf), "nan": math.nan,
                     "zero": 0.0, "one": 1.0}[kind]
    calls = []

    def profile(x):
        calls.append(x)
        return values.get(x, 0.0)

    inc = LastClassIncidence(n=2, N=N, kind="custom", func=profile, deriv=lambda x: rn)
    with mock.patch.object(prevalence, "RATIO_GRID_POINTS", _RATIO_POINTS):
        del calls[:]
        got, got_calls = monotone_decay_ratio_check(inc), list(calls)
        del calls[:]
        want = _ratio_check_loop(inc)
    # the same verdict from the same calls: the scan stops at the first value
    # below the bound, and NaN is never below it
    assert (type(got), got, got_calls) == (bool, want, calls)
