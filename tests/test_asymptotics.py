"""Final size (equation, simulation, bounds), tail sums, limit direction."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spepi import (
    ContactDistribution,
    CustomIncidence,
    EpidemicState,
    ExponentialIncidence,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
    StageParams,
    StoppingRule,
    Trajectory,
    compose_incidence,
    final_size_bounds,
    final_size_equation_solve,
    final_size_simulate,
    limit_direction,
    monotonicity_onset,
    poisson_incidence,
    r0,
    simulate,
    tail_sum_check,
)
from spepi.asymptotics import MonotonicityReport, TailSumReport

from conftest import random_initial, random_model


def _classical_root(S0: float, R0: float, N: float = 1.0) -> float:
    """Independent bisection oracle for log(S0/x) = R0 (1 - x/N)."""

    def g(x):
        return math.log(S0 / x) - R0 * (1.0 - x / N)

    lo, hi = 1e-300, N / R0
    assert g(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_classical_reduction_r0_2():
    # single-stage start with S(0) + I(0) = N and R0 = 2
    N, I0 = 1.0, 1e-6
    params = StageParams(gamma=[0.5], N=N)
    inc = ExponentialIncidence([1.0], N=N)  # R0 = N beta/gamma = 2
    initial = EpidemicState(S=N - I0, I=[I0], R=0.0)

    oracle = _classical_root(N - I0, 2.0, N)
    assert oracle == pytest.approx(0.2031875276966587, rel=1e-12)
    assert oracle == pytest.approx(0.203188, abs=5e-7)

    eq = final_size_equation_solve(initial, params, inc)
    assert abs(eq.s_inf - oracle) <= 1e-12 * N

    sim = final_size_simulate(initial, params, inc)
    assert abs(sim.s_inf - oracle) <= 1e-6 * N
    assert abs(sim.s_inf - eq.s_inf) <= 1e-8 * N


def test_final_size_equation_low_transmission_limit():
    # beta -> 0: the root approaches S(0)
    N = 1.0
    params = StageParams(gamma=[0.5], N=N)
    initial = EpidemicState(S=0.9, I=[0.1], R=0.0)
    for beta in (1e-6, 1e-9):
        eq = final_size_equation_solve(initial, params, ExponentialIncidence([beta], N=N))
        assert eq.s_inf == pytest.approx(initial.S, rel=1e-4)


def test_final_size_equation_matches_simulation_fig2_left(figures):
    sc = figures["fig2-left"]
    eq = final_size_equation_solve(sc.initial, sc.params, sc.incidence)
    sim = final_size_simulate(sc.initial, sc.params, sc.incidence)
    assert abs(eq.s_inf - sim.s_inf) <= 1e-8 * sc.params.N
    assert eq.s_inf < 1.0 / (0.2 / 0.6 + 0.2 / 0.7 + 0.1 / 0.3)  # strict bound


def test_final_size_equation_guards():
    N = 1.0
    params = StageParams(gamma=[0.5], N=N)
    with pytest.raises(TypeError):
        final_size_equation_solve(
            EpidemicState(S=0.9, I=[0.1], R=0.0), params, LinearIncidence([0.5], N=N)
        )
    # every other family the equation does not hold for
    two = StageParams(gamma=[0.5, 0.4], N=N)
    for inc in (LastClassIncidence(n=2, N=N, kind="linear", beta=0.5),
                SplitExponentialIncidence([0.5, 0.5], [0.3, 0.2], N=N),
                poisson_incidence(2.0, ExponentialIncidence([0.3, 0.2], N=N)),
                compose_incidence(LinearIncidence([0.3, 0.2], N=N),
                                  ContactDistribution.explicit([0.5, 0.5])),
                CustomIncidence(lambda I: -math.expm1(-0.3 * I[0] - 0.2 * I[1]), n=2, N=N)):
        with pytest.raises(TypeError):
            final_size_equation_solve(EpidemicState(S=0.9, I=[0.06, 0.04], R=0.0), two, inc)
    with pytest.raises(ValueError):
        final_size_equation_solve(
            EpidemicState(S=1.0, I=[0.0], R=0.0), params, ExponentialIncidence([1.0], N=N)
        )


def _mp_final_size_root(initial, params, inc):
    """The final-size root at 60 digits, for the double-precision C and R0
    that final_size_equation_solve evaluates; solved in y = log x, where
    log S0 - y - C + R0 e^y / N is smooth however small the root is."""
    mpmath = pytest.importorskip("mpmath")
    S0, N = initial.S, params.N
    R0 = r0(params, inc)
    C = float(((inc.r / params.gamma) * (S0 + np.cumsum(initial.I))).sum())
    with mpmath.workdps(60):
        y = mpmath.findroot(
            lambda y: mpmath.log(S0) - y - C + R0 * mpmath.exp(y) / N,
            (mpmath.log(S0) - C - 1, mpmath.log(min(S0, N / R0))), solver="anderson",
        )
        return mpmath.exp(y)


@pytest.mark.parametrize("seed", [1e-17, 1e-20, 1e-300])
def test_final_size_root_for_a_seed_lost_in_rounding(seed):
    # C = sum_j (r_j/g_j)(S0 + cumsum(I0)_j) rounds to R0 S0 / N, so g(S0)
    # rounds to 0; this used to raise "no sign change on the final-size
    # bracket; initial condition violated"
    mpmath = pytest.importorskip("mpmath")
    params = StageParams(gamma=[0.5, 0.5], N=1.0)
    inc = ExponentialIncidence([0.2, 0.2], N=1.0)
    res = final_size_equation_solve(EpidemicState(S=1.0, I=[seed, 0.0], R=0.0), params, inc)
    with mpmath.workdps(60):
        w = [mpmath.mpf(r) / mpmath.mpf(g) for r, g in zip(inc.r.tolist(), params.gamma.tolist())]
        C = sum(wj * (1 + mpmath.mpf(seed)) for wj in w)  # cumsum(I0) = (seed, seed)
        y = mpmath.findroot(lambda y: -y - C + sum(w) * mpmath.exp(y), (-1, 0), solver="anderson")
        ref = float(mpmath.exp(y))
    assert 0.0 < res.s_inf <= 1.0
    assert abs(res.s_inf - ref) <= 4 * math.ulp(res.s_inf), (res.s_inf, ref)


_FINAL_SIZE_MODELS = {
    "one-stage": ([0.5], [1.0], 0.99, [0.01]),
    "three-stage": ([0.6, 0.7, 0.3], [0.2, 0.2, 0.1], 0.98, [0.01, 0.006, 0.004]),
}


# the families whose final-size equation is exact, -log(1 - phi(I)) = r . I,
# built from an r with N sum_j r_j / g_j = R0
_FINAL_SIZE_FAMILIES = {
    "exponential": lambda r: ExponentialIncidence(r, N=1.0),
    "last-class-exponential": lambda r: LastClassIncidence(
        n=r.size, N=1.0, kind="exponential", beta=float(r[-1])),
    "poisson-linear": lambda r: poisson_incidence(
        2.0 * float(r.sum()), LinearIncidence(r / (2.0 * float(r.sum())), N=1.0)),
}


def _final_size_case(model, R0, family="exponential"):
    gamma, shape, S0, I = _FINAL_SIZE_MODELS[model]
    gamma, shape, I = np.array(gamma), np.array(shape), np.array(I)
    if family.startswith("last-class"):
        shape = (np.arange(gamma.size) == gamma.size - 1) * 1.0
    params = StageParams(gamma=gamma, N=1.0)
    inc = _FINAL_SIZE_FAMILIES[family](shape * (R0 / float((shape / gamma).sum())))
    return EpidemicState(S=S0, I=I, R=1.0 - S0 - I.sum()), params, inc


@pytest.mark.parametrize("model", sorted(_FINAL_SIZE_MODELS))
def test_final_size_root_to_full_relative_precision(model):
    # evaluating g in double precision leaves a relative error of about
    # 2 C 2^-53, where C grows like R0: near 2.5e-14 at R0 = 200
    for family, R0 in itertools.product(_FINAL_SIZE_FAMILIES, np.geomspace(0.3, 200.0, 40)):
        initial, params, inc = _final_size_case(model, float(R0), family)
        assert r0(params, inc) == pytest.approx(float(R0), rel=1e-14)
        res = final_size_equation_solve(initial, params, inc)
        ref = _mp_final_size_root(initial, params, inc)
        rel = float(abs(res.s_inf - ref) / ref)
        assert rel <= (1e-14 if R0 <= 20.0 else 1e-13), (family, R0, res.s_inf, ref)
        assert res.iterations <= 70  # arithmetic halving alone needs about 1075


@pytest.mark.parametrize("model", sorted(_FINAL_SIZE_MODELS))
@pytest.mark.parametrize("R0", [1e3, 1e4])
def test_final_size_root_below_the_least_double(model, R0):
    # the true root is near e^-R0; log(S0 / x) would overflow to inf here
    for family in _FINAL_SIZE_FAMILIES:
        initial, params, inc = _final_size_case(model, R0, family)
        res = final_size_equation_solve(initial, params, inc)
        assert not math.isnan(res.s_inf)
        assert 0.0 < res.s_inf <= 1e-320
        assert res.iterations <= 70


@pytest.mark.parametrize("family", sorted(_FINAL_SIZE_FAMILIES))
@pytest.mark.parametrize("model", sorted(_FINAL_SIZE_MODELS))
def test_final_size_root_matches_simulation_for_each_covered_family(model, family):
    for R0 in (0.5, 1.5, 4.0, 20.0):
        initial, params, inc = _final_size_case(model, R0, family)
        eq = final_size_equation_solve(initial, params, inc)
        sim = final_size_simulate(initial, params, inc,
                                  StoppingRule(eps_z=1e-300, eps_s=1e-300))
        assert abs(eq.s_inf - sim.s_inf) <= 1e-14 * params.N, (R0, eq.s_inf, sim.s_inf)


def test_final_size_simulate_zero_seed_and_linear_strict_bound():
    N = 1.0
    params = StageParams(gamma=[0.5], N=N)
    inc = LinearIncidence([0.9], N=N)
    res = final_size_simulate(EpidemicState(S=0.99, I=[0.01], R=0.0), params, inc)
    assert res.s_inf < 1.0 / (0.9 / 0.5)  # persists for the linear family

    trivial = final_size_simulate(EpidemicState(S=1.0, I=[0.0], R=0.0), params, inc)
    assert trivial.s_inf == 1.0


def test_bounds_hand_values(figures):
    sc = figures["fig3-top-left"]
    b = final_size_bounds(sc.initial, sc.params, sc.incidence)
    assert b.upper == pytest.approx(0.642857, abs=5e-7)
    assert b.lower is None and "R0 < 1" in b.lower_reason

    sc = figures["fig2-left"]
    b = final_size_bounds(sc.initial, sc.params, sc.incidence)
    assert b.upper is None and "R0 > 1" in b.upper_reason
    assert b.lower == pytest.approx(0.825, rel=1e-12)
    sim = final_size_simulate(sc.initial, sc.params, sc.incidence)
    assert sim.s_inf >= b.lower - 1e-10


def test_bounds_inapplicable_cases(figures):
    # seeded outside the first stage: no lower bound even with R0 < 1
    sc = figures["fig2-right"]
    b = final_size_bounds(sc.initial, sc.params, sc.incidence)
    assert b.lower is None and "first stage" in b.lower_reason

    # threshold R0 = 1: neither side applies
    params = StageParams(gamma=[0.4], N=1.0)
    inc = ExponentialIncidence([0.4], N=1.0)
    b = final_size_bounds(EpidemicState(S=0.99, I=[0.01], R=0.0), params, inc)
    assert b.lower is None and b.upper is None


def test_lower_bound_degenerates_to_S0_when_transmission_vanishes():
    N = 1.0
    params = StageParams(gamma=[0.5], N=N)
    initial = EpidemicState(S=0.95, I=[0.05], R=0.0)
    b = final_size_bounds(initial, params, ExponentialIncidence([1e-9], N=N))
    assert b.lower == pytest.approx(initial.S, rel=1e-8)


def test_tail_sum_identity_fig_fixtures(figures):
    for sc in figures.values():
        traj = simulate(sc.initial, sc.params, sc.incidence,
                        StoppingRule(eps_z=1e-13 * sc.params.N))
        n = sc.params.n
        for t0 in (0, n, 2 * n):
            rep = tail_sum_check(traj, t0)
            assert rep.max_rel_error <= 1e-7, (sc.label, t0, rep.max_rel_error)


def test_tail_sum_last_stage_specialization(figures):
    # for j = n the closed form uses the total infected mass at t0
    sc = figures["fig2-left"]
    traj = simulate(sc.initial, sc.params, sc.incidence,
                    StoppingRule(eps_z=1e-13 * sc.params.N))
    rep = tail_sum_check(traj, 2)
    expected = (traj.S[2] - traj.S_inf + traj.Z[2]) / sc.params.gamma[-1]
    assert rep.rhs[-1] == pytest.approx(expected, rel=1e-12)


def test_tail_sum_zero_epidemic():
    params = StageParams(gamma=[0.5], N=1.0)
    inc = ExponentialIncidence([0.4], N=1.0)
    traj = simulate(EpidemicState(S=1.0, I=[0.0], R=0.0), params, inc)
    rep = tail_sum_check(traj, 0)
    assert rep.max_rel_error == 0.0
    np.testing.assert_array_equal(rep.lhs, [0.0])


def test_limit_direction_single_stage_is_trivial():
    params = StageParams(gamma=[0.5], N=1.0)
    inc = ExponentialIncidence([1.2], N=1.0)
    traj = simulate(EpidemicState(S=0.99, I=[0.01], R=0.0), params, inc)
    ld = limit_direction(traj)
    np.testing.assert_array_equal(ld.direction, [1.0])
    assert ld.max_abs_error <= 1e-12


def test_limit_direction_fig2_left_deep_run(figures):
    sc = figures["fig2-left"]
    traj = simulate(sc.initial, sc.params, sc.incidence,
                    StoppingRule(eps_z=1e-245, eps_s=1e-245))
    assert traj.stop_reason == "converged"
    ld = limit_direction(traj)
    assert ld.max_abs_error <= 1e-6
    # pairwise ratios reproduce the Perron component ratios
    I_star = traj.I[ld.t_star]
    v = ld.perron_vector
    for i in range(3):
        for j in range(3):
            assert I_star[i] / I_star[j] == pytest.approx(v[i] / v[j], rel=1e-5)


def test_final_size_analyses_check_their_inputs_as_simulate_does():
    # each pair below used to get a result back; simulate rejects it
    params = StageParams(gamma=[0.5, 0.5, 0.5], N=1.0)
    inc = ExponentialIncidence([0.5, 0.5, 0.5], N=1.0)
    with pytest.raises(ValueError, match="^state has 2 infected stages, params expect 3$"):
        final_size_bounds(EpidemicState(S=0.5, I=[0.01, 0.0], R=0.0), params, inc)
    initial = EpidemicState(S=0.99, I=[0.01, 0.0, 0.0], R=0.0)
    with pytest.raises(ValueError, match="population N = 5.0 differs from params N = 1.0"):
        final_size_equation_solve(initial, params, ExponentialIncidence([0.5, 0.5, 0.5], N=5.0))


def test_limit_direction_too_short():
    params = StageParams(gamma=[0.4, 0.5, 0.6], N=1.0)
    inc = ExponentialIncidence([0.3, 0.3, 0.3], N=1.0)
    traj = simulate(EpidemicState(S=0.99, I=[0.01, 0, 0], R=0.0), params, inc,
                    StoppingRule(max_steps=2))
    with pytest.raises(ValueError):
        limit_direction(traj)


def test_limit_direction_below_the_direction_floor():
    # a one-stage run seeded at 1e-260 never records Z above 1e-250
    params = StageParams(gamma=[0.5], N=1.0)
    traj = simulate(EpidemicState(S=1.0, I=[1e-260], R=0.0), params,
                    ExponentialIncidence([0.2], N=1.0))
    assert traj.stop_reason == "converged"
    with pytest.raises(ValueError, match="^every recorded state is below the direction floor$"):
        limit_direction(traj)


def test_tail_sums_and_final_size_need_a_converged_run_in_range(figures):
    sc = figures["fig2-left"]
    cut = simulate(sc.initial, sc.params, sc.incidence, StoppingRule(max_steps=5))
    with pytest.raises(ValueError, match="^tail sums need a converged trajectory$"):
        tail_sum_check(cut)
    with pytest.raises(RuntimeError, match="^no convergence within 5 steps; cannot read S_inf$"):
        final_size_simulate(sc.initial, sc.params, sc.incidence, StoppingRule(max_steps=5))
    traj = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    with pytest.raises(ValueError, match=f"^t0 = {traj.n_steps + 1} outside the recorded range$"):
        tail_sum_check(traj, traj.n_steps + 1)


def test_monotonicity_onset_fig2_left(figures):
    sc = figures["fig2-left"]
    traj = simulate(sc.initial, sc.params, sc.incidence, sc.stopping)
    rep = monotonicity_onset(traj)
    assert rep.onset is not None
    assert rep.persistent, f"strict decrease broke at t = {rep.first_violation}"
    # the onset is genuine: the step before it is not componentwise-strict
    if rep.onset > 0:
        assert not np.all(traj.I[rep.onset] < traj.I[rep.onset - 1])


def test_monotonicity_absent_for_zero_seed():
    params = StageParams(gamma=[0.5], N=1.0)
    inc = ExponentialIncidence([0.4], N=1.0)
    traj = simulate(EpidemicState(S=1.0, I=[0.0], R=0.0), params, inc)
    rep = monotonicity_onset(traj)
    assert rep == MonotonicityReport(onset=None, persistent=True, first_violation=None)


def test_random_scenarios_oracle_agreement_and_persistence():
    rng = np.random.default_rng(123)
    for _ in range(30):
        params, inc = random_model(rng, families=("exponential",))
        initial = random_initial(rng, params)
        traj = simulate(initial, params, inc,
                        StoppingRule(eps_z=1e-13 * params.N))
        assert traj.stop_reason == "converged"
        eq = final_size_equation_solve(initial, params, inc)
        assert abs(eq.s_inf - traj.S_inf) <= 1e-8 * params.N
        rep = monotonicity_onset(traj)
        if rep.onset is not None:
            assert rep.persistent


def _monotonicity_onset_by_cases(I):
    """``monotonicity_onset`` with a return for each case: one row, no onset,
    a persistent onset and a broken one; the reference for its one scan."""
    if len(I) < 2:
        return MonotonicityReport(onset=None, persistent=True, first_violation=None)
    dec = np.all(I[1:] < I[:-1], axis=1)
    idx = np.nonzero(dec)[0]
    if idx.size == 0:
        return MonotonicityReport(onset=None, persistent=True, first_violation=None)
    onset = int(idx[0])
    later = dec[onset:]
    if bool(later.all()):
        return MonotonicityReport(onset=onset, persistent=True, first_violation=None)
    first_bad = onset + int(np.nonzero(~later)[0][0])
    return MonotonicityReport(onset=onset, persistent=False, first_violation=first_bad)


@given(
    n=st.integers(1, 3),
    # ties, -0.0 and NaN come up often in a small pool
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, math.nan]), min_size=1,
                    max_size=24),
)
@example(n=2, values=[3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0, -0.0])  # onset 0, breaks at 2
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_monotonicity_onset_matches_its_form_by_cases(n, values):
    rows = len(values) // n or 1
    I = np.resize(np.array(values), rows * n).reshape(rows, n)
    traj = Trajectory(
        params=StageParams(gamma=[0.5] * n, N=1.0), incidence=ExponentialIncidence([1.0] * n, 1.0),
        S=np.ones(rows), I=I, R=np.zeros(rows), phi=np.zeros(rows), Z=I.sum(axis=1),
        stop_reason="converged", eps_z=0.0, eps_s=0.0, max_steps=rows,
    )
    got, want = monotonicity_onset(traj), _monotonicity_onset_by_cases(I)
    assert got == want
    assert [type(getattr(got, f)) for f in ("onset", "persistent", "first_violation")] == [
        type(getattr(want, f)) for f in ("onset", "persistent", "first_violation")]


def _tail_sum_loop(trajectory, t0):
    """The stage-by-stage form of ``tail_sum_check``: the reference for its
    array expressions, bit for bit (the cumulative sum starts at 0.0, so a
    -0.0 stage adds as +0.0)."""
    gamma = trajectory.params.gamma
    n = trajectory.params.n
    s_inf = trajectory.S_inf
    lhs, rhs, rel = np.empty(n), np.empty(n), np.empty(n)
    cum = 0.0
    for j, column in enumerate(trajectory.I[t0:].T.tolist()):
        lhs[j] = math.fsum(column)
        cum += column[0]
        rhs[j] = (trajectory.S[t0] - s_inf + cum) / gamma[j]
        denom = max(abs(rhs[j]), 1e-300)
        rel[j] = abs(lhs[j] - rhs[j]) / denom
    return TailSumReport(t0=t0, lhs=lhs, rhs=rhs, rel_errors=rel)


# small pools, so that -0.0, exact cancellations and subnormals come up often
_STAGE_POOL = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 0.125, 0.25, 1.0, 3.0]
_S_POOL = [0.0, -0.0, 5e-324, 0.25, 0.5, 1.0]


@given(
    gamma=st.lists(st.sampled_from([0.125, 0.5, 0.75, 0.9]), min_size=1, max_size=4),
    rows=st.lists(st.tuples(st.sampled_from(_S_POOL),
                            st.lists(st.sampled_from(_STAGE_POOL), min_size=4, max_size=4)),
                  min_size=1, max_size=6),
    t0=st.integers(0, 5),
)
# S(t0) - S_inf = -0.0 - 0.0 and a -0.0 first stage: the loop's sum gives +0.0
@example(gamma=[0.5, 0.5], rows=[(-0.0, [-0.0] * 4), (0.0, [0.0] * 4)], t0=0)
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_tail_sum_check_matches_its_loop_form(gamma, rows, t0):
    n, t0 = len(gamma), t0 % len(rows)
    S = np.array([s for s, _ in rows])
    I = np.array([stages[:n] for _, stages in rows])
    traj = Trajectory(
        params=StageParams(gamma=gamma, N=1.0), incidence=ExponentialIncidence([1.0] * n, 1.0),
        S=S, I=I, R=np.zeros(len(rows)), phi=np.zeros(len(rows)), Z=I.sum(axis=1),
        stop_reason="converged", eps_z=0.0, eps_s=0.0, max_steps=len(rows),
    )
    got, want = tail_sum_check(traj, t0), _tail_sum_loop(traj, t0)
    assert got.t0 == want.t0
    for name in ("lhs", "rhs", "rel_errors"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
