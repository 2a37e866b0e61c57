"""Final size (equation, simulation, bounds), tail sums, limit direction."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

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


def test_limit_direction_too_short():
    params = StageParams(gamma=[0.4, 0.5, 0.6], N=1.0)
    inc = ExponentialIncidence([0.3, 0.3, 0.3], N=1.0)
    traj = simulate(EpidemicState(S=0.99, I=[0.01, 0, 0], R=0.0), params, inc,
                    StoppingRule(max_steps=2))
    with pytest.raises(ValueError):
        limit_direction(traj)


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
    assert rep.onset is None


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
