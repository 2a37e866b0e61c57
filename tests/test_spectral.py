"""Stage-matrix assembly, NRV closed form, Perron data, sign identities."""

from __future__ import annotations

import builtins
import dataclasses
import math

import numpy as np
import pytest

from spepi import (
    ExponentialIncidence,
    StageParams,
    build_B,
    delta,
    nrv,
    perron,
    r0,
    sign_identities_check,
)

from conftest import draw_gammas


def _dense(d):
    """Dense T and B = T + F(a) of a decomposition, for cross-checks."""
    T = np.diag(1.0 - d.gamma) + np.diag(d.gamma[:-1], -1)
    B = T.copy()
    B[0] += d.a * d.r
    return T, B


def test_build_B_scalar():
    params = StageParams(gamma=[0.3], N=1.0)
    d = build_B(1.0, params, [0.5])
    np.testing.assert_allclose(_dense(d)[1], [[1.2]], rtol=1e-15)


def test_build_B_two_stage_hand_assembly():
    params = StageParams(gamma=[0.6, 0.9], N=1.0)
    d = build_B(2.0, params, [0.0, 0.5])
    T, B = _dense(d)
    np.testing.assert_allclose(T, [[0.4, 0.0], [0.6, 0.1]], rtol=1e-15)
    np.testing.assert_allclose(B - T, [[0.0, 1.0], [0.0, 0.0]], rtol=1e-15)
    np.testing.assert_allclose(B, [[0.4, 1.0], [0.6, 0.1]], rtol=1e-15)


def test_build_B_fig2_left_at_full_population(figures):
    sc = figures["fig2-left"]
    d = build_B(1.0, sc.params, sc.incidence.r)
    expected = np.array([
        [0.4 + 0.2, 0.2, 0.1],
        [0.6, 0.3, 0.0],
        [0.0, 0.7, 0.7],
    ])
    T, B = _dense(d)
    np.testing.assert_allclose(B, expected, rtol=1e-15)
    assert np.max(np.abs(np.linalg.eigvals(T))) == pytest.approx(0.7, rel=1e-12)


def test_build_B_rejections():
    params = StageParams(gamma=[0.5], N=1.0)
    with pytest.raises(ValueError):
        build_B(0.0, params, [0.5])
    with pytest.raises(ValueError):
        build_B(1.0, params, [0.0])
    with pytest.raises(ValueError):
        build_B(1.0, params, [-0.1])
    with pytest.raises(ValueError, match="^r must have length 1$"):
        build_B(1.0, params, [0.1, 0.2])


def test_delta_rejects_an_incidence_built_for_other_params():
    # the population used to go unchecked: r0 came back for any N
    params = StageParams(gamma=[0.5, 0.5], N=1.0)
    with pytest.raises(ValueError, match="population N = 5.0 differs from params N = 1.0"):
        delta(params, ExponentialIncidence([0.5, 0.5], N=5.0))
    with pytest.raises(ValueError, match="^incidence is built for 3 stages, params have 2$"):
        r0(params, ExponentialIncidence([0.5, 0.5, 0.5], N=1.0))


def test_nrv_hand_values(figures):
    params = StageParams(gamma=[0.3], N=1.0)
    assert nrv(build_B(1.0, params, [0.5])) == pytest.approx(5.0 / 3.0, rel=1e-12)

    sc = figures["fig2-left"]
    assert nrv(build_B(1.0, sc.params, sc.incidence.r)) == pytest.approx(
        0.952381, abs=5e-7
    )


def test_nrv_threshold_is_one():
    params = StageParams(gamma=[0.4, 0.6], N=1.0)
    r = np.array([0.2, 0.3])
    dlt = float((r / params.gamma).sum())
    assert nrv(build_B(1.0 / dlt, params, r)) == pytest.approx(1.0, rel=1e-12)


def test_r0_hand_values(figures):
    hand = {
        "fig2-left": 0.2 / 0.6 + 0.2 / 0.7 + 0.1 / 0.3,
        "fig2-right": 0.4 / 0.95 + 0.2 / 0.9 + 0.1 / 0.95,
        "fig3-top-left": 0.8 / 0.6 + 0.1 / 0.9 + 0.1 / 0.9,
        "fig3-top-right": 0.8 / 0.6 + 0.1 / 0.9 + 0.1 / 0.9,
        "fig3-bottom": 0.4 / 0.9 + 0.01 / 0.9 + 0.5 / 0.9,
    }
    for name, expected in hand.items():
        sc = figures[name]
        assert r0(sc.params, sc.incidence) == pytest.approx(expected, rel=1e-12)
    assert hand["fig2-left"] == pytest.approx(0.952381, abs=5e-7)
    assert hand["fig3-top-left"] == pytest.approx(1.555556, abs=5e-7)


def test_r0_threshold_identity():
    params = StageParams(gamma=[0.37], N=1.0)
    inc = ExponentialIncidence([0.37], N=1.0)
    assert r0(params, inc) == pytest.approx(1.0, rel=1e-15)


def test_perron_scalar_case():
    params = StageParams(gamma=[0.3], N=1.0)
    d = build_B(2.0, params, [0.5])
    pd = perron(d)
    np.testing.assert_array_equal(pd.v, [1.0])
    assert pd.rho == pytest.approx(1.0 - 0.3 + 2.0 * 0.5, rel=1e-12)


def test_perron_two_stage_quadratic_oracle():
    # characteristic roots of [[0.4, 1.0], [0.6, 0.1]]
    params = StageParams(gamma=[0.6, 0.9], N=1.0)
    d = build_B(2.0, params, [0.0, 0.5])
    tr = 0.4 + 0.1
    det = 0.4 * 0.1 - 1.0 * 0.6
    lam = (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0
    pd = perron(d)
    assert pd.rho == pytest.approx(lam, rel=1e-12)
    # eigen residual and positivity
    B = _dense(d)[1]
    assert np.max(np.abs(B @ pd.v - pd.rho * pd.v)) <= 1e-10 * pd.rho
    assert np.all(pd.v > 0.0) and pd.v.sum() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("g, n", [(0.999, 5), (0.9999, 10), (0.99999, 20),
                                  (0.5, 200), (0.999, 200)])
def test_perron_near_cyclic_stage_matrix(g, n):
    # equal gammas near 1 with infection from the last stage only make B
    # nearly cyclic, so its spectral gap all but vanishes
    params = StageParams(gamma=np.full(n, g), N=1.0)
    d = build_B(1.0, params, np.eye(n)[-1])
    pd = perron(d)
    B = _dense(d)[1]
    assert pd.rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(B))), rel=1e-13)
    assert np.max(np.abs(B @ pd.v - pd.rho * pd.v)) <= 1e-13 * pd.rho
    assert np.all(pd.v > 0.0) and pd.v.sum() == pytest.approx(1.0, rel=1e-14)


def test_perron_when_the_stage_shape_overflows():
    # with n = 2500 equal gammas, v(lam) overflows at bisection points below
    # the root; (lam - 1 + g)^n = g^(n-1) gives the root in closed form.
    # B v is formed from the bidiagonal structure, not a 2500 x 2500 matrix.
    n, g = 2500, 0.5
    d = build_B(1.0, StageParams(gamma=np.full(n, g), N=1.0), np.eye(1, n, n - 1)[0])
    pd = perron(d)
    assert pd.rho == pytest.approx(1.0 - g + g ** ((n - 1) / n), rel=1e-13)
    Bv = (1.0 - g) * pd.v
    Bv[1:] += g * pd.v[:-1]
    Bv[0] += pd.v[-1]
    assert np.max(np.abs(Bv - pd.rho * pd.v)) <= 1e-13 * pd.rho
    assert np.all(pd.v > 0.0) and pd.v.sum() == pytest.approx(1.0, rel=1e-14)


def _draw_decomposition(rng, threshold=False):
    n = int(rng.integers(1, 9))
    gamma = draw_gammas(rng, n, lo=0.05, hi=0.95, min_sep=0.02)
    params = StageParams(gamma=gamma, N=1.0)
    r = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
    r[-1] = rng.uniform(0.05, 1.0)
    dlt = float((r / gamma).sum())
    if threshold:
        a = 1.0 / dlt
    else:
        s = rng.uniform(0.3, 3.0)
        if abs(s - 1.0) < 0.05:
            s += 0.1  # sign margins vanish at the bifurcation point
        a = s / dlt
    a = min(a, 9.99)
    return build_B(a, params, r), dlt


def _compensated_sum(iterable, start=0):
    """What the builtin sum does with floats from Python 3.12 on: Neumaier's
    compensated sum, its correction added when finite."""
    total, comp = float(start), 0.0
    for x in iterable:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_perron_does_not_depend_on_the_builtin_sum(monkeypatch):
    # analyze prints perron_rho and perron_vector, and CI runs Python 3.10-3.13
    rng = np.random.default_rng(12)
    draws = [_draw_decomposition(rng)[0] for _ in range(300)]
    plain = [perron(d) for d in draws]
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    for d, want in zip(draws, plain):
        got = perron(d)
        assert (got.rho.hex(), got.v.tobytes(), got.iterations) == (
            want.rho.hex(), want.v.tobytes(), want.iterations)


def test_nrv_closed_form_over_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d, dlt = _draw_decomposition(rng)
        expected = d.a * dlt
        assert abs(nrv(d) - expected) <= 1e-10 * expected


def test_threshold_equivalence_and_sign_identities_over_draws():
    rng = np.random.default_rng(77)
    for k in range(1000):
        d, dlt = _draw_decomposition(rng, threshold=(k % 10 == 0))
        pd = perron(d)
        B = _dense(d)[1]
        assert np.max(np.abs(B @ pd.v - pd.rho * pd.v)) <= 1e-10 * pd.rho
        assert pd.rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(B))), rel=1e-13)
        rep = sign_identities_check(d, pd)
        assert rep.consistent, (k, rep.mismatches)
        # threshold equivalence sign(rho - 1) = sign(a - 1/delta)
        assert rep.a_minus_threshold == rep.rho_minus_one
        if k % 10 == 0:
            assert abs(pd.rho - 1.0) < 1e-9
            assert rep.rho_minus_one == 0


def test_chain_identity_links_consecutive_stages():
    # gamma_{j-1} v_{j-1} - gamma_j v_j = (rho - 1) v_j for j = 2..n
    rng = np.random.default_rng(15)
    for _ in range(200):
        d, _ = _draw_decomposition(rng)
        pd = perron(d)
        g, v = d.gamma, pd.v
        for j in range(1, g.size):
            lhs = g[j - 1] * v[j - 1] - g[j] * v[j]
            assert lhs == pytest.approx((pd.rho - 1.0) * v[j], abs=1e-9)


def test_sign_identities_directions():
    rng = np.random.default_rng(99)
    for target, want in ((1.5, 1), (0.5, -1)):
        n = 3
        gamma = draw_gammas(rng, n, lo=0.2, hi=0.9)
        params = StageParams(gamma=gamma, N=1.0)
        r = rng.uniform(0.1, 1.0, n)
        dlt = float((r / gamma).sum())
        d = build_B(target / dlt, params, r)
        rep = sign_identities_check(d, perron(d))
        assert rep.consistent
        assert rep.rho_minus_one == want
        assert all(s == want for s in rep.gamma_v_pairs)
        assert rep.infection_balance == want


def test_sign_identities_name_each_mismatch():
    # fig2-left's B(0.9) has rho = 0.9616; report it as 1.5 instead
    params = StageParams(gamma=[0.6, 0.7, 0.3], N=1.0)
    d = build_B(0.9, params, [0.2, 0.2, 0.1])
    rep = sign_identities_check(d, dataclasses.replace(perron(d), rho=1.5))
    assert not rep.consistent
    assert (rep.rho_minus_one, rep.a_minus_threshold) == (1, -1)
    assert rep.mismatches == (
        "sign(a - 1/delta) = -1 != sign(rho - 1) = 1",
        "gamma_i v_i - gamma_j v_j pair 0: sign -1 != 1",
        "gamma_i v_i - gamma_j v_j pair 1: sign -1 != 1",
        "gamma_i v_i - gamma_j v_j pair 2: sign -1 != 1",
        "sign(a r.v - gamma_1 v_1) = -1 != 1",
    )
