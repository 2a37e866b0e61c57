"""Contact-distribution composition: identities, closed forms, threshold scaling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spepi import (
    ContactDistribution,
    CustomIncidence,
    ExponentialIncidence,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
    StageParams,
    compose_incidence,
    poisson_incidence,
    r0,
    r0_with_contacts,
    validate_regularity,
)

from spepi.contacts import MASS_DEFICIT_TOL

from conftest import draw_gammas


def _u_grid(rng, n, N, count):
    """Random points filling the admissible set {I >= 0 : ||I|| <= N}."""
    w = rng.dirichlet(np.ones(n), size=count)
    scale = N * rng.uniform(0.0, 1.0, count) ** (1.0 / n)
    return w * scale[:, None]


def test_distribution_validation():
    d = ContactDistribution.explicit([0.2, 0.5, 0.3])
    assert d.mean == pytest.approx(1.1, rel=1e-15)
    with pytest.raises(ValueError):
        ContactDistribution.explicit([0.2, 0.5])  # mass deficit 0.3
    with pytest.raises(ValueError):
        ContactDistribution.explicit([-0.1, 1.1])
    with pytest.raises(ValueError):
        ContactDistribution.poisson(0.0)
    with pytest.raises(ValueError, match="^contact probabilities must form a nonempty 1-d vector$"):
        ContactDistribution.explicit([[0.5, 0.5]])
    # sub-tolerance deficits renormalize
    d = ContactDistribution.explicit([0.5, 0.5 - 1e-13])
    assert d.p.sum() == pytest.approx(1.0, abs=1e-16)


def test_poisson_truncation_tail():
    d = ContactDistribution.poisson_truncated(3.0, tail_mass=1e-12)
    assert d.kind == "explicit"
    assert d.mean == pytest.approx(3.0, abs=1e-10)
    assert d.p.sum() == pytest.approx(1.0, abs=1e-15)


def _stalls(lam, tail_mass):
    """Whether the rounded partial sums of the recurrence stop growing
    before they reach 1 - tail_mass."""
    p = cum = math.exp(-lam)
    k = 0
    while cum < 1.0 - tail_mass:
        k += 1
        p = p * lam / k
        if cum + p == cum:
            return True
        cum += p
    return False


def test_poisson_truncation_ends_a_stalled_sum_on_its_tail_bound():
    # the rounded partial sums at lam = 12 never reach 1 - 1e-16, the
    # double just below 1; the table ends on the geometric tail bound
    assert _stalls(12.0, 1e-16)
    d = ContactDistribution.poisson_truncated(12.0, tail_mass=1e-16)
    assert abs(d.p.sum() - 1.0) <= MASS_DEFICIT_TOL
    assert abs(d.mean - 12.0) <= 1e-12 * 12.0
    K = d.p.size  # the geometric bound on the mass past the table
    assert d.p[-1] * 12.0 / K / (1.0 - 12.0 / (K + 1)) <= 1e-16


def test_poisson_truncation_at_tail_mass_1e_15_builds_on_the_recurrence_side():
    # 12 of these means stall short of 1 - 1e-15 (the first near 62.3) and
    # raised before.  The mean is off by the truncated tail's share, at
    # most a few tail masses, so relative only from lam = 1 on.
    lams = np.geomspace(1e-3, 708.39, 400).tolist()
    assert sum(_stalls(lam, 1e-15) for lam in lams) >= 10
    for lam in lams:
        d = ContactDistribution.poisson_truncated(lam, tail_mass=1e-15)
        assert abs(d.p.sum() - 1.0) <= MASS_DEFICIT_TOL, lam
        assert abs(d.mean - lam) <= 1e-12 * max(lam, 1.0), lam


def _recurrence_table(lam, tail_mass=1e-12):
    """The recurrence from p_0 = exp(-lam) that the tables below 708 use."""
    probs = [math.exp(-lam)]
    cum = probs[0]
    while cum < 1.0 - tail_mass:
        probs.append(probs[-1] * lam / len(probs))
        cum += probs[-1]
    return ContactDistribution.explicit(np.array(probs)).p


@pytest.mark.parametrize("lam", np.geomspace(1e-3, 708.39, 41).tolist() + [708.0])
def test_poisson_truncation_keeps_the_recurrence_while_exp_is_normal(lam):
    assert math.exp(-lam) >= 2.2250738585072014e-308
    got = ContactDistribution.poisson_truncated(lam).p
    assert got.tobytes() == _recurrence_table(lam).tobytes()


@pytest.mark.parametrize("lam", [708.5, 717.8, 718.0, 730.0, 746.0, 800.0, 1e3, 1e4, 1e5, 1e6])
def test_poisson_truncation_for_large_means(lam):
    # exp(-lam) is subnormal from about 708.4 and 0 from about 745.2; the
    # recurrence started there missed the mass tolerance from about 718
    d = ContactDistribution.poisson_truncated(lam)
    assert abs(d.p.sum() - 1.0) <= MASS_DEFICIT_TOL
    assert abs(d.mean - lam) <= 1e-12 * lam
    assert np.all(d.p >= 0.0)
    # the shape, against the pmf in 30 digits (math.lgamma's own error
    # grows like lam log lam eps, 3e-9 at lam = 1e6)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for k in (lam - 6 * math.sqrt(lam), lam, lam + 6 * math.sqrt(lam)):
            k = math.floor(k)
            pmf = mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))
            assert d.p[k] == pytest.approx(float(pmf), rel=1e-13)


@pytest.mark.parametrize("tail_mass", [0.0, -1e-12, 1.0, 1.5, math.nan])
def test_poisson_truncation_rejects_tail_mass_outside_0_1(tail_mass):
    with pytest.raises(ValueError, match="tail_mass must lie in"):
        ContactDistribution.poisson_truncated(3.0, tail_mass=tail_mass)


def test_point_mass_one_contact_is_identity():
    pi = ExponentialIncidence([0.4, 0.7], N=1.0)
    composed = compose_incidence(pi, ContactDistribution.explicit([0.0, 1.0]))
    rng = np.random.default_rng(8)
    for I in _u_grid(rng, 2, 1.0, 50):
        assert composed.phi(I) == pi.phi(I)
    np.testing.assert_array_equal(composed.r, pi.r)


def test_point_mass_zero_contacts_rejected():
    pi = ExponentialIncidence([0.4, 0.7], N=1.0)
    with pytest.raises(ValueError, match="^composition is not a valid incidence: "
                                         "a contact distribution with zero mean infects nobody$"):
        compose_incidence(pi, ContactDistribution.explicit([1.0, 0.0]))


def test_composition_reports_the_inner_fault_as_it_is():
    # this used to end "(a contact distribution with zero mean infects
    # nobody)", though the mean is 2
    pi = CustomIncidence(lambda I: 0.0, n=2, N=1.0, grad=lambda I: [-0.1, 0.5])
    with pytest.raises(ValueError, match="^gradient at zero must be componentwise nonnegative$"):
        compose_incidence(pi, ContactDistribution.poisson(2.0))


def test_composition_whose_last_stage_gradient_underflows():
    # r_n = 1e-30 * 1e-300 underflows to 0
    with pytest.raises(ValueError, match=r"^last infected stage must be infectious to first "
                                         r"order \(r_n > 0\)$"):
        compose_incidence(ExponentialIncidence([1e-300], N=1.0), ContactDistribution.poisson(1e-30))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_both_poisson_laws_reject_a_mean_alike(lam):
    for build in (ContactDistribution.poisson, ContactDistribution.poisson_truncated):
        with pytest.raises(ValueError, match="^the Poisson mean must be positive and finite$"):
            build(lam)


def test_poisson_closed_form_equals_scalar_exponential():
    # lambda Poisson contacts with linear per-contact risk beta I reproduce
    # the scalar-exponential family 1 - exp(-lambda beta I)
    lam, beta, N = 1.0, 0.6, 1.0
    model = poisson_incidence(lam, LinearIncidence([beta], N=N))
    for x in np.linspace(0.0, N, 100):
        assert model.phi([x]) == pytest.approx(-math.expm1(-lam * beta * x), abs=1e-15)


def test_poisson_closed_form_vs_truncated_series():
    # acceptance-grade agreement on a dense admissible-set grid
    rng = np.random.default_rng(21)
    N = 1.0
    pi = ExponentialIncidence([0.5, 1.5, 0.9], N=N)
    for lam in (0.5, 3.0, 12.0):
        closed = poisson_incidence(lam, pi)
        series = compose_incidence(
            pi, ContactDistribution.poisson_truncated(lam, tail_mass=1e-12)
        )
        for I in _u_grid(rng, 3, N, 1000):
            assert abs(closed.phi(I) - series.phi(I)) <= 2e-12


def test_composed_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    pi = ExponentialIncidence([0.8, 1.1], N=1.0)
    model = compose_incidence(pi, ContactDistribution.explicit([0.1, 0.4, 0.4, 0.1]))
    for I in _u_grid(rng, 2, 0.9, 20):
        g = model.grad(I)
        h = 1e-7
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (model.phi(I + e) - model.phi(I - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_r0_with_contacts_consistency_over_draws():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        N = float(10 ** rng.uniform(-1, 1))
        params = StageParams(gamma=draw_gammas(rng, n), N=N)
        beta = rng.uniform(0.05, 2.0, n)
        if int(rng.integers(0, 2)) and n >= 2:
            pi = SplitExponentialIncidence(rng.dirichlet(np.ones(n)), beta, N)
        else:
            pi = ExponentialIncidence(beta, N)
        if int(rng.integers(0, 2)):
            K = int(rng.integers(1, 12))
            raw = rng.uniform(0.0, 1.0, K + 1)
            raw[0] = min(raw[0], 0.5)  # keep a positive mean
            dist = ContactDistribution.explicit(raw / raw.sum())
            if dist.mean == 0.0:
                continue
        else:
            dist = ContactDistribution.poisson(float(rng.uniform(0.1, 10.0)))
        composed = compose_incidence(pi, dist)
        direct = r0_with_contacts(params, pi, dist)
        via_composed = r0(params, composed)
        assert abs(direct - via_composed) <= 1e-12 * abs(direct)


def test_r0_hand_value_and_linearity_in_lambda():
    params = StageParams(gamma=[0.6, 0.7, 0.3], N=1.0)
    pi = ExponentialIncidence([0.2, 0.2, 0.1], N=1.0)
    base = 0.2 / 0.6 + 0.2 / 0.7 + 0.1 / 0.3
    assert r0_with_contacts(params, pi, ContactDistribution.poisson(3.0)) == pytest.approx(
        3.0 * base, rel=1e-14
    )
    one = r0_with_contacts(params, pi, ContactDistribution.poisson(2.0))
    two = r0_with_contacts(params, pi, ContactDistribution.poisson(4.0))
    assert two == pytest.approx(2.0 * one, rel=1e-14)
    # point mass at one contact reduces to the plain threshold value
    assert r0_with_contacts(
        params, pi, ContactDistribution.explicit([0.0, 1.0])
    ) == pytest.approx(r0(params, pi), rel=1e-15)


def test_composition_preserves_regularity():
    # composing an analytically valid per-contact probability stays valid
    # analytically; a custom one falls back to the sampled check
    pi = ExponentialIncidence([0.5, 1.0], N=1.0)
    for dist in (
        ContactDistribution.explicit([0.2, 0.3, 0.3, 0.2]),
        ContactDistribution.poisson(2.5),
    ):
        model = compose_incidence(pi, dist)
        rep = validate_regularity(model, grid_density=7)
        assert rep.passed, rep.failures
        assert rep.analytic

    from spepi import CustomIncidence

    custom_pi = CustomIncidence(
        lambda I: 0.5 * -math.expm1(-(0.3 * I[0] + 0.9 * I[1])), n=2, N=1.0
    )
    model = compose_incidence(custom_pi, ContactDistribution.explicit([0.2, 0.3, 0.3, 0.2]))
    rep = validate_regularity(model, grid_density=7)
    assert not rep.analytic
    assert rep.passed, rep.failures

    # a nested composition asks its innermost model
    nested = poisson_incidence(1.5, compose_incidence(pi, ContactDistribution.explicit([0.5, 0.5])))
    rep = validate_regularity(nested, grid_density=7)
    assert rep.passed, rep.failures
    assert rep.analytic
    nested = poisson_incidence(1.5, model)
    rep = validate_regularity(nested, grid_density=7)
    assert rep.passed, rep.failures
    assert not rep.analytic
    assert rep.points_checked > 0


def test_last_class_pi_composes():
    pi = LastClassIncidence(n=3, N=1.0, kind="linear", beta=0.9)
    model = poisson_incidence(2.0, pi)
    assert model.phi([0.3, 0.2, 0.0]) == 0.0
    np.testing.assert_allclose(model.r, [0.0, 0.0, 1.8], rtol=1e-15)
