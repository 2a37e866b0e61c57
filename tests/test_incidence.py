"""Incidence families: values, gradients, domain contract, regularity checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spepi import (
    ContactDistribution,
    CustomIncidence,
    DomainError,
    EpidemicState,
    ExponentialIncidence,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
    StageParams,
    validate_regularity,
)
from spepi.incidence import IncidenceModel
from spepi.model import StoppingRule

FIG2_LEFT_BETA = [0.2, 0.2, 0.1]


def test_phi_zero_is_exactly_zero():
    inc = ExponentialIncidence(FIG2_LEFT_BETA, N=1.0)
    assert inc.phi(np.zeros(3)) == 0.0


def test_exponential_hand_value():
    # 1 - exp(-0.2 * 0.01), evaluated independently
    inc = ExponentialIncidence(FIG2_LEFT_BETA, N=1.0)
    expected = -math.expm1(-0.002)
    assert inc.phi([0.01, 0.0, 0.0]) == pytest.approx(expected, rel=1e-15)
    assert abs(inc.phi([0.01, 0.0, 0.0]) - 0.00199800) < 5e-9


def test_linear_hand_value():
    inc = LinearIncidence([0.5], N=1.0)
    assert inc.phi([0.1]) == pytest.approx(0.05, rel=1e-15)


def test_gradients_at_zero_and_anywhere():
    inc = ExponentialIncidence(FIG2_LEFT_BETA, N=1.0)
    np.testing.assert_allclose(inc.grad(np.zeros(3)), FIG2_LEFT_BETA, rtol=1e-15)
    np.testing.assert_array_equal(inc.r, FIG2_LEFT_BETA)

    theta, beta = [0.3, 0.7], [2.0, 1.5]
    split = SplitExponentialIncidence(theta, beta, N=1.0)
    np.testing.assert_allclose(split.grad([0.0, 0.0]), [0.6, 1.05], rtol=1e-15)

    lin = LinearIncidence([0.2, 0.3], N=1.0)
    np.testing.assert_array_equal(lin.grad([0.3, 0.1]), [0.2, 0.3])


def test_exponential_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    inc = ExponentialIncidence([0.4, 0.8, 1.2], N=2.0)
    for _ in range(20):
        I = rng.uniform(0.05, 0.5, 3)
        g = inc.grad(I)
        h = 1e-7
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (inc.phi(I + e) - inc.phi(I - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6)


def test_domain_errors():
    inc = ExponentialIncidence(FIG2_LEFT_BETA, N=1.0)
    with pytest.raises(DomainError):
        inc.phi([-0.01, 0.0, 0.0])
    with pytest.raises(DomainError):
        inc.phi([0.6, 0.5, 0.2])  # mass 1.3 > N
    with pytest.raises(DomainError):
        inc.grad([0.6, 0.5, 0.2])
    # inside the 1e-12 relative tolerance is still admissible
    assert inc.phi([1.0 + 5e-13, 0.0, 0.0]) < 1.0


def test_constructor_rejections():
    with pytest.raises(ValueError):
        ExponentialIncidence([0.2, 0.0], N=1.0)  # beta_n = 0
    with pytest.raises(ValueError):
        LinearIncidence([0.9, 0.7], N=1.0)  # sum(beta) > 1/N
    with pytest.raises(ValueError):
        SplitExponentialIncidence([0.5, 0.6], [1.0, 1.0], N=1.0)  # sum != 1
    with pytest.raises(ValueError):
        LastClassIncidence(n=2, N=1.0, kind="linear", beta=1.5)  # beta > 1/N
    with pytest.raises(ValueError):
        CustomIncidence(lambda I: 0.01 + I.sum(), n=1, N=1.0)  # phi(0) != 0
    with pytest.raises(ValueError, match="phi\\(0\\) must be 0"):
        CustomIncidence(lambda I: math.nan, n=2, N=1.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: StageParams(gamma=[NAN, 0.5], N=1.0),
    lambda: StageParams(gamma=[0.5, 0.5], N=INF),
    lambda: EpidemicState(S=NAN, I=[0.01, 0.0], R=0.0),
    lambda: EpidemicState(S=0.99, I=[INF, 0.0], R=0.0),
    lambda: EpidemicState(S=0.99, I=[0.01, 0.0], R=NAN),
    lambda: ExponentialIncidence([NAN, 0.5], N=1.0),
    lambda: LinearIncidence([NAN, 0.5], N=1.0),
    lambda: SplitExponentialIncidence([NAN, 0.5], [1.0, 1.0], N=1.0),
    lambda: ExponentialIncidence([0.2, 0.5], N=NAN),
    lambda: LastClassIncidence(n=2, N=1.0, kind="exponential", beta=INF),
    lambda: CustomIncidence(lambda I: 0.5 * I[-1], n=2, N=INF),
    lambda: ContactDistribution.explicit([0.5, NAN, 0.5]),
    lambda: ContactDistribution.poisson(INF),
    lambda: StoppingRule(eps_z=NAN).resolve(1.0),
], ids=["gamma", "N", "S", "I", "R", "beta-exponential", "beta-linear", "theta",
        "N-incidence", "beta-last-class", "N-custom", "contact-p", "lambda", "eps_z"])
def test_non_finite_inputs_are_rejected(build):
    # each of these used to build, and a NaN S, for one, ran all max_steps
    # to S_inf = nan
    with pytest.raises(ValueError):
        build()


def test_last_class_profiles():
    inc = LastClassIncidence(n=3, N=1.0, kind="exponential", beta=2.0)
    np.testing.assert_array_equal(inc.r, [0.0, 0.0, 2.0])
    assert inc.phi([0.5, 0.3, 0.0]) == 0.0  # only the last stage infects
    assert inc.phi([0.0, 0.0, 0.1]) == pytest.approx(-math.expm1(-0.2), rel=1e-15)
    lin = LastClassIncidence(n=2, N=1.0, kind="linear", beta=0.8)
    assert lin.scalar_deriv(0.3) == 0.8


def test_custom_incidence_finite_difference_gradient():
    # concave vector map with a known gradient
    def f(I):
        return 0.3 * (1 - math.exp(-(0.5 * I[0] + 1.5 * I[1])))

    inc = CustomIncidence(f, n=2, N=1.0)
    I = np.array([0.2, 0.1])
    exact = 0.3 * math.exp(-(0.5 * 0.2 + 1.5 * 0.1)) * np.array([0.5, 1.5])
    np.testing.assert_allclose(inc.grad(I), exact, rtol=1e-8)
    # one-sided at the boundary I = 0
    np.testing.assert_allclose(inc.r, 0.3 * np.array([0.5, 1.5]), rtol=1e-7)


@pytest.mark.parametrize("grad, message", [
    (lambda I: [0.1], "length 3, got 1"),
    (lambda I: [0.1, 0.2, 0.3, 0.4], "length 3, got 4"),
    (lambda I: [[0.1, 0.2, 0.3]], "1-d vector"),
    (lambda I: [0.1, math.nan, 0.3], "finite"),
    (lambda I: [0.1, 0.2, math.inf], "finite"),
], ids=["short", "long", "2-d", "nan", "inf"])
def test_custom_gradient_at_zero_must_be_a_finite_n_vector(grad, message):
    # a length-1 gradient used to build, and spectral.delta broadcast it
    # into a number for r0 without complaint
    with pytest.raises(ValueError, match=f"gradient at zero must .*{message}"):
        CustomIncidence(lambda I: 0.1 * float(I.sum()), n=3, N=1.0, grad=grad)
    # the sign conditions stay advisory
    inc = CustomIncidence(lambda I: 0.0, n=3, N=1.0, grad=lambda I: [-0.1, 0.0, 0.0])
    assert not validate_regularity(inc).passed


# --- first-order inequalities implied by concavity --------------------------

@st.composite
def _family_and_point(draw):
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = rng.uniform(0.05, 2.0, n)
    kind = draw(st.sampled_from(["exponential", "linear", "split"]))
    N = 1.0
    if kind == "linear":
        # stay off sum(beta) = 1/N exactly: phi hits 1.0 at the full-mass
        # corner of U, which the dynamics never reach
        beta = beta / (beta.sum() * N) * draw(st.floats(0.2, 0.999))
        inc = LinearIncidence(beta, N)
    elif kind == "split" and n >= 2:
        theta = rng.dirichlet(np.ones(n))
        inc = SplitExponentialIncidence(theta, beta, N)
    else:
        inc = ExponentialIncidence(beta, N)
    w = rng.uniform(0.0, 1.0, n)
    scale = draw(st.floats(0.0, 1.0))
    I = scale * N * w / max(w.sum(), 1e-12)
    return inc, I


@given(_family_and_point())
@settings(max_examples=200, deadline=None)
def test_first_order_bounds(case):
    # concavity pins phi between its tangent planes at I and at 0
    inc, I = case
    phi = inc.phi(I)
    assert phi <= float(inc.r @ I) + 1e-12
    assert phi >= float(inc.grad(I) @ I) - 1e-12
    assert 0.0 <= phi < 1.0


# --- regularity validation ---------------------------------------------------

def test_validate_builtin_families_analytic():
    rep = validate_regularity(ExponentialIncidence(FIG2_LEFT_BETA, N=1.0))
    assert rep.passed and rep.analytic
    rep = validate_regularity(LastClassIncidence(n=2, N=1.0, kind="linear", beta=0.5))
    assert rep.passed and rep.analytic


def test_validate_overlinear_range_failure():
    # beta = 1.5/N escapes [0, 1) at the full-mass corner of the admissible
    # set; the built-in linear constructor rejects this outright, so the
    # check is exercised through the custom interface
    rep = validate_regularity(
        CustomIncidence(lambda I: 1.5 * float(I[0]), n=1, N=1.0), grid_density=9
    )
    assert not rep.range_ok
    assert not rep.passed
    assert any("outside [0, 1)" in msg for msg in rep.failures)


def test_last_class_custom_profile_needs_f0_zero():
    with pytest.raises(ValueError, match="f\\(0\\) must be 0"):
        LastClassIncidence(n=2, N=1.0, kind="custom", func=lambda x: 0.1 + 0.5 * x)
    with pytest.raises(ValueError, match="f\\(0\\) must be 0"):
        LastClassIncidence(n=2, N=1.0, kind="custom", func=lambda x: math.nan)


def test_validate_zero_check_evaluates_the_model():
    # phi() returns 0.0 at I = 0 without asking the model, so the check must
    # evaluate _phi_raw itself
    class Offset(IncidenceModel):
        family = "offset"

        def __init__(self):
            self.n, self.N, self.r = 1, 1.0, np.array([0.5])

        def _phi_raw(self, I):
            return 0.1 + 0.5 * float(I[0])

        def _grad_raw(self, I):
            return np.array([0.5])

    rep = validate_regularity(Offset(), grid_density=3)
    assert not rep.zero_ok
    assert not rep.passed
    assert "phi(0) = 1.000e-01 != 0" in rep.failures


def test_validate_convex_profile_fails_concavity():
    rep = validate_regularity(
        CustomIncidence(lambda I: float(I[0]) ** 2, n=1, N=1.0), grid_density=9
    )
    assert not rep.concave_ok
    assert not rep.passed


def test_validate_concave_custom_passes_sampled():
    def f(I):
        return 0.5 * (1 - math.exp(-(0.3 * I[0] + 0.9 * I[1])))

    rep = validate_regularity(CustomIncidence(f, n=2, N=1.0), grid_density=7)
    assert rep.passed
    assert not rep.analytic
    assert rep.points_checked > 0


def test_validate_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        validate_regularity(ExponentialIncidence([0.5], N=1.0), grid_density=1)
