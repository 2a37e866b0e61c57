"""Incidence families: values, gradients, domain contract, regularity checks."""

from __future__ import annotations

import math
import re
import tracemalloc

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
    compose_incidence,
    validate_regularity,
)
from spepi._kernels import inner_phi
from spepi.incidence import IncidenceModel, _simplex_grid
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


def _explicit_weight(p, q):
    """sum_i i p_i q^(i-1), the explicit contact law's derivative in pi."""
    w, qpow = 0.0, 1.0
    for i in range(1, len(p)):
        w += i * p[i] * qpow
        qpow *= q
    return w


def test_builtin_gradients_and_r_match_their_closed_forms_exactly():
    # the closed forms are written here, so a change in how a model derives
    # its gradient or r must keep every bit
    rng = np.random.default_rng(18)
    table = ContactDistribution.explicit([0.1, 0.3, 0.4, 0.2])
    poisson = ContactDistribution.poisson(1.7)
    for n in range(1, 6):
        for N in (1.0, 2.5):
            beta = rng.uniform(0.05, 2.0, n)
            theta = rng.dirichlet(np.ones(n)) if n > 1 else None
            lin_beta = beta / (beta.sum() * N) * 0.9
            b = float(beta[-1])
            last = np.zeros(n)
            last[-1] = b
            exp_inc = ExponentialIncidence(beta, N)
            lin = LinearIncidence(lin_beta, N)
            last_exp = LastClassIncidence(n, N, kind="exponential", beta=b)
            last_lin = LastClassIncidence(n, N, kind="linear", beta=0.9 / N)
            lin_last = np.zeros(n)
            lin_last[-1] = 0.9 / N
            np.testing.assert_array_equal(exp_inc.r, beta)
            np.testing.assert_array_equal(lin.r, lin_beta)
            np.testing.assert_array_equal(last_exp.r, last)
            np.testing.assert_array_equal(last_lin.r, lin_last)
            composed = {}
            for dist in (table, poisson):
                for inner in (exp_inc, last_exp):
                    model = compose_incidence(inner, dist)
                    np.testing.assert_array_equal(model.r, dist.mean * inner.r)
                    composed[dist.kind, inner.family] = model
            split = None
            if theta is not None:
                split = SplitExponentialIncidence(theta, beta, N)
                np.testing.assert_array_equal(split.r, theta * beta)

            points = [np.zeros(n)] + [
                N * rng.uniform(0.0, 0.999) * rng.dirichlet(np.ones(n)) for _ in range(6)
            ]
            for I in points:
                x = float(I[-1])
                exp_grad = math.exp(-float(beta @ I)) * beta
                np.testing.assert_array_equal(exp_inc.grad(I), exp_grad)
                np.testing.assert_array_equal(lin.grad(I), lin_beta)
                last_grad = np.zeros(n)
                last_grad[-1] = b * math.exp(-b * x)
                np.testing.assert_array_equal(last_exp.grad(I), last_grad)
                assert last_exp.scalar_deriv(x) == b * math.exp(-b * x)
                np.testing.assert_array_equal(last_lin.grad(I), lin_last)
                assert last_lin.scalar_deriv(x) == 0.9 / N
                if split is not None:
                    np.testing.assert_array_equal(
                        split.grad(I), theta * beta * np.exp(-beta * I))
                pis = {"exponential": -math.expm1(-sum(v * y for v, y in zip(beta, I))),
                       "last-class": -math.expm1(-b * x)}
                grads = {"exponential": exp_grad, "last-class": last_grad}
                for (law, family), model in composed.items():
                    pi, g = pis[family], grads[family]
                    if law == "poisson":
                        expected = 1.7 * math.exp(-1.7 * pi) * g
                    else:
                        expected = _explicit_weight(table.p, 1.0 - pi) * g
                    np.testing.assert_array_equal(model.grad(I), expected)


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
    with pytest.raises(DomainError, match=r"^infected vector has shape \(2,\), expected \(3,\)$"):
        inc.phi([0.1, 0.2])
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


@pytest.mark.parametrize("build, message", [
    (lambda: ExponentialIncidence([-0.1, 0.5], N=1.0), "beta must be nonnegative with beta_n > 0"),
    (lambda: LinearIncidence([-0.1, 0.5], N=1.0), "beta must be nonnegative with beta_n > 0"),
    (lambda: LinearIncidence([0.5, 0.0], N=1.0), "beta must be nonnegative with beta_n > 0"),
    (lambda: SplitExponentialIncidence([1.5, -0.5], [1.0, 1.0], N=1.0),
     "theta components must lie in (0, 1)"),
    (lambda: SplitExponentialIncidence([0.5, 0.5], [-1.0, 1.0], N=1.0),
     "beta must be nonnegative with beta_n > 0"),
    (lambda: SplitExponentialIncidence([0.5, 0.5], [1.0, 0.0], N=1.0),
     "beta must be nonnegative with beta_n > 0"),
    (lambda: LastClassIncidence(n=2, N=1.0, kind="custom"), "custom last-class profile needs func"),
    (lambda: LastClassIncidence(n=2, N=1.0, kind="quadratic"),
     "unknown last-class kind 'quadratic'"),
], ids=["exponential-beta", "linear-beta", "linear-beta_n", "split-theta", "split-beta",
        "split-beta_n", "last-class-no-func", "last-class-kind"])
def test_constructor_rejections_name_their_rule(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


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
    lambda: StoppingRule(eps_z=NAN),
], ids=["gamma", "N", "S", "I", "R", "beta-exponential", "beta-linear", "theta",
        "N-incidence", "beta-last-class", "N-custom", "contact-p", "lambda", "eps_z"])
def test_non_finite_inputs_are_rejected(build):
    # each of these used to build, and a NaN S, for one, ran all max_steps
    # to S_inf = nan
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("inc", [
    ExponentialIncidence([0.2, 0.5], N=1.0),
    LinearIncidence([0.2, 0.5], N=1.0),
    SplitExponentialIncidence([0.5, 0.5], [1.0, 2.0], N=1.0),
    LastClassIncidence(n=2, N=1.0, kind="exponential", beta=2.0),
    LastClassIncidence(n=2, N=1.0, kind="linear", beta=0.5),
    LastClassIncidence(n=2, N=1.0, kind="custom", func=lambda x: 0.5 * x),
    CustomIncidence(lambda I: 0.5 * I[-1], n=2, N=1.0),
    compose_incidence(LinearIncidence([0.2, 0.5], N=1.0),
                      ContactDistribution.explicit([0.5, 0.5])),
    compose_incidence(LinearIncidence([0.2, 0.5], N=1.0), ContactDistribution.poisson(2.0)),
], ids=lambda inc: inc.family)
@pytest.mark.parametrize("I", [[NAN, 0.0], [0.0, NAN], [INF, 0.0], [0.0, -INF]])
def test_a_non_finite_stage_is_outside_the_domain(inc, I):
    # a NaN stage used to give grad [nan, nan] and phi "phi = nan lies
    # outside [0, 1)"
    for evaluate in (inc.phi, inc.grad):
        with pytest.raises(DomainError, match="^infected vector has a non-finite component$"):
            evaluate(I)


@pytest.mark.parametrize("build", [
    lambda n: LastClassIncidence(n=n, N=1.0, kind="exponential", beta=1.0),
    lambda n: CustomIncidence(lambda I: 0.5 * I[-1], n=n, N=1.0),
], ids=["last-class", "custom"])
def test_stage_counts_must_be_whole_numbers(build):
    # n = 2.7 and n = 1.9 used to build 2 and 1 stages
    for n, message in ((2.7, "n must be a whole number, got 2.7"),
                       (1.9, "n must be a whole number, got 1.9"),
                       (NAN, "n must be a whole number, got nan"),
                       (0, "n must be at least 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(n)
    assert build(3.0).n == 3 and type(build(np.int64(3)).n) is int


def test_last_class_profiles():
    inc = LastClassIncidence(n=3, N=1.0, kind="exponential", beta=2.0)
    np.testing.assert_array_equal(inc.r, [0.0, 0.0, 2.0])
    assert inc.phi([0.5, 0.3, 0.0]) == 0.0  # only the last stage infects
    assert inc.phi([0.0, 0.0, 0.1]) == pytest.approx(-math.expm1(-0.2), rel=1e-15)
    lin = LastClassIncidence(n=2, N=1.0, kind="linear", beta=0.8)
    assert lin.scalar_deriv(0.3) == 0.8


# stage values: zeros of both signs, subnormals, the least normal and a few plain
_LAST_CLASS_STAGES = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.125, 0.5]


@given(
    st.sampled_from(["linear", "exponential"]),
    st.sampled_from([2.0, 4.0]),
    st.sampled_from([1e-300, 0.5, 1.0]),  # beta * N
    st.lists(st.sampled_from(_LAST_CLASS_STAGES), min_size=1, max_size=4),
)
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_last_class_phi_matches_its_n_stage_encoding(kind, N, scale, I):
    # the built-in profile of I_n against the kernel's phi over all n stages,
    # whose other entries are zeros: bit for bit, signed zeros included
    inc = LastClassIncidence(n=len(I), N=N, kind=kind, beta=scale / N)
    ik, v1, v2, _, _ = inc.kernel_spec()
    want = float(inner_phi(I, ik, v1.tolist(), v2.tolist())).hex()
    I = np.array(I)
    assert float(inc._phi_raw(I)).hex() == want
    assert float(inc.scalar_phi(float(I[-1]))).hex() == want
    assert (float(inc.phi(I)).hex() == want) if I.any() else inc.phi(I) == 0.0


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


@pytest.mark.parametrize("I", [[5e-7, 0.999998], [1.5e-6, 0.999998]],
                         ids=["short-of-I1", "short-of-mass"])
def test_finite_difference_gradient_evaluates_phi_inside_u(I):
    # h = 1e-6 * N; the one-sided stencils reach two steps, so a side with
    # room for one step of h but not two used to take phi outside U
    seen = []

    def f(x):
        seen.append(np.array(x, dtype=float))
        return 0.3 * -math.expm1(-float(x.sum()))

    inc = CustomIncidence(f, n=2, N=1.0)
    seen.clear()
    g = inc.grad(I)
    assert seen
    for x in seen:
        assert x.min() >= 0.0 and x.sum() <= 1.0 + 1e-12, x
    np.testing.assert_allclose(g, 0.3 * math.exp(-sum(I)), rtol=1e-6)


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
    kind = draw(st.sampled_from(["exponential", "linear", "split", "last-linear",
                                 "last-exponential", "last-custom"]))
    # stay off phi = 1 at the full-mass corner of U, which the dynamics never
    # reach: sum(beta) = 1/N exactly for linear incidence, and its likes
    below_one = draw(st.floats(0.2, 0.999))
    N = 1.0
    if kind == "linear":
        beta = beta / (beta.sum() * N) * below_one
        inc = LinearIncidence(beta, N)
    elif kind == "split" and n >= 2:
        theta = rng.dirichlet(np.ones(n))
        inc = SplitExponentialIncidence(theta, beta, N)
    elif kind == "last-linear":
        inc = LastClassIncidence(n, N, kind="linear", beta=below_one / N)
    elif kind == "last-exponential":
        inc = LastClassIncidence(n, N, kind="exponential", beta=beta[-1])
    elif kind == "last-custom":
        # f(x) = a x / (1 + k x), concave and saturating
        k = rng.uniform(0.0, 3.0)
        a = below_one * (1.0 + k * N) / N
        inc = LastClassIncidence(n, N, kind="custom", func=lambda x: a * x / (1.0 + k * x),
                                 deriv=lambda x: a / (1.0 + k * x) ** 2)
    else:
        inc = ExponentialIncidence(beta, N)
    law = draw(st.sampled_from([None, "explicit", "poisson"]))
    if law == "explicit":
        p = rng.dirichlet(np.ones(int(rng.integers(2, 7))))
        inc = compose_incidence(inc, ContactDistribution.explicit(p))
    elif law == "poisson":
        inc = compose_incidence(inc, ContactDistribution.poisson(rng.uniform(0.1, 4.0)))
    w = rng.uniform(0.0, 1.0, n)
    scale = draw(st.floats(0.0, 1.0))
    I = scale * N * w / max(w.sum(), 1e-12)
    return inc, I


@given(_family_and_point())
@settings(max_examples=max(200, settings().max_examples), deadline=None)
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


def _simplex_grid_by_meshgrid(n, N, density):
    # the full density^n grid, filtered: the reference for the enumeration
    axes = [np.linspace(0.0, N, density)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[pts.sum(axis=1) <= N * (1.0 + 1e-15)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("density", [2, 3, 5, 9, 11])
def test_simplex_grid_equals_the_filtered_full_grid(n, density):
    for N in (1e-300, 0.3, 1.0, 7.0, 1e300):
        grid = _simplex_grid(n, N, density)
        ref = _simplex_grid_by_meshgrid(n, N, density)
        assert grid.shape == ref.shape and grid.dtype == ref.dtype
        np.testing.assert_array_equal(grid, ref)


def test_simplex_grid_memory_follows_the_points_kept():
    # the full 9^6 grid peaked at 55.8 MB to keep 3,003 points
    tracemalloc.start()
    try:
        grid = _simplex_grid(6, 1.0, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (3003, 6)
    assert peak < 5e6


def test_validate_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        validate_regularity(ExponentialIncidence([0.5], N=1.0), grid_density=1)
