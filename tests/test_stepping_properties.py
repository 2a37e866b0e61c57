"""The one-pass stage update against the two-pass form it replaced, bit for bit.

Every run steps through the one kernel loop: a built-in encoding on
``run_chunk``, and a custom callable (plain, last-class, or under either
contact law) on the Python twin with ``phi_fn`` in place of the encoding.
It updates the stages in one ascending pass that also sums the
prevalence.  ``_reference_run`` below keeps the earlier form: a
descending loop over the stages, then a separate sequential sum of Z.
Every stage value has the same operands and Z the same summation order in
both, so the trajectories must agree under ``float.hex``.  The small
block sizes cross the run's block edges on every encoding.  The same runs check conservation, S
non-increasing and I >= 0.
"""

from __future__ import annotations

import math
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
    EpidemicState,
    ExponentialIncidence,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
    StageParams,
    StoppingRule,
    compose_incidence,
    simulate,
)
from spepi.model import CONSERVATION_TOL_REL


def _reference_run(initial, params, incidence, max_steps, eps_z, eps_s):
    """The two-pass stepper: (S, I, R, phi, Z) rows and the stop reason."""
    spec = incidence.kernel_spec()
    if spec is None:
        phi_of = incidence.phi
    else:  # the kernel's own evaluation, on lists like its Python twin
        ik, v1, v2, ok, op = spec
        v1, v2, op = v1.tolist(), v2.tolist(), op.tolist()

        def phi_of(I):
            phi = kernels.inner_phi(I, ik, v1, v2)
            return phi if ok == 0 else kernels.outer_phi(phi, ok, op)

    gamma = params.gamma.tolist()
    n = params.n
    S, I, R = initial.S, initial.I.tolist(), initial.R
    z = 0.0
    for j in range(n):
        z += I[j]
    rows = []
    conv = False
    for t in range(max_steps + 1):
        phi = phi_of(I)
        rows.append((S, I.copy(), R, phi, z))
        if conv:
            return rows, "converged"
        if t == max_steps:
            return rows, "max-steps"
        inc = phi * S
        S_new = S - inc
        R = R + gamma[n - 1] * I[n - 1]
        for j in range(n - 1, 0, -1):
            I[j] = (1.0 - gamma[j]) * I[j] + gamma[j - 1] * I[j - 1]
        I[0] = (1.0 - gamma[0]) * I[0] + inc
        z = 0.0
        for j in range(n):
            z += I[j]
        conv = (z < eps_z) and ((S - S_new) < eps_s)
        S = S_new


def _weights(rng, n, total):
    w = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
    w[-1] = rng.uniform(0.1, 1.0)  # beta_n > 0
    return w * (total / w.sum())


def _inner(kind, rng, n, N):
    if kind == "custom":
        return _custom(rng, n, N)
    if kind == "linear":  # the range condition sum(beta) <= 1/N
        return LinearIncidence(_weights(rng, n, rng.uniform(0.01, 0.999) / N), N)
    if kind == "exponential":
        return ExponentialIncidence(_weights(rng, n, rng.uniform(0.01, 6.0) / N), N)
    theta = rng.dirichlet(np.ones(n))
    theta = np.clip(theta, 1e-3, None)
    theta /= theta.sum()
    return SplitExponentialIncidence(theta, rng.uniform(0.01, 6.0, n) / N, N)


def _custom(rng, n, N):
    beta = _weights(rng, n, rng.uniform(0.01, 6.0) / N)
    return CustomIncidence(lambda I: -math.expm1(-float(beta @ I)), n=n, N=N,
                           grad=lambda I: beta * np.exp(-float(beta @ I)))


def _model(encoding, rng, n, N):
    """An incidence model of ``encoding``; split-exponential needs n >= 2."""
    if encoding.startswith("last-class-"):
        kind = encoding.removeprefix("last-class-")
        beta = rng.uniform(0.01, 0.999 if kind == "linear" else 6.0) / N
        if kind == "custom":
            return LastClassIncidence(n=n, N=N, kind=kind,
                                      func=lambda x: -math.expm1(-beta * x),
                                      deriv=lambda x: beta * math.exp(-beta * x))
        return LastClassIncidence(n=n, N=N, kind=kind, beta=beta)
    inner_kind, _, outer = encoding.partition("/")
    inner = _inner(inner_kind, rng, n, N)
    if outer == "explicit":
        p = rng.dirichlet(np.ones(int(rng.integers(2, 7))))  # p[0]: no contact
        return compose_incidence(inner, ContactDistribution.explicit(p))
    if outer == "poisson":
        return compose_incidence(inner, ContactDistribution.poisson(rng.uniform(0.1, 5.0)))
    return inner


def _gamma(rng, n, mode):
    if mode == "small":
        return 10.0 ** rng.uniform(-6.0, -1.0, n)
    if mode == "large":
        return 1.0 - 10.0 ** rng.uniform(-6.0, -1.0, n)
    g = rng.uniform(1e-6, 1.0 - 1e-6, n)
    g[rng.integers(0, n)] = 1e-6
    g[rng.integers(0, n)] = 1.0 - 1e-6
    return g


def _initial(rng, n, N):
    seed = 10.0 ** rng.uniform(-6.0, -0.5) * N
    w = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    w[rng.integers(0, n)] = 1.0
    I0 = seed * w / w.sum()
    return EpidemicState(S=N - float(I0.sum()), I=I0, R=0.0)


def _hex(values):
    return [float(x).hex() for x in values]


ENCODINGS = [
    f"{inner}{outer}"
    for inner in ("linear", "exponential", "split-exponential")
    for outer in ("", "/explicit", "/poisson")
] + ["last-class-linear", "last-class-exponential", "last-class-custom",
      "custom", "custom/explicit", "custom/poisson"]


@pytest.mark.parametrize("encoding", ENCODINGS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 8), st.integers(1, 200)),
    gamma_mode=st.sampled_from(["small", "large", "mixed"]),
    eps=st.sampled_from(["default", "zero", "loose"]),
    sizes=st.one_of(
        # small blocks: a short run crosses many of their edges
        st.tuples(st.integers(1, 40), st.integers(1, 200)),
        # the real size: crosses BLOCK_ROWS
        st.tuples(st.just(model.BLOCK_ROWS), st.integers(1025, 4200)),
    ),
)
# every encoding runs once past four blocks of BLOCK_ROWS, and once at n = 200
@example(seed=1, n=2, gamma_mode="mixed", eps="zero", sizes=(model.BLOCK_ROWS, 4200))
@example(seed=2, n=200, gamma_mode="small", eps="zero", sizes=(7, 60))
def test_one_pass_update_matches_two_pass_bitwise(encoding, seed, n, gamma_mode, eps, sizes):
    block_rows, max_steps = sizes
    if max_steps > 200:
        n = min(n, 2)  # keep the long runs cheap
    if encoding.startswith("split-exponential"):
        n = max(n, 2)  # the split family needs >= 2 contact pools
    rng = np.random.default_rng(seed)
    N = float(10.0 ** rng.uniform(-1.0, 2.0))
    params = StageParams(gamma=_gamma(rng, n, gamma_mode), N=N)
    inc = _model(encoding, rng, n, N)
    assert (inc.kernel_spec() is None) == ("custom" in encoding)
    initial = _initial(rng, n, N)
    tol = {"default": None, "zero": 0.0, "loose": 1e-4 * N}[eps]
    stopping = StoppingRule(max_steps=max_steps, eps_z=tol, eps_s=tol)
    _, eps_z, eps_s = stopping.resolve(N)

    with mock.patch.object(model, "BLOCK_ROWS", block_rows):
        traj = simulate(initial, params, inc, stopping)
    rows, reason = _reference_run(initial, params, inc, max_steps, eps_z, eps_s)

    assert traj.stop_reason == reason
    assert len(traj.S) == len(rows)
    S, I, R, phi, Z = zip(*rows)
    assert _hex(traj.S) == _hex(S)
    assert _hex(traj.R) == _hex(R)
    assert _hex(traj.phi) == _hex(phi)
    assert _hex(traj.Z) == _hex(Z)
    assert _hex(traj.I.ravel()) == _hex(x for row in I for x in row)

    drift = np.abs(traj.S + traj.Z + traj.R - N)
    assert drift.max() <= CONSERVATION_TOL_REL * N
    assert np.all(np.diff(traj.S) <= 0.0)
    assert np.all(traj.I >= 0.0)
