"""Compiled kernel vs plain-Python twin: identical trajectories, all encodings."""

from __future__ import annotations

import numpy as np
import pytest

import spepi._kernels as kernels
from spepi import (
    ContactDistribution,
    ExponentialIncidence,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
    compose_incidence,
    poisson_incidence,
    simulate,
)
from spepi.model import EpidemicState, StageParams, StoppingRule, _simulate_kernel

from conftest import random_initial, random_model

N = 1.0
# one model per kernel encoding (inner kind ik, outer kind ok)
KERNEL_MODELS = [
    ExponentialIncidence([0.2, 0.2, 0.1], N),
    LinearIncidence([0.3, 0.4], N),
    SplitExponentialIncidence([0.4, 0.6], [1.2, 0.7], N),
    LastClassIncidence(n=2, N=N, kind="exponential", beta=0.9),
    LastClassIncidence(n=2, N=N, kind="linear", beta=0.8),
    compose_incidence(
        ExponentialIncidence([0.5, 1.0], N),
        ContactDistribution.explicit([0.1, 0.5, 0.3, 0.1]),
    ),
    poisson_incidence(2.5, LinearIncidence([0.2, 0.3], N)),
]


def _encoding_id(inc):
    ik, _, _, ok, _ = inc.kernel_spec()
    return f"{inc.family}-ik{ik}-ok{ok}"


def _run_both(initial, gamma, spec, max_steps=10**6, eps_z=1e-12, eps_s=1e-14):
    current = kernels.run_chunk
    try:
        kernels.run_chunk = kernels.run_chunk_py
        py = _simulate_kernel(initial, gamma, spec, max_steps, eps_z, eps_s)
        if kernels.run_chunk_jit is not None:
            kernels.run_chunk = kernels.run_chunk_jit
            jit = _simulate_kernel(initial, gamma, spec, max_steps, eps_z, eps_s)
        else:  # pragma: no cover - numba always present in CI
            jit = py
    finally:
        kernels.run_chunk = current
    return py, jit


@pytest.mark.skipif(kernels.run_chunk_jit is None, reason="numba unavailable")
def test_jit_and_python_twins_agree_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(10):
        params, inc = random_model(rng)
        initial = random_initial(rng, params)
        spec = inc.kernel_spec()
        assert spec is not None
        py, jit = _run_both(initial, params.gamma, spec,
                            eps_z=1e-12 * params.N, eps_s=1e-14 * params.N)
        assert py[4] == jit[4]
        for a, b in zip(py[:4], jit[:4]):
            np.testing.assert_array_equal(a, b)


def test_all_kernel_encodings_match_object_phi():
    # each family encoding must reproduce the Python-object incidence values
    rng = np.random.default_rng(5)
    for inc in KERNEL_MODELS:
        params = StageParams(gamma=rng.uniform(0.3, 0.8, inc.n), N=N)
        initial = random_initial(rng, params)
        traj = simulate(initial, params, inc, StoppingRule(max_steps=50))
        for t in range(len(traj.S)):
            assert traj.phi[t] == inc.phi(traj.I[t]), (inc.family, t)


def test_env_flag_selects_python_twin(monkeypatch):
    import importlib

    monkeypatch.setenv("SPEPI_DISABLE_NUMBA", "1")
    mod = importlib.reload(kernels)
    try:
        assert mod.using_numba is False
        assert mod.run_chunk is mod.run_chunk_py
    finally:
        monkeypatch.delenv("SPEPI_DISABLE_NUMBA")
        importlib.reload(kernels)


def test_composed_kernel_full_run_matches_generic_path():
    # a contact-composed model runs through the compiled path; wrapping the
    # identical evaluation as a custom callable forces the generic Python
    # loop, and the two full trajectories must coincide exactly
    from spepi import CustomIncidence

    N = 1.0
    pi = ExponentialIncidence([0.5, 1.0], N)
    dist = ContactDistribution.explicit([0.1, 0.5, 0.3, 0.1])
    composed = compose_incidence(pi, dist)
    assert composed.kernel_spec() is not None
    mirror = CustomIncidence(lambda I: composed._phi_raw(np.asarray(I, float)), n=2, N=N)
    assert mirror.kernel_spec() is None

    params = StageParams(gamma=[0.45, 0.75], N=N)
    initial = EpidemicState(S=0.98, I=[0.015, 0.005], R=0.0)
    a = simulate(initial, params, composed, StoppingRule())
    b = simulate(initial, params, mirror, StoppingRule())
    assert a.stop_reason == b.stop_reason == "converged"
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.I, b.I)
    np.testing.assert_array_equal(a.phi, b.phi)


@pytest.mark.parametrize("cap", [1, 3])
@pytest.mark.parametrize("inc", KERNEL_MODELS, ids=_encoding_id)
def test_chunk_resume_restarts_cleanly(inc, cap):
    # drive the kernel manually with cap-row buffers and splice the chunks;
    # every call after the first enters on an already recorded state, so
    # with 1-row buffers each of those rows comes from the resumed step
    n = inc.n
    params = StageParams(gamma=np.linspace(0.5, 0.7, n), N=N)
    I0 = np.full(n, 0.02 / n)
    S, I, R = N - I0.sum(), I0.copy(), 0.0
    phi_entry = -1.0
    chunks = []
    for _ in range(12 // cap):
        bufs = (np.empty(cap), np.empty((cap, n)), np.empty(cap), np.empty(cap))
        rows, status, S, R, phi_entry = kernels.run_chunk_py(
            S, I, R, phi_entry, params.gamma, *inc.kernel_spec(), 1e-12, 1e-14, *bufs
        )
        assert rows == cap and status == kernels.FULL
        chunks.append([b.copy() for b in bufs])
    glued = [np.concatenate(c) for c in zip(*chunks)]
    ref = simulate(EpidemicState(S=N - I0.sum(), I=I0, R=0.0), params, inc,
                   StoppingRule(max_steps=11))
    assert ref.n_steps == 11
    for got, want in zip(glued, (ref.S, ref.I, ref.R, ref.phi)):
        np.testing.assert_array_equal(got, want)
