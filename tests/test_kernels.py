"""Compiled kernel vs plain-Python twin: identical trajectories, all encodings."""

from __future__ import annotations

import importlib
import math
import sys
import types

import numpy as np
import pytest

import spepi._kernels as kernels
from spepi import (
    ContactDistribution,
    CustomIncidence,
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


def _run_both(initial, params, spec, max_steps=10**6, eps_z=1e-12, eps_s=1e-14):
    current = kernels.run_chunk
    try:
        kernels.run_chunk = kernels.run_chunk_py
        py = _simulate_kernel(initial, params.gamma, params.N, spec, max_steps,
                              eps_z, eps_s)
        if kernels.run_chunk_jit is not None:
            kernels.run_chunk = kernels.run_chunk_jit
            jit = _simulate_kernel(initial, params.gamma, params.N, spec, max_steps,
                                   eps_z, eps_s)
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
        py, jit = _run_both(initial, params, spec,
                            eps_z=1e-12 * params.N, eps_s=1e-14 * params.N)
        assert py[-1] == jit[-1]
        for a, b in zip(py[:-1], jit[:-1]):
            np.testing.assert_array_equal(a, b)
    # a run that ends INVALID: phi rounds to 1.0 at step 2.  Compiling the
    # kernel with phi_fn omitted prunes its phi_fn branch.
    inc = ExponentialIncidence([60.0], N)
    params = StageParams(gamma=[0.5], N=N)
    ends = []
    for run in (kernels.run_chunk_py, kernels.run_chunk_jit):
        bufs = (np.empty(8), np.empty(8), np.empty(8), np.empty(8), np.empty(8))
        result = run(0.99, np.array([0.01]), 0.0, -1.0, params.gamma,
                     *inc.kernel_spec(), 1e-12, 1e-14, *bufs)
        ends.append((result, [b[:result[0]] for b in bufs]))
    (py_result, py_rows), (jit_result, jit_rows) = ends
    assert py_result[:2] == (3, kernels.INVALID) and py_result[-1] == 1.0
    assert tuple(jit_result) == tuple(py_result)
    for a, b in zip(py_rows, jit_rows):
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


def test_numba_branch_registers_both_phi_helpers(monkeypatch):
    # a stub numba records the order of calls; the kernel may only be
    # compiled once both helpers it calls are registered
    calls = []

    def njit(**options):
        def compile_(fn):
            calls.append(("njit", fn.__name__))
            return fn
        return compile_

    stub = types.ModuleType("numba")
    stub.njit = njit
    stub.extending = types.ModuleType("numba.extending")
    stub.extending.register_jitable = lambda fn: calls.append(("register", fn)) or fn
    monkeypatch.setitem(sys.modules, "numba", stub)
    monkeypatch.setitem(sys.modules, "numba.extending", stub.extending)
    monkeypatch.delenv("SPEPI_DISABLE_NUMBA", raising=False)
    mod = importlib.reload(kernels)
    try:
        assert calls == [("register", mod.inner_phi), ("register", mod.outer_phi),
                         ("njit", "_run_chunk_impl")]
        assert mod.using_numba is True
        assert mod.run_chunk is mod.run_chunk_jit
    finally:
        monkeypatch.undo()
        importlib.reload(kernels)


INNER_MODELS = [
    LinearIncidence([0.3, 0.4], N),
    ExponentialIncidence([0.5, 1.0], N),
    SplitExponentialIncidence([0.4, 0.6], [1.2, 0.7], N),
]
CONTACT_LAWS = [
    ContactDistribution.explicit([0.1, 0.5, 0.3, 0.1]),
    ContactDistribution.poisson(2.5),
]


@pytest.mark.parametrize("dist", CONTACT_LAWS, ids=["ok1", "ok2"])
@pytest.mark.parametrize("inner", INNER_MODELS, ids=["ik0", "ik1", "ik2"])
def test_composition_over_a_custom_inner_model_matches_the_kernel(inner, dist):
    # over a custom mirror of the inner model the composition has no kernel
    # encoding, so the generic path evaluates it through outer_phi on the
    # mirror's value; the kernel must give the same trajectory bit for bit
    mirror = CustomIncidence(inner._phi_raw, n=inner.n, N=N)
    built_in = compose_incidence(inner, dist)
    generic = compose_incidence(mirror, dist)
    assert built_in.kernel_spec()[3] in (1, 2) and generic.kernel_spec() is None
    params = StageParams(gamma=[0.45, 0.75], N=N)
    initial = EpidemicState(S=0.98, I=[0.015, 0.005], R=0.0)
    a = simulate(initial, params, built_in, StoppingRule())
    b = simulate(initial, params, generic, StoppingRule())
    assert a.stop_reason == b.stop_reason == "converged"
    for field in ("S", "I", "R", "phi", "Z"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)


@pytest.mark.parametrize("kind", ["linear", "exponential"])
def test_last_class_scalar_phi_is_phi_on_the_last_stage(kind):
    rng = np.random.default_rng(3)
    n = 3
    for beta in rng.uniform(0.05, 1.0, 20):
        inc = LastClassIncidence(n=n, N=N, kind=kind, beta=float(beta))
        xs = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
        xs += rng.uniform(0.0, 1.0, 50).tolist() + (10.0 ** rng.uniform(-300, 0, 50)).tolist()
        for x in xs:
            got = inc.scalar_phi(x)
            want = inc.phi([0.0] * (n - 1) + [x])
            assert got.hex() == want.hex(), (kind, beta, x)
            assert math.isfinite(got)


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
        bufs = (np.empty(cap), np.empty((cap, n)), np.empty(cap), np.empty(cap),
                np.empty(cap))
        rows, status, S, R, phi_entry = kernels.run_chunk_py(
            S, I, R, phi_entry, params.gamma, *inc.kernel_spec(), 1e-12, 1e-14, *bufs
        )
        assert rows == cap and status == kernels.FULL
        chunks.append([b.copy() for b in bufs])
    glued = [np.concatenate(c) for c in zip(*chunks)]
    ref = simulate(EpidemicState(S=N - I0.sum(), I=I0, R=0.0), params, inc,
                   StoppingRule(max_steps=11))
    assert ref.n_steps == 11
    for got, want in zip(glued, (ref.S, ref.I, ref.R, ref.phi, ref.Z)):
        np.testing.assert_array_equal(got, want)


def _drive(run, inc, params, I0, cap, eps_z):
    # call ``run`` with fresh cap-row buffers until it converges; returns the
    # spliced rows and the state the last call handed back
    n = inc.n
    S, I, R, phi = params.N - I0.sum(), I0.copy(), 0.0, -1.0
    chunks = []
    while True:
        bufs = (np.empty(cap), np.empty(cap * n), np.empty(cap), np.empty(cap),
                np.empty(cap))
        rows, status, S, R, phi = run(
            S, I, R, phi, params.gamma, *inc.kernel_spec(), eps_z, 1.0, *bufs
        )
        S_b, I_b, R_b, phi_b, Z_b = bufs
        chunks.append((S_b[:rows], I_b[:rows * n], R_b[:rows], phi_b[:rows], Z_b[:rows]))
        if status == kernels.CONVERGED:
            return [np.concatenate(c) for c in zip(*chunks)], (S, R, phi, I)
        assert rows == cap


@pytest.mark.parametrize("cap", [1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("inc", KERNEL_MODELS, ids=_encoding_id)
def test_impl_on_numpy_arrays_matches_python_twin(inc, cap):
    # the numpy-array form of the kernel, with a flat stage buffer, is the one
    # numba compiles; the twin runs the same source on lists in blocks of
    # BLOCK_ROWS rows.  The run converges at row 2300, inside the third block
    # of a 2500-row chunk, so chunk and block edges both fall inside it
    n = inc.n
    params = StageParams(gamma=np.linspace(0.05, 0.1, n), N=N)
    I0 = np.full(n, 0.02 / n)
    steps = 2300
    free = simulate(EpidemicState(S=N - I0.sum(), I=I0, R=0.0), params, inc,
                    StoppingRule(max_steps=steps, eps_z=0.0, eps_s=0.0))
    eps_z = float(np.nextafter(free.Z[-1], np.inf))
    py_rows, py_end = _drive(kernels.run_chunk_py, inc, params, I0, cap, eps_z)
    np_rows, np_end = _drive(kernels._run_chunk_impl, inc, params, I0, cap, eps_z)
    assert len(py_rows[0]) == steps + 1
    for got, want in zip(py_rows, np_rows):
        np.testing.assert_array_equal(got, want)
    assert py_end[:3] == np_end[:3]
    np.testing.assert_array_equal(py_end[3], np_end[3])
    for got, want in zip(py_rows, (free.S, free.I.reshape(-1), free.R, free.phi, free.Z)):
        np.testing.assert_array_equal(got, want)
