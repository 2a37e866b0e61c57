"""The stepping kernel: every encoding against the model objects, chunk
splicing, the six-value return and the ending at a phi outside [0, 1)."""

from __future__ import annotations

import math

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
    monotonicity_onset,
    poisson_incidence,
    simulate,
)
from spepi.model import EpidemicState, StageParams, StoppingRule

from conftest import random_initial

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


def test_all_kernel_encodings_match_object_phi():
    # each family encoding must reproduce the Python-object incidence values
    rng = np.random.default_rng(5)
    for inc in KERNEL_MODELS:
        params = StageParams(gamma=rng.uniform(0.3, 0.8, inc.n), N=N)
        initial = random_initial(rng, params)
        traj = simulate(initial, params, inc, StoppingRule(max_steps=50))
        for t in range(len(traj.S)):
            assert traj.phi[t] == inc.phi(traj.I[t]), (inc.family, t)


def test_composed_kernel_full_run_matches_generic_path():
    # a contact-composed model steps on its encoding's stepper; wrapping the
    # identical evaluation as a custom callable steps on a stepper that calls
    # it, and the two full trajectories must coincide exactly
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


def _spec_lists(inc, gamma):
    # run_chunk's arguments gamma, ik, v1, v2, ok and op, vectors as lists
    ik, v1, v2, ok, op = inc.kernel_spec()
    return np.asarray(gamma, dtype=float).tolist(), ik, v1.tolist(), v2.tolist(), ok, op.tolist()


def _buffers(cap, n):
    # run_chunk's output lists for cap rows: S, flat I, R, phi and Z
    return [0.0] * cap, [0.0] * (cap * n), [0.0] * cap, [0.0] * cap, [0.0] * cap


@pytest.mark.parametrize("cap", [1, 3])
@pytest.mark.parametrize("inc", KERNEL_MODELS, ids=_encoding_id)
def test_chunk_resume_restarts_cleanly(inc, cap):
    # drive the kernel manually with cap-row buffers and splice the chunks;
    # every call after the first enters on an already recorded state, so
    # with 1-row buffers each of those rows comes from the resumed step
    n = inc.n
    params = StageParams(gamma=np.linspace(0.5, 0.7, n), N=N)
    I0 = np.full(n, 0.02 / n)
    S, I, R = N - I0.sum(), I0.tolist(), 0.0
    phi_entry = -1.0
    chunks = []
    for _ in range(12 // cap):
        bufs = _buffers(cap, n)
        rows, converged, S, R, phi_entry, _ = kernels.run_chunk(
            S, I, R, phi_entry, *_spec_lists(inc, params.gamma), 1e-12, 1e-14, *bufs
        )
        assert rows == cap and not converged
        chunks.append(bufs)
    glued = [np.concatenate(c) for c in zip(*chunks)]
    ref = simulate(EpidemicState(S=N - I0.sum(), I=I0, R=0.0), params, inc,
                   StoppingRule(max_steps=11))
    assert ref.n_steps == 11
    for got, want in zip(glued, (ref.S, ref.I.reshape(-1), ref.R, ref.phi, ref.Z)):
        np.testing.assert_array_equal(got, want)


def _drive(inc, params, I0, cap, eps_z):
    # call run_chunk with fresh cap-row buffers until it converges; returns
    # the spliced rows and the state the last call handed back
    n = inc.n
    S, I, R, phi = params.N - I0.sum(), I0.tolist(), 0.0, -1.0
    chunks = []
    while True:
        bufs = _buffers(cap, n)
        rows, converged, S, R, phi, _ = kernels.run_chunk(
            S, I, R, phi, *_spec_lists(inc, params.gamma), eps_z, 1.0, *bufs
        )
        S_b, I_b, R_b, phi_b, Z_b = bufs
        chunks.append((S_b[:rows], I_b[:rows * n], R_b[:rows], phi_b[:rows], Z_b[:rows]))
        if converged:
            return [np.concatenate(c) for c in zip(*chunks)], (S, R, phi, I)
        assert rows == cap


@pytest.mark.parametrize("cap", [1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("inc", KERNEL_MODELS, ids=_encoding_id)
def test_spliced_chunks_match_simulate(inc, cap):
    # the run converges at row 2300: inside the first call of 2500 rows,
    # and after many calls of the smaller sizes
    n = inc.n
    params = StageParams(gamma=np.linspace(0.05, 0.1, n), N=N)
    I0 = np.full(n, 0.02 / n)
    steps = 2300
    free = simulate(EpidemicState(S=N - I0.sum(), I=I0, R=0.0), params, inc,
                    StoppingRule(max_steps=steps, eps_z=0.0, eps_s=0.0))
    eps_z = float(np.nextafter(free.Z[-1], np.inf))
    rows, (S, R, phi, I) = _drive(inc, params, I0, cap, eps_z)
    assert len(rows[0]) == steps + 1
    for got, want in zip(rows, (free.S, free.I.reshape(-1), free.R, free.phi, free.Z)):
        np.testing.assert_array_equal(got, want)
    assert (S, R, phi) == (free.S[-1], free.R[-1], free.phi[-1])
    np.testing.assert_array_equal(I, free.I[-1])


def test_a_phi_of_one_ends_the_chunk_invalid():
    # exponential incidence with beta = 60 rounds phi to 1.0 at step 2: the
    # call records that row and stops there
    inc = ExponentialIncidence([60.0], N)
    bufs = _buffers(8, 1)
    rows, converged, S, R, phi, _ = kernels.run_chunk(
        0.99, [0.01], 0.0, -1.0, *_spec_lists(inc, [0.5]), 1e-12, 1e-14, *bufs)
    assert (rows, converged, phi) == (3, False, 1.0)
    assert bufs[3][2] == 1.0 and 0.0 <= bufs[3][1] < 1.0


@pytest.mark.parametrize("cap", [1, 4])
@pytest.mark.parametrize("inc", KERNEL_MODELS, ids=_encoding_id)
def test_each_summary_call_seeks_the_onset_from_its_entry(inc, cap):
    # both steppers return (rows, converged, S, R, phi, onset), the recording
    # one with onset None; a summary call's onset counts from its own entry
    # (-1: the entry row, recorded by the call before), and the first one
    # found is monotonicity_onset's.  Stages 2..n start empty, so no step of
    # the first call finds the onset.
    n = inc.n
    params = StageParams(gamma=np.linspace(0.5, 0.7, n), N=N)
    I0 = np.zeros(n)
    I0[0] = 0.02
    traj = simulate(EpidemicState(S=N - 0.02, I=I0, R=0.0), params, inc, StoppingRule())
    dec = np.all(traj.I[1:] < traj.I[:-1], axis=1)
    spec = (*_spec_lists(inc, params.gamma), 1e-12, 1e-14)
    result = kernels.run_chunk(N - 0.02, I0.tolist(), 0.0, -1.0, *spec, *_buffers(cap, n))
    assert len(result) == 6 and result[5] is None
    S, I, R, phi = N - 0.02, I0.tolist(), 0.0, -1.0
    done, first, converged = 0, None, False
    while not converged:
        S_b, _, R_b, phi_b, Z_b = _buffers(cap, n)
        result = kernels.run_chunk(S, I, R, phi, *spec, S_b, None, R_b, phi_b, Z_b)
        assert len(result) == 6
        rows, converged, S, R, phi, onset = result
        # the call steps from row max(done - 1, 0) to row done + rows - 1
        hits = np.flatnonzero(dec[max(done - 1, 0):done + rows - 1]) + max(done - 1, 0)
        assert onset == (int(hits[0]) - done if hits.size else None), done
        if first is None and onset is not None:
            first = done + onset
        done += rows
    assert done == len(traj.S)
    assert first == monotonicity_onset(traj).onset >= cap - 1
