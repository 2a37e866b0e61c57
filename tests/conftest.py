"""Shared fixtures and random-scenario generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import spepi._kernels as kernels
from spepi import (
    EpidemicState,
    ExponentialIncidence,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
    StageParams,
    figure_scenarios,
)


@pytest.fixture(scope="session")
def figures():
    return figure_scenarios()


def draw_gammas(rng, n, lo=0.1, hi=0.9, min_sep=0.05):
    """Progression probabilities with pairwise separation (keeps the stage
    spectrum simple enough for sharp direction/eigen assertions)."""
    while True:
        g = rng.uniform(lo, hi, n)
        if n == 1 or np.min(np.diff(np.sort(g))) > min_sep:
            return g


def random_model(rng, n_range=(1, 5), families=("exponential", "linear", "split-exponential"),
                 r0_lo=0.2, r0_hi=4.0, r0_gap=(0.93, 1.07), N_lo=0.1, N_hi=100.0):
    """Random (params, incidence, R0_target) with R0 rescaled to a target
    drawn outside a guard band around 1 (near-threshold runs converge too
    slowly for identity-grade cross-checks)."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    N = float(10 ** rng.uniform(np.log10(N_lo), np.log10(N_hi)))
    gamma = draw_gammas(rng, n)
    params = StageParams(gamma=gamma, N=N)
    family = families[int(rng.integers(0, len(families)))]
    if family == "split-exponential" and n == 1:
        family = "exponential"  # the split family needs >= 2 contact pools
    target = float(rng.uniform(r0_lo, r0_hi))
    if r0_gap[0] < target < r0_gap[1]:
        target = r0_hi - (target - r0_gap[0])

    beta = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
    beta[-1] = rng.uniform(0.1, 1.0)
    if family == "split-exponential":
        theta = rng.dirichlet(np.ones(n))
        while np.any(theta <= 0.0) or np.any(theta >= 1.0):
            theta = rng.dirichlet(np.ones(n))
        delta0 = float((theta * beta / gamma).sum())
        beta *= target / (N * delta0)
        incidence = SplitExponentialIncidence(theta, beta, N)
    else:
        delta0 = float((beta / gamma).sum())
        beta *= target / (N * delta0)
        if family == "linear" and beta.sum() > 1.0 / N:
            beta *= 0.999 / (N * beta.sum())  # keep the range condition
        incidence = (ExponentialIncidence(beta, N) if family == "exponential"
                     else LinearIncidence(beta, N))
    return params, incidence


def random_initial(rng, params, first_class_only=False, seed_lo=-5, seed_hi=-2):
    """Admissible initial state with a small infected seed and R(0) = 0."""
    n, N = params.n, params.N
    I0 = np.zeros(n)
    size = 10 ** rng.uniform(seed_lo, seed_hi) * N
    if first_class_only:
        I0[0] = size
    else:
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        w = rng.uniform(0.1, 1.0, n) * mask
        I0 = size * w / w.sum()
    return EpidemicState(S=N - I0.sum(), I=I0, R=0.0)


def random_lastclass_model(rng, n_range=(1, 4), kinds=("linear", "exponential"),
                           r0_lo=0.3, r0_hi=4.0):
    """Random model in which only the last stage is infectious."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    N = float(10 ** rng.uniform(-1, 1))
    gamma = draw_gammas(rng, n)
    params = StageParams(gamma=gamma, N=N)
    kind = kinds[int(rng.integers(0, len(kinds)))]
    target = float(rng.uniform(r0_lo, r0_hi))
    beta = target * gamma[-1] / N  # R0 = N beta / gamma_n
    if kind == "linear" and beta > 1.0 / N:
        kind = "exponential"
    incidence = LastClassIncidence(n=n, N=N, kind=kind, beta=beta)
    return params, incidence


# run_chunk's output buffers, by argument position
_OUT_ARGS = {"S": 12, "I": 13, "R": 14, "phi": 15, "Z": 16}


def corrupt_one_row(monkeypatch, step_no, field, value, stage=0):
    """Wrap the chunk functions so that the recorded row ``step_no`` holds a bad value.

    A built-in encoding steps through ``run_chunk`` and a custom callable
    through ``run_chunk_py``; both are wrapped, and a run calls one of them.
    The kernel's own state is untouched; only the row it hands back is.
    """
    done = [0]

    def wrap(real):
        def run_chunk(*args):
            result = real(*args)
            k = step_no - done[0]
            if 0 <= k < result[0]:
                n = len(args[1])
                args[_OUT_ARGS[field]][k * n + stage if field == "I" else k] = value
            done[0] += result[0]
            return result
        return run_chunk

    for name in ("run_chunk", "run_chunk_py"):
        monkeypatch.setattr(kernels, name, wrap(getattr(kernels, name)))
