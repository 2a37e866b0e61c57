"""Stage-matrix spectral analysis.

The linearization of the infected-stage dynamics at susceptible level a is

    B(a) = T + F(a)

where T is the lower-bidiagonal transition matrix (diagonal 1 - g_j,
subdiagonal g_j) and F(a) puts a * r in the first row (new infections,
r = grad phi(0)).  For a > 0 and r_n > 0, B(a) is irreducible and
primitive, and its relation to 1 encodes the epidemic threshold:

    sign(rho(B(a)) - 1) = sign(a - 1/delta),   delta = sum_j r_j / g_j.

The net reproductive value of the transition/infection split is
rho(F (Id - T)^{-1}) = a * delta; at a = N this is the basic reproduction
number R0 = N * delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .incidence import IncidenceModel
from .model import StageParams, _check_compatible

__all__ = [
    "StageMatrixDecomposition",
    "PerronData",
    "SignIdentityReport",
    "build_B",
    "nrv",
    "delta",
    "r0",
    "perron",
    "sign_identities_check",
]

SIGN_ZERO_TOL = 1e-9  # |x| below this counts as zero in threshold sign tests


@dataclass(frozen=True)
class StageMatrixDecomposition:
    """B(a) = T + F(a) by its ingredients: the susceptible level a, the
    progression probabilities g (T is lower bidiagonal with diagonal 1 - g
    and subdiagonal g, spectral radius max_j(1 - g_j) < 1) and the
    first-order infectivities r (F(a) is a * r in row one)."""

    a: float
    gamma: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class PerronData:
    """Spectral radius, the probability-normalized Perron vector, and the
    number of bisection halvings that located the root."""

    rho: float
    v: np.ndarray
    iterations: int


def build_B(a: float, params: StageParams, r) -> StageMatrixDecomposition:
    """Check and hold the ingredients of B(a) = T + F(a).

    Args:
        a: susceptible level, must be positive.
        params: stage structure supplying the progression probabilities.
        r: first-order infectivities (gradient of phi at zero); must be
            componentwise nonnegative with r_n > 0.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError("susceptible level a must be positive")
    r = np.asarray(r, dtype=float)
    if r.shape != (params.n,):
        raise ValueError(f"r must have length {params.n}")
    if np.any(r < 0.0) or not r[-1] > 0.0:
        raise ValueError("r must be nonnegative with r_n > 0")
    return StageMatrixDecomposition(a=a, gamma=params.gamma, r=r)


def nrv(decomp: StageMatrixDecomposition) -> float:
    """Net reproductive value: spectral radius of Q = F (Id - T)^{-1}.

    Only the first row of Q is nonzero, so its spectral radius is
    Q_11 = a r.x with (Id - T) x = e_1, which forward substitution on the
    bidiagonal structure solves (row j: g_j x_j = g_{j-1} x_{j-1}).
    Equals a * delta in exact arithmetic.
    """
    gamma = decomp.gamma
    x = np.empty(gamma.size)
    x[0] = 1.0 / gamma[0]
    for j in range(1, gamma.size):
        x[j] = gamma[j - 1] * x[j - 1] / gamma[j]
    return float((decomp.a * decomp.r) @ x)


def delta(params: StageParams, incidence: IncidenceModel) -> float:
    """delta = sum_j r_j / gamma_j, the per-capita threshold quantity."""
    _check_compatible(params, incidence)
    return float((incidence.r / params.gamma).sum())


def r0(params: StageParams, incidence: IncidenceModel) -> float:
    """Basic reproduction number R0 = N * delta.

    This is the next-generation value of the linearization at the
    disease-free state (equivalently ``nrv(build_B(N, ...))``).  It covers
    contact-composed incidences automatically because their gradient at
    zero already carries the mean contact count.
    """
    return params.N * delta(params, incidence)


def perron(decomp: StageMatrixDecomposition) -> PerronData:
    """Spectral radius and Perron vector of B(a) from its characteristic equation.

    Rows 2..n of B v = lam v give v_{j+1} = g_j v_j / (lam - 1 + g_{j+1})
    from v_1 = 1, and row 1 then reads a r.v(lam) = lam - 1 + g_1.  On
    lam > max_k(1 - g_k) the left side strictly decreases and the right
    side increases, so the Perron root is the only solution there; it is
    at most the largest column sum 1 + a max(r), and ``_bisect`` closes
    that bracket to adjacent doubles in about 50 halvings.  Near the low end
    v can overflow; the inf or NaN this gives fails the comparison and so
    counts as lam below the root.
    """
    gamma = decomp.gamma.tolist()
    ar = (decomp.a * decomp.r).tolist()
    d = [1.0 - g for g in gamma]

    def shape(lam):
        v = [1.0]
        for j in range(1, len(d)):
            v.append(gamma[j - 1] * v[-1] / (lam - d[j]))
        return v

    def below(lam):
        total = 0.0  # summed in order: the builtin sum compensates from Python 3.12
        for x, y in zip(ar, shape(lam)):
            total += x * y
        return total <= lam - d[0]

    rho, halvings = _bisect(below, max(d), 1.0 + max(ar))
    v = np.array(shape(rho))
    return PerronData(rho=rho, v=v / v.sum(), iterations=halvings)


def _bisect(below, lo: float, hi: float) -> tuple[float, int]:
    """Bisect the bracket (lo, hi] of a root; return hi and the halvings.

    ``below(x)`` is True when the root is at or below x, and lo must be
    positive.  The midpoint is geometric, sqrt(lo) sqrt(hi), while
    hi > 4 lo, so a bracket spanning hundreds of decades closes in about
    60 halvings, and arithmetic after.  The loop ends when the midpoint is
    no longer strictly inside the bracket, that is, when lo and hi are
    adjacent doubles.
    """
    halvings = 0
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi, halvings
        halvings += 1
        if below(mid):
            hi = mid
        else:
            lo = mid


def _sign(x: float) -> int:
    if abs(x) < SIGN_ZERO_TOL:
        return 0
    return 1 if x > 0.0 else -1


@dataclass(frozen=True)
class SignIdentityReport:
    """Threshold sign relations of the Perron data of B(a).

    All listed signs must coincide (values in {-1, 0, +1}); ``consistent``
    summarizes the comparison with |x| < 1e-9 treated as zero.
    """

    rho_minus_one: int
    a_minus_threshold: int
    gamma_v_pairs: tuple
    infection_balance: int
    consistent: bool
    mismatches: tuple


def sign_identities_check(
    decomp: StageMatrixDecomposition, perron_data: PerronData
) -> SignIdentityReport:
    """Verify the sign identities tying rho(B(a)) - 1 to the Perron vector.

    Checks sign(rho - 1) against sign(a - 1/delta), against
    sign(g_i v_i - g_j v_j) for every i < j, and against
    sign(a r.v - g_1 v_1).
    """
    gamma, r, a = decomp.gamma, decomp.r, decomp.a
    v = perron_data.v
    n = gamma.size
    s_rho = _sign(perron_data.rho - 1.0)
    dlt = float((r / gamma).sum())
    s_thr = _sign(a - 1.0 / dlt)
    pair_signs = tuple(
        _sign(gamma[i] * v[i] - gamma[j] * v[j])
        for i in range(n) for j in range(i + 1, n)
    )
    s_bal = _sign(a * float(r @ v) - gamma[0] * v[0])
    mismatches = []
    if s_thr != s_rho:
        mismatches.append(f"sign(a - 1/delta) = {s_thr} != sign(rho - 1) = {s_rho}")
    for idx, s in enumerate(pair_signs):
        if s != s_rho:
            mismatches.append(f"gamma_i v_i - gamma_j v_j pair {idx}: sign {s} != {s_rho}")
    if s_bal != s_rho:
        mismatches.append(f"sign(a r.v - gamma_1 v_1) = {s_bal} != {s_rho}")
    return SignIdentityReport(
        rho_minus_one=s_rho,
        a_minus_threshold=s_thr,
        gamma_v_pairs=pair_signs,
        infection_balance=s_bal,
        consistent=not mismatches,
        mismatches=tuple(mismatches),
    )
