"""Long-run behaviour: final size, bounds, decay structure.

For any admissible start (S(0) > 0, some infected), the susceptible
series decreases to a positive limit S_inf and the infected classes decay
to zero along the Perron direction of B(S_inf).  This module computes:

  * the final-size equation root (exponential incidence only):
        log(S(0)/x) = sum_j (b_j/g_j)(S(0) + I_1(0)+...+I_j(0)) - R0 x / N
  * the simulated final size (any admissible incidence);
  * threshold bounds:  S_inf <= N/R0 when R0 > 1, and
        S_inf >= S(0) (1 - delta (S(0)+I0)) / (1 - delta S(0))
    when R0 < 1 and all initial infected sit in the first stage;
  * the tail-sum identity
        sum_{t>=t0} I_j(t) = (S(t0) - S_inf + I_1(t0)+...+I_j(t0)) / g_j;
  * the limiting stage distribution I(t)/||I(t)|| -> v (Perron vector);
  * the onset of eventual componentwise-strict decay of I(t), which,
    once observed, persists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .incidence import IncidenceModel
from .model import EpidemicState, StageParams, StoppingRule, Trajectory, simulate
from .spectral import _bisect, build_B, delta, perron, r0

__all__ = [
    "FinalSizeResult",
    "FinalSizeBounds",
    "TailSumReport",
    "LimitDirectionResult",
    "MonotonicityReport",
    "final_size_equation_solve",
    "final_size_simulate",
    "final_size_bounds",
    "tail_sum_check",
    "limit_direction",
    "monotonicity_onset",
]

# cross-check runs use a tighter prevalence cutoff than the simulate default
CROSSCHECK_EPS_Z_REL = 1e-13
# stage vectors below this are fp noise; the limit direction is read just above
DIRECTION_FLOOR = 1e-250


@dataclass(frozen=True)
class FinalSizeResult:
    s_inf: float
    iterations: int


@dataclass(frozen=True)
class FinalSizeBounds:
    """Threshold bracket for S_inf; absent sides carry their reason."""

    lower: Optional[float]
    upper: Optional[float]
    lower_reason: str
    upper_reason: str


def final_size_bounds(
    initial: EpidemicState, params: StageParams, incidence: IncidenceModel
) -> FinalSizeBounds:
    """Applicable threshold bounds for the final susceptible level.

    Both sides need an epidemic start, S(0) > 0 and I(0) != 0 (with no
    infected, S stays at S(0)).  The upper bound N/R0 needs R0 > 1.  The
    lower bound needs R0 < 1 and every initial infected in the first stage.
    """
    initial.validate_against(params)
    if not initial.satisfies_initial_condition():
        reason = "requires S(0) > 0 and I(0) != 0"
        return FinalSizeBounds(lower=None, upper=None, lower_reason=reason, upper_reason=reason)
    R0 = r0(params, incidence)
    N = params.N
    dlt = delta(params, incidence)
    upper = None
    upper_reason = "requires R0 > 1"
    if R0 > 1.0:
        upper = N / R0
        upper_reason = "ok"
    lower = None
    if R0 >= 1.0:
        lower_reason = "requires R0 < 1"
    elif initial.I[1:].any():
        lower_reason = "requires all initial infected in the first stage"
    else:
        I0 = float(initial.I[0])
        lower = initial.S * (1.0 - dlt * (initial.S + I0)) / (1.0 - dlt * initial.S)
        lower_reason = "ok"
    return FinalSizeBounds(
        lower=lower, upper=upper, lower_reason=lower_reason, upper_reason=upper_reason
    )


def final_size_equation_solve(
    initial: EpidemicState, params: StageParams, incidence: IncidenceModel
) -> FinalSizeResult:
    """Root of the final-size equation, exact where -log(1 - phi(I)) = r . I.

    That holds for the encodings (``ik``, ``ok``) = (1, 0), exponential
    incidence (last-class too), and (0, 2), linear under Poisson contacts.
    g(x) = log(S(0)) - log(x) - sum_j (r_j/g_j)(S(0) + cumsum(I(0))_j) + R0 x / N
    is decreasing on (0, N/R0) and increasing beyond, with its unique
    root in (0, min(S(0), N/R0)); ``spectral._bisect`` closes that bracket
    from the least positive double to adjacent doubles where the computed g
    changes sign.  The error of g, about
    u (|log S(0)| + |log x| + |C| + R0 x / N) with u = 2^-53 and C the sum
    above, divided by |g'(x)| = |R0/N - 1/x|, thus bounds the root's error:
    6 to 18 ulp on the five bundled figures, which lie 0.3 to 14.4 ulp
    from their 60-digit roots.  A root below the least positive double
    comes back as a subnormal of a few ulps.

    Raises:
        TypeError: for any other incidence (the equation does not hold).
        ValueError: if the initial condition S(0) > 0, I(0) != 0 fails.
    """
    spec = incidence.kernel_spec()
    if spec is None or (spec[0], spec[3]) not in ((1, 0), (0, 2)):
        raise TypeError("the final-size equation holds for exponential incidence "
                        "and linear incidence under Poisson contacts only")
    initial.validate_against(params)
    if not initial.satisfies_initial_condition():
        raise ValueError("initial state must have S(0) > 0 and I(0) != 0")
    S0 = initial.S
    N = params.N
    r, gamma = incidence.r, params.gamma
    R0 = r0(params, incidence)
    C = float(((r / gamma) * (S0 + np.cumsum(initial.I))).sum())
    log_S0 = math.log(S0)

    def g(x: float) -> float:
        # log(S0 / x) would overflow to inf for x below about 5e-309
        return log_S0 - math.log(x) - C + R0 * x / N

    root, halvings = _bisect(lambda x: not g(x) > 0.0, math.ulp(0.0), min(S0, N / R0))
    return FinalSizeResult(s_inf=root, iterations=halvings)


def final_size_simulate(
    initial: EpidemicState,
    params: StageParams,
    incidence: IncidenceModel,
    stopping: Optional[StoppingRule] = None,
) -> FinalSizeResult:
    """Final susceptible level of a converged run (any admissible incidence).

    Uses eps_z = 1e-13 * N by default so that identity cross-checks stay
    sharp.  Raises RuntimeError if the run hits max_steps instead of
    converging.
    """
    if stopping is None:
        stopping = StoppingRule(eps_z=CROSSCHECK_EPS_Z_REL * params.N)
    traj = simulate(initial, params, incidence, stopping)
    if traj.stop_reason != "converged":
        raise RuntimeError(
            f"no convergence within {stopping.max_steps} steps; cannot read S_inf"
        )
    return FinalSizeResult(s_inf=traj.S_inf, iterations=traj.n_steps)


@dataclass(frozen=True)
class TailSumReport:
    """Tail-sum identity residuals, one per stage."""

    t0: int
    lhs: np.ndarray  # compensated partial sums sum_{t>=t0} I_j(t)
    rhs: np.ndarray  # (S(t0) - S_inf + cumsum(I(t0))_j) / g_j
    rel_errors: np.ndarray

    @property
    def max_rel_error(self) -> float:
        return float(self.rel_errors.max())


def tail_sum_check(trajectory: Trajectory, t0: int = 0) -> TailSumReport:
    """Compare stage tail sums against their closed forms.

    Both sides are computed from the same converged run: the left side is
    an exactly-rounded (compensated) partial sum to the recorded horizon,
    the right side uses S(t0), I(t0) and S_inf = S(T).
    """
    if trajectory.stop_reason != "converged":
        raise ValueError("tail sums need a converged trajectory")
    if not 0 <= t0 <= trajectory.n_steps:
        raise ValueError(f"t0 = {t0} outside the recorded range")
    I = trajectory.I[t0:]
    # math.fsum sums Python floats about twice as fast as numpy scalars
    lhs = np.array([math.fsum(column) for column in I.T.tolist()])
    # + 0.0 turns a -0.0 into 0.0, as a sum of the stages started at 0.0 does
    rhs = (trajectory.S[t0] - trajectory.S_inf + np.cumsum(I[0]) + 0.0) / trajectory.params.gamma
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    return TailSumReport(t0=t0, lhs=lhs, rhs=rhs, rel_errors=rel)


@dataclass(frozen=True)
class LimitDirectionResult:
    """Stage distribution at the last resolvable step vs the Perron vector."""

    t_star: int
    direction: np.ndarray
    perron_vector: np.ndarray
    rho: float
    max_abs_error: float


def limit_direction(trajectory: Trajectory) -> LimitDirectionResult:
    """Normalized infected vector at the trajectory tail vs Perron of B(S_inf).

    Reads I(t*)/||I(t*)||_1 at the last recorded step with
    ||I(t*)||_1 > 1e-250 and compares (max norm) against the Perron vector
    of B(S_inf).  The deeper the run, the sharper the agreement; drive
    eps_z down toward 1e-250 * N for tail-accurate directions.
    """
    if trajectory.n_steps < trajectory.params.n:
        raise ValueError(
            f"trajectory with {trajectory.n_steps} steps is too short for a stable "
            f"direction (need at least n = {trajectory.params.n})"
        )
    Z = trajectory.Z
    above = np.nonzero(Z > DIRECTION_FLOOR)[0]
    if above.size == 0:
        raise ValueError("every recorded state is below the direction floor")
    t_star = int(above[-1])
    direction = trajectory.I[t_star] / Z[t_star]
    decomp = build_B(trajectory.S_inf, trajectory.params, trajectory.incidence.r)
    pd = perron(decomp)
    err = float(np.max(np.abs(direction - pd.v)))
    return LimitDirectionResult(
        t_star=t_star, direction=direction, perron_vector=pd.v,
        rho=pd.rho, max_abs_error=err,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """First componentwise-strict decrease of I(t) and its persistence.

    ``onset`` is None when no recorded step decreases strictly in every
    component.  When an onset exists, ``persistent`` states whether the
    strict decrease holds at every later recorded step (it must, by the
    forward-invariance of the property); ``first_violation`` pinpoints
    the step otherwise.
    """

    onset: Optional[int]
    persistent: bool
    first_violation: Optional[int]


def monotonicity_onset(trajectory: Trajectory) -> MonotonicityReport:
    """Locate the start of eventual strict decay of the infected classes.

    Comparisons are exact (no tolerance): ties count as "not yet
    decreasing".
    """
    I = trajectory.I
    dec = np.all(I[1:] < I[:-1], axis=1)
    idx = np.nonzero(dec)[0]
    if idx.size == 0:
        return MonotonicityReport(onset=None, persistent=True, first_violation=None)
    onset = int(idx[0])
    bad = np.flatnonzero(~dec[onset:])
    return MonotonicityReport(onset=onset, persistent=not bad.size,
                              first_violation=onset + int(bad[0]) if bad.size else None)
