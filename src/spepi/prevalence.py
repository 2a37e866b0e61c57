"""Prevalence dynamics: shape of Z(t) and outbreak predicates.

The prevalence Z(t) = I_1(t) + ... + I_n(t) obeys the exact balance

    Z(t+1) - Z(t) = S(t) phi(I(t)) - g_n I_n(t),

so its one-step motion is a race between new infections and removals
from the last stage.  Unlike the classical single-stage model, Z can dip
before rising, rise under a subcritical R0, or wiggle through several
local maxima.  This module classifies recorded Z series and implements
the one-step and threshold predicates that are provable:

  * a rise threshold c = S phi(I)/g_n whenever an earlier stage is
    infectious and occupied;
  * monotone decay of Z from the first time S(t) < N/R0, when only the
    last stage is infectious to first order;
  * an explicit small-seed search for the rise regime when S(0) is above
    the threshold;
  * the ratio condition f(x) >= r x / (1 + r x) under which a decreasing
    prevalence can never turn back up (last-stage-only incidence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .incidence import IncidenceModel, LastClassIncidence
from .model import EpidemicState, StageParams, Trajectory, _check_compatible
from .spectral import r0

__all__ = [
    "PrevalenceShape",
    "RisePrediction",
    "ThresholdDecayResult",
    "LastClassOutbreakResult",
    "initial_rise_predicate_general",
    "threshold_decay_predicate",
    "outbreak_predicate_lastclass",
    "monotone_decay_ratio_check",
    "classify_shape",
    "is_rise_then_fall",
]

RATIO_GRID_POINTS = 10**4
RATIO_SLACK_REL = 1e-12  # forgives fp dust at exact-equality boundaries


@dataclass(frozen=True)
class RisePrediction:
    """One-step prevalence forecast from the rise threshold c.

    ``predicted`` is None when the hypothesis (some earlier infectious
    stage occupied) fails and the last-class predicates govern instead.
    The claim covers a single step only.
    """

    predicted: Optional[bool]
    c: Optional[float]
    reason: str


def initial_rise_predicate_general(
    initial: EpidemicState, params: StageParams, incidence: IncidenceModel
) -> RisePrediction:
    """Predict Z(1) > Z(0) via the threshold c = S(0) phi(I(0)) / g_n.

    Applicable when some stage i < n has r_i > 0 and I_i(0) > 0; then the
    prevalence rises in one step exactly when I_n(0) < c.
    """
    _check_compatible(params, incidence)
    initial.validate_against(params)
    n = params.n
    r = incidence.r
    hypothesis = any(r[i] > 0.0 and initial.I[i] > 0.0 for i in range(n - 1))
    if not hypothesis:
        return RisePrediction(
            predicted=None, c=None,
            reason="no earlier stage is both infectious (r_i > 0) and occupied",
        )
    c = initial.S * incidence.phi(initial.I) / params.gamma[n - 1]
    return RisePrediction(
        predicted=bool(initial.I[n - 1] < c), c=float(c), reason="ok",
    )


def _require_last_class_only(incidence: IncidenceModel) -> None:
    if np.any(incidence.r[:-1] > 0.0):
        raise ValueError(
            "predicate needs r_1 = ... = r_{n-1} = 0 "
            "(only the last stage infectious to first order)"
        )


@dataclass(frozen=True)
class ThresholdDecayResult:
    """First threshold crossing and the verified decay beyond it.

    ``holds_from`` is the first recorded t with S(t) < N/R0 (None if the
    trajectory never crosses).  ``verified`` reports the scan of the
    recorded steps t >= holds_from: Z must fall strictly wherever
    I_n(t) > 0, and can only stay flat while I_n(t) == 0 (possible during
    the first n steps when the last stage is still empty).
    """

    holds_from: Optional[int]
    verified: bool
    first_violation: Optional[int]


# rounding budget for "mathematically flat" prevalence steps: summing the
# stage components wiggles the recorded Z by around one ulp
FLAT_STEP_TOL_REL = 1e-12


def threshold_decay_predicate(
    trajectory: Trajectory,
) -> ThresholdDecayResult:
    """Scan a run for monotone prevalence decay past S(t) < N/R0.

    Requires r_1 = ... = r_{n-1} = 0.  When the crossing time exists,
    every later recorded step must strictly decrease the prevalence.
    Strictness degenerates only while the last stage is exactly empty:
    there phi(I) = 0 and nothing is removed, so the true prevalence is
    unchanged and the recorded one may move by summation rounding alone.
    """
    _require_last_class_only(trajectory.incidence)
    threshold = trajectory.params.N / r0(trajectory.params, trajectory.incidence)
    below = np.nonzero(trajectory.S < threshold)[0]
    if below.size == 0:
        return ThresholdDecayResult(holds_from=None, verified=True, first_violation=None)
    t_star = int(below[0])
    Z = trajectory.Z[t_star:]
    flat_tol = FLAT_STEP_TOL_REL * trajectory.params.N
    ok = np.where(trajectory.I[t_star:-1, -1] > 0.0,
                  Z[1:] < Z[:-1], np.abs(Z[1:] - Z[:-1]) <= flat_tol)
    bad = np.flatnonzero(~ok)
    return ThresholdDecayResult(
        holds_from=t_star, verified=not bad.size,
        first_violation=t_star + int(bad[0]) if bad.size else None,
    )


@dataclass(frozen=True)
class LastClassOutbreakResult:
    """One-step rise outcome and a small-seed witness for last-class models.

    ``eta_witness`` is a last-stage seed found by halving from I_n(0)
    until the one-step balance turns positive (None if the search
    underflows first).
    """

    rise_predicted: bool
    eta_witness: Optional[float]


def outbreak_predicate_lastclass(
    initial: EpidemicState, params: StageParams, incidence: LastClassIncidence
) -> LastClassOutbreakResult:
    """Check the above-threshold outbreak regime for last-class incidence.

    Preconditions: only the last stage infectious, and
    S(0) in (N/R0, N).  The one-step balance
    d(x) = S(0) f(x) - g_n x decides Z(1) > Z(0) for a seed x in the last
    stage; a halving search exhibits a concrete small-seed witness of the
    rise regime.
    """
    if not isinstance(incidence, LastClassIncidence):
        raise TypeError("last-class outbreak predicate needs a LastClassIncidence")
    _require_last_class_only(incidence)
    initial.validate_against(params)
    N = params.N
    threshold = N / r0(params, incidence)
    if not threshold < initial.S < N:
        raise ValueError(
            f"S(0) = {initial.S:.17g} outside the outbreak window "
            f"(N/R0, N) = ({threshold:.17g}, {N:.17g})"
        )
    gn = params.gamma[-1]

    def one_step_gain(x: float) -> float:
        return initial.S * incidence.scalar_phi(x) - gn * x

    rise = one_step_gain(float(initial.I[-1])) > 0.0
    witness = None
    x = float(initial.I[-1])
    while x > 0.0:
        if one_step_gain(x) > 0.0:
            witness = x
            break
        x *= 0.5
    return LastClassOutbreakResult(rise_predicted=bool(rise), eta_witness=witness)


def monotone_decay_ratio_check(incidence: LastClassIncidence) -> bool:
    """Does the scalar profile dominate r x / (1 + r x) on (0, N]?

    Under this condition a decreasing prevalence never turns back up.
    Built-in linear and exponential profiles satisfy it identically and
    short-circuit; custom profiles are checked on a dense uniform grid.
    """
    if not isinstance(incidence, LastClassIncidence):
        raise TypeError("ratio check applies to last-class incidence only")
    if incidence.analytic:
        return True
    rn = float(incidence.r[-1])
    xs = np.linspace(incidence.N / RATIO_GRID_POINTS, incidence.N, RATIO_GRID_POINTS)
    bounds = rn * xs / (1.0 + rn * xs) * (1.0 - RATIO_SLACK_REL) - 1e-300
    # the profile is called in order up to the first value below; NaN never is
    return not any(incidence.scalar_phi(x) < b for x, b in zip(xs.tolist(), bounds.tolist()))


@dataclass(frozen=True)
class PrevalenceShape:
    """Coarse shape of a recorded prevalence series.

    classification: "monotone-decreasing" | "single-peak" | "multi-peak"
    peak_times: strict local maxima (plateau runs collapse to one
        extremum, indexed by the plateau's first step; series endpoints
        count when they dominate their single neighbour)
    initial_rise: Z(1) > Z(0)
    """

    classification: str
    peak_times: tuple
    initial_rise: bool


def classify_shape(Z) -> PrevalenceShape:
    """Classify a finite prevalence series by its strict local maxima.

    Comparisons are exact; near-flat peaks may split under rounding (the
    caller sees them as distinct maxima).
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 1 or Z.size == 0:
        raise ValueError("Z must be a nonempty 1-d series")
    initial_rise = bool(Z.size > 1 and Z[1] > Z[0])
    # collapse plateau runs to their first index; NaN never joins a run
    starts = np.flatnonzero(np.r_[True, Z[1:] != Z[:-1]])
    vals = Z[starts]
    rises = vals[1:] > vals[:-1]
    falls = vals[:-1] > vals[1:]
    if falls.all():  # a single run included; a pure decay has no peak
        classification, peaks = "monotone-decreasing", []
    else:
        peaks = starts[np.r_[True, rises] & np.r_[falls, True]].tolist()
        classification = "multi-peak" if len(peaks) >= 2 else "single-peak"
    return PrevalenceShape(
        classification=classification,
        peak_times=tuple(peaks),
        initial_rise=initial_rise,
    )


def is_rise_then_fall(Z) -> bool:
    """True when Z strictly rises to a single peak and strictly falls after.

    This is the textbook single-stage epidemic profile (for an
    above-threshold start); the staged model can break it in several ways.
    """
    d = np.diff(np.asarray(Z, dtype=float))
    p = int(np.argmin(np.r_[d > 0.0, False]))  # first step that does not rise
    return 0 < p < d.size and bool(np.all(d[p:] < 0.0))
