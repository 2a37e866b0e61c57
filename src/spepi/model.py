"""Core staged-progression dynamics.

State moves through n infected stages before removal:

    S(t+1)   = S(t) - phi(I(t)) S(t)
    I1(t+1)  = (1 - g1) I1(t) + phi(I(t)) S(t)
    Ij(t+1)  = (1 - gj) Ij(t) + g_{j-1} I_{j-1}(t),   j = 2..n
    R(t+1)   = R(t) + gn In(t)

with stage-progression probabilities gj in (0, 1) and an incidence
function phi from :mod:`spepi.incidence`.  The total population
S + I1 + ... + In + R is conserved.

``simulate`` iterates the map to a stopping rule, recording the full
trajectory; ``step`` is a one-step ``simulate``, so repeated steps
reproduce it bit for bit.  ``simulate_summary`` runs the same steps but
keeps only what a parameter sweep reads (S_inf, the prevalence series Z
and the monotonicity onset), so its memory grows with the steps, not
with steps x n.  Every run steps through ``_kernels.run_chunk`` (a custom
callable's stepper calls ``phi_fn``) in blocks of at most ``BLOCK_ROWS``
rows on Python lists; a summary run keeps the first onset a call returns.
Each block becomes numpy arrays, which ``_check_rows`` checks:
:class:`DynamicsError` names the first step whose phi lies outside
[0, 1) (where the stepper ends a block), whose compartments are not
finite and nonnegative, or whose S + Z + R drifts from N by more than
``CONSERVATION_TOL_REL * N``, the same step and cause in both kinds of
run.  The blocks are joined once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .incidence import _EMPTY, DomainError, IncidenceModel, _as_vector, _count, _population

__all__ = [
    "DynamicsError",
    "StageParams",
    "EpidemicState",
    "StoppingRule",
    "Trajectory",
    "RunSummary",
    "step",
    "simulate",
    "simulate_summary",
]

# defaults chosen for geometric tail decay: the infected classes shrink by a
# factor rho(B(S_inf)) < 1 per step once the epidemic has burnt out
DEFAULT_MAX_STEPS = 10**6
DEFAULT_EPS_Z_REL = 1e-12
DEFAULT_EPS_S_REL = 1e-14

CONSERVATION_TOL_REL = 1e-9


@dataclass(frozen=True)
class StageParams:
    """Stage structure: progression probabilities and total population.

    Args:
        gamma: per-stage progression probabilities, each strictly inside
            (0, 1); the length determines the number of stages n.
        N: total (constant) population, finite and > 0.
    """

    gamma: np.ndarray
    N: float

    def __post_init__(self):
        g = _as_vector(self.gamma, "gamma")
        if np.any(g <= 0.0) or np.any(g >= 1.0):
            raise ValueError("every progression probability must lie in (0, 1)")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "N", _population(self.N))

    @property
    def n(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class EpidemicState:
    """One (S, I, R) configuration; components are finite and nonnegative."""

    S: float
    I: np.ndarray
    R: float

    def __post_init__(self):
        I = _as_vector(self.I, "I")
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "R", float(self.R))
        if not (0.0 <= self.S < math.inf and 0.0 <= self.R < math.inf) or np.any(I < 0.0):
            raise ValueError("state components must be finite and nonnegative")

    @property
    def Z(self) -> float:
        """Prevalence ||I||_1, summed in the stepping kernel's order."""
        z = 0.0
        for x in self.I.tolist():
            z += x
        return z

    @property
    def total(self) -> float:
        return self.S + self.Z + self.R

    def validate_against(self, params: StageParams) -> None:
        if self.I.size != params.n:
            raise ValueError(
                f"state has {self.I.size} infected stages, params expect {params.n}"
            )
        if abs(self.total - params.N) > CONSERVATION_TOL_REL * params.N:
            raise ValueError(
                f"state total {self.total:.17g} is not the population N = {params.N:.17g}"
            )

    def satisfies_initial_condition(self) -> bool:
        """Admissible epidemic start: S > 0 and at least one infected."""
        return self.S > 0.0 and bool(self.I.any())


@dataclass(frozen=True)
class StoppingRule:
    """Stopping specification for ``simulate``: ``max_steps`` a whole number
    of at least 1, stored as an int, and ``eps_z``/``eps_s`` nonnegative
    floats, which default to 1e-12 * N and 1e-14 * N when left None.
    A run stops "converged" at the first step t >= 1 with
    ||I(t)||_1 < eps_z and S(t-1) - S(t) < eps_s, else at max_steps.
    """

    max_steps: int = DEFAULT_MAX_STEPS
    eps_z: Optional[float] = None
    eps_s: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "max_steps", _count(self.max_steps, "max_steps"))
        for name in ("eps_z", "eps_s"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
                if not getattr(self, name) >= 0.0:  # NaN fails too
                    raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")

    def resolve(self, N: float) -> tuple[int, float, float]:
        eps_z = DEFAULT_EPS_Z_REL * N if self.eps_z is None else self.eps_z
        eps_s = DEFAULT_EPS_S_REL * N if self.eps_s is None else self.eps_s
        return self.max_steps, eps_z, eps_s


@dataclass
class Trajectory:
    """A recorded run: one row per time step t = 0, 1, ..., T.

    ``phi[t]`` is the incidence applied over (t, t+1]; it is also recorded
    for the final state.  ``Z[t]`` is the prevalence ||I(t)||_1 summed in
    the stop rule's order, so a converged run has ``Z[-1] < eps_z``.
    ``stop_reason`` is "converged" or "max-steps".
    """

    params: StageParams
    incidence: IncidenceModel
    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    phi: np.ndarray
    Z: np.ndarray
    stop_reason: str
    eps_z: float
    eps_s: float
    max_steps: int

    @property
    def n_steps(self) -> int:
        return len(self.S) - 1

    @property
    def S_inf(self) -> float:
        """Final susceptible level; the limit estimate when converged."""
        return float(self.S[-1])

    def state(self, t: int) -> EpidemicState:
        return EpidemicState(S=self.S[t], I=self.I[t], R=self.R[t])


@dataclass(frozen=True)
class RunSummary:
    """What ``simulate_summary`` keeps of a run; each field equals its
    :class:`Trajectory` counterpart (``onset`` that of
    ``asymptotics.monotonicity_onset``)."""

    S_inf: float
    Z: np.ndarray
    onset: Optional[int]
    stop_reason: str
    n_steps: int


def _check_compatible(params: StageParams, incidence: IncidenceModel) -> None:
    if incidence.n != params.n:
        raise ValueError(
            f"incidence is built for {incidence.n} stages, params have {params.n}"
        )
    if not math.isclose(incidence.N, params.N, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"incidence population N = {incidence.N!r} differs from params N = {params.N!r}"
        )


def step(state: EpidemicState, params: StageParams, incidence: IncidenceModel) -> EpidemicState:
    """Advance the model by one time step: a one-step ``simulate``.

    Repeated ``step`` calls therefore reproduce ``simulate`` bit for bit.

    Returns:
        The successor state (the state itself when no one is infected);
        conservation of S + ||I||_1 + R holds up to floating-point rounding.
    """
    return simulate(state, params, incidence, StoppingRule(max_steps=1)).state(-1)


class DynamicsError(DomainError):
    """A run left the admissible set; ``step`` is the first bad row, ``cause`` why."""

    def __init__(self, step: int, cause: str):
        super().__init__(f"step {step}: {cause}")
        self.step = step
        self.cause = cause


def _row_fault(S, I, R, phi, Z, N) -> str:
    """Why one recorded row (Python floats, I a list) is not admissible."""
    if not 0.0 <= phi < 1.0:  # the bound IncidenceModel.phi puts on its value
        return f"phi = {phi!r} lies outside [0, 1)"
    values = [("S", S), *((f"I{j + 1}", x) for j, x in enumerate(I)), ("R", R), ("Z", Z)]
    for name, x in values:
        if not math.isfinite(x):
            return f"{name} = {x!r} is not finite"
    for name, x in values:
        if x < 0.0:
            return f"{name} = {x!r} is negative"
    return (f"S + Z + R = {S + Z + R!r} drifts from N = {N!r} "
            f"by more than {CONSERVATION_TOL_REL:g} N")


def _check_rows(S, I, R, phi, Z, N, first_step) -> None:
    """Raise :class:`DynamicsError` at the first recorded row that is not admissible.

    A row is admissible when phi lies in [0, 1), every compartment is finite
    and nonnegative, and |S + Z + R - N| <= CONSERVATION_TOL_REL * N.  NaN
    fails every comparison, and nonnegative S, Z and R with a finite sum are
    each finite.  With I None (a summary block) the stages go unchecked.
    """
    drift = S + Z  # the one float temporary, reused in place
    drift += R
    drift -= N
    ok = ((np.abs(drift, out=drift) <= CONSERVATION_TOL_REL * N) & (phi >= 0.0)
          & (phi < 1.0) & (S >= 0.0) & (R >= 0.0) & (Z >= 0.0))
    # the stages are reduced flat first: a reduction along each row of a
    # narrow (rows, n) block costs about ten times more
    if ok.all() and (I is None or (I.min() >= 0.0 and I.max() < math.inf)):
        return
    if I is not None:
        ok &= (I >= 0.0).all(axis=1) & (I < math.inf).all(axis=1)
    k = int(np.argmin(ok))
    cause = _row_fault(float(S[k]), [] if I is None else I[k].tolist(), float(R[k]),
                       float(phi[k]), float(Z[k]), N)
    raise DynamicsError(first_step + k, cause)


# rows per call of the stepper: its list buffers are reused from block to
# block, and each block's rows become numpy arrays of exactly their size
BLOCK_ROWS = 1024


def _buffers(size, n, record):
    """The stepper's S, I, R, phi and Z list buffers for ``size`` rows; I None
    without ``record``."""
    return [[0.0] * size, [0.0] * (size * n) if record else None,
            [0.0] * size, [0.0] * size, [0.0] * size]


def _arrays(bufs, rows, n):
    """The first ``rows`` rows of each buffer as an array, I as (rows, n)."""
    S, I, R, phi, Z = (None if buf is None else np.fromiter(buf, float, rows * width)
                       for buf, width in zip(bufs, (1, n, 1, 1, 1)))
    return S, None if I is None else I.reshape(rows, n), R, phi, Z


def _simulate_kernel(initial, gamma, N, spec, max_steps, eps_z, eps_s, phi_fn=None,
                     record=True):
    """Step a run in blocks: (S, I, R, phi, Z, reason) as arrays, or without
    ``record`` (S_inf, Z, onset, reason).

    A summary block is checked without its stages.  While the earlier rows
    pass, each new stage is a sum of products of finite nonnegative values,
    and Z, their sum, is checked finite, so it bounds each one.  A block
    that fails is stepped again from its entry state with its stages kept,
    so the error names the step and cause a full run names.
    """
    ik, v1, v2, ok, op = spec
    fixed = (gamma.tolist(), ik, v1.tolist(), v2.tolist(), ok, op.tolist(), eps_z, eps_s)
    S, I, R = initial.S, initial.I.tolist(), initial.R
    n = len(I)
    phi = -1.0  # entry state not yet recorded
    blocks = []
    done = 0
    bufs = None
    onset = None
    converged = False
    while not converged and done <= max_steps:
        size = min(BLOCK_ROWS, max_steps + 1 - done)
        if bufs is None or len(bufs[0]) != size:
            bufs = _buffers(size, n, record)
        entry = None if record else (S, I.copy(), R, phi)
        rows, converged, S, R, phi, found = _kernels.run_chunk(
            S, I, R, phi, *fixed, *bufs, phi_fn)
        block = _arrays(bufs, rows, n)
        try:  # a block that ends on a phi outside [0, 1) fails here
            _check_rows(*block, N, done)
        except DynamicsError:
            if not record:  # a stage may name the fault: step again with them kept
                full = _buffers(size, n, True)
                _kernels.run_chunk(*entry, *fixed, *full, phi_fn)
                _check_rows(*_arrays(full, rows, n), N, done)
            raise
        blocks.append(block if record else block[4])
        if onset is None and found is not None:  # each call seeks from its entry
            onset = done + found
        done += rows
    reason = "converged" if converged else "max-steps"
    if not record:
        return S, np.concatenate(blocks), onset, reason
    return (*(np.concatenate(column) for column in zip(*blocks)), reason)


def _simulate_generic(initial, params, incidence, max_steps, eps_z, eps_s, record=True):
    """``_simulate_kernel`` for a model without an encoding: phi_fn calls it."""

    def phi_fn(I):
        # IncidenceModel.phi's value, exactly 0.0 at I = 0; the row checks
        # stand in for its domain checks
        return float(incidence._phi_raw(np.asarray(I, dtype=float))) if any(I) else 0.0

    return _simulate_kernel(initial, params.gamma, params.N, (0, _EMPTY, _EMPTY, 0, _EMPTY),
                            max_steps, eps_z, eps_s, phi_fn, record)


def _run(initial, params, incidence, stopping, record):
    """Check the inputs and run: (max_steps, eps_z, eps_s) and the run in
    ``_simulate_kernel``'s shape for ``record``.  An all-zero start is one
    converged row whatever the tolerances: the dynamics are the identity."""
    _check_compatible(params, incidence)
    initial.validate_against(params)
    limits = (stopping or StoppingRule()).resolve(params.N)
    if initial.Z == 0.0:
        if not record:
            return limits, (initial.S, np.zeros(1), None, "converged")
        return limits, (np.array([initial.S]), initial.I.reshape(1, -1).copy(),
                        np.array([initial.R]), np.zeros(1), np.zeros(1), "converged")
    spec = incidence.kernel_spec()
    if spec is not None:
        return limits, _simulate_kernel(initial, params.gamma, params.N, spec, *limits,
                                        record=record)
    return limits, _simulate_generic(initial, params, incidence, *limits, record)


def simulate(
    initial: EpidemicState,
    params: StageParams,
    incidence: IncidenceModel,
    stopping: Optional[StoppingRule] = None,
) -> Trajectory:
    """Run the model until the infected classes have burnt out.

    Args:
        initial: starting state; its total must equal params.N.
        params: stage structure.
        incidence: force-of-infection model (same n and N).
        stopping: stopping rule; defaults to
            ``StoppingRule(max_steps=1e6, eps_z=1e-12*N, eps_s=1e-14*N)``.

    Returns:
        The recorded :class:`Trajectory`.  An all-zero initial infected
        vector short-circuits to a single-row trajectory (the dynamics are
        the identity there).
    """
    (max_steps, eps_z, eps_s), (S, I, R, phi, Z, reason) = _run(
        initial, params, incidence, stopping, True)
    return Trajectory(
        params=params, incidence=incidence,
        S=S, I=I, R=R, phi=phi, Z=Z,
        stop_reason=reason, eps_z=eps_z, eps_s=eps_s, max_steps=max_steps,
    )


def simulate_summary(
    initial: EpidemicState,
    params: StageParams,
    incidence: IncidenceModel,
    stopping: Optional[StoppingRule] = None,
) -> RunSummary:
    """``simulate`` keeping only S_inf, Z, the onset and the stop.

    The run steps through the same stepper, bit for bit, and passes the
    same checks: it raises the :class:`DynamicsError` ``simulate`` raises.
    It records no stage rows, so its memory grows with the steps alone.
    """
    _, (S_inf, Z, onset, reason) = _run(initial, params, incidence, stopping, False)
    return RunSummary(S_inf=S_inf, Z=Z, onset=onset, stop_reason=reason, n_steps=len(Z) - 1)
