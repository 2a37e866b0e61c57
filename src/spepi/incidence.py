"""Incidence (force-of-infection) functions for the staged-progression model.

An incidence function phi maps the infected-stage vector I = (I_1, ..., I_n)
to the per-step probability that a susceptible individual becomes infected.
The built-in families satisfy the regularity conditions the analysis
toolkit relies on (user-supplied models are checked by sampling):

  * phi maps the admissible set U = {I >= 0 : ||I||_1 <= N} into [0, 1),
    with phi(0) = 0;
  * phi is twice continuously differentiable with a nonnegative gradient;
  * phi is concave (its Hessian is negative semi-definite on U);
  * the last stage is infectious to first order: r_n > 0, where
    r = grad phi(0).

Built-in families:

  ExponentialIncidence        phi(I) = 1 - exp(-(b1 I1 + ... + bn In))
  LinearIncidence             phi(I) = b1 I1 + ... + bn In,  sum(b) <= 1/N
  SplitExponentialIncidence   phi(I) = sum_j theta_j (1 - exp(-b_j I_j))
  LastClassIncidence          phi(I) = f(I_n) for a scalar f
  CustomIncidence             user-supplied callable (+ optional gradient)

Contact compositions over any of these live in :mod:`spepi.contacts`.

A built-in family stores its kernel encoding ``_encoding``, which gives phi
(``_kernels.inner_phi``, from the template the generated steppers inline),
its gradient (``_inner_grad``) and r; only custom models and compositions
override them.  An encoding makes the model ``analytic``: it meets the
conditions above by construction; only other models are sampled by
:func:`validate_regularity`.  All exponential
evaluations go through ``expm1``.  The naive form ``1 - exp(-x)`` has
absolute granularity ~1e-16, which injects a spurious floor into long
simulations (the infected classes then never decay below ~1e-16 and the
trajectory acquires a fake endemic equilibrium).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ._kernels import inner_phi

__all__ = [
    "DomainError",
    "IncidenceModel",
    "ExponentialIncidence",
    "LinearIncidence",
    "SplitExponentialIncidence",
    "LastClassIncidence",
    "CustomIncidence",
    "RegularityReport",
    "validate_regularity",
]

# Relative slack on ||I||_1 <= N membership tests; rounding drift over long
# runs must not poison domain checks.
U_TOLERANCE = 1e-12

# the unused vector slots of a kernel encoding
_EMPTY = np.zeros(0)
_EMPTY.flags.writeable = False


class DomainError(ValueError):
    """Raised when an infected-stage vector lies outside the admissible set."""


def _as_vector(x, name: str, n: Optional[int] = None) -> np.ndarray:
    """``x`` as a read-only nonempty 1-d float copy (of length ``n`` if given)."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if n is not None and v.size != n:
        raise ValueError(f"{name} must have length {n}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


def _population(N) -> float:
    """``N`` as a float, checked to be positive and finite."""
    N = float(N)
    if not 0.0 < N < math.inf:
        raise ValueError(f"N must be positive and finite, got {N!r}")
    return N


def _infectivities(beta, n: Optional[int] = None) -> np.ndarray:
    """``beta`` as ``_as_vector`` gives it, checked to be nonnegative with beta_n > 0."""
    beta = _as_vector(beta, "beta", n)
    if np.any(beta < 0.0) or not beta[-1] > 0.0:
        raise ValueError("beta must be nonnegative with beta_n > 0")
    return beta


def _count(value, name: str) -> int:
    """``value`` as an int, checked to be a whole number of at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    if not float(value).is_integer():  # NaN and inf fail too
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _fd_slope(f, h: float, up: float, down: float) -> float:
    """Slope at 0 of the scalar function ``f`` by second-order differences.

    ``up`` and ``down`` are the room inside the domain on each side of 0.
    Central with step h when both sides have room for it; otherwise
    one-sided into the roomier side, whose stencil reaches two steps, with
    step min(h, room / 2), but at least h / 4: a vertex of U has no room.
    """
    if up >= h and down >= h:
        return (f(h) - f(-h)) / (2.0 * h)
    s = max(min(h, 0.5 * max(up, down)), 0.25 * h)
    if up >= down:
        return (-3.0 * f(0.0) + 4.0 * f(s) - f(2 * s)) / (2.0 * s)
    return (3.0 * f(0.0) - 4.0 * f(-s) + f(-2 * s)) / (2.0 * s)


def _inner_grad(I, ik: int, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Gradient at ``I`` of the inner phi of kind ``ik`` (``_kernels._INNER``)."""
    if ik == 0:
        return v1.copy()
    if ik == 1:
        return math.exp(-float(v1 @ I)) * v1
    return v1 * v2 * np.exp(-v2 * I)


class IncidenceModel:
    """Base class for incidence functions.

    Subclasses set ``family``, ``n`` and ``N`` at construction.  A built-in
    family gives its kernel encoding ``_encoding = (ik, v1, v2)`` (see
    :mod:`spepi._kernels`), from which phi, its gradient, r = grad phi(0)
    and ``kernel_spec`` follow; only custom models and contact compositions
    override ``_phi_raw`` and ``_grad_raw``.  The public ``phi``/``grad``
    wrappers enforce the domain contract.
    """

    family: str = "abstract"
    n: int
    N: float
    r: np.ndarray
    _encoding: Optional[tuple] = None

    def _check_domain(self, I: np.ndarray) -> np.ndarray:
        I = np.asarray(I, dtype=float)
        if I.shape != (self.n,):
            raise DomainError(
                f"infected vector has shape {I.shape}, expected ({self.n},)"
            )
        if not np.isfinite(I).all():
            raise DomainError("infected vector has a non-finite component")
        if np.any(I < 0.0):
            raise DomainError("infected vector has a negative component")
        if I.sum() > self.N * (1.0 + U_TOLERANCE):
            raise DomainError(
                f"||I||_1 = {I.sum():.17g} exceeds total population N = {self.N:.17g}"
            )
        return I

    def phi(self, I) -> float:
        """Evaluate the infection probability at stage vector ``I``.

        Returns exactly 0.0 at I = 0 and a value in [0, 1) elsewhere on
        the admissible set.  Raises :class:`DomainError` outside it, and
        when the value is NaN or outside [0, 1).
        """
        I = self._check_domain(I)
        if not I.any():
            return 0.0
        value = float(self._phi_raw(I))
        if not 0.0 <= value < 1.0:
            raise DomainError(f"phi = {value!r} lies outside [0, 1)")
        return value

    def grad(self, I) -> np.ndarray:
        """Gradient of phi at ``I`` (componentwise nonnegative)."""
        I = self._check_domain(I)
        return np.asarray(self._grad_raw(I), dtype=float)

    @property
    def analytic(self) -> bool:
        """True when the conditions hold by closed form: a built-in family."""
        return self._encoding is not None

    def _phi_raw(self, I: np.ndarray) -> float:
        return inner_phi(I, *self._encoding)

    def _grad_raw(self, I: np.ndarray) -> np.ndarray:
        return _inner_grad(I, *self._encoding)

    def kernel_spec(self):
        """The encoding ``_kernels.run_chunk`` generates a stepper for.

        Returns ``(inner_kind, vec1, vec2, outer_kind, outer_params)`` for
        models the stepper can evaluate, or ``None`` for custom callables,
        whose stepper calls ``_phi_raw``.
        """
        if self._encoding is None:
            return None
        return (*self._encoding, 0, _EMPTY)

    def _finalize(self, r: Optional[np.ndarray] = None) -> None:
        """Cache and validate r: ``r`` if given, else the gradient at 0.  Call last in __init__."""
        r = np.asarray(self._grad_raw(np.zeros(self.n)) if r is None else r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError("gradient at zero has wrong length")
        if np.any(r < 0.0):
            raise ValueError("gradient at zero must be componentwise nonnegative")
        if not r[-1] > 0.0:
            raise ValueError(
                "last infected stage must be infectious to first order (r_n > 0)"
            )
        r.flags.writeable = False
        self.r = r

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, N={self.N!r})"


class ExponentialIncidence(IncidenceModel):
    """phi(I) = 1 - exp(-(beta . I)); the standard exponential family."""

    family = "exponential"

    def __init__(self, beta, N: float):
        self.beta = _infectivities(beta)
        self.n = self.beta.size
        self.N = _population(N)
        self._encoding = (1, self.beta, _EMPTY)
        self._finalize()


class LinearIncidence(IncidenceModel):
    """phi(I) = beta . I with sum(beta) <= 1/N so that phi < 1 on U."""

    family = "linear"

    def __init__(self, beta, N: float):
        self.beta = _infectivities(beta)
        self.n = self.beta.size
        self.N = _population(N)
        if self.beta.sum() > 1.0 / self.N:
            raise ValueError(
                f"sum(beta) = {self.beta.sum():.17g} exceeds 1/N = {1.0 / self.N:.17g}; "
                "linear incidence would leave [0, 1) on the admissible set"
            )
        self._encoding = (0, self.beta, _EMPTY)
        self._finalize()


class SplitExponentialIncidence(IncidenceModel):
    """phi(I) = sum_j theta_j (1 - exp(-beta_j I_j)).

    The theta_j are positive contact-pool weights summing to one; each
    stage is met through its own exponential saturation.
    """

    family = "split-exponential"

    def __init__(self, theta, beta, N: float):
        self.theta = _as_vector(theta, "theta")
        self.beta = _infectivities(beta, self.theta.size)
        self.n = self.beta.size
        self.N = _population(N)
        if np.any(self.theta <= 0.0) or np.any(self.theta >= 1.0):
            raise ValueError("theta components must lie in (0, 1)")
        if abs(self.theta.sum() - 1.0) > 1e-12:
            raise ValueError("theta must sum to 1")
        self._encoding = (2, self.theta, self.beta)
        self._finalize()


class LastClassIncidence(IncidenceModel):
    """phi(I) = f(I_n): only the last stage is infectious.

    ``kind`` selects a built-in scalar profile:

      * ``"linear"``       f(x) = beta x  (beta <= 1/N)
      * ``"exponential"``  f(x) = 1 - exp(-beta x)
      * ``"custom"``       user-supplied ``func`` (and optional ``deriv``)

    Custom profiles without a derivative fall back to finite differences
    with step 1e-6 * N, one-sided at the boundary.
    """

    family = "last-class"

    def __init__(
        self,
        n: int,
        N: float,
        kind: str = "exponential",
        beta: float = 1.0,
        func: Optional[Callable[[float], float]] = None,
        deriv: Optional[Callable[[float], float]] = None,
    ):
        self.n = _count(n, "n")
        self.N = _population(N)
        self.kind = kind
        self.beta = float(beta)
        self._func = func
        self._deriv = deriv
        if kind == "linear":
            if not 0.0 < self.beta <= 1.0 / self.N:
                raise ValueError("linear last-class profile needs 0 < beta <= 1/N")
        elif kind == "exponential":
            if not 0.0 < self.beta < math.inf:
                raise ValueError("exponential last-class profile needs finite beta > 0")
        elif kind == "custom":
            if func is None:
                raise ValueError("custom last-class profile needs func")
            z = float(func(0.0))
            if not abs(z) <= 1e-14:  # NaN fails too
                raise ValueError(f"f(0) must be 0, got {z:.3e}")
        else:
            raise ValueError(f"unknown last-class kind {kind!r}")
        if kind != "custom":
            v1 = np.append(np.zeros(self.n - 1), self.beta)
            self._encoding = (0 if kind == "linear" else 1, v1, _EMPTY)
        self._finalize()

    def scalar_phi(self, x: float) -> float:
        """The scalar profile f applied to the last-stage size."""
        if self._encoding is None:
            return float(self._func(x))
        return inner_phi((x,), self._encoding[0], (self.beta,), ())

    def scalar_deriv(self, x: float) -> float:
        """The derivative f' of the scalar profile at the last-stage size."""
        if self._encoding is not None:
            return float(_inner_grad((x,), self._encoding[0], np.array([self.beta]), _EMPTY)[0])
        if self._deriv is not None:
            return float(self._deriv(x))
        return _fd_slope(lambda s: self._func(x + s), 1e-6 * self.N, self.N - x, x)

    def _phi_raw(self, I):
        # the encoding's other entries are zeros: f(I_n) has the same bits
        return self.scalar_phi(float(I[-1]))

    def _grad_raw(self, I):
        g = np.zeros(self.n)
        g[-1] = self.scalar_deriv(float(I[-1]))
        return g


class CustomIncidence(IncidenceModel):
    """User-supplied incidence, validated by sampling rather than analytically.

    Construction only demands phi(0) = 0 and a finite gradient at zero
    of length n; the rest (range, gradient sign, r_n > 0, concavity) is
    checked by :func:`validate_regularity`, whose report is advisory for
    custom models.  Spectral analyses reject an inadmissible gradient at
    zero when they actually need it.

    Args:
        func: callable mapping a length-n numpy vector to a float.
        n: number of infected stages.
        N: total population.
        grad: optional analytic gradient; central finite differences with
            step 1e-6 * N are used when absent (one-sided at boundaries of
            the admissible set).
    """

    family = "custom"

    def __init__(self, func: Callable[[np.ndarray], float], n: int, N: float,
                 grad: Optional[Callable[[np.ndarray], Sequence[float]]] = None):
        self.n = _count(n, "n")
        self.N = _population(N)
        self._func = func
        self._grad = grad
        z = float(func(np.zeros(self.n)))
        if not abs(z) <= 1e-14:  # NaN fails too
            raise ValueError(f"phi(0) must be 0, got {z:.3e}")
        self.r = _as_vector(self._grad_raw(np.zeros(self.n)), "gradient at zero", self.n)

    def _phi_raw(self, I):
        return float(self._func(I))

    def _grad_raw(self, I):
        if self._grad is not None:
            return np.asarray(self._grad(I), dtype=float)
        return self._fd_grad(I)

    def _fd_grad(self, I: np.ndarray) -> np.ndarray:
        h = 1e-6 * self.N
        g = np.empty(self.n)
        up = self.N * (1.0 + U_TOLERANCE) - I.sum()
        for j in range(self.n):
            e = np.zeros(self.n)
            e[j] = 1.0
            g[j] = _fd_slope(lambda s: self._func(I + s * e), h, up, I[j])
        return g


# ---------------------------------------------------------------------------
# Regularity validation
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    """Outcome of the incidence regularity check.

    ``analytic`` is True when the verdict comes from the family's closed
    form rather than grid sampling; sampled verdicts are advisory.
    """

    family: str
    analytic: bool
    range_ok: bool
    zero_ok: bool
    gradient_ok: bool
    r_last_ok: bool
    concave_ok: bool
    failures: list = field(default_factory=list)
    points_checked: int = 0

    @property
    def passed(self) -> bool:
        return (
            self.range_ok
            and self.zero_ok
            and self.gradient_ok
            and self.r_last_ok
            and self.concave_ok
        )


def _simplex_grid(n: int, N: float, density: int) -> np.ndarray:
    """Axis-aligned grid over {I >= 0 : ||I||_1 <= N}, density points per axis.

    Only index tuples with sum below ``density`` can land in the simplex,
    so only those are built, in the full grid's lexicographic order: each
    row is extended by every index that still fits.
    """
    idx = np.zeros((1, 0), dtype=np.intp)
    for _ in range(n):
        room = density - idx.sum(axis=1)
        offset = np.repeat(np.cumsum(room) - room, room)
        idx = np.column_stack([np.repeat(idx, room, axis=0), np.arange(offset.size) - offset])
    pts = np.linspace(0.0, N, density)[idx]
    return pts[pts.sum(axis=1) <= N * (1.0 + 1e-15)]


def _fd_hessian_once(model: IncidenceModel, x: np.ndarray, h: float) -> np.ndarray:
    n = model.n
    H = np.empty((n, n))
    f = model._phi_raw
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            if i == j:
                H[i, i] = (f(x + ei) - 2.0 * f(x) + f(x - ei)) / (h * h)
            else:
                H[i, j] = H[j, i] = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h * h)
    return H


def _fd_hessian(model: IncidenceModel, x: np.ndarray, h: float) -> np.ndarray:
    # Richardson-extrapolated central differences: the h^2 truncation term
    # would otherwise swamp the +1e-8 eigenvalue threshold on the exact
    # zero eigenvalues of rank-deficient (e.g. single-ray) Hessians
    return (4.0 * _fd_hessian_once(model, x, 0.5 * h) - _fd_hessian_once(model, x, h)) / 3.0


def validate_regularity(model: IncidenceModel, grid_density: int = 9) -> RegularityReport:
    """Check the regularity conditions an incidence function must satisfy.

    An ``analytic`` model (a built-in family, or a contact composition over
    one) short-circuits to the closed-form verdict: its constructor already
    rejected bad parameters.  Everything else is sampled on an axis grid
    over the admissible set: range inside [0, 1), phi(0) = 0, componentwise
    nonnegative gradient, r_n > 0, and concavity via finite-difference
    Hessians whose eigenvalues must not exceed +1e-8.

    Failures are reported, never raised.
    """
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    analytic = model.analytic
    report = RegularityReport(
        family=model.family, analytic=analytic,
        range_ok=True, zero_ok=True, gradient_ok=True,
        r_last_ok=bool(model.r[-1] > 0.0), concave_ok=True,
    )
    if analytic:
        return report

    n, N = model.n, model.N
    try:
        z = float(model._phi_raw(np.zeros(n)))
    except Exception as exc:  # pragma: no cover - defensive
        report.zero_ok = False
        report.failures.append(f"phi(0) raised {exc!r}")
        return report
    if z != 0.0:
        report.zero_ok = False
        report.failures.append(f"phi(0) = {z:.3e} != 0")

    pts = _simplex_grid(n, N, grid_density)
    report.points_checked = len(pts)
    # stencil width trades the eps*|f|/h^2 rounding term (~1e-11 here)
    # against the extrapolated truncation term; both sit under 1e-8 for
    # moderate-curvature profiles
    h = 5e-3 * N
    for x in pts:
        val = model._phi_raw(x)
        if not (0.0 <= val < 1.0):
            report.range_ok = False
            report.failures.append(f"phi({x.tolist()}) = {val:.6g} outside [0, 1)")
        g = model._grad_raw(x)
        if np.any(np.asarray(g) < -1e-10):
            report.gradient_ok = False
            report.failures.append(f"gradient at {x.tolist()} has negative component")
        interior = np.all(x >= h) and x.sum() + n * 2 * h <= N
        if interior:
            eigs = np.linalg.eigvalsh(_fd_hessian(model, x, h))
            if eigs.max() > 1e-8:
                report.concave_ok = False
                report.failures.append(
                    f"Hessian at {x.tolist()} has eigenvalue {eigs.max():.3e} > 1e-8"
                )
    if not report.r_last_ok:
        report.failures.append("r_n = 0: last stage not infectious to first order")
    return report
