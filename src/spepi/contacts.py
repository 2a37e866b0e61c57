"""Contact-count distributions composed into incidence functions.

Let p_i be the probability that a susceptible makes i contacts in one
step and Pi(I) the probability that a single contact infects.  Escaping
infection takes i independent escapes, so

    phi(I) = 1 - sum_i p_i (1 - Pi(I))^i .

When Pi satisfies the regularity conditions, so does the composition,
and the gradient at zero picks up the mean contact count:
grad phi(0) = pbar * grad Pi(0).  The threshold quantity therefore scales
linearly in pbar.

For Poisson-distributed contacts the series collapses to the closed form
phi(I) = 1 - exp(-lambda Pi(I)), evaluated without truncation.

One class, :class:`ComposedIncidence`, serves both laws and reads its
family name and kernel encoding from the :class:`ContactDistribution`.
``_kernels.outer_phi``, from the steppers' template, evaluates the
law on the value of the inner model's own phi, so a custom or nested inner
model works too, and a composition is closed-form when its inner model is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import outer_phi
from .incidence import IncidenceModel
from .model import StageParams
from .spectral import delta

__all__ = [
    "ContactDistribution",
    "ComposedIncidence",
    "compose_incidence",
    "poisson_incidence",
    "r0_with_contacts",
]

MASS_DEFICIT_TOL = 1e-12


@dataclass(frozen=True)
class ContactDistribution:
    """Distribution of per-step contact counts.

    Either a finite explicit table p_0..p_K (renormalized when the mass
    deficit is below 1e-12, rejected when larger) or a Poisson law given
    by its mean.  Build through :meth:`explicit`, :meth:`poisson` or
    :meth:`poisson_truncated`.
    """

    kind: str  # "explicit" | "poisson"
    p: Optional[np.ndarray]
    lam: Optional[float]
    mean: float

    @classmethod
    def explicit(cls, p) -> "ContactDistribution":
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("contact probabilities must form a nonempty 1-d vector")
        if np.any(p < 0.0):
            raise ValueError("contact probabilities must be nonnegative")
        total = float(p.sum())
        if not abs(total - 1.0) <= MASS_DEFICIT_TOL:  # NaN fails too
            raise ValueError(
                f"contact probability mass {total:.17g} deviates from 1 by more than "
                f"{MASS_DEFICIT_TOL:g}; truncate with a smaller tail"
            )
        p = p / total
        p.flags.writeable = False
        mean = float(np.arange(p.size) @ p)
        return cls(kind="explicit", p=p, lam=None, mean=mean)

    @classmethod
    def poisson(cls, lam: float) -> "ContactDistribution":
        lam = float(lam)
        if not 0.0 < lam < math.inf:
            raise ValueError("the Poisson mean must be positive and finite")
        return cls(kind="poisson", p=None, lam=lam, mean=lam)

    @classmethod
    def poisson_truncated(cls, lam: float, tail_mass: float = 1e-12) -> "ContactDistribution":
        """Finite truncation of a Poisson law with tail mass below ``tail_mass``.

        While exp(-lam) is a normal double (lam up to about 708.4) this is
        p_{k+1} = p_k lam / (k + 1) from p_0 = exp(-lam) until the sum
        reaches 1 - ``tail_mass``; if the rounded sum stalls short of that,
        it ends on a geometric bound on the rest and is normalised by its
        own sum, as it is above, where it grows from the mode both ways.
        """
        lam = float(lam)
        if not 0.0 < lam < math.inf:
            raise ValueError("the Poisson mean must be positive and finite")
        if not 0.0 < tail_mass < 1.0:
            raise ValueError(f"tail_mass must lie in (0, 1), got {tail_mass!r}")
        if math.exp(-lam) >= np.finfo(float).tiny:
            probs = [math.exp(-lam)]
            cum = probs[0]
            while cum < 1.0 - tail_mass:
                probs.append(probs[-1] * lam / len(probs))
                grown = cum + probs[-1]
                if grown == cum:  # the rounded sum stalls
                    return _normalised_with_tail(probs, len(probs), lam, tail_mass)
                cum = grown
            return cls.explicit(np.array(probs))
        # q_k = p_k / p_m from q_m = 1 at the mode m, each side while a geometric
        # bound on its rest exceeds tail_mass / 2 of q_m; normalised by its sum
        m = math.floor(lam)
        below, k, q = [], m - 1, m / lam
        while k >= 0 and q > 0.5 * tail_mass * (1.0 - k / lam):  # ratio <= k / lam
            below.append(q)
            q *= k / lam
            k -= 1
        return _normalised_with_tail([0.0] * (k + 1) + below[::-1] + [1.0], m + 1, lam, tail_mass)


def _normalised_with_tail(terms, k, lam, tail_mass):
    """The Poisson ``terms`` up to k - 1, extended by terms k, k + 1, ... while
    a geometric bound on the rest (ratios at most lam / (k + 1)) exceeds
    tail_mass / 2 of their scale, as a table normalised by its own sum."""
    q = terms[-1] * lam / k
    while q > 0.5 * tail_mass * (1.0 - lam / (k + 1)):
        terms.append(q)
        k += 1
        q *= lam / k
    p = np.array(terms)
    return ContactDistribution.explicit(p / p.sum())


class ComposedIncidence(IncidenceModel):
    """phi(I) = 1 - sum_i p_i (1 - Pi(I))^i: a contact law over ``pi_model``.

    An explicit table is summed through the recurrence
    t_{i+1} = Pi + (1-Pi) t_i on t_i = 1 - (1-Pi)^i, which is
    cancellation-free down to tiny Pi; a Poisson law with mean lambda is
    the closed form 1 - exp(-lambda Pi(I)).
    """

    def __init__(self, pi_model: IncidenceModel, dist: ContactDistribution):
        self.pi_model = pi_model
        self.dist = dist
        # the family name and the kernel's outer kind and parameters
        if dist.kind == "poisson":
            self.family, self._ok, self._op = "poisson-composed", 2, np.array([dist.lam])
        else:
            self.family, self._ok, self._op = "contact-composed", 1, dist.p
        self.n = pi_model.n
        self.N = pi_model.N
        self.r = dist.mean * pi_model.r
        try:
            self._finalize()
        except ValueError as exc:
            raise ValueError(
                f"composition is not a valid incidence: {exc} "
                "(a contact distribution with zero mean infects nobody)"
            ) from exc

    @property
    def analytic(self) -> bool:
        # composition preserves the conditions whenever Pi satisfies them
        return self.pi_model.analytic

    def _phi_raw(self, I):
        return outer_phi(self.pi_model._phi_raw(I), self._ok, self._op)

    def _grad_raw(self, I):
        pi = self.pi_model._phi_raw(I)
        g = np.asarray(self.pi_model._grad_raw(I), dtype=float)
        if self._ok == 2:
            lam = self.dist.lam
            return lam * math.exp(-lam * pi) * g
        q = 1.0 - pi
        p = self.dist.p
        w = 0.0
        qpow = 1.0  # q^(i-1)
        for i in range(1, p.shape[0]):
            w += i * p[i] * qpow
            qpow *= q
        return w * g

    def kernel_spec(self):
        inner = self.pi_model.kernel_spec()
        if inner is None or inner[3] != 0:  # no nesting of composed models
            return None
        return (*inner[:3], self._ok, self._op)


def compose_incidence(pi_model: IncidenceModel, dist: ContactDistribution) -> ComposedIncidence:
    """Compose a per-contact infection probability with a contact law."""
    return ComposedIncidence(pi_model, dist)


def poisson_incidence(lam: float, pi_model: IncidenceModel) -> ComposedIncidence:
    """Closed-form Poisson-contact incidence with mean ``lam``."""
    return ComposedIncidence(pi_model, ContactDistribution.poisson(lam))


def r0_with_contacts(
    params: StageParams, pi_model: IncidenceModel, dist: ContactDistribution
) -> float:
    """Basic reproduction number of the composed model.

    Equals N * pbar * sum_j (dPi/dI_j)(0) / gamma_j; the mean contact
    count enters linearly, so halving contacts halves the threshold
    quantity.  Matches ``spectral.r0`` applied to the composed incidence.
    """
    return params.N * dist.mean * delta(params, pi_model)
