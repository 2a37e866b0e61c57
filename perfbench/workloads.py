"""Seeded input generators for the three workloads.

Each generator returns one *round*: a fixed-length list of operation
descriptions.  A run repeats whole rounds, so every run attempts the same
mix.  The seed moves every continuous parameter inside a fixed stratum
(family, stage count, target work), so op costs are alike across seeds
while the inputs differ.  Nothing here imports ``spepi``.

Operation descriptions are dicts with a ``kind`` of ``simulate``,
``sweep``, ``analyze`` or ``library`` and a scenario ``spec`` (see
:mod:`oracle`).
"""

from __future__ import annotations

import math

import numpy as np

import oracle

WORKLOADS = ("deep-trajectory", "param-sweep", "general-analysis")

# per-stage cost of `spepi simulate` on the plain-Python kernel, in seconds:
# roughly (20 + 4 n) microseconds per step, most of it in CSV formatting
_SIM_COST_BASE = 20e-6
_SIM_COST_PER_STAGE = 4e-6

# power iteration stops at this step difference (spectral.perron default)
_PERRON_TOL = 1e-13
# generated inputs keep the predicted Perron iteration count below this;
# spectral.perron raises after 1e5 iterations
PERRON_PREDICTED_MAX = 60_000
# redraws allowed for one admissible input before the generator gives up
_MAX_DRAWS = 1000


def _gamma_below(rng, n, lam, lo=0.3, hi=0.85):
    """Progression probabilities with every 1 - gamma_j below lam."""
    return 1.0 - lam * rng.uniform(lo, hi, n)


def _shape(rng, n, zero_share=0.3):
    """Nonnegative infectivity shape with a positive last entry."""
    w = rng.uniform(0.2, 1.0, n) * (rng.random(n) >= zero_share)
    w[-1] = rng.uniform(0.5, 1.0)
    return w


def _initial(rng, n, N, first_stage_only):
    f = rng.uniform(0.005, 0.02)
    I0 = np.zeros(n)
    if first_stage_only:
        I0[0] = f * N
    else:
        w = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.6)
        w[int(rng.integers(0, n))] += 0.5
        I0 = f * N * w / w.sum()
    S0 = N - float(I0.sum())
    return S0, [float(x) for x in I0]


def _outbreak_level(gamma, r, S0, I0):
    """S after a subcritical outbreak, from the linearized final size.

    Total new infections ~ a r . (Id - B(a))^{-1} I(0), fixed-point iterated
    in a because B depends on the susceptible level it runs at.
    """
    a = S0
    for _ in range(4):
        B = oracle.stage_matrix(gamma, r, a)
        total = np.linalg.solve(np.eye(len(gamma)) - B, np.asarray(I0))
        a = S0 - a * float(np.asarray(r) @ total)
    return a


def _radius_scaled(gamma, r_hat, S0, I0, lam):
    """r = c r_hat with rho(B(S_inf)) ~ lam, S_inf from the outbreak estimate."""
    a = S0
    c = oracle.scale_for_radius(gamma, r_hat, a, lam)
    for _ in range(4):
        a = _outbreak_level(gamma, c * r_hat, S0, I0)
        c = oracle.scale_for_radius(gamma, r_hat, a, lam)
    return c * np.asarray(r_hat)


def _plain_inc(rng, family, r, N):
    """A plain incidence spec with gradient r at zero, or None if inadmissible."""
    r = np.asarray(r, dtype=float)
    if family == "exponential":
        return {"family": family, "beta": r.tolist()}
    if family == "linear":
        if r.sum() > 0.999 / N:
            return None
        return {"family": family, "beta": r.tolist()}
    if family == "split-exponential":
        theta = rng.dirichlet(np.full(r.size, 2.0))
        theta = theta / theta.sum()
        if np.any(theta <= 1e-3) or abs(theta.sum() - 1.0) > 1e-14:
            return None
        return {"family": family, "theta": theta.tolist(), "beta": (r / theta).tolist()}
    if family in ("last-class-linear", "last-class-exponential"):
        if np.any(r[:-1] != 0.0):
            raise ValueError("last-class incidence needs r_j = 0 for j < n")
        if family == "last-class-linear" and r[-1] > 0.999 / N:
            return None
        return {"family": family, "beta": float(r[-1])}
    raise ValueError(f"not a plain family: {family!r}")


def _contact_table(rng):
    k = int(rng.integers(3, 7))
    p = rng.dirichlet(np.ones(k + 1))
    return (p / p.sum()).tolist()


def _incidence(rng, family, r, N, inner):
    """Incidence spec of any family with gradient r at zero (None: redraw)."""
    if family == "contact-composed":
        p = _contact_table(rng)
        q = np.asarray(p) / math.fsum(p)
        mean = float(np.arange(q.size) @ q)
        pi = _plain_inc(rng, inner, np.asarray(r) / mean, N)
        return None if pi is None else {"family": family, "contact_p": p, "pi": pi}
    if family == "poisson-composed":
        lam = float(rng.uniform(1.0, 4.0))
        pi = _plain_inc(rng, inner, np.asarray(r) / lam, N)
        return None if pi is None else {"family": family, "lambda": lam, "pi": pi}
    if family.startswith("custom"):
        return _custom_inc(rng, family, np.asarray(r), N)
    return _plain_inc(rng, family, r, N)


def _is_last_class(family, inner):
    return family.startswith("last-class") or (inner or "").startswith("last-class")


def _tail_scenario(rng, label, family, inner, n, steps, log_eps_range):
    """Subcritical-at-start scenario whose tail reaches eps in about ``steps``.

    Draws eps log-uniformly, sets the tail decay rate lam so that
    Z0 * lam^steps = eps, and scales the infectivities so that
    rho(B(S_inf)) = lam.  Returns (spec, eps).
    """
    for _ in range(_MAX_DRAWS):
        N = float(10 ** rng.uniform(-0.3, 1.3))
        S0, I0 = _initial(rng, n, N, first_stage_only=rng.random() < 0.5)
        log_eps = rng.uniform(*log_eps_range) + math.log10(N)
        eps = 10.0 ** log_eps
        lam = math.exp((log_eps * math.log(10.0) - math.log(sum(I0))) / steps)
        gamma = _gamma_below(rng, n, lam)
        if _is_last_class(family, inner):
            r_hat = np.zeros(n)
            r_hat[-1] = 1.0
        else:
            r_hat = _shape(rng, n)
        r = _radius_scaled(gamma, r_hat, S0, I0, lam)
        inc = _incidence(rng, family, r, N, inner)
        if inc is None:
            continue
        spec = {"label": label, "gamma": gamma.tolist(), "N": N, "S": S0, "I": I0,
                "R": 0.0, "inc": inc}
        return spec, eps
    raise ValueError(f"{label}: no admissible draw in {_MAX_DRAWS} tries")


# --- deep-trajectory ------------------------------------------------------

# (family, inner family) in rotation; every kernel-encodable INI family
_DEEP_FAMILIES = (
    ("exponential", None),
    ("linear", None),
    ("split-exponential", None),
    ("last-class-exponential", None),
    ("contact-composed", "exponential"),
    ("poisson-composed", "split-exponential"),
    ("last-class-linear", None),
    ("contact-composed", "linear"),
    ("poisson-composed", "exponential"),
    ("contact-composed", "split-exponential"),
    ("poisson-composed", "last-class-exponential"),
    ("contact-composed", "last-class-linear"),
)
DEEP_ROUND = 24
DEEP_COST_RANGE = (0.12, 0.42)  # target seconds per operation
# strata sharing the top target cost, so the p90 falls inside that plateau
# rather than on one stratum's draw; the others are spread evenly below it
DEEP_TOP = 4


def deep_trajectory(rng) -> list:
    """`spepi simulate` on scenarios whose tails run to eps in [1e-240 N, 1e-120 N]."""
    ops = []
    lo, hi = DEEP_COST_RANGE
    for i in range(DEEP_ROUND):
        family, inner = _DEEP_FAMILIES[i % len(_DEEP_FAMILIES)]
        n = 3 + (i * 5) % 8
        level = min((i * 7) % DEEP_ROUND, DEEP_ROUND - DEEP_TOP)
        cost = lo + (hi - lo) * level / (DEEP_ROUND - DEEP_TOP)
        steps = cost / (_SIM_COST_BASE + _SIM_COST_PER_STAGE * n)
        steps *= rng.uniform(0.95, 1.05)
        spec, eps = _tail_scenario(rng, f"deep-{i:02d}", family, inner, n, steps,
                                   (-240.0, -120.0))
        ops.append({"kind": "simulate", "spec": spec, "eps": eps})
    return ops


# --- param-sweep ----------------------------------------------------------

# (family, inner, swept entry kind, stage count, grid points).  The grid
# sizes put the sweeps on three cost plateaus, about 0.16 s, 0.25 s and
# 0.45 s on the plain-Python kernel (4, 5 and 3 strata, each drawn
# SWEEP_DRAWS times a round), so the p50 and the p90 each fall inside a
# plateau rather than between two sweeps.
_SWEEP_STRATA = (
    ("exponential", None, "beta", 4, 34),
    ("split-exponential", None, "beta", 6, 24),
    ("last-class-exponential", None, "beta", 3, 34),
    ("poisson-composed", "exponential", "lambda", 5, 35),
    ("contact-composed", "exponential", "beta", 4, 30),
    ("exponential", None, "gamma", 5, 37),
    ("linear", None, "gamma", 3, 35),
    ("poisson-composed", "split-exponential", "lambda", 7, 28),
    ("exponential", None, "beta", 8, 21),
    ("contact-composed", "split-exponential", "beta", 3, 33),
    ("last-class-linear", None, "gamma", 4, 37),
    ("split-exponential", None, "gamma", 3, 47),
)


def _admissible(inc: dict, N: float) -> bool:
    """The range conditions the incidence constructors enforce."""
    if "pi" in inc:
        return _admissible(inc["pi"], N)
    beta = np.atleast_1d(np.asarray(inc["beta"], dtype=float))
    if np.any(beta < 0.0) or not beta[-1] > 0.0:
        return False
    if inc["family"] in ("linear", "last-class-linear"):
        return bool(beta.sum() <= 0.999 / N)
    return True


def _sweep_path(family, kind, i):
    if kind == "gamma":
        return f"params.gamma[{i}]"
    if kind == "lambda":
        return "incidence.lambda"
    if family.startswith("last-class"):
        return "incidence.beta"
    key = "pi_beta" if family.endswith("composed") else "beta"
    return f"incidence.{key}[{i}]"


def _jitter(rng, x, rel):
    """x times a uniform factor in [1 - rel, 1 + rel]."""
    return x * rng.uniform(1.0 - rel, 1.0 + rel, np.shape(x))


def _sweep(rng, label, stratum, family, inner, kind, n, count):
    """One sweep spec and grid; R0 runs from 0.6 to 2 along the grid.

    The stratum fixes the layout (stage probabilities, infectivity shape,
    swept stage, seeded stages); the seed moves each value by a few percent.
    Near R0 = 1 the tail decay slows, so a freer draw would make the cost
    of a sweep swing by a factor of three between seeds.  The grid's R0
    ends are fixed for the same reason: moving them would slide the grid
    point nearest R0 = 1 towards it or away from it.

    R0 is affine in a beta entry and in lambda, and affine in 1/gamma_i, so
    two evaluations of the benchmark's own R0 fix the grid ends.
    """
    last = family.startswith("last-class")
    layout = np.random.default_rng([stratum, 1])
    gamma0 = layout.uniform(0.3, 0.85, n)
    shape0 = np.zeros(n) if last else _shape(layout, n)
    seed0 = layout.uniform(0.1, 1.0, n) * (layout.random(n) < 0.5)
    seed0[0 if layout.random() < 0.5 else n - 1] += 1.0
    i = n - 1 if last else int(layout.integers(0, n))
    for _ in range(_MAX_DRAWS):
        N = float(10 ** rng.uniform(-0.3, 1.3))
        w = _jitter(rng, seed0, 0.1)
        I0 = (_jitter(rng, 0.01, 0.05) * N * w / w.sum()).tolist()
        S0 = N - math.fsum(I0)
        gamma = _jitter(rng, gamma0, 0.03)
        R_lo, R_hi = 0.6, 2.0
        shape = _jitter(rng, shape0, 0.1)
        if kind == "lambda":  # R0 = lambda N delta_pi: the whole shape scales
            r = shape / (N * float((shape / gamma).sum()))
        else:  # the other stages carry a share A of R0; the swept one the rest
            r = shape.copy()
            r[i] = 0.0
            A = _jitter(rng, 0.25, 0.1) if r.any() else 0.0
            if r.any():
                r *= A / (N * float((r / gamma).sum()))
            if kind == "gamma":
                r[i] = _jitter(rng, 0.85, 0.03) * (R_lo - A) / N
            else:
                r[i] = (1.0 - A) * gamma[i] / N
        inc = _incidence(rng, family, r, N, inner)
        if inc is None:
            continue
        spec = {"label": label, "gamma": gamma.tolist(), "N": N, "S": S0, "I": I0,
                "R": 0.0, "inc": inc}
        path = _sweep_path(family, kind, i)

        def R0_at(v):
            return oracle.r0(oracle.set_value(spec, path, v))

        if kind == "gamma":
            B = R0_at(0.5) - R0_at(1.0)  # R0(g) = A + B / g
            A0 = R0_at(1.0) - B
            ends = (B / (R_lo - A0), B / (R_hi - A0))
        else:
            A0 = R0_at(0.0)
            slope = R0_at(1.0) - A0
            ends = ((R_lo - A0) / slope, (R_hi - A0) / slope)
        grid = np.linspace(ends[0], ends[1], count)
        if kind == "gamma" and not (0.0 < grid.min() and grid.max() < 1.0):
            continue
        if not grid.min() > 0.0:
            continue
        spec = oracle.set_value(spec, path, float(grid[count // 2]))
        if all(_admissible(oracle.set_value(spec, path, float(v))["inc"], N)
               for v in (grid[0], grid[-1])):
            return spec, path, [float(v) for v in grid]
    raise ValueError(f"{label}: no admissible draw in {_MAX_DRAWS} tries")


# draws of each stratum in a round: the p90 then falls among six sweeps of
# the top plateau, not on the second-dearest of three
SWEEP_DRAWS = 2


def param_sweep(rng) -> list:
    """`spepi sweep` of one entry over a grid that crosses R0 = 1."""
    ops = []
    for j in range(SWEEP_DRAWS * len(_SWEEP_STRATA)):
        k = j % len(_SWEEP_STRATA)
        family, inner, kind, n, count = _SWEEP_STRATA[k]
        spec, path, grid = _sweep(rng, f"sweep-{j:02d}", k, family, inner, kind, n, count)
        ops.append({"kind": "sweep", "spec": spec, "param": path, "grid": grid})
    return ops


# --- general-analysis -----------------------------------------------------

FIGURES = ("fig2-left", "fig2-right", "fig3-top-left", "fig3-top-right", "fig3-bottom")


def _supercritical(rng, label, n, log_eps_range):
    """Exponential scenario with R0 in [1.3, 2.5] and a tail rate of 0.9 per step.

    Scaling every gamma_j and beta_j by k keeps R0 and the final size (the
    final-size equation sees only beta_j / gamma_j) and maps each eigenvalue
    lam of B(S_inf) to 1 + k (lam - 1).  So k sets the tail rate, from the
    benchmark's own final-size root, and the run to a deep eps takes about
    the same number of steps for every seed.
    """
    N = float(10 ** rng.uniform(-0.3, 1.3))
    S0, I0 = _initial(rng, n, N, first_stage_only=rng.random() < 0.5)
    for _ in range(_MAX_DRAWS):
        gamma = rng.uniform(0.3, 0.9, n)
        r_hat = _shape(rng, n)
        r = r_hat * (rng.uniform(1.3, 2.5) / (N * float((r_hat / gamma).sum())))
        spec = {"label": label, "gamma": gamma.tolist(), "N": N, "S": S0, "I": I0,
                "R": 0.0, "inc": {"family": "exponential", "beta": r.tolist()}}
        rho = oracle.spectral_radius(gamma, r, oracle.final_size_root(spec))
        k = (1.0 - _jitter(rng, 0.9, 0.005)) / (1.0 - rho)
        if k * gamma.max() < 0.99:
            spec["gamma"] = (k * gamma).tolist()
            spec["inc"]["beta"] = (k * r).tolist()
            eps = N * 10.0 ** rng.uniform(*log_eps_range)
            spec["stopping"] = {"eps_z": eps, "eps_s": eps}
            return spec
    raise ValueError(f"{label}: no admissible draw in {_MAX_DRAWS} tries")


def _custom_inc(rng, family, r, N):
    """Custom-callable spec with gradient r at zero (None: redraw)."""
    if family == "custom-concave":
        return {"family": family, "b": r.tolist()}
    # phi = c (exp(b.I) - 1) with b = r / c; phi < 1 on U needs
    # c (exp(N max b) - 1) < 1, i.e. N max r < L / (exp(L) - 1) for L = N max b
    L = rng.uniform(0.3, 0.8)
    if not N * r.max() < 0.9 * L / math.expm1(L):
        return None
    c = N * r.max() / L
    return {"family": family, "b": (r / c).tolist(), "c": c}


def _near_cyclic(rng, label, n, iterations):
    """Last-class scenario whose Perron iteration needs about ``iterations`` steps.

    All stages progress with probability near gamma; as gamma -> 1 the
    stage matrix nears a cyclic permutation and power iteration slows.
    gamma is bisected on the predicted count ln(tol) / ln(|lambda_2| / rho),
    which stays below PERRON_PREDICTED_MAX.
    """
    N = float(10 ** rng.uniform(-0.3, 1.0))
    S0, I0 = _initial(rng, n, N, first_stage_only=False)
    R_eff = rng.uniform(0.4, 0.9)
    jitter = rng.uniform(0.0, 1.0, n)
    kind = "last-class-linear" if rng.random() < 0.5 else "last-class-exponential"

    def build(g):
        gamma = 1.0 - (1.0 - g) * (1.0 + 0.05 * jitter)
        r = np.zeros(n)
        r[-1] = R_eff * gamma[-1] / S0
        return gamma, r

    def predicted(g):
        gamma, r = build(g)
        a = _outbreak_level(gamma, r, S0, I0)
        return math.log(_PERRON_TOL) / math.log(oracle.second_ratio(gamma, r, a))

    iterations = min(iterations, PERRON_PREDICTED_MAX)
    lo, hi = 0.5, 0.999
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if predicted(mid) < iterations:
            lo = mid
        else:
            hi = mid
    gamma, r = build(lo)
    if kind == "last-class-linear" and r[-1] > 0.999 / N:
        kind = "last-class-exponential"
    # below the default eps, so the tail-sum identity holds to 1e-8
    eps = 1e-16 * N
    return {"label": label, "gamma": gamma.tolist(), "N": N, "S": S0, "I": I0,
            "R": 0.0, "inc": {"family": kind, "beta": float(r[-1])},
            "stopping": {"eps_z": eps, "eps_s": eps}}


_WIDE_FAMILIES = ("exponential", "split-exponential", "linear", "poisson-composed",
                  "contact-composed", "exponential")
GA_WIDE = 12        # n from 10 to 20, all stages infectious
# Perron iterations; five alike at the top keep the p90 inside one plateau
GA_CYCLIC = (4000.0, 9000.0, 20000.0, 20000.0, 20000.0, 20000.0, 20000.0)
GA_SUPER = 4        # supercritical exponential, n from 3 to 9
GA_CUSTOM = 3       # library analyses on each of the two custom callables


def general_analysis(rng, figure_specs) -> list:
    """`spepi analyze` on figures and generated scenarios, plus library analyses.

    Generated analyze inputs stop at a scenario-file eps that gives each a
    known number of steps, so every operation's cost is alike across seeds.
    """
    ops = [{"kind": "analyze", "spec": figure_specs[name], "bundled": name}
           for name in FIGURES]
    for k in range(GA_WIDE):
        n = 10 + (k * 7) % 11
        family = _WIDE_FAMILIES[k % len(_WIDE_FAMILIES)]
        inner = "exponential" if family.endswith("composed") else None
        steps = 1200.0 * rng.uniform(0.95, 1.05)
        spec, eps = _tail_scenario(rng, f"wide-{k:02d}", family, inner, n, steps,
                                   (-36.0, -28.0))
        spec["stopping"] = {"eps_z": eps, "eps_s": eps}
        ops.append({"kind": "analyze", "spec": spec})
    for k, target in enumerate(GA_CYCLIC):
        n = 3 + k % 3
        spec = _near_cyclic(rng, f"cyclic-{k:02d}", n, target * rng.uniform(0.95, 1.05))
        ops.append({"kind": "analyze", "spec": spec})
    for k in range(GA_SUPER):
        spec = _supercritical(rng, f"super-{k:02d}", 3 + 2 * k, (-32.0, -28.0))
        ops.append({"kind": "analyze", "spec": spec})
    for k in range(GA_CUSTOM):
        for family in ("custom-concave", "custom-convex"):
            steps = 700.0 * rng.uniform(0.95, 1.05)
            spec, eps = _tail_scenario(rng, f"{family[7:]}-{k:02d}", family, None, 3, steps,
                                       (-36.0, -28.0))
            spec["stopping"] = {"eps_z": eps, "eps_s": eps}
            ops.append({"kind": "library", "spec": spec})
    return ops


def build_round(workload: str, seed: int, figure_specs=None) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "deep-trajectory":
        return deep_trajectory(rng)
    if workload == "param-sweep":
        return param_sweep(rng)
    if workload == "general-analysis":
        return general_analysis(rng, figure_specs)
    raise ValueError(f"unknown workload {workload!r}")
