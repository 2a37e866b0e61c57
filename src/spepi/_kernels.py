"""The stepping kernel: Python source generated per encoding.

One function steps the map for each key (n, ``ik``, ``ok``, K, record):
stage count, the encoding's kinds below, the contact table's length (None
without a contact law) and whether it records the stages.  It is generated
on first use and cached, so importing generates nothing.  Every loop is
written out, over locals i0..i{n-1} and the like, with phi inlined, and
each sum is split every ``_SUM_TERMS`` terms (``z = z + i1024 + ...``),
which keeps every operation's operands and order: stage j gets
k_j * I_j + g_{j-1} * I_{j-1} with k_j = 1 - g_j (stage 1 gains phi * S,
g_n * I_n goes to R), and Z = 0.0 + I_1 + ... + I_n and each phi sum
upwards from 0.0.  Each built-in phi is written once, as its template in
``_INNER`` or ``_OUTER``; ``inner_phi`` and ``outer_phi`` evaluate loops
generated from them for the model objects.

``run_chunk`` steps every run: it looks up the stepper for its key and
calls it on the caller's Python lists (indexing numpy arrays from Python
boxes a scalar per element).  A model without an encoding passes
``phi_fn``, called in place of the template on a tuple of the stages.
Every stepper returns six values.  A summary run passes no stage buffer:
its stepper keeps no stage rows and seeks the onset of strict decrease
from each call's entry.

  inner kind ``ik``:  0 linear  phi = v1 . I
                      1 exponential  phi = -expm1(-(v1 . I))
                      2 split  phi = sum_j v1[j] * -expm1(-v2[j] * I[j])
  outer kind ``ok``:  0 none
                      1 explicit contact counts, probabilities op[0..K-1]
                      2 Poisson contacts, mean op[0]

The explicit-contact sum 1 - sum_i p_i (1-Pi)^i is evaluated through the
recurrence t_{i+1} = Pi + (1-Pi) t_i (t_i = 1-(1-Pi)^i), which keeps full
relative precision for tiny Pi; the direct form cancels catastrophically.
"""

from __future__ import annotations

import math

# A "+" chain compiles recursively, one level a term, so a written-out sum
# is split into lines of at most this many terms
_SUM_TERMS = 1024

# The inner phi of kind ik: the term of stage j ({v}, {w}, {x} name v1[j],
# v2[j] and I[j]), and phi from the sum ``acc`` of the terms
_INNER = {0: ("{v} * {x}", "acc"), 1: ("{v} * {x}", "-expm1(-acc)"),
          2: ("{v} * -expm1(-{w} * {x})", "acc")}
# The contact law of kind ok on the inner value pi: its set-up, and the
# step for each table entry {p} = op[i], i >= 1 (none for the closed form)
_OUTER = {0: ("phi = pi", None),
          1: ("q = 1.0 - pi; t = 0.0; phi = 0.0", "t = pi + q * t; phi += {p} * t"),
          2: ("phi = -expm1(-{p} * pi)", None)}


def _sum(name, terms):
    """Lines setting ``name`` to 0.0 + terms[0] + ..., summed in order."""
    return [f"{name} = " + " + ".join([name if c else "0.0", *terms[c:c + _SUM_TERMS]])
            for c in range(0, len(terms), _SUM_TERMS)]


def _inner_lines(n, ik):
    """Lines setting the inner value ``pi``: over locals i0.., a0.., b0..
    when n is given, else over I, v1 and v2; ik None calls ``phi_fn``."""
    if ik is None:
        return [f"pi = phi_fn(({', '.join(f'i{j}' for j in range(n))},))"]
    term, inner = _INNER[ik]
    if n:
        return [*_sum("acc", [term.format(v=f"a{j}", w=f"b{j}", x=f"i{j}") for j in range(n)]),
                "pi = " + inner]
    return ["acc = 0.0", "for j in range(len(I)):",
            "    acc += " + term.format(v="v1[j]", w="v2[j]", x="I[j]"), "pi = " + inner]


def _outer_lines(ok, K):
    """Lines setting ``phi`` from ``pi``: over locals o0.. when K is given."""
    head, step = _OUTER[ok]
    lines = [head.format(p="o0" if K else "op[0]")]
    if step and K:
        return lines + [step.format(p=f"o{i}") for i in range(1, K)]
    if step:
        return lines + ["for i in range(1, len(op)):", "    " + step.format(p="op[i]")]
    return lines


def _stepper_lines(n, ik, ok, K, record):
    """The stepper's body: ``run_chunk``'s contract without ik and ok.

    Without ``record`` it stores no stage rows and, until it finds the
    onset, forms each step's new stages apart from the old ones, by the same
    expressions in the same order, and compares them."""
    zsum = _sum("z", [f"i{j}" for j in range(n)])
    setup = [f"g{j} = gamma[{j}]; k{j} = 1.0 - g{j}; i{j} = I[{j}]" for j in range(n)]
    setup += [f"a{j} = v1[{j}]" for j in range(n) if ik is not None]
    setup += [f"b{j} = v2[{j}]" for j in range(n) if ik == 2] + zsum
    setup += [f"o{i} = op[{i}]" for i in range(K or 0)]
    stages = [f"{{}}{j} = k{j} * i{j} + g{j - 1} * i{j - 1}" for j in range(n - 1, 0, -1)]
    stages += ["{}0 = k0 * i0 + inc"]
    if not record:  # once the onset is found, the stages update in place
        seeking = [line.format("u") for line in stages]
        seeking += ["if " + " and ".join(f"u{j} < i{j}" for j in range(n)) + ":",
                    "    onset = row - 1", *(f"i{j} = u{j}" for j in range(n))]
        stages = ["if onset is None:", *("    " + line for line in seeking),
                  "else:", *("    " + line.format("i") for line in stages)]
    else:
        stages = [line.format("i") for line in stages]
    store = [f"base = row * {n}"] + [f"I_out[base + {j}] = i{j}" for j in range(n)]
    update = ["inc = phi * S", "S_new = S - inc", f"R = R + g{n - 1} * i{n - 1}", *stages, *zsum,
              "conv = z < eps_z and S - S_new < eps_s", "S = S_new"]
    loop = _inner_lines(n, ik) + _outer_lines(ok, K) + [
        "S_out[row] = S", "R_out[row] = R", "phi_out[row] = phi", "Z_out[row] = z",
        *(store if record else []), "row += 1",
        "if conv or row == cap or not 0.0 <= phi < 1.0:", "    break", *update]
    return ["cap = len(S_out)", *setup, "row = 0", "conv = False", "onset = None",
            "if phi >= 0.0:  # the entry state is recorded: step past it",
            *("    " + line for line in update),
            "while True:", *("    " + line for line in loop),
            *(f"I[{j}] = i{j}" for j in range(n)), "return row, conv, S, R, phi, onset"]


def _source(key):
    """("inner", ik) or ("outer", ok): phi alone, as a loop over any length;
    (n, ik, ok, K, record): the stepper, written out for its n and K, ik
    None calling a custom ``phi_fn`` and ``record`` False the summary
    stepper."""
    if key[0] == "inner":
        args, body = "I, v1, v2", _inner_lines(None, key[1]) + ["return pi"]
    elif key[0] == "outer":
        args, body = "pi, op", _outer_lines(key[1], None) + ["return phi"]
    else:
        args = ("S, I, R, phi, gamma, v1, v2, op, eps_z, eps_s, S_out, I_out, R_out, phi_out, "
                "Z_out, phi_fn")
        body = _stepper_lines(*key)
    return "\n".join([f"def generated({args}):", *("    " + line for line in body)])


_GENERATED = {}


def _generated(key):
    """The function for ``key``, generated and compiled on first use."""
    fn = _GENERATED.get(key)
    if fn is None:
        namespace = {"expm1": math.expm1}
        exec(compile(_source(key), f"<spepi._kernels {key}>", "exec"), namespace)
        fn = _GENERATED[key] = namespace["generated"]
    return fn


def _key(n, ik, ok, K, phi_fn=None, record=True):
    """The stepper's key: K None without a contact law, ik None for a
    phi_fn, and whether it records the stages."""
    return (n, ik if phi_fn is None else None, ok, K if ok else None, record)


def inner_phi(I, ik, v1, v2):
    """The inner incidence of kind ``ik`` at stage vector ``I``."""
    return _generated(("inner", ik))(I, v1, v2)


def outer_phi(pi, ok, op):
    """The contact law of kind ``ok`` (1 or 2) applied to inner incidence ``pi``."""
    return _generated(("outer", ok))(pi, op)


def run_chunk(S, I, R, phi, gamma, ik, v1, v2, ok, op, eps_z, eps_s,
              S_out, I_out, R_out, phi_out, Z_out, phi_fn=None):
    """Advance the map from (S, I, R), recording one row per state.

    Every vector argument is a Python list.  Row k holds S, R, phi and
    ||I||_1 (summed in the stop rule's order) at ``S_out[k]`` etc., and
    stage j at ``I_out[k * n + j]``.  phi < 0: the entry state is
    unrecorded and is recorded first; else it was recorded with
    incidence phi and is stepped past.  A row's phi is phi_fn called on a
    tuple of the stages when given, else the encoding's; I is updated in
    place.  Returns (rows,
    converged, S, R, phi_last, onset), ending at convergence (||I|| <
    eps_z and the S decrement < eps_s), after ``len(S_out)`` rows, or at
    a row whose phi lies outside [0, 1), which the row checks reject.

    ``I_out`` None selects the summary stepper: the same steps, bit for
    bit, with no stage rows.  From each call's entry it seeks the onset,
    the first row k (-1 for the entry state) whose successor lies strictly
    below it in every stage, by ``asymptotics.monotonicity_onset``'s
    comparisons; None if none, and always for the recording stepper.
    """
    step = _generated(_key(len(I), ik, ok, len(op), phi_fn, I_out is not None))
    return step(S, I, R, phi, gamma, v1, v2, op, eps_z, eps_s,
                S_out, I_out, R_out, phi_out, Z_out, phi_fn)


# perfbench/worker.py reads this for the run's environment record; there is
# no compiled path, so it is always False
using_numba = False
