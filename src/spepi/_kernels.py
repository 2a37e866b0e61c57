"""Hot stepping kernels: numba-compiled with a plain-Python twin.

The same source is used for both paths; ``SPEPI_DISABLE_NUMBA=1`` (or a
failed numba import) selects the uncompiled twin.  The ``deep-trajectory``
workload of ``perfbench/`` times the two against each other.

The kernel indexes its inputs with ``len()`` and flat subscripts only, so
the compiled path runs it on numpy arrays and the twin on Python lists.
Indexing a numpy array from Python boxes a numpy scalar per element, which
made the twin about twice as slow.  The twin runs the source in blocks of
at most ``BLOCK_ROWS`` rows on reused list buffers and copies each block
into the caller's arrays: every list entry is a boxed float, and buffers
as long as a whole chunk (8k rows and more) raised the peak memory of a
deep run by several MB.

Each step updates the stages in one ascending pass that also sums the
prevalence: ``flow`` carries gamma[j-1] * I[j-1] (the old value) into
stage j, and what leaves the last stage goes to R.  Every I[j] is
computed from the same operands as in the descending form
(1 - gamma[j]) * I[j] + gamma[j-1] * I[j-1], with 1 - gamma[j] taken once
per call, and Z is still the sequential sum 0.0 + I[0] + ... + I[n-1] of
the new values, so the result is bit-for-bit that of a descending update
followed by a separate sum, at one pass instead of two.

A model without a built-in encoding passes ``phi_fn`` to take its place,
so every incidence steps through this one loop.  Those runs use the twin,
as numba cannot call a Python callable (it prunes the branch when
``phi_fn`` is None).  A row with phi outside [0, 1) (NaN too) ends the
call with ``INVALID``, so that state is never stepped.

Incidence encoding shared with :meth:`IncidenceModel.kernel_spec`.
``inner_phi`` and ``outer_phi`` are the only definition of each built-in
phi: the kernel, its twin and the model objects all evaluate through them.

  inner kind ``ik``:  0 linear  phi = v1 . I
                      1 exponential  phi = -expm1(-(v1 . I))
                      2 split  phi = sum_j v1[j] * -expm1(-v2[j] * I[j])
  outer kind ``ok``:  0 none
                      1 explicit contact counts, probabilities op[0..K]
                      2 Poisson contacts, mean op[0]

The explicit-contact sum 1 - sum_i p_i (1-Pi)^i is evaluated through the
recurrence t_{i+1} = Pi + (1-Pi) t_i (t_i = 1-(1-Pi)^i), which keeps full
relative precision for tiny Pi; the direct form cancels catastrophically.
"""

from __future__ import annotations

import math
import os

CONVERGED = 1
FULL = 0
INVALID = 2


def inner_phi(I, ik, v1, v2):
    """The inner incidence of kind ``ik`` at stage vector ``I``."""
    acc = 0.0
    if ik == 2:
        for j in range(len(I)):
            acc += v1[j] * -math.expm1(-v2[j] * I[j])
        return acc
    for j in range(len(I)):
        acc += v1[j] * I[j]
    return acc if ik == 0 else -math.expm1(-acc)


def outer_phi(pi, ok, op):
    """The contact law of kind ``ok`` (1 or 2) applied to inner incidence ``pi``."""
    if ok == 2:
        return -math.expm1(-op[0] * pi)
    q = 1.0 - pi
    t = 0.0
    phi = 0.0
    for i in range(1, len(op)):
        t = pi + q * t
        phi += op[i] * t
    return phi


def _run_chunk_impl(S, I, R, phi_entry, gamma,
                    ik, v1, v2, ok, op,
                    eps_z, eps_s,
                    S_out, I_out, R_out, phi_out, Z_out, phi_fn=None):
    """Advance the staged-progression map, recording one row per state.

    Row ``k`` holds S, R, phi and the prevalence ||I||_1 (summed in the
    stop rule's order) at ``S_out[k]`` etc., and stage j at
    ``I_out[k * n + j]`` of the flat stage buffer.

    phi_entry < 0: the entry state is unrecorded; record it first.
    phi_entry >= 0: the entry state is already recorded with that incidence
    value; advance once before recording.

    phi is phi_fn(I) when phi_fn is given, else the encoding's value.  I is
    updated in place.  Returns (rows_written, status, S, R, phi_last) with
    status CONVERGED (||I|| < eps_z and the susceptible decrement fell below
    eps_s), INVALID (the last row's phi lies outside [0, 1)) or FULL (buffer
    exhausted, call again to continue).
    """
    n = len(I)
    cap = len(S_out)
    row = 0
    conv = False
    phi = phi_entry
    advance = phi_entry >= 0.0
    keep = [1.0 - gamma[j] for j in range(n)]
    z = 0.0
    for j in range(n):  # the entry state's prevalence
        z += I[j]

    while True:
        if advance:
            # the current state is recorded with incidence phi: step past it
            inc = phi * S
            S_new = S - inc
            # one ascending pass: ``flow`` carries gamma[j-1] * (old I[j-1])
            # into stage j, and out of the last stage into R
            flow = inc
            z = 0.0
            for j in range(n):
                old = I[j]
                new = keep[j] * old + flow
                I[j] = new
                z += new
                flow = gamma[j] * old
            R = R + flow
            conv = (z < eps_z) and ((S - S_new) < eps_s)
            S = S_new

        # incidence of the current (still unrecorded) state
        if phi_fn is None:
            phi = inner_phi(I, ik, v1, v2)
            if ok != 0:
                phi = outer_phi(phi, ok, op)
        else:
            phi = phi_fn(I)

        S_out[row] = S
        I_out[row * n:row * n + n] = I
        R_out[row] = R
        phi_out[row] = phi
        Z_out[row] = z
        row += 1
        if not (phi >= 0.0 and phi < 1.0):  # NaN too
            return row, INVALID, S, R, phi
        if conv:
            return row, CONVERGED, S, R, phi
        if row == cap:
            return row, FULL, S, R, phi
        advance = True


BLOCK_ROWS = 1024


def run_chunk_py(S, I, R, phi_entry, gamma,
                 ik, v1, v2, ok, op,
                 eps_z, eps_s,
                 S_out, I_out, R_out, phi_out, Z_out, phi_fn=None):
    """``_run_chunk_impl`` on Python lists, with the same arguments and result.

    The numpy buffers are filled in blocks of at most ``BLOCK_ROWS`` rows;
    each block after the first resumes on the state the previous one
    recorded last.  ``I_out`` may be flat or (rows, n).
    """
    n = len(I)
    cap = len(S_out)
    I_cur = I.tolist()
    gamma, v1, v2, op = gamma.tolist(), v1.tolist(), v2.tolist(), op.tolist()
    I_flat = I_out.reshape(-1)
    bufs = None
    done = 0
    status = FULL
    phi = phi_entry
    while status == FULL and done < cap:
        rows_max = min(BLOCK_ROWS, cap - done)
        if bufs is None or len(bufs[0]) != rows_max:
            bufs = ([0.0] * rows_max, [0.0] * (rows_max * n), [0.0] * rows_max,
                    [0.0] * rows_max, [0.0] * rows_max)
        S_b, I_b, R_b, phi_b, Z_b = bufs
        rows, status, S, R, phi = _run_chunk_impl(
            S, I_cur, R, phi, gamma, ik, v1, v2, ok, op, eps_z, eps_s,
            S_b, I_b, R_b, phi_b, Z_b, phi_fn,
        )
        end = done + rows
        S_out[done:end] = S_b[:rows]
        I_flat[done * n:end * n] = I_b[:rows * n]
        R_out[done:end] = R_b[:rows]
        phi_out[done:end] = phi_b[:rows]
        Z_out[done:end] = Z_b[:rows]
        done = end
    I[:] = I_cur
    return done, status, S, R, phi


try:  # pragma: no cover - exercised indirectly
    import numba
    from numba.extending import register_jitable

    # the kernel calls both helpers, so numba must know them before it compiles
    register_jitable(inner_phi)
    register_jitable(outer_phi)
    run_chunk_jit = numba.njit(cache=True)(_run_chunk_impl)
    _numba_available = True
except ImportError:  # pragma: no cover
    run_chunk_jit = None
    _numba_available = False

using_numba = _numba_available and os.environ.get(
    "SPEPI_DISABLE_NUMBA", ""
).strip().lower() not in ("1", "true", "yes")

run_chunk = run_chunk_jit if using_numba else run_chunk_py
