"""Hot stepping kernels: numba-compiled with a plain-Python twin.

The same source is used for both paths; ``SPEPI_DISABLE_NUMBA=1`` (or a
failed numba import) selects the uncompiled twin.  The ``deep-trajectory``
workload of ``perfbench/`` times the two against each other.

Incidence encoding shared with :meth:`IncidenceModel.kernel_spec`:

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


def _run_chunk_impl(S, I, R, phi_entry, gamma,
                    ik, v1, v2, ok, op,
                    eps_z, eps_s,
                    S_out, I_out, R_out, phi_out):
    """Advance the staged-progression map, recording one row per state.

    phi_entry < 0: the entry state is unrecorded; record it first.
    phi_entry >= 0: the entry state is already recorded with that incidence
    value; advance once before recording.

    I is updated in place.  Returns (rows_written, status, S, R, phi_last)
    with status CONVERGED (||I|| < eps_z and the susceptible decrement fell
    below eps_s) or FULL (buffer exhausted, call again to continue).
    """
    n = I.shape[0]
    cap = S_out.shape[0]
    row = 0
    conv = False
    phi = phi_entry
    advance = phi_entry >= 0.0

    while True:
        if advance:
            # the current state is recorded with incidence phi: step past it
            inc = phi * S
            S_new = S - inc
            R = R + gamma[n - 1] * I[n - 1]
            for j in range(n - 1, 0, -1):
                I[j] = (1.0 - gamma[j]) * I[j] + gamma[j - 1] * I[j - 1]
            I[0] = (1.0 - gamma[0]) * I[0] + inc
            z = 0.0
            for j in range(n):
                z += I[j]
            conv = (z < eps_z) and ((S - S_new) < eps_s)
            S = S_new

        # incidence of the current (still unrecorded) state
        if ik == 0:
            pi = 0.0
            for j in range(n):
                pi += v1[j] * I[j]
        elif ik == 1:
            x = 0.0
            for j in range(n):
                x += v1[j] * I[j]
            pi = -math.expm1(-x)
        else:
            pi = 0.0
            for j in range(n):
                pi += v1[j] * -math.expm1(-v2[j] * I[j])
        if ok == 0:
            phi = pi
        elif ok == 2:
            phi = -math.expm1(-op[0] * pi)
        else:
            q = 1.0 - pi
            t = 0.0
            phi = 0.0
            for i in range(1, op.shape[0]):
                t = pi + q * t
                phi += op[i] * t

        S_out[row] = S
        for j in range(n):
            I_out[row, j] = I[j]
        R_out[row] = R
        phi_out[row] = phi
        row += 1
        if conv:
            return row, CONVERGED, S, R, phi
        if row == cap:
            return row, FULL, S, R, phi
        advance = True


run_chunk_py = _run_chunk_impl

try:  # pragma: no cover - exercised indirectly
    import numba

    run_chunk_jit = numba.njit(cache=True)(_run_chunk_impl)
    _numba_available = True
except ImportError:  # pragma: no cover
    run_chunk_jit = None
    _numba_available = False

using_numba = _numba_available and os.environ.get(
    "SPEPI_DISABLE_NUMBA", ""
).strip().lower() not in ("1", "true", "yes")

run_chunk = run_chunk_jit if using_numba else run_chunk_py
