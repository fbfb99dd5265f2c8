"""AC power-flow quantities of the series-only line model.

Charging susceptance is ignored everywhere, so the directed line-flow
expression below and the Y-bus injection stay mutually consistent. The
formulation takes power balance, its Jacobian and its Hessian from the
directed line flows and their derivatives; no solve, report or CLI path
builds a Y-bus. The tests build one line by line, as the reference they
hold the flow sums to. Dense arrays are used; target systems have at most
a few dozen buses.

The per-line flow primitives and their derivatives take scalars or arrays
that broadcast against each other, so the formulation evaluates all lines
in one call. They read a line's state as (vi, vj, cos(ti - tj),
sin(ti - tj)), formed by ``flow_state``, so that the value, gradient and
Hessian at one point share one cos and one sin. There is one kernel per
derivative order, for the active sending flow: the reactive sending flow
is the active one with the series admittance rotated by 90 degrees,
q(g, b) = p(-b, g), bit for bit.
The Hessian kernel returns its 9 distinct entries, not the 4x4 matrix;
``HESS_ENTRIES`` places them.
"""

from __future__ import annotations

import numpy as np

from .casemodel import CaseData


def bus_injections(g, b, v, theta) -> tuple[np.ndarray, np.ndarray]:
    """Active/reactive power injected into the network at each bus (p.u.)
    by the Y-bus g + jb. v and theta have the buses on their last axis;
    leading axes broadcast. Nothing in the package calls it: the tests hold
    the flow sums to it, and it stays as a site that the benchmark's
    per-layer tracer patches."""
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dth = theta[..., :, None] - theta[..., None, :]
    ct, st = np.cos(dth), np.sin(dth)
    vv = v[..., :, None] * v[..., None, :]
    p = np.sum(vv * (g * ct + b * st), axis=-1)
    q = np.sum(vv * (g * st - b * ct), axis=-1)
    return p, q


# ---------------------------------------------------------------------------
# per-line flow primitives (p.u.) with analytic derivatives
#
# Directed active sending p = vi^2 g - vi vj (g cos + b sin) with respect to
# the local state (vi, vj, ti, tj). The reactive sending
# q = -vi^2 b - vi vj (g sin - b cos) = p(-b, g), so each kernel serves both,
# given a (2, ...) admittance of (g, b) and (-b, g). The formulation passes
# each line state once per admittance row, shaped like the admittance: on
# small cases a broadcast operand costs more than the second cos and sin.


def flow_state(vi, vj, ti, tj):
    """(vi, vj, cos(ti - tj), sin(ti - tj)): the line state that the flow
    kernels read."""
    dth = ti - tj
    return vi, vj, np.cos(dth), np.sin(dth)


def flow_p(vi, vj, ct, st, g, b):
    return vi * vi * g - vi * vj * (g * ct + b * st)


def flow_p_grad(vi, vj, ct, st, g, b):
    """Gradient of flow_p w.r.t. (vi, vj, ti, tj) on the first axis."""
    a = g * ct + b * st
    d = -g * st + b * ct  # da/dti
    # -(vi vj d) is (-vi) vj d bit for bit: negation is exact and IEEE
    # rounding is symmetric in the sign
    vvd = vi * vj * d
    return np.array([2 * vi * g - vj * a, -vi * a, -vvd, vvd])


# HESS_ENTRIES[r, c] is the index, on the first axis of flow_p_hess, of the
# Hessian entry in row r and column c of (vi, vj, ti, tj)
HESS_ENTRIES = np.array([[0, 1, 2, 3],
                         [1, 8, 4, 5],
                         [2, 4, 6, 7],
                         [3, 5, 7, 6]])


def flow_p_hess(vi, vj, ct, st, g, b):
    """The 9 distinct entries of the Hessian of flow_p w.r.t. (vi, vj, ti,
    tj) on the first axis: 2g, -a, -vj d, vj d, -vi d, vi d, vi vj a,
    -vi vj a and 0, for a = g cos + b sin and d = da/dti. ``HESS_ENTRIES``
    places them in the symmetric 4x4 matrix."""
    a = g * ct + b * st
    d = -g * st + b * ct  # da/dti
    vjd, vid, vva = vj * d, vi * d, vi * vj * a
    # 2g is written in the shape of the other entries, which a state of
    # more dimensions than the admittance gives them
    two_g = np.multiply(2, g, out=np.empty_like(vva))
    return np.array([two_g, -a, -vjd, vjd, -vid, vid, vva, -vva, np.zeros_like(vva)])


def flow_q_hess(vi, vj, ct, st, g, b):
    """Hessian entries of the reactive sending q. Nothing in the package
    calls it; it stays as a site that the benchmark's per-layer tracer
    patches."""
    return flow_p_hess(vi, vj, ct, st, -b, g)


# ---------------------------------------------------------------------------
# case-level flow queries (MW)


def line_arrays(case: CaseData) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(from bus index, to bus index, g, b) of every line, in line order,
    from ``case.positions`` and the series admittance g + jb = 1/(r + jx) of
    the ``case.view`` columns; r = x = 0 raises naming the first such line."""
    at, r, x = case.positions, case.view.lines.r, case.view.lines.x
    d = r * r + x * x
    if not d.all():
        line = case.lines[np.flatnonzero(d == 0)[0]]
        raise ValueError(f"line {line.from_bus}-{line.to_bus} has r = x = 0")
    return at.line_from, at.line_to, r / d, -x / d


def line_flows(case: CaseData, v, theta) -> tuple[np.ndarray, np.ndarray]:
    """Directed sendings (from->to, to->from) of all lines, in MW."""
    i, j, g, b = line_arrays(case)
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p_ft = flow_p(*flow_state(v[i], v[j], theta[i], theta[j]), g, b)
    p_tf = flow_p(*flow_state(v[j], v[i], theta[j], theta[i]), g, b)
    return p_ft * case.s_base, p_tf * case.s_base


def network_losses(case: CaseData, v, theta) -> float:
    """Total resistive loss in MW, summed over lines."""
    p_ft, p_tf = line_flows(case, v, theta)
    return float(np.sum(p_ft + p_tf))
