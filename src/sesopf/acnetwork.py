"""Bus admittance construction and AC power-flow quantities.

Series-only line model: charging susceptance is ignored everywhere so that
the Y-bus, the injection equations, and the directed line-flow expression
stay mutually consistent. Dense matrices are used; target systems have at
most a few dozen buses.

The per-line flow primitives and their derivatives take scalars or equal-
length arrays of lines, so the formulation evaluates all lines in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .casemodel import CaseData, Line


@dataclass(frozen=True)
class Admittance:
    g: np.ndarray  # conductance matrix, p.u.
    b: np.ndarray  # susceptance matrix, p.u.


def series_admittance(line: Line) -> tuple[float, float]:
    """Series conductance and susceptance g + jb = 1/(r + jx)."""
    d = line.r * line.r + line.x * line.x
    if d == 0:
        raise ValueError(f"line {line.from_bus}-{line.to_bus} has r = x = 0")
    return line.r / d, -line.x / d


def build_admittance(case: CaseData) -> Admittance:
    n = len(case.buses)
    g = np.zeros((n, n))
    b = np.zeros((n, n))
    for line in case.lines:
        i = case.bus_index(line.from_bus)
        j = case.bus_index(line.to_bus)
        gs, bs = series_admittance(line)
        g[i, i] += gs
        g[j, j] += gs
        g[i, j] -= gs
        g[j, i] -= gs
        b[i, i] += bs
        b[j, j] += bs
        b[i, j] -= bs
        b[j, i] -= bs
    return Admittance(g, b)


def bus_injections(adm: Admittance, v, theta) -> tuple[np.ndarray, np.ndarray]:
    """Active/reactive power injected into the network at each bus (p.u.)."""
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dth = theta[:, None] - theta[None, :]
    ct, st = np.cos(dth), np.sin(dth)
    vv = v[:, None] * v[None, :]
    p = np.sum(vv * (adm.g * ct + adm.b * st), axis=1)
    q = np.sum(vv * (adm.g * st - adm.b * ct), axis=1)
    return p, q


def injection_residuals(adm: Admittance, v, theta, p_net, q_net):
    """Power-balance residuals: net injection minus network injection.

    Zero residual at a bus means the balance equation holds there.
    """
    p_net = np.asarray(p_net, dtype=float)
    q_net = np.asarray(q_net, dtype=float)
    n = adm.g.shape[0]
    for arr in (np.asarray(v), np.asarray(theta), p_net, q_net):
        if arr.shape != (n,):
            raise ValueError("state/injection vectors must have one entry per bus")
    p, q = bus_injections(adm, v, theta)
    return p_net - p, q_net - q


# ---------------------------------------------------------------------------
# per-line flow primitives (p.u.) with analytic derivatives
#
# Directed active sending p = vi^2 g - vi vj (g cos + b sin) and the reactive
# counterpart q = -vi^2 b - vi vj (g sin - b cos), both with respect to the
# local state (vi, vj, ti, tj).


def flow_p(vi, vj, ti, tj, g, b):
    dth = ti - tj
    return vi * vi * g - vi * vj * (g * np.cos(dth) + b * np.sin(dth))


def flow_q(vi, vj, ti, tj, g, b):
    dth = ti - tj
    return -vi * vi * b - vi * vj * (g * np.sin(dth) - b * np.cos(dth))


def flow_p_grad(vi, vj, ti, tj, g, b):
    """Gradient of flow_p w.r.t. (vi, vj, ti, tj)."""
    dth = ti - tj
    ct, st = np.cos(dth), np.sin(dth)
    a = g * ct + b * st
    d = -g * st + b * ct  # da/dti
    return np.array([2 * vi * g - vj * a, -vi * a, -vi * vj * d, vi * vj * d])


def flow_q_grad(vi, vj, ti, tj, g, b):
    dth = ti - tj
    ct, st = np.cos(dth), np.sin(dth)
    a = g * st - b * ct
    d = g * ct + b * st  # da/dti
    return np.array([-2 * vi * b - vj * a, -vi * a, -vi * vj * d, vi * vj * d])


def flow_p_hess(vi, vj, ti, tj, g, b):
    """Hessian of flow_p w.r.t. (vi, vj, ti, tj): shape (4, 4) for scalar
    arguments, (nl, 4, 4) for arrays of nl lines."""
    dth = ti - tj
    ct, st = np.cos(dth), np.sin(dth)
    return _flow_hess(vi, vj, 2 * g, g * ct + b * st, -g * st + b * ct)


def flow_q_hess(vi, vj, ti, tj, g, b):
    """Hessian of flow_q, shaped as flow_p_hess."""
    dth = ti - tj
    ct, st = np.cos(dth), np.sin(dth)
    return _flow_hess(vi, vj, -2 * b, g * st - b * ct, g * ct + b * st)


def _flow_hess(vi, vj, h00, a, d):
    """Second derivatives shared by both flows, given d2/dvi2 = h00, the
    angle term a and its derivative d = da/dti."""
    h = np.zeros(np.broadcast(vi, vj, a).shape + (4, 4))
    h[..., 0, 0] = h00
    h[..., 0, 1] = h[..., 1, 0] = -a
    h[..., 0, 2] = h[..., 2, 0] = -vj * d
    h[..., 0, 3] = h[..., 3, 0] = vj * d
    h[..., 1, 2] = h[..., 2, 1] = -vi * d
    h[..., 1, 3] = h[..., 3, 1] = vi * d
    h[..., 2, 2] = h[..., 3, 3] = vi * vj * a
    h[..., 2, 3] = h[..., 3, 2] = -vi * vj * a
    return h


# ---------------------------------------------------------------------------
# case-level flow queries (MW)


def line_flow(case: CaseData, v, theta, line_index: int) -> tuple[float, float]:
    """Directed sendings (from->to, to->from) of one line, in MW."""
    if not 0 <= line_index < len(case.lines):
        raise KeyError(f"unknown line index {line_index}")
    line = case.lines[line_index]
    g, b = series_admittance(line)
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    i = case.bus_index(line.from_bus)
    j = case.bus_index(line.to_bus)
    p_ft = flow_p(v[i], v[j], theta[i], theta[j], g, b)
    p_tf = flow_p(v[j], v[i], theta[j], theta[i], g, b)
    return float(p_ft * case.s_base), float(p_tf * case.s_base)


def line_arrays(case: CaseData) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(from bus index, to bus index, g, b) of every line, in line order,
    with each bus id resolved once."""
    index = {bus.id: k for k, bus in enumerate(case.buses)}
    i = np.array([index[ln.from_bus] for ln in case.lines], dtype=int)
    j = np.array([index[ln.to_bus] for ln in case.lines], dtype=int)
    series = [series_admittance(ln) for ln in case.lines]
    g = np.array([gb[0] for gb in series], dtype=float)
    b = np.array([gb[1] for gb in series], dtype=float)
    return i, j, g, b


def line_flows(case: CaseData, v, theta) -> tuple[np.ndarray, np.ndarray]:
    """Directed sendings (from->to, to->from) of all lines, in MW; entry k
    equals ``line_flow(case, v, theta, k)``."""
    i, j, g, b = line_arrays(case)
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p_ft = flow_p(v[i], v[j], theta[i], theta[j], g, b)
    p_tf = flow_p(v[j], v[i], theta[j], theta[i], g, b)
    return p_ft * case.s_base, p_tf * case.s_base


def network_losses(case: CaseData, v, theta) -> float:
    """Total resistive loss in MW, summed over lines."""
    p_ft, p_tf = line_flows(case, v, theta)
    return float(np.sum(p_ft + p_tf))
