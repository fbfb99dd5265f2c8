"""Assembly of the welfare-maximizing AC-OPF as an equality/inequality
constrained NLP with analytic first and second derivatives.

Variable layout (all per-unit): generator P, generator Q, aggregator P,
aggregator Q, bus voltage magnitudes, then non-slack bus angles. The slack
angle is fixed to zero and is not a variable. Power balance is enforced at
every bus (the slack generator output remains free within its limits), line
limits are applied to both directed flows, and the adequacy constraints are
kept even though active-power adequacy is implied by balance plus
nonnegative losses.

Inequality convention: value <= 0 means satisfied. The objective evaluators
work in the maximization sense (SES-weighted satisfaction minus cost, $/h);
the solver negates internally.

Every evaluator is a fixed sequence of array operations over incidence
arrays that each Problem builds once: the bus of every generator and
aggregator, the variable columns of every directed line's local state, and
the flat positions those columns take in the two Jacobians and the
Lagrangian Hessian, where the per-line gradients and 4x4 blocks are
scattered (MATPOWER Tech. Note 2, Zimmerman 2010, in real coordinates).

Power balance takes the network injection at each bus as the sum of the
directed flows leaving it over its lines, and its Jacobian and Hessian as
the sums of those flows' derivatives, so all three come from one form.
Under the series-only line model the sum equals the Y-bus injection of
``acnetwork.bus_injections``. Each directed row carries a P flow and a Q
flow from one (2, rows) admittance of (g, b) and the rotated (-b, g), so
each balance evaluator makes one ``acnetwork`` kernel call.

The value evaluators (``objective``, ``equalities``, ``inequalities``) take
one point of shape (n,) or a stack of points of shape (k, n) and return one
value or row per point. They use only elementwise operations and reductions
over the last axis, never a matrix product, so each row of a stacked call
equals the single-point call on that row bit for bit; the derivative audit
relies on this when it evaluates all its perturbed points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import acnetwork
from .casemodel import CaseData, validate_case
# Imported for the per-layer tracer in bench/layertrace.py, which patches
# these names on this module; the evaluators below use array forms of them.
from .welfare import marginal_cost, marginal_satisfaction, social_objective  # noqa: F401


@dataclass(frozen=True)
class VariableLayout:
    n_gen: int
    n_agg: int
    n_bus: int
    slack: int  # bus index whose angle is fixed

    @property
    def n_var(self) -> int:
        return 2 * self.n_gen + 2 * self.n_agg + 2 * self.n_bus - 1

    @property
    def pg(self) -> slice:
        return slice(0, self.n_gen)

    @property
    def qg(self) -> slice:
        return slice(self.n_gen, 2 * self.n_gen)

    @property
    def pa(self) -> slice:
        return slice(2 * self.n_gen, 2 * self.n_gen + self.n_agg)

    @property
    def qa(self) -> slice:
        return slice(2 * self.n_gen + self.n_agg, 2 * self.n_gen + 2 * self.n_agg)

    @property
    def v(self) -> slice:
        k = 2 * self.n_gen + 2 * self.n_agg
        return slice(k, k + self.n_bus)

    @property
    def th(self) -> slice:
        k = 2 * self.n_gen + 2 * self.n_agg + self.n_bus
        return slice(k, k + self.n_bus - 1)

    def theta_index(self, bus: int) -> int:
        """Global variable index of a non-slack bus angle."""
        if bus == self.slack:
            raise ValueError("slack angle is not a variable")
        off = bus if bus < self.slack else bus - 1
        return self.th.start + off


@dataclass
class Problem:
    """The NLP of one case. The fields are what ``build_problem`` computes;
    ``__post_init__`` derives the index arrays that every evaluator uses,
    so each evaluation is a fixed sequence of array operations.

    Directed line rows come from->to for every line, then to->from.
    ``_state_cols`` holds the variable columns of their local state, one
    row each for vi, vj, ti and tj; a slack angle is -1, which gathers the
    zero appended to x by ``_extended`` and is dropped when derivatives are
    scattered. Each row carries a P flow and a Q flow, from the (2, rows)
    admittance ``_gb`` of (g, b) and the rotated (-b, g). The balance
    Jacobian, the inequality Jacobian and the Lagrangian Hessian are each
    one scatter of these rows' derivatives."""

    case: CaseData
    layout: VariableLayout
    lb: np.ndarray
    ub: np.ndarray
    adm: acnetwork.Admittance
    # line incidence (bus indices) and series admittances, precomputed
    line_from: np.ndarray
    line_to: np.ndarray
    line_g: np.ndarray
    line_b: np.ndarray

    def __post_init__(self):
        case, lay = self.case, self.layout
        n, nb, ng, na = lay.n_var, lay.n_bus, lay.n_gen, lay.n_agg
        aggs, gens = case.aggregators, case.generators

        self._sigma = np.array([a.sigma for a in aggs], dtype=float)
        self._gamma = np.array([a.gamma for a in aggs], dtype=float)
        self._mu = np.array([a.mu for a in aggs], dtype=float)
        self._cost = np.array([(g.a, g.b, g.c) for g in gens], dtype=float).reshape(ng, 3).T

        # power balance: each generator and aggregator enters one P and one
        # Q row with a fixed sign; these are also the constant entries of
        # the equality Jacobian
        position = {bus.id: k for k, bus in enumerate(case.buses)}
        gen_bus = np.array([position[g.bus] for g in gens], dtype=int)
        agg_bus = np.array([position[a.bus] for a in aggs], dtype=int)
        self._inj_row = np.concatenate([gen_bus, agg_bus, nb + gen_bus, nb + agg_bus])
        self._inj_col = np.r_[lay.pg, lay.pa, lay.qg, lay.qa]
        self._inj_sign = np.repeat([1.0, -1.0, 1.0, -1.0], [ng, na, ng, na])

        self._theta_col = np.full(nb, -1)
        self._theta_col[np.arange(nb) != lay.slack] = np.arange(lay.th.start, lay.th.stop)

        fr = np.concatenate([self.line_from, self.line_to])
        to = np.concatenate([self.line_to, self.line_from])
        # power balance: the signed injections above, then the P and Q
        # flow of every directed row, leaving its sending bus
        self._flow_row = np.stack([fr, nb + fr])
        self._balance_row = np.concatenate([self._inj_row, self._flow_row.ravel()])
        self._balance_sign = np.concatenate([self._inj_sign, np.full(2 * len(fr), -1.0)])
        self._state_cols = np.stack([lay.v.start + fr, lay.v.start + to,
                                     self._theta_col[fr], self._theta_col[to]])
        cols = self._state_cols.T
        # each directed row's P flow at (g, b), its Q flow at (-b, g)
        g, b = np.tile(self.line_g, 2), np.tile(self.line_b, 2)
        self._gb = np.array([[g, -b], [b, g]])
        self._smax2 = np.tile([ln.s_max / case.s_base for ln in case.lines], 2)

        self._jh_valid = cols >= 0
        self._jh_flat = (np.arange(len(fr))[:, None] * n + cols)[self._jh_valid]
        # the injection entries, then each directed row's valid columns in
        # the P row and in the Q row of its sending bus
        self._je_flat = np.concatenate([
            self._inj_row * n + self._inj_col,
            (self._flow_row[:, :, None] * n + cols)[:, self._jh_valid].ravel()])
        self._hess_valid = self._jh_valid[:, :, None] & self._jh_valid[:, None, :]
        # the objective's diagonal, then every valid (row, column) pair of
        # each directed row's 4x4 block
        self._hess_flat = np.concatenate([
            np.arange(n) * (n + 1),
            (cols[:, :, None] * n + cols[:, None, :])[self._hess_valid]])
        # adequacy rows: sum(P_a) - sum(P_g) and sum(Q_a) - sum(Q_g)
        self._adequacy = np.zeros((2, n))
        self._adequacy[0, lay.pa], self._adequacy[0, lay.pg] = 1.0, -1.0
        self._adequacy[1, lay.qa], self._adequacy[1, lay.qg] = 1.0, -1.0

    @property
    def n_var(self) -> int:
        return self.layout.n_var

    @property
    def n_eq(self) -> int:
        return 2 * self.layout.n_bus

    @property
    def n_ineq(self) -> int:
        return 2 * len(self.case.lines) + 2

    # -- state helpers ------------------------------------------------------

    @staticmethod
    def _extended(x: np.ndarray) -> np.ndarray:
        """x with a trailing zero on its last axis, the fixed slack angle
        at column -1."""
        return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)

    def full_theta(self, x: np.ndarray) -> np.ndarray:
        return self._extended(x).take(self._theta_col, axis=-1)

    def unpack(self, x: np.ndarray) -> dict:
        """Decode a decision vector into named physical quantities (MW/MVAr)."""
        lay, sb = self.layout, self.case.s_base
        return {
            "p_gen": x[lay.pg] * sb,
            "q_gen": x[lay.qg] * sb,
            "p_agg": x[lay.pa] * sb,
            "q_agg": x[lay.qa] * sb,
            "v": x[lay.v].copy(),
            "theta": self.full_theta(x),
        }

    def initial_point(self) -> np.ndarray:
        """Flat voltage start, box-midpoint generation, critical demand."""
        lay = self.layout
        x = np.zeros(self.n_var)
        x[lay.pg] = 0.5 * (self.lb[lay.pg] + self.ub[lay.pg])
        x[lay.qg] = 0.5 * (self.lb[lay.qg] + self.ub[lay.qg])
        x[lay.pa] = self.lb[lay.pa]
        x[lay.qa] = self.lb[lay.qa]
        x[lay.v] = 1.0
        return x

    # -- objective ----------------------------------------------------------
    # The same quantities as welfare.social_objective, marginal_satisfaction
    # and marginal_cost, over all aggregators and generators at once.

    def _demand_and_generation(self, x):
        lay, sb = self.layout, self.case.s_base
        pa = x[..., lay.pa] * sb
        return pa, pa < self._gamma / self._mu, x[..., lay.pg] * sb

    def objective(self, x: np.ndarray):
        """A float for one point, an array of k values for (k, n) points."""
        pa, unsaturated, pg = self._demand_and_generation(x)
        gamma, mu = self._gamma, self._mu
        sat = np.where(unsaturated, gamma * pa - 0.5 * mu * pa * pa, 0.5 * gamma ** 2 / mu)
        a, b, c = self._cost
        value = (self._sigma * sat).sum(axis=-1) - (a * pg * pg + b * pg + c).sum(axis=-1)
        return value if value.ndim else float(value)

    def objective_gradient(self, x: np.ndarray) -> np.ndarray:
        lay, sb = self.layout, self.case.s_base
        pa, unsaturated, pg = self._demand_and_generation(x)
        a, b, _ = self._cost
        grad = np.zeros(self.n_var)
        grad[lay.pa] = self._sigma * np.where(unsaturated, self._gamma - self._mu * pa, 0.0) * sb
        grad[lay.pg] = -(2.0 * a * pg + b) * sb
        return grad

    def objective_hessian_diag(self, x: np.ndarray) -> np.ndarray:
        lay, sb = self.layout, self.case.s_base
        _, unsaturated, _ = self._demand_and_generation(x)
        diag = np.zeros(self.n_var)
        diag[lay.pa] = np.where(unsaturated, -self._sigma * self._mu * sb * sb, 0.0)
        diag[lay.pg] = -2.0 * self._cost[0] * sb * sb
        return diag

    # -- equality constraints (power balance, p.u.) -------------------------

    def equalities(self, x: np.ndarray) -> np.ndarray:
        """Generation minus demand minus the flows leaving each bus: P rows,
        then Q rows."""
        lead = x.shape[:-1]
        pq = acnetwork.flow_p(*self._line_state(x)[..., None, :], *self._gb)
        terms = self._balance_sign * np.concatenate(
            [x.take(self._inj_col, axis=-1), pq.reshape(lead + (-1,))], axis=-1)
        # one bincount for all points, the bins of point k offset by k * n_eq,
        # so every bus adds its terms in the same order for any stack
        k = math.prod(lead)
        bins = (self._balance_row + self.n_eq * np.arange(k)[:, None]).ravel()
        sums = np.bincount(bins, weights=terms.ravel(), minlength=k * self.n_eq)
        return sums.reshape(lead + (self.n_eq,))

    def equality_jacobian(self, x: np.ndarray) -> np.ndarray:
        """The constant injection entries, then minus the P and Q flow
        gradients of every directed row in the rows of its sending bus.
        Parallel lines and all lines leaving a bus share cells, so the
        entries are summed, not assigned."""
        grad = acnetwork.flow_p_grad(*self._line_state(x)[..., None, :], *self._gb)
        weights = np.concatenate([
            self._inj_sign, -grad.transpose(1, 2, 0)[:, self._jh_valid].ravel()])
        n = self.n_var
        return np.bincount(self._je_flat, weights=weights,
                           minlength=self.n_eq * n).reshape(self.n_eq, n)

    # -- inequality constraints (<= 0) --------------------------------------

    def _line_state(self, x: np.ndarray) -> np.ndarray:
        """(vi, vj, ti, tj) of every directed line row on the first axis,
        each of shape (rows,) for x of shape (n,), or (k, rows) for (k, n)."""
        return self._extended(x).take(self._state_cols, axis=-1).swapaxes(0, -2)

    def inequalities(self, x: np.ndarray) -> np.ndarray:
        p = acnetwork.flow_p(*self._line_state(x), *self._gb[:, 0])
        adequacy = (self._adequacy * x[..., None, :]).sum(axis=-1)
        return np.concatenate([p - self._smax2, adequacy], axis=-1)

    def inequality_jacobian(self, x: np.ndarray) -> np.ndarray:
        grad = acnetwork.flow_p_grad(*self._line_state(x), *self._gb[:, 0])
        jac = np.zeros((self.n_ineq, self.n_var))
        jac.flat[self._jh_flat] = grad.T[self._jh_valid]
        jac[-2:] = self._adequacy
        return jac

    # -- Lagrangian Hessian --------------------------------------------------

    def lagrangian_hessian(self, x, sigma_obj, lam_eq, lam_ineq) -> np.ndarray:
        """Hessian of sigma_obj * f_min + lam_eq . c_E + lam_ineq . h, where
        f_min = -objective (minimization sense).

        A directed row's P and Q flows enter the balance residuals of its
        sending bus with weight -1, and its P flow its own limit row with
        weight +1."""
        n = self.n_var
        weight = -lam_eq[self._flow_row]
        weight[0] += lam_ineq[:weight.shape[1]]
        local = weight[..., None, None] * acnetwork.flow_p_hess(
            *self._line_state(x)[..., None, :], *self._gb)
        local = local[0] + local[1]
        weights = np.concatenate([-sigma_obj * self.objective_hessian_diag(x),
                                  local[self._hess_valid]])
        return np.bincount(self._hess_flat, weights=weights, minlength=n * n).reshape(n, n)


def build_problem(case: CaseData) -> Problem:
    report = validate_case(case)
    if report:
        raise ValueError("invalid case: " + "; ".join(report))

    ng, na, nb = len(case.generators), len(case.aggregators), len(case.buses)
    layout = VariableLayout(ng, na, nb, case.slack_index())
    sb = case.s_base

    lb = np.empty(layout.n_var)
    ub = np.empty(layout.n_var)
    lb[layout.pg] = [g.p_min / sb for g in case.generators]
    ub[layout.pg] = [g.p_max / sb for g in case.generators]
    lb[layout.qg] = [g.q_min / sb for g in case.generators]
    ub[layout.qg] = [g.q_max / sb for g in case.generators]
    lb[layout.pa] = [a.p_c / sb for a in case.aggregators]
    ub[layout.pa] = [a.p_n / sb for a in case.aggregators]
    lb[layout.qa] = [a.q_c / sb for a in case.aggregators]
    ub[layout.qa] = [a.q_n / sb for a in case.aggregators]
    lb[layout.v] = [b.v_min for b in case.buses]
    ub[layout.v] = [b.v_max for b in case.buses]
    lb[layout.th] = -np.inf
    ub[layout.th] = np.inf

    adm = acnetwork.build_admittance(case)
    line_from, line_to, line_g, line_b = acnetwork.line_arrays(case)

    return Problem(case, layout, lb, ub, adm, line_from, line_to, line_g, line_b)


@dataclass(frozen=True)
class CurtailmentReport:
    per_aggregator: np.ndarray  # p_n - p, MW
    total: float                # sum(P_g) - sum(P_a), MW


def curtailment_report(case: CaseData, solution) -> CurtailmentReport:
    """Per-aggregator and total effective curtailment of a feasible solution."""
    if getattr(solution, "max_violation", 0.0) > 1e-5:
        raise ValueError("solution is not feasible enough for curtailment reporting")
    p_agg = np.asarray(solution.p_agg, dtype=float)
    p_gen = np.asarray(solution.p_gen, dtype=float)
    p_n = np.array([a.p_n for a in case.aggregators])
    return CurtailmentReport(p_n - p_agg, float(np.sum(p_gen) - np.sum(p_agg)))
