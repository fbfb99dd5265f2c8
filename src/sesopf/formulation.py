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
the flat positions those columns take in the two Jacobians and in the
Lagrangian Hessian's v/theta block, where the per-line gradients and 4x4
blocks are scattered (MATPOWER Tech. Note 2, Zimmerman 2010, in real
coordinates). The Hessian is returned as that block and its diagonal, the
two blocks that can be nonzero; no n x n Hessian is formed. The valid
entries of those gradients and blocks are gathered by integer ``take``
indices built once too, not by boolean masks, and the objective's
coefficients (``welfare.WelfareCoefficients``, with which the objective and
its gradient call the welfare module's U, C, U' and C') and the constant
Hessian diagonal are computed once per problem, not on every call. The 4x4
blocks are never formed: ``acnetwork.flow_p_hess`` returns the 9 distinct
entries of each, and ``_hess_take`` gathers every valid block entry from them.

Each evaluator reads its point through a ``PointState``: the directed rows'
(vi, vj, cos(ti - tj), sin(ti - tj)), which every flow kernel reads, and the
demand split (P_a s_b, P_a s_b < gamma/mu, P_g s_b), which every objective
evaluator reads. Given x alone, an evaluator forms the part it reads; given
the state too, it forms nothing. The solver forms one state per point, at
the line-search trial, and takes the Jacobians, the objective gradient and
the Lagrangian Hessian at the accepted iterate from that trial's state, so
each point's gather, cos, sin and demand split are done once.

Power balance takes the network injection at each bus as the sum of the
directed flows leaving it over its lines, and its Jacobian and Hessian as
the sums of those flows' derivatives, so all three come from one form, the
package's one network model. Under the series-only line model the sum
equals the Y-bus injection; the tests hold it to a Y-bus that they build
line by line. Each directed row carries a P flow and a Q
flow from one (2, rows) admittance of (g, b) and the rotated (-b, g), so
each evaluator makes one ``acnetwork`` kernel call. The line-limit rows
are the P half of those flows, so ``_network_rows`` and ``jacobians``
return both kinds of row from that one call. ``constraints`` puts the
network rows and the adequacy rows of ``_adequacy_rows`` together; the
three are the one implementation of the constraint rows. The solver and
``kkt_check`` read ``constraints``, and the derivative audit differences its
two blocks apart.

The value evaluators (``objective`` and ``constraints``) take one point of
shape (n,) or a stack of points of shape (k, n) and return one value or row
per point. They use only elementwise operations and reductions over the
last axis, never a matrix product, so each row of a stacked call equals the
single-point call on that row bit for bit; the derivative audit relies on
this when it evaluates all its perturbed points at once.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import acnetwork
from .casemodel import CaseData, scale_ses, validate_case
from .welfare import (
    WelfareCoefficients, gen_cost, marginal_cost, marginal_satisfaction, satisfaction,
    welfare_coefficients)
# Imported for the per-layer tracer in bench/layertrace.py, which patches
# this name on this module; nothing here calls it.
from .welfare import social_objective  # noqa: F401


class VariableLayout(NamedTuple):
    n_gen: int
    n_agg: int
    n_bus: int
    slack: int  # bus index whose angle is fixed
    n_var: int
    pg: slice
    qg: slice
    pa: slice
    qa: slice
    v: slice
    th: slice

    @classmethod
    def of(cls, n_gen: int, n_agg: int, n_bus: int, slack: int) -> VariableLayout:
        """The layout's blocks as slices between the cumulative block sizes."""
        ends = np.cumsum((0, n_gen, n_gen, n_agg, n_agg, n_bus, n_bus - 1)).tolist()
        return cls(n_gen, n_agg, n_bus, slack, ends[-1], *map(slice, ends, ends[1:]))


class PointState(NamedTuple):
    """The kernel state of a point that the evaluators read, formed once
    per point by ``Problem.point_state``."""
    line: tuple  # every directed row's (vi, vj, cos(ti - tj), sin(ti - tj))
    demand: tuple  # (P_a s_b, P_a s_b < gamma/mu, P_g s_b)


@dataclass
class Problem:
    """The NLP of one case, built from the case's arrays alone (``case.view``
    and ``case.positions``): ``__post_init__`` derives the variable layout,
    the bounds ``lb`` and ``ub``, and the index arrays that every evaluator
    uses, so each evaluation is a fixed sequence of array operations.

    Directed line rows come from->to for every line, then to->from.
    ``_state_cols`` holds the variable columns of their local state, one
    row each for vi, vj, ti and tj; a slack angle is -1, which gathers the
    zero appended to x by ``_extended`` and is dropped when derivatives are
    scattered. Each row carries a P flow and a Q flow, from the (2, rows)
    admittance ``_gb`` of (g, b) and the rotated (-b, g); ``_state_take``
    repeats each state column for both, so that no kernel operand is
    broadcast. The balance Jacobian, the inequality Jacobian and the
    Lagrangian Hessian's v/theta block are each one scatter of these rows'
    derivatives, gathered by the flat ``take`` indices ``_grad_take`` and
    ``_hess_take``; the block's positions are ``_block_flat``. ``welfare``
    holds the case's ``WelfareCoefficients``; a sweep builds one Problem per
    case and takes each point's SES scores σ through ``scaled``."""

    case: CaseData

    def __post_init__(self):
        case, sb = self.case, self.case.s_base
        gens, aggs, buses = case.view.generators, case.view.aggregators, case.view.buses
        slack = int(np.flatnonzero(buses.is_slack)[0])
        self.layout = lay = VariableLayout.of(len(gens.a), len(aggs.sigma), len(buses.id), slack)
        n, nb, ng, na = lay.n_var, lay.n_bus, lay.n_gen, lay.n_agg

        # the bounds in layout order: P_g, Q_g, P_a, Q_a, v, then the free angles
        self.lb = np.concatenate([gens.p_min / sb, gens.q_min / sb, aggs.p_c / sb,
                                  aggs.q_c / sb, buses.v_min, [-np.inf] * (nb - 1)])
        self.ub = np.concatenate([gens.p_max / sb, gens.q_max / sb, aggs.p_n / sb,
                                  aggs.q_n / sb, buses.v_max, [np.inf] * (nb - 1)])

        self._pa, self._pg = lay.pa, lay.pg
        # the objective's per-problem constants: the welfare coefficients
        # with their derived constants, the demand curvature below the
        # saturation point (both in ``_score``) and the constant Hessian diagonal
        self._score(welfare_coefficients(case))
        self._diag_base = np.zeros(n)
        self._diag_base[lay.pg] = -self.welfare.two_a * sb * sb

        # power balance: each generator and aggregator enters one P and one
        # Q row with a fixed sign; these are also the constant entries of
        # the equality Jacobian
        gen_bus, agg_bus = case.positions.generators, case.positions.aggregators
        self._inj_row = np.concatenate([gen_bus, agg_bus, nb + gen_bus, nb + agg_bus])
        self._inj_col = np.concatenate([np.arange(sl.start, sl.stop)
                                        for sl in (lay.pg, lay.pa, lay.qg, lay.qa)])
        self._inj_sign = np.repeat([1.0, -1.0, 1.0, -1.0], [ng, na, ng, na])

        self._theta_col = np.full(nb, -1)
        self._theta_col[np.arange(nb) != lay.slack] = np.arange(lay.th.start, lay.th.stop)

        line_from, line_to, line_g, line_b = acnetwork.line_arrays(case)
        fr = np.concatenate([line_from, line_to])
        to = np.concatenate([line_to, line_from])
        # power balance: the signed injections above, then the P and Q
        # flow of every directed row, leaving its sending bus
        self._flow_row = np.array([fr, nb + fr])
        self._balance_row = np.concatenate([self._inj_row, self._flow_row.ravel()])
        self._balance_sign = np.concatenate([self._inj_sign, np.full(2 * len(fr), -1.0)])
        self._state_cols = np.array([lay.v.start + fr, lay.v.start + to,
                                     self._theta_col[fr], self._theta_col[to]])
        self._state_take = np.repeat(self._state_cols[:, None, :], 2, axis=1)
        self._line_angles = self._state_cols[2:, :len(line_from)]  # each line's ti, tj
        self._stack_bins = {}  # the stacked balance bins by stack size
        cols = self._state_cols.T
        # each directed row's P flow at (g, b), its Q flow at (-b, g)
        g, b = np.concatenate([line_g, line_g]), np.concatenate([line_b, line_b])
        self._gb = np.array([[g, -b], [b, g]])
        self._smax2 = np.concatenate([case.view.lines.s_max / sb] * 2)

        valid = cols >= 0
        rows_v, cols_v = np.nonzero(valid)
        self._jh_flat = rows_v * n + cols[rows_v, cols_v]
        # the flat positions, in the (4, 2, rows) flow-gradient array, of the
        # P entries of every valid (row, column) pair and then of their Q
        # entries; the first half is the P gradient that J_h holds
        n_rows = len(fr)
        self._grad_take = (cols_v * 2 * n_rows + np.arange(2)[:, None] * n_rows + rows_v).ravel()
        # the injection entries, then each directed row's valid columns in
        # the P row and in the Q row of its sending bus
        self._je_flat = np.concatenate([
            self._inj_row * n + self._inj_col,
            (self._flow_row[:, :, None] * n + cols)[:, valid].ravel()])
        hess_valid = valid[:, :, None] & valid[:, None, :]
        # the position, in the (9, rows) distinct Hessian entries of the
        # directed rows, of every valid (row, column, column) entry
        hess_r, hess_a, hess_b = np.nonzero(hess_valid)
        self._hess_take = acnetwork.HESS_ENTRIES[hess_a, hess_b] * n_rows + hess_r
        # the flat position of each of those entries in the v/theta block
        local, n_net = cols - lay.v.start, n - lay.v.start
        self._block_flat = (local[:, :, None] * n_net + local[:, None, :])[hess_valid]
        # adequacy rows: sum(P_a) - sum(P_g) and sum(Q_a) - sum(Q_g)
        self._adequacy = np.zeros((2, n))
        self._adequacy[0, lay.pa], self._adequacy[0, lay.pg] = 1.0, -1.0
        self._adequacy[1, lay.qa], self._adequacy[1, lay.qg] = 1.0, -1.0
        # J_h outside the line-limit entries: zeros, then the adequacy rows
        self._jh_base = np.zeros((self.n_ineq, n))
        self._jh_base[-2:] = self._adequacy

    def _score(self, welfare: WelfareCoefficients) -> None:
        """Set the members that read the SES scores σ."""
        self.welfare, sb = welfare, self.case.s_base
        self._pa_curv = -welfare.sigma * welfare.mu * sb * sb

    def scaled(self, factor: float) -> Problem:
        """This problem with the case ``scale_ses(self.case, factor)``: a shallow
        copy sharing every array; an overflowing score raises as in ``build_problem``."""
        case = scale_ses(self.case, factor)
        sigma = case.view.aggregators.sigma  # scale_ses's products, which metrics read too
        if not np.isfinite(sigma).all():
            return build_problem(case)  # raises: sigma must be finite
        problem = copy.copy(self)
        problem.case = case
        problem._score(self.welfare._replace(sigma=sigma))
        return problem

    @functools.cached_property
    def constraint_read_sets(self) -> np.ndarray:
        """(n_eq + n_ineq, n) bool: entry (i, j) is set where row i of
        ``constraints`` (balance rows, then inequality rows) reads variable j.

        It comes from the index arrays that ``constraints`` reads: the
        injection columns of each balance row, the valid state columns of
        every directed row in its two balance rows and its limit row, and
        the nonzero adequacy coefficients. Only the derivative audit needs
        it, so it is built on first use, not by ``__post_init__``."""
        n_eq = self.n_eq
        reads = np.zeros((n_eq + self.n_ineq, self.n_var), dtype=bool)
        reads[self._inj_row, self._inj_col] = True
        # the P and Q balance rows of each directed row's sending bus, and
        # its limit row, against the columns of its local state
        owner = np.vstack([self._flow_row, n_eq + np.arange(self._flow_row.shape[1])])
        rows, cols = np.broadcast_arrays(owner[:, None, :], self._state_cols)
        valid = cols >= 0
        reads[rows[valid], cols[valid]] = True
        reads[-2:] = self._adequacy != 0
        return reads

    @functools.cached_property
    def objective_read_set(self) -> np.ndarray:
        """(n,) bool: set on the columns that ``objective`` reads, the
        aggregator and generator P columns of ``_demand_and_generation``.
        Built on first use, like ``constraint_read_sets``."""
        reads = np.zeros(self.n_var, dtype=bool)
        reads[self.layout.pa] = reads[self.layout.pg] = True
        return reads

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

    # -- kernel state (see the module docstring) -----------------------------

    def point_state(self, x: np.ndarray) -> PointState:
        """The PointState of x, one point of shape (n,) or a stack (k, n)."""
        return PointState(self._line_state(x), self._demand_and_generation(x))

    def _line_state(self, x: np.ndarray) -> tuple:
        """(vi, vj, cos(ti - tj), sin(ti - tj)) of every directed row, each (2, rows)
        for x (n,) or (k, 2, rows) for (k, n): one copy per row of the admittance
        ``_gb``. A point, the solver's, gathers them; a stack, the audit's, takes
        one cos and sin per line and 0.0 - sin as the reverse sin (+0.0 at ti == tj,
        as sin(+0.0) is): that form at single points slowed solves by 1-2 %."""
        ext = self._extended(x)
        if x.ndim == 1:
            return acnetwork.flow_state(*ext.take(self._state_take, axis=-1))
        ends = ext.take(self._line_angles, axis=-1)
        dth = ends[..., 0, :] - ends[..., 1, :]
        cos, sin, rows = np.cos(dth), np.sin(dth), x.shape[:-1] + (2, -1)
        return (*(ext.take(cols, axis=-1) for cols in self._state_take[:2]),
                np.concatenate([cos] * 4, axis=-1).reshape(rows),
                np.concatenate([sin, 0.0 - sin] * 2, axis=-1).reshape(rows))

    def _demand_and_generation(self, x):
        """(P_a s_b, P_a s_b < gamma/mu, P_g s_b): the demands, which of them
        are below the satisfaction kink, and the generation, in MW."""
        sb = self.case.s_base
        pa = x[..., self._pa] * sb
        return pa, pa < self.welfare.kink, x[..., self._pg] * sb

    def _line(self, x, state):
        return self._line_state(x) if state is None else state.line

    def _demand(self, x, state):
        return self._demand_and_generation(x) if state is None else state.demand

    # -- objective ----------------------------------------------------------
    # The welfare terms of the welfare module at the point's demands and
    # outputs in MW, with the demand split of its state.

    def objective(self, x: np.ndarray, state: PointState | None = None):
        """A float for one point, an array of k values for (k, n) points:
        sum(sigma * U) - sum(C), summed as ``welfare.social_objective``
        sums it."""
        coef = self.welfare
        pa, unsaturated, pg = self._demand(x, state)
        value = ((coef.sigma * satisfaction(coef, pa, unsaturated)).sum(axis=-1)
                 - gen_cost(coef, pg).sum(axis=-1))
        return value if value.ndim else float(value)

    def objective_gradient(self, x: np.ndarray, state: PointState | None = None) -> np.ndarray:
        sb, coef = self.case.s_base, self.welfare
        pa, unsaturated, pg = self._demand(x, state)
        grad = np.zeros(self.n_var)
        grad[self._pa] = coef.sigma * marginal_satisfaction(coef, pa, unsaturated) * sb
        grad[self._pg] = -marginal_cost(coef, pg) * sb
        return grad

    def objective_hessian_diag(self, x: np.ndarray,
                               state: PointState | None = None) -> np.ndarray:
        diag = self._diag_base.copy()
        diag[self._pa] = np.where(self._demand(x, state)[1], self._pa_curv, 0.0)
        return diag

    # -- constraints (balance p.u., then inequalities <= 0) ------------------

    def _network_rows(self, x: np.ndarray,
                      state: PointState | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(power balance, line limits) from one flow kernel call.

        Power balance, p.u., is generation minus demand minus the P and Q
        flows leaving each bus: P rows, then Q rows. The line limits are
        the directed P flows less their limits."""
        lead = x.shape[:-1]
        pq = acnetwork.flow_p(*self._line(x, state), *self._gb)
        terms = self._balance_sign * np.concatenate(
            [x.take(self._inj_col, axis=-1), pq.reshape(lead + (-1,))], axis=-1)
        # one bincount for all points, the bins of a stack's point k offset by
        # k * n_eq (built once per stack size), so every bus adds its terms in
        # the same order for any stack
        k = math.prod(lead)
        if (bins := self._stack_bins.get(k) if lead else self._balance_row) is None:
            bins = (self._balance_row + self.n_eq * np.arange(k)[:, None]).ravel()
            self._stack_bins[k] = bins
        balance = np.bincount(bins, weights=terms.ravel(), minlength=k * self.n_eq)
        return balance.reshape(lead + (self.n_eq,)), pq[..., 0, :] - self._smax2

    def _adequacy_rows(self, x: np.ndarray) -> np.ndarray:
        """The two adequacy rows, sum(P_a) - sum(P_g) and sum(Q_a) - sum(Q_g),
        as the product with the dense (2, n) coefficients, zeros included: a
        sum over the read columns only would be cheaper in the audit, but it
        rounds differently and moves the solver's five_bus and rts24 iterates."""
        return (self._adequacy * x[..., None, :]).sum(axis=-1)

    def constraints(self, x: np.ndarray,
                    state: PointState | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(power balance, inequalities): the rows of ``_network_rows``,
        then those of ``_adequacy_rows`` after the line limits, each
        inequality <= 0 when satisfied. The derivative audit differences
        the two blocks apart, each under the column groups of its own rows
        of ``constraint_read_sets``."""
        balance, limits = self._network_rows(x, state)
        return balance, np.concatenate([limits, self._adequacy_rows(x)], axis=-1)

    def jacobians(self, x: np.ndarray,
                  state: PointState | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(equality Jacobian, inequality Jacobian) at one point from one
        flow-gradient kernel call.

        The equality Jacobian holds the constant injection entries, then
        minus the P and Q flow gradients of every directed row in the rows
        of its sending bus. Parallel lines and all lines leaving a bus share
        cells, so the entries are summed, not assigned."""
        grad = acnetwork.flow_p_grad(*self._line(x, state), *self._gb)
        n = self.n_var
        pq = grad.take(self._grad_take)
        je = np.bincount(self._je_flat, weights=np.concatenate([self._inj_sign, -pq]),
                         minlength=self.n_eq * n).reshape(self.n_eq, n)
        jh = self._jh_base.copy()
        jh.flat[self._jh_flat] = pq[:len(self._jh_flat)]
        return je, jh

    # The four one-block forms below: nothing in the package calls them; they
    # stay as sites that the benchmark's per-layer tracer patches.

    def equalities(self, x: np.ndarray) -> np.ndarray:
        return self.constraints(x)[0]

    def inequalities(self, x: np.ndarray) -> np.ndarray:
        return self.constraints(x)[1]

    def equality_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.jacobians(x)[0]

    def inequality_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.jacobians(x)[1]

    # -- Lagrangian Hessian --------------------------------------------------

    def lagrangian_hessian(self, x, lam_eq, lam_ineq,
                           state: PointState | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Hessian of f_min + lam_eq . c_E + lam_ineq . h, f_min = -objective
        (minimization sense), as (diag, block), its two blocks that can be
        nonzero: diag(diag) plus ``block`` on the v and theta columns, of
        shapes (n,) and (n_net, n_net), n_net = n - layout.v.start. An
        injection column meets nothing but its own diagonal entry.

        A directed row's P and Q flows enter the balance residuals of its
        sending bus with weight -1, and its P flow its own limit row with
        weight +1. Each weighted distinct entry of the flow Hessians is the
        product a weighted 4x4 block would hold; the P and Q halves are
        summed, the valid entries of every block gathered by ``_hess_take``
        and summed into ``block`` by one bincount over ``_block_flat``."""
        n_net = self.n_var - self.layout.v.start
        weight = -lam_eq[self._flow_row]
        weight[0] += lam_ineq[:weight.shape[1]]
        entries = weight * acnetwork.flow_p_hess(*self._line(x, state), *self._gb)
        block = np.bincount(self._block_flat,
                            weights=(entries[:, 0] + entries[:, 1]).take(self._hess_take),
                            minlength=n_net * n_net).reshape(n_net, n_net)
        # bincount of no entries (a case without lines) is an integer array
        return -self.objective_hessian_diag(x, state), block.astype(float, copy=False)


def build_problem(case: CaseData) -> Problem:
    report = validate_case(case)
    if report:
        raise ValueError("invalid case: " + "; ".join(report))
    return Problem(case)
