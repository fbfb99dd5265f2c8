"""Embedded primal-dual interior-point solver with KKT verification,
a copper-plate analytic oracle, and a finite-difference derivative audit.

The solver minimizes the negated welfare objective subject to the power
balance equalities and all inequality rows (line limits, adequacy, box
bounds). Inequalities get positive slacks with a logarithmic barrier. The
barrier parameter starts in proportion to the objective's gradient at the
start point, MU0 * max(1, ||grad f(x0)||_inf / 100), so that the barrier
is not negligible next to the objective; whenever the barrier problem is
solved to within 10 mu it falls superlinearly, to
max(tol/100, min(MU_REDUCTION * mu, mu^1.5)) (IPOPT's rule, Waechter &
Biegler 2006, Math. Prog. 106:25-57, section 2.1); and a solve converges
only once the scaled residuals, mu itself and ``kkt_check``'s four residuals
are at most tol. The last are taken from the iterate's own dual residual,
values and duals, not from a new evaluation; mu follows the scaled ones.

Each step solves the KKT system, regularized on its Hessian diagonal by
delta_w = 0, 1e-4, 1e-3, ... until its inertia, read from the block diagonal
factor D of LAPACK's Bunch-Kaufman ``dsytrf``, is right, and solved after
symmetric equilibration; steps are safeguarded by the fraction-to-boundary
rule and a merit-function backtracking line search. Everything is
deterministic. A solve picks one of two forms of the system from its size
n + m_E, once:

- below ``_REDUCE_FROM``, ``_CondensedKKT``: every inequality row condensed
  into the Hessian, an (n + m_E) matrix of inertia (n, m_E, 0), whose
  inertia is read from a ``dsytrf`` of the raw matrix and whose step is one
  ``scipy.linalg.solve`` of an equilibrated copy;
- from ``_REDUCE_FROM`` on, ``_ReducedKKT``: the two adequacy rows kept as
  rows, only the line-limit and bound rows condensed, and every injection
  column that is not fixed and passes the Bunch-Kaufman 1x1 pivot test
  eliminated, its step back-substituted elementwise. By Haynsworth's
  additivity the reduced matrix, the kept columns and the m_E + 2 rows, has
  inertia (kept columns, m_E + 2, 0) exactly when the condensed one has
  (n, m_E, 0), and both give the same step. Each trial equilibrates the
  reduced matrix and factors it once, in place (Waechter & Biegler 2006,
  section 3.1): the inertia is read from that factor and the step is one
  ``dsytrs`` with it, the factorization and the arithmetic of
  ``scipy.linalg.solve`` on the same matrix.

Each iterate is evaluated once: its objective and constraint values come
from the accepted line-search trial, and so does its ``PointState`` (the
directed rows' line state with its cos and sin, and the demand split),
from which its gradient, Jacobians and Lagrangian Hessian are computed,
once each, and shared by the convergence test, the KKT system and the
merit function. Each of those takes one flow-kernel call per derivative
order (``Problem.constraints`` at every trial, ``Problem.jacobians`` and
``Problem.lagrangian_hessian`` at every iterate), and the scaled residuals
are computed once per iteration. Bound rows, one +-1 entry each, are
applied by index instead of as Jacobian rows.

Cost model: the work is laid out by how often it runs (the measured costs
per case are in CHANGES.md):

- once per process and matrix size: the ``dsytrf`` workspace query;
- once per case (``Problem.__post_init__``, shared by ``Problem.scaled``):
  every constant the evaluators read, the objective's coefficients and its
  constant Hessian diagonal included, and the integer gather and scatter
  indices of the Jacobians and the Lagrangian Hessian; none is rebuilt per call;
- once per solve: the bound index arrays, the KKT buffers (the condensed
  matrix, a strided view of its Hessian diagonal and an equilibrated copy;
  or the reduced path's borders J_E and J_a and constraint diagonal, and
  the kept columns of each set of eliminated ones, found at its first
  trial) and the warnings filter around the iteration loop;
- once per iterate: ``jacobians``, the objective gradient, one residual
  pass and, if it takes a step, the Lagrangian Hessian as its two blocks
  (the injection diagonal and the v/theta block; no n x n Hessian), its
  condensed rows (on the reduced path the line-limit rows' product over the
  v and theta columns only) and the two fraction-to-boundary limits; the
  derivatives read the accepted trial's state and form no gather, cos, sin
  or demand split of their own;
- once per delta_w trial: on the condensed path the diagonal refill and
  one ``_inertia`` (one ``dsytrf``), and, when the inertia is right, the
  equilibration and one ``scipy.linalg.solve`` (a second factorization);
  on the reduced path the 1x1 pivot test, a new kept matrix of zeros (the
  kept diagonal, the v/theta block, the borders, the constraint block less
  one ``bincount`` of the eliminated columns' Schur complement terms) and
  one ``_equilibrated_ldl`` (the equilibration and one ``dsytrf``, in
  place), and, when the inertia is right, one ``dsytrs`` and the
  elementwise back-substitution;
- once per line-search trial: ``values``, which forms the point's
  ``PointState`` (one gather of the directed rows' line state, one cos and
  one sin per angle difference, one demand split), and the merit terms
  (the constraint violation and the sum of log s); the accepted trial's
  state and terms are the current point's in the next iteration, whose
  merit only weighs the terms with its mu and rho. The terms are taken
  afresh only after a step that no trial reached: a fallback, or a step
  along a direction with dphi >= 0; such a step's ``values`` call forms
  the new iterate's state, so no point has its state formed twice.

A fixed variable's row is appended to c_E; its +1 in J_E is written into
the KKT buffers once per solve and enters J_E' lam by index.

``kkt_check`` and the derivative audit pass below the fixed CHECK_TOL = 1e-6;
the audit holds the same ``Problem.jacobians`` to central differences of the
two row blocks that make up the ``Problem.constraints`` the solver runs. The
copper-plate oracle's dispatch is exact: it interpolates between the two
bracketing prices; its objective is ``welfare.social_objective``.

The audit is one list of (function, step, plan, rows) blocks: the
objective, the network rows (balance and line limits) of
``Problem._network_rows`` and the two adequacy rows of
``Problem._adequacy_rows``. One routine, ``_central_diff``, differences each
block in one call by the column groups of its own rows of
``Problem.objective_read_set`` or ``Problem.constraint_read_sets`` (Curtis,
Powell & Reid 1974; Coleman & More 1983): the columns of a group share no
row, so they move together, and each row's difference belongs to the one
column of the group that it reads: bit for bit the difference of one column
at a time. Each adequacy row reads every P or every Q column, so no grouping
of all the rows has fewer groups than there are generators and aggregators;
the network rows alone need far fewer. A point where a row of a block
changes under a group none of whose columns it reads has that block
differenced again under the dense plan, every column a group of its own, in
one more call of 2 n points. The columns that no row of a block reads share
a trailing group, so that a row that starts to read one of them sends the
block there too. A plan, built once per audit, carries its difference's flat
indices, and a stack's network rows take one cos and sin per line. Per point
the gradient, J_E and J_h fill one stack and the blocks' differences another
in the same row order, and one comparison over its nonzero entries names the
worst: the first maximum in row order, so a tie names the gradient first.
"""

from __future__ import annotations

import functools
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .casemodel import CaseData
from .formulation import Problem
from .welfare import social_objective, welfare_coefficients

_FIXED_TOL = 1e-9     # bound pairs tighter than this are treated as fixed
_SMAX = 100.0         # residual scaling cap (dual magnitudes)
# initial barrier for an objective whose gradient at the start point is at
# most 100 in max norm; a steeper objective starts at
# MU0 * ||grad f(x0)||_inf / 100
MU0 = 0.1
MU_REDUCTION = 0.2    # linear factor of the mu update
TAU = 0.995           # fraction-to-boundary
_DELTA_C = 1e-8       # dual regularization delta_c of the equality rows
# Bunch-Kaufman's 1x1 pivot test (Math. Comp. 31, 1977): a pivot is taken
# alone if it is at least this times its column's largest off-diagonal entry
_BK_ALPHA = (1.0 + np.sqrt(17.0)) / 8.0
# KKT size n + m_E from which a solve runs ``_ReducedKKT``; smaller systems
# run ``_CondensedKKT`` (the crossover measurements are in CHANGES.md).
# five_bus stays on the condensed path although the reduced one is faster
# there: the benchmark's own test counts one ``scipy.linalg.solve`` per step
# of a five_bus solve, and its sweep gate fails on rounding-level changes.
_REDUCE_FROM = 63


def _check_count(name: str, value, least: int) -> None:
    """Raise a ValueError naming ``value`` unless it is a non-bool integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "nonnegative" if least == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6          # on the scaled residuals and on the final mu
    max_iter: int = 200

    def __post_init__(self):
        if (isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real)
                or not 0 < self.tol < np.inf):
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        _check_count("max_iter", self.max_iter, 0)


@dataclass
class Solution:
    status: str  # converged | iteration_limit | infeasible_detected | numerical_failure
    x: np.ndarray
    lam_eq: np.ndarray      # power-balance duals
    nu_ineq: np.ndarray     # line-limit and adequacy duals
    z_lower: np.ndarray     # lower-bound duals
    z_upper: np.ndarray     # upper-bound duals
    iterations: int
    objective: float        # maximization value, $/h
    # one dict per iterate: iter, mu, the scaled residuals inf_pr, inf_du and
    # inf_comp, the minimized objective f, and the step that reached the
    # iterate: alpha_p, alpha_d, delta_w (Hessian regularization), backtracks
    # (line-search halvings) and fallback (whether the full boundary-limited
    # step was taken without sufficient decrease); the start point's row has
    # zero steps
    log: list = field(default_factory=list)
    max_violation: float = np.inf
    # unpacked physical quantities (MW/MVAr, p.u. voltages, rad angles)
    p_gen: np.ndarray = None
    q_gen: np.ndarray = None
    p_agg: np.ndarray = None
    q_agg: np.ndarray = None
    v: np.ndarray = None
    theta: np.ndarray = None
    reason: str | None = None  # why infeasibility was detected, if screened


class _InternalNLP:
    """Minimization form of a Problem with bounds expanded to inequality
    rows. Row order: problem inequalities, finite lower bounds, finite upper
    bounds; near-degenerate bound pairs become extra equality rows.

    A bound row has a single entry, -1 (lower) or +1 (upper), in the column
    ``bound_idx``, a fixed row +1 in ``fixed_idx``. The solver therefore keeps
    only the problem rows of both Jacobians; the other rows enter every
    product through ``bound_idx`` and ``bound_sign``, or ``fixed_idx``."""

    def __init__(self, problem: Problem):
        self.problem = problem
        lb, ub = problem.lb, problem.ub
        self.lower_idx = np.flatnonzero(np.isfinite(lb) & (ub - lb > _FIXED_TOL))
        self.upper_idx = np.flatnonzero(np.isfinite(ub) & (ub - lb > _FIXED_TOL))
        self.fixed_idx = np.flatnonzero(np.isfinite(lb) & (ub - lb <= _FIXED_TOL))
        self.n = problem.n_var
        self.m_eq = problem.n_eq + len(self.fixed_idx)
        self.bound_idx = np.concatenate([self.lower_idx, self.upper_idx])
        self.bound_sign = np.repeat([-1.0, 1.0], [len(self.lower_idx), len(self.upper_idx)])
        self.bound_val = np.concatenate([lb[self.lower_idx], ub[self.upper_idx]])
        # the v and theta columns, the last in the layout
        self.network = slice(problem.layout.v.start, self.n)

    def values(self, x):
        """(f, c_E, h) at x and the ``PointState`` of x, from which every
        derivative at x is taken."""
        p = self.problem
        state = p.point_state(x)
        ce, ineq = p.constraints(x, state)
        if len(self.fixed_idx):
            ce = np.concatenate([ce, x[self.fixed_idx] - p.lb[self.fixed_idx]])
        h = np.concatenate([ineq, self.bound_sign * (x[self.bound_idx] - self.bound_val)])
        return -p.objective(x, state), ce, h, state

    def je_t(self, je, lam):
        """Full J_E' lam: the problem rows' product, plus each fixed row's lam at its column."""
        out = je.T @ lam[:len(je)]
        if self.fixed_idx.size:  # most problems fix no variable; skip the empty add
            out[self.fixed_idx] += lam[len(je):]
        return out

    def jh_t(self, jh, y):
        """Transpose of the full inequality Jacobian times y."""
        mi = len(jh)
        return jh.T @ y[:mi] + np.bincount(self.bound_idx, weights=self.bound_sign * y[mi:],
                                           minlength=self.n)

    def jh_dot(self, jh, dx):
        """Full inequality Jacobian times dx."""
        return np.concatenate([jh @ dx, self.bound_sign * dx[self.bound_idx]])

    def hessian_blocks(self, x, state, lam, nu, jh, d_sigma):
        """(diag, block, barrier): ``Problem.lagrangian_hessian``'s two blocks
        and the bound rows' diagonal jh' diag(d_sigma) jh over those rows."""
        mi = len(jh)
        diag, block = self.problem.lagrangian_hessian(x, lam[:self.problem.n_eq], nu[:mi], state)
        return diag, block, np.bincount(self.bound_idx, weights=d_sigma[mi:], minlength=self.n)


@functools.cache
def _dsytrf_lwork(n: int) -> int:
    """dsytrf workspace for an n x n matrix, queried once per size: the
    size scipy.linalg.ldl queries, so LAPACK runs the same blocked
    factorization and D is the same bit for bit."""
    return int(scipy.linalg.lapack.dsytrf_lwork(n, lower=1)[0])


def _inertia(kkt: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix,
    read from the block diagonal D of its Bunch-Kaufman factorization
    P L D L' P' (Sylvester's law of inertia).

    Only the lower triangle is read; D's eigenvalues come from
    ``_pivot_eigenvalues``, and one counts as zero at or below 1e-12.
    Raises ValueError for a matrix with a non-finite entry, which LAPACK
    would factor without complaint (an infinite pivot reads as positive)."""
    if not np.isfinite(kkt).all():
        raise ValueError("KKT matrix has non-finite entries")
    n = len(kkt)
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(kkt, lower=1, lwork=_dsytrf_lwork(n))
    if info < 0:
        raise ValueError(f"dsytrf: illegal value in argument {-info}")
    ev = _pivot_eigenvalues(ldu, ipiv, -1)
    pos, neg = np.count_nonzero(ev > 1e-12), np.count_nonzero(ev < -1e-12)
    return pos, neg, n - pos - neg


def _pivot_eigenvalues(ldu, ipiv, off: int):
    """The eigenvalues of the block diagonal D of a ``dsytrf`` factor
    ``ldu``, whose 2x2 blocks keep their off-diagonal on ``ldu``'s diagonal
    ``off``: -1 for the lower triangle, 1 for the upper. A 2x2 block of D is
    marked by a negative pivot on both of its rows and a 1x1 block by a
    positive one, so the negative pivots pair up in order: a block starts at
    every even offset of each run of them. A block's eigenvalues are
    mean -/+ radius."""
    ev = ldu.diagonal()
    i = (ipiv < 0).nonzero()[0]
    if not i.size:
        return ev
    i = i[::2]
    ev = ev.copy()
    mean = 0.5 * (ev[i] + ev[i + 1])
    radius = np.hypot(0.5 * (ev[i] - ev[i + 1]), ldu.diagonal(off)[i])
    ev[i], ev[i + 1] = mean - radius, mean + radius
    return ev


def _upper_inertia(ldu, ipiv) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix
    from its ``dsytrf`` upper-triangle factor U D U' (Sylvester's law of
    inertia): a 2x2 block of D has its off-diagonal at ``ldu[i, i + 1]``,
    and an eigenvalue of D counts as zero at or below eps * max|eig(D)|, a
    test that scaling the whole matrix does not change."""
    ev = _pivot_eigenvalues(ldu, ipiv, 1)
    zero = np.finfo(float).eps * np.abs(ev).max(initial=0.0)
    pos, neg = np.count_nonzero(ev > zero), np.count_nonzero(ev < -zero)
    return pos, neg, len(ev) - pos - neg


def _equilibrated_ldl(kkt: np.ndarray):
    """Equilibrate the symmetric matrix kkt in place, scale * kkt * scale
    with scale = 1 / sqrt(max|row|), and factor it there with one
    ``dsytrf`` of the upper triangle of its column-major transpose, the
    factorization ``scipy.linalg.solve(..., assume_a="sym")`` runs:
    (inertia, ldu, ipiv, scale), the inertia read by ``_upper_inertia``,
    which the scaling keeps, and the rest what ``dsytrs`` and the unscaling
    of a step need. kkt is overwritten by the factor.

    Returns None, factoring nothing, if kkt has an all-zero row: such a
    row is a zero eigenvalue, so the inertia is wrong, and its scale would
    be 1/0. Raises ValueError for a matrix with a non-finite entry, which
    LAPACK would factor without complaint."""
    big = np.abs(kkt).max(axis=1)  # NaN in a row gives NaN here
    if not np.isfinite(big).all():
        raise ValueError("KKT matrix has non-finite entries")
    if not big.all():
        return None
    scale = 1.0 / np.sqrt(big)
    kkt *= scale[:, None]
    kkt *= scale
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(kkt.T, lower=0, lwork=_dsytrf_lwork(len(kkt)),
                                                 overwrite_a=True)
    if info < 0:
        raise ValueError(f"dsytrf: illegal value in argument {-info}")
    return _upper_inertia(ldu, ipiv), ldu, ipiv, scale


def _equilibrated_solve(kkt, scaled, rhs):
    """The solution of the symmetric system kkt z = rhs, solved after
    symmetric equilibration in the buffer ``scaled``: near convergence nu/s
    spans many orders of magnitude, and unscaled most KKT matrices have
    rcond < eps. scipy 1.17's solve then warns and keeps ~650 bytes per
    call, which grows without bound over a sweep."""
    scale = 1.0 / np.sqrt(np.abs(kkt, out=scaled).max(axis=1))
    np.multiply(kkt, scale[:, None], out=scaled)
    np.multiply(scaled, scale, out=scaled)
    # LAPACK reads one triangle of the column-major transpose and may
    # overwrite it, sparing a copy. No finiteness check: _inertia has
    # rejected a non-finite matrix, an accepted inertia leaves no all-zero
    # row, so scale is finite, and the solver retries a non-finite step.
    return scale * scipy.linalg.solve(scaled.T, scale * rhs, assume_a="sym",
                                      overwrite_a=True, check_finite=False)


class _CondensedKKT:
    """The condensed KKT system of every column,
    [[W + J_h' Sigma J_h + delta_w I, J_E'], [J_E, -delta_c I]] [dx; dlam],
    of size n + m_E, with Sigma = diag(nu/s) over all inequality rows.

    ``load`` takes one iteration's system, ``inertia_ok`` refills the
    Hessian block's diagonal for one delta_w trial and tests the inertia
    (n, m_E, 0), and ``solve`` returns the step (dx, dlam) at that trial."""

    def __init__(self, nlp: _InternalNLP):
        n, me = nlp.n, nlp.m_eq
        self.nlp = nlp
        self.target = (n, me, 0)
        self.kkt = np.zeros((n + me, n + me))
        self.kkt[n:, n:] = -_DELTA_C * np.eye(me)
        self.kkt[n + np.arange(nlp.problem.n_eq, me), nlp.fixed_idx] = 1.0  # J_E's fixed rows
        # strided view of the Hessian block's diagonal, where delta_w is added
        self.kkt_diag = self.kkt.reshape(-1)[:n * (n + me + 1):n + me + 1]
        self.scaled = np.empty_like(self.kkt)  # equilibrated copy, factored in place

    def load(self, x, state, lam, nu, jh, je, d_sigma, r_d, r_h, centring, ce):
        nlp, n, kkt = self.nlp, self.nlp.n, self.kkt
        diag, block, barrier = nlp.hessian_blocks(x, state, lam, nu, jh, d_sigma)
        self.rhs = np.concatenate([-(r_d + nlp.jh_t(jh, centring + d_sigma * r_h)), -ce])
        # every problem row's product, then the v/theta block, diagonal, barrier
        np.matmul(jh.T * d_sigma[:len(jh)], jh, out=kkt[:n, :n])
        kkt[nlp.network, nlp.network] += block
        self.kkt_diag += diag
        self.kkt_diag += barrier
        kkt[n:n + len(je), :n] = je
        kkt[:n, n:] = kkt[n:, :n].T
        self.m_diag = self.kkt_diag.copy()

    def inertia_ok(self, delta_w: float) -> bool:
        np.add(self.m_diag, delta_w, out=self.kkt_diag)
        return _inertia(self.kkt) == self.target

    def solve(self) -> np.ndarray:
        return _equilibrated_solve(self.kkt, self.scaled, self.rhs)


class _ReducedKKT:
    """The KKT system with the two adequacy rows kept as rows and the
    separable injection columns eliminated.

    With the adequacy rows' dual steps dnu_a kept as unknowns, the system
    in (dx, dlam, dnu_a) is
    [[H + delta_w I, J_E', J_a'], [J_E, -delta_c I, 0], [J_a, 0, -1/sigma_a]],
    where H condenses only the line-limit and bound rows and sigma_a is
    nu/s on the adequacy rows, with no delta_c. Condensing dnu_a gives back
    the condensed system, so both have the same step, and by Haynsworth's
    additivity the inertia (n, m_E + 2, 0) here is (n, m_E, 0) there.

    An injection column (generator or aggregator P or Q) meets only its own
    Hessian diagonal entry D_j (objective curvature plus bound barrier), one
    +-1 in the balance row of its bus and one +-1 in its adequacy row. Each
    one not fixed whose pivot passes the Bunch-Kaufman 1x1 test
    D_j + delta_w >= _BK_ALPHA is eliminated (block elimination, Nocedal &
    Wright, Numerical Optimization, 2nd ed., section 16.2): its
    -u u' / (D_j + delta_w) falls on the balance diagonal, the two adequacy
    borders and the adequacy diagonal, and its step is back-substituted
    elementwise. A linear-cost unit's pivot is only its barrier term, which
    vanishes near the optimum; the test keeps such a column. The reduced
    matrix holds the kept columns (v, theta, the fixed columns and the
    injections that fail the test) and the m_E + 2 rows, and its inertia
    target is (kept columns, m_E + 2, 0).

    The interface is ``_CondensedKKT``'s; ``assign`` takes a system given by
    its blocks. ``inertia_ok`` leaves the trial's ``_equilibrated_ldl``
    result in ``factor`` (None for a matrix with an all-zero row), whose
    inertia it tests and whose factor ``solve`` reuses."""

    def __init__(self, nlp: _InternalNLP):
        p = nlp.problem
        self.nlp = nlp
        self.n, self.me = n, me = nlp.n, nlp.m_eq
        self.m = m = me + 2
        fixed = np.zeros(n, dtype=bool)
        fixed[nlp.fixed_idx] = True
        free = ~fixed[p._inj_col]
        # each injection column that is not fixed and its incidence u, held
        # once: its balance row and sign, then its adequacy row (after the
        # m_E equality rows) and coefficient
        self.free = p._inj_col[free]
        adequacy_row = (p._adequacy[1, self.free] != 0).astype(int)
        self.u_rows = np.stack([p._inj_row[free], me + adequacy_row])
        self.u_coef = np.stack([p._inj_sign[free], p._adequacy[adequacy_row, self.free]])
        # an eliminated column's u u' in the (m, m) constraint block
        self.block_flat = (self.u_rows[:, None] * m + self.u_rows).ravel()
        self.block_coef = self.u_coef[:, None] * self.u_coef
        self.rows = np.vstack([np.zeros((me, n)), p._adequacy])  # borders J_E, J_a
        self.rows[np.arange(p.n_eq, me), nlp.fixed_idx] = 1.0  # J_E's fixed rows, written once
        self.corner = np.full(m, -_DELTA_C)  # -delta_c, then -1/sigma_a on the diagonal
        self.kept_by_eliminated = {}  # eliminated.tobytes() -> the kept columns, in order

    def load(self, x, state, lam, nu, jh, je, d_sigma, r_d, r_h, centring, ce):
        nlp = self.nlp
        mi = len(jh)
        adequacy = slice(mi - 2, mi)
        sigma_a = d_sigma[adequacy]
        # J_a dx - dnu_a / sigma_a = -(centring_a / sigma_a + r_h,a)
        rhs_a = -(centring[adequacy] / sigma_a + r_h[adequacy])
        terms = centring + d_sigma * r_h
        terms[adequacy] = 0.0
        diag, block, barrier = nlp.hessian_blocks(x, state, lam, nu, jh, d_sigma)
        # the line-limit rows, all but the adequacy rows, read only the v
        # and theta columns
        lines = jh[:mi - 2, nlp.network]
        block += (lines.T * d_sigma[:mi - 2]) @ lines
        diag += barrier
        self.assign(diag, block, je, sigma_a,
                    np.concatenate([-(r_d + nlp.jh_t(jh, terms)), -ce, rhs_a]))

    def assign(self, diag, block, je, sigma_a, rhs):
        """Take the system in (dx, dlam, dnu_a) of the class docstring from
        its blocks: H (without delta_w) in the two blocks of
        ``Problem.lagrangian_hessian``, the problem's J_E, the adequacy
        rows' nu/s and the right-hand side."""
        self.diag, self.block = diag, block
        self.pivots = diag[self.free]
        self.rows[:len(je)] = je
        self.corner[self.me:] = -1.0 / sigma_a
        self.rhs = rhs

    def inertia_ok(self, delta_w: float) -> bool:
        pivots = self.pivots + delta_w
        eliminated = pivots >= _BK_ALPHA
        key = eliminated.tobytes()
        kept = self.kept_by_eliminated.get(key)
        if kept is None:
            keep = np.ones(self.n, dtype=bool)
            keep[self.free[eliminated]] = False
            kept = self.kept_by_eliminated[key] = np.flatnonzero(keep)
        self.kept = kept
        self.inverse = np.divide(1.0, pivots, out=np.zeros_like(pivots), where=eliminated)
        k, m = len(kept), self.m
        matrix = np.zeros((k + m, k + m))
        diag = matrix.reshape(-1)[::k + m + 1]
        # H: the kept injection columns' diagonal, then the v/theta block
        matrix[k - len(self.block):k, k - len(self.block):k] = self.block
        diag[:k] += self.diag.take(kept)
        diag[:k] += delta_w
        border = self.rows.take(kept, axis=1)
        matrix[k:, :k] = border
        matrix[:k, k:] = border.T
        diag[k:] = self.corner
        schur = np.bincount(self.block_flat, weights=(self.block_coef * self.inverse).ravel(),
                            minlength=m * m)
        matrix[k:, k:] -= schur.reshape(m, m)
        self.factor = _equilibrated_ldl(matrix)
        return self.factor is not None and self.factor[0] == (k, m, 0)

    def solve(self) -> np.ndarray:
        kept, n, me = self.kept, self.n, self.me
        k = len(kept)
        scaled_rhs = self.inverse * self.rhs[self.free]  # D^-1 rhs on the free columns
        reduced = np.concatenate([
            self.rhs.take(kept),
            self.rhs[n:] - np.bincount(self.u_rows.ravel(),
                                       weights=(self.u_coef * scaled_rhs).ravel(),
                                       minlength=self.m)])
        _, ldu, ipiv, scale = self.factor
        z, _ = scipy.linalg.lapack.dsytrs(ldu, ipiv, scale * reduced, overwrite_b=True)
        z *= scale
        duals = z[k:]
        dx = np.empty(n)
        # u' duals as one addition per column: a sum over the two rows would
        # start from +0.0 and lose the sign of -0.0 + -0.0
        dx[self.free] = scaled_rhs - self.inverse * np.add(*(self.u_coef * duals[self.u_rows]))
        dx[kept] = z[:k]
        return np.concatenate([dx, duals[:me]])


def _scaled_residuals(r_d, r_e, r_h, s, lam, nu, mu):
    """(inf_pr, inf_du, inf_comp at mu = 0, inf_comp at mu)."""
    m = max(1, len(lam) + len(nu))
    nu_sum = np.abs(nu).sum()
    s_d = max(_SMAX, (np.abs(lam).sum() + nu_sum) / m) / _SMAX
    s_c = max(_SMAX, nu_sum / max(1, len(nu))) / _SMAX
    inf_pr = max(np.abs(r_e).max(initial=0.0), np.abs(r_h).max(initial=0.0))
    inf_du = np.abs(r_d).max() / s_d
    comp = s * nu
    inf_comp0 = np.abs(comp).max(initial=0.0) / s_c
    inf_comp_mu = np.abs(comp - mu).max(initial=0.0) / s_c
    return inf_pr, inf_du, inf_comp0, inf_comp_mu


def _screen_infeasible(problem: Problem) -> str | None:
    """Cheap separable screening of the adequacy-plus-box feasible set."""
    lay = problem.layout
    if np.sum(problem.ub[lay.pg]) < np.sum(problem.lb[lay.pa]) - 1e-12:
        return "total generation capacity below total critical active demand"
    if np.sum(problem.ub[lay.qg]) < np.sum(problem.lb[lay.qa]) - 1e-12:
        return "total reactive capability below total critical reactive demand"
    if np.any(problem.lb > problem.ub):
        return "empty variable box"
    return None


def solve(problem: Problem, opts: SolverOptions = SolverOptions()) -> Solution:
    """Solve ``problem`` by the interior-point method of the module docstring."""
    nlp = _InternalNLP(problem)
    n, me = nlp.n, nlp.m_eq
    x = problem.initial_point()
    f, ce, h, state = nlp.values(x)
    reason = _screen_infeasible(problem)
    if reason is not None:
        return _finish(nlp, x, f, ce, h, np.zeros(me), np.zeros(len(h)),
                       0, [], "infeasible_detected", reason)

    grad = -problem.objective_gradient(x, state)
    s = np.maximum(1e-2, -h)
    mu = MU0 * max(1.0, np.abs(grad).max() / 100.0)
    nu = np.maximum(mu / s, 1e-8)
    lam = np.zeros(me)
    rho = 10.0
    terms = None  # _merit_terms at (x, s), carried from the accepted trial
    log = []
    # how the current iterate was reached; the start point was not
    came_by = {"alpha_p": 0.0, "alpha_d": 0.0, "delta_w": 0.0, "backtracks": 0, "fallback": False}
    status = "iteration_limit"
    it = 0
    kkt = (_ReducedKKT if n + me >= _REDUCE_FROM else _CondensedKKT)(nlp)

    with warnings.catch_warnings():
        # near convergence the KKT system is legitimately stiff; accuracy is
        # guarded by the residual tests instead
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        for it in range(1, opts.max_iter + 1):
            je, jh = problem.jacobians(x, state)
            r_d = grad + nlp.je_t(je, lam) + nlp.jh_t(jh, nu)
            r_h = h + s
            inf_pr, inf_du, inf_comp0, inf_comp_mu = _scaled_residuals(
                r_d, ce, r_h, s, lam, nu, mu)
            log.append({"iter": it, "mu": mu, "inf_pr": inf_pr, "inf_du": inf_du,
                        "inf_comp": inf_comp0, "f": f, **came_by})
            if max(inf_pr, inf_du, inf_comp0, mu) <= opts.tol:
                # kkt_check's residuals, from the iterate's own r_d (its
                # stationarity vector up to rounding), values and duals
                done = _finish(nlp, x, f, ce, h, lam, nu, it, log, "converged")
                if _kkt_report(problem, done, r_d, ce[:problem.n_eq],
                               h[:problem.n_ineq]).largest <= opts.tol:
                    return done
            if max(inf_pr, inf_du, inf_comp_mu) <= 10.0 * mu:
                mu = max(opts.tol / 100.0, min(MU_REDUCTION * mu, mu ** 1.5))

            d_sigma = nu / s
            centring = mu / s - nu  # in the right-hand side and the dual step
            kkt.load(x, state, lam, nu, jh, je, d_sigma, r_d, r_h, centring, ce)

            # one inertia test per delta_w trial: 0, then 1e-4, 1e-3, ...
            delta_w = 0.0
            step = None
            while True:
                try:
                    if kkt.inertia_ok(delta_w):
                        step = kkt.solve()
                        if np.isfinite(step).all():
                            break
                        step = None
                except (np.linalg.LinAlgError, ValueError):
                    pass
                delta_w = 1e-4 if delta_w == 0.0 else delta_w * 10.0
                if delta_w > 1e20:
                    break
            if step is None:
                status = "numerical_failure"
                break

            dx, dlam = step[:n], step[n:]
            ds = -r_h - nlp.jh_dot(jh, dx)
            dnu = centring - d_sigma * ds

            # fraction-to-boundary step limits
            alpha_p = _max_step(s, ds)
            alpha_d = _max_step(nu, dnu)

            lam_t, nu_t = lam + alpha_d * dlam, nu + alpha_d * dnu
            rho = max(rho, 1.2 * (np.abs(lam_t).max(initial=0.0) + np.abs(nu_t).max(initial=0.0)))

            if terms is None:
                terms = _merit_terms(ce, h, s)
            phi0 = _merit(f, *terms, mu, rho)
            dphi = grad @ dx - mu * (ds / s).sum() - rho * terms[0]
            alpha = alpha_p
            backtracks, fallback = 0, False
            trial = None  # (f, c_E, h, state) at the accepted x_t
            if dphi < 0.0:
                for backtracks in range(30):
                    x_t, s_t = x + alpha * dx, s + alpha * ds
                    if (s_t > 0).all():
                        trial = nlp.values(x_t)
                        terms = _merit_terms(trial[1], trial[2], s_t)
                        phi_t = _merit(trial[0], *terms, mu, rho)
                        bound = phi0 + 1e-4 * alpha * dphi + 1e-10 * abs(phi0)
                        if np.isfinite(phi_t) and phi_t <= bound:
                            break
                    alpha *= 0.5
                else:
                    # no sufficient decrease found; fall back to the full
                    # boundary-limited step rather than stalling the iteration
                    alpha = alpha_p
                    trial = None
                    backtracks, fallback = 30, True
            if trial is None:
                # the merit terms are taken afresh at the next iterate
                x_t, s_t, terms = x + alpha * dx, s + alpha * ds, None
                trial = nlp.values(x_t)
            x, s, (f, ce, h, state) = x_t, s_t, trial
            grad = -problem.objective_gradient(x, state)
            lam = lam_t
            nu = np.maximum(nu_t, 1e-14)
            # keep inequality duals within a band of mu/s (degenerate or weakly
            # active rows otherwise distort the equality duals)
            kappa = 1e10
            # np.clip's values, without the overhead of its Python wrapper
            nu = np.minimum(np.maximum(nu, mu / (kappa * s)), kappa * mu / s)
            came_by = {"alpha_p": alpha, "alpha_d": alpha_d, "delta_w": delta_w,
                       "backtracks": backtracks, "fallback": fallback}

    return _finish(nlp, x, f, ce, h, lam, nu, it, log, status)


def _max_step(vals, deltas):
    """Largest step in (0, 1] that keeps vals + step * deltas at least
    (1 - TAU) * vals; NaN deltas are ignored."""
    neg = (deltas < 0).nonzero()[0]
    if not neg.size:
        return 1.0
    return float(min(1.0, (-TAU * vals.take(neg) / deltas.take(neg)).min()))


def _merit_terms(ce, h, s):
    """(constraint violation theta, sum of log s) at (x, s), from the
    values c_E and h at x: the terms of the merit that do not depend on
    mu or rho."""
    return np.abs(ce).sum() + np.abs(h + s).sum(), np.log(s).sum()


def _merit(f, theta, log_s, mu, rho):
    """Barrier merit value from the objective f at x and the merit terms
    of ``_merit_terms`` at (x, s)."""
    return f - mu * log_s + rho * theta


def _finish(nlp, x, f, ce, h, lam, nu, iterations, log, status, reason=None) -> Solution:
    """The Solution at x, from the values (f, c_E, h) of ``nlp.values(x)``."""
    problem = nlp.problem
    me_p, mi_p = problem.n_eq, problem.n_ineq
    z_l = np.zeros(problem.n_var)
    z_u = np.zeros(problem.n_var)
    z_l[nlp.lower_idx] = nu[mi_p:mi_p + len(nlp.lower_idx)]
    z_u[nlp.upper_idx] = nu[mi_p + len(nlp.lower_idx):]
    # duals of fixed-variable rows fold into the bound duals
    d = lam[me_p:]
    z_u[nlp.fixed_idx] = np.maximum(d, 0.0)
    z_l[nlp.fixed_idx] = np.maximum(-d, 0.0)

    return Solution(
        status=status, x=x, lam_eq=lam[:me_p], nu_ineq=nu[:mi_p],
        z_lower=z_l, z_upper=z_u, iterations=iterations,
        objective=-f, log=log,
        max_violation=_primal_violation(problem, x, ce[:me_p], h[:mi_p]),
        reason=reason, **problem.unpack(x),
    )


def _primal_violation(problem: Problem, x, eq, ineq) -> float:
    """Largest violation at x of a balance row, an inequality row or a
    finite bound, given the constraint values ``eq`` and ``ineq`` at x:
    ``Solution.max_violation`` and ``KKTReport.primal_feasibility``."""
    return float(max(np.abs(eq).max(), ineq.max(initial=0.0),
                     (problem.lb - x).max(initial=0.0), (x - problem.ub).max(initial=0.0)))


# ---------------------------------------------------------------------------
# KKT verification


# a KKT residual or an audit error below this passes
CHECK_TOL = 1e-6


@dataclass(frozen=True)
class KKTReport:
    stationarity: float
    primal_feasibility: float
    dual_feasibility: float
    complementarity: float

    @property
    def largest(self) -> float:
        return max(self.stationarity, self.primal_feasibility,
                   self.dual_feasibility, self.complementarity)

    @property
    def passed(self) -> bool:
        return self.largest < CHECK_TOL


def kkt_check(problem: Problem, solution: Solution) -> KKTReport:
    """Recompute the four KKT residual norms of a solution from scratch,
    with the constraint values and Jacobians from ``Problem.constraints``
    and ``Problem.jacobians``."""
    if solution.lam_eq is None or solution.nu_ineq is None:
        raise ValueError("solution carries no dual multipliers")
    x = solution.x
    grad = -problem.objective_gradient(x)  # minimization sense
    eq, ineq = problem.constraints(x)
    je, jh = problem.jacobians(x)

    stat = (grad + je.T @ solution.lam_eq + jh.T @ solution.nu_ineq
            - solution.z_lower + solution.z_upper)
    return _kkt_report(problem, solution, stat, eq, ineq)


def _kkt_report(problem: Problem, solution: Solution, stat, eq, ineq) -> KKTReport:
    """The KKTReport of a solution from its stationarity vector and its
    balance and inequality values."""
    x = solution.x
    duals = (solution.lam_eq, solution.nu_ineq, solution.z_lower, solution.z_upper)
    m = max(1, problem.n_eq + problem.n_ineq + 2 * problem.n_var)
    # the scale of the stationarity and complementarity residuals
    scale = max(_SMAX, sum(np.abs(v).sum() for v in duals) / m) / _SMAX

    # the sign-constrained duals and their slacks, zero at an infinite bound
    signed = duals[1:]
    slacks = (ineq, np.where(np.isfinite(problem.lb), x - problem.lb, 0.0),
              np.where(np.isfinite(problem.ub), problem.ub - x, 0.0))
    dual = max(0.0, *(-np.min(v, initial=0.0) for v in signed))
    comp = max(np.abs(v * gap).max(initial=0.0) for v, gap in zip(signed, slacks))

    return KKTReport(float(np.max(np.abs(stat)) / scale), _primal_violation(problem, x, eq, ineq),
                     float(dual), float(comp / scale))


# ---------------------------------------------------------------------------
# copper-plate oracle

_HALVINGS = 200  # of the shadow-price bracket; far past float resolution


def copper_plate_oracle(case: CaseData):
    """Network-free optimum of the weighted-welfare dispatch.

    Solves max sum(sigma*U(P_a)) - sum(C(P_g)) subject to the single balance
    sum(P_g) = sum(P_a) and box bounds. The shadow price is bisected a fixed
    number of times; the dispatch is the convex combination of the two
    bracketing dispatches that balances exactly, which also covers a
    linear-cost unit setting the price. Returns (p_agg MW, p_gen MW,
    weighted objective $/h).
    """
    coef, aggs, gens = welfare_coefficients(case), case.view.aggregators, case.view.generators
    sigma, gamma, mu, p_n, p_c = aggs.sigma, aggs.gamma, aggs.mu, aggs.p_n, aggs.p_c
    a, b, p_min, p_max = gens.a, gens.b, gens.p_min, gens.p_max
    # divisors with the zero-weight and linear-cost entries masked out
    weighted, quadratic = sigma > 0, a > 0
    sigma_w, a_q = np.where(weighted, sigma, 1.0), np.where(quadratic, a, 1.0)

    def dispatch(lam):
        """Price-taking demands and supplies at the shadow price lam, and
        their gap sum(P_g) - sum(P_a), which is nondecreasing in lam."""
        p_a = np.where(weighted, np.clip((gamma - lam / sigma_w) / mu, p_c, p_n),
                       np.where(lam > 0, p_c, p_n))
        p_g = np.where(quadratic, np.clip((lam - b) / (2.0 * a_q), p_min, p_max),
                       np.where(lam >= b, p_max, p_min))
        return p_a, p_g, float(np.sum(p_g) - np.sum(p_a))

    # bisect, keeping gap <= 0 at lo and gap >= 0 at hi
    lo = min(0.0, np.min(b, initial=0.0)) - 1.0
    hi = np.max(np.concatenate([sigma * gamma, 2.0 * a * p_max + b])) + 1.0
    at_lo, at_hi = dispatch(lo), dispatch(hi)
    if at_lo[2] > 0 or at_hi[2] < 0:
        raise ValueError("no shadow price balances supply and demand within bounds")
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        at_mid = dispatch(mid)
        if at_mid[2] < 0:
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid

    (a_lo, g_lo, gap_lo), (a_hi, g_hi, gap_hi) = at_lo, at_hi
    t = gap_lo / (gap_lo - gap_hi) if gap_lo < 0 else 0.0
    p_a, p_g = a_lo + t * (a_hi - a_lo), g_lo + t * (g_hi - g_lo)
    return p_a, p_g, social_objective(coef, p_a, p_g)[0]


# ---------------------------------------------------------------------------
# finite-difference derivative audit


@dataclass(frozen=True)
class AuditReport:
    max_rel_error: float
    worst_entry: str
    n_points: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < CHECK_TOL


def finite_difference_audit(problem: Problem, n_points: int = 20,
                            seed: int = 0) -> AuditReport:
    """Compare the analytic objective gradient and the stacked constraint
    Jacobian [J_E; J_h] of ``Problem.jacobians`` with central differences
    of ``objective`` and of the two row blocks of ``Problem.constraints``
    at seeded random interior points. The worst entry is named
    ``gradient[j]``, ``eq_jacobian[i, j]`` or ``ineq_jacobian[i, j]``; a
    non-finite error counts as infinite, so a NaN derivative fails the
    audit and is named.

    The objective, the network rows and the adequacy rows are one list of
    (function, step, plan, rows) blocks, each differenced in one call per
    point (module docstring). Per point one ``_max_rel_error`` over the
    stacked gradient, J_E and J_h, (1 + n_eq + n_ineq, n), names the first
    maximum in that row order: a tie between the gradient and a Jacobian
    entry names the gradient. The points' constants are built once per
    audit, and max(1, |x|) once per point for all three steps.

    One fault stays hidden from the grouped plans: each adequacy group holds
    one P column and one Q column, both rows read every group, so an
    adequacy row that also reads the other row's column of a group has that
    change charged to its own column of the group."""
    _check_count("n_points", n_points, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n, n_eq = problem.n_var, problem.n_eq

    def objective(points):
        return problem.objective(points)[:, None]

    def network(points):
        return np.concatenate(problem._network_rows(points), axis=-1)

    @functools.cache
    def dense_plan(rows):
        return _group_plan(np.ones((rows, n), dtype=bool))

    # the two adequacy rows, last, read every P or every Q column; the
    # network rows above them colour into far fewer groups without them
    reads = problem.constraint_read_sets
    analytic, fd = np.zeros((2, 1 + len(reads), n))
    blocks = ((objective, _OBJ_FD_STEP, _group_plan(problem.objective_read_set[None]), fd[:1]),
              (network, _CON_FD_STEP, _group_plan(reads[:-2]), fd[1:-2]),
              (problem._adequacy_rows, _CON_FD_STEP, _group_plan(reads[-2:]), fd[-2:]))
    interior_point = _interior_sampler(problem)
    worst, worst_entry = 0.0, "none"
    for _ in range(n_points):
        x = interior_point(rng)
        scale = np.maximum(1.0, np.abs(x))
        analytic[0] = problem.objective_gradient(x)
        analytic[1:1 + n_eq], analytic[1 + n_eq:] = problem.jacobians(x)
        fd.fill(0.0)
        for fun, step, plan, rows in blocks:
            if _central_diff(fun, x, step * scale, plan, rows) is None:
                _central_diff(fun, x, step * scale, dense_plan(len(rows)), rows)
        err, k = _max_rel_error(analytic, fd)
        if err > worst:
            worst, worst_entry = err, _entry_name(*divmod(k, n), n_eq)
    return AuditReport(worst, worst_entry, n_points)


def _max_rel_error(analytic, fd) -> tuple[float, int]:
    """The largest |a - f| / max(1, |a|, |f|), a non-finite one counting as
    inf, and the flat index of its first maximum in row-major order. Every
    entry where both are 0 has error 0, so only the others and entry 0, the
    first maximum of an all-zero error, are computed."""
    nonzero = (analytic != 0) | (fd != 0)
    nonzero.flat[0] = True
    nz = np.flatnonzero(nonzero)
    a, f = analytic.take(nz), fd.take(nz)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf give NaN
        err = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    err[~np.isfinite(err)] = np.inf
    k = int(np.argmax(err))
    return float(err[k]), int(nz[k])


def _entry_name(row: int, col: int, n_eq: int) -> str:
    """The audit's name for an entry of its stack: gradient, J_E, J_h."""
    if row == 0:
        return f"gradient[{col}]"
    i = row - 1
    return f"eq_jacobian[{i}, {col}]" if i < n_eq else f"ineq_jacobian[{i - n_eq}, {col}]"


# The objective is piecewise quadratic, so a central difference is exact
# for any step that stays on one branch; the wide step keeps rounding noise
# (objective magnitudes reach 1e6) far below CHECK_TOL.
_OBJ_FD_STEP = 0.02
_CON_FD_STEP = 1e-6


def _interior_sampler(problem: Problem):
    """The audit's interior points of ``problem``, a function of an rng,
    over constants built here once: the boxed columns' bounds and spans,
    and each demand's kink margin and the target it moves to."""
    lay, lb, ub = problem.layout, problem.lb, problem.ub
    boxed = np.isfinite(lb) & np.isfinite(ub)
    lo, span = lb[boxed], ub[boxed] - lb[boxed]
    # keep demands away from the satisfaction kink where the second
    # derivative jumps (central differences straddle it otherwise); the
    # margin must exceed the widest finite-difference step in use
    sat = problem.welfare.kink / problem.case.s_base
    margin = 2.0 * _OBJ_FD_STEP * np.maximum(1.0, sat)
    below = sat - margin
    moved = np.where(below >= lb[lay.pa], below, np.minimum(sat + margin, ub[lay.pa]))

    def interior_point(rng) -> np.ndarray:
        t = rng.uniform(0.15, 0.85, size=problem.n_var)
        x = np.zeros(problem.n_var)
        x[boxed] = lo + t[boxed] * span
        x[lay.th] = rng.uniform(-0.3, 0.3, size=lay.n_bus - 1)
        pa = x[lay.pa]
        x[lay.pa] = np.where(np.abs(pa - sat) < margin, moved, pa)
        return x

    return interior_point


def _column_groups(reads: np.ndarray) -> np.ndarray:
    """The group of every column of the (rows, n) bool ``reads``, such
    that no row reads two columns of one group: each column, in natural
    order, joins the lowest group that none of its rows reads yet (Curtis,
    Powell & Reid 1974; Coleman & More 1983). Each row keeps the groups it
    reads as the bits of an int.

    The columns that no row reads share one trailing group of their own,
    which no row reads either: a row that does change under one of them is
    a fault that ``_central_diff`` sees, not a change charged to a column
    of group 0 that the row reads."""
    cols, rows = np.nonzero(reads.T)
    read, starts = np.unique(cols, return_index=True)  # the read columns, in order
    bounds, rows = starts.tolist() + [len(rows)], rows.tolist()
    taken = [0] * reads.shape[0]
    group = [-1] * reads.shape[1]
    for j, start, stop in zip(read.tolist(), bounds, bounds[1:]):
        rows_j, busy = rows[start:stop], 0
        for i in rows_j:
            busy |= taken[i]
        g = (~busy & (busy + 1)).bit_length() - 1  # the lowest clear bit
        for i in rows_j:
            taken[i] |= 1 << g
        group[j] = g
    group = np.array(group, dtype=int)
    group[group < 0] = group.max(initial=-1) + 1
    return group


class _GroupStack(NamedTuple):
    """The k column groups that one ``fun`` call of ``_central_diff`` moves:
    ``unread[a, i]`` is set where row i reads no column of group a, and
    ``(row, col)`` lists the reads. The flat indices of that call: each
    column's +h and -h cell in the (2 k, n) points (``plus``, ``minus``),
    and in the (k, rows) difference the set cells of ``unread`` and each
    read's (group, row) cell (``unread_cells``, ``read_cells``)."""
    unread: np.ndarray
    row: np.ndarray
    col: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    unread_cells: np.ndarray
    read_cells: np.ndarray


def _group_plan(reads: np.ndarray) -> _GroupStack:
    """The column groups of ``_column_groups(reads)``. Under an all-True
    ``reads`` (the dense plan) every column is a group of its own."""
    group = _column_groups(reads)
    col, row = np.nonzero(reads.T)
    k, (rows, n) = group.max() + 1, reads.shape
    unread = np.ones((k, rows), dtype=bool)
    unread[group[col], row] = False
    plus = group * n + np.arange(n)
    return _GroupStack(unread, row, col, plus, plus + k * n, np.flatnonzero(unread),
                       group[col] * rows + row)


def _central_diff(fun, x, h, plan, out):
    """Central differences (rows, n) at x, step h_j in column j (the audit's
    is step * max(1, |x_j|)), of a fun mapping (k, n) points to (k, rows),
    from the column groups of ``plan`` in one ``fun`` call of 2 k points, k
    the number of groups: each point moves all columns of one group by
    +-h_j. A row reads at most one column j of a group, so its difference
    over that group, divided by 2 h_j, is its derivative in j, and every
    entry it does not read is 0. A term of a row that reads no moved column
    is unchanged, so each row sums the same terms as under a one-column
    move, and the result is the per-column one bit for bit. The read
    entries are written into ``out``, all zeros, which is returned.

    Returns None, ``out`` untouched, if a row changes (NaN and inf included)
    under a group none of whose columns it reads: the read sets do not
    describe fun at x, and the caller differences it under the dense plan."""
    k = len(plan.unread)
    points = np.repeat(x[None], 2 * k, axis=0)
    flat = points.reshape(-1)
    flat[plan.plus] += h
    flat[plan.minus] -= h
    values = fun(points)
    diff = values[:k] - values[k:]
    if diff.take(plan.unread_cells).any():
        return None
    out[plan.row, plan.col] = diff.take(plan.read_cells) / (2 * h.take(plan.col))
    return out
