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
only once the scaled residuals and mu itself are at most tol.

The condensed KKT system is regularized on its diagonal until its inertia,
read from the block diagonal factor D of LAPACK's Bunch-Kaufman ``dsytrf``,
is (n, m_E, 0), and is then solved after symmetric equilibration; steps are
safeguarded by the fraction-to-boundary rule and a merit-function
backtracking line search. Everything is deterministic.

Each iterate is evaluated once: its objective and constraint values come
from the accepted line-search trial, and its gradient, Jacobians and
Lagrangian Hessian are computed once and shared by the convergence test,
the KKT system and the merit function. Bound rows, one +-1 entry each, are
applied by index instead of as Jacobian rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .casemodel import CaseData
from .formulation import Problem
from .welfare import gen_cost, satisfaction

_FIXED_TOL = 1e-9     # bound pairs tighter than this are treated as fixed
_SMAX = 100.0         # residual scaling cap (dual magnitudes)
# initial barrier for an objective whose gradient at the start point is at
# most 100 in max norm; a steeper objective starts at
# MU0 * ||grad f(x0)||_inf / 100
MU0 = 0.1
MU_REDUCTION = 0.2    # linear factor of the mu update
TAU = 0.995           # fraction-to-boundary


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6          # on the scaled residuals and on the final mu
    max_iter: int = 200


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
    ``bound_idx``. The solver therefore keeps only the problem rows of the
    inequality Jacobian as ``jh``; the bound rows enter every product
    through ``bound_idx`` and ``bound_sign``."""

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
        self.fixed_rows = np.zeros((len(self.fixed_idx), self.n))
        self.fixed_rows[np.arange(len(self.fixed_idx)), self.fixed_idx] = 1.0

    def values(self, x):
        """(f, c_E, h) at x."""
        p = self.problem
        ce = np.concatenate([p.equalities(x), x[self.fixed_idx] - p.lb[self.fixed_idx]])
        h = np.concatenate([p.inequalities(x),
                            self.bound_sign * (x[self.bound_idx] - self.bound_val)])
        return -p.objective(x), ce, h

    def grad(self, x):
        return -self.problem.objective_gradient(x)

    def je(self, x):
        return np.vstack([self.problem.equality_jacobian(x), self.fixed_rows])

    def jh_t(self, jh, y):
        """Transpose of the full inequality Jacobian times y."""
        mi = len(jh)
        return jh.T @ y[:mi] + np.bincount(self.bound_idx, weights=self.bound_sign * y[mi:],
                                           minlength=self.n)

    def jh_dot(self, jh, dx):
        """Full inequality Jacobian times dx."""
        return np.concatenate([jh @ dx, self.bound_sign * dx[self.bound_idx]])

    def condensed(self, x, lam, nu, jh, d_sigma):
        """Lagrangian Hessian plus jh' diag(d_sigma) jh over all rows."""
        mi = len(jh)
        m = self.problem.lagrangian_hessian(x, 1.0, lam[:self.problem.n_eq], nu[:mi])
        m += (jh.T * d_sigma[:mi]) @ jh
        m.flat[::self.n + 1] += np.bincount(self.bound_idx, weights=d_sigma[mi:],
                                            minlength=self.n)
        return m


def _inertia(kkt: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix,
    read from the block diagonal D of its Bunch-Kaufman factorization
    P L D L' P' (Sylvester's law of inertia).

    Only the lower triangle is read. ``dsytrf`` marks a 2x2 block of D by a
    negative pivot on both of its rows and a 1x1 block by a positive one, so
    the negative pivots pair up in order: a block starts at every even offset
    of each run of them. A block's eigenvalues are mean -/+ radius.
    Raises ValueError for a matrix with a non-finite entry, which LAPACK
    would factor without complaint (an infinite pivot reads as positive)."""
    if not np.isfinite(kkt).all():
        raise ValueError("KKT matrix has non-finite entries")
    lapack = scipy.linalg.lapack
    n = len(kkt)
    # the workspace scipy.linalg.ldl queries, so LAPACK runs the same
    # blocked factorization and D is the same bit for bit
    lwork = int(lapack.dsytrf_lwork(n, lower=1)[0])
    ldu, ipiv, info = lapack.dsytrf(kkt, lower=1, lwork=lwork)
    if info < 0:
        raise ValueError(f"dsytrf: illegal value in argument {-info}")
    ev = ldu.diagonal().copy()
    i = np.flatnonzero(ipiv < 0)[::2]
    mean = 0.5 * (ev[i] + ev[i + 1])
    radius = np.hypot(0.5 * (ev[i] - ev[i + 1]), ldu[i + 1, i])
    ev[i], ev[i + 1] = mean - radius, mean + radius
    pos, neg = int(np.sum(ev > 1e-12)), int(np.sum(ev < -1e-12))
    return pos, neg, n - pos - neg


def _scaled_residuals(r_d, r_e, r_h, s, lam, nu, mu):
    comp = s * nu - mu
    m = max(1, len(lam) + len(nu))
    s_d = max(_SMAX, (np.abs(lam).sum() + np.abs(nu).sum()) / m) / _SMAX
    s_c = max(_SMAX, np.abs(nu).sum() / max(1, len(nu))) / _SMAX
    inf_pr = max(np.max(np.abs(r_e), initial=0.0), np.max(np.abs(r_h), initial=0.0))
    inf_du = np.max(np.abs(r_d)) / s_d
    inf_comp = np.max(np.abs(comp), initial=0.0) / s_c
    return inf_pr, inf_du, inf_comp


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
    reason = _screen_infeasible(problem)
    if reason is not None:
        x = problem.initial_point()
        return _finish(problem, None, x, None, None, 0, [], "infeasible_detected", reason)

    nlp = _InternalNLP(problem)
    n, me = nlp.n, nlp.m_eq

    x = problem.initial_point()
    f, ce, h = nlp.values(x)
    grad = nlp.grad(x)
    s = np.maximum(1e-2, -h)
    mu = MU0 * max(1.0, np.max(np.abs(grad)) / 100.0)
    nu = np.maximum(mu / s, 1e-8)
    lam = np.zeros(me)
    rho = 10.0
    log = []
    # how the current iterate was reached; the start point was not
    came_by = {"alpha_p": 0.0, "alpha_d": 0.0, "delta_w": 0.0, "backtracks": 0, "fallback": False}
    status = "iteration_limit"
    it = 0
    kkt = np.zeros((n + me, n + me))
    kkt[n:, n:] = -1e-8 * np.eye(me)  # fixed dual regularization delta_c
    scaled = np.empty_like(kkt)  # equilibrated copy, factored in place
    diag = np.arange(n)

    for it in range(1, opts.max_iter + 1):
        je, jh = nlp.je(x), problem.inequality_jacobian(x)
        r_d = grad + je.T @ lam + nlp.jh_t(jh, nu)
        r_h = h + s
        inf_pr, inf_du, inf_comp0 = _scaled_residuals(r_d, ce, r_h, s, lam, nu, 0.0)
        log.append({"iter": it, "mu": mu, "inf_pr": inf_pr, "inf_du": inf_du,
                    "inf_comp": inf_comp0, "f": f, **came_by})
        if max(inf_pr, inf_du, inf_comp0, mu) <= opts.tol:
            status = "converged"
            break
        _, _, inf_comp_mu = _scaled_residuals(r_d, ce, r_h, s, lam, nu, mu)
        if max(inf_pr, inf_du, inf_comp_mu) <= 10.0 * mu:
            mu = max(opts.tol / 100.0, min(MU_REDUCTION * mu, mu ** 1.5))

        d_sigma = nu / s
        m_base = nlp.condensed(x, lam, nu, jh, d_sigma)
        rhs = np.concatenate([
            -(r_d + nlp.jh_t(jh, (mu / s - nu) + d_sigma * r_h)),
            -ce,
        ])
        kkt[:n, n:] = je.T
        kkt[n:, :n] = je

        delta_w = 0.0
        step = None
        while True:
            kkt[:n, :n] = m_base
            kkt[diag, diag] += delta_w
            try:
                pos, neg, zero = _inertia(kkt)
                if pos == n and neg == me and zero == 0:
                    # Solve the symmetrically equilibrated system: near
                    # convergence nu/s spans many orders of magnitude, and
                    # unscaled most KKT matrices have rcond < eps. scipy
                    # 1.17's solve then warns and keeps ~650 bytes per call,
                    # which grows without bound over a sweep.
                    scale = 1.0 / np.sqrt(np.max(np.abs(kkt, out=scaled), axis=1))
                    np.multiply(kkt, scale[:, None], out=scaled)
                    np.multiply(scaled, scale, out=scaled)
                    with warnings.catch_warnings():
                        # near convergence the system is legitimately stiff;
                        # accuracy is guarded by the residual tests instead
                        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                        # LAPACK reads one triangle of the column-major
                        # transpose and may overwrite it, sparing a copy
                        step = scale * scipy.linalg.solve(scaled.T, scale * rhs, assume_a="sym",
                                                          overwrite_a=True)
                    if np.all(np.isfinite(step)):
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
        dnu = mu / s - nu - d_sigma * ds

        # fraction-to-boundary step limits
        alpha_p = _max_step(s, ds)
        alpha_d = _max_step(nu, dnu)

        lam_new_inf = np.max(np.abs(lam + alpha_d * dlam), initial=0.0)
        nu_new_inf = np.max(np.abs(nu + alpha_d * dnu), initial=0.0)
        rho = max(rho, 1.2 * (lam_new_inf + nu_new_inf))

        phi0, theta0 = _merit(f, ce, h, s, mu, rho)
        dphi = grad @ dx - mu * np.sum(ds / s) - rho * theta0
        alpha = alpha_p
        backtracks, fallback = 0, False
        trial = None  # (f, c_E, h) at the accepted x_t
        if dphi < 0.0:
            for backtracks in range(30):
                x_t, s_t = x + alpha * dx, s + alpha * ds
                if np.all(s_t > 0):
                    trial = nlp.values(x_t)
                    phi_t, _ = _merit(*trial, s_t, mu, rho)
                    if np.isfinite(phi_t) and phi_t <= phi0 + 1e-4 * alpha * dphi + 1e-10 * abs(phi0):
                        break
                alpha *= 0.5
            else:
                # no sufficient decrease found; fall back to the full
                # boundary-limited step rather than stalling the iteration
                alpha = alpha_p
                trial = None
                backtracks, fallback = 30, True
        if trial is None:
            x_t = x + alpha * dx
            trial = nlp.values(x_t)
        x, (f, ce, h) = x_t, trial
        grad = nlp.grad(x)
        s = s + alpha * ds
        lam = lam + alpha_d * dlam
        nu = np.maximum(nu + alpha_d * dnu, 1e-14)
        # keep inequality duals within a band of mu/s (degenerate or weakly
        # active rows otherwise distort the equality duals)
        kappa = 1e10
        nu = np.clip(nu, mu / (kappa * s), kappa * mu / s)
        came_by = {"alpha_p": alpha, "alpha_d": alpha_d, "delta_w": delta_w,
                   "backtracks": backtracks, "fallback": fallback}

    return _finish(problem, nlp, x, lam, nu, it, log, status)


def _max_step(vals, deltas):
    neg = deltas < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-TAU * vals[neg] / deltas[neg])))


def _merit(f, ce, h, s, mu, rho):
    """Barrier merit value and constraint violation at (x, s) from the
    values f, c_E and h at x."""
    theta = np.abs(ce).sum() + np.abs(h + s).sum()
    return f - mu * np.log(s).sum() + rho * theta, theta


def _finish(problem, nlp, x, lam, nu, iterations, log, status, reason=None) -> Solution:
    me_p, mi_p = problem.n_eq, problem.n_ineq
    z_l = np.zeros(problem.n_var)
    z_u = np.zeros(problem.n_var)
    if nlp is None:
        lam_eq = np.zeros(me_p)
        nu_ineq = np.zeros(mi_p)
    else:
        lam_eq = lam[:me_p]
        nu_ineq = nu[:mi_p]
        z_l[nlp.lower_idx] = nu[mi_p:mi_p + len(nlp.lower_idx)]
        z_u[nlp.upper_idx] = nu[mi_p + len(nlp.lower_idx):]
        # duals of fixed-variable rows fold into the bound duals
        d = lam[me_p:]
        z_u[nlp.fixed_idx] = np.maximum(d, 0.0)
        z_l[nlp.fixed_idx] = np.maximum(-d, 0.0)

    eq = problem.equalities(x)
    ineq = problem.inequalities(x)
    bound_viol = np.maximum(problem.lb - x, 0.0) + np.maximum(x - problem.ub, 0.0)
    bound_viol[~np.isfinite(bound_viol)] = 0.0
    max_violation = max(np.max(np.abs(eq)), np.max(ineq, initial=0.0),
                        np.max(bound_viol, initial=0.0), 0.0)

    state = problem.unpack(x)
    return Solution(
        status=status, x=x, lam_eq=lam_eq, nu_ineq=nu_ineq,
        z_lower=z_l, z_upper=z_u, iterations=iterations,
        objective=problem.objective(x), log=log, max_violation=max_violation,
        p_gen=state["p_gen"], q_gen=state["q_gen"],
        p_agg=state["p_agg"], q_agg=state["q_agg"],
        v=state["v"], theta=state["theta"], reason=reason,
    )


# ---------------------------------------------------------------------------
# KKT verification


@dataclass(frozen=True)
class KKTReport:
    stationarity: float
    primal_feasibility: float
    dual_feasibility: float
    complementarity: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.stationarity, self.primal_feasibility,
                   self.dual_feasibility, self.complementarity) < self.tol


def kkt_check(problem: Problem, solution: Solution, tol: float = 1e-6) -> KKTReport:
    """Recompute the four KKT residual norms of a solution from scratch."""
    if solution.lam_eq is None or solution.nu_ineq is None:
        raise ValueError("solution carries no dual multipliers")
    x = solution.x
    grad = -problem.objective_gradient(x)  # minimization sense
    je = problem.equality_jacobian(x)
    jh = problem.inequality_jacobian(x)

    stat = (grad + je.T @ solution.lam_eq + jh.T @ solution.nu_ineq
            - solution.z_lower + solution.z_upper)
    duals_sum = (np.abs(solution.lam_eq).sum() + np.abs(solution.nu_ineq).sum()
                 + np.abs(solution.z_lower).sum() + np.abs(solution.z_upper).sum())
    m = max(1, problem.n_eq + problem.n_ineq + 2 * problem.n_var)
    s_d = max(_SMAX, duals_sum / m) / _SMAX

    eq = problem.equalities(x)
    ineq = problem.inequalities(x)
    lo = np.where(np.isfinite(problem.lb), problem.lb - x, -np.inf)
    up = np.where(np.isfinite(problem.ub), x - problem.ub, -np.inf)
    primal = max(np.max(np.abs(eq)), np.max(ineq, initial=0.0),
                 np.max(lo, initial=0.0), np.max(up, initial=0.0), 0.0)

    dual = max(0.0, -np.min(solution.nu_ineq, initial=0.0),
               -np.min(solution.z_lower, initial=0.0),
               -np.min(solution.z_upper, initial=0.0))

    comp_terms = [np.abs(solution.nu_ineq * ineq)]
    lo_gap = np.where(np.isfinite(problem.lb), x - problem.lb, 0.0)
    up_gap = np.where(np.isfinite(problem.ub), problem.ub - x, 0.0)
    comp_terms.append(np.abs(solution.z_lower * lo_gap))
    comp_terms.append(np.abs(solution.z_upper * up_gap))
    comp = max(np.max(t, initial=0.0) for t in comp_terms)
    s_c = max(_SMAX, duals_sum / m) / _SMAX

    return KKTReport(float(np.max(np.abs(stat)) / s_d), float(primal),
                     float(dual), float(comp / s_c), tol)


# ---------------------------------------------------------------------------
# copper-plate oracle


def copper_plate_oracle(case: CaseData, gap_tol: float = 1e-9):
    """Network-free optimum of the weighted-welfare dispatch.

    Solves max sum(sigma*U(P_a)) - sum(C(P_g)) subject to the single balance
    sum(P_g) = sum(P_a) and box bounds, by bisection on the shadow price.
    Returns (p_agg MW, p_gen MW, weighted objective $/h).
    """
    aggs, gens = case.aggregators, case.generators

    def demand(lam):
        out = []
        for a in aggs:
            if a.sigma <= 0:
                out.append(a.p_c if lam > 0 else a.p_n)
                continue
            p = (a.gamma - lam / a.sigma) / a.mu
            out.append(min(max(p, a.p_c), a.p_n))
        return np.array(out)

    def supply(lam):
        out = []
        for g in gens:
            if g.a > 0:
                p = (lam - g.b) / (2.0 * g.a)
            else:
                p = g.p_max if lam >= g.b else g.p_min
            out.append(min(max(p, g.p_min), g.p_max))
        return np.array(out)

    def gap(lam):
        return float(np.sum(supply(lam)) - np.sum(demand(lam)))

    hi = max([a.sigma * a.gamma for a in aggs]
             + [2.0 * g.a * g.p_max + g.b for g in gens]) + 1.0
    lo = min(0.0, min(g.b for g in gens)) - 1.0
    if gap(hi) < -gap_tol or gap(lo) > gap_tol:
        raise ValueError("no shadow price balances supply and demand within bounds")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if abs(g_mid) < gap_tol:
            lo = hi = mid
            break
        if g_mid > 0:
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    p_a, p_g = demand(lam), supply(lam)

    # close any residual gap across marginal (strictly interior) units
    resid = float(np.sum(p_g) - np.sum(p_a))
    if abs(resid) > gap_tol:
        interior = [k for k, g in enumerate(gens)
                    if g.p_min + 1e-12 < p_g[k] < g.p_max - 1e-12]
        if interior:
            p_g[interior] -= resid / len(interior)
        else:
            raise ValueError("no shadow price balances supply and demand within bounds")

    weighted = (sum(a.sigma * satisfaction(a, p) for a, p in zip(aggs, p_a))
                - sum(gen_cost(g, p) for g, p in zip(gens, p_g)))
    return p_a, p_g, float(weighted)


# ---------------------------------------------------------------------------
# finite-difference derivative audit


@dataclass(frozen=True)
class AuditReport:
    max_rel_error: float
    worst_entry: str
    n_points: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def finite_difference_audit(problem: Problem, n_points: int = 100,
                            seed: int = 0, tol: float = 1e-6) -> AuditReport:
    """Compare analytic gradient/Jacobians with central differences at
    seeded random interior points."""
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_entry = "none"

    # The objective is piecewise quadratic, so a central difference is
    # exact for any step that stays on one branch; the wide step keeps
    # rounding noise (objective magnitudes reach 1e6) far below tol.
    checks = [("gradient", problem.objective_gradient, problem.objective, _OBJ_FD_STEP),
              ("eq_jacobian", problem.equality_jacobian, problem.equalities, 1e-6),
              ("ineq_jacobian", problem.inequality_jacobian, problem.inequalities, 1e-6)]
    for _ in range(n_points):
        x = _interior_point(problem, rng)
        for name, derivative, fun, step in checks:
            analytic = derivative(x)
            fd = _central_diff(fun, x, step)
            err = np.abs(analytic - fd) / np.maximum(
                1.0, np.maximum(np.abs(analytic), np.abs(fd)))
            k = int(np.argmax(err))
            if err.flat[k] > worst:
                worst = float(err.flat[k])
                index = ", ".join(str(i) for i in np.unravel_index(k, err.shape))
                worst_entry = f"{name}[{index}]"
    return AuditReport(worst, worst_entry, n_points, tol)


_OBJ_FD_STEP = 0.02  # wide objective step; exact on a quadratic branch
# Coordinates perturbed per evaluator call, so 2 * 32 stacked points. On
# rts24 (193 coordinates), blocks of 8, 16, 64 or all coordinates made the
# audit 17-46 % slower, and the two larger ones raised peak memory by 0.6
# and 2.9 MB.
_FD_BLOCK = 32


def _interior_point(problem: Problem, rng) -> np.ndarray:
    lay = problem.layout
    lb, ub = problem.lb, problem.ub
    t = rng.uniform(0.15, 0.85, size=problem.n_var)
    x = np.zeros(problem.n_var)
    boxed = np.isfinite(lb) & np.isfinite(ub)
    x[boxed] = lb[boxed] + t[boxed] * (ub[boxed] - lb[boxed])
    x[lay.th] = rng.uniform(-0.3, 0.3, size=lay.n_bus - 1)
    # keep demands away from the satisfaction kink where the second
    # derivative jumps (central differences straddle it otherwise); the
    # margin must exceed the widest finite-difference step in use
    sb = problem.case.s_base
    for k, agg in enumerate(problem.case.aggregators):
        i = lay.pa.start + k
        sat = agg.gamma / agg.mu / sb
        margin = 2.0 * _OBJ_FD_STEP * max(1.0, sat)
        if abs(x[i] - sat) < margin:
            below = sat - margin
            x[i] = below if below >= lb[i] else min(sat + margin, ub[i])
    return x


def _central_diff(fun, x, step):
    """Central differences of fun at x along every coordinate i, with step
    h_i = step * max(1, |x_i|): shape fun(x).shape + (n,). fun evaluates a
    stack of points, here the + and - points of _FD_BLOCK coordinates."""
    n = len(x)
    h = step * np.maximum(1.0, np.abs(x))
    blocks = []
    for start in range(0, n, _FD_BLOCK):
        idx = np.arange(start, min(start + _FD_BLOCK, n))
        k = len(idx)
        points = np.tile(x, (2 * k, 1))
        points[np.arange(k), idx] += h[idx]
        points[k + np.arange(k), idx] -= h[idx]
        values = fun(points)
        scale = (2 * h[idx]).reshape((k,) + (1,) * (values.ndim - 1))
        blocks.append((values[:k] - values[k:]) / scale)
    return np.moveaxis(np.concatenate(blocks), 0, -1)
