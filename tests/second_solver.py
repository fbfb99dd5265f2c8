"""A second, independent solver as the tests' optimum oracle: scipy's
``minimize(method="trust-constr")``, a trust-region interior-point method
(Byrd, Hribar & Nocedal, SIAM J. Optim. 9(4), 1999), fed the NLP of a
``Problem``.

It reads the problem's objective, gradient, constraints and Jacobians, and
its Lagrangian Hessian blocks: at zero multipliers the diagonal is the
Hessian of the minimized objective, and with the multipliers of one
constraint group alone the v/theta block is that group's weighted Hessian
(an injection column meets nothing but its own diagonal entry, which only the
objective fills). A column with lb = ub is held by its bounds, which
trust-constr takes as an equality. Nothing of sesopf's solver is used, so an
answer that both methods reach is not an artefact of either.
"""

import numpy as np
from scipy.optimize import Bounds, NonlinearConstraint, minimize

# the objective in $/h is of order 1e5 on five_bus; trust-constr's default
# trust radius and tolerances suit values of order 1e2
OBJECTIVE_SCALE = 1e-3


def optimum(problem):
    """The trust-constr optimum of ``problem`` from its initial point: the
    scipy result, its ``x`` in the layout of ``Problem``."""
    n, net = problem.n_var, slice(problem.layout.v.start, problem.n_var)
    no_eq, no_ineq = np.zeros(problem.n_eq), np.zeros(problem.n_ineq)

    def dense(block):
        hess = np.zeros((n, n))
        hess[net, net] = block
        return hess

    balance = NonlinearConstraint(
        lambda x: problem.constraints(x)[0], 0.0, 0.0,
        jac=lambda x: problem.jacobians(x)[0],
        hess=lambda x, v: dense(problem.lagrangian_hessian(x, v, no_ineq)[1]))
    limits = NonlinearConstraint(
        lambda x: problem.constraints(x)[1], -np.inf, 0.0,
        jac=lambda x: problem.jacobians(x)[1],
        hess=lambda x, v: dense(problem.lagrangian_hessian(x, no_eq, v)[1]))
    return minimize(
        lambda x: -OBJECTIVE_SCALE * problem.objective(x), problem.initial_point(),
        jac=lambda x: -OBJECTIVE_SCALE * problem.objective_gradient(x),
        hess=lambda x: np.diag(OBJECTIVE_SCALE * problem.lagrangian_hessian(x, no_eq, no_ineq)[0]),
        method="trust-constr", bounds=Bounds(problem.lb, problem.ub),
        constraints=[balance, limits], options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 3000})
