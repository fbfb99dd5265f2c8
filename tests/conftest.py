"""Shared fixtures and small hand-built cases for the test suite."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from sesopf.casemodel import Aggregator, Bus, CaseData, Generator, Line, builtin_case
from sesopf.formulation import build_problem
from sesopf.solver import SolverOptions, solve
from sesopf.welfare import welfare_coefficients

from record_oracle import series_admittance

# To report a failing @given test, hypothesis's plugin imports
# hypothesis.extra._patching, whose libcst import raises a DeprecationWarning;
# under filterwarnings = ["error"] that is an INTERNALERROR in the report hook,
# which ends the session. Imported once here with the warning ignored, the
# module is already loaded when a property fails, and the other tests run.
# Without libcst the import fails, and the plugin skips the patch likewise.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def five_bus():
    return builtin_case("five_bus")


@pytest.fixture(scope="session")
def rts24():
    return builtin_case("rts24")


@pytest.fixture(scope="session")
def five_bus_problem(five_bus):
    return build_problem(five_bus)


@pytest.fixture(scope="session", params=["five_bus", "rts24", "five_bus_parallel"])
def network_problem(request):
    """The NLP of five_bus, rts24 and a five_bus variant with parallel lines."""
    if request.param == "five_bus_parallel":
        return build_problem(with_parallel_lines(builtin_case("five_bus")))
    return build_problem(builtin_case(request.param))


@pytest.fixture(scope="session")
def five_bus_solution(five_bus_problem):
    """One converged five-bus solve shared by the read-only checks."""
    solution = solve(five_bus_problem, SolverOptions())
    assert solution.status == "converged"
    return solution


@pytest.fixture(scope="session")
def rts24_solution(rts24):
    """One converged rts24 solve at its default SES values."""
    solution = solve(build_problem(rts24), SolverOptions())
    assert solution.status == "converged"
    return solution


def single_bus_case(gen, agg, name="single_bus"):
    """One slack bus, no lines: balance reduces to P_g = P_a, Q_g = Q_a."""
    return CaseData(name, 100.0, (Bus(1, is_slack=True),), (), (gen,), (agg,))


def welfare_of(aggregators=(), generators=()):
    """The WelfareCoefficients of these records, in order."""
    return welfare_coefficients(
        CaseData("records", 100.0, (), (), tuple(generators), tuple(aggregators)))


def toy_case():
    """Analytic one-bus exchange: a=1, b=0, c=0 against sigma=1, gamma=10,
    mu=1. Stationarity 2p = 10 - p gives p = 10/3 on both sides."""
    gen = Generator(1, 1.0, 0.0, 0.0, 0.0, 8.0, 0.0, 0.0)
    agg = Aggregator(1, 1.0, 10.0, 1.0, 8.0, 0.0, 0.0, 0.0)
    return single_bus_case(gen, agg, "toy")


def two_bus_copper_case():
    """Lossless stiff tie with an interior exchange optimum."""
    buses = (Bus(1, is_slack=True), Bus(2))
    lines = (Line(1, 2, 0.0, 0.01, 1e6),)
    gens = (Generator(1, 1.0, 5.0, 0.0, 0.0, 500.0, -500.0, 500.0),)
    aggs = (Aggregator(2, 2.0, 50.0, 0.1, 400.0, 10.0, 10.0, 0.0),)
    return CaseData("two_bus_copper", 100.0, buses, lines, gens, aggs)


def three_bus_copper_case():
    """Lossless triangle, two generators against two aggregators."""
    buses = (Bus(1, is_slack=True), Bus(2), Bus(3))
    lines = (Line(1, 2, 0.0, 0.01, 1e6), Line(2, 3, 0.0, 0.01, 1e6),
             Line(1, 3, 0.0, 0.01, 1e6))
    gens = (Generator(1, 0.5, 2.0, 10.0, 0.0, 300.0, -300.0, 300.0),
            Generator(2, 1.0, 4.0, 5.0, 0.0, 200.0, -300.0, 300.0))
    aggs = (Aggregator(3, 3.0, 40.0, 0.05, 300.0, 20.0, 20.0, 0.0),
            Aggregator(3, 1.5, 30.0, 0.08, 200.0, 10.0, 15.0, 0.0))
    return CaseData("three_bus_copper", 100.0, buses, lines, gens, aggs)


def pinned_case():
    """Capacity equals total critical demand: both demands sit at p_c."""
    gen = Generator(1, 0.1, 1.0, 0.0, 0.0, 60.0, 0.0, 0.0)
    aggs = (Aggregator(1, 5.0, 40.0, 0.2, 50.0, 30.0, 0.0, 0.0),
            Aggregator(1, 9.0, 40.0, 0.2, 50.0, 30.0, 0.0, 0.0))
    return CaseData("pinned", 100.0, (Bus(1, is_slack=True),), (), (gen,), aggs)


def linear_marginal_case():
    """A linear-cost unit (a = 0, b = 10) sets the price: demand 50 - P
    meets the unit's step at 10 $/MWh, so P = 40 MW and the weighted
    welfare is 50*40 - 40**2/2 - 10*40 = 800 $/h."""
    gen = Generator(1, 0.0, 10.0, 0.0, 0.0, 100.0, 0.0, 0.0)
    agg = Aggregator(1, 1.0, 50.0, 1.0, 100.0, 0.0, 0.0, 0.0)
    return single_bus_case(gen, agg, "linear_marginal")


def with_parallel_lines(case):
    """case with a second circuit beside its first line, entered in the
    opposite direction with other impedances, and a copy of its last line."""
    first, last = case.lines[0], case.lines[-1]
    extra = (Line(first.to_bus, first.from_bus, 2 * first.r, 1.5 * first.x, first.s_max),
             Line(last.from_bus, last.to_bus, last.r, last.x, last.s_max))
    return replace(case, name=case.name + "_parallel", lines=case.lines + extra)


def admittance_by_lines(case):
    """The Y-bus (g, b) of the series line admittances, built one line and
    two bus-id lookups at a time: the tests' one Y-bus, the reference that
    the directed flow sums are held to."""
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
    return g, b


def copperize(case):
    """Strip resistances and lift line limits. The reactances stay, so this is
    a copper plate only where they do not limit the transfers: on five_bus
    the solve matches copper_plate_oracle, on rts24 it ends 1.3 % below it."""
    lines = tuple(Line(ln.from_bus, ln.to_bus, 0.0, ln.x, 1e6)
                  for ln in case.lines)
    return replace(case, name=case.name + "_copper", lines=lines)


def assembled_hessian(problem, diag, block):
    """The n x n Lagrangian Hessian from the two blocks that
    ``Problem.lagrangian_hessian`` returns: zeros, the diagonal added, then
    the v/theta block added on its columns. Bit for bit the n x n scatter of
    the per-call form: each entry is 0.0 plus its terms in the same order."""
    n = problem.n_var
    hess = np.zeros((n, n))
    hess[np.diag_indices(n)] += diag
    net = slice(problem.layout.v.start, n)
    hess[net, net] += block
    return hess


def random_interior_state(problem, rng):
    """A strictly interior decision vector for derivative sampling."""
    lb, ub = problem.lb, problem.ub
    t = rng.uniform(0.2, 0.8, size=problem.n_var)
    x = np.zeros(problem.n_var)
    boxed = np.isfinite(lb) & np.isfinite(ub)
    x[boxed] = lb[boxed] + t[boxed] * (ub[boxed] - lb[boxed])
    x[problem.layout.th] = rng.uniform(-0.2, 0.2, size=problem.layout.n_bus - 1)
    return x
