"""Case edits that leave the optimum where it was: the record tables in another
order, every bus id relabelled, every line entered in the other direction. A
solve of the edited case converges to the unchanged case's optimum, compared
after mapping each record to the one it came from. Any of these failing is a
formulation bug (ROADMAP item 3(d))."""

from dataclasses import replace

import numpy as np
import pytest

from sesopf.formulation import build_problem
from sesopf.solver import SolverOptions, solve

TABLES = ("buses", "lines", "generators", "aggregators")

# how closely the edited case's optimum must match: the objective relatively,
# P (generators and aggregators) in MW, v (p.u.) and theta (rad) absolutely. The
# edits of five_bus agree to 4.3e-16, 7.4e-13 MW, 2e-14 and 1.5e-15, the rts24
# permutation to 3.5e-16, 1.7e-11 MW, 6.7e-16 and 8.3e-15, all at the same
# iteration counts. Q is not compared: the optimum is a flat face in Q.
TOLERANCE = {"objective": 1e-9, "p": 1e-6, "v": 1e-9, "theta": 1e-9}


def _permuted(case, seed, kinds=TABLES):
    """case with each table of ``kinds`` in a seeded order, and per permuted table
    the position in ``case`` of each record of the permuted case."""
    rng = np.random.default_rng(seed)
    order = {kind: rng.permutation(len(getattr(case, kind))) for kind in kinds}
    # a seed that leaves a table in its order would show nothing of that table
    assert all((at != np.arange(len(at))).any() for at in order.values())
    return replace(case, **{kind: tuple(getattr(case, kind)[k] for k in at)
                            for kind, at in order.items()}), order


def _relabelled(case):
    """case with every bus id i as 10 i + 3, in the buses, lines and units."""
    def label(i):
        return 10 * i + 3
    return replace(
        case, buses=tuple(replace(b, id=label(b.id)) for b in case.buses),
        lines=tuple(replace(ln, from_bus=label(ln.from_bus), to_bus=label(ln.to_bus))
                    for ln in case.lines),
        generators=tuple(replace(g, bus=label(g.bus)) for g in case.generators),
        aggregators=tuple(replace(a, bus=label(a.bus)) for a in case.aggregators))


def _reversed_lines(case):
    return replace(case, lines=tuple(replace(ln, from_bus=ln.to_bus, to_bus=ln.from_bus)
                                     for ln in case.lines))


def _assert_same_optimum(case, order, base):
    """The solve of ``case`` converges to ``base``'s optimum, record k of each
    table of ``case`` compared with record ``order[table][k]`` of the base case,
    or with record k where ``order`` holds no such table."""
    solution = solve(build_problem(case), SolverOptions())
    assert solution.status == "converged"
    assert abs(solution.objective - base.objective) <= TOLERANCE["objective"] * abs(base.objective)
    for actual, expected, kind, tol in (
            (solution.p_gen, base.p_gen, "generators", TOLERANCE["p"]),
            (solution.p_agg, base.p_agg, "aggregators", TOLERANCE["p"]),
            (solution.v, base.v, "buses", TOLERANCE["v"]),
            (solution.theta, base.theta, "buses", TOLERANCE["theta"])):
        np.testing.assert_allclose(actual, expected[order.get(kind, slice(None))],
                                   rtol=0, atol=tol)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_five_bus_with_every_table_permuted_has_the_same_optimum(five_bus, five_bus_solution,
                                                                 seed):
    _assert_same_optimum(*_permuted(five_bus, seed), five_bus_solution)


@pytest.mark.parametrize("edit", [_relabelled, _reversed_lines])
def test_five_bus_relabelled_or_with_its_lines_reversed_has_the_same_optimum(
        five_bus, five_bus_solution, edit):
    _assert_same_optimum(edit(five_bus), {}, five_bus_solution)


def test_rts24_with_its_aggregators_and_lines_permuted_has_the_same_optimum(rts24,
                                                                            rts24_solution):
    _assert_same_optimum(*_permuted(rts24, 0, kinds=("aggregators", "lines")), rts24_solution)
