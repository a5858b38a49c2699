"""Seed LP/ILP reference: branch & bound over per-call ``scipy.optimize.linprog``.

Test oracle only.  These functions rebuild a dense LP and call
``scipy.optimize.linprog`` at every branch & bound node, exactly as the
seed implementation did (per-coefficient feasibility checks included).
The production solver (:mod:`repro.ilp.solver`, one persistent HiGHS
instance per program, re-solved cold) is tested against it in
``tests/ilp/test_lp_backend.py`` — both are HiGHS underneath.
``_lp_relaxation`` is hash-pinned by GOLD001
(``src/repro/analysis/golden_paths.toml``); the bodies stay verbatim.

Import it as ``tests.oracles.lp_linprog``: ``pytest.ini`` puts the repo
root on ``sys.path`` so ``tests/`` and ``benchmarks/`` share one module.
"""

from __future__ import annotations

import heapq
import itertools
import time

import numpy as np
from scipy import optimize

from repro.errors import ILPTimeoutError, InfeasibleError
from repro.ilp.model import BinaryProgram
from repro.ilp.solver import _INT_TOL, ILPSolution


def _lp_relaxation(
    program: BinaryProgram, extra_fixed: dict[int, int]
) -> tuple[float, np.ndarray] | None:
    """Solve the LP relaxation; returns (objective, x) or None if infeasible."""
    n = program.n_vars
    c = np.zeros(n)
    for index, coeff in program.objective.items():
        c[index] = coeff

    a_ub: list[np.ndarray] = []
    b_ub: list[float] = []
    a_eq: list[np.ndarray] = []
    b_eq: list[float] = []
    for constraint in program.constraints:
        row = np.zeros(n)
        for index, coeff in constraint.coeffs:
            row[index] = coeff
        if constraint.sense == "<=":
            a_ub.append(row)
            b_ub.append(constraint.rhs)
        elif constraint.sense == ">=":
            a_ub.append(-row)
            b_ub.append(-constraint.rhs)
        else:
            a_eq.append(row)
            b_eq.append(constraint.rhs)

    bounds = [(0.0, 1.0)] * n
    for index, value in program.fixed.items():
        bounds[index] = (float(value), float(value))
    for index, value in extra_fixed.items():
        bounds[index] = (float(value), float(value))

    result = optimize.linprog(
        c,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return None
    return float(result.fun) + program.objective_constant, np.asarray(result.x)


def _is_feasible_reference(program: BinaryProgram, x, tol: float = 1e-6) -> bool:
    """The seed's coefficient-at-a-time feasibility check."""
    for index, value in program.fixed.items():
        if abs(float(x[index]) - value) > tol:
            return False
    for constraint in program.constraints:
        lhs = sum(coeff * float(x[index]) for index, coeff in constraint.coeffs)
        if constraint.sense == "<=" and lhs > constraint.rhs + tol:
            return False
        if constraint.sense == ">=" and lhs < constraint.rhs - tol:
            return False
        if constraint.sense == "=" and abs(lhs - constraint.rhs) > tol:
            return False
    return True


def solve_reference(
    program: BinaryProgram,
    node_limit: int = 20000,
    time_limit: float | None = None,
) -> ILPSolution:
    """Seed branch & bound over per-call scipy LP relaxations."""
    start = time.perf_counter()
    root = _lp_relaxation(program, {})
    if root is None:
        raise InfeasibleError("LP relaxation is infeasible")

    counter = itertools.count()
    heap: list[tuple[float, int, dict[int, int], np.ndarray]] = [
        (root[0], next(counter), {}, root[1])
    ]
    best: ILPSolution | None = None
    nodes = 0

    while heap:
        bound, _, fixed, x = heapq.heappop(heap)
        if best is not None and bound >= best.objective - 1e-9:
            continue
        nodes += 1
        if nodes > node_limit or (
            time_limit is not None and time.perf_counter() - start > time_limit
        ):
            if best is not None:
                return best
            raise ILPTimeoutError(
                f"branch & bound exhausted its budget after {nodes} nodes "
                "without an incumbent"
            )

        fractional = [
            index
            for index in range(program.n_vars)
            if min(x[index], 1.0 - x[index]) > _INT_TOL
        ]
        if not fractional:
            candidate = np.round(x).astype(np.int8)
            if _is_feasible_reference(program, candidate):
                objective = program.objective_value(candidate)
                if best is None or objective < best.objective - 1e-9:
                    best = ILPSolution(candidate, objective, nodes)
            continue

        branch_var = max(fractional, key=lambda index: min(x[index], 1.0 - x[index]))
        for value in (0, 1):
            child_fixed = dict(fixed)
            child_fixed[branch_var] = value
            relaxed = _lp_relaxation(program, child_fixed)
            if relaxed is None:
                continue
            child_bound, child_x = relaxed
            if best is not None and child_bound >= best.objective - 1e-9:
                continue
            heapq.heappush(heap, (child_bound, next(counter), child_fixed, child_x))

    if best is None:
        raise InfeasibleError("no feasible 0-1 assignment exists")
    best.nodes_explored = nodes
    return best


def enumerate_optima_reference(
    program: BinaryProgram,
    max_solutions: int = 100,
    node_limit: int = 20000,
    time_limit: float | None = None,
) -> list[ILPSolution]:
    """Seed optimum enumeration: copy the program, add cuts one dict at a time."""
    first = solve_reference(program, node_limit=node_limit, time_limit=time_limit)
    solutions = [first]
    optimum = first.objective

    restricted = BinaryProgram()
    for index in range(program.n_vars):
        restricted.add_var(program.name(index))
    for index, value in program.fixed.items():
        restricted.fix(index, value)
    restricted.set_objective(program.objective, program.objective_constant)
    for constraint in program.constraints:
        restricted.add_constraint(
            dict(constraint.coeffs), constraint.sense, constraint.rhs
        )
    restricted.add_constraint(
        program.objective, "<=", optimum - program.objective_constant + 1e-6
    )

    while len(solutions) < max_solutions:
        last = solutions[-1].values
        coeffs: dict[int, float] = {}
        rhs = 1.0
        for index in range(restricted.n_vars):
            if last[index] > 0.5:
                coeffs[index] = -1.0
                rhs -= 1.0
            else:
                coeffs[index] = 1.0
        restricted.add_constraint(coeffs, ">=", rhs)
        try:
            nxt = solve_reference(
                restricted, node_limit=node_limit, time_limit=time_limit
            )
        except InfeasibleError:
            break
        if nxt.objective > optimum + 1e-6:
            break
        solutions.append(nxt)
    return solutions
