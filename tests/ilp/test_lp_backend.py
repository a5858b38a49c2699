"""Persistent HiGHS solver vs. the scipy ``linprog`` test oracle.

The cold persistent LP must return the same optimal vertices as the
seed's per-call ``linprog`` branch & bound (both are HiGHS underneath),
so :func:`solve` and :func:`enumerate_optima` match the oracle's
``solve_reference`` / ``enumerate_optima_reference``.

Exact parity (same optima in the same order, same node counts) holds
when the HiGHS models see the same rows in the same order.  ``linprog``
moves every equality row after all inequality rows, while the persistent
model keeps program order and appends cuts last; on degenerate programs
with equality rows that reordering can permute tied optima or change a
node count.  The randomized tests therefore pin exact parity on
inequality programs and the optimum *set* on mixed-sense programs.
"""

import numpy as np
import pytest

from repro.errors import ILPError, InfeasibleError
from repro.ilp import solver
from repro.ilp.model import BinaryProgram
from repro.ilp.solver import PersistentLP, _highs_core, enumerate_optima, solve
from tests.oracles.lp_linprog import (
    _lp_relaxation,
    enumerate_optima_reference,
    solve_reference,
)

pytestmark = pytest.mark.skipif(
    _highs_core is None, reason="HiGHS bindings unavailable"
)


def flip_program(n=6, target=2):
    """Minimize flips subject to Σ x_i = target (highly degenerate)."""
    program = BinaryProgram()
    for index in range(n):
        program.add_var(f"x{index}")
    program.set_objective({index: 1.0 for index in range(n)})
    program.add_constraint({index: 1.0 for index in range(n)}, "=", float(target))
    return program


def mixed_program():
    program = BinaryProgram()
    for index in range(4):
        program.add_var(f"x{index}")
    program.set_objective({0: 2.0, 1: 1.0, 2: 3.0, 3: 1.0}, constant=0.5)
    program.add_constraint({0: 1.0, 1: 1.0}, ">=", 1.0)
    program.add_constraint({2: 1.0, 3: 1.0}, ">=", 1.0)
    program.add_constraint({0: 1.0, 2: 1.0, 3: -1.0}, "<=", 1.0)
    return program


class TestVertexParity:
    @pytest.mark.parametrize("fixed", [{}, {0: 1}, {1: 0, 3: 1}])
    def test_cold_persistent_matches_linprog(self, fixed):
        program = mixed_program()
        reference = _lp_relaxation(program, fixed)
        persistent = PersistentLP(program).solve_relaxation(fixed)
        assert (reference is None) == (persistent is None)
        if reference is not None:
            assert persistent[0] == pytest.approx(reference[0], abs=1e-8)
            np.testing.assert_allclose(persistent[1], reference[1], atol=1e-8)

    def test_bounds_restored_after_solve(self):
        program = mixed_program()
        lp = PersistentLP(program)
        lp.solve_relaxation({0: 1})
        no_pin = lp.solve_relaxation({})
        reference = _lp_relaxation(program, {})
        np.testing.assert_allclose(no_pin[1], reference[1], atol=1e-8)

    def test_infeasible_returns_none(self):
        program = BinaryProgram()
        program.add_var("x")
        program.add_constraint({0: 1.0}, ">=", 2.0)
        assert PersistentLP(program).solve_relaxation({}) is None


class TestOracleEquivalence:
    def test_solve_agrees_with_oracle(self):
        program = mixed_program()
        fast = solve(program)
        slow = solve_reference(program)
        assert fast.objective == pytest.approx(slow.objective)
        np.testing.assert_array_equal(fast.values, slow.values)

    def test_enumeration_sequence_identical(self):
        program = flip_program(n=6, target=2)
        fast = enumerate_optima(program, max_solutions=10)
        slow = enumerate_optima_reference(program, max_solutions=10)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.objective == pytest.approx(b.objective)
            np.testing.assert_array_equal(a.values, b.values)

    def test_infeasible_program_raises(self):
        program = BinaryProgram()
        program.add_var("x")
        program.add_constraint({0: 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleError):
            solve(program)

    def test_missing_bindings_raise_typed_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_highs_core", None)
        with pytest.raises(ILPError, match=r"scipy >= 1\.15"):
            solve(mixed_program())
        with pytest.raises(ILPError, match=r"scipy >= 1\.15"):
            enumerate_optima(mixed_program())


def random_program(seed, senses):
    """A small random 0-1 program: 3-8 vars, 1-4 rows, an optional pin."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    program = BinaryProgram()
    for index in range(n):
        program.add_var(f"x{index}")
    program.set_objective(
        {i: float(rng.integers(0, 4)) for i in range(n) if rng.random() < 0.8},
        constant=float(rng.integers(0, 3)),
    )
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, n + 1))
        members = rng.choice(n, size=size, replace=False)
        coeffs = {int(i): float(rng.choice([-1.0, 1.0, 2.0])) for i in members}
        sense = senses[int(rng.integers(len(senses)))]
        program.add_constraint(coeffs, sense, float(rng.integers(-1, size + 1)))
    if rng.random() < 0.3:
        program.fix(int(rng.integers(n)), int(rng.integers(2)))
    return program


def outcome(fn, program, **kwargs):
    """(objective, values, nodes) per solution, or the typed failure."""
    try:
        found = fn(program, **kwargs)
    except ILPError as exc:
        return type(exc).__name__
    if isinstance(found, list):
        return [(s.objective, s.values.tolist(), s.nodes_explored) for s in found]
    return (found.objective, found.values.tolist(), found.nodes_explored)


class TestRandomizedOracleParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_inequality_programs_match_exactly(self, seed):
        program = random_program(seed, ("<=", ">="))
        assert outcome(solve, program) == outcome(solve_reference, program)
        assert outcome(
            enumerate_optima, program, max_solutions=50
        ) == outcome(enumerate_optima_reference, program, max_solutions=50)

    # Seeds 88, 215 and 247 are programs where the equality-row placement
    # permutes tied optima (88, 215) or changes a node count (247).
    @pytest.mark.parametrize("seed", [*range(40), 88, 215, 247])
    def test_mixed_sense_programs_match_optimum_set(self, seed):
        program = random_program(seed, ("<=", ">=", "="))
        fast, slow = outcome(solve, program), outcome(solve_reference, program)
        if isinstance(slow, str):
            assert fast == slow
            return
        assert fast[:2] == slow[:2]
        fast_all = outcome(enumerate_optima, program, max_solutions=50)
        slow_all = outcome(enumerate_optima_reference, program, max_solutions=50)
        assert sorted(s[:2] for s in fast_all) == sorted(s[:2] for s in slow_all)


class TestProgramPlumbing:
    def test_dense_constraint_matches_dict_form(self):
        sparse = flip_program()
        dense = flip_program()
        values = np.asarray([1.0, -1.0, 0.0, 2.0, 0.0, -1.0])
        sparse.add_constraint(
            {i: v for i, v in enumerate(values) if v != 0.0}, ">=", -1.0
        )
        dense.add_dense_constraint(values, ">=", -1.0)
        assert sparse.constraints[-1] == dense.constraints[-1]
        for a, b in zip(sparse.rows(), dense.rows()):
            np.testing.assert_array_equal(a, b)

    def test_clone_is_independent(self):
        program = flip_program()
        copy = program.clone()
        copy.add_constraint({0: 1.0}, "=", 1.0)
        assert len(copy.constraints) == len(program.constraints) + 1
        x = np.asarray([0, 1, 1, 0, 0, 0])
        assert program.is_feasible(x)
        assert not copy.is_feasible(x)

    def test_vectorized_feasibility(self):
        program = mixed_program()
        assert program.is_feasible(np.asarray([1, 0, 0, 1]))
        assert not program.is_feasible(np.asarray([0, 0, 0, 1]))
        program.fix(1, 1)
        assert not program.is_feasible(np.asarray([1, 0, 0, 1]))
