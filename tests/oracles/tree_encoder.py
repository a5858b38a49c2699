"""The tree-walking TwoStep encoder: the programs the array encoder is pinned to.

Test oracle only.  :class:`TreeEncoder` builds the Tiresias 0-1 ILP the
seed's way: every complaint's cell polynomial or existence condition is
materialized as an expression tree (:mod:`tests.oracles.tree_lineage`)
and walked recursively, one ``add_var``/``add_constraint`` per AND/OR
node.  :class:`repro.ilp.encode.TiresiasEncoder` must emit a
byte-identical program — same variables, constraint rows, coefficient
order and right-hand sides — on every result.  ``TreeEncoder`` is
hash-pinned by GOLD001 (``src/repro/analysis/golden_paths.toml``).

It encodes both library results (aux variables of pool-materialized
trees are keyed on their canonical pool node, so dedup across complaints
matches the array encoder's) and the pool-less results of
:class:`tests.oracles.tree_provenance.TreeExecutor` (keyed on pinned
object identity).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
)
from repro.errors import ILPError
from repro.ilp.encode import TiresiasEncoder
from repro.ilp.model import BinaryProgram
from repro.ilp.solver import enumerate_optima

from . import tree_expr as prov
from .tree_lineage import complaint_condition, complaint_polynomial, node_for_expr

Affine = tuple[dict[int, float], float]


def make_tree_encoder(result, complaints: Sequence) -> "TreeEncoder":
    """``make_encoder`` on the tree walk."""
    encoder = TreeEncoder(result)
    encoder.add_complaints(complaints)
    return encoder


def program_signature(program: BinaryProgram) -> tuple:
    """Everything about a program but its variable names."""
    return (
        program.n_vars,
        tuple(sorted(program.objective.items())),
        program.objective_constant,
        tuple(
            (constraint.sense, constraint.rhs, tuple(constraint.coeffs))
            for constraint in program.constraints
        ),
    )


def optima_trace(program: BinaryProgram, max_solutions: int, node_limit: int) -> list:
    """Deterministic branch & bound outcome: optima trace or typed failure.

    No wall-clock limit — the node budget keeps the solver's behavior a
    pure function of the program, so identical programs must produce
    identical traces *including* identical failures.
    """
    try:
        solutions = enumerate_optima(
            program, max_solutions=max_solutions, node_limit=node_limit,
            time_limit=None,
        )
    except ILPError as exc:
        return [(type(exc).__name__, str(exc))]
    return [(s.objective, tuple(s.values.tolist())) for s in solutions]


class _ExprKey:
    """Identity key for an aux-cache entry that pins its expression alive.

    Keying the cache on a bare ``id(expr)`` is unsound for lazily built
    trees: once an expression is garbage collected its id can be reused by
    a *different* subexpression, silently merging the two.  The wrapper
    holds a strong reference (the cache keeps the key), so the id stays
    taken for as long as the entry exists.
    """

    __slots__ = ("expr",)

    def __init__(self, expr) -> None:
        self.expr = expr

    def __hash__(self) -> int:
        return hash(id(self.expr))

    def __eq__(self, other) -> bool:
        return isinstance(other, _ExprKey) and self.expr is other.expr


def _affine_add(a: Affine, b: Affine, scale: float = 1.0) -> Affine:
    coeffs = dict(a[0])
    for index, coeff in b[0].items():
        coeffs[index] = coeffs.get(index, 0.0) + scale * coeff
    return coeffs, a[1] + scale * b[1]


def _affine_scale(a: Affine, scale: float) -> Affine:
    return {index: coeff * scale for index, coeff in a[0].items()}, a[1] * scale


class TreeEncoder:
    """Builds the TwoStep ILP for one debug-mode query result by tree walk."""

    def __init__(self, result) -> None:
        if not result.debug:
            raise ILPError("TwoStep needs a debug-mode query result")
        self.result = result
        self.runtime = result.runtime
        self.program = BinaryProgram()

        self.site_ids = list(range(len(self.runtime.sites)))
        if not self.site_ids:
            raise ILPError("the query contains no model inference; nothing to fix")
        self.classes_by_site: dict[int, list] = {}
        self.current_labels: dict[int, object] = dict(
            enumerate(self.runtime.site_labels())
        )
        # (site_id, label) -> y variable index
        self.y_vars: dict[tuple[int, object], int] = {}
        # Aux-variable cache keyed by canonical pool node id when the
        # expression came from a pool, else by an identity key that keeps
        # the expression alive (see _aux_key / _ExprKey).
        self._aux_cache: dict[object, Affine] = {}
        self._pool = result.pool

        # One run of the site registry shares a model, so variables and
        # one-hot constraints are laid out run by run in bulk.
        classes_of_model: dict[str, list] = {}
        for start, model_name, _relation, rows in self.runtime.sites.runs():
            classes = classes_of_model.get(model_name)
            if classes is None:
                classes = self.runtime.model_classes(model_name)
                classes_of_model[model_name] = classes
            run_sites = range(start, start + rows.shape[0])
            names = [
                f"y[{site_id},{label}]" for site_id in run_sites for label in classes
            ]
            first = self.program.add_vars(names).start
            k = len(classes)
            self.y_vars.update(
                {
                    (site_id, label): first + offset * k + column
                    for offset, site_id in enumerate(run_sites)
                    for column, label in enumerate(classes)
                }
            )
            self.classes_by_site.update(dict.fromkeys(run_sites, classes))
            for offset in range(rows.shape[0]):
                base = first + offset * k
                self.program.add_constraint(
                    {base + column: 1.0 for column in range(k)}, "=", 1.0
                )

        # Objective: number of changed predictions.
        objective: dict[int, float] = {}
        constant = 0.0
        for site_id in self.site_ids:
            current = self.current_labels[site_id]
            objective[self.y_vars[(site_id, current)]] = -1.0
            constant += 1.0
        self.program.set_objective(objective, constant)

    # -- boolean linearization ---------------------------------------------------

    def _aux_key(self, expr: prov.BoolExpr) -> object:
        """Stable aux-cache key: canonical pool node id when known.

        Trees materialized from a pool share one canonical node per
        structurally-distinct subexpression, so node-id keys dedup exactly
        like the array encoder.  Everything else gets an identity wrapper
        that pins the object (``id()`` alone can be recycled after GC,
        merging distinct subexpressions).
        """
        if self._pool is not None:
            node = node_for_expr(self._pool, expr)
            if node is not None:
                return node
        return _ExprKey(expr)

    def bool_affine(self, expr: prov.BoolExpr) -> Affine:
        """Affine form whose value equals the boolean expression's truth."""
        if isinstance(expr, prov.TrueExpr):
            return {}, 1.0
        if isinstance(expr, prov.FalseExpr):
            return {}, 0.0
        if isinstance(expr, prov.PredIs):
            key = (expr.site_id, expr.label)
            if key not in self.y_vars:
                raise ILPError(f"atom {expr!r} refers to an unknown site/class")
            return {self.y_vars[key]: 1.0}, 0.0
        if isinstance(expr, prov.NotExpr):
            inner = self.bool_affine(expr.child)
            return _affine_add(({}, 1.0), inner, scale=-1.0)
        key = self._aux_key(expr)
        cached = self._aux_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, prov.AndExpr):
            affine = self._linearize_and(expr)
        elif isinstance(expr, prov.OrExpr):
            affine = self._linearize_or(expr)
        else:
            raise ILPError(f"cannot linearize {type(expr).__name__}")
        self._aux_cache[key] = affine
        return affine

    def _linearize_and(self, expr: prov.AndExpr) -> Affine:
        z = self.program.add_var(f"and_{len(self._aux_cache)}")
        children = [self.bool_affine(child) for child in expr.children]
        # z <= child_i  →  z - child_i <= 0
        for child in children:
            coeffs = {z: 1.0}
            for index, coeff in child[0].items():
                coeffs[index] = coeffs.get(index, 0.0) - coeff
            self.program.add_constraint(coeffs, "<=", child[1])
        # z >= Σ child_i - (k - 1)
        total: Affine = ({}, 0.0)
        for child in children:
            total = _affine_add(total, child)
        coeffs = {z: 1.0}
        for index, coeff in total[0].items():
            coeffs[index] = coeffs.get(index, 0.0) - coeff
        self.program.add_constraint(coeffs, ">=", total[1] - (len(children) - 1))
        return {z: 1.0}, 0.0

    def _linearize_or(self, expr: prov.OrExpr) -> Affine:
        z = self.program.add_var(f"or_{len(self._aux_cache)}")
        children = [self.bool_affine(child) for child in expr.children]
        # z >= child_i
        for child in children:
            coeffs = {z: 1.0}
            for index, coeff in child[0].items():
                coeffs[index] = coeffs.get(index, 0.0) - coeff
            self.program.add_constraint(coeffs, ">=", child[1])
        # z <= Σ child_i
        total: Affine = ({}, 0.0)
        for child in children:
            total = _affine_add(total, child)
        coeffs = {z: 1.0}
        for index, coeff in total[0].items():
            coeffs[index] = coeffs.get(index, 0.0) - coeff
        self.program.add_constraint(coeffs, "<=", total[1])
        return {z: 1.0}, 0.0

    # -- numeric linearization ------------------------------------------------------

    def num_affine(self, expr: prov.NumExpr) -> Affine:
        if isinstance(expr, prov.ConstNum):
            return {}, expr.value
        if isinstance(expr, prov.BoolAsNum):
            return self.bool_affine(expr.expr)
        if isinstance(expr, prov.LinearSum):
            total: Affine = ({}, 0.0)
            for coeff, cond in expr.terms:
                total = _affine_add(total, self.bool_affine(cond), scale=coeff)
            return total
        if isinstance(expr, prov.AddExpr):
            total = ({}, 0.0)
            for child in expr.children:
                total = _affine_add(total, self.num_affine(child))
            return total
        if isinstance(expr, prov.MulExpr):
            return self._linearize_product(expr)
        if isinstance(expr, prov.DivExpr):
            raise ILPError(
                "ratio polynomials must be handled at the complaint level "
                "(AVG complaints are cross-multiplied)"
            )
        raise ILPError(f"cannot linearize numeric node {type(expr).__name__}")

    def _linearize_product(self, expr: prov.MulExpr) -> Affine:
        constant = 1.0
        bools: list[prov.BoolExpr] = []
        linear_sums: list[prov.LinearSum] = []
        for child in expr.children:
            if isinstance(child, prov.ConstNum):
                constant *= child.value
            elif isinstance(child, prov.BoolAsNum):
                bools.append(child.expr)
            elif isinstance(child, prov.LinearSum):
                linear_sums.append(child)
            else:
                raise ILPError(
                    f"product over {type(child).__name__} is not linearizable"
                )
        if len(linear_sums) > 1:
            raise ILPError("products of two non-boolean sums are not linearizable")
        if not linear_sums:
            if not bools:
                return {}, constant
            conjunction = prov.and_(*bools)
            return _affine_scale(self.bool_affine(conjunction), constant)
        # boolean(s) × LinearSum: distribute over the sum's terms.
        linear = linear_sums[0]
        total: Affine = ({}, 0.0)
        for coeff, cond in linear.terms:
            conjunction = prov.and_(*bools, cond)
            total = _affine_add(total, self.bool_affine(conjunction), scale=coeff)
        return _affine_scale(total, constant)

    # -- complaints ---------------------------------------------------------------------

    def add_complaints(self, complaints: Sequence) -> None:
        for complaint in complaints:
            self.add_complaint(complaint)

    def add_complaint(self, complaint) -> None:
        if isinstance(complaint, ValueComplaint):
            poly = complaint_polynomial(complaint, self.result)
            if isinstance(poly, prov.DivExpr):
                # AVG: num / den op X  →  num - X·den op 0 (den ≥ 0).
                numerator = self.num_affine(poly.numerator)
                denominator = self.num_affine(poly.denominator)
                affine = _affine_add(numerator, denominator, scale=-complaint.value)
                self.program.add_constraint(affine[0], complaint.op, -affine[1])
                return
            affine = self.num_affine(poly)
            self.program.add_constraint(
                affine[0], complaint.op, complaint.value - affine[1]
            )
            return
        if isinstance(complaint, TupleComplaint):
            condition = complaint_condition(complaint, self.result)
            affine = self.bool_affine(condition)
            self.program.add_constraint(affine[0], "=", -affine[1])
            return
        if isinstance(complaint, PredictionComplaint):
            site_id = complaint.site_id(self.result)
            key = (site_id, complaint.label)
            if key not in self.y_vars:
                raise ILPError(f"{complaint.label!r} is not a class of the model")
            self.program.add_constraint({self.y_vars[key]: 1.0}, "=", 1.0)
            return
        raise ILPError(f"unknown complaint type {type(complaint).__name__}")

    # -- reading back solutions: the library's, over the same y layout -------------

    solution_targets = TiresiasEncoder.solution_targets
    marked_mispredictions = TiresiasEncoder.marked_mispredictions
    changed_count = TiresiasEncoder.changed_count
