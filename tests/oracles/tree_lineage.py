"""The library's node-id lineage seen as expression trees.

Test oracle only.  The library addresses provenance by node id into a
:class:`~repro.relational.compile.NodePool`; the tree-walking oracles
(the tree executor, :mod:`tests.oracles.tree_encoder`, the interpreted
objective of :mod:`tests.oracles.relaxed_objective`) read
:mod:`tests.oracles.tree_expr` trees instead.  This module bridges the two:

- :func:`to_expr` materializes a pool node as a tree.  Trees are cached
  per pool and node, so repeated calls — and shared subexpressions across
  calls — return the *same* objects, as the tree-building path shares
  DAG nodes; :func:`node_for_expr` maps a materialized tree back to its
  canonical node.
- :class:`TreeQueryResult` / :class:`TreeGroupInfo` are the result types
  with tree accessors (``cell_polynomial``, ``tuple_condition``,
  ``candidate_conditions``, ``GroupInfo.condition``/``cell_polys``).  The
  tree executor builds them with trees and no pool; :func:`tree_view`
  wraps a library result so its lineage materializes lazily.
- :func:`complaint_polynomial` / :func:`complaint_condition` /
  :func:`tree_is_satisfied` address and check complaints on trees.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence

from repro.complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
    _lineage_candidate,
    _value_satisfied,
)
from repro.errors import ComplaintError, ProvenanceError
from repro.relational.compile import (
    FALSE_NODE,
    OP_ADD,
    OP_AND,
    OP_ATOM,
    OP_CONST,
    OP_DIV,
    OP_MUL,
    OP_NOT,
    OP_OR,
    TRUE_NODE,
    NodePool,
)
from repro.relational.executor import GroupInfo, QueryResult

from . import tree_expr as prov

# -- materializing pool nodes as trees -------------------------------------------

# pool -> (node -> materialized expr, id(expr) -> canonical node).  The
# first dict holds a strong reference to every materialized expr for the
# pool's lifetime, so an id in the second can never be recycled.
_MEMO: "weakref.WeakKeyDictionary[NodePool, tuple[dict, dict]]" = (
    weakref.WeakKeyDictionary()
)


def _memo(pool: NodePool) -> tuple[dict, dict]:
    memo = _MEMO.get(pool)
    if memo is None:
        memo = ({}, {})
        _MEMO[pool] = memo
    return memo


def to_expr(pool: NodePool, node: int):
    """Materialize a pool node as an equivalent expression tree.

    The result is value-equivalent (and relaxation-equivalent) to the
    node; normalizations applied when the node was built (constant
    folding, identity elision) are not undone.
    """
    expr_cache, expr_nodes = _memo(pool)
    stack: list[tuple[int, bool]] = [(int(node), False)]
    while stack:
        current, processed = stack.pop()
        if current in expr_cache:
            continue
        start, end = pool._child_start[current], pool._child_end[current]
        children = pool._child[start:end]
        if not processed:
            stack.append((current, True))
            stack.extend(
                (child, False) for child in children if child not in expr_cache
            )
            continue
        obj = _materialize_one(pool, current, children, expr_cache)
        expr_cache[current] = obj
        # First-come registration: constant folding can alias several
        # nodes to one shared object, and the lowest-index node — the
        # first to materialize — is the canonical representative.
        expr_nodes.setdefault(id(obj), current)
    return expr_cache[int(node)]


def to_exprs(pool: NodePool, nodes: Sequence[int]) -> list:
    return [to_expr(pool, node) for node in nodes]


def node_for_expr(pool: NodePool, expr) -> int | None:
    """The canonical pool node a materialized tree came from, if any.

    Only trees produced by :func:`to_expr` (and their subtrees) are
    known; anything else returns ``None``.  Because registration is
    first-come, every expression object maps to the lowest-index node
    that materializes to it, giving a stable structural key shared by
    all aliases — the tree encoder uses it to dedup aux variables across
    complaints.
    """
    return _memo(pool)[1].get(id(expr))


def _materialize_one(pool: NodePool, node: int, children: list[int], memo: dict):
    op = pool._op[node]
    if node == FALSE_NODE:
        return prov.FALSE
    if node == TRUE_NODE:
        return prov.TRUE
    if op == OP_CONST:
        return prov.ConstNum(pool._value[node])
    if op == OP_ATOM:
        return prov.PredIs(pool._site[node], pool.labels[pool._label[node]])
    kids = [memo[child] for child in children]
    if op == OP_NOT:
        return prov.not_(kids[0])
    if op == OP_AND:
        return prov.and_(*kids)
    if op == OP_OR:
        return prov.or_(*kids)
    if op == OP_MUL:
        return prov.mul_(*[_as_num(kid) for kid in kids])
    if op == OP_DIV:
        return prov.DivExpr(_as_num(kids[0]), _as_num(kids[1]))
    if op == OP_ADD:
        start = pool._child_start[node]
        coeffs = pool._coeff[start : pool._child_end[node]]
        if all(isinstance(kid, prov.BoolExpr) for kid in kids):
            return prov.LinearSum(list(zip(coeffs, kids)))
        terms = []
        for coeff, kid in zip(coeffs, kids):
            value = _as_num(kid)
            if coeff != 1.0:
                value = prov.mul_(prov.ConstNum(coeff), value)
            terms.append(value)
        return prov.add_(*terms)
    raise ProvenanceError(f"unknown opcode {op}")


def _as_num(expr):
    return prov.BoolAsNum(expr) if isinstance(expr, prov.BoolExpr) else expr


# -- result types with tree accessors ----------------------------------------------


class TreeGroupInfo(GroupInfo):
    """A group whose condition and cells are trees.

    Built either with trees (``condition``/``cell_polys``, the tree
    executor) or with node ids, which then materialize lazily.
    """

    def __init__(
        self,
        key: tuple,
        condition: prov.BoolExpr | None = None,
        cell_polys: dict | None = None,
        condition_node: int | None = None,
        cell_nodes: dict | None = None,
        pool: NodePool | None = None,
    ) -> None:
        super().__init__(key, condition_node, cell_nodes, pool)
        self._condition = condition
        if cell_polys is None and condition_node is None:
            cell_polys = {}
        self._cell_polys = cell_polys

    @property
    def condition(self) -> prov.BoolExpr:
        if self._condition is None and self.condition_node is not None:
            self._condition = to_expr(self.pool, self.condition_node)
        return self._condition

    @property
    def cell_polys(self) -> dict:
        if self._cell_polys is None:
            self._cell_polys = {
                name: to_expr(self.pool, node) for name, node in self.cell_nodes.items()
            }
        return self._cell_polys


class TreeQueryResult(QueryResult):
    """A query result with tree accessors over its lineage."""

    def __init__(
        self,
        relation,
        runtime,
        candidate_conditions: list[prov.BoolExpr] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(relation, runtime, **kwargs)
        self._candidate_conditions = candidate_conditions

    @classmethod
    def of(cls, result: QueryResult) -> "TreeQueryResult":
        """``result`` itself if it has tree accessors, else a lazy tree view."""
        if isinstance(result, TreeQueryResult):
            return result
        groups = None
        if result.groups is not None:
            groups = [
                group
                if isinstance(group, TreeGroupInfo)
                else TreeGroupInfo(
                    group.key,
                    condition_node=group.condition_node,
                    cell_nodes=group.cell_nodes,
                    pool=group.pool,
                )
                for group in result.groups
            ]
        return cls(
            result.relation,
            result.runtime,
            candidate_batch=result.candidate_batch,
            output_to_candidate=result.output_to_candidate,
            groups=groups,
            output_to_group=result.output_to_group,
            is_aggregate=result.is_aggregate,
            candidate_cond_nodes=result.candidate_cond_nodes,
            pool=result.pool,
        )

    @property
    def candidate_conditions(self) -> list[prov.BoolExpr] | None:
        if self._candidate_conditions is None and self.candidate_cond_nodes is not None:
            self._candidate_conditions = to_exprs(self.pool, self.candidate_cond_nodes)
        return self._candidate_conditions

    def candidate_condition(self, index: int) -> prov.BoolExpr:
        if self.candidate_cond_nodes is not None:
            return to_expr(self.pool, int(self.candidate_cond_nodes[index]))
        return self._candidate_conditions[index]

    @staticmethod
    def _poly_lookup(group: TreeGroupInfo, column: str) -> prov.NumExpr:
        cells = group.cell_polys
        try:
            return cells[column]
        except KeyError:
            raise ProvenanceError(
                f"column {column!r} is not an aggregate output; "
                f"available: {sorted(cells)}"
            ) from None

    def cell_polynomial(self, row_index: int, column: str) -> prov.NumExpr:
        """Aggregate provenance polynomial for an output cell."""
        return self._poly_lookup(self._output_group(row_index), column)

    def group_polynomial_by_key(self, key: tuple, column: str) -> prov.NumExpr:
        """Aggregate polynomial looked up by group key (works for currently
        empty groups, which have no output row)."""
        return self._poly_lookup(self.group_by_key(key), column)

    def tuple_condition(self, row_index: int) -> prov.BoolExpr:
        """Existence condition of a concrete output tuple (SP/SPJ queries)."""
        self._require_debug()
        if self.is_aggregate:
            if self.groups is None or self.output_to_group is None:
                raise ProvenanceError("missing group metadata")
            return self.groups[self.output_to_group[row_index]].condition
        if self.output_to_candidate is None:
            raise ProvenanceError("missing candidate metadata")
        candidate = self.output_to_candidate[row_index]
        if self.candidate_cond_nodes is None and self._candidate_conditions is None:
            raise ProvenanceError("missing candidate metadata")
        return self.candidate_condition(candidate)


def tree_view(result: QueryResult) -> TreeQueryResult:
    """``result`` with tree accessors (see :meth:`TreeQueryResult.of`)."""
    return TreeQueryResult.of(result)


# -- complaints on trees -------------------------------------------------------------


def complaint_polynomial(complaint: ValueComplaint, result: QueryResult) -> prov.NumExpr:
    """The provenance polynomial of the complained-about cell."""
    view = tree_view(result)
    if complaint.group_key is not None:
        return view.group_polynomial_by_key(complaint.group_key, complaint.column)
    return view.cell_polynomial(complaint.row_index, complaint.column)


def complaint_condition(complaint: TupleComplaint, result: QueryResult) -> prov.BoolExpr:
    """The existence condition of the offending tuple."""
    view = tree_view(result)
    if complaint.group_key is not None:
        if view.groups is None:
            raise ComplaintError("group_key complaint on a non-aggregate result")
        for group in view.groups:
            if group.key == complaint.group_key:
                return group.condition
        raise ComplaintError(f"no group with key {complaint.group_key!r}")
    if complaint.lineage is not None:
        index = _lineage_candidate(view, complaint.lineage)
        if index is None:
            # The tuple is not even a candidate (deterministically
            # filtered): it can never exist, so the complaint is
            # vacuously satisfied.
            return prov.FALSE
        return view.candidate_condition(index)
    return view.tuple_condition(complaint.row_index)


def tree_current_value(complaint: ValueComplaint, result: QueryResult) -> float:
    return float(complaint_polynomial(complaint, result).evaluate(result.assignment()))


def tree_is_satisfied(complaint, result: QueryResult) -> bool:
    """A complaint's ``is_satisfied``, evaluated on its tree."""
    if isinstance(complaint, ValueComplaint):
        return _value_satisfied(complaint, tree_current_value(complaint, result))
    if isinstance(complaint, TupleComplaint):
        return not complaint_condition(complaint, result).evaluate(result.assignment())
    if isinstance(complaint, PredictionComplaint):
        return complaint.is_satisfied(result)
    raise ComplaintError(f"unknown complaint type {type(complaint).__name__}")


def all_satisfied_tree(case_results) -> bool:
    """The complaint drain as a per-complaint tree walk."""
    return all(
        tree_is_satisfied(complaint, result)
        for case, result in case_results
        for complaint in case.complaints
    )
