"""Row-at-a-time tree provenance: the debug runtime the node arrays replace.

Test oracle only.  :class:`TreeExecutor` reruns a plan in debug mode the
way the seed did: every intermediate tuple carries its existence
condition as a :class:`~repro.relational.provenance.BoolExpr` tree built
row by row, every aggregate cell a ``NumExpr`` polynomial, and the
prediction cache and inference-site registry are probed one row at a
time.  Its :class:`~repro.relational.executor.QueryResult` objects carry
no node pool, so the tree-walking consumers take over downstream:
complaint ``is_satisfied``, :class:`~repro.ilp.encode.TiresiasEncoder`
(which ``make_encoder`` picks for pool-less results) and the interpreted
objective of :mod:`tests.oracles.relaxed_objective`.

:func:`tree_reference` swaps this runtime into the whole train-rank-fix
loop; every whole-loop tree replay goes through it.  :func:`lower_exprs`
lowers trees into a :class:`~repro.relational.compile.NodePool` so the
compiled sweeps can be compared against tree evaluation node for node.

Import it as ``tests.oracles.tree_provenance``: ``pytest.ini`` puts the
repo root on ``sys.path`` so ``tests/`` and ``benchmarks/`` share one
module.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import rain, rankers
from repro.errors import ProvenanceError, QueryError, SchemaError, UnsupportedQueryError
from repro.relational import provenance as prov
from repro.relational.algebra import Aggregate, AggSpec, Plan, Project, Scan
from repro.relational.compile import (
    FALSE_NODE,
    OP_ADD,
    OP_AND,
    OP_CONST,
    OP_DIV,
    OP_MUL,
    OP_NOT,
    OP_OR,
    TRUE_NODE,
    NodePool,
)
from repro.relational.context import QueryRuntime, TupleBatch
from repro.relational.executor import (
    ExecutionCache,
    Executor,
    GroupInfo,
    QueryResult,
    _key_sort_token,
)
from repro.relational.expressions import (
    _COMPARATORS,
    Arith,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Expr,
    ModelPredict,
    _safe_compare,
)
from repro.relational.schema import Relation

from .relaxed_objective import _children, interpreted_case_objectives

# -- symbolic expressions, one BoolExpr / NumExpr per tuple ----------------------


def symbolic_bool(
    expr: Expr, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    """Per-tuple boolean provenance of ``expr``."""
    if isinstance(expr, Cmp):
        return _cmp_bool(expr, batch, runtime)
    if isinstance(expr, BoolAnd):
        parts = [symbolic_bool(child, batch, runtime) for child in expr.children()]
        return [prov.and_(*row_parts) for row_parts in zip(*parts)]
    if isinstance(expr, BoolOr):
        parts = [symbolic_bool(child, batch, runtime) for child in expr.children()]
        return [prov.or_(*row_parts) for row_parts in zip(*parts)]
    if isinstance(expr, BoolNot):
        return [prov.not_(cond) for cond in symbolic_bool(expr.child, batch, runtime)]
    return _fold_bool(expr, batch, runtime)


def symbolic_num(
    expr: Expr, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.NumExpr]:
    """Per-tuple numeric provenance of ``expr``."""
    if isinstance(expr, ModelPredict):
        return _predict_num(expr, batch, runtime)
    if isinstance(expr, Arith) and expr.depends_on_model():
        return _arith_num(expr, batch, runtime)
    return _fold_num(expr, batch, runtime)


def _fold_bool(expr, batch, runtime) -> list[prov.BoolExpr]:
    if expr.depends_on_model():
        raise UnsupportedQueryError(
            f"cannot build boolean provenance for {expr!r}",
            feature=type(expr).__name__,
        )
    values = np.asarray(expr.eval(batch, runtime), dtype=bool)
    return [prov.const(bool(value)) for value in values]


def _fold_num(expr, batch, runtime) -> list[prov.NumExpr]:
    if expr.depends_on_model():
        raise UnsupportedQueryError(
            f"cannot build numeric provenance for {expr!r}",
            feature=type(expr).__name__,
        )
    values = np.asarray(expr.eval(batch, runtime), dtype=float)
    return [prov.ConstNum(float(value)) for value in values]


def _arith_num(expr: Arith, batch, runtime) -> list[prov.NumExpr]:
    left = symbolic_num(expr.left, batch, runtime)
    right = symbolic_num(expr.right, batch, runtime)
    if expr.op == "+":
        return [prov.add_(l, r) for l, r in zip(left, right)]
    if expr.op == "-":
        return [
            prov.add_(l, prov.mul_(prov.ConstNum(-1.0), r))
            for l, r in zip(left, right)
        ]
    if expr.op == "*":
        return [prov.mul_(l, r) for l, r in zip(left, right)]
    if expr.op == "/":
        return [prov.DivExpr(l, r) for l, r in zip(left, right)]
    raise UnsupportedQueryError(
        f"operator {expr.op!r} over model predictions is not supported",
        feature="arith-over-predict",
    )


def _predict_num(expr: ModelPredict, batch, runtime) -> list[prov.NumExpr]:
    classes = runtime.model_classes(expr.model_name)
    try:
        class_values = [(label, float(label)) for label in classes]
    except (TypeError, ValueError) as exc:
        raise UnsupportedQueryError(
            f"model {expr.model_name!r} has non-numeric classes; its "
            "predictions cannot appear in an arithmetic context",
            feature="predict-as-number",
        ) from exc
    return [
        prov.pred_value(site_id, class_values)
        for site_id in expr.site_ids(batch, runtime)
    ]


def _cmp_bool(expr: Cmp, batch, runtime) -> list[prov.BoolExpr]:
    left_model = expr.left.depends_on_model()
    right_model = expr.right.depends_on_model()
    if not left_model and not right_model:
        return _fold_bool(expr, batch, runtime)
    if isinstance(expr.left, ModelPredict) and not right_model:
        return _predict_vs_values(expr.left, expr.right, expr.op, batch, runtime)
    if isinstance(expr.right, ModelPredict) and not left_model:
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(expr.op, expr.op)
        return _predict_vs_values(expr.right, expr.left, flipped, batch, runtime)
    if isinstance(expr.left, ModelPredict) and isinstance(expr.right, ModelPredict):
        return _predict_vs_predict(expr, batch, runtime)
    raise UnsupportedQueryError(
        f"comparison {expr!r} mixes predictions into arithmetic; "
        "only direct comparisons of predict(...) are supported in WHERE",
        feature="cmp-over-predict",
    )


def _predict_vs_values(
    predict: ModelPredict, other: Expr, op: str, batch, runtime
) -> list[prov.BoolExpr]:
    classes = runtime.model_classes(predict.model_name)
    site_ids = predict.site_ids(batch, runtime)
    values = other.eval(batch, runtime)
    compare = _COMPARATORS[op]
    out: list[prov.BoolExpr] = []
    for site_id, value in zip(site_ids, values):
        value = value.item() if hasattr(value, "item") else value
        matching = [label for label in classes if _safe_compare(compare, label, value)]
        if len(matching) == len(classes):
            out.append(prov.TRUE)  # exhaustive: always satisfied
        else:
            out.append(
                prov.or_(*[prov.PredIs(site_id, label) for label in matching])
            )
    return out


def _predict_vs_predict(expr: Cmp, batch, runtime) -> list[prov.BoolExpr]:
    left: ModelPredict = expr.left  # type: ignore[assignment]
    right: ModelPredict = expr.right  # type: ignore[assignment]
    left_classes = runtime.model_classes(left.model_name)
    right_classes = runtime.model_classes(right.model_name)
    left_sites = left.site_ids(batch, runtime)
    right_sites = right.site_ids(batch, runtime)
    compare = _COMPARATORS[expr.op]
    out: list[prov.BoolExpr] = []
    for left_site, right_site in zip(left_sites, right_sites):
        if left_site == right_site:
            # Same base row on both sides: predict(x) op predict(x).
            matching = [c for c in left_classes if _safe_compare(compare, c, c)]
            if len(matching) == len(left_classes):
                out.append(prov.TRUE)
            else:
                out.append(
                    prov.or_(*[prov.PredIs(left_site, c) for c in matching])
                )
            continue
        disjuncts = [
            prov.and_(prov.PredIs(left_site, lc), prov.PredIs(right_site, rc))
            for lc in left_classes
            for rc in right_classes
            if _safe_compare(compare, lc, rc)
        ]
        out.append(prov.or_(*disjuncts))
    return out


# -- runtime and batches ---------------------------------------------------------


class TreeRuntime(QueryRuntime):
    """Debug runtime without a node pool; caches are probed row by row."""

    def __init__(self, database) -> None:
        super().__init__(database, debug=True)
        self.pool = None

    def predict(self, model_name, relation_name, row_ids, features) -> np.ndarray:
        model = self.model(model_name)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size == 0:
            return np.asarray([])
        known, labels = self._pred_store(
            model_name, relation_name, int(row_ids.max()) + 1
        )
        return self._predict_reference(model, known, labels, row_ids, features)

    def intern_sites(
        self, model_name, relation_name, row_ids, features=None
    ) -> np.ndarray:
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return self._intern_sites_reference(
            model_name, relation_name, row_ids, features
        )

    def _predict_reference(
        self,
        model,
        known: np.ndarray,
        labels: np.ndarray,
        row_ids: np.ndarray,
        features: np.ndarray,
    ) -> np.ndarray:
        """The seed's row-at-a-time cache probe."""
        missing_positions = [
            position
            for position, row_id in enumerate(row_ids)
            if not known[int(row_id)]
        ]
        if missing_positions:
            missing_features = features[missing_positions]
            predicted = model.predict(missing_features)
            for position, label in zip(missing_positions, predicted):
                cell = (
                    label.item()
                    if np.ndim(label) == 0 and hasattr(label, "item")
                    else label
                )
                labels[int(row_ids[position])] = cell
                known[int(row_ids[position])] = True
        return np.asarray([labels[int(row_id)] for row_id in row_ids])

    def _intern_sites_reference(
        self,
        model_name: str,
        relation_name: str,
        row_ids: np.ndarray,
        features: np.ndarray | None,
    ) -> np.ndarray:
        """The seed's site-at-a-time interning loop."""
        site_ids = []
        for position, row_id in enumerate(row_ids):
            site = self.sites.intern(model_name, relation_name, int(row_id))
            site_ids.append(site.site_id)
            self._grow_site_stores(len(self.sites))
            if features is not None and self._feat_rows[site.site_id] < 0:
                self._feat_blocks.append(np.asarray(features[position])[None])
                self._feat_cat = None
                self._feat_rows[site.site_id] = self._feat_total
                self._feat_total += 1
            if not self._labels_known[site.site_id]:
                try:
                    self._labels[site.site_id] = self.prediction_for_site(site.key)
                    self._labels_known[site.site_id] = True
                except QueryError:
                    pass
        return np.asarray(site_ids, dtype=np.int64)


class TreeBatch(TupleBatch):
    """A batch whose tuples carry per-row ``BoolExpr`` existence conditions."""

    def __init__(self, columns, alias_relations, alias_row_ids, conditions) -> None:
        super().__init__(columns, alias_relations, alias_row_ids)
        if len(conditions) != len(self):
            raise SchemaError(f"{len(conditions)} conditions for {len(self)} tuples")
        self._conditions = list(conditions)

    @classmethod
    def from_relation(cls, relation, alias: str) -> "TreeBatch":
        base = TupleBatch.from_relation(relation, alias)
        return cls(
            base.columns, base.alias_relations, base.alias_row_ids,
            [prov.TRUE] * len(relation),
        )

    @classmethod
    def paired(cls, left, right, left_index, right_index) -> "TreeBatch":
        base = TupleBatch.paired(left, right, left_index, right_index)
        conditions = [
            prov.and_(left._conditions[int(li)], right._conditions[int(ri)])
            for li, ri in zip(left_index, right_index)
        ]
        return cls(base.columns, base.alias_relations, base.alias_row_ids, conditions)

    def take(self, indices) -> "TreeBatch":
        base = TupleBatch.take(self, indices)
        return self.with_columns(
            base.columns, base.alias_row_ids,
            [self._conditions[int(i)] for i in np.asarray(indices, dtype=np.int64)],
        )

    def with_columns(self, columns, alias_row_ids, conditions) -> "TreeBatch":
        return TreeBatch(columns, self.alias_relations, alias_row_ids, conditions)

    def condition(self, index: int) -> prov.BoolExpr:
        return self._conditions[index]


# -- the executor ----------------------------------------------------------------


class TreeExecutor(Executor):
    """Debug-mode execution that builds provenance trees row by row.

    Scans, joins and aggregate keys reuse the library's plan walk; every
    step that builds or evaluates lineage is the seed's per-row code.
    Non-debug execution is the library's concrete path.
    """

    def execute(self, plan: Plan, debug: bool = True) -> QueryResult:
        if not debug:
            return super().execute(plan, debug=False)
        runtime = TreeRuntime(self.database)
        if isinstance(plan, Aggregate):
            return self._execute_aggregate_reference(plan, runtime)
        return self._finalize_spj(plan, self._eval(plan, runtime), runtime)

    def _eval_scan(self, plan: Scan, runtime) -> TreeBatch:
        relation = self.database.relation(plan.relation_name)
        return TreeBatch.from_relation(relation, plan.effective_alias)

    def _apply_predicate(self, batch: TreeBatch, predicate: Expr, runtime) -> TreeBatch:
        symbolic = symbolic_bool(predicate, batch, runtime)
        combined = [
            prov.and_(batch.condition(i), cond) for i, cond in enumerate(symbolic)
        ]
        keep = [i for i, cond in enumerate(combined) if not cond.is_false()]
        filtered = batch.take(np.asarray(keep, dtype=np.int64))
        return filtered.with_columns(
            filtered.columns, filtered.alias_row_ids, [combined[i] for i in keep]
        )

    def _eval_project(self, plan: Project, runtime) -> TreeBatch:
        batch = self._eval(plan.child, runtime)
        columns = {
            name: np.asarray(expr.eval(batch, runtime)) for expr, name in plan.items
        }
        return batch.with_columns(columns, batch.alias_row_ids, batch.conditions)

    def _finalize_spj(self, plan: Plan, batch: TreeBatch, runtime) -> QueryResult:
        assignment = runtime.current_assignment()
        conditions = [batch.condition(i) for i in range(len(batch))]
        alive = [i for i, cond in enumerate(conditions) if cond.evaluate(assignment)]
        concrete = batch.take(np.asarray(alive, dtype=np.int64))
        relation = Relation(
            "result",
            concrete.columns if concrete.columns else {"__empty__": np.zeros(0)},
            row_ids=np.arange(len(concrete)),
        )
        return QueryResult(
            relation=relation,
            runtime=runtime,
            candidate_batch=batch,
            candidate_conditions=conditions,
            output_to_candidate=alive,
            is_aggregate=False,
        )

    def _execute_aggregate_reference(
        self, plan: Aggregate, runtime: QueryRuntime
    ) -> QueryResult:
        batch = self._eval(plan.child, runtime)
        n_rows = len(batch)
        det_keys, model_keys = self._aggregate_keys(plan, batch, runtime)

        # Row membership: (deterministic key tuple, per-class condition).
        row_conditions = [batch.condition(i) for i in range(n_rows)]

        if model_keys:
            key_name, predict_expr = model_keys[0]
            classes = runtime.model_classes(predict_expr.model_name)
            site_ids = predict_expr.site_ids(batch, runtime)
        else:
            classes = None
            site_ids = None

        # Candidate groups: det-key combos present in the batch x classes.
        membership: dict[tuple, list[tuple[int, prov.BoolExpr]]] = {}
        for i in range(n_rows):
            det_part = tuple(
                values[i].item() if hasattr(values[i], "item") else values[i]
                for _, values in det_keys
            )
            if classes is None:
                key = det_part
                cond = row_conditions[i]
                membership.setdefault(key, []).append((i, cond))
            else:
                for label in classes:
                    key = det_part + (label,)
                    cond = prov.and_(
                        row_conditions[i], prov.PredIs(site_ids[i], label)
                    )
                    if cond.is_false():
                        continue
                    membership.setdefault(key, []).append((i, cond))

        # Global aggregate: exactly one group even with zero rows.
        if not plan.group_by and not membership:
            membership[()] = []

        agg_values = self._aggregate_arguments(plan.aggregates, batch, runtime)

        group_order = sorted(membership.keys(), key=_key_sort_token)
        group_infos: list[GroupInfo] = []
        for key in group_order:
            members = membership[key]
            condition = prov.or_(*[cond for _, cond in members]) if members else prov.FALSE
            if not plan.group_by:
                condition = prov.TRUE  # a global aggregate row always exists
            info = GroupInfo(key=key, condition=condition)
            for position, spec in enumerate(plan.aggregates):
                info.cell_polys[spec.name] = _aggregate_polynomial(
                    spec, position, members, agg_values
                )
            group_infos.append(info)

        assignment = runtime.current_assignment()
        # Concrete output: groups that currently exist.
        out_rows: list[int] = []
        for index, info in enumerate(group_infos):
            if not plan.group_by or info.condition.evaluate(assignment):
                out_rows.append(index)

        key_names = [name for name, _ in det_keys] + (
            [model_keys[0][0]] if model_keys else []
        )
        out_cells: dict[str, list] = {spec.name: [] for spec in plan.aggregates}
        out_keys: list[tuple] = []
        for index in out_rows:
            info = group_infos[index]
            out_keys.append(info.key)
            for spec in plan.aggregates:
                out_cells[spec.name].append(
                    info.cell_polys[spec.name].evaluate(assignment)
                )
        return self._build_output(
            plan, key_names, out_keys, out_cells, runtime, group_infos, out_rows
        )

    def _aggregate_arguments(
        self,
        aggregates: Sequence[AggSpec],
        batch: TupleBatch,
        runtime: QueryRuntime,
    ) -> dict[int, list[prov.NumExpr]]:
        """Per-aggregate numeric provenance of each input row."""
        out: dict[int, list[prov.NumExpr]] = {}
        for position, spec in enumerate(aggregates):
            if spec.arg is None:
                continue
            out[position] = symbolic_num(spec.arg, batch, runtime)
        return out


def _aggregate_polynomial(
    spec: AggSpec,
    position: int,
    members: list[tuple[int, prov.BoolExpr]],
    agg_values: dict[int, list[prov.NumExpr]],
) -> prov.NumExpr:
    """Provenance polynomial of one aggregate cell."""
    if spec.func == "count":
        return prov.LinearSum([(1.0, cond) for _, cond in members])
    values = agg_values[position]
    terms: list[prov.NumExpr] = []
    for row_index, cond in members:
        value = values[row_index]
        if cond.is_true():
            terms.append(value)
        else:
            terms.append(prov.mul_(prov.BoolAsNum(cond), value))
    total = prov.add_(*terms) if terms else prov.ConstNum(0.0)
    if spec.func == "sum":
        return total
    count = prov.LinearSum([(1.0, cond) for _, cond in members])
    return prov.DivExpr(total, count)


# -- the whole loop --------------------------------------------------------------


class TreeExecutionCache(ExecutionCache):
    """Never shares a result: the reference loop re-executes every case."""

    def fetch(self, plan: Plan, fingerprint: str | None = None) -> QueryResult:
        self.misses += 1
        return self.executor.execute(plan, debug=True)


def all_satisfied_tree(case_results) -> bool:
    """The complaint drain as a per-complaint tree walk."""
    return all(
        complaint.is_satisfied(result)
        for case, result in case_results
        for complaint in case.complaints
    )


@contextmanager
def tree_reference():
    """Run every :class:`~repro.core.rain.RainDebugger` on the tree reference.

    Inside the block the loop executes through :class:`TreeExecutor`
    (one execution per case, no plan dedup), drains complaints by tree
    walk, ranks Holistic with the interpreted objective and encodes
    TwoStep with the tree encoder.  Removal orders, per-iteration records
    and fitted parameters must equal the library loop's.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rain, "Executor", TreeExecutor)
        patch.setattr(rain, "ExecutionCache", TreeExecutionCache)
        patch.setattr(rain, "all_satisfied_columnar", all_satisfied_tree)
        patch.setattr(rankers, "batched_case_objectives", interpreted_case_objectives)
        yield


# -- lowering trees into a node pool ---------------------------------------------


def lower_exprs(pool: NodePool, exprs) -> np.ndarray:
    """Lower expression trees/DAGs into ``pool``; one root node per tree."""
    return np.asarray([lower_expr(pool, expr) for expr in exprs], dtype=np.int64)


def lower_expr(pool: NodePool, expr) -> int:
    """Lower one expression tree/DAG into ``pool``."""
    memo: dict[int, int] = {}
    post: list[object] = []
    stack: list[tuple[object, bool]] = [(expr, False)]
    seen: set[int] = set()
    while stack:
        node, processed = stack.pop()
        if processed:
            post.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in _children(node):
            if id(child) not in seen:
                stack.append((child, False))
    for node in post:
        if id(node) in memo:
            continue
        memo[id(node)] = _lower_one(pool, node, memo)
    return memo[id(expr)]


def _lower_one(pool: NodePool, node, memo: dict[int, int]) -> int:
    if isinstance(node, prov.TrueExpr):
        return TRUE_NODE
    if isinstance(node, prov.FalseExpr):
        return FALSE_NODE
    if isinstance(node, prov.PredIs):
        return pool.atom(node.site_id, node.label)
    if isinstance(node, prov.NotExpr):
        return pool._append_scalar(
            OP_NOT, children=(memo[id(node.child)],), is_bool=True
        )
    if isinstance(node, prov.AndExpr):
        return pool._append_scalar(
            OP_AND,
            children=[memo[id(child)] for child in node.children],
            is_bool=True,
        )
    if isinstance(node, prov.OrExpr):
        return pool._append_scalar(
            OP_OR,
            children=[memo[id(child)] for child in node.children],
            is_bool=True,
        )
    if isinstance(node, prov.ConstNum):
        return pool._append_scalar(OP_CONST, value=node.value)
    if isinstance(node, prov.BoolAsNum):
        # Identity under both discrete and relaxed semantics.
        return memo[id(node.expr)]
    if isinstance(node, prov.LinearSum):
        return pool._append_scalar(
            OP_ADD,
            children=[memo[id(cond)] for _, cond in node.terms],
            coeffs=[coeff for coeff, _ in node.terms],
        )
    if isinstance(node, prov.AddExpr):
        return pool._append_scalar(
            OP_ADD, children=[memo[id(child)] for child in node.children]
        )
    if isinstance(node, prov.MulExpr):
        return pool._append_scalar(
            OP_MUL, children=[memo[id(child)] for child in node.children]
        )
    if isinstance(node, prov.DivExpr):
        return pool._append_scalar(
            OP_DIV,
            children=(memo[id(node.numerator)], memo[id(node.denominator)]),
        )
    raise ProvenanceError(f"cannot compile node of type {type(node).__name__}")
