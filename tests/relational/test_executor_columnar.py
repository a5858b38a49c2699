"""Columnar executor vs. the tree-building oracle (``TreeExecutor``).

Every query shape the engine supports — selects, joins, projections,
COUNT/SUM/AVG aggregates, predictions as GROUP BY keys — is executed by
both; concrete outputs must match exactly and provenance must be
semantically equivalent (same values under the current assignment, same
relaxed values under random probability matrices).
"""

import numpy as np
import pytest

from repro.relational import (
    Aggregate,
    AggSpec,
    Arith,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Col,
    Const,
    Database,
    Executor,
    Filter,
    Join,
    ModelPredict,
    Relation,
    Scan,
)
from tests.oracles.relaxed_objective import Relaxer
from tests.oracles.tree_provenance import TreeExecutor


@pytest.fixture()
def executor(simple_db):
    return Executor(simple_db)


@pytest.fixture()
def join_db(fitted_binary_model):
    rng = np.random.default_rng(5)
    db = Database()
    db.add_relation(
        Relation(
            "L",
            {
                "features": rng.normal(size=(8, 4)),
                "key": np.asarray([0, 0, 1, 1, 2, 2, 3, 9]),
            },
        )
    )
    db.add_relation(
        Relation(
            "R",
            {
                "features": rng.normal(size=(6, 4)),
                "key": np.asarray([0, 1, 1, 2, 4, 9]),
                "weight": np.linspace(1.0, 2.0, 6),
            },
        )
    )
    db.add_model("m", fitted_binary_model)
    return db


def pred_filter(alias="R"):
    return Filter(
        Scan("R", alias), Cmp("=", ModelPredict("m", Col("features")), Const(1))
    )


QUERY_SHAPES = {
    "select": lambda: pred_filter(),
    "negated": lambda: Filter(
        Scan("R", "R"),
        BoolNot(Cmp("=", ModelPredict("m", Col("features")), Const(1))),
    ),
    "conjunction": lambda: Filter(
        Scan("R", "R"),
        BoolAnd(
            [
                Cmp("=", ModelPredict("m", Col("features")), Const(1)),
                Cmp("<", Col("id"), Const(20)),
            ]
        ),
    ),
    "disjunction": lambda: Filter(
        Scan("R", "R"),
        BoolOr(
            [
                Cmp("=", ModelPredict("m", Col("features")), Const(0)),
                Cmp("=", Col("flag"), Const(1)),
            ]
        ),
    ),
    "count": lambda: Aggregate(
        pred_filter(), (), [AggSpec("count", None, "count")]
    ),
    "grouped": lambda: Aggregate(
        pred_filter(),
        ((Col("flag"), "flag"),),
        [
            AggSpec("count", None, "count"),
            AggSpec("sum", Col("id"), "total"),
            AggSpec("avg", Col("id"), "mean"),
        ],
    ),
    "predict_group": lambda: Aggregate(
        Scan("R", "R"),
        ((ModelPredict("m", Col("features")), "label"),),
        [AggSpec("count", None, "count")],
    ),
    "sum_of_predict": lambda: Aggregate(
        Scan("R", "R"),
        (),
        [AggSpec("sum", ModelPredict("m", Col("features")), "total")],
    ),
    "arith_aggregate": lambda: Aggregate(
        Scan("R", "R"),
        (),
        [
            AggSpec(
                "sum",
                Arith("*", ModelPredict("m", Col("features")), Col("id")),
                "weighted",
            )
        ],
    ),
}


def relations_equal(left: Relation, right: Relation):
    assert left.column_names == right.column_names
    for name in left.column_names:
        a, b = left.column(name), right.column(name)
        assert len(a) == len(b)
        if np.issubdtype(np.asarray(a).dtype, np.number) and np.issubdtype(
            np.asarray(b).dtype, np.number
        ):
            np.testing.assert_allclose(
                np.asarray(a, dtype=float), np.asarray(b, dtype=float), equal_nan=True
            )
        else:
            assert [str(v) for v in a] == [str(v) for v in b]


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
class TestCompiledVsTree:
    def test_concrete_output_identical(self, executor, shape):
        plan = QUERY_SHAPES[shape]()
        compiled = executor.execute(plan, debug=True)
        tree = TreeExecutor(executor.database).execute(plan)
        relations_equal(compiled.relation, tree.relation)
        # Non-debug concrete execution matches too.
        plain = executor.execute(plan, debug=False)
        relations_equal(plain.relation, tree.relation)

    def test_provenance_semantically_equivalent(self, executor, simple_db, shape):
        plan = QUERY_SHAPES[shape]()
        compiled = executor.execute(plan, debug=True)
        tree = TreeExecutor(executor.database).execute(plan)
        assignment = tree.assignment()
        assert compiled.assignment() == assignment
        rng = np.random.default_rng(17)
        relaxer = Relaxer.for_model(simple_db.model("m"))
        n_sites = max(len(tree.runtime.sites), 1)
        P = rng.uniform(0.05, 0.95, size=(n_sites, 2))
        if compiled.is_aggregate:
            assert [g.key for g in compiled.groups] == [g.key for g in tree.groups]
            for got, want in zip(compiled.groups, tree.groups):
                assert got.condition.evaluate(assignment) == want.condition.evaluate(
                    assignment
                )
                assert relaxer.value(got.condition, P) == pytest.approx(
                    relaxer.value(want.condition, P), abs=1e-9
                )
                for column, poly in want.cell_polys.items():
                    got_value = got.cell_polys[column].evaluate(assignment)
                    want_value = poly.evaluate(assignment)
                    if np.isnan(want_value):
                        assert np.isnan(got_value)
                    else:
                        assert got_value == pytest.approx(want_value, abs=1e-9)
                    assert relaxer.value(got.cell_polys[column], P) == pytest.approx(
                        relaxer.value(poly, P), abs=1e-9
                    )
        else:
            assert len(compiled.candidate_batch) == len(tree.candidate_batch)
            assert compiled.output_to_candidate == tree.output_to_candidate
            for index in range(len(tree.candidate_batch)):
                got = compiled.candidate_conditions[index]
                want = tree.candidate_conditions[index]
                assert got.evaluate(assignment) == want.evaluate(assignment)
                assert relaxer.value(got, P) == pytest.approx(
                    relaxer.value(want, P), abs=1e-9
                )


class TestColumnarJoin:
    def equi_plan(self):
        return Join(
            Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
        )

    def test_join_pairs_match_reference(self, join_db):
        from repro.relational.executor import _hash_join, _hash_join_reference
        from repro.relational.context import QueryRuntime, TupleBatch

        runtime = QueryRuntime(join_db, debug=False)
        left = TupleBatch.from_relation(join_db.relation("L"), "L")
        right = TupleBatch.from_relation(join_db.relation("R"), "R")
        equi = [("L.key", "R.key")]
        fast = _hash_join(left, right, equi)
        slow = _hash_join_reference(left, right, equi)
        assert len(fast) == len(slow)
        np.testing.assert_array_equal(
            fast.alias_row_ids["L"], slow.alias_row_ids["L"]
        )
        np.testing.assert_array_equal(
            fast.alias_row_ids["R"], slow.alias_row_ids["R"]
        )

    def test_join_query_modes_agree(self, join_db):
        executor = Executor(join_db)
        plan = Filter(
            self.equi_plan(),
            Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            ),
        )
        compiled = executor.execute(plan, debug=True)
        tree = TreeExecutor(executor.database).execute(plan)
        relations_equal(compiled.relation, tree.relation)
        assignment = tree.assignment()
        assert len(compiled.candidate_batch) == len(tree.candidate_batch)
        for index in range(len(tree.candidate_batch)):
            assert compiled.candidate_conditions[index].evaluate(
                assignment
            ) == tree.candidate_conditions[index].evaluate(assignment)

    def test_empty_join_sides(self, join_db):
        executor = Executor(join_db)
        plan = Join(
            Filter(Scan("L", "L"), Cmp(">", Col("key"), Const(100))),
            Scan("R", "R"),
            Cmp("=", Col("L.key"), Col("R.key")),
        )
        for runner in (executor, TreeExecutor(executor.database)):
            result = runner.execute(plan, debug=True)
            assert len(result.relation) == 0


class TestReferenceParityEdgeCases:
    """Edge cases where vectorized numpy semantics could drift from the
    per-row reference: NaN keys and mixed-type comparisons."""

    @pytest.fixture()
    def nan_db(self, fitted_binary_model):
        rng = np.random.default_rng(9)
        db = Database()
        db.add_relation(
            Relation(
                "L", {"features": rng.normal(size=(2, 4)), "k": np.asarray([np.nan, 1.0])}
            )
        )
        db.add_relation(
            Relation(
                "S", {"features": rng.normal(size=(2, 4)), "k": np.asarray([np.nan, 1.0])}
            )
        )
        db.add_relation(
            Relation(
                "G",
                {
                    "features": rng.normal(size=(3, 4)),
                    "k": np.asarray([np.nan, np.nan, 1.0]),
                },
            )
        )
        db.add_model("m", fitted_binary_model)
        return db

    def test_nan_join_keys_never_match(self, nan_db):
        executor = Executor(nan_db)
        plan = Join(Scan("L", "L"), Scan("S", "S"), Cmp("=", Col("L.k"), Col("S.k")))
        for runner in (executor, TreeExecutor(executor.database)):
            result = runner.execute(plan, debug=True)
            assert len(result.relation) == 1  # only the 1.0 ⋈ 1.0 pair

    def test_nan_group_keys_stay_distinct(self, nan_db):
        executor = Executor(nan_db)
        plan = Aggregate(
            Scan("G", "G"), ((Col("k"), "k"),), [AggSpec("count", None, "count")]
        )
        compiled = executor.execute(plan, debug=True)
        tree = TreeExecutor(executor.database).execute(plan)
        assert len(compiled.groups) == len(tree.groups) == 3
        np.testing.assert_array_equal(
            compiled.relation.column("count"), tree.relation.column("count")
        )

    def test_mixed_dtype_join_keys_never_stringify(self, fitted_binary_model):
        # int 1 must not join str '1' (np.concatenate would promote both
        # sides to unicode; the reference dict probe keeps them distinct).
        rng = np.random.default_rng(11)
        db = Database()
        db.add_relation(
            Relation(
                "A", {"features": rng.normal(size=(3, 4)), "k": np.asarray([1, 2, 3])}
            )
        )
        db.add_relation(
            Relation(
                "B",
                {
                    "features": rng.normal(size=(3, 4)),
                    "k": np.asarray(["1", "2", "9"]),
                },
            )
        )
        db.add_model("m", fitted_binary_model)
        executor = Executor(db)
        plan = Join(Scan("A", "A"), Scan("B", "B"), Cmp("=", Col("A.k"), Col("B.k")))
        for runner in (executor, TreeExecutor(executor.database)):
            result = runner.execute(plan, debug=True)
            assert len(result.relation) == 0

    def test_mixed_type_comparison_falls_back_per_element(self, fitted_binary_model):
        rng = np.random.default_rng(10)
        db = Database()
        db.add_relation(
            Relation(
                "M",
                {
                    "features": rng.normal(size=(2, 4)),
                    "c": np.asarray([5, "z"], dtype=object),
                },
            )
        )
        db.add_model("m", fitted_binary_model)
        executor = Executor(db)
        plan = Filter(
            Scan("M", "M"), Cmp("<", ModelPredict("m", Col("features")), Col("c"))
        )
        compiled = executor.execute(plan, debug=True)
        tree = TreeExecutor(executor.database).execute(plan)
        assert len(compiled.candidate_batch) == len(tree.candidate_batch)
        assignment = tree.assignment()
        for index in range(len(tree.candidate_batch)):
            assert compiled.candidate_conditions[index].evaluate(
                assignment
            ) == tree.candidate_conditions[index].evaluate(assignment)


class TestEmptyInputs:
    def test_empty_relation_aggregate(self, fitted_binary_model):
        db = Database()
        db.add_relation(
            Relation("E", {"features": np.zeros((0, 4)), "value": np.zeros(0)})
        )
        db.add_model("m", fitted_binary_model)
        executor = Executor(db)
        plan = Aggregate(
            Scan("E", "E"),
            (),
            [
                AggSpec("count", None, "count"),
                AggSpec("sum", Col("value"), "total"),
                AggSpec("avg", Col("value"), "mean"),
            ],
        )
        for runner in (executor, TreeExecutor(executor.database)):
            result = runner.execute(plan, debug=True)
            assert result.relation.column("count")[0] == 0.0
            assert result.relation.column("total")[0] == 0.0
            assert np.isnan(result.relation.column("mean")[0])
