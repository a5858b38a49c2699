"""Randomized compiled-vs-tree equivalence on fig6-shaped join plans.

The hand-picked query shapes in ``test_executor_columnar`` pin each
operator once; here a seeded generator produces AND/OR-heavy predicates
over an L ⋈ R equi-join — the MNIST-join shape of the paper's Figure 6,
with ``predict(L) = predict(R)`` filters mixed into the boolean tree —
and every sampled plan must agree between the library's node arrays and
the tree-building oracle (``tests.oracles.tree_provenance``) on three
levels:

- the concrete output relation (exact);
- the relaxed complaint objective's value AND its θ-gradient to 1e-9,
  the library objective on the library result vs the interpreted oracle
  objective on the tree result;
- the complaint satisfied flag, tree walk vs columnar evaluation.
"""

import numpy as np
import pytest

from repro.complaints import (
    ComplaintCase,
    TupleComplaint,
    ValueComplaint,
    all_satisfied_columnar,
)
from repro.relational import (
    Aggregate,
    AggSpec,
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
from repro.relaxation import RelaxedComplaintObjective
from tests.oracles.relaxed_objective import InterpretedObjective
from tests.oracles.tree_provenance import TreeExecutor

SEEDS = list(range(8))


def relations_equal(left: Relation, right: Relation) -> None:
    assert left.column_names == right.column_names
    for name in left.column_names:
        a, b = left.column(name), right.column(name)
        assert len(a) == len(b)
        if np.issubdtype(np.asarray(a).dtype, np.number) and np.issubdtype(
            np.asarray(b).dtype, np.number
        ):
            np.testing.assert_allclose(
                np.asarray(a, dtype=float),
                np.asarray(b, dtype=float),
                equal_nan=True,
            )
        else:
            assert [str(v) for v in a] == [str(v) for v in b]


@pytest.fixture(scope="module")
def join_db():
    from repro.ml import LogisticRegression

    rng = np.random.default_rng(7)
    n, d = 60, 4
    X = rng.normal(size=(n, d))
    w = np.asarray([1.5, -2.0, 0.5, 0.0])
    y = (X @ w + 0.2 * rng.normal(size=n) > 0).astype(int)
    model = LogisticRegression((0, 1), n_features=d, l2=1e-2)
    model.fit(X, y, warm_start=False)

    db = Database()
    db.add_relation(
        Relation(
            "L",
            {
                "features": rng.normal(size=(30, d)),
                "key": rng.integers(0, 7, size=30),
            },
        )
    )
    db.add_relation(
        Relation(
            "R",
            {
                "features": rng.normal(size=(20, d)),
                "key": rng.integers(0, 7, size=20),
                "weight": np.linspace(1.0, 2.0, 20),
            },
        )
    )
    db.add_model("m", model)
    return db


def random_predicate(rng: np.random.Generator, depth: int):
    """A random boolean tree over predictions on both join sides."""
    if depth == 0:
        leaf = int(rng.integers(4))
        if leaf == 0:
            return Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                Const(int(rng.integers(2))),
            )
        if leaf == 1:
            return Cmp(
                "=",
                ModelPredict("m", Col("R.features")),
                Const(int(rng.integers(2))),
            )
        if leaf == 2:
            return Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            )
        return Cmp("<", Col("R.weight"), Const(float(rng.uniform(1.0, 2.0))))
    children = [
        random_predicate(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))
    ]
    kind = int(rng.integers(3))
    if kind == 0:
        return BoolAnd(children)
    if kind == 1:
        return BoolOr(children)
    return BoolNot(children[0])


def random_plan(rng: np.random.Generator):
    """A filtered equi-join, optionally under a COUNT/grouped aggregate."""
    joined = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
    # Always conjoin the fig6 predicate so every sampled plan has model
    # inference on both join sides, whatever the random tree drew.
    predicate = BoolAnd(
        [
            Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            ),
            random_predicate(rng, int(rng.integers(2, 4))),
        ]
    )
    filtered = Filter(joined, predicate)
    shape = int(rng.integers(3))
    if shape == 0:
        return filtered, "selection"
    if shape == 1:
        return (
            Aggregate(filtered, (), [AggSpec("count", None, "count")]),
            "count",
        )
    return (
        Aggregate(
            filtered,
            ((Col("L.key"), "key"),),
            [
                AggSpec("count", None, "count"),
                AggSpec("sum", Col("R.weight"), "total"),
            ],
        ),
        "grouped",
    )


def complaints_for(rng: np.random.Generator, result, shape):
    """Random complaints addressing the sampled plan's output."""
    if shape == "selection":
        if len(result.relation) == 0:
            return []
        return [
            TupleComplaint(row_index=int(rng.integers(len(result.relation))))
        ]
    if len(result.relation) == 0:
        return []
    ops = ("=", "<=", ">=")
    row = int(rng.integers(len(result.relation)))
    current = float(result.relation.column("count")[row])
    return [
        ValueComplaint(
            column="count",
            op=ops[int(rng.integers(3))],
            value=current + float(rng.integers(-1, 2)),
            row_index=row,
        )
    ]


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedCompiledVsTree:
    def test_sampled_plan_agrees_in_both_modes(self, join_db, seed):
        rng = np.random.default_rng(seed)
        plan, shape = random_plan(rng)
        executor = Executor(join_db)
        compiled = executor.execute(plan, debug=True)
        tree = TreeExecutor(executor.database).execute(plan)

        relations_equal(compiled.relation, tree.relation)
        # Site ids are assigned in registration order, which the two
        # executors need not share on join plans; compare the predicted
        # labels keyed by site identity instead.
        def keyed_assignment(result):
            assignment = result.assignment()
            return {
                (site.relation_name, site.row_id, site.model_name):
                    assignment[site.site_id]
                for site in result.runtime.sites
            }

        assert keyed_assignment(compiled) == keyed_assignment(tree)

        complaints = complaints_for(rng, tree, shape)
        if not complaints:
            return

        fast = RelaxedComplaintObjective(compiled, complaints)
        slow = InterpretedObjective(tree, complaints)
        assert fast.q_value() == pytest.approx(slow.q_value(), abs=1e-9)
        np.testing.assert_allclose(
            fast.q_grad_theta(), slow.q_grad_theta(), atol=1e-9
        )

        case = ComplaintCase(plan, complaints)
        assert all_satisfied_columnar([(case, compiled)]) == all(
            complaint.is_satisfied(tree) for complaint in complaints
        )
