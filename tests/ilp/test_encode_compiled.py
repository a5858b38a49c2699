"""Array-vs-tree ILP encode equivalence on fig6-shaped join plans.

The array encoder :class:`~repro.ilp.encode.TiresiasEncoder` must produce
the *same program* as the tree-walking oracle
(:class:`tests.oracles.tree_encoder.TreeEncoder`) — same variables in the
same order, same constraint rows with the same coefficient order and
right-hand sides — because constraint/variable order changes which tied
optimum the solver enumerates first, and TwoStep removal orders must be
bit-identical whichever encoder builds the program.  A seeded generator
samples AND/OR-heavy predicates over an L ⋈ R equi-join (the MNIST-join
shape of the paper's Figure 6) under selection / COUNT / grouped SUM-AVG
shapes, plus SUM/AVG over ``predict()`` (global and grouped, with and
without a ``WHERE`` on predictions), and every sampled plan must agree on
four levels:

- the emitted :class:`BinaryProgram` (exact, up to variable *names*);
- feasibility verdicts on sampled 0/1 assignments;
- the optimal objective and the enumerated solution sequence;
- end-to-end TwoStep removal orders.

Every solver budget here is a node budget, never a wall clock, so each
side's outcome (optima or typed failure) is a function of the program
alone and identical programs must produce identical traces.
"""

import contextlib

import numpy as np
import pytest

from repro.complaints import ComplaintCase, TupleComplaint, ValueComplaint
from repro.core.rain import RainDebugger
from repro.errors import ILPError
from repro.ilp import TiresiasEncoder
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
    ModelPredict,
    Filter,
    Join,
    Relation,
    Scan,
)
from tests.oracles.tree_encoder import TreeEncoder, optima_trace, program_signature
from tests.oracles.tree_provenance import tree_reference

SEEDS = list(range(8))
# Per-solve branch & bound node budget for the parity checks.  Seeds 0-2,
# 4 and 5 enumerate their 8 optima within 22 nodes per solve and the
# removal-order runs within 1; seed 6 (860 vars) finds no incumbent and
# both encoders fail identically at the budget; seeds 3 and 7 skip.
PARITY_NODE_LIMIT = 200


@pytest.fixture(scope="module")
def join_db():
    from repro.ml import LogisticRegression

    rng = np.random.default_rng(23)
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
                "features": rng.normal(size=(24, d)),
                "key": rng.integers(0, 6, size=24),
            },
        )
    )
    db.add_relation(
        Relation(
            "R",
            {
                "features": rng.normal(size=(16, d)),
                "key": rng.integers(0, 6, size=16),
                # Deliberately includes weights that are exactly 1.0 and
                # pairs multiplying to exactly 1.0: the mul_() constant
                # folds alias those product terms, which the compiled
                # fresh-aux bookkeeping has to reproduce.
                "weight": np.concatenate(
                    [[1.0, 2.0, 0.5], np.linspace(1.0, 2.0, 13)]
                ),
            },
        )
    )
    db.add_model("m", model)
    return db


def random_predicate(rng, depth):
    if depth == 0:
        leaf = int(rng.integers(4))
        if leaf == 0:
            return Cmp(
                "=", ModelPredict("m", Col("L.features")), Const(int(rng.integers(2)))
            )
        if leaf == 1:
            return Cmp(
                "=", ModelPredict("m", Col("R.features")), Const(int(rng.integers(2)))
            )
        if leaf == 2:
            return Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            )
        return Cmp("<", Col("R.weight"), Const(float(rng.uniform(0.5, 2.0))))
    children = [
        random_predicate(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))
    ]
    kind = int(rng.integers(3))
    if kind == 0:
        return BoolAnd(children)
    if kind == 1:
        return BoolOr(children)
    return BoolNot(children[0])


def random_plan(rng):
    joined = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
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
                AggSpec("avg", Col("R.weight"), "mean"),
            ],
        ),
        "grouped",
    )


def complaints_for(rng, result, shape):
    relation = result.relation
    if len(relation) == 0:
        return []
    if shape == "selection":
        rows = rng.choice(
            len(relation), size=min(3, len(relation)), replace=False
        )
        return [TupleComplaint(row_index=int(row)) for row in rows]
    if shape == "count":
        current = float(relation.column("count")[0])
        return [
            ValueComplaint(column="count", op=">=", value=current + 1.0, row_index=0)
        ]
    out = []
    for row in range(min(2, len(relation))):
        count = float(relation.column("count")[row])
        total = float(relation.column("total")[row])
        mean = float(relation.column("mean")[row])
        out.append(
            ValueComplaint(column="count", op="<=", value=count - 1.0, row_index=row)
        )
        out.append(
            ValueComplaint(column="total", op=">=", value=0.5 * total, row_index=row)
        )
        out.append(
            ValueComplaint(column="mean", op="<=", value=mean + 0.1, row_index=row)
        )
    return out


def build_encoders(join_db, seed):
    rng = np.random.default_rng(seed)
    plan, shape = random_plan(rng)
    result = Executor(join_db).execute(plan, debug=True)
    complaints = complaints_for(rng, result, shape)
    if not complaints:
        pytest.skip("sampled plan produced an empty relation")
    tree = TreeEncoder(result)
    compiled = TiresiasEncoder(result)
    for complaint in complaints:
        tree.add_complaint(complaint)
        compiled.add_complaint(complaint)
    return tree, compiled, rng


@pytest.mark.parametrize("seed", SEEDS)
class TestCompiledVsTreeProgram:
    def test_identical_program(self, join_db, seed):
        tree, compiled, _ = build_encoders(join_db, seed)
        assert program_signature(tree.program) == program_signature(
            compiled.program
        )

    def test_same_feasible_set_on_sampled_assignments(self, join_db, seed):
        tree, compiled, rng = build_encoders(join_db, seed)
        n = tree.program.n_vars
        assert compiled.program.n_vars == n
        agreed_feasible = 0
        for _ in range(64):
            x = (rng.random(n) < 0.5).astype(float)
            verdict = tree.program.is_feasible(x)
            assert compiled.program.is_feasible(x) == verdict
            agreed_feasible += int(verdict)
        # Also probe assignments that satisfy the one-hot site rows, so
        # some sampled points exercise the complaint/link rows.
        for _ in range(16):
            x = np.zeros(n)
            for site_id in tree.site_ids:
                labels = tree.classes_by_site[site_id]
                pick = labels[int(rng.integers(len(labels)))]
                x[tree.y_vars[(site_id, pick)]] = 1.0
            assert tree.program.is_feasible(x) == compiled.program.is_feasible(x)

    def test_identical_optima_enumeration(self, join_db, seed):
        tree, compiled, _ = build_encoders(join_db, seed)
        assert optima_trace(
            tree.program, max_solutions=8, node_limit=PARITY_NODE_LIMIT
        ) == optima_trace(
            compiled.program, max_solutions=8, node_limit=PARITY_NODE_LIMIT
        )


class TestCrossComplaintDedup:
    def test_shared_subtrees_reuse_aux_vars(self, join_db):
        rng = np.random.default_rng(5)
        plan, _ = random_plan(rng)
        while True:
            result = Executor(join_db).execute(plan, debug=True)
            if result.groups is not None and len(result.relation) >= 1:
                break
            plan, _ = random_plan(rng)
        count = float(result.relation.column("count")[0])
        total = float(result.relation.column("total")[0])
        encoder = TiresiasEncoder(result)
        encoder.add_complaint(
            ValueComplaint(column="count", op="<=", value=count - 1.0, row_index=0)
        )
        created_first = encoder.aux_created
        # The SUM cell is built over the same member conditions the COUNT
        # complaint already linearized: the second complaint must reuse.
        encoder.add_complaint(
            ValueComplaint(column="total", op=">=", value=0.5 * total, row_index=0)
        )
        assert created_first > 0
        assert encoder.aux_reused > 0


class TestTwoStepRemovalOrders:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_removal_orders(self, join_db, seed):
        rng = np.random.default_rng(seed)
        while True:
            plan, shape = random_plan(rng)
            if shape != "selection":
                break
        result = Executor(join_db).execute(plan, debug=True)
        complaints = complaints_for(rng, result, shape)
        if not complaints:
            pytest.skip("sampled plan produced an empty relation")
        case = ComplaintCase(plan, complaints)
        X = join_db.relation("L").column("features")
        model = join_db.model("m")

        def run_with(path):
            rng_fit = np.random.default_rng(100 + seed)
            n, d = 40, 4
            X_train = rng_fit.normal(size=(n, d))
            y_train = (X_train @ np.asarray([1.5, -2.0, 0.5, 0.0]) > 0).astype(int)
            params = model.get_params()
            try:
                with path():
                    debugger = RainDebugger(
                        join_db,
                        "m",
                        X_train,
                        y_train,
                        [case],
                        method="twostep",
                        rng=seed,
                        ranker_kwargs={
                            "ambiguity_cap": 5,
                            "node_limit": PARITY_NODE_LIMIT,
                            "time_limit": None,
                        },
                    )
                    report = debugger.run(max_removals=6, k_per_iteration=2)
                    return list(report.removal_order)
            finally:
                model.set_params(params)

        assert run_with(tree_reference) == run_with(contextlib.nullcontext)
        assert X.shape[1] == 4


# -- SUM / AVG over predict() --------------------------------------------------

MODEL_VALUED_SHAPES = [
    (scope, where)
    for scope in ("global", "grouped")
    for where in ("where_predict", "no_where")
]


def model_valued_plan(rng, scope, where):
    """SUM/AVG of predictions over the join, optionally under a WHERE on them."""
    joined = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
    if where == "where_predict":
        source = Filter(joined, random_predicate(rng, int(rng.integers(1, 3))))
    else:
        source = Filter(
            joined, Cmp("<", Col("R.weight"), Const(float(rng.uniform(1.2, 2.0))))
        )
    aggregates = [
        AggSpec("count", None, "count"),
        AggSpec("sum", ModelPredict("m", Col("L.features")), "psum"),
        AggSpec("avg", ModelPredict("m", Col("R.features")), "pavg"),
    ]
    group_by = ((Col("L.key"), "key"),) if scope == "grouped" else ()
    return Aggregate(source, group_by, aggregates)


def model_valued_complaints(result):
    out = []
    for row in range(min(2, len(result.relation))):
        psum = float(result.relation.column("psum")[row])
        pavg = float(np.nan_to_num(result.relation.column("pavg")[row]))
        count = float(result.relation.column("count")[row])
        out.append(
            ValueComplaint(column="psum", op=">=", value=psum + 1.0, row_index=row)
        )
        out.append(
            ValueComplaint(column="pavg", op="<=", value=pavg - 0.1, row_index=row)
        )
        out.append(
            ValueComplaint(column="count", op="<=", value=count - 1.0, row_index=row)
        )
    return out


def build_model_valued_encoders(join_db, scope, where, seed):
    rng = np.random.default_rng(1000 + seed)
    result = Executor(join_db).execute(
        model_valued_plan(rng, scope, where), debug=True
    )
    complaints = model_valued_complaints(result)
    if not complaints:
        pytest.skip("sampled plan produced an empty relation")
    tree = TreeEncoder(result)
    compiled = TiresiasEncoder(result)
    for complaint in complaints:
        tree.add_complaint(complaint)
        compiled.add_complaint(complaint)
    return tree, compiled


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scope,where", MODEL_VALUED_SHAPES)
class TestModelValuedAggregates:
    def test_identical_program(self, join_db, scope, where, seed):
        tree, compiled = build_model_valued_encoders(join_db, scope, where, seed)
        assert program_signature(tree.program) == program_signature(
            compiled.program
        )

    def test_identical_optima_enumeration(self, join_db, scope, where, seed):
        tree, compiled = build_model_valued_encoders(join_db, scope, where, seed)
        assert optima_trace(
            tree.program, max_solutions=8, node_limit=PARITY_NODE_LIMIT
        ) == optima_trace(
            compiled.program, max_solutions=8, node_limit=PARITY_NODE_LIMIT
        )


def _predict(side):
    return ModelPredict("m", Col(f"{side}.features"))


ARITH_ARGS = {
    "times_const": lambda: Arith("*", _predict("L"), Const(2.0)),
    "weight_times": lambda: Arith("*", Col("R.weight"), _predict("L")),
    "minus": lambda: Arith("-", _predict("L"), _predict("R")),
    "plus_const": lambda: Arith("+", _predict("L"), Const(0.5)),
    "product": lambda: Arith("*", _predict("L"), _predict("R")),
    "ratio": lambda: Arith("/", _predict("L"), Const(2.0)),
}


@pytest.mark.parametrize("func", ["sum", "avg"])
@pytest.mark.parametrize("where", [False, True])
@pytest.mark.parametrize("arg", sorted(ARITH_ARGS))
def test_arithmetic_over_predict_matches_or_fails_like_the_tree(join_db, arg, where, func):
    """Same program, or the same ILPError message for non-linear shapes."""
    joined = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
    source = Filter(joined, Cmp("=", _predict("L"), Const(1))) if where else joined
    plan = Aggregate(
        source, ((Col("L.key"), "key"),), [AggSpec(func, ARITH_ARGS[arg](), "v")]
    )
    result = Executor(join_db).execute(plan, debug=True)
    complaint = ValueComplaint(column="v", op=">=", value=1.0, row_index=0)
    outcomes = []
    for encoder_cls in (TreeEncoder, TiresiasEncoder):
        encoder = encoder_cls(result)
        try:
            encoder.add_complaint(complaint)
        except ILPError as exc:
            outcomes.append(("ILPError", str(exc)))
        else:
            outcomes.append(program_signature(encoder.program))
    assert outcomes[0] == outcomes[1]


DETERMINISTIC_SUM_WHERES = {
    # a deterministically true WHERE: every member folds to a constant
    "always": lambda: BoolOr(
        [
            Cmp("<", Col("R.weight"), Const(10.0)),
            Cmp("=", _predict("L"), Const(1)),
        ]
    ),
    # members split into constants (weight < 1.5) and cond × weight products
    "partly_deterministic": lambda: BoolOr(
        [
            Cmp("<", Col("R.weight"), Const(1.5)),
            Cmp("=", _predict("L"), Const(1)),
        ]
    ),
    # AND conditions: weights ≠ 1 make fresh conjunctions, weights = 1 share
    "conjunctive": lambda: BoolAnd(
        [Cmp("=", _predict("L"), Const(1)), Cmp("=", _predict("R"), Const(0))]
    ),
}


@pytest.mark.parametrize("func", ["sum", "avg"])
@pytest.mark.parametrize("where", sorted(DETERMINISTIC_SUM_WHERES))
def test_sum_over_column_matches_the_tree(join_db, where, func):
    """SUM/AVG of a column over members that fold to constants or products."""
    source = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
    plan = Aggregate(
        Filter(source, DETERMINISTIC_SUM_WHERES[where]()), ((Col("L.key"), "key"),), [AggSpec(func, Col("R.weight"), "v")]
    )
    result = Executor(join_db).execute(plan, debug=True)
    complaints = [
        ValueComplaint(column="v", op="<=", value=1.0, row_index=row)
        for row in range(len(result.relation))
    ]
    tree = TreeEncoder(result)
    compiled = TiresiasEncoder(result)
    tree.add_complaints(complaints)
    compiled.add_complaints(complaints)
    assert program_signature(tree.program) == program_signature(compiled.program)
