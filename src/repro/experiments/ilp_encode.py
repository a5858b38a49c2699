"""TwoStep ILP encode on fig6-shaped join provenance.

The fig6-shaped join workload (model inference on both sides of an
L ⋈ R equi-join, AND/OR predicate trees, COUNT/SUM/AVG aggregates) is
where TwoStep's encode step is heaviest: every candidate's condition
feeds the complaint, and the encoder linearizes the shared AND/OR
structure straight from the NodePool arrays — bulk aux-variable blocks,
CSR constraint blocks, and cross-complaint aux reuse keyed on stable pool
node ids.

For each scenario this experiment re-executes the plan per timing round
(so no round inherits another's caches), times ``make_encoder``
best-of-N, and reports program size and aux dedup.  The comparison with
the tree-walking encoder the programs are pinned to (speedup, program
identity, enumeration order) is a benchmark over the test oracle:
``benchmarks/test_bench_ilp_encode.py``.
"""

from __future__ import annotations

import time

import numpy as np

from ..complaints import TupleComplaint, ValueComplaint
from ..ilp import make_encoder
from ..relational import (
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
from .common import ExperimentResult


def build_join_database(
    n_left: int = 48, n_right: int = 32, n_keys: int = 8, seed: int = 0
) -> Database:
    """An L ⋈ R fig6-style database with a trained binary model."""
    from ..ml import LogisticRegression

    rng = np.random.default_rng(seed)
    n, d = 80, 4
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
                "features": rng.normal(size=(n_left, d)),
                "key": rng.integers(0, n_keys, size=n_left),
            },
        )
    )
    db.add_relation(
        Relation(
            "R",
            {
                "features": rng.normal(size=(n_right, d)),
                "key": rng.integers(0, n_keys, size=n_right),
                "weight": rng.uniform(0.5, 2.5, size=n_right),
            },
        )
    )
    db.add_model("m", model)
    return db


def _random_predicate(rng: np.random.Generator, depth: int):
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
        return Cmp("<", Col("R.weight"), Const(float(rng.uniform(1.0, 2.0))))
    children = [
        _random_predicate(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))
    ]
    kind = int(rng.integers(3))
    if kind == 0:
        return BoolAnd(children)
    if kind == 1:
        return BoolOr(children)
    return BoolNot(children[0])


def _filtered_join(rng: np.random.Generator, depth: int):
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
            _random_predicate(rng, depth),
        ]
    )
    return Filter(joined, predicate)


def build_scenarios(seed: int = 0, depth: int = 4):
    """(name, plan, complaints_fn) triples spanning the complaint shapes."""
    rng = np.random.default_rng(seed)

    def selection_complaints(result):
        n = len(result.relation)
        return [TupleComplaint(row_index=i) for i in range(min(4, n))]

    def count_complaints(result):
        current = float(result.relation.column("count")[0])
        return [
            ValueComplaint(
                column="count", op="<=", value=max(current - 1.0, 0.0), row_index=0
            )
        ]

    def grouped_complaints(result):
        out = []
        for row in range(min(4, len(result.relation))):
            count = float(result.relation.column("count")[row])
            total = float(result.relation.column("total")[row])
            mean = float(result.relation.column("mean")[row])
            out.append(
                ValueComplaint(
                    column="count", op="<=", value=count - 1.0, row_index=row
                )
            )
            out.append(
                ValueComplaint(
                    column="total", op=">=", value=0.5 * total, row_index=row
                )
            )
            out.append(
                ValueComplaint(
                    column="mean", op="<=", value=mean + 0.1, row_index=row
                )
            )
        return out

    selection = _filtered_join(rng, depth)
    count = Aggregate(
        _filtered_join(rng, depth), (), [AggSpec("count", None, "count")]
    )
    grouped = Aggregate(
        _filtered_join(rng, depth),
        ((Col("L.key"), "key"),),
        [
            AggSpec("count", None, "count"),
            AggSpec("sum", Col("R.weight"), "total"),
            AggSpec("avg", Col("R.weight"), "mean"),
        ],
    )
    return [
        ("selection", selection, selection_complaints),
        ("count", count, count_complaints),
        ("grouped_sum_avg", grouped, grouped_complaints),
    ]


def time_encode(executor, plan, complaints_fn, encode, rounds: int = 3):
    """Best-of-``rounds`` wall clock of ``encode(result, complaints)``.

    Every round encodes a fresh debug execution of ``plan``; returns the
    best time and the last round's encoder.
    """
    best = float("inf")
    encoder = None
    for _ in range(max(1, rounds)):
        fresh = executor.execute(plan, debug=True)
        complaints = complaints_fn(fresh)
        start = time.perf_counter()
        encoder = encode(fresh, complaints)
        encoder.program.n_constraints
        best = min(best, time.perf_counter() - start)
    return best, encoder


def run(
    n_left: int = 240,
    n_right: int = 160,
    n_keys: int = 8,
    depth: int = 4,
    rounds: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Encode wall clock, program size and aux dedup per complaint shape."""
    db = build_join_database(n_left=n_left, n_right=n_right, n_keys=n_keys, seed=seed)
    executor = Executor(db)
    result = ExperimentResult("ilp_encode")
    for name, plan, complaints_fn in build_scenarios(seed=seed, depth=depth):
        encode_s, encoder = time_encode(
            executor, plan, complaints_fn, make_encoder, rounds
        )
        created = encoder.aux_created
        reused = encoder.aux_reused
        touched = created + reused
        result.rows.append(
            {
                "scenario": name,
                "n_vars": encoder.program.n_vars,
                "n_rows": encoder.program.n_constraints,
                "encode_s": encode_s,
                "aux_created": created,
                "aux_reused": reused,
                "dedup_hit_rate": reused / touched if touched else 0.0,
            }
        )

    aggregate = [row for row in result.rows if row["scenario"] != "selection"]
    result.rows.append(
        {
            "scenario": "AGGREGATE_TOTAL",
            "n_vars": sum(row["n_vars"] for row in aggregate),
            "n_rows": sum(row["n_rows"] for row in aggregate),
            "encode_s": sum(row["encode_s"] for row in aggregate),
            "aux_created": sum(row["aux_created"] for row in aggregate),
            "aux_reused": sum(row["aux_reused"] for row in aggregate),
            "dedup_hit_rate": 0.0,
        }
    )
    result.notes.append(
        "encode_s = best-of-N make_encoder wall clock (bulk aux blocks + CSR "
        "constraint blocks) on a fresh debug execution per round."
    )
    result.notes.append(
        "selection is the complaint-sparse regime: a handful of tuple "
        "complaints touch a sliver of the pool, so the one-time pool "
        "canonicalization dominates.  AGGREGATE_TOTAL sums the count/grouped "
        "rows, where every candidate feeds the complaint."
    )
    return result
