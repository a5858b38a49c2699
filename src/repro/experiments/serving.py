"""Multi-query serving workload (fig8's Adult substrate, scaled out).

The paper's multi-query experiment (Figure 8) serves two complaint cases;
a serving deployment fields many concurrent complaints — typically several
users complaining about different output cells of the *same* dashboard
queries.  This module builds that workload: one complaint case per
aggregate group of Q6 (``GROUP BY gender``) and Q7 (``GROUP BY
agedecade``), all sharing the income model — many cases, two distinct
plans.

``run`` measures the Rain loop's plan dedup end to end: the execute stage
collapses C case executions into P distinct-plan executions per iteration
(plan-fingerprint dedup), and Holistic evaluates one probability matrix
per distinct result instead of one per case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..complaints import ComplaintCase, ValueComplaint
from ..data import corrupt_labels, make_adult, section65_predicate
from ..ml import LogisticRegression
from ..relational import Database, Relation
from .common import ExperimentResult, run_method
from .fig8_multiquery import Q6, Q7


@dataclass
class ServingSetting:
    """A multi-case Adult serving workload over two distinct plans."""

    database: Database
    model: LogisticRegression
    X_train: np.ndarray
    y_corrupted: np.ndarray
    corrupted_indices: np.ndarray
    cases: list[ComplaintCase]
    n_distinct_plans: int


def build_serving_setting(
    flip_fraction: float = 0.5,
    n_train: int = 300,
    n_query: int = 2000,
    seed: int = 0,
) -> ServingSetting:
    """One complaint case per group of Q6 and Q7 — many cases, two plans."""
    ds = make_adult(n_train=n_train, n_query=n_query, seed=seed)
    predicate = section65_predicate(ds.y_train, ds.age_train, ds.gender_train)
    corruption = corrupt_labels(
        ds.y_train, predicate, 1, flip_fraction, rng=seed + 1
    )

    model = LogisticRegression((0, 1), n_features=ds.X_train.shape[1], l2=1e-3)
    model.fit(ds.X_train, corruption.y_corrupted, warm_start=False)

    database = Database()
    database.add_relation(
        Relation(
            "adult",
            {
                "features": ds.X_query,
                "gender": ds.gender_query,
                "agedecade": ds.age_query,
            },
        )
    )
    database.add_model("income", model)

    cases: list[ComplaintCase] = []
    for gender in sorted(np.unique(ds.gender_query).tolist()):
        truth = float(np.mean(ds.y_query[ds.gender_query == gender]))
        cases.append(
            ComplaintCase(
                Q6,
                [ValueComplaint(column="avg", op="=", value=truth,
                                group_key=(gender,))],
            )
        )
    for decade in sorted(int(d) for d in np.unique(ds.age_query)):
        truth = float(np.mean(ds.y_query[ds.age_query == decade]))
        cases.append(
            ComplaintCase(
                Q7,
                [ValueComplaint(column="avg", op="=", value=truth,
                                group_key=(decade,))],
            )
        )
    return ServingSetting(
        database=database,
        model=model,
        X_train=ds.X_train,
        y_corrupted=corruption.y_corrupted,
        corrupted_indices=corruption.corrupted_indices,
        cases=cases,
        n_distinct_plans=2,
    )


def run(
    flip_fraction: float = 0.5,
    n_train: int = 300,
    n_query: int = 2000,
    max_removals: int = 20,
    k_per_iteration: int = 10,
    seed: int = 0,
) -> ExperimentResult:
    """Holistic over the serving workload, plan dedup on.

    One row: wall-clock seconds and the execute stage's per-iteration
    dedup counters (``hits`` are executions saved, ``misses`` executions
    run); the removal order lands in ``series["removal_order"]``.
    """
    setting = build_serving_setting(
        flip_fraction, n_train=n_train, n_query=n_query, seed=seed
    )
    result = ExperimentResult("serving")
    start = time.perf_counter()
    report = run_method(
        setting.database,
        "income",
        setting.X_train,
        setting.y_corrupted,
        setting.cases,
        "holistic",
        max_removals=max_removals,
        k_per_iteration=k_per_iteration,
        seed=seed,
    )
    seconds = time.perf_counter() - start
    caches = [record.diagnostics["execute_cache"] for record in report.iterations]
    result.rows.append(
        {
            "n_cases": len(setting.cases),
            "distinct_plans": caches[0]["n_distinct_plans"],
            "hits": [cache["hits"] for cache in caches],
            "misses": [cache["misses"] for cache in caches],
            "seconds": seconds,
        }
    )
    result.series["removal_order"] = report.removal_order
    result.notes.append(
        "hits/misses per iteration: executions saved and run; each distinct "
        "plan executes once per iteration."
    )
    return result
