"""Label-fixing intervention (the Section 8 extension)."""

import numpy as np
import pytest

from repro.complaints import ComplaintCase, ValueComplaint
from repro.core.interventions import RelabelDebugger
from repro.errors import DebuggingError
from repro.ml import LogisticRegression
from repro.relational import Database, Executor, Relation, plan_sql


@pytest.fixture()
def relabel_setting():
    rng = np.random.default_rng(6)
    n, d = 100, 5
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y_clean = (X @ w > 0).astype(int)
    y = y_clean.copy()
    ones = np.flatnonzero(y_clean == 1)
    corrupted = ones[:15]
    y[corrupted] = 0

    model = LogisticRegression((0, 1), n_features=d, l2=1e-2)
    model.fit(X, y, warm_start=False)

    X_query = rng.normal(size=(50, d))
    truth = int(np.sum(X_query @ w > 0))
    db = Database()
    db.add_relation(Relation("Q", {"features": X_query}))
    db.add_model("m", model)
    case = ComplaintCase(
        "SELECT COUNT(*) FROM Q WHERE predict(*) = 1",
        [ValueComplaint(column="count", op="=", value=truth, row_index=0)],
    )
    return db, X, y, y_clean, corrupted, case


class TestRelabelDebugger:
    def test_flips_move_labels_toward_truth(self, relabel_setting):
        db, X, y, y_clean, corrupted, case = relabel_setting
        debugger = RelabelDebugger(db, "m", X, y, [case], method="holistic", rng=0)
        report = debugger.run(max_removals=15, k_per_iteration=5)
        assert report.method == "holistic+relabel"
        y_fixed = debugger.corrected_labels(report)
        # Flipping found-corrupted records restores their clean labels.
        agreement_before = np.mean(y[corrupted] == y_clean[corrupted])
        agreement_after = np.mean(y_fixed[corrupted] == y_clean[corrupted])
        assert agreement_after > agreement_before

    def test_never_flips_twice(self, relabel_setting):
        db, X, y, y_clean, corrupted, case = relabel_setting
        debugger = RelabelDebugger(db, "m", X, y, [case], method="holistic", rng=0)
        report = debugger.run(max_removals=20, k_per_iteration=7)
        assert len(set(report.removal_order)) == len(report.removal_order)

    def test_recall_comparable_to_deletion(self, relabel_setting):
        db, X, y, y_clean, corrupted, case = relabel_setting
        from repro.core import RainDebugger

        model = db.model("m")
        theta = model.get_params()
        relabel = RelabelDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=15, k_per_iteration=5
        )
        model.set_params(theta)
        delete = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=15, k_per_iteration=5
        )
        # Both interventions should find a similar share of the corruptions.
        assert relabel.auccr(corrupted) > 0.4
        assert abs(relabel.auccr(corrupted) - delete.auccr(corrupted)) < 0.5

    def test_cases_over_one_plan_execute_once(self, relabel_setting):
        db, X, y, y_clean, corrupted, case = relabel_setting
        lower_bound = ComplaintCase(
            case.query,
            [ValueComplaint(column="count", op=">=", value=1, row_index=0)],
        )
        report = RelabelDebugger(
            db, "m", X, y, [case, lower_bound], method="holistic", rng=0
        ).run(max_removals=10, k_per_iteration=5)
        assert len(report.iterations) == 2
        for record in report.iterations:
            cache = record.diagnostics["execute_cache"]
            assert cache["n_cases"] == 2 and cache["n_distinct_plans"] == 1
            assert (cache["hits"], cache["misses"]) == (1, 1)

    def test_budget_validation(self, relabel_setting):
        db, X, y, y_clean, corrupted, case = relabel_setting
        debugger = RelabelDebugger(db, "m", X, y, [case], method="holistic")
        with pytest.raises(DebuggingError):
            debugger.run(max_removals=0)

    def test_multiclass_fixed_label_is_alternative(self, relabel_setting):
        from repro.ml import SoftmaxRegression

        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.integers(3, size=30)
        model = SoftmaxRegression((0, 1, 2), n_features=4, l2=1e-2)
        model.fit(X, y, warm_start=False)
        db, _, _, _, _, case = relabel_setting
        db2 = Database()
        db2.add_relation(Relation("Q", {"features": rng.normal(size=(10, 4))}))
        db2.add_model("m", model)
        debugger = RelabelDebugger(db2, "m", X, y, [], method="loss")
        for index in range(10):
            fixed = debugger._fixed_label(index, y[index])
            assert fixed != y[index]
            assert fixed in (0, 1, 2)
