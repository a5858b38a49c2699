"""The RainDebugger train-rank-fix loop and ranker behaviours."""

import numpy as np
import pytest

from repro.complaints import ComplaintCase, PredictionComplaint, ValueComplaint
from repro.core import RainDebugger, make_ranker
from repro.core.rankers import (
    HolisticRanker,
    InfLossRanker,
    LossRanker,
    TwoStepRanker,
)
from repro.errors import DebuggingError
from repro.ilp import solver
from repro.experiments.common import build_dblp_setting
from repro.experiments.serving import build_serving_setting
from repro.ml import LogisticRegression
from repro.relational import Database, Relation
from tests.oracles.tree_provenance import tree_reference


@pytest.fixture()
def debug_setting():
    """A setting where a contiguous block of labels is corrupted."""
    rng = np.random.default_rng(42)
    n, d = 120, 6
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y_clean = (X @ w > 0).astype(int)
    y = y_clean.copy()
    # Systematic corruption: flip 20 records that are truly class 1.
    ones = np.flatnonzero(y_clean == 1)
    corrupted = ones[:20]
    y[corrupted] = 0

    model = LogisticRegression((0, 1), n_features=d, l2=1e-2)
    model.fit(X, y, warm_start=False)

    X_query = rng.normal(size=(60, d))
    y_query_true = (X_query @ w > 0).astype(int)
    db = Database()
    db.add_relation(Relation("Q", {"features": X_query}))
    db.add_model("m", model)
    sql = "SELECT COUNT(*) FROM Q WHERE predict(*) = 1"
    case = ComplaintCase(
        sql,
        [ValueComplaint(column="count", op="=",
                        value=int(y_query_true.sum()), row_index=0)],
    )
    return db, model, X, y, corrupted, case


class TestFactory:
    def test_known_methods(self):
        assert isinstance(make_ranker("loss"), LossRanker)
        assert isinstance(make_ranker("infloss"), InfLossRanker)
        assert isinstance(make_ranker("twostep"), TwoStepRanker)
        assert isinstance(make_ranker("holistic"), HolisticRanker)

    def test_unknown_method_raises(self):
        with pytest.raises(DebuggingError, match="unknown method"):
            make_ranker("magic")

    def test_kwargs_passed(self):
        ranker = make_ranker("twostep", ambiguity_cap=7)
        assert ranker.ambiguity_cap == 7


class TestDebuggerValidation:
    def test_complaint_methods_need_cases(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        with pytest.raises(DebuggingError, match="complaint"):
            RainDebugger(db, "m", X, y, [], method="holistic")

    def test_loss_without_cases_allowed(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [], method="loss")
        report = debugger.run(max_removals=10)
        assert len(report.removal_order) == 10

    def test_mismatched_shapes_raise(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        with pytest.raises(DebuggingError, match="rows"):
            RainDebugger(db, "m", X, y[:-1], [case])

    def test_bad_query_type_raises(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        bad = ComplaintCase.__new__(ComplaintCase)
        bad.query = 123
        bad.complaints = case.complaints
        with pytest.raises(DebuggingError, match="SQL text or a Plan"):
            RainDebugger(db, "m", X, y, [bad])

    def test_bad_budget_raises(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [case], method="holistic")
        with pytest.raises(DebuggingError):
            debugger.run(max_removals=0)
        with pytest.raises(DebuggingError):
            debugger.run(max_removals=10, k_per_iteration=-1)


class TestLoop:
    def test_holistic_finds_corruptions(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0)
        report = debugger.run(max_removals=20, k_per_iteration=5)
        assert report.method == "holistic"
        assert report.auccr(corrupted) > 0.6

    def test_holistic_beats_loss(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        theta = model.get_params()
        holistic = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=20, k_per_iteration=5
        )
        model.set_params(theta)
        loss = RainDebugger(db, "m", X, y, [case], method="loss", rng=0).run(
            max_removals=20, k_per_iteration=5
        )
        assert holistic.auccr(corrupted) > loss.auccr(corrupted)

    def test_removal_order_unique_and_valid(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        report = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=15, k_per_iteration=4
        )
        assert len(set(report.removal_order)) == len(report.removal_order)
        assert all(0 <= i < len(X) for i in report.removal_order)

    def test_iteration_records_and_timings(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        report = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=10, k_per_iteration=5
        )
        assert len(report.iterations) >= 2
        for record in report.iterations:
            if record.removed:
                assert set(record.timings) >= {"train", "execute", "encode", "rank"}
        assert report.timings["train"] > 0

    def test_stop_when_satisfied(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        current = None
        # Complain about the *current* value: satisfied immediately.
        from repro.relational import Executor, plan_sql

        result = Executor(db).execute(plan_sql(case.query, db), debug=True)
        current = result.scalar("count")
        satisfied_case = ComplaintCase(
            case.query,
            [ValueComplaint(column="count", op="=", value=current, row_index=0)],
        )
        debugger = RainDebugger(
            db, "m", X, y, [satisfied_case], method="holistic",
            stop_when_satisfied=True, rng=0,
        )
        report = debugger.run(max_removals=50)
        assert report.stopped_reason == "complaints_satisfied"
        assert report.removal_order == []

    def test_twostep_runs(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(
            db, "m", X, y, [case], method="twostep", rng=0,
            ranker_kwargs={"ambiguity_cap": 2, "time_limit": 15.0},
        )
        report = debugger.run(max_removals=10, k_per_iteration=5)
        assert report.method == "twostep"
        assert len(report.removal_order) > 0
        assert "ambiguity" in report.iterations[0].diagnostics

    def test_auto_prefers_holistic_for_ambiguous_count(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [case], method="auto", rng=0)
        assert debugger.choose_method() == "holistic"

    def test_auto_prefers_twostep_for_unique_fix(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        # A point complaint has a unique fix → TwoStep.
        result_site_row = 0
        point_case = ComplaintCase(
            case.query, [PredictionComplaint("Q", result_site_row, 1)]
        )
        debugger = RainDebugger(db, "m", X, y, [point_case], method="auto", rng=0)
        assert debugger.choose_method() == "twostep"

    @pytest.mark.parametrize("complaint", ["count", "point"])
    def test_auto_pick_ignores_the_wall_clock(self, debug_setting, monkeypatch, complaint):
        """On a slow machine ``auto`` picks the same method: the uniqueness
        probe is budgeted in branch & bound nodes, never in seconds."""
        db, model, X, y, corrupted, case = debug_setting
        if complaint == "point":
            case = ComplaintCase(case.query, [PredictionComplaint("Q", 0, 1)])
        expected = RainDebugger(db, "m", X, y, [case], method="auto", rng=0)
        expected = expected.choose_method()

        class JumpingClock:
            """Every read is 11 s after the previous one."""

            def __init__(self):
                self.now = 0.0

            def perf_counter(self):
                self.now += 11.0
                return self.now

        monkeypatch.setattr(solver, "time", JumpingClock())
        debugger = RainDebugger(db, "m", X, y, [case], method="auto", rng=0)
        assert debugger.choose_method() == expected

    def test_infloss_runs_small(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(
            db, "m", X, y, [case], method="infloss", rng=0,
            ranker_kwargs={"max_records": 30},
        )
        report = debugger.run(max_removals=5, k_per_iteration=5)
        assert len(report.removal_order) == 5

    def test_exhausting_training_set(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        small_X, small_y = X[:12], y[:12]
        report = RainDebugger(
            db, "m", small_X, small_y, [case], method="loss", rng=0
        ).run(max_removals=12, k_per_iteration=5)
        assert report.stopped_reason in ("exhausted", "budget")
        assert len(report.removal_order) == 12

    def test_multiple_cases_combined(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        report = RainDebugger(
            db, "m", X, y, [case, case], method="holistic", rng=0
        ).run(max_removals=10, k_per_iteration=5)
        assert len(report.removal_order) == 10


class TestStopping:
    """The loop's early exits besides the removal budget."""

    def test_stop_when_satisfied_vacuous_complaint(self):
        setting = build_dblp_setting(0.5, n_train=80, n_query=100, seed=2)
        # COUNT(*) over n_query rows can never exceed n_query: satisfied
        # from iteration one, so the loop stops without removing.
        vacuous = ComplaintCase(
            setting.query,
            [ValueComplaint(column="count", op="<=",
                            value=setting.X_query.shape[0], row_index=0)],
        )
        report = RainDebugger(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [vacuous], method="holistic", rng=0,
            stop_when_satisfied=True,
        ).run(max_removals=20)
        assert report.stopped_reason == "complaints_satisfied"
        assert report.removal_order == []
        assert report.iterations[-1].complaints_satisfied

    def test_stop_when_satisfied_keeps_going_while_unsatisfied(self):
        setting = build_dblp_setting(0.5, n_train=150, n_query=150, seed=0)
        initial = setting.model.get_params()
        try:
            report = RainDebugger(
                setting.database, setting.model_name, setting.X_train,
                setting.y_corrupted, [setting.case], method="holistic", rng=0,
                stop_when_satisfied=True,
            ).run(max_removals=20)
        finally:
            setting.model.set_params(initial)
        # Unsatisfied iterations remove records; the first satisfied one
        # stops the loop without removing any.
        assert report.removal_order
        removing = [record for record in report.iterations if record.removed]
        assert removing and not any(r.complaints_satisfied for r in removing)
        assert report.stopped_reason == "complaints_satisfied"
        assert report.iterations[-1].complaints_satisfied
        assert report.iterations[-1].removed == []

    def test_no_signal_stops_without_removing(self):
        setting = build_dblp_setting(0.5, n_train=40, n_query=60, seed=3)
        # Identical rows + identical labels: every per-sample loss ties,
        # so the ranker has no signal and the loop must refuse to remove
        # arbitrary records.
        X_flat = np.zeros_like(setting.X_train)
        y_const = setting.y_corrupted.copy()
        y_const[:] = "match"
        report = RainDebugger(
            setting.database, setting.model_name, X_flat, y_const,
            [setting.case], method="loss", rng=0,
        ).run(max_removals=10)
        assert report.stopped_reason == "no_signal"
        assert report.removal_order == []
        assert len(report.iterations) == 1
        assert report.iterations[0].removed == []

    def test_execute_failure_propagates(self, monkeypatch):
        setting = build_dblp_setting(0.5, n_train=60, n_query=80, seed=1)
        debugger = RainDebugger(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [setting.case], method="holistic", rng=0,
        )

        def boom(*args, **kwargs):
            raise RuntimeError("executor down")

        monkeypatch.setattr(debugger.executor, "execute", boom)
        with pytest.raises(RuntimeError, match="executor down"):
            debugger.run(max_removals=10)


def _cache_counters(report):
    return [
        (record.diagnostics["execute_cache"]["hits"],
         record.diagnostics["execute_cache"]["misses"])
        for record in report.iterations
    ]


class TestExecuteDedup:
    """``execute_cache`` counts executions run (misses) and saved (hits)."""

    @pytest.fixture(scope="class")
    def serving_setting(self):
        return build_serving_setting(0.5, n_train=120, n_query=300, seed=0)

    def _run(self, setting):
        initial = setting.model.get_params()
        try:
            return RainDebugger(
                setting.database, "income", setting.X_train,
                setting.y_corrupted, setting.cases, method="holistic", rng=0,
            ).run(max_removals=20, k_per_iteration=10)
        finally:
            setting.model.set_params(initial)

    def test_serving_setting_executes_each_plan_once(self, serving_setting):
        report = self._run(serving_setting)
        assert len(serving_setting.cases) == 12
        assert _cache_counters(report) == [(10, 2)] * len(report.iterations)
        cache = report.iterations[0].diagnostics["execute_cache"]
        assert cache["n_cases"] == 12
        assert cache["n_distinct_plans"] == 2

    def test_tree_provenance_never_dedups(self, serving_setting):
        deduped = self._run(serving_setting)
        with tree_reference():
            tree = self._run(serving_setting)
        assert _cache_counters(tree) == [(0, 12)] * len(tree.iterations)
        assert tree.removal_order == deduped.removal_order

    def test_single_case_dblp(self):
        setting = build_dblp_setting(0.5, n_train=60, n_query=80, seed=1)
        initial = setting.model.get_params()
        try:
            report = RainDebugger(
                setting.database, setting.model_name, setting.X_train,
                setting.y_corrupted, [setting.case], method="holistic", rng=0,
            ).run(max_removals=20, k_per_iteration=10)
        finally:
            setting.model.set_params(initial)
        assert _cache_counters(report) == [(0, 1)] * len(report.iterations)
