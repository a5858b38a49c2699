"""Plan fingerprints and the per-iteration execution cache (plan dedup)."""

import pytest

from repro.core import RainDebugger
from repro.experiments.fig8_multiquery import build_adult_setting
from repro.relational import Executor, plan_sql
from repro.relational.algebra import plan_fingerprint
from repro.relational.executor import ExecutionCache


@pytest.fixture(scope="module")
def adult_setting():
    return build_adult_setting(0.5, n_train=200, n_query=300, seed=0)


class TestExecutionCache:
    def test_same_plan_executes_once(self, adult_setting):
        database = adult_setting.database
        executor = Executor(database)
        plan_a = plan_sql(
            "SELECT AVG(predict(*)) FROM adult GROUP BY gender", database
        )
        plan_b = plan_sql(
            "SELECT AVG(predict(*)) FROM adult GROUP BY gender", database
        )
        assert plan_a is not plan_b
        cache = ExecutionCache(executor)
        result_a = cache.fetch(plan_a)
        result_b = cache.fetch(plan_b)
        assert result_a is result_b
        assert cache.stats() == {"hits": 1, "misses": 1}
        # The shared pool is frozen exactly once and reused.
        assert result_a.pool.frozen() is result_b.pool.frozen()

    def test_execute_stage_dedups_and_keeps_case_order(self, adult_setting):
        setting = adult_setting
        cases = [setting.gender_case, setting.age_case, setting.gender_case]
        debugger = RainDebugger(
            setting.database, "income", setting.X_train, setting.y_corrupted,
            cases, method="holistic", rng=0,
        )
        case_results, stats = debugger._execute_stage()
        assert [case for case, _ in case_results] == cases
        assert case_results[0][1] is case_results[2][1]
        assert case_results[0][1] is not case_results[1][1]
        assert stats == {
            "n_cases": 3, "n_distinct_plans": 2, "hits": 1, "misses": 2,
        }


class TestPlanFingerprint:
    def test_same_sql_same_fingerprint(self, adult_setting):
        database = adult_setting.database
        sql = "SELECT AVG(predict(*)) FROM adult GROUP BY gender"
        assert plan_fingerprint(plan_sql(sql, database)) == plan_fingerprint(
            plan_sql(sql, database)
        )

    def test_distinct_plans_distinct_fingerprints(self, adult_setting):
        database = adult_setting.database
        prints = {
            plan_fingerprint(plan_sql(sql, database))
            for sql in (
                "SELECT AVG(predict(*)) FROM adult GROUP BY gender",
                "SELECT AVG(predict(*)) FROM adult GROUP BY agedecade",
                "SELECT COUNT(*) FROM adult WHERE predict(*) = 1",
                "SELECT COUNT(*) FROM adult GROUP BY gender",
            )
        }
        assert len(prints) == 4
