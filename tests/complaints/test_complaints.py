"""Complaint model: validation, satisfaction checks, case bundling."""

import numpy as np
import pytest

from repro.complaints import (
    ComplaintCase,
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
    all_satisfied_columnar,
)
from repro.errors import ComplaintError
from repro.relational import Executor, plan_sql
from tests.oracles.tree_provenance import all_satisfied_tree as all_satisfied


@pytest.fixture()
def count_result(simple_db):
    plan = plan_sql("SELECT COUNT(*) FROM R WHERE predict(*) = 1", simple_db)
    return Executor(simple_db).execute(plan, debug=True)


@pytest.fixture()
def group_result(simple_db):
    plan = plan_sql("SELECT COUNT(*) FROM R GROUP BY predict(*)", simple_db)
    return Executor(simple_db).execute(plan, debug=True)


class TestValueComplaint:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ComplaintError, match="exactly one"):
            ValueComplaint(column="count", op="=", value=1)
        with pytest.raises(ComplaintError, match="exactly one"):
            ValueComplaint(column="count", op="=", value=1, row_index=0, group_key=(1,))

    def test_bad_op(self):
        with pytest.raises(ComplaintError, match="op"):
            ValueComplaint(column="count", op="<", value=1, row_index=0)

    def test_current_value(self, count_result):
        complaint = ValueComplaint(column="count", op="=", value=0, row_index=0)
        assert complaint.current_value(count_result) == count_result.scalar("count")

    def test_equality_satisfaction(self, count_result):
        current = count_result.scalar("count")
        assert ValueComplaint(
            column="count", op="=", value=current, row_index=0
        ).is_satisfied(count_result)
        assert not ValueComplaint(
            column="count", op="=", value=current + 1, row_index=0
        ).is_satisfied(count_result)

    def test_inequality_satisfaction(self, count_result):
        current = count_result.scalar("count")
        assert ValueComplaint(
            column="count", op="<=", value=current + 1, row_index=0
        ).is_satisfied(count_result)
        assert not ValueComplaint(
            column="count", op=">=", value=current + 1, row_index=0
        ).is_satisfied(count_result)

    def test_group_key_targeting(self, group_result):
        complaint = ValueComplaint(column="count", op=">=", value=0, group_key=(1,))
        assert complaint.is_satisfied(group_result)

    def test_group_key_reaches_empty_groups(self, group_result):
        # Both classes have candidate groups even if one is empty right now.
        for label in (0, 1):
            poly = ValueComplaint(
                column="count", op="=", value=0, group_key=(label,)
            ).polynomial(group_result)
            assert poly is not None


class TestTupleComplaint:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ComplaintError):
            TupleComplaint()
        with pytest.raises(ComplaintError):
            TupleComplaint(row_index=0, group_key=(1,))

    def test_unsatisfied_for_existing_tuple(self, simple_db):
        plan = plan_sql("SELECT * FROM R WHERE predict(*) = 1", simple_db)
        result = Executor(simple_db).execute(plan, debug=True)
        if len(result.relation) == 0:
            pytest.skip("no rows predicted 1")
        assert not TupleComplaint(row_index=0).is_satisfied(result)

    def test_group_tuple_complaint(self, group_result):
        existing_key = (int(group_result.relation.column("predict(*)")[0]),)
        complaint = TupleComplaint(group_key=existing_key)
        assert not complaint.is_satisfied(group_result)

    def test_missing_group_key_raises(self, group_result):
        with pytest.raises(ComplaintError, match="no group"):
            TupleComplaint(group_key=("nope",)).condition(group_result)


class TestPredictionComplaint:
    def test_site_resolution(self, count_result):
        site = count_result.runtime.sites[0]
        complaint = PredictionComplaint("R", site.row_id, 1)
        assert complaint.site_id(count_result) == site.site_id

    def test_missing_site_raises(self, count_result):
        with pytest.raises(ComplaintError, match="no inference site"):
            PredictionComplaint("ghost", 0, 1).site_id(count_result)

    def test_satisfaction_tracks_prediction(self, count_result):
        site = count_result.runtime.sites[0]
        current = count_result.runtime.prediction_for_site(site.key)
        assert PredictionComplaint("R", site.row_id, current).is_satisfied(count_result)
        assert not PredictionComplaint("R", site.row_id, 1 - int(current)).is_satisfied(
            count_result
        )


class TestComplaintCase:
    def test_empty_complaints_raise(self):
        with pytest.raises(ComplaintError, match="at least one"):
            ComplaintCase("SELECT 1", [])

    def test_all_satisfied(self, count_result):
        current = count_result.scalar("count")
        good = ComplaintCase(
            "q", [ValueComplaint(column="count", op="=", value=current, row_index=0)]
        )
        bad = ComplaintCase(
            "q", [ValueComplaint(column="count", op="=", value=current + 1, row_index=0)]
        )
        assert all_satisfied([(good, count_result)])
        assert not all_satisfied([(good, count_result), (bad, count_result)])


class TestColumnarSatisfied:
    """``all_satisfied_columnar`` agrees with the tree-walk oracle.

    The Rain loop's drain evaluates complaint satisfaction with one
    vectorized compiled forward per result instead of the tree walk;
    every complaint shape must produce the same flag.
    """

    def _agree(self, case_results) -> bool:
        tree = all_satisfied(case_results)
        assert all_satisfied_columnar(case_results) == tree
        return tree

    def test_value_complaints_all_ops(self, count_result):
        current = count_result.scalar("count")
        for op, value, expected in (
            ("=", current, True),
            ("=", current + 1, False),
            ("<=", current + 1, True),
            ("<=", current - 1, False),
            (">=", current - 1, True),
            (">=", current + 1, False),
        ):
            case = ComplaintCase(
                "q",
                [ValueComplaint(column="count", op=op, value=value, row_index=0)],
            )
            assert self._agree([(case, count_result)]) is expected

    def test_value_complaint_group_key(self, group_result):
        case = ComplaintCase(
            "q",
            [ValueComplaint(column="count", op=">=", value=0, group_key=(1,))],
        )
        assert self._agree([(case, group_result)]) is True

    def test_tuple_complaint_row_index(self, simple_db):
        plan = plan_sql("SELECT * FROM R WHERE predict(*) = 1", simple_db)
        result = Executor(simple_db).execute(plan, debug=True)
        if len(result.relation) == 0:
            pytest.skip("no rows predicted 1")
        case = ComplaintCase("q", [TupleComplaint(row_index=0)])
        assert self._agree([(case, result)]) is False

    def test_tuple_complaint_group_key(self, group_result):
        existing_key = (int(group_result.relation.column("predict(*)")[0]),)
        case = ComplaintCase("q", [TupleComplaint(group_key=existing_key)])
        assert self._agree([(case, group_result)]) is False

    def test_tuple_complaint_lineage(self, simple_db):
        plan = plan_sql("SELECT * FROM R WHERE predict(*) = 1", simple_db)
        result = Executor(simple_db).execute(plan, debug=True)
        batch = result.candidate_batch
        candidate_row = int(batch.alias_row_ids["R"][0])
        case = ComplaintCase(
            "q", [TupleComplaint.for_lineage(R=candidate_row)]
        )
        self._agree([(case, result)])

    def test_tuple_complaint_lineage_vacuous(self, simple_db):
        # flag = 1 deterministically filters odd rows before prediction:
        # a lineage complaint on a filtered row is vacuously satisfied in
        # both representations (tree: prov.FALSE; columnar: no node).
        plan = plan_sql(
            "SELECT * FROM R WHERE flag = 1 AND predict(*) = 1", simple_db
        )
        result = Executor(simple_db).execute(plan, debug=True)
        filtered_row = 1  # flag is 0 on odd ids
        assert filtered_row not in set(
            np.asarray(result.candidate_batch.alias_row_ids["R"]).tolist()
        )
        case = ComplaintCase("q", [TupleComplaint.for_lineage(R=filtered_row)])
        assert self._agree([(case, result)]) is True

    def test_prediction_complaint_falls_back(self, count_result):
        site = count_result.runtime.sites[0]
        current = count_result.runtime.prediction_for_site(site.key)
        good = ComplaintCase(
            "q", [PredictionComplaint("R", site.row_id, current)]
        )
        bad = ComplaintCase(
            "q", [PredictionComplaint("R", site.row_id, 1 - int(current))]
        )
        assert self._agree([(good, count_result)]) is True
        assert self._agree([(bad, count_result)]) is False

    def test_mixed_cases_over_multiple_results(self, count_result, group_result):
        current = count_result.scalar("count")
        cases = [
            (
                ComplaintCase(
                    "q",
                    [
                        ValueComplaint(
                            column="count", op="=", value=current, row_index=0
                        )
                    ],
                ),
                count_result,
            ),
            (
                ComplaintCase(
                    "q",
                    [
                        ValueComplaint(
                            column="count", op=">=", value=0, group_key=(1,)
                        )
                    ],
                ),
                group_result,
            ),
        ]
        assert self._agree(cases) is True
        cases.append(
            (
                ComplaintCase(
                    "q",
                    [
                        ValueComplaint(
                            column="count", op="=", value=current + 1, row_index=0
                        )
                    ],
                ),
                count_result,
            )
        )
        assert self._agree(cases) is False
