"""Relaxation: boolean consistency, exactness, gradients, q objectives."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.complaints import PredictionComplaint, TupleComplaint, ValueComplaint
from repro.errors import RelaxationError
from repro.relational import Database, Executor, Relation, plan_sql
from repro.relational import provenance as prov
from repro.relaxation import RelaxedComplaintObjective
from tests.oracles.relaxed_objective import Relaxer


def binary_relaxer(n_sites=4):
    return Relaxer({0: 0, 1: 1}, 2)


def degenerate_P(assignment, n_sites=4, n_classes=2):
    P = np.zeros((n_sites, n_classes))
    for site, label in assignment.items():
        P[site, label] = 1.0
    return P


class TestRelaxerForward:
    def test_atom_value(self):
        relaxer = binary_relaxer()
        P = np.asarray([[0.3, 0.7]] * 4)
        assert relaxer.value(prov.PredIs(2, 1), P) == pytest.approx(0.7)

    def test_and_is_product(self):
        relaxer = binary_relaxer()
        P = np.asarray([[0.5, 0.5], [0.2, 0.8], [0, 1], [0, 1]])
        expr = prov.and_(prov.PredIs(0, 1), prov.PredIs(1, 1))
        assert relaxer.value(expr, P) == pytest.approx(0.5 * 0.8)

    def test_or_is_inclusion_exclusion(self):
        relaxer = binary_relaxer()
        P = np.asarray([[0.5, 0.5], [0.2, 0.8], [0, 1], [0, 1]])
        expr = prov.or_(prov.PredIs(0, 1), prov.PredIs(1, 1))
        assert relaxer.value(expr, P) == pytest.approx(1 - 0.5 * 0.2)

    def test_not_is_complement(self):
        relaxer = binary_relaxer()
        P = np.asarray([[0.4, 0.6]] * 4)
        assert relaxer.value(prov.not_(prov.PredIs(0, 1)), P) == pytest.approx(0.4)

    def test_unknown_class_raises(self):
        relaxer = binary_relaxer()
        with pytest.raises(RelaxationError, match="not a model class"):
            relaxer.value(prov.PredIs(0, 99), np.ones((4, 2)))

    def test_avg_zero_denominator_raises(self):
        relaxer = binary_relaxer()
        expr = prov.DivExpr(
            prov.ConstNum(1.0), prov.LinearSum([(1.0, prov.PredIs(0, 1))])
        )
        P = np.asarray([[1.0, 0.0]] * 4)
        with pytest.raises(RelaxationError, match="denominator"):
            relaxer.value(expr, P)


class TestBooleanConsistency:
    """At degenerate probabilities the relaxation equals boolean semantics."""

    def exprs(self):
        a, b, c = prov.PredIs(0, 1), prov.PredIs(1, 1), prov.PredIs(2, 0)
        yield prov.and_(a, b)
        yield prov.or_(a, prov.not_(b))
        yield prov.or_(prov.and_(a, b), prov.and_(prov.not_(a), c))
        yield prov.LinearSum([(2.0, a), (1.0, prov.and_(b, c))])
        yield prov.DivExpr(
            prov.LinearSum([(1.0, a)]),
            prov.add_(prov.ConstNum(1.0), prov.BoolAsNum(b)),
        )

    def test_all_assignments_match(self):
        relaxer = binary_relaxer()
        for expr in self.exprs():
            for bits in itertools.product((0, 1), repeat=4):
                assignment = dict(enumerate(bits))
                P = degenerate_P(assignment)
                relaxed = relaxer.value(expr, P)
                exact = expr.evaluate(assignment)
                exact = float(exact) if isinstance(exact, bool) else exact
                assert relaxed == pytest.approx(exact), (expr, bits)


class TestExactExpectation:
    """Single-occurrence polynomials: relaxation = exact expectation."""

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_read_once_or(self, seed):
        rng = np.random.default_rng(seed)
        P = rng.uniform(0.05, 0.95, size=(3, 2))
        P = P / P.sum(axis=1, keepdims=True)
        expr = prov.or_(prov.PredIs(0, 1), prov.and_(prov.PredIs(1, 1), prov.PredIs(2, 0)))
        relaxer = binary_relaxer()
        relaxed = relaxer.value(expr, P)
        # Exact expectation by enumeration over independent sites.
        total = 0.0
        for bits in itertools.product((0, 1), repeat=3):
            probability = np.prod([P[i, bits[i]] for i in range(3)])
            if expr.evaluate(dict(enumerate(bits))):
                total += probability
        assert relaxed == pytest.approx(total, abs=1e-10)


class TestGradients:
    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        P = rng.uniform(0.1, 0.9, size=(4, 2))
        a, b, c, d = (prov.PredIs(i, 1) for i in range(4))
        expr = prov.LinearSum(
            [(1.5, prov.and_(a, b)), (-2.0, prov.or_(c, prov.not_(d))), (1.0, a)]
        )
        relaxer = binary_relaxer()
        value, grad = relaxer.value_and_grad(expr, P)
        eps = 1e-6
        for i in range(4):
            for j in range(2):
                Pp, Pm = P.copy(), P.copy()
                Pp[i, j] += eps
                Pm[i, j] -= eps
                fd = (relaxer.value(expr, Pp) - relaxer.value(expr, Pm)) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, abs=1e-6)

    def test_shared_subexpression_gradient(self):
        """DAG sharing: adjoints must accumulate, not overwrite."""
        relaxer = binary_relaxer()
        a = prov.PredIs(0, 1)
        shared = prov.and_(a, prov.PredIs(1, 1))
        expr = prov.add_(prov.BoolAsNum(shared), prov.BoolAsNum(shared))
        P = np.asarray([[0.4, 0.6], [0.7, 0.3], [0, 1], [0, 1]])
        value, grad = relaxer.value_and_grad(expr, P)
        assert value == pytest.approx(2 * 0.6 * 0.3)
        assert grad[0, 1] == pytest.approx(2 * 0.3)
        assert grad[1, 1] == pytest.approx(2 * 0.6)


class TestComplaintObjective:
    @pytest.fixture()
    def count_result(self, simple_db):
        plan = plan_sql("SELECT COUNT(*) FROM R WHERE predict(*) = 1", simple_db)
        return Executor(simple_db).execute(plan, debug=True)

    def test_value_complaint_q(self, count_result):
        current = count_result.scalar("count")
        complaint = ValueComplaint(
            column="count", op="=", value=current + 4, row_index=0
        )
        objective = RelaxedComplaintObjective(count_result, [complaint])
        q = objective.q_value()
        # Relaxed count ≈ sum of probabilities, near the hard count.
        assert q > 0
        relaxed_count = current + 4 - np.sqrt(q)
        assert abs(relaxed_count - current) < 4

    def test_satisfied_equality_complaint_small_q(self, count_result):
        # Equality at the relaxed value itself gives q exactly 0.
        probs = RelaxedComplaintObjective(
            count_result,
            [ValueComplaint(column="count", op="=", value=0, row_index=0)],
        ).probabilities()
        relaxed = float(probs[:, 1].sum())
        complaint = ValueComplaint(column="count", op="=", value=relaxed, row_index=0)
        objective = RelaxedComplaintObjective(count_result, [complaint])
        assert objective.q_value() == pytest.approx(0.0, abs=1e-12)

    def test_inequality_ignored_when_satisfied(self, count_result):
        current = count_result.scalar("count")
        complaint = ValueComplaint(
            column="count", op="<=", value=current + 10, row_index=0
        )
        objective = RelaxedComplaintObjective(count_result, [complaint])
        assert objective.q_value() == 0.0
        assert np.all(objective.q_grad_theta() == 0)

    def test_inequality_active_when_violated(self, count_result):
        current = count_result.scalar("count")
        complaint = ValueComplaint(
            column="count", op=">=", value=current + 5, row_index=0
        )
        objective = RelaxedComplaintObjective(count_result, [complaint])
        assert objective.q_value() > 0

    def test_q_grad_theta_matches_fd(self, count_result, simple_db):
        model = simple_db.model("m")
        current = count_result.scalar("count")
        complaint = ValueComplaint(
            column="count", op="=", value=current + 3, row_index=0
        )
        objective = RelaxedComplaintObjective(count_result, [complaint])
        grad = objective.q_grad_theta()
        theta = model.get_params()

        def q_at(t):
            model.set_params(t)
            try:
                P = model.predict_proba(objective.X_sites)
                value, _ = objective.q_value_and_pgrad(P)
                return value
            finally:
                model.set_params(theta)

        eps = 1e-6
        for index in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[index] += eps
            minus[index] -= eps
            fd = (q_at(plus) - q_at(minus)) / (2 * eps)
            assert grad[index] == pytest.approx(fd, abs=1e-5)

    def test_prediction_complaint_q(self, count_result):
        site = count_result.runtime.sites[0]
        current = count_result.runtime.prediction_for_site(site.key)
        complaint = PredictionComplaint("R", site.row_id, 1 - int(current))
        objective = RelaxedComplaintObjective(count_result, [complaint])
        assert objective.q_value() > 0.2  # (p - 1)² with p < ~0.55

    def test_tuple_complaint_q(self, simple_db):
        plan = plan_sql("SELECT * FROM R WHERE predict(*) = 1", simple_db)
        result = Executor(simple_db).execute(plan, debug=True)
        if len(result.relation) == 0:
            pytest.skip("no predicted-1 rows under this seed")
        objective = RelaxedComplaintObjective(result, [TupleComplaint(row_index=0)])
        q = objective.q_value()
        assert 0 < q <= 1.0

    def test_multiple_complaints_sum(self, count_result):
        current = count_result.scalar("count")
        c1 = ValueComplaint(column="count", op="=", value=current + 1, row_index=0)
        c2 = ValueComplaint(column="count", op="=", value=current + 2, row_index=0)
        q1 = RelaxedComplaintObjective(count_result, [c1]).q_value()
        q2 = RelaxedComplaintObjective(count_result, [c2]).q_value()
        q12 = RelaxedComplaintObjective(count_result, [c1, c2]).q_value()
        assert q12 == pytest.approx(q1 + q2)

    def test_requires_debug(self, simple_db):
        plan = plan_sql("SELECT COUNT(*) FROM R WHERE predict(*) = 1", simple_db)
        result = Executor(simple_db).execute(plan, debug=False)
        with pytest.raises(RelaxationError, match="debug"):
            RelaxedComplaintObjective(
                result, [ValueComplaint(column="count", op="=", value=1, row_index=0)]
            )
