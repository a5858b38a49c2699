"""Complaint → differentiable objective ``q(θ)`` (Section 5.3.2).

Given a debug-mode :class:`~repro.relational.executor.QueryResult` and the
complaints raised against it, this module constructs::

    q(θ) = Σ_complaints (rq(θ) - X)²        for value complaints
         + Σ_complaints (rq_t(θ) - 0)²      for tuple complaints
         + Σ_complaints (p_label(θ) - 1)²   for prediction complaints

where every ``rq`` is the relaxed provenance polynomial evaluated on the
model's class probabilities at the query's inference sites.  Inequality
value complaints are treated as equalities only while violated, matching
the paper's train-rank-fix handling.

Every complaint's polynomial is a root of one
:class:`~repro.relational.compile.CompiledProvenance` program over the
executor's node ids.  One vectorized forward pass produces all relaxed
values; the residual-weighted seed is pushed through one reverse sweep, so
the whole complaint set costs two batched array passes regardless of how
many complaints there are.  A per-complaint tree-walking objective is kept
outside the library as the test oracle this sweep is pinned to.

``∇_θ q`` is then ``prob_vjp(X_sites, ∂q/∂P)`` — one weighted backward
pass in the model.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
    _complaint_node,
)
from ..errors import RelaxationError
from ..relational.compile import FALSE_NODE, CompiledProvenance
from ..relational.executor import QueryResult


class RelaxedComplaintObjective:
    """The differentiable q(θ) for one query's complaint set."""

    def __init__(self, result: QueryResult, complaints: Sequence) -> None:
        if not result.debug:
            raise RelaxationError("Holistic needs a debug-mode query result")
        self.result = result
        self.complaints = list(complaints)
        self.runtime = result.runtime

        site_ids = list(range(len(self.runtime.sites)))
        if not site_ids:
            raise RelaxationError(
                "the query contains no model inference; nothing to debug"
            )
        model_names = self.runtime.sites.model_names()
        if len(model_names) != 1:
            raise RelaxationError(
                f"queries embedding multiple models are unsupported: {model_names}"
            )
        self.model_name = model_names.pop()
        self.model = self.runtime.model(self.model_name)
        self.site_ids = site_ids
        self.X_sites = self.runtime.features_for_sites(site_ids)
        # class label -> column of the probability matrix P.
        self.class_columns = {
            label: index for index, label in enumerate(self.model.classes)
        }
        self._site_arr = np.asarray(site_ids, dtype=np.int64)
        self._max_site = int(self._site_arr.max()) + 1
        self._build_compiled_program()

    # -- compiled program over all complaint polynomials ---------------------------

    def _build_compiled_program(self) -> None:
        """One compiled root per relaxable complaint term.

        Per root we record ``(kind, target)``: for value complaints the
        residual is ``value - target`` (gated off while an inequality is
        satisfied); for tuple complaints the residual is the value itself.
        Prediction complaints touch a single probability entry and bypass
        the program.
        """
        result = self.result
        roots: list[int] = []
        self._root_targets: list[float] = []
        self._pred_terms: list[tuple[int, int]] = []  # (site_id, column)
        for complaint in self.complaints:
            if isinstance(complaint, PredictionComplaint):
                site_id = complaint.site_id(result)
                try:
                    column = self.class_columns[complaint.label]
                except KeyError:
                    raise RelaxationError(
                        f"atom class {complaint.label!r} is not a model class"
                    ) from None
                self._pred_terms.append((site_id, column))
                continue
            if isinstance(complaint, ValueComplaint):
                if complaint.op in ("<=", ">=") and complaint.is_satisfied(result):
                    # Satisfied inequalities contribute nothing; keep their
                    # polynomials out of the program entirely so they are
                    # never relaxed (e.g. an AVG over a group whose relaxed
                    # count is zero must not raise here).
                    continue
                roots.append(_complaint_node(complaint, result))
                self._root_targets.append(float(complaint.value))
                continue
            if isinstance(complaint, TupleComplaint):
                node = _complaint_node(complaint, result)
                # Not even a candidate: deterministically filtered, so the
                # complaint is vacuously satisfied.
                roots.append(FALSE_NODE if node is None else node)
                self._root_targets.append(0.0)
                continue
            raise RelaxationError(
                f"unknown complaint type {type(complaint).__name__}"
            )
        self._program = (
            CompiledProvenance(result.pool, np.asarray(roots, dtype=np.int64))
            if roots
            else None
        )

    # -- probability matrix ------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Current class probabilities at each inference site."""
        return np.asarray(self.model.predict_proba(self.X_sites), dtype=np.float64)

    def _expand(self, P_rows: np.ndarray) -> np.ndarray:
        """Map row-indexed P to site-indexed P for the relaxation."""
        P = np.zeros((self._max_site, P_rows.shape[1]))
        P[self._site_arr] = P_rows
        return P

    def _collapse(self, grad_sites: np.ndarray) -> np.ndarray:
        return grad_sites[self._site_arr]

    # -- q and its gradients --------------------------------------------------------

    def q_value_and_pgrad(self, P_rows: np.ndarray) -> tuple[float, np.ndarray]:
        """``q`` and ``∂q/∂P`` (both in row-indexed site order)."""
        P = self._expand(P_rows)
        total = 0.0
        grad = np.zeros_like(P)
        if self._program is not None:
            values, cache = self._program.relaxed_forward(P, self.class_columns)
            residuals = values - np.asarray(self._root_targets)
            total += float(np.sum(residuals**2))
            grad += self._program.relaxed_backward(cache, 2.0 * residuals)
        for site_id, column in self._pred_terms:
            residual = float(P[site_id, column]) - 1.0
            total += residual**2
            grad[site_id, column] += 2.0 * residual
        return total, self._collapse(grad)

    def q_value(self) -> float:
        q, _ = self.q_value_and_pgrad(self.probabilities())
        return q

    def q_grad_theta(self) -> np.ndarray:
        """``∇_θ q(θ)`` at the current model parameters."""
        return self.q_and_grad_theta()[1]

    def q_and_grad_theta(
        self, P_rows: np.ndarray | None = None
    ) -> tuple[float, np.ndarray]:
        """``(q(θ), ∇_θ q(θ))`` in one relaxation sweep.

        ``P_rows`` optionally supplies precomputed site probabilities.
        Cases sharing one debug result see identical sites, so Holistic
        computes the matrix once per distinct query result and passes it
        to every case — the values are exactly what
        :meth:`probabilities` would return, so this is a pure dedup.
        """
        if P_rows is None:
            P_rows = self.probabilities()
        q, pgrad_rows = self.q_value_and_pgrad(P_rows)
        return q, self.model.prob_vjp(self.X_sites, pgrad_rows)


def batched_case_objectives(case_results: Sequence) -> list[RelaxedComplaintObjective]:
    """One :class:`RelaxedComplaintObjective` per ``(case, result)`` pair.

    The complaint roots are *looked up* in the shared pool, never
    appended, so cases sharing a query result build their programs over
    one node-array snapshot.
    """
    return [
        RelaxedComplaintObjective(result, case.complaints)
        for case, result in case_results
    ]


def batched_q_and_grads(
    objectives: Sequence[RelaxedComplaintObjective],
) -> tuple[list[float], list[np.ndarray]]:
    """``(q, ∇_θ q)`` for every objective, in case order.

    Objectives sharing a query result share its inference sites, so the
    probability matrix is computed once per distinct result and handed to
    each case's relaxation sweep.  The values are bit-identical to each
    objective computing its own matrix.
    """
    shared_P: dict[int, np.ndarray] = {}
    for objective in objectives:
        key = id(objective.result)
        if key not in shared_P:
            shared_P[key] = objective.probabilities()

    outputs = [
        objective.q_and_grad_theta(P_rows=shared_P[id(objective.result)])
        for objective in objectives
    ]
    q_values = [float(q) for q, _ in outputs]
    q_grads = [grad for _, grad in outputs]
    return q_values, q_grads


