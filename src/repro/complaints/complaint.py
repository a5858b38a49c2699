"""Complaints: the user's declarative error specifications (Definition 3.1).

Three complaint forms are supported:

- :class:`ValueComplaint` — "this aggregate output value should be
  ``op value``" (``=``, ``<=``, ``>=``).  Targets a cell of an aggregate
  query output, addressed either by output row index or by group key (the
  latter also reaches *currently empty* groups).
- :class:`TupleComplaint` — "this output tuple should not exist" (join /
  selection outputs, or an aggregated group that should be empty).
- :class:`PredictionComplaint` — a complaint on an *intermediate* result:
  one model prediction is wrong and should be ``label``.  These are the
  paper's unambiguous "point complaints" (Sections 6.4, 6.6), equivalent
  to the labeled mispredictions consumed by classic influence analysis.

Complaints are attached to a query via :class:`ComplaintCase`; Rain accepts
multiple cases, possibly over different queries sharing the model
(Section 6.5's multi-query experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import ComplaintError
from ..relational.compile import CompiledProvenance
from ..relational.executor import QueryResult

VALUE_OPS = ("=", "<=", ">=")


@dataclass(frozen=True)
class ValueComplaint:
    """An aggregate output cell should be ``op value``."""

    column: str
    op: str
    value: float
    row_index: int | None = None
    group_key: tuple | None = None

    def __post_init__(self) -> None:
        if self.op not in VALUE_OPS:
            raise ComplaintError(f"value complaint op must be in {VALUE_OPS}")
        if (self.row_index is None) == (self.group_key is None):
            raise ComplaintError(
                "specify exactly one of row_index / group_key for a value complaint"
            )

    def current_value(self, result: QueryResult) -> float:
        """The complained-about cell's value under the current predictions."""
        return float(_node_values(result, [_complaint_node(self, result)])[0])

    def is_satisfied(self, result: QueryResult) -> bool:
        return _value_satisfied(self, self.current_value(result))


@dataclass(frozen=True)
class TupleComplaint:
    """An output tuple should not be in the result.

    The tuple may be addressed three ways:

    - ``row_index``: position in the *current* concrete output.  Fragile
      across retraining (the output changes), so mainly for one-shot use.
    - ``group_key``: an aggregated group that should not exist.
    - ``lineage``: a mapping ``alias -> base row id`` pinning the tuple by
      the queried records it derives from.  This is stable across the
      train-rank-fix loop — if the tuple later disappears from the output,
      the complaint is simply satisfied — and is how the MNIST join
      experiments of Section 6.3 address join rows.
    """

    row_index: int | None = None
    group_key: tuple | None = None
    lineage: tuple | None = None  # tuple of (alias, row_id) pairs

    def __post_init__(self) -> None:
        provided = sum(
            target is not None
            for target in (self.row_index, self.group_key, self.lineage)
        )
        if provided != 1:
            raise ComplaintError(
                "specify exactly one of row_index / group_key / lineage "
                "for a tuple complaint"
            )
        if self.lineage is not None:
            object.__setattr__(
                self,
                "lineage",
                tuple(sorted((str(a), int(r)) for a, r in dict(self.lineage).items())),
            )

    @classmethod
    def for_lineage(cls, **alias_row_ids: int) -> "TupleComplaint":
        """``TupleComplaint.for_lineage(L=3, R=7)`` — tuple from L row 3 ⋈ R row 7."""
        return cls(lineage=tuple(alias_row_ids.items()))

    def is_satisfied(self, result: QueryResult) -> bool:
        node = _complaint_node(self, result)
        if node is None:
            return True  # not even a candidate: the tuple can never exist
        return _value_satisfied(self, float(_node_values(result, [node])[0]))


@dataclass(frozen=True)
class PredictionComplaint:
    """An intermediate prediction is wrong: site should be ``label``.

    The site is addressed by the base relation + row id of the queried
    record (how a user would point at it), and resolved against the
    execution's site registry.
    """

    relation_name: str
    row_id: int
    label: Union[int, str]
    model_name: str | None = None

    def site_id(self, result: QueryResult) -> int:
        for site in result.runtime.sites:
            if (
                site.relation_name == self.relation_name
                and site.row_id == self.row_id
                and (self.model_name is None or site.model_name == self.model_name)
            ):
                return site.site_id
        raise ComplaintError(
            f"no inference site for ({self.relation_name!r}, row {self.row_id})"
        )

    def is_satisfied(self, result: QueryResult) -> bool:
        site = result.runtime.sites[self.site_id(result)]
        return result.runtime.prediction_for_site(site.key) == self.label


Complaint = Union[ValueComplaint, TupleComplaint, PredictionComplaint]


@dataclass
class ComplaintCase:
    """One query (SQL text or plan) with the complaints raised against it."""

    query: object  # SQL string or a Plan
    complaints: list

    def __post_init__(self) -> None:
        if not self.complaints:
            raise ComplaintError("a complaint case needs at least one complaint")


def _lineage_candidate(result: QueryResult, lineage: tuple) -> int | None:
    """Index in ``result.candidate_batch`` of the tuple pinned by ``lineage``.

    ``lineage`` is a :class:`TupleComplaint`'s ``(alias, row_id)`` pairs.
    ``None`` means the tuple is not even a candidate.
    """
    batch = result.candidate_batch
    if batch is None:
        raise ComplaintError("lineage complaints need a debug-mode result")
    wanted = dict(lineage)
    unknown = set(wanted) - set(batch.alias_row_ids)
    if unknown:
        raise ComplaintError(
            f"lineage aliases {sorted(unknown)} not in the query "
            f"(available: {sorted(batch.alias_row_ids)})"
        )
    mask = np.ones(len(batch), dtype=bool)
    for alias, row_id in wanted.items():
        mask &= batch.alias_row_ids[alias] == row_id
    matches = np.flatnonzero(mask)
    return int(matches[0]) if matches.size else None


def _complaint_node(complaint: Complaint, result: QueryResult) -> int | None:
    """The node id a value or tuple complaint's satisfaction depends on.

    A value complaint's cell node, or a tuple complaint's existence
    condition.  ``None`` means vacuously satisfied: a lineage tuple that is
    not even a candidate (deterministically filtered) can never exist.
    """
    if isinstance(complaint, ValueComplaint):
        return int(
            result.cell_node_for(
                complaint.column,
                row_index=complaint.row_index,
                group_key=complaint.group_key,
            )
        )
    if complaint.group_key is not None:
        if result.groups is None:
            raise ComplaintError("group_key complaint on a non-aggregate result")
        for group in result.groups:
            if group.key == complaint.group_key:
                if group.condition_node is None:
                    raise ComplaintError("condition nodes need compiled mode")
                return int(group.condition_node)
        raise ComplaintError(f"no group with key {complaint.group_key!r}")
    if complaint.lineage is not None:
        index = _lineage_candidate(result, complaint.lineage)
        if index is None:
            return None
        if result.candidate_cond_nodes is None:
            raise ComplaintError("lineage complaints need a compiled debug result")
        return int(result.candidate_cond_nodes[index])
    return int(result.tuple_condition_node(complaint.row_index))


def _node_values(result: QueryResult, nodes) -> np.ndarray:
    """Exact values of pool nodes under the current predictions."""
    program = CompiledProvenance(result.pool, np.asarray(nodes, dtype=np.int64))
    return program.evaluate(result.assignment())


def _value_satisfied(complaint: Complaint, value: float) -> bool:
    """The satisfaction predicate applied to an evaluated node value."""
    if isinstance(complaint, TupleComplaint):
        return value == 0.0  # existence condition is false
    if complaint.op == "=":
        return bool(np.isclose(value, complaint.value))
    if complaint.op == "<=":
        return bool(value <= complaint.value + 1e-9)
    return bool(value >= complaint.value - 1e-9)


def all_satisfied_columnar(
    case_results: list[tuple[ComplaintCase, QueryResult]]
) -> bool:
    """True when every complaint in every case is resolved.

    All complaint node ids over one result are evaluated in a single
    vectorized discrete forward pass (one
    :class:`~repro.relational.compile.CompiledProvenance` per result)
    instead of one pass per complaint, with the same satisfaction
    predicate ``is_satisfied`` applies.  Prediction complaints use their
    own ``is_satisfied``.
    """
    grouped: dict[int, tuple[QueryResult, list[int], list[Complaint]]] = {}
    for case, result in case_results:
        for complaint in case.complaints:
            if isinstance(complaint, PredictionComplaint):
                if not complaint.is_satisfied(result):
                    return False
                continue
            node = _complaint_node(complaint, result)
            if node is None:
                continue  # vacuously satisfied
            entry = grouped.setdefault(id(result), (result, [], []))
            entry[1].append(node)
            entry[2].append(complaint)
    for result, nodes, complaints in grouped.values():
        values = _node_values(result, nodes)
        for value, complaint in zip(values, complaints):
            if not _value_satisfied(complaint, float(value)):
                return False
    return True
