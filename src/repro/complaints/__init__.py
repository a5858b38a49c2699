"""Complaint model (Definition 3.1 of the paper)."""

from .complaint import (
    Complaint,
    ComplaintCase,
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
    all_satisfied_columnar,
)

__all__ = [
    "Complaint",
    "ComplaintCase",
    "PredictionComplaint",
    "TupleComplaint",
    "ValueComplaint",
    "all_satisfied_columnar",
]
