"""Holistic's differentiable relaxation of provenance + complaints."""

from .objective import RelaxedComplaintObjective

__all__ = ["RelaxedComplaintObjective"]
