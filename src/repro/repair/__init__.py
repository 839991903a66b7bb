"""Repair candidates: representation and application."""

from .apply import RepairApplicationError, RepairedProgram, apply_candidate
from .candidates import (
    ChangeAssignment,
    ChangeConstant,
    ChangeOperator,
    ChangeRuleHead,
    CopyRule,
    DeleteSelection,
    Edit,
    InsertTuple,
    RepairCandidate,
    candidate_from_wire,
    candidate_to_wire,
    deduplicate,
    reset_candidate_ids,
)

__all__ = [
    "RepairApplicationError", "RepairedProgram", "apply_candidate",
    "ChangeAssignment", "ChangeConstant", "ChangeOperator",
    "ChangeRuleHead", "CopyRule", "DeleteSelection",
    "Edit", "InsertTuple", "RepairCandidate",
    "candidate_from_wire", "candidate_to_wire", "deduplicate",
    "reset_candidate_ids",
]
