"""Repair candidates: representation and application."""

from .apply import RepairApplicationError, RepairedProgram, apply_candidate
from .candidates import (
    AddRule,
    ChangeAssignment,
    ChangeConstant,
    ChangeOperator,
    ChangeRuleHead,
    ChangeTuple,
    CopyRule,
    DeletePredicate,
    DeleteRule,
    DeleteSelection,
    DeleteTuple,
    Edit,
    InsertTuple,
    PROGRAM_EDIT_KINDS,
    RepairCandidate,
    candidate_from_wire,
    candidate_to_wire,
    deduplicate,
    reset_candidate_ids,
)

__all__ = [
    "RepairApplicationError", "RepairedProgram", "apply_candidate",
    "AddRule", "ChangeAssignment", "ChangeConstant", "ChangeOperator",
    "ChangeRuleHead", "ChangeTuple", "CopyRule",
    "DeletePredicate", "DeleteRule", "DeleteSelection", "DeleteTuple",
    "Edit", "InsertTuple", "PROGRAM_EDIT_KINDS", "RepairCandidate",
    "candidate_from_wire", "candidate_to_wire", "deduplicate",
    "reset_candidate_ids",
]
