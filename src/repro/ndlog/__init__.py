"""NDlog / µDlog: a declarative networking language runtime.

This subpackage implements the substrate on which the paper's meta provenance
is defined: a network datalog engine with location specifiers, base and
derived tuples, and a full event/derivation history.

Public entry points:

* :func:`repro.ndlog.parser.parse_program` — parse NDlog source text.
* :class:`repro.ndlog.engine.Engine` — evaluate a program over tuples.
* :class:`repro.ndlog.tuples.NDTuple` / :class:`repro.ndlog.tuples.Database`.
"""

from .ast import (
    Assignment,
    Atom,
    BinOp,
    COMPARISON_OPERATORS,
    Const,
    Expression,
    FuncCall,
    Program,
    Rule,
    Selection,
    Var,
    WILDCARD,
)
from .engine import Engine, EngineCheckpoint, evaluate_program
from .errors import EvaluationError, NDlogError, ParseError, SchemaError
from .events import (
    APPEAR,
    DELETE,
    DERIVE,
    DISAPPEAR,
    INSERT,
    RECEIVE,
    SEND,
    UNDERIVE,
    DerivationRecord,
    EngineEvent,
)
from .expr import Bindings, FunctionRegistry, evaluate, try_evaluate, values_equal
from .parser import parse_expression, parse_program, parse_rule
from .tuples import Database, NDTuple, TableSchema, make_tuple

__all__ = [
    "Assignment", "Atom", "BinOp", "COMPARISON_OPERATORS", "Const",
    "Expression", "FuncCall", "Program", "Rule", "Selection", "Var",
    "WILDCARD",
    "Engine", "EngineCheckpoint", "evaluate_program",
    "EvaluationError", "NDlogError", "ParseError", "SchemaError",
    "APPEAR", "DELETE", "DERIVE", "DISAPPEAR", "INSERT", "RECEIVE", "SEND",
    "UNDERIVE", "DerivationRecord", "EngineEvent",
    "Bindings", "FunctionRegistry", "evaluate", "try_evaluate", "values_equal",
    "parse_expression", "parse_program", "parse_rule",
    "Database", "NDTuple", "TableSchema", "make_tuple",
]
