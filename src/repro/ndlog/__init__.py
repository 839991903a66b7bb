"""NDlog / µDlog: a declarative networking language runtime.

This subpackage implements the substrate on which the paper's meta provenance
is defined: a network datalog engine with location specifiers and base and
derived tuples.  The engine keeps the current state, not its history: a
repair records the control plane's inputs around the engine
(:meth:`repro.scenarios.base.NDlogScenario.recorded_run`).

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
from .engine import Engine
from .errors import EvaluationError, NDlogError, ParseError, SchemaError
from .expr import Bindings, FunctionRegistry, evaluate, try_evaluate, values_equal
from .parser import parse_expression, parse_program, parse_rule
from .tuples import Database, NDTuple, TableSchema, make_tuple

__all__ = [
    "Assignment", "Atom", "BinOp", "COMPARISON_OPERATORS", "Const",
    "Expression", "FuncCall", "Program", "Rule", "Selection", "Var",
    "WILDCARD",
    "Engine",
    "EvaluationError", "NDlogError", "ParseError", "SchemaError",
    "Bindings", "FunctionRegistry", "evaluate", "try_evaluate", "values_equal",
    "parse_expression", "parse_program", "parse_rule",
    "Database", "NDTuple", "TableSchema", "make_tuple",
]
