"""The µDlog meta model (Figure 4 of the paper), expressed in NDlog.

The paper defines the operational semantics of the toy language µDlog with
13 meta tuples and 15 meta rules, themselves written in NDlog: a tuple
exists either because it was inserted as a base tuple (h1) or because some
rule's join produced values that satisfied both selection predicates (h2);
joins, expressions, assignments and selections each have their own meta
rules.

This module keeps the meta model both as *source text* (the parser must
accept it) and as structured metadata (tables and rule names) that the
suites hold to the paper's counts.  No repair reads it: the search uses the
operational encoding in
:mod:`repro.meta.explorer`, which is an optimised implementation of the same
semantics — the explorer never enumerates full cross-product ``Join`` tuples
but decides one join combination at a time while it enumerates support
choices (the job of the paper's "mini-solver for cross-table meta tuple
joins"), which leaves one comparison over one unknown to pick a value for
(:mod:`repro.meta.constant_values`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.ndlog.ast import Program
from repro.ndlog.parser import parse_program


#: Names of the µDlog meta tuples (Section 3.2).
MUDLOG_META_TUPLES = (
    # program-based
    "HeadFunc", "PredFunc", "Assign", "Const", "Oper",
    # runtime-based
    "Base", "Tuple", "TuplePred", "PredFuncCount", "Join2", "Join4",
    "Expr", "Sel", "HeadVal",
)

#: Meta rules of Figure 4, in (simplified, parseable) NDlog syntax.  The
#: paper's h2 rule uses aggregation-style matching of two selection IDs; the
#: variant below keeps the same structure with the two selections named
#: explicitly, which is the µDlog restriction ("exactly two selection
#: predicates").
MUDLOG_META_RULES_SOURCE = """
h1 Tuple(@C,Tab,Val1,Val2) :- Base(@C,Tab,Val1,Val2).
h2 Tuple(@L,Tab,Val1,Val2) :- HeadFunc(@C,Rul,Tab,Loc,Arg1,Arg2), HeadVal(@C,Rul,JID,Loc,L), HeadVal(@C,Rul,JID1,Arg1,Val1), HeadVal(@C,Rul,JID2,Arg2,Val2), Sel(@C,Rul,JID,SID,Val), Sel(@C,Rul,JIDB,SIDB,ValB), Val == 1, ValB == 1, SID != SIDB, True == f_match(JID1,JID), True == f_match(JID2,JID).
p1 TuplePred(@C,Rul,Tab,Arg1,Arg2,Val1,Val2) :- Tuple(@C,Tab,Val1,Val2), PredFunc(@C,Rul,Tab,Arg1,Arg2).
p2 PredFuncCount(@C,Rul,N) :- PredFunc(@C,Rul,Tab,Arg1,Arg2), N := 1.
j1 Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4) :- TuplePred(@C,Rul,Tab,Arg1,Arg2,Val1,Val2), TuplePred(@C,Rul,TabB,Arg3,Arg4,Val3,Val4), PredFuncCount(@C,Rul,N), N == 2, Tab != TabB, JID := f_unique().
j2 Join2(@C,Rul,JID,Arg1,Arg2,Val1,Val2) :- TuplePred(@C,Rul,Tab,Arg1,Arg2,Val1,Val2), PredFuncCount(@C,Rul,N), N == 1, JID := f_unique().
e1 Expr(@C,Rul,JID,ID,Val) :- Const(@C,Rul,ID,Val), JID := *.
e2 Expr(@C,Rul,JID,Arg1,Val1) :- Join2(@C,Rul,JID,Arg1,Arg2,Val1,Val2).
e3 Expr(@C,Rul,JID,Arg2,Val2) :- Join2(@C,Rul,JID,Arg1,Arg2,Val1,Val2).
e4 Expr(@C,Rul,JID,Arg1,Val1) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).
e5 Expr(@C,Rul,JID,Arg2,Val2) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).
e6 Expr(@C,Rul,JID,Arg3,Val3) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).
e7 Expr(@C,Rul,JID,Arg4,Val4) :- Join4(@C,Rul,JID,Arg1,Arg2,Arg3,Arg4,Val1,Val2,Val3,Val4).
a1 HeadVal(@C,Rul,JID,Arg,Val) :- Assign(@C,Rul,Arg,ID), Expr(@C,Rul,JID,ID,Val).
s1 Sel(@C,Rul,JID,SID,Val) :- Oper(@C,Rul,SID,IDL,IDR,Opr), Expr(@C,Rul,JIDL,IDL,ValL), Expr(@C,Rul,JIDR,IDR,ValR), True == f_match(JIDL,JIDR), JID := f_join(JIDL,JIDR), Val := f_compare(Opr,ValL,ValR), IDL != IDR.
"""

#: Size of the full NDlog meta model reported by the paper (Section 3.2).
NDLOG_META_MODEL_SIZE = {"meta_tuples": 23, "meta_rules": 23}

#: Sizes of the Trema and Pyretic meta models reported in Section 5.8.
TREMA_META_MODEL_SIZE = {"meta_tuples": 32, "meta_rules": 42}
PYRETIC_META_MODEL_SIZE = {"meta_tuples": 41, "meta_rules": 53}


def mudlog_meta_program() -> Program:
    """Parse the µDlog meta rules into an NDlog :class:`Program`.

    The resulting program is mainly used for validation (the meta rules are
    legal NDlog and mention exactly the documented meta tuples); the repair
    search uses the optimised implementation in the explorer.
    """
    return parse_program(MUDLOG_META_RULES_SOURCE, name="mudlog-meta")


def meta_rule_names() -> List[str]:
    return [rule.name for rule in mudlog_meta_program().rules]


def meta_model_summary() -> Dict[str, int]:
    program = mudlog_meta_program()
    return {
        "meta_rules": len(program.rules),
        "meta_tuples": len(MUDLOG_META_TUPLES),
    }
