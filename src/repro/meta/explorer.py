"""Meta provenance exploration and repair-candidate extraction.

Given a symptom — a tuple that should exist but does not (a "negative
symptom", the kind all five of the paper's queries report) — this module
searches for program and data edits that make it appear and explains each
repair it returns with a meta provenance tree (Figures 5, 6 and 17 of the
paper).  The paper's other kind, a tuple that exists but should not, has no
search here: no scenario reports one.

The search is cost-ordered over *attempts*.  An attempt
is a rule that could derive the goal, one joint support choice for its body
atoms (a historical tuple per atom, or a base-tuple insertion where history
has none) and one fix per selection or assignment that fails under that
choice: a list of edits and their summed cost.  Three more shapes have one
edit each: insert the goal tuple by hand, insert a support tuple for one body
atom, re-point (or copy) a rule that derives another table.

One priority queue, keyed by ``(cost, push order)``, holds two kinds of item.
A *task* names a shape and a rule.  Rule tasks enter at cost 0 and, when
popped, expand fully: every support choice times every joint fix choice
becomes a candidate item pushed at its own cost.  The other tasks enter at
the cost of their one edit.  A *candidate* item, when popped, is emitted
unless its edit signature was already seen or it lies beyond the cost
cut-off, and the search stops after ``max_candidates`` emissions.  So the
queue orders candidates, not partial trees: cheap (plausible) repairs come
out before expensive ones.

An attempt is a light ``(edits, cost, candidate_id)`` tuple until it is
emitted; most never are.  Its ``candidate_id`` is still reserved when the
attempt is made, from a counter of the exploration's own that starts at 1
with each :meth:`~MetaProvenanceExplorer.explore_missing` call, so a
candidate's ``tag`` — the ``v247`` of every report row and report digest —
encodes how many attempts of the same exploration preceded it, and neither
an earlier session of the process nor one on another thread moves it.  The
:class:`~repro.repair.candidates.RepairCandidate` and its description are
built when the attempt is emitted, so an exploration builds exactly as many
candidates as it returns.  Its meta provenance tree is built when someone
reads it: the explorer records, per emitted candidate, what the tree is made
from (an :class:`Explanation`: goal, shape, rule, support choice and edits),
and ``candidate.tree`` and :attr:`ExplorationResult.forest` build the same
trees (:func:`_explain`) on first read.  A repair that reads no tree — the
CLI's — builds none and loads neither :mod:`repro.meta.forest` nor
:mod:`repro.meta.metatuples`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..ndlog.ast import (
    Atom,
    BinOp,
    COMPARISON_OPERATORS,
    Const,
    Program,
    Rule,
    Var,
    WILDCARD,
)
from ..ndlog.expr import Bindings, try_compare, try_evaluate, values_equal
from ..ndlog.tuples import NDTuple
from ..repair.candidates import (
    ChangeAssignment,
    ChangeConstant,
    ChangeOperator,
    ChangeRuleHead,
    CopyRule,
    DeleteSelection,
    Edit,
    InsertTuple,
    RepairCandidate,
    deduplicate,
    edits_signature,
)
from .constant_values import first_satisfying_value, satisfies
from .costs import CostModel
from .history import HistoryIndex

if TYPE_CHECKING:
    from .forest import MetaForest, MetaTree

#: Joint support choices kept per rule.
MAX_BODY_COMBINATIONS = 100
#: Historical tuples tried per body atom.
MAX_ATOM_MATCHES = 20
#: New values proposed for one constant of a failing selection.
MAX_CONSTANT_VARIANTS = 4
#: Joint fix choices tried per support choice.
MAX_FIX_COMBINATIONS = 64

#: One joint support choice: per body atom ``("tuple", ndtuple)`` for a
#: historical tuple, or ``("missing", pattern)`` where history has none and a
#: base tuple would have to be inserted.
BodyChoice = Sequence[Tuple[str, object]]
#: One way to repair one failing selection or assignment, and its cost.
FixOption = Tuple[Edit, float]
#: An attempt as the queue holds it: its edits, their summed cost and the
#: candidate id reserved for it.
Attempt = Tuple[Tuple[Edit, ...], float, int]

#: Shapes explained by the one base tuple they insert.
_INSERTION_NOTES = {"insert": "manual insertion", "support": "support insertion"}


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MissingTupleGoal:
    """A negative symptom: "a tuple like this should exist but does not".

    ``constraints`` maps head-column index to the required value.  Columns
    not mentioned are unconstrained (the repair may pick any value).
    """

    table: str
    constraints: Tuple[Tuple[int, object], ...]
    node: object = None
    description: str = ""

    @classmethod
    def create(cls, table: str, constraints: Dict[int, object], node=None,
               description: str = "") -> "MissingTupleGoal":
        return cls(table, tuple(sorted(constraints.items())), node, description)

    def constraints_dict(self) -> Dict[int, object]:
        return dict(self.constraints)

    def __str__(self):
        inner = ", ".join(f"[{i}]={v!r}" for i, v in self.constraints)
        return f"missing {self.table}({inner})"


# ---------------------------------------------------------------------------
# Results and statistics
# ---------------------------------------------------------------------------


@dataclass
class ExplorationStats:
    """Counters filled in during exploration (feeds the Figure 9a breakdown)."""

    work_items_processed: int = 0
    history_lookups: int = 0
    solver_invocations: int = 0
    solver_seconds: float = 0.0
    candidates_generated: int = 0
    #: Always 0: no attempt is built that a constraint check then refuses
    #: (see ``_repairs_for_combination``).  Its only reader is the ledger's
    #: ``meta.discarded_unsat_ratio`` row.
    candidates_discarded_unsat: int = 0


class Explanation:
    """What the meta provenance tree of one emitted candidate is built from
    (:func:`_explain`): the goal, the attempt's shape, rule and support
    choice, and the candidate's edits — not the candidate, so a candidate
    holding its explanation makes no reference cycle.  :meth:`tree` builds
    the tree on its first call and returns that same tree after."""

    __slots__ = ("goal", "shape", "rule", "body_choice", "edits", "_tree")

    def __init__(self, goal: MissingTupleGoal, shape: str,
                 rule: Optional[Rule], body_choice: BodyChoice,
                 edits: Tuple[Edit, ...]):
        self.goal = goal
        self.shape = shape
        self.rule = rule
        self.body_choice = body_choice
        self.edits = edits
        self._tree: Optional[MetaTree] = None

    def tree(self) -> MetaTree:
        if self._tree is None:
            self._tree = _explain(self.goal, self.shape, self.rule,
                                  self.body_choice, self.edits)
        return self._tree


@dataclass
class ExplorationResult:
    """Candidates, their explanations and the statistics of one
    exploration.  The :attr:`forest` is built on first read."""

    goal: object
    candidates: List[RepairCandidate]
    stats: ExplorationStats
    #: The explanation of every emitted candidate, in emission order.
    explanations: List[Explanation] = field(default_factory=list,
                                            repr=False)
    _forest: Optional[MetaForest] = field(default=None, init=False,
                                          repr=False, compare=False)

    def best(self) -> Optional[RepairCandidate]:
        return self.candidates[0] if self.candidates else None

    @property
    def forest(self) -> MetaForest:
        """The meta provenance trees of the emitted candidates, in emission
        order: built on first read, the same trees as the candidates'
        :attr:`~repro.repair.candidates.RepairCandidate.tree`."""
        if self._forest is None:
            from .forest import MetaForest
            self._forest = MetaForest()
            for explanation in self.explanations:
                self._forest.add(explanation.tree())
        return self._forest


def _pick_value(stats: ExplorationStats, op: str, known, unknown_side: str,
                hints: Sequence[object]):
    """:func:`first_satisfying_value`, counted and timed: the "constraint
    solving" phase of Figure 9a."""
    started = perf_counter()
    value = first_satisfying_value(op, known, unknown_side, hints)
    stats.solver_invocations += 1
    stats.solver_seconds += perf_counter() - started
    return value


def _head_bindings(rule: Rule, goal: MissingTupleGoal) -> Optional[Bindings]:
    """Bind head variables to the goal's required values."""
    bindings = Bindings()
    for index, value in goal.constraints:
        if index >= len(rule.head.args):
            return None
        arg = rule.head.args[index]
        if isinstance(arg, Var):
            if arg.name in bindings and bindings[arg.name] != value:
                return None
            bindings[arg.name] = value
        elif isinstance(arg, Const) and arg.value != value:
            # A constant head argument contradicting the goal would need a
            # head edit; retarget tasks cover that case.
            return None
    return bindings


def _goal_arity(goal: MissingTupleGoal, rule: Optional[Rule]) -> int:
    max_index = max((i for i, _ in goal.constraints), default=-1)
    if rule is not None:
        return max(len(rule.head.args), max_index + 1)
    return max_index + 1


def _goal_tuple(goal: MissingTupleGoal, arity: int) -> NDTuple:
    """The goal's values by column index, wildcards elsewhere."""
    wanted = goal.constraints_dict()
    return NDTuple(goal.table, tuple(wanted.get(index, WILDCARD)
                                     for index in range(arity)))


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


class MetaProvenanceExplorer:
    """Explores meta provenance and extracts repair candidates."""

    def __init__(self, program: Program, history: HistoryIndex,
                 cost_model: Optional[CostModel] = None,
                 max_candidates: int = 25):
        self.program = program
        self.history = history
        self.cost_model = cost_model or CostModel()
        self.max_candidates = max_candidates
        self._history_value_hints: Optional[List[object]] = None
        self._program_constant_hints: Optional[List[object]] = None
        self._constant_values_cache: Dict[Tuple, List[object]] = {}
        self._fix_options_cache: Dict[Tuple, List[FixOption]] = {}
        #: History matches per body pattern, for one exploration.
        self._matches: Dict[Tuple, List[NDTuple]] = {}
        #: Candidate ids of one exploration, one per attempt, from 1.
        self._ids = itertools.count(1)

    def _history_hints(self) -> List[object]:
        """History values to try for an unknown (computed once per explorer;
        rebuilding this list per selection dominated large-program runs)."""
        if self._history_value_hints is None:
            self._history_value_hints = [
                v for v in self.history.all_values() if isinstance(v, (int, str))]
        return self._history_value_hints

    def _constant_hints(self) -> List[object]:
        """Every constant of the program's selections and assignments, rule
        by rule (computed once per explorer)."""
        if self._program_constant_hints is None:
            values: List[object] = []

            def collect(expr):
                if isinstance(expr, Const):
                    values.append(expr.value)
                elif isinstance(expr, BinOp):
                    collect(expr.left)
                    collect(expr.right)

            for rule in self.program.rules:
                for selection in rule.selections:
                    collect(selection.left)
                    collect(selection.right)
                for assignment in rule.assignments:
                    collect(assignment.expr)
            self._program_constant_hints = values
        return self._program_constant_hints

    # ==================================================================
    # Negative symptoms (missing tuples)
    # ==================================================================

    def explore_missing(self, goal: MissingTupleGoal) -> ExplorationResult:
        stats = ExplorationStats()
        explanations: List[Explanation] = []
        lookups_before = self.history.lookup_count
        self._matches.clear()
        self._ids = itertools.count(1)
        candidates: List[RepairCandidate] = []
        queue: List[Tuple] = []
        counter = itertools.count()
        costs = self.cost_model.costs

        def push(cost: float, shape: str, rule: Optional[Rule],
                 attempt: Optional[Attempt] = None,
                 body_choice: BodyChoice = ()):
            heapq.heappush(queue, (cost, next(counter), shape, rule,
                                   attempt, body_choice))

        # Seed the queue with the tasks: every rule that could derive the
        # goal table (as it is, and given one more support tuple), the manual
        # insertion, and every other rule as a retargeting source.
        for rule in self.program.rules_deriving(goal.table):
            push(0.0, "rule", rule)
            if rule.body:
                push(costs["support_tuple"], "support", rule)
        push(costs["insert_tuple"], "insert", None)
        for rule in self.program.rules:
            if rule.head.table != goal.table:
                push(costs["change_head"], "retarget", rule)

        seen_signatures = set()
        while queue and len(candidates) < self.max_candidates:
            cost, _, shape, rule, attempt, body_choice = heapq.heappop(queue)
            stats.work_items_processed += 1
            if attempt is not None:
                edits, _, candidate_id = attempt
                signature = edits_signature(edits)
                if (signature not in seen_signatures
                        and self.cost_model.within_cutoff(cost)):
                    seen_signatures.add(signature)
                    explanation = Explanation(goal, shape, rule, body_choice,
                                              edits)
                    explanations.append(explanation)
                    candidates.append(RepairCandidate(
                        edits=edits, cost=cost, candidate_id=candidate_id,
                        description=(
                            f"insert support tuple {edits[0].tuple} for "
                            f"rule {rule.name}" if shape == "support" else ""),
                        explanation=explanation))
                    stats.candidates_generated += 1
                continue
            if not self.cost_model.within_cutoff(cost):
                continue
            if shape == "rule":
                attempts = self._rule_attempts(goal, rule, stats)
            elif shape == "support":
                attempts = self._support_insert_attempts(goal, rule)
            elif shape == "insert":
                attempts = self._manual_insert_attempts(goal)
            else:
                attempts = self._retarget_attempts(goal, rule)
            for attempt, body_choice in attempts:
                push(attempt[1], shape, rule, attempt, body_choice)

        stats.history_lookups += self.history.lookup_count - lookups_before
        final = deduplicate(candidates)[: self.max_candidates]
        return ExplorationResult(goal=goal, candidates=final, stats=stats,
                                 explanations=explanations)

    # ------------------------------------------------------------------
    # Rule attempts: make an existing rule derive the missing tuple
    # ------------------------------------------------------------------

    def _rule_attempts(self, goal: MissingTupleGoal, rule: Rule,
                       stats: ExplorationStats
                       ) -> List[Tuple[Attempt, BodyChoice]]:
        """Every repair that makes ``rule`` fire, with the support choice
        each one is made under."""
        head_bindings = _head_bindings(rule, goal)
        if head_bindings is None:
            return []
        return [(attempt, body_choice)
                for body_choice in self._body_combinations(rule, head_bindings)
                for attempt in self._repairs_for_combination(
                    goal, rule, head_bindings, body_choice, stats)]

    def _body_combinations(self, rule: Rule,
                           head_bindings: Bindings) -> List[BodyChoice]:
        """Enumerate joint support choices for all body atoms."""
        per_atom_options: List[List[Tuple[str, object]]] = []
        for atom in rule.body:
            pattern = self._atom_pattern(atom, head_bindings)
            options: List[Tuple[str, object]] = [
                ("tuple", t) for t in self._matching(atom.table, pattern)]
            if not options:
                options = [("missing", pattern)]
            per_atom_options.append(options)
        combos = []
        for combo in itertools.product(*per_atom_options):
            if not self._combo_joins(rule, head_bindings, combo):
                continue
            combos.append(list(combo))
            if len(combos) >= MAX_BODY_COMBINATIONS:
                break
        return combos

    def _matching(self, table: str, pattern: Dict[int, object]) -> List[NDTuple]:
        """The first historical tuples of ``table`` that match ``pattern``,
        looked up once per pattern per exploration (every rule of a padded
        program reads the same ``PacketIn`` pattern).  Each call still counts
        as one history lookup."""
        try:
            key = (table, tuple(sorted(pattern.items())))
            matches = self._matches.get(key)
        except TypeError:           # an unhashable value: look it up
            key = matches = None
        if matches is None:
            matches = self.history.matching(table, pattern)[:MAX_ATOM_MATCHES]
            if key is not None:
                self._matches[key] = matches
        else:
            self.history.lookup_count += 1
        return matches

    def _atom_pattern(self, atom: Atom, bindings: Bindings) -> Dict[int, object]:
        """Column -> value for the columns of ``atom`` that are constants or
        variables already bound."""
        pattern: Dict[int, object] = {}
        for index, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                pattern[index] = arg.value
            elif isinstance(arg, Var) and arg.name in bindings:
                pattern[index] = bindings[arg.name]
        return pattern

    def _combo_joins(self, rule: Rule, head_bindings: Bindings, combo) -> bool:
        """Check that the chosen tuples agree on shared join variables."""
        bindings = Bindings(head_bindings)
        for atom, (kind, payload) in zip(rule.body, combo):
            if kind != "tuple":
                continue
            extended = self._match_atom(atom, payload, bindings)
            if extended is None:
                return False
            bindings = extended
        return True

    def _match_atom(self, atom: Atom, tup: NDTuple, bindings: Bindings) -> Optional[Bindings]:
        if atom.table != tup.table or atom.arity != tup.arity:
            return None
        new = Bindings(bindings)
        for arg, value in zip(atom.args, tup.values):
            if isinstance(arg, Var):
                if arg.name in new and new[arg.name] != value:
                    return None
                new[arg.name] = value
            elif isinstance(arg, Const) and arg.value != value:
                return None
        return new

    def _repairs_for_combination(self, goal: MissingTupleGoal, rule: Rule,
                                 head_bindings: Bindings,
                                 body_choice: BodyChoice,
                                 stats: ExplorationStats) -> List[Attempt]:
        """The attempts under one joint support choice: one per joint choice
        of a fix for every failing selection and assignment.

        No constraint pool is solved to accept an attempt (Section 3.4 of
        the paper collects one per tree), because here it could not be
        unsatisfiable.  Its constraints would be ``variable == value`` for
        the goal's head columns and for every variable of the environment
        the attempt is made under; that environment *extends*
        ``head_bindings`` (which already refused a head that binds one
        variable to two goal values), ``_match_atom`` never rebinds a
        variable, and ``_combo_joins`` kept only support choices whose
        tuples agree on their shared variables — so no variable is ever
        asked to take two values.  Constants are the one place a value is
        picked (``_constant_repair_values``).
        """
        env = Bindings(head_bindings)
        insert_edits: List[Edit] = []
        base_cost = 0.0
        for atom, (kind, payload) in zip(rule.body, body_choice):
            if kind == "tuple":
                env = self._match_atom(atom, payload, env) or env
            else:
                insert_edits.append(
                    InsertTuple(self._materialise_pattern(atom, payload)))
                base_cost += self.cost_model.costs["insert_tuple"]

        # Fix options per failing selection, then for the assignment (if any)
        # that sets a goal-constrained head column to something else.
        option_sets = [options for options in (
            self._selection_fix_options(rule, sel_index, selection, env, stats)
            for sel_index, selection in enumerate(rule.selections)) if options]
        assignment_options = self._assignment_fix_options(rule, head_bindings, env)
        if assignment_options:
            option_sets.append(assignment_options)

        results = []
        for combination in itertools.islice(itertools.product(*option_sets),
                                            MAX_FIX_COMBINATIONS):
            edits = list(insert_edits)
            cost = base_cost
            for edit, edit_cost in combination:
                edits.append(edit)
                cost += edit_cost
            if not edits:
                # Nothing to change: the rule should already fire, so this
                # combination does not explain the missing tuple.
                continue
            results.append((tuple(edits), cost, next(self._ids)))
        return results

    def _materialise_pattern(self, atom: Atom, pattern: Dict[int, object]) -> NDTuple:
        return NDTuple(atom.table, tuple(pattern.get(index, WILDCARD)
                                         for index in range(atom.arity)))

    # -- selection fixes ----------------------------------------------------

    def _selection_fix_options(self, rule: Rule, sel_index: int, selection,
                               env: Bindings,
                               stats: ExplorationStats) -> List[FixOption]:
        """Single edits that make one selection true, cheapest first; empty
        when it already holds under ``env``.

        The options depend only on the selection and the values of its two
        operands, so they are memoised per explorer on ``(rule, selection
        index, left value, right value)`` — the rule by identity, as the
        explorer's program holds it — and shared (edits are frozen).  Pad
        rules re-ask the same selection for every support choice.
        """
        left_value = try_evaluate(selection.left, env)
        right_value = try_evaluate(selection.right, env)
        try:
            key = (id(rule), sel_index, left_value, right_value)
            options = self._fix_options_cache.get(key)
        except TypeError:           # an unhashable value: no memo
            key = options = None
        if options is not None:
            return options
        if (left_value is not None and right_value is not None
                and try_compare(selection.op, left_value, right_value) is True):
            options = []
        else:
            options = self._fix_options(rule, sel_index, selection,
                                        left_value, right_value, stats)
        if key is not None:
            self._fix_options_cache[key] = options
        return options

    def _fix_options(self, rule: Rule, sel_index: int, selection, left_value,
                     right_value, stats: ExplorationStats) -> List[FixOption]:
        """Single edits that make one failing selection true, cheapest first,
        given what its operands evaluate to (``None``: cannot be)."""
        op = selection.op
        edits: List[Edit] = []

        # (a) Change the constant operand.
        for side, const_expr, other_value in (
                ("right", selection.right, left_value),
                ("left", selection.left, right_value)):
            if not isinstance(const_expr, Const) or other_value is None:
                continue
            for new_value in self._constant_repair_values(
                    op, side, other_value, stats):
                if new_value != const_expr.value:
                    edits.append(ChangeConstant(rule.name, sel_index, side,
                                                const_expr.value, new_value))

        # (b) Change the comparison operator.
        if left_value is not None and right_value is not None:
            for new_op in COMPARISON_OPERATORS:
                if new_op != op and try_compare(
                        new_op, left_value, right_value):
                    edits.append(ChangeOperator(rule.name, sel_index, op, new_op))

        # (c) Delete the selection predicate altogether.
        edits.append(DeleteSelection(rule.name, sel_index, selection.to_ndlog()))

        options = [(edit, self.cost_model.edit_cost(edit)) for edit in edits]
        options.sort(key=lambda option: option[1])
        return options

    def _constant_repair_values(self, op: str, side: str, other_value,
                                stats: ExplorationStats) -> List[object]:
        """Values for the constant on ``side`` that make the selection true
        when its other operand evaluates to ``other_value``.

        The first is :func:`first_satisfying_value`'s; further values are
        the hints that hold — the operand's neighbours, then values logged
        in the history and other constants of the program, mirroring how the
        paper's prototype seeds its solver with logged values.

        The result only depends on ``(op, side, other_value)`` — the hint
        pools are fixed per explorer — so it is memoised on that key (pad
        rules in large programs repeat the same selections hundreds of
        times).
        """
        cache_key = (op, side, other_value)
        cached = self._constant_values_cache.get(cache_key)
        if cached is not None:
            return cached
        hints: List[object] = []
        if isinstance(other_value, int):
            hints.extend([other_value, other_value + 1, other_value - 1])
        hints.extend(self._history_hints())
        hints.extend(self._constant_hints())
        first = _pick_value(stats, op, other_value, side, hints)
        values = [] if first is None else [first]
        for hint in hints:
            if len(values) >= MAX_CONSTANT_VARIANTS:
                break
            if hint in values:
                continue
            if satisfies(op, other_value, side, hint):
                values.append(hint)
        self._constant_values_cache[cache_key] = values
        return values

    # -- assignment fixes ----------------------------------------------------

    def _assignment_fix_options(self, rule: Rule, head_bindings: Bindings,
                                env: Bindings) -> List[FixOption]:
        """Single edits for the assignments whose value conflicts with the
        goal (``head_bindings`` holds the value the goal requires of each
        head variable), cheapest first; empty if nothing needs fixing."""
        edits: List[Edit] = []
        for assign_index, assignment in enumerate(rule.assignments):
            if assignment.var not in head_bindings:
                continue
            current = try_evaluate(assignment.expr, env)
            target = head_bindings[assignment.var]
            # Strict comparison: an assignment of the wildcard constant does
            # NOT satisfy a concrete goal value (that is precisely the Q5 bug).
            if current is not None and current == target:
                continue
            old_text = assignment.expr.to_ndlog()
            # Option 1: assign the constant the goal requires.
            edits.append(ChangeAssignment(rule.name, assign_index,
                                          assignment.var, old_text, Const(target)))
            # Option 2: assign a body variable that already carries the value.
            for var_name, value in env.items():
                if var_name != assignment.var and value == target:
                    edits.append(ChangeAssignment(rule.name, assign_index,
                                                  assignment.var, old_text,
                                                  Var(var_name)))
        options = [(edit, self.cost_model.edit_cost(edit)) for edit in edits]
        options.sort(key=lambda option: option[1])
        return options

    # ------------------------------------------------------------------
    # One-edit attempts: manual insertion, support insertion, retargeting
    # ------------------------------------------------------------------

    def _manual_insert_attempts(self, goal: MissingTupleGoal
                                ) -> List[Tuple[Attempt, BodyChoice]]:
        arity = self._infer_table_arity(goal)
        if arity == 0:
            return []
        edit = InsertTuple(_goal_tuple(goal, arity))
        attempt = ((edit,), self.cost_model.edit_cost(edit), next(self._ids))
        return [(attempt, ())]

    def _support_insert_attempts(self, goal: MissingTupleGoal, rule: Rule
                                 ) -> List[Tuple[Attempt, BodyChoice]]:
        """Standalone base-tuple insertions that give ``rule`` the support
        it would need to derive the goal tuple.

        The per-combination path only proposes an insertion when *no*
        historical tuple matches a body atom, but historical event tuples
        (``PacketIn``) are transient — present in the trace, absent at
        replay setup — so "history matched" does not imply the support will
        exist when the repaired program runs.  These candidates install the
        support statically regardless, one body atom at a time, at a higher
        cost than a direct goal-tuple insertion (the goal column values are
        only indirect evidence for the body tuple's columns).
        """
        head_bindings = _head_bindings(rule, goal)
        if head_bindings is None:
            return []
        cost = self.cost_model.costs["support_tuple"]
        out = []
        for atom in rule.body:
            tup = self._materialise_pattern(
                atom, self._atom_pattern(atom, head_bindings))
            if all(value == WILDCARD for value in tup.values):
                continue    # no goal constant reaches this atom
            out.append((((InsertTuple(tup),), cost, next(self._ids)), ()))
        return out

    def _infer_table_arity(self, goal: MissingTupleGoal) -> int:
        rules = self.program.rules_deriving(goal.table)
        if rules:
            return len(rules[0].head.args)
        historical = self.history.tuples_of(goal.table)
        if historical:
            return historical[0].arity
        return _goal_arity(goal, None)

    def _retarget_attempts(self, goal: MissingTupleGoal, rule: Rule
                           ) -> List[Tuple[Attempt, BodyChoice]]:
        """Candidates that re-point (or copy) a rule whose head table differs.

        Only rules that actually fired in the recorded history and whose
        output is compatible with the goal constraints are considered — this
        is the Q4 pattern, where the fix copies a flow-entry rule and changes
        its head into a ``PacketOut``.  Both candidates carry the support
        choice the rule fired on.
        """
        for body_choice in self._body_combinations(rule, Bindings())[:10]:
            if any(kind != "tuple" for kind, _ in body_choice):
                continue
            env = Bindings()
            for atom, (kind, payload) in zip(rule.body, body_choice):
                extended = self._match_atom(atom, payload, env)
                if extended is None:
                    env = None
                    break
                env = extended
            if env is None:
                continue
            if not all(try_evaluate(s.expr, env) is True for s in rule.selections):
                continue
            for assignment in rule.assignments:
                value = try_evaluate(assignment.expr, env)
                if value is not None:
                    env[assignment.var] = value
            head_values = [try_evaluate(arg, env) if not isinstance(arg, Var)
                           else env.get(arg.name) for arg in rule.head.args]
            if not self._head_values_match_goal(head_values, goal):
                continue
            new_head = Atom(goal.table, rule.head.args,
                            location_index=rule.head.location_index)
            edits = (ChangeRuleHead(rule.name, new_head),
                     CopyRule(rule.name, replace(
                         rule, name=f"{rule.name}_copy", head=new_head)))
            return [(((edit,), self.cost_model.edit_cost(edit),
                      next(self._ids)), body_choice) for edit in edits]
        return []

    def _head_values_match_goal(self, head_values, goal: MissingTupleGoal) -> bool:
        for index, value in goal.constraints:
            if index >= len(head_values):
                return False
            if head_values[index] is None:
                continue
            if not values_equal(head_values[index], value):
                return False
        return True


# ---------------------------------------------------------------------------
# Explanation: the meta provenance tree of an emitted candidate
# ---------------------------------------------------------------------------


def _explain(goal: MissingTupleGoal, shape: str, rule: Optional[Rule],
             body_choice: BodyChoice, edits: Tuple[Edit, ...]) -> MetaTree:
    """The meta provenance tree of one attempt (Figure 6), built when its
    :class:`Explanation` is first read; :mod:`repro.meta.forest` and
    :mod:`repro.meta.metatuples` load then.

    The root is the missing goal tuple, as wide as the head of the rule
    that is to derive it.  Below it: what held (``EXIST``) and what the
    candidate's edits bring into existence (``NEXIST``), keyed by edit
    kind — the body tuples of the support choice, then the rule's
    selections in order, then the assignment fix.
    """
    from .forest import EXIST, MetaTree, MetaVertex, NEXIST
    from .metatuples import (BaseMeta, ConstMeta, ExprMeta, HeadValMeta,
                             MetaLocation, OperMeta, SelMeta, TupleMeta)

    # A manual insertion has no rule: the goal is as wide as the tuple it
    # inserts (the goal table's arity).
    arity = (_goal_arity(goal, rule) if rule is not None
             else edits[0].tuple.arity)
    root = MetaVertex(NEXIST, TupleMeta(_goal_tuple(goal, arity)),
                      rule=rule.name if rule is not None else None)
    tree = MetaTree(root)
    tree.completed = True
    if shape in _INSERTION_NOTES:
        tree.add_child(root, MetaVertex(NEXIST, BaseMeta(edits[0].tuple),
                                        note=_INSERTION_NOTES[shape]))
        return tree

    name = rule.name
    derivation = HeadValMeta(name, "*", "head", goal.table)
    if shape == "rule":
        derive = MetaVertex(NEXIST, derivation, rule=name,
                            note="missing derivation")
    else:
        derive = MetaVertex(NEXIST, derivation, note=(
            "change head" if isinstance(edits[0], ChangeRuleHead)
            else "copy rule"))
    tree.add_child(root, derive)

    def child(kind: str, subject, note: str = ""):
        tree.add_child(derive, MetaVertex(kind, subject, note=note))

    inserted = (edit.tuple for edit in edits if isinstance(edit, InsertTuple))
    for kind, payload in body_choice:
        if kind == "tuple":
            child(EXIST, TupleMeta(payload))
        else:
            child(NEXIST, BaseMeta(next(inserted)))
    if shape == "retarget":
        return tree     # the rule fired as it is: nothing in it to fix

    fixes = {edit.selection_index: edit for edit in edits
             if isinstance(edit, (ChangeConstant, ChangeOperator,
                                  DeleteSelection))}
    for sel_index, selection in enumerate(rule.selections):
        edit = fixes.get(sel_index)
        sid = selection.to_ndlog()
        holds = SelMeta(name, "*", sid, True)
        if edit is None:
            child(EXIST, holds)
        elif isinstance(edit, DeleteSelection):
            child(NEXIST, holds, note="deleted")
        elif isinstance(edit, ChangeOperator):
            child(NEXIST, holds)
            child(NEXIST, OperMeta(
                name, sid, "l", "r", edit.new_op,
                MetaLocation(name, "selection", sel_index, "op")))
        else:
            const_id = f"{name}.s{sel_index}.{edit.side[0]}"
            child(NEXIST, holds)
            child(EXIST, OperMeta(
                name, sid, f"{name}.s{sel_index}.l",
                f"{name}.s{sel_index}.r", selection.op,
                MetaLocation(name, "selection", sel_index, "op")))
            child(NEXIST, ExprMeta(name, "*", const_id, edit.new_value))
            child(NEXIST, ConstMeta(
                name, const_id, edit.new_value,
                MetaLocation(name, "selection", sel_index, edit.side)))
    for edit in edits:
        if isinstance(edit, ChangeAssignment):
            child(NEXIST, HeadValMeta(
                name, "*", edit.var,
                _head_bindings(rule, goal)[edit.var]))
    return tree
