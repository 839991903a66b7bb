"""Meta provenance exploration and repair-candidate extraction.

This module implements the heart of the paper: given a symptom — a tuple
that should exist but does not ("negative symptom"), or a tuple that exists
but should not ("positive symptom") — it explores the meta provenance forest
in cost order and extracts repair candidates (Figures 5 and 17 of the paper).

The search is best-first over partial meta provenance trees: work items are
kept in a priority queue keyed by accumulated cost, so cheap (plausible)
repairs are produced before expensive ones, and exploration can stop as soon
as enough candidates have been found or the cost cut-off is reached.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from ..ndlog.expr import Bindings, try_evaluate, values_equal
from ..ndlog.tuples import NDTuple
from ..repair.candidates import (
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
    RepairCandidate,
    deduplicate,
)
from ..solver import Comparison, SymVar, eq
from ..solver.constraints import _compare as _ground_compare
from .constraints import ConstraintPool
from .costs import CostModel
from .forest import EXIST, MetaForest, MetaTree, MetaVertex, NEXIST
from .history import HistoryIndex
from .metaprogram import MetaProgram
from .metatuples import (
    BaseMeta,
    ConstMeta,
    ExprMeta,
    HeadValMeta,
    MetaLocation,
    OperMeta,
    PredFuncMeta,
    SelMeta,
    TupleMeta,
)


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


@dataclass(frozen=True)
class ExistingTupleGoal:
    """A positive symptom: "this tuple exists but should not"."""

    tuple: NDTuple
    description: str = ""

    def __str__(self):
        return f"unwanted {self.tuple}"


# ---------------------------------------------------------------------------
# Results and statistics
# ---------------------------------------------------------------------------


@dataclass
class ExplorationStats:
    """Counters filled in during exploration (feeds the Figure 9a breakdown)."""

    trees_created: int = 0
    trees_completed: int = 0
    work_items_processed: int = 0
    history_lookups: int = 0
    solver_invocations: int = 0
    solver_seconds: float = 0.0
    candidates_generated: int = 0
    candidates_discarded_unsat: int = 0


@dataclass
class ExplorationResult:
    """Candidates plus the forest and statistics of one exploration."""

    goal: object
    candidates: List[RepairCandidate]
    forest: MetaForest
    stats: ExplorationStats

    def best(self) -> Optional[RepairCandidate]:
        return self.candidates[0] if self.candidates else None


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


class MetaProvenanceExplorer:
    """Explores meta provenance and extracts repair candidates."""

    def __init__(self, program: Program, history: HistoryIndex,
                 cost_model: Optional[CostModel] = None,
                 max_candidates: int = 25,
                 max_body_combinations: int = 100,
                 max_constant_variants: int = 4,
                 max_fix_combinations: int = 64,
                 enable_retarget_tasks: bool = True):
        self.program = program
        self.history = history
        self.cost_model = cost_model or CostModel()
        self.meta_program = MetaProgram.from_program(program)
        self.max_candidates = max_candidates
        self.max_body_combinations = max_body_combinations
        self.max_constant_variants = max_constant_variants
        self.max_fix_combinations = max_fix_combinations
        self.enable_retarget_tasks = enable_retarget_tasks
        self._history_value_hints: Optional[List[object]] = None
        self._program_constant_hints: Optional[List[object]] = None
        self._constant_values_cache: Dict[Tuple, List[object]] = {}

    def _solver_value_hints(self) -> List[object]:
        """History values usable as solver hints (computed once per explorer;
        rebuilding this list per selection dominated large-program runs)."""
        if self._history_value_hints is None:
            self._history_value_hints = [
                v for v in self.history.all_values() if isinstance(v, (int, str))]
        return self._history_value_hints

    def _constant_hints(self) -> List[object]:
        if self._program_constant_hints is None:
            self._program_constant_hints = list(self.meta_program.program_constants())
        return self._program_constant_hints

    # ==================================================================
    # Negative symptoms (missing tuples)
    # ==================================================================

    def explore_missing(self, goal: MissingTupleGoal) -> ExplorationResult:
        stats = ExplorationStats()
        forest = MetaForest()
        lookups_before = self.history.lookup_count
        candidates: List[RepairCandidate] = []
        queue: List[Tuple[float, int, object]] = []
        counter = itertools.count()

        def push(cost: float, item):
            heapq.heappush(queue, (cost, next(counter), item))

        # Seed the queue: one tree per rule that could derive the goal table,
        # one "manual tuple" tree, and (optionally) retargeting trees.
        for rule in self.program.rules_deriving(goal.table):
            push(0.0, ("rule", rule))
            if rule.body:
                push(self.cost_model.costs["support_tuple"], ("support", rule))
        push(self.cost_model.costs["insert_tuple"], ("insert", None))
        if self.enable_retarget_tasks:
            for rule in self.program.rules:
                if rule.head.table != goal.table:
                    push(self.cost_model.costs["change_head"], ("retarget", rule))

        seen_signatures = set()
        while queue and len(candidates) < self.max_candidates:
            cost, _, item = heapq.heappop(queue)
            stats.work_items_processed += 1
            kind, payload = item[0], item[1]
            if kind == "candidate":
                candidate = payload
                signature = candidate.signature()
                if signature in seen_signatures:
                    continue
                if self.cost_model.within_cutoff(candidate.cost):
                    seen_signatures.add(signature)
                    candidates.append(candidate)
                    stats.candidates_generated += 1
                    if candidate.tree is not None:
                        forest.add(candidate.tree)
                        stats.trees_completed += 1
                continue
            if not self.cost_model.within_cutoff(cost):
                continue
            if kind == "rule":
                for cand_cost, candidate in self._expand_rule_tree(goal, payload, stats):
                    push(cand_cost, ("candidate", candidate))
            elif kind == "insert":
                candidate = self._manual_insert_candidate(goal, stats)
                if candidate is not None:
                    push(candidate.cost, ("candidate", candidate))
            elif kind == "support":
                for candidate in self._support_insert_candidates(goal, payload):
                    push(candidate.cost, ("candidate", candidate))
            elif kind == "retarget":
                for cand_cost, candidate in self._retarget_candidates(goal, payload, stats):
                    push(cand_cost, ("candidate", candidate))
            stats.trees_created += 1

        stats.history_lookups += self.history.lookup_count - lookups_before
        final = deduplicate(candidates)[: self.max_candidates]
        return ExplorationResult(goal=goal, candidates=final, forest=forest, stats=stats)

    # ------------------------------------------------------------------
    # Rule trees: make an existing rule derive the missing tuple
    # ------------------------------------------------------------------

    def _expand_rule_tree(self, goal: MissingTupleGoal, rule: Rule,
                          stats: ExplorationStats):
        """Yield (cost, candidate) pairs for repairs that make ``rule`` fire."""
        head_bindings = self._head_bindings(rule, goal)
        if head_bindings is None:
            return
        combos = self._body_combinations(rule, head_bindings, stats)
        results = []
        for body_choice in combos:
            results.extend(self._repairs_for_combination(
                goal, rule, head_bindings, body_choice, stats))
        yield from results

    def _head_bindings(self, rule: Rule, goal: MissingTupleGoal) -> Optional[Bindings]:
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

    def _body_combinations(self, rule: Rule, head_bindings: Bindings,
                           stats: ExplorationStats):
        """Enumerate joint support choices for all body atoms.

        Each choice is a list with one entry per body atom: either
        ``("tuple", ndtuple)`` for a historical tuple, or
        ``("missing", pattern_dict)`` when no historical tuple matches and a
        base-tuple insertion would be required.
        """
        per_atom_options: List[List[Tuple[str, object]]] = []
        for atom in rule.body:
            matching = self._matching_history(atom, head_bindings)
            options: List[Tuple[str, object]] = [("tuple", t) for t in matching[:20]]
            if not options:
                pattern = self._atom_pattern(atom, head_bindings)
                options = [("missing", pattern)]
            per_atom_options.append(options)
        combos = []
        for combo in itertools.product(*per_atom_options):
            if not self._combo_joins(rule, head_bindings, combo):
                continue
            combos.append(list(combo))
            if len(combos) >= self.max_body_combinations:
                break
        return combos

    def _matching_history(self, atom: Atom, bindings: Bindings) -> List[NDTuple]:
        constraints: Dict[int, object] = {}
        for index, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                constraints[index] = arg.value
            elif isinstance(arg, Var) and arg.name in bindings:
                constraints[index] = bindings[arg.name]
        return self.history.matching(atom.table, constraints)

    def _atom_pattern(self, atom: Atom, bindings: Bindings) -> Dict[int, object]:
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
                                 head_bindings: Bindings, body_choice,
                                 stats: ExplorationStats):
        """Produce repair candidates for one joint body-support choice."""
        env = Bindings(head_bindings)
        insert_edits: List[Edit] = []
        base_cost = 0.0
        body_vertices: List[MetaVertex] = []
        for atom, (kind, payload) in zip(rule.body, body_choice):
            if kind == "tuple":
                env = self._match_atom(atom, payload, env) or env
                body_vertices.append(MetaVertex(EXIST, TupleMeta(payload)))
            else:
                missing_tuple = self._materialise_pattern(atom, payload, goal)
                insert_edits.append(InsertTuple(missing_tuple))
                base_cost += self.cost_model.costs["insert_tuple"]
                body_vertices.append(MetaVertex(NEXIST, BaseMeta(missing_tuple)))

        # Per-selection fix options.
        selection_option_sets: List[List[Tuple[List[Edit], float, List[MetaVertex]]]] = []
        for sel_index, selection in enumerate(rule.selections):
            value = try_evaluate(selection.expr, env)
            if value is True:
                selection_option_sets.append([
                    ([], 0.0, [MetaVertex(EXIST, SelMeta(rule.name, "*",
                                                         selection.to_ndlog(), True))])
                ])
                continue
            options = self._selection_fix_options(rule, sel_index, selection, env, stats)
            if not options:
                return []
            selection_option_sets.append(options)

        # Assignment fixes (for goal-constrained head columns set by ":=").
        assignment_options = self._assignment_fix_options(goal, rule, env, stats)
        if assignment_options is None:
            return []
        if assignment_options:
            selection_option_sets.append(assignment_options)

        results = []
        for combination in itertools.islice(
                itertools.product(*selection_option_sets) if selection_option_sets
                else [()],
                self.max_fix_combinations):
            edits: List[Edit] = list(insert_edits)
            vertices: List[MetaVertex] = list(body_vertices)
            cost = base_cost
            for option_edits, option_cost, option_vertices in combination:
                edits.extend(option_edits)
                cost += option_cost
                vertices.extend(option_vertices)
            if not edits:
                # Nothing to change: the rule should already fire, so this
                # combination does not explain the missing tuple.
                continue
            tree = self._build_missing_tree(goal, rule, vertices)
            if not self._pool_satisfiable(tree, goal, rule, env, edits, stats):
                stats.candidates_discarded_unsat += 1
                continue
            candidate = RepairCandidate(edits=tuple(edits), cost=cost, tree=tree)
            results.append((cost, candidate))
        return results

    def _materialise_pattern(self, atom: Atom, pattern: Dict[int, object],
                             goal: MissingTupleGoal) -> NDTuple:
        values = []
        for index in range(atom.arity):
            if index in pattern:
                values.append(pattern[index])
            else:
                values.append(WILDCARD)
        return NDTuple(atom.table, tuple(values))

    # -- selection fixes ----------------------------------------------------

    def _selection_fix_options(self, rule: Rule, sel_index: int, selection,
                               env: Bindings, stats: ExplorationStats):
        """Repair options that make one failing selection true."""
        options: List[Tuple[List[Edit], float, List[MetaVertex]]] = []
        left_is_const = isinstance(selection.left, Const)
        right_is_const = isinstance(selection.right, Const)
        op = selection.op
        oper_meta = self.meta_program.operator_of_selection(rule.name, sel_index)

        # (a) Change the constant operand.
        for side, is_const, other in (("right", right_is_const, selection.left),
                                      ("left", left_is_const, selection.right)):
            if not is_const:
                continue
            const_expr = selection.right if side == "right" else selection.left
            other_value = try_evaluate(other, env)
            if other_value is None:
                continue
            for new_value in self._constant_repair_values(
                    op, side, other_value, rule, sel_index, stats):
                if new_value == const_expr.value:
                    continue
                edit = ChangeConstant(rule.name, sel_index, side,
                                      const_expr.value, new_value)
                cost = self.cost_model.edit_cost(edit)
                vertices = [
                    MetaVertex(NEXIST, SelMeta(rule.name, "*", selection.to_ndlog(), True)),
                    MetaVertex(EXIST, oper_meta) if oper_meta is not None else
                    MetaVertex(EXIST, OperMeta(rule.name, selection.to_ndlog(),
                                               "l", "r", op,
                                               MetaLocation(rule.name, "selection",
                                                            sel_index, "op"))),
                    MetaVertex(NEXIST, ExprMeta(rule.name, "*",
                                                f"{rule.name}.s{sel_index}.{side[0]}",
                                                new_value)),
                    MetaVertex(NEXIST, ConstMeta(rule.name,
                                                 f"{rule.name}.s{sel_index}.{side[0]}",
                                                 new_value,
                                                 MetaLocation(rule.name, "selection",
                                                              sel_index, side))),
                ]
                options.append(([edit], cost, vertices))

        # (b) Change the comparison operator.
        left_value = try_evaluate(selection.left, env)
        right_value = try_evaluate(selection.right, env)
        if left_value is not None and right_value is not None:
            for new_op in COMPARISON_OPERATORS:
                if new_op == op:
                    continue
                if Comparison(new_op, left_value, right_value).evaluate({}) is True:
                    edit = ChangeOperator(rule.name, sel_index, op, new_op)
                    cost = self.cost_model.edit_cost(edit)
                    vertices = [
                        MetaVertex(NEXIST, SelMeta(rule.name, "*",
                                                   selection.to_ndlog(), True)),
                        MetaVertex(NEXIST, OperMeta(
                            rule.name, selection.to_ndlog(), "l", "r", new_op,
                            MetaLocation(rule.name, "selection", sel_index, "op"))),
                    ]
                    options.append(([edit], cost, vertices))

        # (c) Delete the selection predicate altogether.
        edit = DeleteSelection(rule.name, sel_index, selection.to_ndlog())
        cost = self.cost_model.edit_cost(edit)
        options.append(([edit], cost, [
            MetaVertex(NEXIST, SelMeta(rule.name, "*", selection.to_ndlog(), True),
                       note="deleted")]))

        options.sort(key=lambda item: item[1])
        return options

    def _constant_repair_values(self, op: str, side: str, other_value,
                                rule: Rule, sel_index: int,
                                stats: ExplorationStats) -> List[object]:
        """Values for the constant that make ``other_value <op> const`` true.

        The first value comes from the constraint solver (the minimal
        solution); further values are taken from the history and from other
        constants in the program, mirroring how the paper's prototype seeds
        its solver with logged values.

        The result only depends on ``(op, side, other_value)`` — the hint
        pools are fixed per explorer — so it is memoised on that key (pad
        rules in large programs repeat the same selections hundreds of
        times).
        """
        cache_key = (op, side, other_value)
        cached = self._constant_values_cache.get(cache_key)
        if cached is not None:
            return cached
        symbol = SymVar(f"Const.{rule.name}.s{sel_index}.Val")
        pool = ConstraintPool()
        if side == "right":
            pool.add(Comparison(op, other_value, symbol))
        else:
            pool.add(Comparison(op, symbol, other_value))
        hints: List[object] = []
        if isinstance(other_value, int):
            hints.extend([other_value, other_value + 1, other_value - 1])
        hints.extend(self._solver_value_hints())
        hints.extend(self._constant_hints())
        pool.hint(symbol, hints)
        values: List[object] = []
        model = pool.solve()
        stats.solver_invocations += pool.solver_invocations
        stats.solver_seconds += pool.solve_seconds
        if model is not None:
            values.append(model.value_of(symbol.name))
        for hint in hints:
            if len(values) >= self.max_constant_variants:
                break
            if hint in values:
                continue
            # Ground comparison — equivalent to Comparison(...).evaluate({})
            # without allocating a constraint object per hint.
            check = (_ground_compare(op, other_value, hint) if side == "right"
                     else _ground_compare(op, hint, other_value))
            if check is True:
                values.append(hint)
        self._constant_values_cache[cache_key] = values
        return values

    # -- assignment fixes ----------------------------------------------------

    def _assignment_fix_options(self, goal: MissingTupleGoal, rule: Rule,
                                env: Bindings, stats: ExplorationStats):
        """Fix assignments whose value conflicts with the goal constraints.

        Returns ``None`` if a conflicting head column cannot be repaired, an
        empty list if nothing needs fixing, or a list of alternative fix
        options otherwise.
        """
        needed: Dict[str, object] = {}
        for index, value in goal.constraints:
            arg = rule.head.args[index]
            if isinstance(arg, Var):
                needed[arg.name] = value
        options: List[Tuple[List[Edit], float, List[MetaVertex]]] = []
        conflicts = 0
        for assign_index, assignment in enumerate(rule.assignments):
            if assignment.var not in needed:
                continue
            current = try_evaluate(assignment.expr, env)
            target = needed[assignment.var]
            # Strict comparison: an assignment of the wildcard constant does
            # NOT satisfy a concrete goal value (that is precisely the Q5 bug).
            if current is not None and current == target:
                continue
            conflicts += 1
            vertices = [MetaVertex(NEXIST, HeadValMeta(rule.name, "*",
                                                       assignment.var, target))]
            # Option 1: assign the constant the goal requires.
            edit = ChangeAssignment(rule.name, assign_index, assignment.var,
                                    assignment.expr.to_ndlog(), Const(target))
            options.append(([edit], self.cost_model.edit_cost(edit), vertices))
            # Option 2: assign a body variable that already carries the value.
            for var_name, value in env.items():
                if var_name != assignment.var and value == target:
                    var_edit = ChangeAssignment(rule.name, assign_index,
                                                assignment.var,
                                                assignment.expr.to_ndlog(),
                                                Var(var_name))
                    options.append(([var_edit],
                                    self.cost_model.edit_cost(var_edit),
                                    vertices))
        if conflicts and not options:
            return None
        options.sort(key=lambda item: item[1])
        return options

    # -- tree / pool construction --------------------------------------------

    def _build_missing_tree(self, goal: MissingTupleGoal, rule: Rule,
                            vertices: Sequence[MetaVertex]) -> MetaTree:
        root = MetaVertex(NEXIST, TupleMeta(
            NDTuple(goal.table, tuple(
                goal.constraints_dict().get(i, WILDCARD)
                for i in range(self._goal_arity(goal, rule))))), rule=rule.name)
        tree = MetaTree(root)
        nderive = MetaVertex(NEXIST, HeadValMeta(rule.name, "*", "head", goal.table),
                             rule=rule.name, note="missing derivation")
        tree.add_child(root, nderive)
        for vertex in vertices:
            tree.add_child(nderive, vertex)
        tree.mark_expanded(root)
        tree.completed = True
        return tree

    def _goal_arity(self, goal: MissingTupleGoal, rule: Optional[Rule]) -> int:
        max_index = max((i for i, _ in goal.constraints), default=-1)
        if rule is not None:
            return max(len(rule.head.args), max_index + 1)
        return max_index + 1

    def _pool_satisfiable(self, tree: MetaTree, goal: MissingTupleGoal, rule: Rule,
                          env: Bindings, edits: Sequence[Edit],
                          stats: ExplorationStats) -> bool:
        """Build the tree's constraint pool and check satisfiability.

        Every constraint here is ``var == constant``, so satisfiability is a
        direct consistency check: no variable may be forced to two distinct
        non-wildcard values (the wildcard compares equal to everything, like
        in the solver).  The pool is still populated for later tree use.
        """
        pool = tree.pool
        assigned: Dict[str, object] = {}
        satisfiable = True
        def bind(name, value):
            nonlocal satisfiable
            pool.add(eq(SymVar(name), value))
            if value == WILDCARD:
                return
            previous = assigned.setdefault(name, value)
            if previous != value:
                satisfiable = False
        for index, value in goal.constraints:
            arg = rule.head.args[index]
            if isinstance(arg, Var):
                bind(f"{rule.name}.{arg.name}", value)
        for var_name, value in env.items():
            bind(f"{rule.name}.{var_name}", value)
        return satisfiable

    # ------------------------------------------------------------------
    # Manual tuple insertion
    # ------------------------------------------------------------------

    def _manual_insert_candidate(self, goal: MissingTupleGoal,
                                 stats: ExplorationStats) -> Optional[RepairCandidate]:
        arity = self._infer_table_arity(goal)
        if arity == 0:
            return None
        values = tuple(goal.constraints_dict().get(i, WILDCARD) for i in range(arity))
        tup = NDTuple(goal.table, values)
        edit = InsertTuple(tup)
        cost = self.cost_model.edit_cost(edit)
        root = MetaVertex(NEXIST, TupleMeta(tup))
        tree = MetaTree(root, cost=cost)
        tree.add_child(root, MetaVertex(NEXIST, BaseMeta(tup), note="manual insertion"))
        tree.completed = True
        return RepairCandidate(edits=(edit,), cost=cost, tree=tree,
                               description=f"manually insert {tup}")

    def _support_insert_candidates(self, goal: MissingTupleGoal,
                                   rule: Rule) -> List[RepairCandidate]:
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
        head_bindings = self._head_bindings(rule, goal)
        if head_bindings is None:
            return []
        cost = self.cost_model.costs["support_tuple"]
        out: List[RepairCandidate] = []
        for atom in rule.body:
            pattern = self._atom_pattern(atom, head_bindings)
            tup = self._materialise_pattern(atom, pattern, goal)
            if all(value == WILDCARD for value in tup.values):
                continue    # no goal constant reaches this atom
            root = MetaVertex(NEXIST, TupleMeta(NDTuple(goal.table, tuple(
                goal.constraints_dict().get(i, WILDCARD)
                for i in range(self._goal_arity(goal, rule))))), rule=rule.name)
            tree = MetaTree(root, cost=cost)
            tree.add_child(root, MetaVertex(NEXIST, BaseMeta(tup),
                                            note="support insertion"))
            tree.completed = True
            out.append(RepairCandidate(
                edits=(InsertTuple(tup),), cost=cost, tree=tree,
                description=f"insert support tuple {tup} for rule {rule.name}"))
        return out

    def _infer_table_arity(self, goal: MissingTupleGoal) -> int:
        rules = self.program.rules_deriving(goal.table)
        if rules:
            return len(rules[0].head.args)
        historical = self.history.tuples_of(goal.table)
        if historical:
            return historical[0].arity
        return self._goal_arity(goal, None)

    # ------------------------------------------------------------------
    # Retargeting: change/copy another rule's head
    # ------------------------------------------------------------------

    def _retarget_candidates(self, goal: MissingTupleGoal, rule: Rule,
                             stats: ExplorationStats):
        """Candidates that re-point (or copy) a rule whose head table differs.

        Only rules that actually fired in the recorded history and whose
        output is compatible with the goal constraints are considered — this
        is the Q4 pattern, where the fix copies a flow-entry rule and changes
        its head into a ``PacketOut``.
        """
        head_bindings = Bindings()
        combos = self._body_combinations(rule, head_bindings, stats)
        results = []
        for body_choice in combos[:10]:
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
            change_edit = ChangeRuleHead(rule.name, new_head)
            change_cost = self.cost_model.edit_cost(change_edit)
            results.append((change_cost, RepairCandidate(
                edits=(change_edit,), cost=change_cost,
                tree=self._retarget_tree(goal, rule, "change head"))))
            copy_edit = CopyRule(rule.name, replace(
                rule, name=f"{rule.name}_copy", head=new_head))
            copy_cost = self.cost_model.edit_cost(copy_edit)
            results.append((copy_cost, RepairCandidate(
                edits=(copy_edit,), cost=copy_cost,
                tree=self._retarget_tree(goal, rule, "copy rule"))))
            break
        return results

    def _head_values_match_goal(self, head_values, goal: MissingTupleGoal) -> bool:
        for index, value in goal.constraints:
            if index >= len(head_values):
                return False
            if head_values[index] is None:
                continue
            if not values_equal(head_values[index], value):
                return False
        return True

    def _retarget_tree(self, goal: MissingTupleGoal, rule: Rule, note: str) -> MetaTree:
        root = MetaVertex(NEXIST, TupleMeta(NDTuple(goal.table, tuple(
            v for _, v in goal.constraints))))
        tree = MetaTree(root)
        tree.add_child(root, MetaVertex(
            NEXIST, HeadValMeta(rule.name, "*", "head", goal.table), note=note))
        tree.completed = True
        return tree

    # ==================================================================
    # Positive symptoms (unwanted tuples)
    # ==================================================================

    def explore_existing(self, goal: ExistingTupleGoal,
                         derivations) -> ExplorationResult:
        """Repairs that make an existing (unwanted) tuple disappear.

        ``derivations`` is the list of
        :class:`~repro.ndlog.events.DerivationRecord` supporting the tuple
        (obtained from the engine / provenance layer).
        """
        stats = ExplorationStats()
        forest = MetaForest()
        lookups_before = self.history.lookup_count
        candidates: List[RepairCandidate] = []
        for record in derivations:
            try:
                rule = self.program.rule_named(record.rule)
            except KeyError:
                continue
            bindings = Bindings(record.bindings_dict())
            tree = self._build_existing_tree(goal, rule, record)
            forest.add(tree)
            candidates.extend(self._break_selection_candidates(rule, bindings, tree, stats))
            candidates.extend(self._delete_structure_candidates(rule, record, tree))
            candidates.extend(self._base_tuple_candidates(rule, record, bindings, tree, stats))
        candidates = [c for c in candidates if self.cost_model.within_cutoff(c.cost)]
        candidates = [c for c in candidates
                      if not self._rederives(goal.tuple, c)]
        stats.candidates_generated = len(candidates)
        stats.history_lookups += self.history.lookup_count - lookups_before
        final = deduplicate(candidates)[: self.max_candidates]
        return ExplorationResult(goal=goal, candidates=final, forest=forest, stats=stats)

    def _build_existing_tree(self, goal: ExistingTupleGoal, rule: Rule,
                             record) -> MetaTree:
        root = MetaVertex(EXIST, TupleMeta(goal.tuple), rule=rule.name)
        tree = MetaTree(root)
        join = MetaVertex(EXIST, HeadValMeta(rule.name, "*", "head", goal.tuple.table),
                          rule=rule.name)
        tree.add_child(root, join)
        for body_tuple in record.body:
            tree.add_child(join, MetaVertex(EXIST, TupleMeta(body_tuple)))
        for index, selection in enumerate(rule.selections):
            tree.add_child(join, MetaVertex(EXIST, SelMeta(
                rule.name, "*", selection.to_ndlog(), True)))
        tree.completed = True
        return tree

    def _break_selection_candidates(self, rule: Rule, bindings: Bindings,
                                    tree: MetaTree, stats: ExplorationStats):
        """Change a constant or operator so a satisfied selection becomes false."""
        out = []
        for sel_index, selection in enumerate(rule.selections):
            left_value = try_evaluate(selection.left, bindings)
            right_value = try_evaluate(selection.right, bindings)
            # Constant change via symbolic negation (Section 4.2).
            for side, expr, other_value in (("right", selection.right, left_value),
                                            ("left", selection.left, right_value)):
                if not isinstance(expr, Const) or other_value is None:
                    continue
                symbol = SymVar(f"Const.{rule.name}.s{sel_index}.Val")
                pool = ConstraintPool()
                if side == "right":
                    pool.add(Comparison(selection.op, other_value, symbol))
                else:
                    pool.add(Comparison(selection.op, symbol, other_value))
                pool.hint(symbol, self._solver_value_hints())
                negation = pool.solve_negation()
                stats.solver_invocations += pool.solver_invocations
                stats.solver_seconds += pool.solve_seconds
                if negation is None:
                    continue
                model, _ = negation
                new_value = model.value_of(symbol.name)
                if new_value is None or new_value == expr.value:
                    continue
                edit = ChangeConstant(rule.name, sel_index, side, expr.value, new_value)
                out.append(RepairCandidate(
                    edits=(edit,), cost=self.cost_model.edit_cost(edit), tree=tree))
            # Operator change making the selection false.
            if left_value is not None and right_value is not None:
                for new_op in COMPARISON_OPERATORS:
                    if new_op == selection.op:
                        continue
                    if Comparison(new_op, left_value, right_value).evaluate({}) is False:
                        edit = ChangeOperator(rule.name, sel_index, selection.op, new_op)
                        out.append(RepairCandidate(
                            edits=(edit,), cost=self.cost_model.edit_cost(edit),
                            tree=tree))
                        break
        return out

    def _delete_structure_candidates(self, rule: Rule, record, tree: MetaTree):
        """Delete a predicate or the whole rule (syntax permitting)."""
        out = []
        if len(rule.body) > 1:
            for index, atom in enumerate(rule.body):
                edit = DeletePredicate(rule.name, index, atom.table)
                out.append(RepairCandidate(
                    edits=(edit,), cost=self.cost_model.edit_cost(edit), tree=tree,
                    notes=("may allow re-derivation via other meta rules",)))
        rule_edit = DeleteRule(rule.name)
        out.append(RepairCandidate(
            edits=(rule_edit,), cost=self.cost_model.edit_cost(rule_edit), tree=tree))
        return out

    def _base_tuple_candidates(self, rule: Rule, record, bindings: Bindings,
                               tree: MetaTree, stats: ExplorationStats):
        """Delete or change the base tuples supporting the derivation."""
        out = []
        for body_tuple in record.body:
            edit = DeleteTuple(body_tuple)
            out.append(RepairCandidate(
                edits=(edit,), cost=self.cost_model.edit_cost(edit), tree=tree))
            # Change a value that feeds a selection so the derivation breaks.
            atom = self._atom_for_tuple(rule, body_tuple)
            if atom is None:
                continue
            for column, arg in enumerate(atom.args):
                if not isinstance(arg, Var):
                    continue
                affected = [s for s in rule.selections if arg.name in s.variables()]
                if not affected:
                    continue
                selection = affected[0]
                symbol = SymVar(f"{body_tuple.table}.{column}")
                pool = ConstraintPool()
                substituted = dict(bindings)
                substituted[arg.name] = symbol
                left = substituted.get(selection.left.name, None) \
                    if isinstance(selection.left, Var) else try_evaluate(selection.left, bindings)
                right = substituted.get(selection.right.name, None) \
                    if isinstance(selection.right, Var) else try_evaluate(selection.right, bindings)
                if left is None or right is None:
                    continue
                pool.add(Comparison(selection.op, left, right))
                pool.hint(symbol, self._solver_value_hints())
                negation = pool.solve_negation()
                stats.solver_invocations += pool.solver_invocations
                stats.solver_seconds += pool.solve_seconds
                if negation is None:
                    continue
                model, _ = negation
                new_value = model.value_of(symbol.name)
                if new_value is None or new_value == body_tuple.values[column]:
                    continue
                change = ChangeTuple(body_tuple, column, new_value)
                out.append(RepairCandidate(
                    edits=(change,), cost=self.cost_model.edit_cost(change), tree=tree))
        return out

    def _atom_for_tuple(self, rule: Rule, tup: NDTuple) -> Optional[Atom]:
        for atom in rule.body:
            if atom.table == tup.table and atom.arity == tup.arity:
                return atom
        return None

    def _rederives(self, unwanted: NDTuple, candidate: RepairCandidate) -> bool:
        """Quick check whether the repaired program still derives the tuple.

        The check replays only the historical base tuples (cheap), mirroring
        the paper's observation that full protection against re-derivation is
        undecidable and best left to backtesting.
        """
        from ..repair.apply import apply_candidate
        from ..ndlog.engine import Engine

        repaired = apply_candidate(self.program, candidate)
        engine = Engine(repaired.program)
        removed = set(repaired.removed_tuples)
        base = []
        for table in self.history.tables():
            if table in self.program.derived_tables():
                continue
            for tup in self.history.tuples_of(table):
                if tup not in removed:
                    base.append(tup)
        base.extend(repaired.inserted_tuples)
        try:
            engine.insert_many(base)
        except Exception:
            return False
        return engine.contains(unwanted)
