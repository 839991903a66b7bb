"""Predicate-level program dependency graph.

Nodes are table (predicate) names; an edge ``source -> target`` records that
a rule with head table ``target`` reads ``source`` in its body.  Edges carry
a polarity:

``positive``
    an ordinary body atom,
``negative``
    a negated body atom (``!Table(...)``),
``aggregate``
    the rule computes an aggregate function over its body (the body tables
    feed the aggregation, which is order-sensitive like negation).

Stratification follows the textbook construction: collapse the graph into
strongly connected components; a program is stratified iff no SCC contains
an internal negative or aggregate edge (recursion through negation).  The
stratum of a table is the length of the longest negative/aggregate-crossing
path below it in the condensation.

The graph also answers cone queries: ``downstream(tables)`` is the set of
tables whose contents may change when the given tables' derivations change.
The engine asks nothing of the graph: it evaluates rules off worklists, not
stratum by stratum, so SCCs and strata serve the stratification findings of
the linter and the vetter only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ndlog.ast import FuncCall, Program, Rule

from .findings import Severity, finding_at


#: Function names treated as aggregates for stratification purposes.  The
#: default registry does not currently provide them, but rules written with
#: them must still stratify like negation (order-sensitive evaluation).
AGGREGATE_FUNCTIONS = frozenset({"f_count", "f_sum", "f_min", "f_max"})


@dataclass(frozen=True)
class DependencyEdge:
    """One body-to-head dependency contributed by a single rule."""

    source: str
    target: str
    rule: str
    polarity: str    # "positive" | "negative" | "aggregate"

    @property
    def restricted(self) -> bool:
        """Does this edge forbid recursion through it (negation/aggregate)?"""
        return self.polarity != "positive"


def _rule_uses_aggregate(rule: Rule) -> bool:
    def scan(expr) -> bool:
        if isinstance(expr, FuncCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                return True
            return any(scan(arg) for arg in expr.args)
        left = getattr(expr, "left", None)
        right = getattr(expr, "right", None)
        return any(scan(sub) for sub in (left, right) if sub is not None)

    for assignment in rule.assignments:
        if scan(assignment.expr):
            return True
    for arg in rule.head.args:
        if scan(arg):
            return True
    return False


class DependencyGraph:
    """Dependency graph of one program, with SCCs and stratification."""

    def __init__(self, program: Program):
        # The rules, not the program: :meth:`of` memoises the graph on the
        # program, and a graph holding its program would be a reference
        # cycle that only a full collection frees.
        self._rules: Tuple[Rule, ...] = program.rules
        self.nodes: Set[str] = set()
        self.edges: List[DependencyEdge] = []
        self._successors: Dict[str, Set[str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}
        self._consuming_rules: Dict[str, List[Rule]] = {}
        self._deriving_rules: Dict[str, List[Rule]] = {}
        for rule in program.rules:
            head = rule.head.table
            self.nodes.add(head)
            self._deriving_rules.setdefault(head, []).append(rule)
            # A fact of the rule alone: scanned once per Rule value, and a
            # candidate program shares all but its edited rules with the base.
            aggregate = rule.memo("uses_aggregate", _rule_uses_aggregate)
            for atom in rule.body:
                self.nodes.add(atom.table)
                if atom.negated:
                    polarity = "negative"
                elif aggregate:
                    polarity = "aggregate"
                else:
                    polarity = "positive"
                self.edges.append(DependencyEdge(
                    source=atom.table, target=head,
                    rule=rule.name, polarity=polarity))
                self._successors.setdefault(atom.table, set()).add(head)
                self._predecessors.setdefault(head, set()).add(atom.table)
                self._consuming_rules.setdefault(atom.table, []).append(rule)
        self._sccs: Optional[List[FrozenSet[str]]] = None
        self._scc_index: Optional[Dict[str, int]] = None

    @classmethod
    def of(cls, program: Program) -> "DependencyGraph":
        """The graph of ``program``, built once per program value — a
        program cannot change, so neither can its graph."""
        return program.memo("dependency_graph", cls)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def successors(self, table: str) -> Set[str]:
        return self._successors.get(table, set())

    def predecessors(self, table: str) -> Set[str]:
        return self._predecessors.get(table, set())

    def rules_consuming(self, table: str) -> List[Rule]:
        """Rules with ``table`` in their body (in program order)."""
        return list(self._consuming_rules.get(table, ()))

    def rules_deriving(self, table: str) -> List[Rule]:
        return list(self._deriving_rules.get(table, ()))

    def downstream(self, tables: Iterable[str]) -> Set[str]:
        """``tables`` plus every table transitively derivable from them."""
        out = set(tables)
        frontier = list(out)
        while frontier:
            current = frontier.pop()
            for succ in self._successors.get(current, ()):
                if succ not in out:
                    out.add(succ)
                    frontier.append(succ)
        return out

    def upstream(self, tables: Iterable[str]) -> Set[str]:
        """``tables`` plus every table they transitively read."""
        out = set(tables)
        frontier = list(out)
        while frontier:
            current = frontier.pop()
            for pred in self._predecessors.get(current, ()):
                if pred not in out:
                    out.add(pred)
                    frontier.append(pred)
        return out

    # ------------------------------------------------------------------
    # Strongly connected components (iterative Tarjan)
    # ------------------------------------------------------------------

    def sccs(self) -> List[FrozenSet[str]]:
        """SCCs in reverse-topological order (dependencies first)."""
        if self._sccs is not None:
            return self._sccs
        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        result: List[FrozenSet[str]] = []
        counter = [0]

        for root in sorted(self.nodes):
            if root in index_of:
                continue
            work: List[Tuple[str, Iterable[str]]] = [
                (root, iter(sorted(self._successors.get(root, ()))))]
            index_of[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index_of:
                        index_of[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter(sorted(self._successors.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    result.append(frozenset(component))
        self._sccs = result
        return result

    def scc_index(self) -> Dict[str, int]:
        """Map each table to the position of its SCC in :meth:`sccs`."""
        if self._scc_index is None:
            self._scc_index = {}
            for number, component in enumerate(self.sccs()):
                for table in component:
                    self._scc_index[table] = number
        return self._scc_index

    def recursive_tables(self) -> Set[str]:
        """Tables involved in recursion (multi-node SCC or a self-loop)."""
        out: Set[str] = set()
        for component in self.sccs():
            if len(component) > 1:
                out |= component
        for edge in self.edges:
            if edge.source == edge.target:
                out.add(edge.source)
        return out

    # ------------------------------------------------------------------
    # Stratification
    # ------------------------------------------------------------------

    def unstratified_edges(self) -> List[DependencyEdge]:
        """Negative/aggregate edges inside an SCC (recursion through them)."""
        component_of: Dict[str, int] = {}
        for number, component in enumerate(self.sccs()):
            for table in component:
                component_of[table] = number
        recursive = self.recursive_tables()
        out = []
        for edge in self.edges:
            if not edge.restricted:
                continue
            if (component_of.get(edge.source) == component_of.get(edge.target)
                    and (edge.source in recursive or
                         edge.source == edge.target)):
                out.append(edge)
        return out

    def is_stratified(self) -> bool:
        return not self.unstratified_edges()

    def strata(self) -> Optional[Dict[str, int]]:
        """Stratum number per table, or ``None`` if unstratifiable.

        Base tables live in stratum 0; crossing a negative or aggregate edge
        increments the stratum.  SCCs are processed in topological order, so
        every table's stratum is final when assigned.
        """
        if not self.is_stratified():
            return None
        component_of = self.scc_index()
        components = self.sccs()
        edges_into: Dict[int, List[DependencyEdge]] = {}
        for edge in self.edges:
            edges_into.setdefault(component_of[edge.target], []).append(edge)
        strata: Dict[str, int] = {table: 0 for table in self.nodes}
        # ``sccs()`` is reverse-topological (dependencies first), so one pass
        # in that order propagates maxima correctly.
        for number, component in enumerate(components):
            for edge in edges_into.get(number, ()):
                bump = 1 if edge.restricted else 0
                candidate = strata[edge.source] + bump
                for member in component:
                    if candidate > strata[member]:
                        strata[member] = candidate
        return strata

    # ------------------------------------------------------------------
    # Lint pass
    # ------------------------------------------------------------------

    def findings(self):
        """Stratification findings (``unstratified-negation``)."""
        out = []
        for edge in self.unstratified_edges():
            rule = next((r for r in self._rules if r.name == edge.rule), None)
            atom = None
            atom_index = None
            if rule is not None:
                for index, body_atom in enumerate(rule.body):
                    if body_atom.table == edge.source:
                        atom, atom_index = body_atom, index
                        break
            out.append(finding_at(
                "depgraph", "unstratified-negation", Severity.ERROR,
                f"recursion through {edge.polarity} dependency "
                f"{edge.source} -> {edge.target} (rule {edge.rule})",
                rule=rule, atom=atom, atom_index=atom_index))
        return out
