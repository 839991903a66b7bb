"""Classical (data-only) provenance queries.

Positive provenance explains why a tuple exists: recursively, which rule
firings and which body tuples support it, down to base-tuple insertions.
Negative provenance explains why a tuple is absent: for every rule that could
have derived it, which preconditions failed.

These graphs are what existing SDN debuggers (ExSPAN, SNP, Y!) provide; the
paper's contribution — meta provenance — extends them with program elements
and lives in :mod:`repro.meta`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ndlog.ast import Const, Rule, Var
from ..ndlog.engine import Engine
from ..ndlog.expr import Bindings, match_atom, try_evaluate
from ..ndlog.tuples import NDTuple
from .graph import ProvenanceGraph
from .vertices import (
    APPEAR,
    DERIVE,
    EXIST,
    INSERT,
    NAPPEAR,
    NDERIVE,
    NEXIST,
    NINSERT,
    RECEIVE,
    SEND,
    TuplePattern,
    Vertex,
)


class ProvenanceQuery:
    """Builds provenance graphs from an engine's history."""

    def __init__(self, engine: Engine, max_depth: int = 20):
        self.engine = engine
        self.max_depth = max_depth

    # ------------------------------------------------------------------
    # Positive provenance
    # ------------------------------------------------------------------

    def explain_exists(self, tup: NDTuple) -> ProvenanceGraph:
        """Explain why ``tup`` exists (or existed) in the database."""
        node = tup.location(self.engine.database.schema(tup.table))
        root = Vertex(EXIST, tup, node=node)
        graph = ProvenanceGraph(root)
        self._expand_positive(graph, root, tup, depth=0, on_path=set())
        return graph

    def _expand_positive(self, graph: ProvenanceGraph, vertex: Vertex,
                         tup: NDTuple, depth: int, on_path: Set[NDTuple]):
        if depth > self.max_depth or tup in on_path:
            return
        on_path = on_path | {tup}
        derivations = self.engine.derivations_of(tup)
        if not derivations:
            # A base tuple: its cause is the external insertion.
            node = tup.location(self.engine.database.schema(tup.table))
            insert = Vertex(INSERT, tup, node=node)
            graph.add_edge(vertex, insert)
            return
        for record in derivations:
            derive = Vertex(DERIVE, tup, node=record.node, rule=record.rule,
                            time=record.time)
            graph.add_edge(vertex, derive)
            for body_tuple in record.body:
                body_node = body_tuple.location(
                    self.engine.database.schema(body_tuple.table))
                exist = Vertex(EXIST, body_tuple, node=body_node)
                if body_node is not None and record.node is not None \
                        and body_node != record.node:
                    send = Vertex(SEND, body_tuple, node=body_node)
                    receive = Vertex(RECEIVE, body_tuple, node=record.node)
                    graph.add_edge(derive, receive)
                    graph.add_edge(receive, send)
                    graph.add_edge(send, exist)
                else:
                    graph.add_edge(derive, exist)
                self._expand_positive(graph, exist, body_tuple, depth + 1, on_path)

    # ------------------------------------------------------------------
    # Negative provenance
    # ------------------------------------------------------------------

    def explain_missing(self, pattern: TuplePattern) -> ProvenanceGraph:
        """Explain why no tuple matching ``pattern`` exists."""
        root = Vertex(NEXIST, pattern)
        graph = ProvenanceGraph(root)
        self._expand_negative(graph, root, pattern, depth=0)
        return graph

    def _expand_negative(self, graph: ProvenanceGraph, vertex: Vertex,
                         pattern: TuplePattern, depth: int):
        if depth > self.max_depth:
            return
        rules = self.engine.program.rules_deriving(pattern.table)
        if not rules:
            # Base table: the tuple was simply never inserted.
            graph.add_edge(vertex, Vertex(NINSERT, pattern))
            return
        for rule in rules:
            nderive = Vertex(NDERIVE, pattern, rule=rule.name)
            graph.add_edge(vertex, nderive)
            self._explain_failed_rule(graph, nderive, rule, pattern, depth)

    def _explain_failed_rule(self, graph: ProvenanceGraph, nderive: Vertex,
                             rule: Rule, pattern: TuplePattern, depth: int):
        bindings = self._head_bindings(rule, pattern)
        if bindings is None:
            # A constant in the rule head already contradicts the pattern.
            graph.add_edge(nderive, Vertex(
                NAPPEAR, pattern, rule=rule.name))
            return
        for atom_index, atom in enumerate(rule.body):
            matching = self._matching_tuples(atom, bindings)
            if matching:
                best = matching[0]
                exist = Vertex(EXIST, best,
                               node=best.location(self.engine.database.schema(best.table)))
                graph.add_edge(nderive, exist)
            else:
                body_pattern = self._atom_pattern(atom, bindings)
                nexist = Vertex(NEXIST, body_pattern)
                graph.add_edge(nderive, nexist)
                if depth + 1 <= self.max_depth:
                    self._expand_negative(graph, nexist, body_pattern, depth + 1)
        failed = self._failed_selections(rule, bindings)
        for selection in failed:
            graph.add_edge(nderive, Vertex(
                NAPPEAR,
                TuplePattern("Sel", ((0, rule.name), (1, selection.to_ndlog()))),
                rule=rule.name))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _head_bindings(self, rule: Rule, pattern: TuplePattern) -> Optional[Bindings]:
        """Translate head-column constraints into variable bindings."""
        bindings = Bindings()
        for index, value in pattern.constraints:
            if index >= len(rule.head.args):
                return None
            arg = rule.head.args[index]
            if isinstance(arg, Var):
                if arg.name in bindings and bindings[arg.name] != value:
                    return None
                bindings[arg.name] = value
            elif isinstance(arg, Const):
                if arg.value != value:
                    return None
        # Assignments that fix head variables to constants may also conflict.
        for assignment in rule.assignments:
            if assignment.var in bindings:
                computed = try_evaluate(assignment.expr, bindings)
                if computed is not None and computed != bindings[assignment.var]:
                    return None
        return bindings

    def _matching_tuples(self, atom, bindings: Bindings) -> List[NDTuple]:
        """All historical tuples of the atom's table compatible with bindings."""
        functions = self.engine.functions
        return [tup for tup in self._historical_tuples(atom.table)
                if match_atom(atom, tup, bindings, functions) is not None]

    def _historical_tuples(self, table) -> List[NDTuple]:
        current = set(self.engine.tuples(table))
        seen = set(current)
        out = list(current)
        for event in self.engine.events:
            if event.tuple.table == table and event.tuple not in seen:
                seen.add(event.tuple)
                out.append(event.tuple)
        return out

    def _atom_pattern(self, atom, bindings: Bindings) -> TuplePattern:
        constraints: Dict[int, object] = {}
        for index, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                constraints[index] = arg.value
            elif isinstance(arg, Var) and arg.name in bindings:
                constraints[index] = bindings[arg.name]
        return TuplePattern.from_dict(atom.table, constraints)

    def _failed_selections(self, rule: Rule, bindings: Bindings):
        """Selections that are already falsified by the head-derived bindings."""
        failed = []
        for selection in rule.selections:
            value = try_evaluate(selection.expr, bindings)
            if value is False:
                failed.append(selection)
        return failed
