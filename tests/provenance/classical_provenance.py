"""Classical (data-only) network provenance, Section 3.1 and Figure 2.

Positive provenance explains why a tuple exists: recursively, which rule
firings and which body tuples support it, down to base-tuple insertions.
Negative provenance explains why a tuple is absent: for every rule that could
have derived it, which preconditions failed.  These graphs are what existing
SDN debuggers (ExSPAN, SNP, Y!) provide; the paper's contribution — meta
provenance, :mod:`repro.meta` — extends them with program elements, and no
repair builds them, so the model lives beside the suite that exercises it.

A vertex (:class:`Vertex`) describes an event concerning a tuple at a node
and time: the positive kinds (EXIST, INSERT, DELETE, DERIVE, UNDERIVE,
APPEAR, DISAPPEAR, SEND, RECEIVE) and a negative twin for most of them
(NEXIST, NAPPEAR, NDERIVE, ...).  A :class:`ProvenanceGraph` is a DAG whose
edges point from an effect to its direct causes, so the leaves reached from
the root are base-tuple insertions (or, for negative provenance, missing base
tuples); :class:`ProvenanceQuery` builds one from the event and derivation
history of the one engine that keeps it, the oracle ``NaiveEngine``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from reference_engine import NaiveEngine, location
from repro.ndlog.ast import Const, Rule, Var
from repro.ndlog.expr import Bindings, match_atom, try_evaluate
from repro.ndlog.tuples import NDTuple

from recording_oracle import derivations_of


# Positive vertex kinds.
EXIST = "EXIST"
INSERT = "INSERT"
DELETE = "DELETE"
DERIVE = "DERIVE"
UNDERIVE = "UNDERIVE"
APPEAR = "APPEAR"
DISAPPEAR = "DISAPPEAR"
SEND = "SEND"
RECEIVE = "RECEIVE"

# Negative twins.
NEXIST = "NEXIST"
NINSERT = "NINSERT"
NDERIVE = "NDERIVE"
NAPPEAR = "NAPPEAR"
NSEND = "NSEND"
NRECEIVE = "NRECEIVE"

POSITIVE_KINDS = (EXIST, INSERT, DELETE, DERIVE, UNDERIVE, APPEAR, DISAPPEAR,
                  SEND, RECEIVE)
NEGATIVE_KINDS = (NEXIST, NINSERT, NDERIVE, NAPPEAR, NSEND, NRECEIVE)

_NEGATIVE_TWIN = {
    EXIST: NEXIST,
    INSERT: NINSERT,
    DERIVE: NDERIVE,
    APPEAR: NAPPEAR,
    SEND: NSEND,
    RECEIVE: NRECEIVE,
}


def negative_twin(kind: str) -> str:
    """Return the negative twin of a positive vertex kind."""
    return _NEGATIVE_TWIN[kind]


def is_negative(kind: str) -> bool:
    return kind in NEGATIVE_KINDS


@dataclass(frozen=True)
class TuplePattern:
    """A partially-specified tuple, used by negative vertexes.

    ``constraints`` maps column index to a required value; unspecified
    columns are unconstrained.  A pattern with no constraints describes "any
    tuple of this table".
    """

    table: str
    constraints: Tuple[Tuple[int, object], ...] = ()

    @classmethod
    def from_dict(cls, table: str, constraints: Dict[int, object]) -> "TuplePattern":
        return cls(table, tuple(sorted(constraints.items())))

    def constraints_dict(self) -> Dict[int, object]:
        return dict(self.constraints)

    def matches(self, tup: NDTuple) -> bool:
        if tup.table != self.table:
            return False
        for index, value in self.constraints:
            if index >= len(tup.values) or tup.values[index] != value:
                return False
        return True

    def __str__(self):
        parts = [f"[{i}]={v!r}" for i, v in self.constraints]
        inner = ", ".join(parts) if parts else "..."
        return f"{self.table}({inner})"


_vertex_counter = itertools.count(1)


@dataclass(frozen=True)
class Vertex:
    """One vertex of the provenance graph."""

    kind: str
    subject: object                      # NDTuple or TuplePattern
    node: object = None
    time: Optional[int] = None
    interval: Optional[Tuple[int, Optional[int]]] = None
    rule: Optional[str] = None
    vertex_id: int = field(default_factory=lambda: next(_vertex_counter))

    @property
    def negative(self) -> bool:
        return is_negative(self.kind)

    def label(self) -> str:
        when = ""
        if self.interval is not None:
            end = self.interval[1] if self.interval[1] is not None else "now"
            when = f" @[{self.interval[0]}, {end}]"
        elif self.time is not None:
            when = f" @t={self.time}"
        where = f" on {self.node}" if self.node is not None else ""
        via = f" via {self.rule}" if self.rule else ""
        return f"{self.kind}({self.subject}){via}{where}{when}"

    def __str__(self):
        return self.label()


class ProvenanceGraph:
    """A rooted DAG of provenance vertices.

    Edges are stored effect -> causes ("the children of a vertex are its
    direct causes"), matching the QUERY(v) convention of Section 3.5.
    """

    def __init__(self, root: Optional[Vertex] = None):
        self.root = root
        self._vertices: Dict[int, Vertex] = {}
        self._children: Dict[int, List[int]] = {}
        self._parents: Dict[int, List[int]] = {}
        if root is not None:
            self.add_vertex(root)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> Vertex:
        self._vertices.setdefault(vertex.vertex_id, vertex)
        self._children.setdefault(vertex.vertex_id, [])
        self._parents.setdefault(vertex.vertex_id, [])
        if self.root is None:
            self.root = vertex
        return vertex

    def add_edge(self, effect: Vertex, cause: Vertex):
        """Record that ``cause`` directly caused ``effect``."""
        self.add_vertex(effect)
        self.add_vertex(cause)
        if cause.vertex_id not in self._children[effect.vertex_id]:
            self._children[effect.vertex_id].append(cause.vertex_id)
            self._parents[cause.vertex_id].append(effect.vertex_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def vertices(self) -> List[Vertex]:
        return list(self._vertices.values())

    def causes(self, vertex: Vertex) -> List[Vertex]:
        return [self._vertices[i] for i in self._children.get(vertex.vertex_id, [])]

    def effects(self, vertex: Vertex) -> List[Vertex]:
        return [self._vertices[i] for i in self._parents.get(vertex.vertex_id, [])]

    def leaves(self) -> List[Vertex]:
        return [v for v in self._vertices.values()
                if not self._children.get(v.vertex_id)]

    def size(self) -> int:
        return len(self._vertices)

    def depth(self) -> int:
        """Longest root-to-leaf path length (in edges)."""
        if self.root is None:
            return 0
        best = 0
        stack = [(self.root, 0)]
        seen: Set[Tuple[int, int]] = set()
        while stack:
            vertex, depth = stack.pop()
            best = max(best, depth)
            for cause in self.causes(vertex):
                key = (vertex.vertex_id, cause.vertex_id)
                if key in seen:
                    continue
                seen.add(key)
                stack.append((cause, depth + 1))
        return best

    def walk(self) -> Iterator[Tuple[Vertex, int]]:
        """Breadth-first traversal from the root yielding (vertex, depth)."""
        if self.root is None:
            return
        queue = deque([(self.root, 0)])
        visited = {self.root.vertex_id}
        while queue:
            vertex, depth = queue.popleft()
            yield vertex, depth
            for cause in self.causes(vertex):
                if cause.vertex_id not in visited:
                    visited.add(cause.vertex_id)
                    queue.append((cause, depth + 1))

    def find(self, predicate) -> List[Vertex]:
        return [v for v in self._vertices.values() if predicate(v)]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_text(self, max_depth: Optional[int] = None) -> str:
        """Render the graph as an indented tree (duplicates shown once)."""
        if self.root is None:
            return "(empty provenance graph)"
        lines: List[str] = []
        seen: Set[int] = set()

        def visit(vertex: Vertex, depth: int):
            if max_depth is not None and depth > max_depth:
                return
            marker = ""
            if vertex.vertex_id in seen:
                marker = " (see above)"
                lines.append("  " * depth + "- " + vertex.label() + marker)
                return
            seen.add(vertex.vertex_id)
            lines.append("  " * depth + "- " + vertex.label())
            for cause in self.causes(vertex):
                visit(cause, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT format (for documentation)."""
        lines = ["digraph provenance {", "  rankdir=BT;"]
        for vertex in self._vertices.values():
            shape = "box" if not vertex.negative else "octagon"
            label = vertex.label().replace('"', "'")
            lines.append(f'  v{vertex.vertex_id} [label="{label}", shape={shape}];')
        for effect_id, cause_ids in self._children.items():
            for cause_id in cause_ids:
                lines.append(f"  v{cause_id} -> v{effect_id};")
        lines.append("}")
        return "\n".join(lines)

    def __len__(self):
        return self.size()


class ProvenanceQuery:
    """Builds provenance graphs from an engine's history."""

    def __init__(self, engine: NaiveEngine, max_depth: int = 20):
        self.engine = engine
        self.max_depth = max_depth

    # ------------------------------------------------------------------
    # Positive provenance
    # ------------------------------------------------------------------

    def explain_exists(self, tup: NDTuple) -> ProvenanceGraph:
        """Explain why ``tup`` exists (or existed) in the database."""
        node = location(tup, self.engine.database.schema(tup.table))
        root = Vertex(EXIST, tup, node=node)
        graph = ProvenanceGraph(root)
        self._expand_positive(graph, root, tup, depth=0, on_path=set())
        return graph

    def _expand_positive(self, graph: ProvenanceGraph, vertex: Vertex,
                         tup: NDTuple, depth: int, on_path: Set[NDTuple]):
        if depth > self.max_depth or tup in on_path:
            return
        on_path = on_path | {tup}
        derivations = derivations_of(self.engine, tup)
        if not derivations:
            # A base tuple: its cause is the external insertion.
            node = location(tup, self.engine.database.schema(tup.table))
            insert = Vertex(INSERT, tup, node=node)
            graph.add_edge(vertex, insert)
            return
        for record in derivations:
            derive = Vertex(DERIVE, tup, node=record.node, rule=record.rule,
                            time=record.time)
            graph.add_edge(vertex, derive)
            for body_tuple in record.body:
                body_node = location(
                    body_tuple, self.engine.database.schema(body_tuple.table))
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
                               node=location(best, self.engine.database.schema(best.table)))
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
