"""Meta provenance forests.

A meta provenance *tree* explains one way of making the symptom go away (for
a missing tuple) or one derivation of an unwanted tuple.  Because the same
effect can often be achieved in several ways — different rules could derive
the missing tuple, a failing selection can be fixed by changing a constant
or the operator — the explorer maintains a *forest*: whenever a vertex has k
individually-sufficient children, the current tree is forked into k copies
(Section 3.3 of the paper).

Trees carry their accumulated cost, constraint pool and program edits, so a
completed tree is exactly one repair candidate plus its explanation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .constraints import ConstraintPool


# Vertex polarity.
EXIST = "EXIST"
NEXIST = "NEXIST"

_vertex_ids = itertools.count(1)
_tree_ids = itertools.count(1)


@dataclass(frozen=True)
class MetaVertex:
    """A vertex of a meta provenance tree.

    ``subject`` may be a runtime tuple, a tuple pattern, or a program-based
    meta tuple (Const, Oper, PredFunc, ...).  ``kind`` is ``EXIST`` for facts
    that held during the recorded execution and ``NEXIST`` for facts that
    were missing and must be brought into existence by the repair.
    """

    kind: str
    subject: object
    rule: Optional[str] = None
    note: str = ""
    vertex_id: int = field(default_factory=lambda: next(_vertex_ids))

    def label(self) -> str:
        rule = f" [{self.rule}]" if self.rule else ""
        note = f" ({self.note})" if self.note else ""
        return f"{self.kind}[{self.subject}]{rule}{note}"

    def __str__(self):
        return self.label()


class MetaTree:
    """A (possibly partial) meta provenance tree."""

    def __init__(self, root: MetaVertex, pool: Optional[ConstraintPool] = None,
                 cost: float = 0.0):
        self.tree_id = next(_tree_ids)
        self.root = root
        self.pool = pool if pool is not None else ConstraintPool()
        self.cost = cost
        self.edits: List[object] = []
        self._vertices: Dict[int, MetaVertex] = {root.vertex_id: root}
        self._children: Dict[int, List[int]] = {root.vertex_id: []}
        self.unexpanded: List[MetaVertex] = [root]
        self.completed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: MetaVertex) -> MetaVertex:
        self._vertices.setdefault(vertex.vertex_id, vertex)
        self._children.setdefault(vertex.vertex_id, [])
        return vertex

    def add_child(self, parent: MetaVertex, child: MetaVertex) -> MetaVertex:
        self.add_vertex(parent)
        self.add_vertex(child)
        if child.vertex_id not in self._children[parent.vertex_id]:
            self._children[parent.vertex_id].append(child.vertex_id)
        return child

    def mark_expanded(self, vertex: MetaVertex):
        self.unexpanded = [v for v in self.unexpanded if v.vertex_id != vertex.vertex_id]

    def fork(self) -> "MetaTree":
        """Create a copy of this tree that can evolve independently."""
        clone = MetaTree(self.root, pool=self.pool.copy(), cost=self.cost)
        clone._vertices = dict(self._vertices)
        clone._children = {k: list(v) for k, v in self._children.items()}
        clone.unexpanded = list(self.unexpanded)
        clone.edits = list(self.edits)
        clone.completed = self.completed
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def children(self, vertex: MetaVertex) -> List[MetaVertex]:
        return [self._vertices[i] for i in self._children.get(vertex.vertex_id, [])]

    def vertices(self) -> List[MetaVertex]:
        return list(self._vertices.values())

    def size(self) -> int:
        return len(self._vertices)

    def is_complete(self) -> bool:
        return self.completed or not self.unexpanded

    def find(self, predicate) -> List[MetaVertex]:
        return [v for v in self._vertices.values() if predicate(v)]

    def leaves(self) -> List[MetaVertex]:
        return [v for v in self._vertices.values() if not self._children.get(v.vertex_id)]

    def to_text(self) -> str:
        lines: List[str] = []

        def visit(vertex: MetaVertex, depth: int):
            lines.append("  " * depth + "- " + vertex.label())
            for child in self.children(vertex):
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def __len__(self):
        return self.size()

    def __lt__(self, other: "MetaTree"):
        # Cheaper trees first; ties broken by fewer unexpanded vertices, then
        # by creation order (matches the tie-break rule of Section 3.5).
        return (self.cost, len(self.unexpanded), self.tree_id) < (
            other.cost, len(other.unexpanded), other.tree_id)


class MetaForest:
    """A collection of meta provenance trees for one diagnostic query."""

    def __init__(self, trees: Optional[List[MetaTree]] = None):
        self.trees: List[MetaTree] = list(trees or [])

    def add(self, tree: MetaTree):
        self.trees.append(tree)
        return tree

    def completed(self) -> List[MetaTree]:
        return [t for t in self.trees if t.is_complete()]

    def sorted_by_cost(self) -> List[MetaTree]:
        return sorted(self.trees)

    def cheapest(self) -> Optional[MetaTree]:
        trees = self.sorted_by_cost()
        return trees[0] if trees else None

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)
