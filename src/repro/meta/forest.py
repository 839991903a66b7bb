"""Meta provenance trees.

A meta provenance *tree* is the record of one repair attempt: the symptom at
the root and, below it, what held during the recorded execution (``EXIST``)
and what the attempt's edits bring into existence (``NEXIST``).  The explorer
builds it when it *emits* a candidate (``MetaProvenanceExplorer._explain``),
and the *forest* of an exploration is the list of trees behind the
candidates it returned.

The paper (Section 3.3-3.5, Figure 5) expands a forest of *partial* trees in
cost order, forks a tree wherever a vertex has k individually sufficient
children, and carries a constraint pool per tree.  This implementation folds
all three into the search over edits: the fork points are the explorer's
``_body_combinations`` (one support choice per body atom) times its fix
options (one per failing selection or assignment), enumerated per rule; the
join constraints a pool would hold are decided by ``_combo_joins`` while
support choices are enumerated; and the queue orders finished candidates.
Nothing here is partial, forked or solved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional


# Vertex polarity.
EXIST = "EXIST"
NEXIST = "NEXIST"

_vertex_ids = itertools.count(1)


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
    """A meta provenance tree, grown from its root by :meth:`add_child`."""

    def __init__(self, root: MetaVertex):
        self.root = root
        self._vertices: Dict[int, MetaVertex] = {root.vertex_id: root}
        self._children: Dict[int, List[int]] = {root.vertex_id: []}
        self.completed = False

    def add_child(self, parent: MetaVertex, child: MetaVertex) -> MetaVertex:
        """Hang ``child`` below ``parent``, which must be in the tree."""
        self._vertices[child.vertex_id] = child
        self._children[child.vertex_id] = []
        self._children[parent.vertex_id].append(child.vertex_id)
        return child

    def children(self, vertex: MetaVertex) -> List[MetaVertex]:
        return [self._vertices[i] for i in self._children.get(vertex.vertex_id, [])]

    def vertices(self) -> List[MetaVertex]:
        return list(self._vertices.values())

    def find(self, predicate) -> List[MetaVertex]:
        return [v for v in self._vertices.values() if predicate(v)]

    def to_text(self) -> str:
        lines: List[str] = []

        def visit(vertex: MetaVertex, depth: int):
            lines.append("  " * depth + "- " + vertex.label())
            for child in self.children(vertex):
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


class MetaForest:
    """The meta provenance trees of one diagnostic query."""

    def __init__(self):
        self.trees: List[MetaTree] = []

    def add(self, tree: MetaTree) -> MetaTree:
        self.trees.append(tree)
        return tree

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)
