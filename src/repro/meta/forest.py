"""Meta provenance trees.

A meta provenance *tree* is the record of one repair attempt: the symptom at
the root and, below it, what held during the recorded execution (``EXIST``)
and what the attempt's edits bring into existence (``NEXIST``).  The explorer
records what each emitted candidate's tree is made from, and the tree is
built when it is first read (``candidate.tree``, by
:func:`repro.meta.explorer._explain`); the *forest* of an exploration
(``ExplorationResult.forest``, built on first read too) is the list of those
same trees, in emission order.  This module and
:mod:`repro.meta.metatuples` load with the first tree built, so a repair
that reads none never loads them.

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

from dataclasses import dataclass
from typing import Dict, List, Optional


# Vertex polarity.
EXIST = "EXIST"
NEXIST = "NEXIST"


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

    def label(self) -> str:
        rule = f" [{self.rule}]" if self.rule else ""
        note = f" ({self.note})" if self.note else ""
        return f"{self.kind}[{self.subject}]{rule}{note}"

    def __str__(self):
        return self.label()


class MetaTree:
    """A meta provenance tree, grown from its root by :meth:`add_child`.

    Vertices are kept by position, in the order they were added; a
    vertex's children are the positions hung below it.  A vertex is found
    by identity: two equal vertices may hang in one tree."""

    def __init__(self, root: MetaVertex):
        self.root = root
        self._vertices: List[MetaVertex] = [root]
        self._children: List[List[int]] = [[]]
        self._positions: Dict[int, int] = {id(root): 0}
        self.completed = False

    def add_child(self, parent: MetaVertex, child: MetaVertex) -> MetaVertex:
        """Hang ``child`` below ``parent``, which must be in the tree."""
        position = len(self._vertices)
        self._children[self._positions[id(parent)]].append(position)
        self._positions[id(child)] = position
        self._vertices.append(child)
        self._children.append([])
        return child

    def vertices(self) -> List[MetaVertex]:
        return list(self._vertices)

    def find(self, predicate) -> List[MetaVertex]:
        return [v for v in self._vertices if predicate(v)]

    def to_text(self) -> str:
        lines: List[str] = []

        def visit(position: int, depth: int):
            lines.append("  " * depth + "- "
                         + self._vertices[position].label())
            for child in self._children[position]:
                visit(child, depth + 1)

        visit(0, 0)
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
