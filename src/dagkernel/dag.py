"""Lossless DAG compression of trees and forests.

A tree is compressed by merging vertices whose subtrees are isomorphic: the
result is a directed acyclic graph with one vertex per subtree isomorphism
class.  In ordered mode the outgoing edges of a vertex form an ordered list
(repetitions allowed); in unordered mode they form a set of (child,
multiplicity) pairs.  Compression is invertible: `expand` rebuilds a tree
isomorphic to the input.

Compression is hash-consing (Downey, Sethi & Tarjan, 1980).  A postorder
pass looks every vertex up in a table keyed by (label, children structure)
and gives it the class id found there, or the next free id.  A forest is
compressed in one such pass with one table shared by all its trees, so a
subtree class that occurs in several members gets a single vertex.  The same
pass yields the member x subtree-class count matrix: counting the class ids
of tree i's vertices gives row i (`Dag.member_counts`).  A forest DAG also
has an artificial root above the member roots; it represents no subtree.

Vertex ids of a compacted DAG are sorted by (height, discovery), so every
edge goes from a higher id to a strictly lower one and the unique maximal id
is the root.  A member's root is the last id of its count row.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .trees import Tree, TreeMode

__all__ = [
    "Dag",
    "add_to_forest",
    "expand",
    "format_dag",
    "reduce_forest",
    "reduce_tree",
]

# Children encodings: ordered mode stores a tuple of child ids (order and
# repetitions significant); unordered mode stores a tuple of (child, mult)
# pairs with distinct children, sorted by child id.
OrderedChildren = tuple[int, ...]
UnorderedChildren = tuple[tuple[int, int], ...]


class Dag:
    """Immutable compressed DAG; see module docstring for the encoding."""

    __slots__ = ("mode", "_heights", "_labels", "_children", "_roots", "_rows")

    def __init__(
        self,
        mode: TreeMode,
        heights: Sequence[int],
        labels: Sequence[Optional[str]],
        children: Sequence[tuple],
        roots: Sequence[int],
        member_counts: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
    ):
        if not (len(heights) == len(labels) == len(children)):
            raise ValueError("heights, labels and children must have equal length")
        if len(roots) != 1:
            raise ValueError("a Dag has exactly one root vertex")
        self.mode = mode
        self._heights = tuple(heights)
        self._labels = tuple(labels)
        self._children = tuple(children)
        self._roots = tuple(roots)
        self._rows = None if member_counts is None else tuple(
            (_frozen(ids, np.int64), _frozen(counts, np.float64))
            for ids, counts in member_counts
        )
        self._validate()

    def _validate(self) -> None:
        n = len(self._heights)
        for v in range(n):
            h = self._heights[v]
            kids = self.edges(v)
            if not kids:
                if h != 0:
                    raise ValueError(f"childless vertex {v} must have height 0")
                continue
            if h != 1 + max(self._heights[c] for c, _ in kids):
                raise ValueError(f"vertex {v} has inconsistent height")
            for c, mult in kids:
                if not 0 <= c < n:
                    raise ValueError(f"vertex {v} references invalid child {c}")
                if self._heights[c] >= h:
                    raise ValueError(f"edge {v}->{c} does not decrease height")
                if mult < 1:
                    raise ValueError("edge multiplicity must be >= 1")
        root = self._roots[0]
        if not 0 <= root < n:
            raise ValueError("invalid root id")
        for ids, counts in self._rows or ():
            if not (len(ids) == len(counts) > 0 and 0 <= ids[0] and ids[-1] < n
                    and np.all(ids[1:] > ids[:-1]) and np.all(counts >= 1)):
                raise ValueError("a member count row needs increasing vertex ids "
                                 "and positive counts")

    # -- accessors -------------------------------------------------------------

    @property
    def roots(self) -> tuple[int, ...]:
        return self._roots

    @property
    def root(self) -> int:
        return self._roots[0]

    @property
    def member_counts(self) -> Optional[tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Row i of the member x vertex count matrix, only on forest DAGs: the
        increasing ids of tree i's vertices, and how often each of their
        subtrees occurs in tree i (float64, ready for products)."""
        return self._rows

    @property
    def member_roots(self) -> Optional[tuple[int, ...]]:
        """Dataset member -> DAG vertex of its root; only on forest DAGs."""
        if self._rows is None:
            return None
        return tuple(int(ids[-1]) for ids, _ in self._rows)

    @property
    def is_forest(self) -> bool:
        return self._rows is not None

    @property
    def n_members(self) -> int:
        if self._rows is None:
            raise ValueError("not a forest DAG")
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._heights)

    @property
    def n_vertices(self) -> int:
        return len(self._heights)

    def height(self, v: Optional[int] = None) -> int:
        if v is None:
            v = self.root
        return self._heights[v]

    def heights(self) -> tuple[int, ...]:
        return self._heights

    def label(self, v: int) -> Optional[str]:
        return self._labels[v]

    def children_struct(self, v: int) -> tuple:
        """The raw children encoding of ``v`` (mode dependent)."""
        return self._children[v]

    def edges(self, v: int):
        """Outgoing edges as (child, multiplicity) pairs.

        Ordered mode yields one pair per edge in order (multiplicity 1);
        unordered mode yields the stored multiplicity pairs.
        """
        if self.mode.ordered:
            return tuple((c, 1) for c in self._children[v])
        return self._children[v]

    def n_edges(self) -> int:
        return sum(len(self._children[v]) for v in range(len(self)))

    def is_reduced(self) -> bool:
        """True iff no two vertices share (label, children-structure)."""
        seen = set()
        for v in range(len(self)):
            key = (self._labels[v], self._children[v])
            if key in seen:
                return False
            seen.add(key)
        return True

    def __repr__(self) -> str:
        kind = "forest " if self.is_forest else ""
        return f"Dag({kind}{self.mode}, {len(self)} vertices, height {self.height()})"


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


# -- compression ----------------------------------------------------------------


def _children_struct(mode: TreeMode, kids: list[int]) -> tuple:
    """The children encoding of a vertex whose children have ids ``kids``."""
    if mode.ordered or not kids:
        return tuple(kids)
    if len(kids) == 1:
        return ((kids[0], 1),)
    counts: dict[int, int] = {}
    for c in kids:
        counts[c] = counts.get(c, 0) + 1
    return tuple(sorted(counts.items()))


def _intern(tree: Tree, mode: TreeMode, table: dict, heights: list, labels: list,
            children: list) -> list[int]:
    """Class id of every vertex of ``tree``, indexed by vertex.

    ``table`` maps (label, children struct) to a class id.  A class missing
    from it takes the next id, and its height, label and struct are appended
    to the parallel lists, so ids follow discovery order.
    """
    # The tree's own arrays: this loop runs once per vertex of the forest.
    kids_of, labels_of, heights_of = tree._children, tree._labels, tree._heights
    class_of = [0] * len(kids_of)
    # Reverse preorder visits every child before its parent.
    for v in range(len(kids_of) - 1, -1, -1):
        struct = _children_struct(mode, [class_of[c] for c in kids_of[v]])
        key = (labels_of[v] if mode.labeled else None, struct)
        cid = table.get(key)
        if cid is None:
            cid = table[key] = len(heights)
            heights.append(heights_of[v])
            labels.append(key[0])
            children.append(struct)
        class_of[v] = cid
    return class_of


def reduce_tree(tree: Tree, mode: TreeMode) -> Dag:
    """Compress a tree into its reduced DAG: one vertex per subtree class."""
    heights: list[int] = []
    labels: list[Optional[str]] = []
    children: list[tuple] = []
    class_of = _intern(tree, mode, {}, heights, labels, children)
    new_id, heights, labels, children = _compact(mode, heights, labels, children)
    return Dag(mode, heights, labels, children, (new_id[class_of[0]],))


def reduce_forest(trees: Sequence[Tree], mode: TreeMode) -> Dag:
    """Compress a forest with one table shared by its trees (see module doc)."""
    if not trees:
        raise ValueError("cannot reduce an empty forest")
    return _extend_forest(mode, {}, [], [], [], [], trees)


def add_to_forest(forest: Dag, newcomer: Tree) -> Dag:
    """Add one tree to a forest DAG as its last member.

    Equal to reducing the extended forest from scratch: the table is seeded
    with the forest's vertices, and only the newcomer's vertices are looked up.
    """
    if not forest.is_forest:
        raise ValueError("first argument must be a forest DAG with an artificial root")
    if not isinstance(newcomer, Tree):
        raise TypeError("newcomer must be a Tree")
    root = forest.root  # the maximal id; every other id is a table entry
    labels = list(forest._labels[:root])
    children = list(forest._children[:root])
    table = {key: v for v, key in enumerate(zip(labels, children))}
    return _extend_forest(forest.mode, table, list(forest.heights()[:root]), labels,
                          children, list(forest.member_counts), [newcomer])


def _extend_forest(mode, table, heights, labels, children, rows, trees) -> Dag:
    # ``rows`` are the count rows of the members already in the table.
    classes = [_intern(t, mode, table, heights, labels, children) for t in trees]
    member_roots = [int(ids[-1]) for ids, _ in rows] + [c[0] for c in classes]
    root = len(heights)
    heights.append(1 + max(heights[r] for r in member_roots))
    labels.append(None)
    children.append(_children_struct(mode, member_roots))
    new_id, heights, labels, children = _compact(mode, heights, labels, children)
    remap = np.asarray(new_id, dtype=np.int64)
    # Renumbering keeps the relative order of ids that were already sorted by
    # height, so the old rows stay sorted.
    rows = [(remap[ids], counts) for ids, counts in rows]
    for class_of in classes:
        ids, counts = np.unique(remap[class_of], return_counts=True)
        rows.append((ids, counts.astype(np.float64)))
    return Dag(mode, heights, labels, children, (new_id[root],), rows)


def expand(dag: Dag, v: Optional[int] = None) -> Tree:
    """Rebuild a tree from a single-rooted DAG (inverse of :func:`reduce_tree`).

    ``v`` expands the sub-DAG rooted at a particular vertex.  Unordered
    (child, mult) pairs expand to ``mult`` adjacent copies, children sorted by
    class id.
    """
    if v is None:
        if dag.is_forest:
            raise ValueError("expanding a forest DAG needs an explicit vertex")
        v = dag.root
    parents: list[Optional[int]] = []
    labels: list[Optional[str]] = []
    stack: list[tuple[int, Optional[int]]] = [(v, None)]
    while stack:
        node, parent = stack.pop()
        tid = len(parents)
        parents.append(parent)
        labels.append(dag.label(node))
        for child, mult in reversed(dag.edges(node)):
            for _ in range(mult):
                stack.append((child, tid))
    # Stack order already yields preorder with children left-to-right.
    return Tree.from_parents(parents, labels)


def _compact(mode, heights, labels, children):
    """Renumber table ids by (height, discovery).

    Returns the map from table id to new id, and the heights, labels and
    children in the new numbering.
    """
    order = sorted(range(len(heights)), key=heights.__getitem__)  # stable
    new_id = [0] * len(order)
    for new, old in enumerate(order):
        new_id[old] = new
    if mode.ordered:
        out_children = [tuple(new_id[c] for c in children[old]) for old in order]
    else:
        out_children = [tuple(sorted((new_id[c], m) for c, m in children[old]))
                        for old in order]
    return (new_id, [heights[old] for old in order], [labels[old] for old in order],
            out_children)


# -- text format -------------------------------------------------------------------


def format_dag(dag: Dag) -> str:
    """One vertex per line: ``id height label? -> (child,mult)*``, sorted by
    (height, id).  Ordered mode writes one pair per edge in order."""
    lines = []
    for v in range(len(dag)):
        label = dag.label(v)
        head = f"{v} {dag.height(v)}" + (f" {label}" if label is not None else "")
        pairs = "".join(f"({c},{m})" for c, m in dag.edges(v))
        lines.append(f"{head} -> {pairs}")
    return "\n".join(lines) + "\n"
