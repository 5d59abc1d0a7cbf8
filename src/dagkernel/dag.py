"""Lossless DAG compression of forests.

Compressing a forest merges vertices whose subtrees are isomorphic: the
result is a directed acyclic graph with one vertex per subtree isomorphism
class of the whole forest, so a class that occurs in several members gets a
single vertex.  In ordered mode the outgoing edges of a vertex form an
ordered list (repetitions allowed); in unordered mode they form a set of
(child, multiplicity) pairs.  Above the member roots sits an artificial root,
with one edge per member; it represents no subtree and is always the last
id, so a `Dag` derives it instead of storing it.  A single tree is a forest
of one member.  Compression is lossless: a vertex's label and edges determine
its subtree up to isomorphism, so every member can be rebuilt from its root
(the tests do so for every member).

Compression names subtrees level by level with integers, as in the AHU tree
isomorphism test (Aho, Hopcroft & Ullman, 1974), in one pass over all the
trees.  Levels are peeled from the leaves upward: a vertex joins level h when
its last child is done, so its level is its height.  Within a level, every
vertex gets an exact integer key from its label and its children's class ids
(in order; sorted in unordered mode), built by pairing one child column at a
time with ``np.unique``.  Vertices with equal keys form one class.  No hashing
is involved, so there are no collisions.  One ``np.unique`` over the member x
class pairs of the tree vertices gives the member x subtree-class count matrix
(`Dag.member_counts`).

Numbering: ids are sorted by (height, first discovery).  Vertices are
discovered tree by tree, each tree in reverse preorder.  Every edge goes from
a higher id to a strictly lower one, and a member's root is the last id of
its count row.

Layout: heights are an int array and children are CSR arrays: the edges of
vertex v are positions ``offsets[v]:offsets[v + 1]`` of a child-id array and
a multiplicity array.  Ordered mode stores one edge per child, in order,
with multiplicity 1; unordered mode stores distinct children sorted by id,
with their multiplicities.  The count matrix is stored the same way: row i
is positions ``row_offsets[i]:row_offsets[i + 1]`` of an array of increasing
vertex ids and an array of counts.  `Dag.member_counts` hands out that
read-only triple, the one the constructor takes.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .trees import Tree, TreeMode

__all__ = ["Dag", "format_dag", "reduce_forest"]


class Dag:
    """Immutable compressed forest; see module docstring for the encoding.

    ``children`` is the CSR triple (offsets, child ids, multiplicities) and
    ``member_counts`` the CSR triple (row offsets, vertex ids, counts) of the
    member x vertex count matrix.  The artificial root is the last id.
    """

    __slots__ = ("mode", "_heights", "_labels", "_offsets", "_kids", "_mults", "_counts")

    def __init__(
        self,
        mode: TreeMode,
        heights: Sequence[int],
        labels: Sequence[Optional[str]],
        children: tuple[Sequence[int], Sequence[int], Sequence[int]],
        member_counts: tuple[Sequence[int], Sequence[int], Sequence[float]],
    ):
        self.mode = mode
        self._heights = _frozen(heights, np.int64)
        self._labels = tuple(labels)
        self._offsets, self._kids, self._mults = (_frozen(a, np.int64) for a in children)
        self._counts = tuple(
            _frozen(a, dtype)
            for a, dtype in zip(member_counts, (np.int64, np.int64, np.float64))
        )
        self._validate()

    def _validate(self) -> None:
        n = len(self._heights)
        heights, offsets, kids, mults = self._heights, self._offsets, self._kids, self._mults
        if not len(self._labels) == n == len(offsets) - 1:
            raise ValueError("heights, labels and children must have equal length")
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]) or not (
                offsets[-1] == len(kids) == len(mults)):
            raise ValueError("children offsets must rise from 0 to the number of edges")
        owner = np.repeat(np.arange(n), np.diff(offsets))
        bad = np.flatnonzero((kids < 0) | (kids >= n))
        if len(bad):
            raise ValueError(f"vertex {owner[bad[0]]} references invalid child {kids[bad[0]]}")
        if np.any(mults < 1) or (self.mode.ordered and np.any(mults != 1)):
            raise ValueError("edge multiplicity must be >= 1, and 1 in ordered mode")
        has_kids = offsets[1:] > offsets[:-1]
        bad = np.flatnonzero(~has_kids & (heights != 0))
        if len(bad):
            raise ValueError(f"childless vertex {bad[0]} must have height 0")
        below = heights[kids]
        bad = np.flatnonzero(below >= heights[owner])
        if len(bad):
            raise ValueError(f"edge {owner[bad[0]]}->{kids[bad[0]]} does not decrease height")
        if len(kids):
            top = np.maximum.reduceat(below, offsets[:-1][has_kids])
            bad = np.flatnonzero(heights[has_kids] != top + 1)
            if len(bad):
                raise ValueError(f"vertex {np.flatnonzero(has_kids)[bad[0]]} has "
                                 "inconsistent height")
        row_offsets, ids, counts = self._counts
        message = "a member count row needs increasing vertex ids and positive counts"
        if not (row_offsets[0] == 0 and np.all(row_offsets[1:] > row_offsets[:-1])
                and row_offsets[-1] == len(ids) == len(counts)):
            raise ValueError(message)
        # Consecutive ids must rise, except where a new row starts.
        rising = ids[1:] > ids[:-1]
        rising[row_offsets[1:-1] - 1] = True
        if not (np.all((ids >= 0) & (ids < n - 1)) and np.all(rising)
                and np.all(counts >= 1)):
            raise ValueError(message)

    # -- accessors -------------------------------------------------------------

    @property
    def root(self) -> int:
        """The artificial root: always the last id."""
        return len(self._heights) - 1

    @property
    def member_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The member x vertex count matrix as the read-only CSR triple (row
        offsets, vertex ids, counts): row i holds the increasing ids of tree
        i's vertices and how often each of their subtrees occurs in tree i
        (float64, ready for products)."""
        return self._counts

    @property
    def member_roots(self) -> tuple[int, ...]:
        """Dataset member -> DAG vertex of its root."""
        row_offsets, ids, _ = self._counts
        return tuple(ids[row_offsets[1:] - 1].tolist())

    @property
    def n_members(self) -> int:
        return len(self._counts[0]) - 1

    def __len__(self) -> int:
        return len(self._heights)

    def height(self, v: Optional[int] = None) -> int:
        if v is None:
            v = self.root
        return int(self._heights[v])

    def heights(self) -> np.ndarray:
        """Every vertex's height, as the read-only int64 array the `Dag` stores."""
        return self._heights

    def label(self, v: int) -> Optional[str]:
        return self._labels[v]

    def edges(self, v: int):
        """Outgoing edges as (child, multiplicity) pairs.

        Ordered mode yields one pair per edge in order (multiplicity 1);
        unordered mode yields the stored multiplicity pairs.
        """
        a, b = self._offsets[v], self._offsets[v + 1]
        return tuple(zip(self._kids[a:b].tolist(), self._mults[a:b].tolist()))

    def __repr__(self) -> str:
        return (f"Dag({self.mode}, {self.n_members} members, {len(self)} vertices, "
                f"height {self.height()})")


def _frozen(values, dtype) -> np.ndarray:
    # A read-only view: the Dag never exposes a writable handle on its arrays.
    out = np.asarray(values, dtype=dtype).view()
    out.flags.writeable = False
    return out


# -- compression ----------------------------------------------------------------


def reduce_forest(trees: Sequence[Tree], mode: TreeMode) -> Dag:
    """Compress a forest in one pass over its trees (see module doc)."""
    if not trees:
        raise ValueError("cannot reduce an empty forest")
    return _compress(mode, trees)


def _positions(lengths: np.ndarray) -> np.ndarray:
    """Position of every element inside its segment, for consecutive
    segments of the given lengths."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _compress(mode: TreeMode, trees: Sequence[Tree]) -> Dag:
    """Name every subtree class of ``trees`` level by level (module doc).

    Nodes are the tree vertices in discovery order: the vertex v of a tree
    whose nodes end before node e is node e - 1 - v.  Children of a node are
    CSR lists of nodes, left to right.
    """
    sizes = np.fromiter(map(len, trees), np.int64, len(trees))
    ends = np.cumsum(sizes)
    n = int(ends[-1])
    # Node of each tree vertex, in the trees' own preorder, one tree after another.
    node_of = np.repeat(ends - 1, sizes) - _positions(sizes)
    is_root = np.zeros(n, bool)
    is_root[ends - sizes] = True
    parent = np.full(n, -1, np.int64)
    parent[node_of[~is_root]] = np.repeat(ends - 1, sizes - 1) - np.fromiter(
        chain.from_iterable(t._parents[1:] for t in trees), np.int64, n - len(trees))

    if mode.labeled:
        names = list(dict.fromkeys(chain.from_iterable(t._labels for t in trees)))
        name_id = {name: i for i, name in enumerate(names)}
        label = np.empty(n, np.int64)
        label[node_of] = np.fromiter(
            map(name_id.__getitem__, chain.from_iterable(t._labels for t in trees)), np.int64, n)
    else:
        names, label = [None], np.zeros(n, np.int64)
    # Per-vertex temporaries are dropped as soon as they are used up: together
    # they set the memory peak of a large forest.
    del node_of, is_root

    # Children: sorting nodes by parent, and within one parent by descending
    # node, lists every child list left to right.  Roots have parent -1 and
    # sort first.
    packed = np.sort(parent * n + np.arange(n - 1, -1, -1))
    kids = (n - 1) - packed[len(trees):] % n
    deg = np.bincount(parent[parent >= 0], minlength=n)
    offsets = np.concatenate(([0], np.cumsum(deg)))
    del packed

    # Peel nodes from the leaves upward; every level comes out sorted.
    levels = []
    pending = deg.copy()
    level = np.flatnonzero(deg == 0)
    while len(level):
        levels.append(level)
        up, done = np.unique(parent[level], return_counts=True)
        if up[0] < 0:  # tree roots have no parent
            up, done = up[1:], done[1:]
        pending[up] -= done
        level = up[pending[up] == 0]
    del pending, parent

    # Name classes level by level, each level in discovery order.
    bound = n + 1  # exceeds every class id
    class_of = np.empty(n, np.int64)
    reps = []  # the first-discovered node of every class, in id order
    out_heights = []
    n_classes = 0
    for h, level in enumerate(levels):
        key = _level_keys(mode, level, label, offsets, kids, class_of, bound)
        inverse = np.unique(key, return_inverse=True)[1]
        first = np.full(inverse.max() + 1, len(level))
        np.minimum.at(first, inverse, np.arange(len(level)))
        by_discovery = np.argsort(first)
        rank = np.empty(len(first), np.int64)
        rank[by_discovery] = np.arange(len(first))
        class_of[level] = n_classes + rank[inverse]
        reps.append(level[first[by_discovery]])
        out_heights.append(np.full(len(first), h))
        n_classes += len(first)
    reps = np.concatenate(reps)
    out_heights = np.concatenate(out_heights)

    # The children of every class are those of its representative; the
    # artificial root (id n_classes) has one edge per member.
    deg = deg[reps]
    owner = np.concatenate((np.repeat(np.arange(n_classes), deg),
                            np.full(len(trees), n_classes)))
    child = np.concatenate((class_of[kids[np.repeat(offsets[reps], deg) + _positions(deg)]],
                            class_of[ends - 1]))
    out_labels = [names[i] for i in label[reps].tolist()]

    cells, counts = np.unique(np.repeat(np.arange(len(trees)), sizes) * n_classes + class_of,
                              return_counts=True)
    rows = cells // n_classes
    ids = cells - rows * n_classes
    row_offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(trees)))))
    return Dag(mode, np.append(out_heights, out_heights[-1] + 1), out_labels + [None],
               _children_csr(mode, n_classes + 1, owner, child),
               (row_offsets, ids, counts.astype(np.float64)))


def _level_keys(mode, level, label, offsets, kids, class_of, bound) -> np.ndarray:
    """One int64 key per node of ``level``: two nodes get equal keys iff they
    have equal labels and equal child class sequences (sorted in unordered
    mode).  Every child class id of the level is below ``bound``."""
    deg = offsets[level + 1] - offsets[level]
    key = np.unique(label[level] * (deg.max() + 1) + deg, return_inverse=True)[1]
    first_edge = np.cumsum(deg) - deg
    child = class_of[kids[np.repeat(offsets[level] - first_edge, deg) + np.arange(deg.sum())]]
    if not mode.ordered:
        base = np.repeat(np.arange(len(level)) * bound, deg)
        child = np.sort(base + child) - base
    # Pair the keys with one child column at a time.  The nodes that have a
    # column j get fresh codes above every key in use, so they cannot
    # collide with nodes that have fewer children.
    alive = np.arange(len(level))
    next_code = len(level)
    for j in range(deg.max()):
        alive = alive[deg[alive] > j]
        pairs = key[alive] * bound + child[first_edge[alive] + j]
        key[alive] = next_code + np.unique(pairs, return_inverse=True)[1]
        next_code += len(alive)
    return key


def _children_csr(mode, n_vertices, owner, child):
    """CSR children of vertices 0 .. n_vertices - 1 from one (owner, child)
    pair per child occurrence, grouped by owner and in order within one."""
    if mode.ordered:
        mults = np.ones(len(child), np.int64)
    else:
        bound = n_vertices + 1
        pairs, mults = np.unique(owner * bound + child, return_counts=True)
        owner = pairs // bound
        child = pairs - owner * bound
    offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n_vertices))))
    return offsets, child, mults


# -- text format -------------------------------------------------------------------


def format_dag(dag: Dag) -> str:
    """One vertex per line: ``id height label? -> (child,mult)*``, sorted by
    (height, id).  Ordered mode writes one pair per edge in order."""
    # One pass over the arrays as lists: a list lookup costs about a tenth of
    # a ``Dag.edges`` call.
    offsets, kids, mults = dag._offsets.tolist(), dag._kids.tolist(), dag._mults.tolist()
    lines = []
    for v, (height, label) in enumerate(zip(dag._heights.tolist(), dag._labels)):
        head = f"{v} {height}" if label is None else f"{v} {height} {label}"
        pairs = "".join(f"({kids[e]},{mults[e]})" for e in range(offsets[v], offsets[v + 1]))
        lines.append(f"{head} -> {pairs}")
    return "\n".join(lines) + "\n"
