"""Lossless DAG compression of forests, and member queries on its count matrix.

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
time with ``np.unique``.  The pairing stops once fewer than two vertices of
the level have a next column: keys start from label and degree, so a lone
vertex's key is already its own.  Vertices with equal keys form one class.
No hashing is involved, so there are no collisions.  Sorting the member x
class cells of the tree vertices and counting each run of equal cells gives
the member x subtree-class count matrix (`Dag.member_counts`).

Numbering: ids are sorted by (height, first discovery).  Vertices are
discovered tree by tree, each tree in reverse preorder.  A member that is the
same `Tree` object as an earlier member is named once: it would discover no
new class, so it is not walked again and its count row is a copy of the
earlier one, and ids and rows are those of walking it.  Every edge goes from
a higher id to a strictly lower one, and a member's root is the last id of
its count row.

Layout: heights are an int64 array and children are CSR arrays: the edges
of vertex v are positions ``offsets[v]:offsets[v + 1]`` of a child-id array
and a multiplicity array, all int64.  Ordered mode stores one edge per child,
in order, with multiplicity 1; unordered mode stores distinct children sorted
by id, with their multiplicities.  The count matrix is stored the same way:
row i is positions ``row_offsets[i]:row_offsets[i + 1]`` of an int64 array of
increasing vertex ids and a float64 array of counts.  `Dag.member_counts`
hands out that read-only triple, the one `_compress` hands it.  Inside
`_compress` the per-vertex index arrays of a forest of more than 2**15 tree
vertices are int32, which halves its memory peak.  So a forest holds at most
2**31 - 1 tree vertices (`reduce_forest` raises ``ValueError`` above that),
and a product of two indices is formed in int64.

Member queries: an :class:`AnnotatedDag` adopts the count matrix of a `Dag`
as it is.  The subtree kernel is K(i, j) = sum_v w(v) F[i, v] F[j, v], and
`AnnotatedDag.occurrences` gathers the rows of any list of members for the
Gram product and the weight learning.  The artificial root is in no row.
Member indices are 0-based; both queries raise ``IndexError`` on an index
outside ``0 .. n_members - 1`` (a negative index does not wrap) and
``TypeError`` on one that is not an integer (a bool included, so a mask is
never read as indices).  An `AnnotatedDag` is immutable, so the Gram
computations of every weight table can share it freely.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .trees import Tree, TreeMode, _vertex_id


class Dag:
    """Immutable compressed forest; see module docstring for the encoding.

    Only `reduce_forest` builds one: ``Dag`` has no public constructor.
    Vertex ids run over ``0 .. len - 1``, the artificial root last; the
    accessors raise ``IndexError`` on any other id (a negative id does not
    wrap) and ``TypeError`` on one that is not an integer (a bool included).
    """

    __slots__ = ("mode", "_heights", "_labels", "_offsets", "_kids", "_mults", "_counts")

    @classmethod
    def _raw(cls, mode: TreeMode, heights, labels, children, member_counts) -> "Dag":
        # The arrays of `_compress`, already int64 (counts float64) and
        # consistent; the Dag keeps read-only views of them.
        dag = object.__new__(cls)
        dag.mode = mode
        dag._heights = _frozen(heights)
        dag._labels = tuple(labels)
        dag._offsets, dag._kids, dag._mults = map(_frozen, children)
        dag._counts = tuple(map(_frozen, member_counts))
        return dag

    def _vertex(self, v: int) -> int:
        return _vertex_id(v, len(self._heights))

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
        return int(self._heights[self.root if v is None else self._vertex(v)])

    def heights(self) -> np.ndarray:
        """Every vertex's height, as the read-only int64 array the `Dag` stores."""
        return self._heights

    def label(self, v: int) -> Optional[str]:
        return self._labels[self._vertex(v)]

    def edges(self, v: int):
        """Outgoing edges as (child, multiplicity) pairs.

        Ordered mode yields one pair per edge in order (multiplicity 1);
        unordered mode yields the stored multiplicity pairs.
        """
        v = self._vertex(v)
        a, b = self._offsets[v], self._offsets[v + 1]
        return tuple(zip(self._kids[a:b].tolist(), self._mults[a:b].tolist()))

    def __repr__(self) -> str:
        return (f"Dag({self.mode}, {self.n_members} members, {len(self)} vertices, "
                f"height {self.height()})")


def _frozen(values: np.ndarray) -> np.ndarray:
    # A read-only view: the Dag never exposes a writable handle on its arrays.
    out = values.view()
    out.flags.writeable = False
    return out


# -- member queries -------------------------------------------------------------


class AnnotatedDag:
    """Forest DAG plus its member x vertex count matrix (CSR)."""

    __slots__ = ("dag", "n_members", "_row_offsets", "_ids", "_counts")

    def __init__(self, dag: Dag):
        self.dag = dag
        self.n_members = dag.n_members
        self._row_offsets, self._ids, self._counts = dag.member_counts

    def _members(self, members: Sequence[int]) -> np.ndarray:
        members = list(members)
        if bool in map(type, members):  # operator.index reads True as 1
            raise TypeError("member indices must be integers, not bool")
        members = np.fromiter(map(operator.index, members), np.int64, len(members))
        if len(members) and not (members.min() >= 0 and members.max() < self.n_members):
            raise IndexError("member index out of range")
        return members

    def subdag_size(self, i: int) -> int:
        """Number of DAG vertices of member ``i`` (#D_i)."""
        (i,) = self._members([i])
        return int(self._row_offsets[i + 1] - self._row_offsets[i])

    def occurrences(self, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of the count matrix for ``members`` (a repeat repeats its row)
        as coordinate triplets: row positions, vertex ids and counts."""
        return self._rows(self._members(members))

    def _rows(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # `occurrences` of members that `_members` has already checked.
        starts = self._row_offsets[members]
        lengths = self._row_offsets[members + 1] - starts
        rows = np.repeat(np.arange(len(members)), lengths)
        at = np.repeat(starts, lengths) + _positions(lengths)
        return rows, self._ids[at], self._counts[at]


# -- compression ----------------------------------------------------------------


def reduce_forest(trees: Sequence[Tree], mode: TreeMode) -> Dag:
    """Compress a forest in one pass over its trees (see module doc).  This is
    the only way to build a `Dag`.

    A member that is the same `Tree` object as an earlier one is named once
    and its count row is copied, so ids and rows are those of a fresh copy;
    the artificial root still has one edge per member.  An empty forest, or
    one of 2**31 tree vertices or more, raises ``ValueError``."""
    if not trees:
        raise ValueError("cannot reduce an empty forest")
    return _compress(mode, trees)


def _positions(lengths: np.ndarray) -> np.ndarray:
    """Position of every element inside its segment, for consecutive
    segments of the given lengths."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _compress(mode: TreeMode, trees: Sequence[Tree]) -> Dag:
    """Name every subtree class of ``trees`` level by level (module doc).

    Nodes are the vertices of the distinct tree objects, first seen first,
    in discovery order: the vertex v of a tree whose nodes end before node e
    is node e - 1 - v.  Children of a node are CSR lists of nodes, left to
    right.
    """
    # Identity, not equality: Tree hashes are not cached, and the loaders
    # hand out one object per distinct text.
    by_id = {id(t): t for t in trees}
    slot = {key: i for i, key in enumerate(by_id)}
    member_slot = np.fromiter(map(slot.__getitem__, map(id, trees)), np.int64, len(trees))
    distinct = list(by_id.values())
    sizes = np.fromiter(map(len, distinct), np.int64, len(distinct))
    ends = np.cumsum(sizes)
    n = int(ends[-1])
    if n > np.iinfo(np.int32).max:
        raise ValueError(f"a forest holds at most 2**31 - 1 tree vertices, not {n}")
    # Per-node arrays are int32 in a large forest, and per-vertex temporaries
    # are dropped as soon as they are used up: together they set its memory
    # peak.  A product of two indices can pass 2**31, so each is formed in an
    # int64 buffer.  A small forest keeps int64 nodes: NumPy widens int32
    # indices to intp at every fancy index, a fixed cost per call that made
    # compressing a few dozen small trees over a tenth slower.
    index = np.int32 if n > 2**15 else np.int64
    last = (ends - 1).astype(index)
    # Node of each tree vertex, in the trees' own preorder, one tree after another.
    node_of = np.repeat(last, sizes)
    node_of -= _positions(sizes)
    # Node of each non-root vertex's parent.
    up = np.repeat(last, sizes - 1)
    up -= np.fromiter(chain.from_iterable(t._parents[1:] for t in distinct), index,
                      n - len(distinct))
    parent = np.full(n, -1, index)
    parent[np.delete(node_of, ends - sizes)] = up
    del up

    if mode.labeled:
        names = list(dict.fromkeys(chain.from_iterable(t._labels for t in distinct)))
        name_id = {name: i for i, name in enumerate(names)}
        label = np.empty(n, index)
        label[node_of] = np.fromiter(map(name_id.__getitem__, chain.from_iterable(
            t._labels for t in distinct)), index, n)
    else:
        names, label = [None], np.zeros(n, index)
    del node_of

    # Children: sorting nodes by parent, and within one parent by descending
    # node, lists every child list left to right.  Roots have parent -1 and
    # sort first.
    key = parent.astype(np.int64)
    key *= n
    key += np.arange(n - 1, -1, -1, dtype=index)
    key.sort()
    kids = np.remainder(key[len(distinct):], n, out=np.empty(n - len(distinct), index))
    np.subtract(n - 1, kids, out=kids)
    del key
    pending = np.bincount(parent[parent >= 0], minlength=n).astype(index, copy=False)
    offsets = np.zeros(n + 1, index)
    np.cumsum(pending, out=offsets[1:])

    # Peel nodes from the leaves upward; every level comes out sorted.
    levels = []
    level = np.flatnonzero(pending == 0).astype(index, copy=False)
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
    class_of = np.empty(n, index)
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
    del levels, key
    reps = np.concatenate(reps)
    out_heights = np.concatenate(out_heights)

    # The children of every class are those of its representative; the
    # artificial root (id n_classes) has one edge per member.
    deg = offsets[reps + 1] - offsets[reps]
    owner = np.concatenate((np.repeat(np.arange(n_classes), deg),
                            np.full(len(trees), n_classes)))
    child = np.concatenate((class_of[kids[np.repeat(offsets[reps], deg) + _positions(deg)]],
                            class_of[ends - 1][member_slot]), dtype=np.int64)
    out_labels = [names[i] for i in label[reps].tolist()]
    del label, kids, offsets
    children = _children_csr(mode, n_classes + 1, owner, child)
    del owner, child

    # The member x class cells of the tree vertices, distinct tree by
    # distinct tree.  Sorted, a cell unlike its left neighbour starts a run
    # of equal cells, and a sentinel after the last cell ends the last run.
    cells = np.repeat(np.arange(len(distinct), dtype=np.int64), sizes)
    cells *= n_classes
    cells += class_of
    del class_of
    cells.sort()
    starts = np.ones(n + 1, bool)
    np.not_equal(cells[1:], cells[:-1], out=starts[1:n])
    starts = np.flatnonzero(starts)
    counts = np.diff(starts).astype(np.float64)
    cells = cells[starts[:-1]]
    del starts
    rows = cells // n_classes
    ids = cells - rows * n_classes
    del cells
    row_offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(distinct)))))
    # One row per member: a gather of its distinct tree's row.
    lengths = np.diff(row_offsets)[member_slot]
    take = np.repeat(row_offsets[member_slot], lengths) + _positions(lengths)
    return Dag._raw(mode, np.append(out_heights, out_heights[-1] + 1), out_labels + [None],
                    children, (np.concatenate(([0], np.cumsum(lengths))), ids[take], counts[take]))


def _level_keys(mode, level, label, offsets, kids, class_of, bound) -> np.ndarray:
    """One int64 key per node of ``level``: two nodes get equal keys iff they
    have equal labels and equal child class sequences (sorted in unordered
    mode).  Every child class id of the level is below ``bound``."""
    deg = offsets[level + 1] - offsets[level]
    key = label[level].astype(np.int64)
    key *= int(deg.max()) + 1
    key += deg
    key = np.unique(key, return_inverse=True)[1]
    first_edge = np.cumsum(deg) - deg
    child = class_of[kids[np.repeat(offsets[level] - first_edge, deg) + np.arange(deg.sum())]]
    if not mode.ordered:
        packed = np.repeat(np.arange(len(level), dtype=np.int64), deg)
        packed *= bound
        packed += child
        packed.sort()
        np.remainder(packed, bound, out=child)
        del packed
    # Pair the keys with one child column at a time.  The nodes that have a
    # column j get fresh codes above every key in use, so they cannot
    # collide with nodes that have fewer children.
    alive = np.arange(len(level))
    next_code = len(level)
    for j in range(deg.max()):
        alive = alive[deg[alive] > j]
        if len(alive) < 2:  # a lone node's key holds its degree, so it is its own
            break
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
