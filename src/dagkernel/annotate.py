"""Annotation of a forest DAG with the data needed for kernel evaluation.

Two annotations are computed on the recompressed DAG of a dataset, each in
a single traversal:

* origins -- for every vertex, the set of dataset members whose tree contains
  the subtree this vertex represents;
* frequency vectors -- for every vertex, how many times that subtree occurs
  in each member, stored per member as sorted vertex ids with their counts
  (the rows of the sparse member x vertex count matrix).

``matching(i, j)`` intersects the rows of members i and j on demand.

The artificial root represents no subtree and is excluded everywhere.
Member indices are 0-based.  The finished :class:`AnnotatedDag` is immutable,
so Gram computations can share it freely and reweighting costs nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dag import Dag

__all__ = ["AnnotatedDag"]


class AnnotatedDag:
    """Forest DAG plus origins and per-member frequencies."""

    __slots__ = ("dag", "n_members", "origins", "_occ", "_cnt", "build_traversals")

    def __init__(self, dag: Dag):
        if not dag.is_forest:
            raise ValueError("annotation requires a forest DAG with an artificial root")
        self.dag = dag
        self.n_members = dag.n_members
        self.build_traversals = 0
        self._compute_origins()
        self._compute_frequencies()

    # -- annotation passes ------------------------------------------------------

    def _compute_origins(self) -> None:
        # Top-down by decreasing height; vertex ids are height-sorted, so a
        # reversed id scan visits every parent before its children.
        dag = self.dag
        root = dag.root
        sets: list[set[int]] = [set() for _ in range(len(dag))]
        for i, r in enumerate(dag.member_roots or ()):
            sets[r].add(i)
        for v in range(len(dag) - 1, -1, -1):
            if v == root:
                continue
            ov = sets[v]
            for c, _ in dag.aggregated_children(v):
                sets[c] |= ov
        self.origins: tuple[frozenset[int], ...] = tuple(
            frozenset() if v == root else frozenset(sets[v]) for v in range(len(dag))
        )
        self.build_traversals += 1

    def _compute_frequencies(self) -> None:
        # freq[v][i] = occurrences of the subtree of v inside tree i.  Seeded
        # with 1 at each member root, then pushed down: a child reached by an
        # edge of multiplicity L inherits L times the parent's counts.
        dag = self.dag
        root = dag.root
        freq: list[dict[int, int]] = [{} for _ in range(len(dag))]
        for i, r in enumerate(dag.member_roots or ()):
            freq[r][i] = freq[r].get(i, 0) + 1
        for v in range(len(dag) - 1, -1, -1):
            if v == root:
                continue
            fv = freq[v]
            if not fv:
                continue
            for c, mult in dag.aggregated_children(v):
                fc = freq[c]
                for i, count in fv.items():
                    fc[i] = fc.get(i, 0) + mult * count
        occ_lists: list[list[int]] = [[] for _ in range(self.n_members)]
        cnt_lists: list[list[int]] = [[] for _ in range(self.n_members)]
        for v in range(len(dag)):
            if v == root:
                continue
            for i in sorted(freq[v]):
                occ_lists[i].append(v)
                cnt_lists[i].append(freq[v][i])
        self._occ = [np.asarray(o, dtype=np.int64) for o in occ_lists]
        self._cnt = [np.asarray(c, dtype=np.float64) for c in cnt_lists]
        self.build_traversals += 1

    # -- queries -----------------------------------------------------------------

    def subdag_size(self, i: int) -> int:
        """Number of DAG vertices of member ``i`` (#D_i)."""
        return len(self._occ[i])

    def frequency(self, v: int, i: int) -> int:
        """Occurrences of the subtree of vertex ``v`` inside tree ``i``."""
        occ = self._occ[i]
        k = int(np.searchsorted(occ, v))
        if k < len(occ) and occ[k] == v:
            return int(self._cnt[i][k])
        return 0

    def member_vertices(self, i: int) -> np.ndarray:
        """Sorted DAG vertices of member ``i`` (equals matching(i, i))."""
        return self._occ[i]

    def matching(self, i: int, j: int) -> np.ndarray:
        """Sorted DAG vertices whose origin contains both ``i`` and ``j``."""
        if not (0 <= i < self.n_members and 0 <= j < self.n_members):
            raise IndexError("member index out of range")
        if i == j:
            return self._occ[i]
        return np.intersect1d(self._occ[i], self._occ[j], assume_unique=True)

    def frequencies_on(self, i: int, vertices: np.ndarray) -> np.ndarray:
        """Frequency of member ``i`` restricted to the given vertex ids, which
        must all belong to member ``i``."""
        pos = np.searchsorted(self._occ[i], vertices)
        return self._cnt[i][pos]

    def occurrences(self, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of the count matrix for ``members`` (a repeat repeats its row)
        as coordinate triplets: row positions, vertex ids and counts."""
        members = list(members)
        if not all(0 <= i < self.n_members for i in members):
            raise IndexError("member index out of range")
        if not members:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        lengths = [len(self._occ[i]) for i in members]
        rows = np.repeat(np.arange(len(members)), lengths)
        vertices = np.concatenate([self._occ[i] for i in members])
        counts = np.concatenate([self._cnt[i] for i in members])
        return rows, vertices, counts
