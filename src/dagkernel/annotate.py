"""Kernel-facing view of a forest DAG's member x subtree-class count matrix.

`reduce_forest` already yields, for every dataset member, the sorted ids of
the DAG vertices its tree holds and how often each of those subtrees occurs
in it: the rows of the sparse member x vertex count matrix F.  An
:class:`AnnotatedDag` adopts those rows as they are and answers the queries
the kernel and the weight learning need; ``matching(i, j)`` intersects the
rows of members i and j on demand.

The artificial root represents no subtree and is in no row.  Member indices
are 0-based; every query raises ``IndexError`` on an index outside
``0 .. n_members - 1``.  The finished :class:`AnnotatedDag` is immutable, so
Gram computations can share it freely and reweighting costs nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dag import Dag

__all__ = ["AnnotatedDag"]


class AnnotatedDag:
    """Forest DAG plus its per-member count rows."""

    __slots__ = ("dag", "n_members", "_occ", "_cnt")

    def __init__(self, dag: Dag):
        if not dag.is_forest:
            raise ValueError("annotation requires a forest DAG with an artificial root")
        self.dag = dag
        self.n_members = dag.n_members
        self._occ = [ids for ids, _ in dag.member_counts]
        self._cnt = [counts for _, counts in dag.member_counts]

    def _check(self, *members: int) -> None:
        if not all(0 <= i < self.n_members for i in members):
            raise IndexError("member index out of range")

    # -- queries -----------------------------------------------------------------

    def subdag_size(self, i: int) -> int:
        """Number of DAG vertices of member ``i`` (#D_i)."""
        self._check(i)
        return len(self._occ[i])

    def frequency(self, v: int, i: int) -> int:
        """Occurrences of the subtree of vertex ``v`` inside tree ``i``."""
        self._check(i)
        occ = self._occ[i]
        k = int(np.searchsorted(occ, v))
        if k < len(occ) and occ[k] == v:
            return int(self._cnt[i][k])
        return 0

    def member_vertices(self, i: int) -> np.ndarray:
        """Sorted DAG vertices of member ``i`` (equals matching(i, i))."""
        self._check(i)
        return self._occ[i]

    def matching(self, i: int, j: int) -> np.ndarray:
        """Sorted DAG vertices held by both members ``i`` and ``j``."""
        self._check(i, j)
        if i == j:
            return self._occ[i]
        return np.intersect1d(self._occ[i], self._occ[j], assume_unique=True)

    def frequencies_on(self, i: int, vertices: np.ndarray) -> np.ndarray:
        """Frequency of member ``i`` restricted to the given vertex ids, which
        must all belong to member ``i``."""
        self._check(i)
        pos = np.searchsorted(self._occ[i], vertices)
        return self._cnt[i][pos]

    def occurrences(self, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of the count matrix for ``members`` (a repeat repeats its row)
        as coordinate triplets: row positions, vertex ids and counts."""
        members = list(members)
        self._check(*members)
        if not members:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        lengths = [len(self._occ[i]) for i in members]
        rows = np.repeat(np.arange(len(members)), lengths)
        vertices = np.concatenate([self._occ[i] for i in members])
        counts = np.concatenate([self._cnt[i] for i in members])
        return rows, vertices, counts
