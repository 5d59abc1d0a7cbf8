"""Member queries on the count matrix of a compressed forest.

Every `Dag` is a forest: `reduce_forest` yields, for every dataset member
i, the increasing ids of the DAG vertices its tree holds and how often each
of those subtrees occurs in it: row i of the sparse member x vertex count
matrix F, stored as the CSR triple `Dag.member_counts`.  An
:class:`AnnotatedDag` adopts that triple as it is.  The subtree kernel is K(i, j) = sum_v w(v) F[i, v] F[j, v],
and `occurrences` gathers the rows of any list of members for the Gram
product and the weight learning.

The artificial root is in no row.  Member indices are 0-based; both queries
raise ``IndexError`` on an index outside ``0 .. n_members - 1`` (a negative
index does not wrap) and ``TypeError`` on one that is not an integer (a
bool included, so a mask is never read as indices).  The finished
:class:`AnnotatedDag` is immutable, so the Gram computations of every weight
table can share it freely.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

import numpy as np

from .dag import Dag, _positions


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
        members = np.fromiter(map(index, members), np.int64, len(members))
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
