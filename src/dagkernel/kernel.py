"""Subtree-kernel evaluation and Gram matrix assembly.

The kernel between two trees is the weighted sum, over their shared subtree
isomorphism classes, of the product of occurrence counts:
K(i, j) = sum_v w(v) F[i, v] F[j, v] over the member x vertex count matrix F
that `reduce_forest` builds for the whole dataset (`Dag.member_counts`, read
through an :class:`AnnotatedDag`).  :func:`kernel_brute` evaluates it from
explicit subtree signatures instead; it is the ground-truth oracle: slow,
but independent of the compressed path, and it preserves exact arithmetic
(integers, fractions) end to end.

A Gram matrix follows distinct trees, not members.  Two members whose roots
are the same DAG vertex hold isomorphic trees and so have equal count rows.
The rows, and the columns, collapse to their distinct roots, first seen
first; one product fills the matrix of those d_r x d_c distinct trees, and
one index gather expands it to every member (no gather when no root
repeats).  Members of one tree therefore get byte-equal rows and columns.

The product is the same for square and rectangular calls.  It splits the
vertices that some row and some column share by their holders, counted
over distinct trees: a vertex held by h_r row trees and h_c column trees
goes into one dense block product ``(A * w) @ B.T`` when h_r * h_c is
large, and otherwise adds its h_r * h_c holder products straight into the
entries they belong to (a row-by-row sparse product; Gustavson, "Two fast
algorithms for sparse matrices", 1978).  A vertex of weight 0 adds nothing
to either part.  A vertex that one row alone holds in a square call is one
holder pair, on that row's diagonal.  When rows and columns coincide, the
pair sums add only pairs a <= b, and the upper triangle is mirrored; the
gather reads the same index on both axes, so ``G == G.T`` exactly.

:func:`min_eig_and_norm` collapses equal rows the same way: a symmetric
matrix with d distinct rows held m_1 .. m_d times has the eigenvalues of
the d x d matrix diag(sqrt(m)) H diag(sqrt(m)) of its distinct rows and
columns H, plus zeros.

Weight tables are plain arrays indexed by DAG vertex, so a Gram matrix under
new weights costs no structural work: build the annotation once, then one
:class:`GramComputer` per weight table.
"""

from __future__ import annotations

import csv
from typing import IO, Callable, Sequence

import numpy as np

from .dag import AnnotatedDag, _positions
from .trees import Tree, TreeMode, subtree_signatures

WeightFn = Callable[[Tree], float]


def kernel_brute(t1: Tree, t2: Tree, mode: TreeMode, weight: WeightFn) -> float:
    """Sum over shared subtree classes of ``weight * count1 * count2``.

    ``weight`` must be isomorphism-invariant: it receives one representative
    subtree per class.  Arithmetic follows the operand types (ints and
    fractions stay exact).
    """
    sigs1 = subtree_signatures(t1, mode)
    sigs2 = subtree_signatures(t2, mode)
    counts1: dict[str, int] = {}
    rep1: dict[str, int] = {}
    for v, s in enumerate(sigs1):
        counts1[s] = counts1.get(s, 0) + 1
        rep1.setdefault(s, v)
    counts2: dict[str, int] = {}
    for s in sigs2:
        counts2[s] = counts2.get(s, 0) + 1
    total = 0
    for s in sorted(set(counts1) & set(counts2)):
        n1, n2 = counts1[s], counts2[s]
        w = weight(t1.subtree(rep1[s]))
        total += w * n1 * n2
    return total


def gram(
    annotated: AnnotatedDag,
    weights: np.ndarray,
    rows: Sequence[int],
    cols: Sequence[int],
) -> np.ndarray:
    """Entrywise kernel matrix; symmetric (upper triangle mirrored) when rows
    and cols coincide."""
    return GramComputer(annotated, weights).gram(rows, cols)


class GramComputer:
    """Kernel evaluator for one annotation under one weight table.

    The weight table is fixed on construction and must be finite; a new
    weighting of the same annotation is a new computer.  ``visited_vertices``
    counts, over all Gram calls, the vertices shared by each evaluated member
    pair (the work a per-pair evaluation would do), however many of those
    members hold one tree.

    ``gram`` computes the entries of the distinct member trees of its rows
    and columns (one per root vertex) and gathers them out to every member
    (module doc).  It puts a shared vertex of non-zero weight, held by h_r
    row trees and h_c column trees, into the dense block when h_r * h_c
    exceeds 64 (``_PAIR_BOUND``); every other one adds its holder pairs
    straight into the result.
    """

    def __init__(self, annotated: AnnotatedDag, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(annotated.dag),):
            raise ValueError(
                f"weight table has length {weights.shape}, expected {len(annotated.dag)}"
            )
        bad = np.flatnonzero(~np.isfinite(weights))
        if len(bad):
            raise ValueError(f"weight of vertex {bad[0]} is not finite: {weights[bad[0]]}")
        self.annotated = annotated
        self.weights = weights
        self.visited_vertices = 0
        row_offsets, ids, _ = annotated.dag.member_counts
        self._roots = ids[row_offsets[1:] - 1]  # the last id of a member's row

    def gram(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows, cols = list(rows), list(cols)
        square = rows == cols
        r_trees, r_inv = self._trees(rows)
        r = self.annotated._rows(r_trees)
        r_hits = np.bincount(r[1], minlength=len(self.weights))
        r_members = _member_hits(r, r_hits, r_inv)
        if square:
            # Pairs a <= b: a vertex held by k rows is shared by k(k+1)/2 of them.
            self.visited_vertices += int(r_members @ (r_members + 1)) // 2
            c_trees, c_inv, c, c_hits = r_trees, r_inv, r, r_hits
        else:
            c_trees, c_inv = self._trees(cols)
            c = self.annotated._rows(c_trees)
            c_hits = np.bincount(c[1], minlength=len(self.weights))
            self.visited_vertices += int(r_members @ _member_hits(c, c_hits, c_inv))
        pairs = r_hits * c_hits
        live = (pairs > 0) & (self.weights != 0)
        block = live & (pairs > _PAIR_BOUND)
        b = _dense(c, block, len(c_trees))
        a = b if square else _dense(r, block, len(r_trees))
        out = (a * self.weights[block]) @ b.T
        _add_pair_sums(out, self.weights, live & ~block, r, r_hits, c, c_hits, upper=square)
        if square:
            for k in range(len(r_trees) - 1):
                out[k + 1 :, k] = out[k, k + 1 :]
        if len(r_trees) < len(rows) or len(c_trees) < len(cols):
            out = out[r_inv[:, None], c_inv]
        return out

    def _trees(self, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """One member per distinct root, first seen first, and the index of
        each member's root among them."""
        members = self.annotated._members(members)
        roots = self._roots[members]
        in_order = np.sort(roots)
        if (in_order[1:] != in_order[:-1]).all():  # no tree repeats: skip np.unique
            return members, np.arange(len(members))
        _, first, inv = np.unique(roots, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return members[first[order]], rank[inv]


# A shared vertex with at most this many holder pairs (h_r * h_c) is light.
_PAIR_BOUND = 64


def _select(triplets, keep: np.ndarray) -> list[np.ndarray]:
    """The coordinate triplets of the kept vertices, in their order."""
    kept = keep[triplets[1]]
    return [x[kept] for x in triplets]


def _dense(triplets, keep: np.ndarray, n_rows: int) -> np.ndarray:
    """Coordinate triplets as a dense matrix over the kept vertices, in id order."""
    pos, ids, values = _select(triplets, keep)
    n_kept = np.count_nonzero(keep)
    column = np.zeros(len(keep), np.intp)
    column[keep] = np.arange(n_kept)
    out = np.zeros((n_rows, n_kept))
    out[pos, column[ids]] = values
    return out


def _add_pair_sums(out, weights, light, rows, r_hits, cols, c_hits, upper: bool) -> None:
    """Add ``w[v] * F[a, v] * F[b, v]`` into ``out[a, b]`` for every row
    holder a and column holder b of each light vertex v.  When ``upper``,
    rows and columns coincide and only the pairs a <= b are added."""
    n = max(out.shape)

    def by_vertex(triplets):
        pos, ids, cnt = _select(triplets, light)
        order = np.argsort(ids * n + pos)  # by vertex, then by position
        return pos[order], cnt[order]

    r_pos, r_cnt = by_vertex(rows)
    r_len = r_hits[light]
    w = np.repeat(weights[light], r_len)
    if upper:
        c_pos, c_cnt = r_pos, r_cnt
        starts = np.arange(len(r_pos))
        lengths = np.repeat(r_len, r_len) - _positions(r_len)
    else:
        c_pos, c_cnt = by_vertex(cols)
        c_len = c_hits[light]
        starts = np.repeat(np.cumsum(c_len) - c_len, r_len)
        lengths = np.repeat(c_len, r_len)
    first = np.repeat(np.arange(len(r_pos)), lengths)
    second = np.repeat(starts, lengths) + _positions(lengths)
    np.add.at(out.reshape(-1), r_pos[first] * out.shape[1] + c_pos[second],
              w[first] * (r_cnt[first] * c_cnt[second]))


def _member_hits(triplets, hits: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """How many members hold each vertex, given the count rows of their
    distinct trees (``triplets``, whose holders ``hits`` counts) and the tree
    index ``inv`` of each member."""
    mult = np.bincount(inv)
    if len(mult) == len(inv):
        return hits
    return np.bincount(triplets[1], weights=mult[triplets[0]], minlength=len(hits)).astype(np.int64)


def min_eig_and_norm(matrix: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue and spectral norm of a symmetric matrix.

    A symmetric G whose n rows take d distinct values, the k-th held by m_k
    rows, is E H E.T for the d x d matrix H of the distinct rows and columns
    and the n x d row-to-value indicator E.  Its eigenvalues are those of
    diag(sqrt(m)) H diag(sqrt(m)) plus n - d zeros, so only that d x d
    matrix is decomposed.  Rows match by exact bytes.  Equal rows of a
    symmetric matrix have equal diagonal entries, so a matrix with distinct
    diagonal entries skips the search.
    """
    n = len(matrix)
    classes: dict[bytes, list[int]] = {}
    diagonal = np.sort(np.diagonal(matrix))  # not np.unique: its first call imports numpy.ma
    if (diagonal[1:] == diagonal[:-1]).any():
        for i, row in enumerate(matrix):
            classes.setdefault(row.tobytes(), []).append(i)
    if 0 < len(classes) < n:
        keep = [held[0] for held in classes.values()]
        root_m = np.sqrt([len(held) for held in classes.values()])
        eigs = np.linalg.eigvalsh(matrix[np.ix_(keep, keep)] * np.outer(root_m, root_m))
        eigs = np.append(eigs, 0.0)  # stands for the n - d zero eigenvalues
    else:
        eigs = np.linalg.eigvalsh(matrix)
    return float(eigs.min()), float(np.abs(eigs).max())


def export_gram_csv(
    matrix: np.ndarray, rows: Sequence[int], cols: Sequence[int], out: IO[str]
) -> None:
    """CSV with a header row of column member indices; first column is the
    row member index."""
    writer = csv.writer(out)
    writer.writerow([""] + [str(c) for c in cols])
    for a, r in enumerate(rows):
        writer.writerow([str(r)] + [repr(float(x)) for x in matrix[a]])
