"""Subtree-kernel evaluation and Gram matrix assembly.

The kernel between two trees is the weighted sum, over their shared subtree
isomorphism classes, of the product of occurrence counts:
K(i, j) = sum_v w(v) F[i, v] F[j, v] over the member x vertex count matrix F
that `reduce_forest` builds for the whole dataset (`Dag.member_counts`, read
through an :class:`AnnotatedDag`).  :func:`kernel_brute` evaluates it from
explicit subtree signatures instead; it is the ground-truth oracle: slow,
but independent of the compressed path, and it preserves exact arithmetic
(integers, fractions) end to end.

A Gram matrix is one dense block product ``G = (A * w) @ B.T``, where A and
B hold the row and column members' counts on the vertices that occur in some
row and some column.  When rows and columns coincide, a vertex held by one
row member alone adds only to that member's diagonal entry, so it stays out
of the block, and the upper triangle is mirrored so that ``G == G.T`` exactly.

Weight tables are plain arrays indexed by DAG vertex, so a Gram matrix under
new weights costs no structural work: build the annotation once, then one
:class:`GramComputer` per weight table.
"""

from __future__ import annotations

import csv
from typing import IO, Callable, Sequence

import numpy as np

from .annotate import AnnotatedDag
from .trees import Tree, TreeMode, subtree_signatures

__all__ = [
    "GramComputer",
    "export_gram_csv",
    "gram",
    "kernel_brute",
]

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

    The weight table is fixed on construction; a new weighting of the same
    annotation is a new computer.  ``visited_vertices`` counts, over all
    Gram calls, the vertices shared by each evaluated pair (the work a
    per-pair evaluation would do).
    """

    def __init__(self, annotated: AnnotatedDag, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(annotated.dag),):
            raise ValueError(
                f"weight table has length {weights.shape}, expected {len(annotated.dag)}"
            )
        self.annotated = annotated
        self.weights = weights
        self.visited_vertices = 0

    def gram(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows, cols = list(rows), list(cols)
        square = rows == cols
        r_pos, r_ids, r_cnt = self.annotated.occurrences(rows)
        r_hits = np.bincount(r_ids, minlength=len(self.weights))
        if square:
            # Pairs a <= b: a vertex held by r rows is shared by r(r+1)/2 of them.
            self.visited_vertices += int(r_hits @ (r_hits + 1)) // 2
            block = r_hits >= 2
            c_pos, c_ids, c_cnt = r_pos, r_ids, r_cnt
        else:
            c_pos, c_ids, c_cnt = self.annotated.occurrences(cols)
            c_hits = np.bincount(c_ids, minlength=len(self.weights))
            self.visited_vertices += int(r_hits @ c_hits)
            block = (r_hits > 0) & (c_hits > 0)
        weighted = r_cnt * self.weights[r_ids]
        out = _dense(r_pos, r_ids, weighted, block, len(rows)) @ _dense(
            c_pos, c_ids, c_cnt, block, len(cols)
        ).T
        if square:
            alone = ~block[r_ids]
            out.flat[:: len(rows) + 1] += np.bincount(
                r_pos[alone], weights=(weighted * r_cnt)[alone], minlength=len(rows)
            )
            for k in range(len(rows) - 1):
                out[k + 1 :, k] = out[k, k + 1 :]
        return out


def _dense(pos, ids, values, keep: np.ndarray, n_rows: int) -> np.ndarray:
    """Coordinate triplets as a dense matrix over the kept vertices, in id order."""
    column = np.cumsum(keep) - 1
    kept = keep[ids]
    out = np.zeros((n_rows, np.count_nonzero(keep)))
    out[pos[kept], column[ids[kept]]] = values[kept]
    return out


def min_eig_and_norm(matrix: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue and spectral norm of a symmetric matrix."""
    eigs = np.linalg.eigvalsh(matrix)
    return float(eigs[0]), float(max(abs(eigs[0]), abs(eigs[-1])))


def export_gram_csv(
    matrix: np.ndarray, rows: Sequence[int], cols: Sequence[int], out: IO[str]
) -> None:
    """CSV with a header row of column member indices; first column is the
    row member index."""
    writer = csv.writer(out)
    writer.writerow([""] + [str(c) for c in cols])
    for a, r in enumerate(rows):
        writer.writerow([str(r)] + [repr(float(x)) for x in matrix[a]])
