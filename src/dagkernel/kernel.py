"""Subtree-kernel evaluation and Gram matrix assembly.

The kernel between two trees is the weighted sum, over their shared subtree
isomorphism classes, of the product of occurrence counts:
K(i, j) = sum_v w(v) F[i, v] F[j, v] over the member x vertex count matrix F
that `reduce_forest` builds for the whole dataset (`Dag.member_counts`, read
through an :class:`AnnotatedDag`).  :func:`kernel_brute` evaluates it from
explicit subtree signatures instead; it is the ground-truth oracle: slow,
but independent of the compressed path, and it preserves exact arithmetic
(integers, fractions) end to end.

A Gram matrix is one product, the same for square and rectangular calls.
It splits the vertices that some row and some column share by their
holders: a vertex held by h_r row members and h_c column members goes into
one dense block product ``(A * w) @ B.T`` when h_r * h_c is large, and
otherwise adds its h_r * h_c holder products straight into the entries they
belong to (a row-by-row sparse product; Gustavson, "Two fast algorithms for
sparse matrices", 1978).  A vertex of weight 0 adds nothing to either part.
A vertex that one row alone holds in a square call is one holder pair, on
that row's diagonal.  When rows and columns coincide, the pair sums add only
pairs a <= b, and the upper triangle is mirrored so that ``G == G.T``
exactly.

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
    counts, over all Gram calls, the vertices shared by each evaluated pair
    (the work a per-pair evaluation would do).

    ``gram`` puts a shared vertex of non-zero weight, held by h_r rows and
    h_c columns, into the dense block when h_r * h_c exceeds 64
    (``_PAIR_BOUND``); every other one adds its holder pairs straight into
    the result (module doc).
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

    def gram(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows, cols = list(rows), list(cols)
        square = rows == cols
        r = self.annotated.occurrences(rows)
        r_hits = np.bincount(r[1], minlength=len(self.weights))
        if square:
            # Pairs a <= b: a vertex held by r rows is shared by r(r+1)/2 of them.
            self.visited_vertices += int(r_hits @ (r_hits + 1)) // 2
            c, c_hits = r, r_hits
        else:
            c = self.annotated.occurrences(cols)
            c_hits = np.bincount(c[1], minlength=len(self.weights))
            self.visited_vertices += int(r_hits @ c_hits)
        pairs = r_hits * c_hits
        live = (pairs > 0) & (self.weights != 0)
        block = live & (pairs > _PAIR_BOUND)
        b = _dense(c, block, len(cols))
        a = b if square else _dense(r, block, len(rows))
        out = (a * self.weights[block]) @ b.T
        _add_pair_sums(out, self.weights, live & ~block, r, r_hits, c, c_hits, upper=square)
        if square:
            for k in range(len(rows) - 1):
                out[k + 1 :, k] = out[k, k + 1 :]
        return out


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
