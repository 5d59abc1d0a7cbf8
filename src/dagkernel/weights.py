"""Weight functions over DAG vertices.

Two schemes are provided.  The exponential scheme is the classic
height-decay ``weight = lambda ** height``.  The discriminance scheme is
learned from data: for every DAG vertex we record the per-class proportion
of weight-training trees containing that subtree, measure how close that
profile is to a "pure" corner (present in exactly one class, or absent from
exactly one class), and map closeness through a shaping function.  Subtrees
occurring in all classes -- leaves in particular -- get weight zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Mapping, Optional, Sequence

import numpy as np

from .annotate import AnnotatedDag
from .dag import Dag

__all__ = [
    "ClassProfile",
    "ShapingFn",
    "class_profile",
    "delta",
    "discriminance_weights",
    "exponential_weights",
    "export_weight_table",
    "smoothstep",
    "weight_distribution_by_height",
]


def exponential_weights(dag: Dag, lam: float) -> np.ndarray:
    """``lam ** height`` per vertex, with ``0 ** 0 == 1`` so that ``lam = 0``
    keeps the leaf-only kernel instead of the zero kernel."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return np.power(float(lam), np.asarray(dag.heights(), dtype=np.float64))


def smoothstep(x):
    """The cubic easing polynomial 3x^2 - 2x^3 on x clipped to [0, 1];
    elementwise on arrays."""
    x = np.clip(x, 0.0, 1.0)
    return 3.0 * x**2 - 2.0 * x**3


@dataclass(frozen=True)
class ShapingFn:
    """Monotone map from (-inf, 1] to [0, 1] with f(x)=0 for x<=0 and f(1)=1.

    Kinds: ``identity``, ``smoothstep``, ``smoothstep2`` (smoothstep applied
    twice) and ``threshold`` (0/1 step strictly above ``eps``).
    """

    kind: str
    eps: float = 0.3

    _KINDS = ("identity", "smoothstep", "smoothstep2", "threshold")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown shaping function {self.kind!r}")
        if self.kind == "threshold" and not 0.0 <= self.eps < 1.0:
            raise ValueError("threshold eps must be in [0, 1)")

    def __call__(self, x: float) -> float:
        """The value at one point; the same arithmetic as :meth:`apply`."""
        return float(self.apply(np.array([x], dtype=np.float64))[0])

    def apply(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if np.any(xs > 1.0 + 1e-12):
            raise ValueError("shaping input must be <= 1")
        xs = np.minimum(xs, 1.0)
        if self.kind == "threshold":
            return (xs > self.eps).astype(np.float64)
        if self.kind == "identity":
            return np.clip(xs, 0.0, 1.0)
        if self.kind == "smoothstep":
            return smoothstep(xs)
        return smoothstep(smoothstep(xs))

    @classmethod
    def parse(cls, name: str, eps: float = 0.3) -> "ShapingFn":
        """A kind, or its CLI name ``id``, ``smooth``, ``smooth2`` or ``thresh``."""
        short = {"id": "identity", "smooth": "smoothstep", "smooth2": "smoothstep2",
                 "thresh": "threshold"}
        return cls(short.get(name, name), eps)


def delta(rho: Sequence[float], n_classes: int) -> float:
    """Euclidean distance from a class profile to the nearest corner of
    interest: one-hot ``e_k`` or complement ``e_k``-bar.  Can exceed 1 when
    ``n_classes >= 3``."""
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (n_classes,):
        raise ValueError("profile length must equal the number of classes")
    return float(np.sqrt(max(_corner_sq_dists(rho.reshape(1, -1)).min(), 0.0)))


def _corner_sq_dists(rho: np.ndarray) -> np.ndarray:
    """Squared distances of the (n, K) profile rows to the 2K corners, as a
    (2K, n) array: corners e_0..e_{K-1}, then their complements.  Expanded as
    |c|^2 - 2 c.rho + |rho|^2 over the transposed profile, so every
    reduction runs along axis 0."""
    k = rho.shape[1]
    corners = np.concatenate((np.eye(k), 1.0 - np.eye(k)))
    rows = np.ascontiguousarray(rho.T)
    return ((corners * corners).sum(axis=1)[:, None] - 2.0 * (corners @ rows)
            + (rows * rows).sum(axis=0))


@dataclass(frozen=True)
class ClassProfile:
    """Per-vertex class-presence profiles and their corner distances.

    ``rho[v, k]`` is the fraction of class-k weight-training trees that
    contain the subtree of vertex ``v``; ``dist[v]`` is the distance of that
    row to its nearest corner.  The artificial root keeps an all-zero row.
    """

    n_classes: int
    rho: np.ndarray
    dist: np.ndarray
    class_sizes: tuple[int, ...]

    def nearest_corner(self, v: int) -> tuple[int, bool]:
        """(class k, presence?) of the corner nearest to vertex ``v``.

        Ties resolve to presence over absence first, then to the smaller
        class id, so a class-pure subtree always reads as "present in its
        class".
        """
        d = _corner_sq_dists(self.rho[v : v + 1])[:, 0]
        # The first corner within rounding of the nearest: floating point can
        # split an exact tie in its last bits.
        i = int(np.flatnonzero(d <= d.min() + 1e-12)[0])
        return i % self.n_classes, i < self.n_classes


def class_profile(
    annotated: AnnotatedDag,
    classes: Mapping[int, int] | Sequence[Optional[int]],
    weight_train: Sequence[int],
    n_classes: Optional[int] = None,
) -> ClassProfile:
    """Learn per-vertex class profiles from the weight-training members.

    ``classes`` maps member index to class id in 0..K-1.  Every class must
    have at least one weight-training member.
    """
    train = list(weight_train)
    if not train:
        raise ValueError("weight-training set must not be empty")
    class_of: dict[int, int] = {}
    for i in train:
        k = classes[i]
        if k is None:
            raise ValueError(f"member {i} is in the weight-training set but has no class")
        class_of[i] = int(k)
    if n_classes is None:
        n_classes = max(class_of.values()) + 1
    sizes = [0] * n_classes
    for k in class_of.values():
        if not 0 <= k < n_classes:
            raise ValueError(f"class id {k} out of range")
        sizes[k] += 1
    if any(s == 0 for s in sizes):
        empty = [k for k, s in enumerate(sizes) if s == 0]
        raise ValueError(f"classes without weight-training members: {empty}")

    rows, ids, _ = annotated.occurrences(list(class_of))
    cells = ids * n_classes + np.fromiter(class_of.values(), np.int64, len(class_of))[rows]
    counts = np.bincount(cells, minlength=len(annotated.dag) * n_classes)
    rho = counts.reshape(-1, n_classes) / np.asarray(sizes, dtype=np.float64)
    dist = np.sqrt(np.maximum(_corner_sq_dists(rho).min(axis=0), 0.0))
    return ClassProfile(n_classes, rho, dist, tuple(sizes))


def discriminance_weights(profile: ClassProfile, shaping: ShapingFn) -> np.ndarray:
    """``shaping(1 - dist)`` per vertex: large for class-pure subtrees, zero
    for subtrees that occur in every class (leaves included)."""
    return shaping.apply(1.0 - profile.dist)


def export_weight_table(
    dag: Dag, profile: ClassProfile, weights: np.ndarray, out: IO[str]
) -> None:
    """CSV ``vertex_id,height,delta,weight`` (artificial root excluded)."""
    writer = csv.writer(out)
    writer.writerow(["vertex_id", "height", "delta", "weight"])
    skip = dag.root if dag.is_forest else None
    for v in range(len(dag)):
        if v == skip:
            continue
        writer.writerow([v, dag.height(v), repr(float(profile.dist[v])), repr(float(weights[v]))])


def weight_distribution_by_height(dag: Dag, weights: np.ndarray) -> list[dict]:
    """Per-height summary rows of the weight distribution: height, min, q1,
    median, q3, max, mean (artificial root excluded)."""
    skip = dag.root if dag.is_forest else None
    buckets: dict[int, list[float]] = {}
    for v in range(len(dag)):
        if v == skip:
            continue
        buckets.setdefault(dag.height(v), []).append(float(weights[v]))
    rows = []
    for h in sorted(buckets):
        vals = np.asarray(buckets[h])
        rows.append(
            {
                "height": h,
                "min": float(vals.min()),
                "q1": float(np.quantile(vals, 0.25)),
                "median": float(np.quantile(vals, 0.5)),
                "q3": float(np.quantile(vals, 0.75)),
                "max": float(vals.max()),
                "mean": float(vals.mean()),
            }
        )
    return rows
