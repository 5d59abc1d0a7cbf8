"""Weight functions over DAG vertices.

Two schemes are provided.  The exponential scheme is the classic
height-decay ``weight = lambda ** height``.  The discriminance scheme is
learned from data: for every DAG vertex we record the per-class proportion
of weight-training trees containing that subtree, its class profile rho.
Everything else derives from rho: how close the profile is to a "pure"
corner (present in exactly one class, or absent from exactly one class),
which corner that is, and the weight, closeness mapped through a shaping
function.  Subtrees occurring in all classes -- leaves in particular -- get
weight zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Optional, Sequence

import numpy as np

from .annotate import AnnotatedDag
from .dag import Dag

__all__ = [
    "ClassProfile",
    "ShapingFn",
    "class_profile",
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
    return np.power(float(lam), dag.heights(), dtype=np.float64)


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


@dataclass(frozen=True, eq=False)
class ClassProfile:
    """Per-vertex class-presence profiles; the one stored field is ``rho``.

    ``rho[v, k]`` is the fraction of class-k weight-training trees that
    contain the subtree of vertex ``v``; the artificial root keeps an
    all-zero row.  Everything else derives from ``rho``: the class count is
    its column count, ``dist[v]`` (the distance of row ``v`` to its nearest
    corner) is computed once on construction, and every vertex's nearest
    corner on first use, in one pass.  Equality is identity: comparing two
    profiles never compares their arrays.
    """

    rho: np.ndarray
    dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 2:
            raise ValueError("a class profile is a (vertices, classes) matrix")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(
            self, "dist", np.sqrt(np.maximum(_corner_sq_dists(rho).min(axis=0), 0.0)))

    @property
    def n_classes(self) -> int:
        return self.rho.shape[1]

    def nearest_corner(self, v: int) -> tuple[int, bool]:
        """(class k, presence?) of the corner nearest to vertex ``v``.

        Ties resolve to presence over absence first, then to the smaller
        class id, so a class-pure subtree always reads as "present in its
        class".
        """
        i = int(self._nearest[v])
        return i % self.n_classes, i < self.n_classes

    @cached_property
    def _nearest(self) -> np.ndarray:
        # Per vertex, the first corner within rounding of the nearest:
        # floating point can split an exact tie in its last bits.
        d = _corner_sq_dists(self.rho)
        return np.argmax(d <= d.min(axis=0) + 1e-12, axis=0)


def class_profile(
    annotated: AnnotatedDag,
    classes: Sequence[Optional[int]],
    weight_train: Sequence[int],
    n_classes: int,
) -> ClassProfile:
    """Learn per-vertex class profiles from the weight-training members.

    ``classes[i]`` is the class id of member ``i``, in 0..n_classes-1.  Every
    class must have at least one weight-training member.
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
    return ClassProfile(counts.reshape(-1, n_classes) / np.asarray(sizes, dtype=np.float64))


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
    heights = dag.heights().tolist()
    for v in range(dag.root):
        writer.writerow([v, heights[v], repr(float(profile.dist[v])), repr(float(weights[v]))])


def weight_distribution_by_height(dag: Dag, weights: np.ndarray) -> list[dict]:
    """Per-height summary rows of the weight distribution: height, min, q1,
    median, q3, max, mean (artificial root excluded)."""
    heights = dag.heights()[: dag.root]
    values = np.asarray(weights, dtype=np.float64)[: dag.root]
    rows = []
    for h in sorted(set(heights.tolist())):
        vals = values[heights == h]
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
