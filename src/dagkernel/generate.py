"""Random and exhaustive tree generation, and the synthetic template corpus."""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .pipeline import Dataset
from .trees import Tree, TreeMode

__all__ = [
    "all_ordered_shapes",
    "generate_template_corpus",
    "random_tree",
    "random_tree_of_height",
]


def random_tree(
    rng: random.Random,
    n_vertices: int,
    labels: Optional[Sequence[str]] = None,
    max_children: Optional[int] = None,
) -> Tree:
    """A random recursive tree: vertex ``v`` attaches to a uniform earlier vertex.

    ``labels`` draws every vertex label uniformly from the alphabet; ``None``
    leaves the tree unlabeled.  ``max_children`` caps the branching factor by
    resampling the parent.
    """
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    parents: list[Optional[int]] = [None]
    counts = [0]
    for v in range(1, n_vertices):
        p = rng.randrange(v)
        if max_children is not None:
            while counts[p] >= max_children:
                p = rng.randrange(v)
        parents.append(p)
        counts[p] += 1
        counts.append(0)
    labs = [rng.choice(labels) for _ in range(n_vertices)] if labels else None
    return Tree(parents, labs)


def random_tree_of_height(
    rng: random.Random,
    height: int,
    extra_vertices: int = 0,
    labels: Optional[Sequence[str]] = None,
) -> Tree:
    """A random tree of exactly the given height.

    Starts from a root-to-leaf spine of ``height`` edges, then attaches
    ``extra_vertices`` more, each to a uniform vertex of depth < ``height``
    so the height stays exact.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    parents: list[Optional[int]] = [None]
    depths = [0]
    for d in range(1, height + 1):
        parents.append(d - 1)
        depths.append(d)
    for _ in range(extra_vertices):
        eligible = [v for v in range(len(parents)) if depths[v] < height]
        p = rng.choice(eligible)
        parents.append(p)
        depths.append(depths[p] + 1)
    labs = [rng.choice(labels) for _ in range(len(parents))] if labels else None
    return Tree(parents, labs)


@lru_cache(maxsize=None)
def _shape_codes(n: int) -> tuple[tuple, ...]:
    # Every ordered shape with n vertices as nested child tuples.
    if n == 1:
        return ((),)
    shapes: list[tuple] = []
    for sizes in _compositions(n - 1):
        pools = [_shape_codes(s) for s in sizes]
        for combo in _product(pools):
            shapes.append(tuple(combo))
    return tuple(shapes)


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    # Ordered sequences of positive integers summing to total.
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _product(pools):
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest


def _code_to_tree(code: tuple) -> Tree:
    parents: list[Optional[int]] = []

    def emit(node: tuple, parent: Optional[int]) -> None:
        v = len(parents)
        parents.append(parent)
        for child in node:
            emit(child, v)

    emit(code, None)
    return Tree(parents)


def all_ordered_shapes(max_vertices: int, min_vertices: int = 1) -> Iterator[Tree]:
    """Every ordered unlabeled tree with ``min_vertices``..``max_vertices``
    vertices, exactly once (Catalan-many per size)."""
    for n in range(min_vertices, max_vertices + 1):
        for code in _shape_codes(n):
            yield _code_to_tree(code)


# -- synthetic two-template corpus ---------------------------------------------------


_TAGS = ("html", "body", "div", "p", "span", "ul", "li", "a")


def generate_template_corpus(
    per_class: int,
    edit_rate: float,
    seed: int = 0,
    template_height: int = 4,
    template_extra: int = 26,
    mode: TreeMode = TreeMode(ordered=True, labeled=True),
) -> Dataset:
    """A two-class corpus of template-like markup trees.

    Two random labeled templates of equal height are fixed per seed.  Every
    instance replaces one uniformly chosen vertex of its class template by a
    replacement tree of the same height, shared between the classes; the
    height of the edited vertex is Binomial(height, edit_rate), so
    ``edit_rate = 0`` leaves the templates untouched and ``edit_rate = 1``
    replaces whole trees, making the classes indistinguishable.
    """
    if per_class < 1:
        raise ValueError("need at least one tree per class")
    if not 0.0 <= edit_rate <= 1.0:
        raise ValueError("edit rate must be in [0, 1]")
    rng = random.Random(f"corpus:{seed}")
    labels = _TAGS if mode.labeled else None
    templates = [
        random_tree_of_height(rng, template_height, template_extra, labels)
        for _ in range(2)
    ]
    fillers = [
        random_tree_of_height(rng, h, 2 * h, labels)
        for h in range(template_height + 1)
    ]
    trees: list[Tree] = []
    classes: list[int] = []
    for cls in (0, 1):
        template = templates[cls]
        for _ in range(per_class):
            h = sum(rng.random() < edit_rate for _ in range(template_height))
            if h == 0:
                trees.append(template)
            else:
                u = rng.choice(template.vertices_at_height(h))
                trees.append(template.replace_subtree(u, fillers[h]))
            classes.append(cls)
    return Dataset(tuple(trees), tuple(classes), mode)
