"""The synthetic template corpus: two labeled templates and their edits."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .pipeline import Dataset
from .trees import Tree, TreeMode


def _random_tree_of_height(
    rng: random.Random, height: int, extra_vertices: int, labels: Sequence[str]
) -> Tree:
    """A random labeled tree of exactly the given height.

    Starts from a root-to-leaf spine of ``height`` edges, then attaches
    ``extra_vertices`` more, each to a uniform vertex of depth < ``height``
    so the height stays exact.
    """
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
    return Tree(parents, [rng.choice(labels) for _ in range(len(parents))])


# -- synthetic two-template corpus ---------------------------------------------------


_TAGS = ("html", "body", "div", "p", "span", "ul", "li", "a")
TEMPLATE_HEIGHT = 4
TEMPLATE_EXTRA = 26  # vertices beyond the root-to-leaf spine
CORPUS_MODE = TreeMode(ordered=True, labeled=True)


def generate_template_corpus(per_class: int, edit_rate: float, seed: int = 0) -> Dataset:
    """A two-class corpus of template-like markup trees, ordered and labeled.

    Two random labeled templates of height ``TEMPLATE_HEIGHT`` are fixed per
    seed.  Every instance replaces one uniformly chosen vertex of its class
    template by a replacement tree of the same height, shared between the
    classes; the height of the edited vertex is Binomial(height, edit_rate), so
    ``edit_rate = 0`` leaves the templates untouched and ``edit_rate = 1``
    replaces whole trees, making the classes indistinguishable.
    """
    if per_class < 1:
        raise ValueError("need at least one tree per class")
    if not 0.0 <= edit_rate <= 1.0:
        raise ValueError("edit rate must be in [0, 1]")
    rng = random.Random(f"corpus:{seed}")
    templates = [
        _random_tree_of_height(rng, TEMPLATE_HEIGHT, TEMPLATE_EXTRA, _TAGS) for _ in range(2)
    ]
    fillers = [_random_tree_of_height(rng, h, 2 * h, _TAGS) for h in range(TEMPLATE_HEIGHT + 1)]
    trees: list[Tree] = []
    classes: list[int] = []
    for cls in (0, 1):
        template = templates[cls]
        for _ in range(per_class):
            h = sum(rng.random() < edit_rate for _ in range(TEMPLATE_HEIGHT))
            if h == 0:
                trees.append(template)
            else:
                u = rng.choice(template.vertices_at_height(h))
                trees.append(template.replace_subtree(u, fillers[h]))
            classes.append(cls)
    return Dataset(tuple(trees), tuple(classes), CORPUS_MODE)
