"""Seeded tree corpora for the benchmark, written as classify manifests.

The generators are self-contained: they build bracket text from plain parent
arrays and never call the library's own generators, so a workload stays the
same input when the library's generation code moves or changes.  The same
seed always gives the same text.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Optional, Sequence

TAGS = ("html", "body", "div", "p", "span", "ul", "li", "a")
# Template corpus: template height, extra template vertices, edit rate.
HEIGHT = 4
TEMPLATE_EXTRA = 26
EDIT_RATE = 0.3
# Random corpus alphabet.
ALPHABET = ("a", "b", "c")


@dataclass(frozen=True)
class Corpus:
    """Bracket-text trees with class names; ``ordered`` fixes the tree mode."""

    trees: tuple[str, ...]
    classes: tuple[str, ...]
    ordered: bool

    @property
    def n_vertices(self) -> int:
        return sum(text.count("(") for text in self.trees)


def to_bracket(
    parents: Sequence[Optional[int]],
    labels: Sequence[str],
    substitute: Optional[dict[int, str]] = None,
) -> str:
    """Bracket text of a parent-array tree (children in index order).

    ``substitute`` maps a vertex to text emitted in place of its subtree.
    """
    children: list[list[int]] = [[] for _ in parents]
    root = 0
    for v, p in enumerate(parents):
        if p is None:
            root = v
        else:
            children[p].append(v)
    substitute = substitute or {}
    out: list[str] = []
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        v, closing = stack.pop()
        if closing:
            out.append(")")
        elif v in substitute:
            out.append(substitute[v])
        else:
            out.append(labels[v] + "(")
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(children[v]))
    return "".join(out)


def _heights(parents: Sequence[Optional[int]]) -> list[int]:
    # Parents precede children in every generated array, so one reverse scan
    # settles each height before its parent reads it.
    heights = [0] * len(parents)
    for v in range(len(parents) - 1, 0, -1):
        p = parents[v]
        heights[p] = max(heights[p], heights[v] + 1)
    return heights


def tree_of_height(
    rng: random.Random, height: int, extra: int, alphabet: Sequence[str]
) -> tuple[list[Optional[int]], list[str]]:
    """A root-to-leaf spine of ``height`` edges plus ``extra`` vertices, each
    hung below a uniform vertex of depth < ``height`` (so the height is exact)."""
    parents: list[Optional[int]] = [None] + list(range(height))
    depths = list(range(height + 1))
    for _ in range(extra):
        p = rng.choice([v for v, d in enumerate(depths) if d < height])
        parents.append(p)
        depths.append(depths[p] + 1)
    return parents, [rng.choice(alphabet) for _ in parents]


def template_corpus(seed: int, per_class: int) -> Corpus:
    """Two-class corpus of edited markup templates (ordered, labeled).

    Each class has one template.  An instance replaces one uniform vertex of
    height Binomial(HEIGHT, EDIT_RATE) by a filler of that height shared by
    both classes; height 0 leaves the template as it is.  The templates and
    fillers are part of the workload and do not depend on ``seed``, which
    draws only the edits; with per-seed templates the DAG size, hence the
    Gram cost, and the accuracy varied from seed to seed.
    """
    shapes = random.Random("template-shapes")
    templates = [tree_of_height(shapes, HEIGHT, TEMPLATE_EXTRA, TAGS) for _ in range(2)]
    fillers = [to_bracket(*tree_of_height(shapes, h, 2 * h, TAGS)) for h in range(HEIGHT + 1)]
    rng = random.Random(f"template:{seed}")
    trees: list[str] = []
    classes: list[str] = []
    for cls, (parents, labels) in enumerate(templates):
        heights = _heights(parents)
        by_height = [[v for v, hv in enumerate(heights) if hv == h] for h in range(HEIGHT + 1)]
        for _ in range(per_class):
            h = sum(rng.random() < EDIT_RATE for _ in range(HEIGHT))
            substitute = {rng.choice(by_height[h]): fillers[h]} if h else None
            trees.append(to_bracket(parents, labels, substitute))
            classes.append(f"c{cls}")
    return Corpus(tuple(trees), tuple(classes), ordered=True)


def random_recursive_tree(
    rng: random.Random,
    n_vertices: int,
    alphabet: Sequence[str],
    max_children: Optional[int] = None,
    label_weights: Optional[Sequence[float]] = None,
) -> str:
    """Vertex v hangs below a uniform earlier vertex; a full parent (at
    ``max_children``) is redrawn.  Labels are drawn from ``alphabet`` with
    ``label_weights`` (uniform when ``None``)."""
    parents: list[Optional[int]] = [None]
    counts = [0]
    for v in range(1, n_vertices):
        p = rng.randrange(v)
        while max_children is not None and counts[p] >= max_children:
            p = rng.randrange(v)
        parents.append(p)
        counts[p] += 1
        counts.append(0)
    return to_bracket(parents, rng.choices(alphabet, weights=label_weights, k=n_vertices))


# Class 0 is uncapped with uniform labels; class 1 caps branching at 3 and
# favours the first letter.  A branching cap alone leaves mean-similarity
# accuracy at chance (0.45-0.55 for caps 2, 3 and 4 at 300 vertices), so the
# label skew keeps accuracy informative (about 0.95) without changing sizes.
RANDOM_CLASSES: tuple[tuple[Optional[int], Optional[tuple[float, ...]]], ...] = (
    (None, None),
    (3, (3.0, 1.0, 1.0)),
)


def random_corpus(seed: int, per_class: int, n_vertices: int) -> Corpus:
    """Two-class corpus of random recursive trees (unordered, labeled).

    Both classes share tree size and alphabet; RANDOM_CLASSES gives each
    class its (branching cap, label weights).
    """
    rng = random.Random(f"random:{seed}")
    trees: list[str] = []
    names: list[str] = []
    for cls, (cap, label_weights) in enumerate(RANDOM_CLASSES):
        for _ in range(per_class):
            trees.append(random_recursive_tree(rng, n_vertices, ALPHABET, cap, label_weights))
            names.append(f"c{cls}")
    return Corpus(tuple(trees), tuple(names), ordered=False)


def write_manifest(corpus: Corpus, path: str) -> None:
    """CSV manifest ``tree,class,role`` with inline trees and no roles, so
    the classify protocol draws its own split."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tree", "class", "role"])
        for text, cls in zip(corpus.trees, corpus.classes):
            writer.writerow([text, cls, ""])
