"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional, Sequence

import pytest

from dagkernel import (
    Tree,
    TreeMode,
    TreeParseError,
    canonical_signature,
    parse_tree,
    subtree_signatures,
)

MODES = [
    TreeMode(ordered=False, labeled=False),
    TreeMode(ordered=True, labeled=False),
    TreeMode(ordered=False, labeled=True),
    TreeMode(ordered=True, labeled=True),
]

UNORDERED = TreeMode(ordered=False, labeled=False)
ORDERED = TreeMode(ordered=True, labeled=False)

# Trees drawn in the paper-style figures, in bracket text.
# A 10-vertex tree of height 3: root -> b; b -> (leaf, 2-star, 3-star).
FIG1_T0 = "((()(()())(()()())))"
# 10 vertices, height 3: root -> b; b -> (leaf, 1-star, 4-star); outdegree 4.
FIG1_T1 = "((()(())(()()()())))"
# Same pair with one extra leaf under the root of the second tree (11 vertices).
FIG2_T0 = FIG1_T0
FIG2_T1 = "(()(()(())(()()()())))"
# 15-vertex tree whose compressed forms have 5 (unordered) and 6 (ordered)
# vertices; the bracket order realizes the drawn child order.
FIG3_TREE = "((((())())((())()))()(()(())))"
# Companion 11-vertex tree used in the joint-compression walkthrough.
FIG5_T2 = "(((())()) () ((()(()))))"


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def brute_isomorphic(t1: Tree, t2: Tree, mode: TreeMode, v1: int = 0, v2: int = 0) -> bool:
    """Definitional recursive isomorphism check (exponential, small trees only)."""
    if mode.labeled and t1.label(v1) != t2.label(v2):
        return False
    kids1 = t1.children(v1)
    kids2 = t2.children(v2)
    if len(kids1) != len(kids2):
        return False
    if mode.ordered:
        return all(
            brute_isomorphic(t1, t2, mode, c1, c2) for c1, c2 in zip(kids1, kids2)
        )
    if not kids1:
        return True
    # Unordered: search for a matching over the children (factorial, but the
    # test trees are tiny).
    for perm in permutations(kids2):
        if all(brute_isomorphic(t1, t2, mode, c1, c2) for c1, c2 in zip(kids1, perm)):
            return True
    return False


def reverse_children(tree: Tree) -> Tree:
    """Mirror image: every child list reversed."""
    def build(v: int) -> Tree:
        kids = [build(c) for c in reversed(tree.children(v))]
        return Tree.node(kids, label=tree.label(v)) if kids else Tree.leaf(tree.label(v))

    return build(0)


def fig1_t0() -> Tree:
    return parse_tree(FIG1_T0)


def fig1_t1() -> Tree:
    return parse_tree(FIG1_T1)


def reference_parse(text: str, mode=None):
    """Character-by-character bracket scanner, independent of parse_tree's
    array passes: ``(parents, labels)`` in preorder, or the first
    :class:`TreeParseError` with its position."""
    parents = []
    labels = []
    stack = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ")":
            if not stack:
                raise TreeParseError("unmatched ')'", i)
            stack.pop()
            i += 1
            continue
        # A label (possibly empty) followed by '('.
        start = i
        while i < n and text[i] not in "()" and not text[i].isspace():
            if not text[i].isprintable():
                raise TreeParseError("label contains unprintable character", i)
            i += 1
        label = text[start:i] or None
        if i >= n or text[i] != "(":
            raise TreeParseError("expected '('", i)
        if label is not None and mode is not None and not mode.labeled:
            raise TreeParseError("label not allowed in unlabeled mode", start)
        if parents and not stack:
            raise TreeParseError("trailing content after root tree", start)
        parents.append(stack[-1] if stack else None)
        labels.append(label)
        stack.append(len(parents) - 1)
        i += 1
    if stack:
        raise TreeParseError("unclosed '('", n)
    if not parents:
        raise TreeParseError("empty input", 0)
    return tuple(parents), tuple(labels)


def count_occurrences(pattern: Tree, target: Tree, mode: TreeMode) -> int:
    """Number of vertices ``v`` of ``target`` with ``target[v]`` isomorphic to
    ``pattern`` as ``mode``-trees."""
    want = canonical_signature(pattern, mode)
    sigs = subtree_signatures(target, mode)
    return sum(1 for s in sigs if s == want)


def join_forest(trees: Sequence[Tree], label: Optional[str] = None) -> Tree:
    """Attach every tree of the forest under a fresh artificial root."""
    if not trees:
        raise ValueError("cannot join an empty forest")
    return Tree.node(trees, label=label)


def is_reduced(dag) -> bool:
    """True iff no two vertices of ``dag`` share (label, edges)."""
    seen = set()
    for v in range(len(dag)):
        key = (dag.label(v), dag.edges(v))
        if key in seen:
            return False
        seen.add(key)
    return True


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
