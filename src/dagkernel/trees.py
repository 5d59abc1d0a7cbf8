"""Rooted trees with ordered/unordered and labeled/unlabeled semantics.

A :class:`Tree` is an immutable, arena-backed rooted tree.  Vertices are the
integers ``0 .. len(tree) - 1`` in depth-first preorder (the root is ``0``,
leftmost child first), so iteration order is deterministic and reproducible.
Each vertex may carry a label drawn from a finite alphabet; labels are plain
strings compared by equality.

How sibling order and labels enter isomorphism is controlled by
:class:`TreeMode`; the four combinations (ordered/unordered x
labeled/unlabeled) share one canonical-signature construction, an AHU-style
recursive encoding that sorts child signatures in unordered mode.

Text format: ``tree := label? "(" tree* ")"`` where labels are non-empty
strings without whitespace or parentheses, and whitespace between siblings is
ignored.  Dataset files hold one tree per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Tree",
    "TreeMode",
    "TreeParseError",
    "canonical_signature",
    "count_occurrences",
    "join_forest",
    "parse_tree",
    "parse_tree_file",
    "serialize_tree",
    "subtree_signatures",
]


@dataclass(frozen=True)
class TreeMode:
    """Which tree isomorphism is in force: sibling order and vertex labels.

    ``ordered`` decides whether sibling order is significant; ``labeled``
    decides whether vertex labels participate in isomorphism.  A mode is
    fixed per dataset.
    """

    ordered: bool
    labeled: bool

    def __str__(self) -> str:
        order = "ordered" if self.ordered else "unordered"
        lab = "labeled" if self.labeled else "unlabeled"
        return f"{order}+{lab}"


class TreeParseError(ValueError):
    """Malformed bracket text; ``position`` is the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_FORBIDDEN_LABEL_CHARS = frozenset("()")


def _check_label(label: Optional[str]) -> None:
    # parse_tree's rule on every construction path; other labels can collide in signatures.
    if label is not None and not (
        isinstance(label, str) and label and label.isprintable()
        and not any(ch.isspace() or ch in _FORBIDDEN_LABEL_CHARS for ch in label)
    ):
        raise ValueError(f"invalid label {label!r}: labels are non-empty printable "
                         "strings without whitespace or parentheses")


def _heights_of(children: Sequence[Sequence[int]]) -> tuple[int, ...]:
    # Children follow their parent in preorder, so a reverse scan sees them first.
    heights = [0] * len(children)
    for v in range(len(children) - 1, -1, -1):
        kids = children[v]
        if kids:
            heights[v] = 1 + max(heights[c] for c in kids)
    return tuple(heights)


class Tree:
    """Immutable rooted tree backed by parallel arrays in preorder.

    Use :meth:`leaf`, :meth:`node`, :meth:`from_parents` or
    :func:`parse_tree` to build trees; the raw constructor normalizes an
    arbitrary arena to preorder and validates it (single root, connected,
    acyclic, consistent parent/child references).  Every path checks labels
    against the text format's rule.
    """

    __slots__ = ("_parents", "_children", "_labels", "_heights")

    def __init__(
        self,
        parents: Sequence[Optional[int]],
        children: Sequence[Sequence[int]],
        labels: Optional[Sequence[Optional[str]]] = None,
    ):
        n = len(parents)
        if n == 0:
            raise ValueError("empty trees are not allowed")
        if len(children) != n or (labels is not None and len(labels) != n):
            raise ValueError("parents, children and labels must have equal length")
        if labels is None:
            labels = [None] * n
        for label in labels:
            _check_label(label)

        roots = [v for v in range(n) if parents[v] is None]
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, found {len(roots)}")
        root = roots[0]

        for v in range(n):
            kids = children[v]
            if len(set(kids)) != len(kids):
                raise ValueError(f"vertex {v} has duplicate children")
            for c in kids:
                if not 0 <= c < n:
                    raise ValueError(f"vertex {v} references invalid child {c}")
                if parents[c] != v:
                    raise ValueError(f"child {c} of {v} disagrees with parent array")

        # Renumber to preorder: root first, leftmost child first.
        order: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        if len(order) != n:
            raise ValueError("tree is not connected")
        new_id = {old: new for new, old in enumerate(order)}

        self._parents: tuple[Optional[int], ...] = tuple(
            None if parents[old] is None else new_id[parents[old]] for old in order
        )
        self._children: tuple[tuple[int, ...], ...] = tuple(
            tuple(new_id[c] for c in children[old]) for old in order
        )
        self._labels: tuple[Optional[str], ...] = tuple(labels[old] for old in order)
        self._heights: Optional[tuple[int, ...]] = None  # computed on first use

    # -- construction helpers -------------------------------------------------

    @classmethod
    def leaf(cls, label: Optional[str] = None) -> "Tree":
        """A single-vertex tree."""
        _check_label(label)
        return cls._raw((None,), ((),), (label,))

    @classmethod
    def node(cls, children: Iterable["Tree"], label: Optional[str] = None) -> "Tree":
        """A new root with the given trees attached as subtrees, in order."""
        _check_label(label)
        parents: list[Optional[int]] = [None]
        childlists: list[list[int]] = [[]]
        labels: list[Optional[str]] = [label]
        for child in children:
            offset = len(parents)
            childlists[0].append(offset)
            for v in range(len(child)):
                p = child._parents[v]
                parents.append(0 if p is None else p + offset)
                childlists.append([c + offset for c in child._children[v]])
                labels.append(child._labels[v])
        return cls._raw(
            tuple(parents), tuple(tuple(ks) for ks in childlists), tuple(labels)
        )

    @classmethod
    def from_parents(
        cls,
        parents: Sequence[Optional[int]],
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> "Tree":
        """Build from a parent array; children are ordered by vertex index."""
        children: list[list[int]] = [[] for _ in parents]
        for v, p in enumerate(parents):
            if p is not None:
                children[p].append(v)
        return cls(parents, children, labels)

    @classmethod
    def _raw(cls, parents, children, labels) -> "Tree":
        # Already-normalized arrays; skip validation and renumbering.
        tree = object.__new__(cls)
        tree._parents = parents
        tree._children = children
        tree._labels = labels
        tree._heights = None
        return tree

    # -- basic accessors ------------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self._parents)

    def vertices(self) -> range:
        """Vertex ids in depth-first preorder."""
        return range(len(self._parents))

    def parent(self, v: int) -> Optional[int]:
        self._check(v)
        return self._parents[v]

    def children(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self._children[v]

    def label(self, v: int) -> Optional[str]:
        self._check(v)
        return self._labels[v]

    def is_leaf(self, v: int) -> bool:
        self._check(v)
        return not self._children[v]

    def height(self, v: Optional[int] = None) -> int:
        """Height of vertex ``v`` (0 for leaves); of the root if omitted."""
        if v is None:
            return self.heights()[0]
        self._check(v)
        return self.heights()[v]

    def heights(self) -> tuple[int, ...]:
        if self._heights is None:
            self._heights = _heights_of(self._children)
        return self._heights

    def _check(self, v: int) -> None:
        if not 0 <= v < len(self._parents):
            raise ValueError(f"invalid vertex id {v}")

    # -- structural queries ----------------------------------------------------

    def leaves(self) -> tuple[int, ...]:
        """All vertices without children, in preorder."""
        return tuple(v for v in self.vertices() if not self._children[v])

    def outdegree(self) -> int:
        """Maximal branching factor over all vertices."""
        return max(len(ks) for ks in self._children)

    def vertices_at_height(self, h: int) -> tuple[int, ...]:
        heights = self.heights()
        return tuple(v for v in self.vertices() if heights[v] == h)

    def subtree_size(self, v: int) -> int:
        """Number of vertices of the subtree rooted at ``v``."""
        self._check(v)
        # Preorder numbering makes every subtree a contiguous id block, and
        # its last vertex is reached by following last children to a leaf.
        end = v
        while self._children[end]:
            end = self._children[end][-1]
        return end - v + 1

    def descendants(self, v: int) -> range:
        """Proper and improper descendants of ``v`` (includes ``v``)."""
        return range(v, v + self.subtree_size(v))

    def ancestors(self, v: int) -> tuple[int, ...]:
        """Strict ancestors of ``v``, from parent up to the root."""
        self._check(v)
        out = []
        p = self._parents[v]
        while p is not None:
            out.append(p)
            p = self._parents[p]
        return tuple(out)

    def subtree(self, v: int) -> "Tree":
        """A copy of the subtree rooted at ``v``, preserving order and labels."""
        self._check(v)
        size = self.subtree_size(v)
        parents = tuple(
            None if u == v else self._parents[u] - v for u in range(v, v + size)
        )
        children = tuple(
            tuple(c - v for c in self._children[u]) for u in range(v, v + size)
        )
        labels = self._labels[v : v + size]
        return Tree._raw(parents, children, labels)

    def replace_subtree(self, v: int, replacement: "Tree") -> "Tree":
        """A new tree where the subtree rooted at ``v`` is ``replacement``."""
        self._check(v)
        if v == 0:
            return replacement
        size = self.subtree_size(v)
        keep = [u for u in range(len(self)) if not v <= u < v + size]
        new_id = {old: new for new, old in enumerate(keep)}
        offset = len(keep)
        parents: list[Optional[int]] = []
        children: list[list[int]] = []
        labels: list[Optional[str]] = []
        for old in keep:
            parents.append(
                None if self._parents[old] is None else new_id[self._parents[old]]
            )
            kids = [new_id[c] if c not in range(v, v + size) else offset
                    for c in self._children[old]]
            children.append(kids)
            labels.append(self._labels[old])
        for u in range(len(replacement)):
            p = replacement._parents[u]
            parents.append(new_id[self._parents[v]] if p is None else p + offset)
            children.append([c + offset for c in replacement._children[u]])
            labels.append(replacement._labels[u])
        return Tree(parents, children, labels)

    # -- equality is exact arena equality (ordered, labeled) -------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._children == other._children and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self._children, self._labels))

    def __repr__(self) -> str:
        text = serialize_tree(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"Tree({len(self)} vertices, {text!r})"


def subtree_signatures(tree: Tree, mode: TreeMode) -> tuple[str, ...]:
    """Canonical signature of every subtree ``tree[v]``, indexed by vertex.

    Two subtrees have equal signatures iff they are isomorphic as
    ``mode``-trees.  Signatures are strings, so they are totally ordered and
    usable as dictionary keys and merge keys.
    """
    n = len(tree)
    sigs: list[str] = [""] * n
    for v in range(n - 1, -1, -1):
        parts = [sigs[c] for c in tree.children(v)]
        if not mode.ordered:
            parts.sort()
        label = tree.label(v) if mode.labeled else None
        sigs[v] = (label or "") + "(" + "".join(parts) + ")"
    return tuple(sigs)


def canonical_signature(tree: Tree, mode: TreeMode) -> str:
    """Canonical signature of the whole tree (see :func:`subtree_signatures`)."""
    return subtree_signatures(tree, mode)[0]


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


# -- bracket text format ------------------------------------------------------


def parse_tree(text: str, mode: Optional[TreeMode] = None) -> Tree:
    """Parse bracket text into a tree.

    When ``mode`` is given with ``labeled=False``, labeled input is rejected.
    Raises :class:`TreeParseError` with a character position on malformed
    nesting or bad label characters.
    """
    parents: list[Optional[int]] = []
    children: list[list[int]] = []
    labels: list[Optional[str]] = []
    stack: list[int] = []
    root: Optional[int] = None
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
        while i < n and text[i] not in _FORBIDDEN_LABEL_CHARS and not text[i].isspace():
            if not text[i].isprintable():
                raise TreeParseError("label contains unprintable character", i)
            i += 1
        label = text[start:i] or None
        if i >= n or text[i] != "(":
            raise TreeParseError("expected '('", i)
        if label is not None and mode is not None and not mode.labeled:
            raise TreeParseError("label not allowed in unlabeled mode", start)
        if root is not None and not stack:
            raise TreeParseError("trailing content after root tree", start)
        v = len(parents)
        parents.append(stack[-1] if stack else None)
        if stack:
            children[stack[-1]].append(v)
        children.append([])
        labels.append(label)
        if root is None:
            root = v
        stack.append(v)
        i += 1
    if stack:
        raise TreeParseError("unclosed '('", n)
    if root is None:
        raise TreeParseError("empty input", 0)
    return Tree._raw(
        tuple(parents), tuple(tuple(ks) for ks in children), tuple(labels)
    )


def serialize_tree(tree: Tree) -> str:
    """Bracket text for the tree; the inverse of :func:`parse_tree`."""
    out: list[str] = []
    # Emit "label(" on the way down and ")" on the way up.
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        v, closing = stack.pop()
        if closing:
            out.append(")")
            continue
        out.append((tree.label(v) or "") + "(")
        stack.append((v, True))
        for c in reversed(tree.children(v)):
            stack.append((c, False))
    return "".join(out)


def parse_tree_file(lines: Iterable[str], mode: Optional[TreeMode] = None) -> Iterator[Tree]:
    """Parse a dataset file: one bracket tree per non-empty line."""
    for line in lines:
        line = line.strip()
        if line:
            yield parse_tree(line, mode)
