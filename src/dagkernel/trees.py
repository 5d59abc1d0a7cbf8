"""Rooted trees with ordered/unordered and labeled/unlabeled semantics.

A :class:`Tree` is an immutable rooted tree stored as two tuples: the parent
of every vertex and its label.  Vertices are the integers
``0 .. len(tree) - 1`` in depth-first preorder (the root is ``0``, leftmost
child first), so iteration order is deterministic and reproducible, and every
subtree is one contiguous id block.  Child lists and heights are derived from
the parents when first asked for.  Labels are plain strings compared by
equality; ``None`` means unlabeled.

How sibling order and labels enter isomorphism is controlled by
:class:`TreeMode`; the four combinations (ordered/unordered x
labeled/unlabeled) share one canonical-signature construction, an AHU-style
recursive encoding that sorts child signatures in unordered mode.  A tree
caches its signatures per mode, like its child lists and heights.

Text format: ``tree := label? "(" tree* ")"`` where labels are non-empty
strings without whitespace or parentheses, and whitespace between siblings is
ignored.  Dataset files hold one tree per line.

:func:`parse_tree` reads well-formed text in a few whole-text passes: string
translations and splits give the labels, and a running sum over the brackets
(in NumPy) gives the depth of every vertex, from which one loop over the
vertices takes the parents.  String and array checks decide whether the text
is well formed.  Malformed text goes to a character-by-character scan that
only locates the first error and raises it with its position.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

import numpy as np


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


class ParseError(ValueError):
    """Malformed input: a bracket tree (:class:`TreeParseError`), a markup
    document (``markup.MarkupParseError``) or a manifest row that ``csv``
    refuses.  One base lets a caller catch them without the markup parser."""


class TreeParseError(ParseError):
    """Malformed bracket text; ``position`` is the 0-based character offset
    inside the tree text, and ``where``, if given, names the tree's place in
    its file."""

    def __init__(self, message: str, position: int, where: Optional[str] = None):
        text = f"{message} (at position {position})"
        super().__init__(text if where is None else f"{text} in {where}")
        self.message = message
        self.position = position

    def located(self, where: str) -> "TreeParseError":
        """The same error, naming where the tree sits, e.g. ``"line 3"``."""
        return TreeParseError(self.message, self.position, where)


_FORBIDDEN_LABEL_CHARS = frozenset("()")


def _vertex_id(v: int, n: int) -> int:
    """``v`` as an int in ``0 .. n - 1``, the one rule of every vertex query:
    a bool or any other non-integer raises ``TypeError``, and any other id
    outside the range ``IndexError`` (a negative id does not wrap)."""
    if type(v) is bool:  # operator.index reads True as 1
        raise TypeError("vertex ids must be integers, not bool")
    v = index(v)
    if not 0 <= v < n:
        raise IndexError("vertex id out of range")
    return v


def _check_label(label: Optional[str]) -> None:
    # parse_tree's rule on every construction path; other labels can collide in signatures.
    if label is not None and not (
        isinstance(label, str) and label and label.isprintable()
        and not any(ch.isspace() or ch in _FORBIDDEN_LABEL_CHARS for ch in label)
    ):
        raise ValueError(f"invalid label {label!r}: labels are non-empty printable "
                         "strings without whitespace or parentheses")


def _heights_of(parents: Sequence[Optional[int]]) -> tuple[int, ...]:
    # Children follow their parent in preorder, so a reverse scan sees them first.
    heights = [0] * len(parents)
    for v in range(len(parents) - 1, 0, -1):
        p = parents[v]
        if heights[p] <= heights[v]:
            heights[p] = heights[v] + 1
    return tuple(heights)


class Tree:
    """Immutable rooted tree stored as its preorder parent array and labels.

    ``Tree(parents, labels)`` takes a parent array in any vertex order
    (``None`` marks the root), orders the children of each vertex by vertex
    id and renumbers the vertices to preorder.  It checks that there is one
    root, that every parent is a vertex and that the tree is connected.
    :meth:`leaf`, :meth:`node` and :func:`parse_tree` build trees too.  Every
    path checks labels against the text format's rule.  Child lists,
    heights and the subtree signatures of each mode are derived on first use.
    A vertex query raises ``IndexError`` on an id outside ``0 .. len - 1``
    (a negative id does not wrap) and ``TypeError`` on one that is not an
    integer (a bool included).
    """

    __slots__ = ("_parents", "_labels", "_children", "_heights", "_signatures")

    def __init__(
        self,
        parents: Sequence[Optional[int]],
        labels: Optional[Sequence[Optional[str]]] = None,
    ):
        n = len(parents)
        if n == 0:
            raise ValueError("empty trees are not allowed")
        if labels is None:
            labels = (None,) * n
        elif len(labels) != n:
            raise ValueError("parents and labels must have equal length")
        for label in labels:
            _check_label(label)

        roots = []
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parents):
            if p is None:
                roots.append(v)
            elif not 0 <= p < n:
                raise ValueError(f"vertex {v} has invalid parent {p}")
            else:
                children[p].append(v)
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, found {len(roots)}")

        # Renumber to preorder: root first, leftmost child first.  A vertex on
        # a cycle or its own parent is never reached from the root.
        order: list[int] = []
        stack = [roots[0]]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        if len(order) != n:
            raise ValueError("tree is not connected")
        new_id = [0] * n
        for new, old in enumerate(order):
            new_id[old] = new
        self._parents: tuple[Optional[int], ...] = (None,) + tuple(
            new_id[parents[old]] for old in order[1:]
        )
        self._labels: tuple[Optional[str], ...] = tuple(labels[old] for old in order)
        self._children: Optional[tuple[tuple[int, ...], ...]] = None
        self._heights: Optional[tuple[int, ...]] = None
        self._signatures: Optional[dict[TreeMode, tuple[str, ...]]] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def leaf(cls, label: Optional[str] = None) -> "Tree":
        """A single-vertex tree."""
        _check_label(label)
        return cls._raw((None,), (label,))

    @classmethod
    def node(cls, children: Iterable["Tree"], label: Optional[str] = None) -> "Tree":
        """A new root with the given trees attached as subtrees, in order."""
        _check_label(label)
        parents: list[Optional[int]] = [None]
        labels: list[Optional[str]] = [label]
        for child in children:
            offset = len(parents)
            parents.append(0)
            parents.extend(p + offset for p in child._parents[1:])
            labels.extend(child._labels)
        return cls._raw(tuple(parents), tuple(labels))

    @classmethod
    def _raw(cls, parents, labels) -> "Tree":
        # An already-valid preorder parent tuple; skip validation and renumbering.
        tree = object.__new__(cls)
        tree._parents = parents
        tree._labels = labels
        tree._children = None
        tree._heights = None
        tree._signatures = None
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
        if self._children is None:
            kids: list[list[int]] = [[] for _ in self._parents]
            for u, p in enumerate(self._parents[1:], 1):
                kids[p].append(u)
            self._children = tuple(map(tuple, kids))
        return self._children[v]

    def label(self, v: int) -> Optional[str]:
        self._check(v)
        return self._labels[v]

    def is_leaf(self, v: int) -> bool:
        # In preorder, a vertex with children is the parent of its successor.
        self._check(v)
        return v + 1 == len(self._parents) or self._parents[v + 1] != v

    def height(self, v: Optional[int] = None) -> int:
        """Height of vertex ``v`` (0 for leaves); of the root if omitted."""
        if v is None:
            return self.heights()[0]
        self._check(v)
        return self.heights()[v]

    def heights(self) -> tuple[int, ...]:
        if self._heights is None:
            self._heights = _heights_of(self._parents)
        return self._heights

    def _check(self, v: int) -> None:
        _vertex_id(v, len(self._parents))

    # -- structural queries ----------------------------------------------------

    def leaves(self) -> tuple[int, ...]:
        """All vertices without children, in preorder."""
        return tuple(v for v in self.vertices() if self.is_leaf(v))

    def outdegree(self) -> int:
        """Maximal branching factor over all vertices."""
        return max(len(self.children(v)) for v in self.vertices())

    def vertices_at_height(self, h: int) -> tuple[int, ...]:
        heights = self.heights()
        return tuple(v for v in self.vertices() if heights[v] == h)

    def subtree_size(self, v: int) -> int:
        """Number of vertices of the subtree rooted at ``v``."""
        self._check(v)
        # Preorder numbering makes every subtree a contiguous id block; the
        # first vertex after it hangs below a strict ancestor of v.
        parents = self._parents
        end = v + 1
        while end < len(parents) and parents[end] >= v:
            end += 1
        return end - v

    def descendants(self, v: int) -> range:
        """Proper and improper descendants of ``v`` (includes ``v``)."""
        return range(v, v + self.subtree_size(v))

    def subtree(self, v: int) -> "Tree":
        """A copy of the subtree rooted at ``v``, preserving order and labels."""
        end = v + self.subtree_size(v)
        parents = (None,) + tuple(p - v for p in self._parents[v + 1 : end])
        return Tree._raw(parents, self._labels[v:end])

    def replace_subtree(self, v: int, replacement: "Tree") -> "Tree":
        """A new tree where the subtree rooted at ``v`` is ``replacement``."""
        self._check(v)
        if v == 0:
            return replacement
        # Splice the replacement's preorder block in place of v's block.
        end = v + self.subtree_size(v)
        shift = len(replacement) - (end - v)
        parents = (
            self._parents[: v + 1]
            + tuple(p + v for p in replacement._parents[1:])
            + tuple(p if p < v else p + shift for p in self._parents[end:])
        )
        labels = self._labels[:v] + replacement._labels + self._labels[end:]
        return Tree._raw(parents, labels)

    # -- equality is exact equality of ordered, labeled trees ------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._parents == other._parents and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self._parents, self._labels))

    def __repr__(self) -> str:
        text = serialize_tree(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"Tree({len(self)} vertices, {text!r})"


def subtree_signatures(tree: Tree, mode: TreeMode) -> tuple[str, ...]:
    """Canonical signature of every subtree ``tree[v]``, indexed by vertex.

    Two subtrees have equal signatures iff they are isomorphic as
    ``mode``-trees.  Signatures are strings, so they are totally ordered and
    usable as dictionary keys and merge keys.  The tree keeps the result of
    each mode, so a tree is signed at most once per mode.
    """
    if tree._signatures is None:
        tree._signatures = {}
    elif mode in tree._signatures:
        return tree._signatures[mode]
    n = len(tree)
    sigs: list[str] = [""] * n
    for v in range(n - 1, -1, -1):
        parts = [sigs[c] for c in tree.children(v)]
        if not mode.ordered:
            parts.sort()
        label = tree.label(v) if mode.labeled else None
        sigs[v] = (label or "") + "(" + "".join(parts) + ")"
    tree._signatures[mode] = result = tuple(sigs)
    return result


# -- bracket text format ------------------------------------------------------


# The 29 characters for which str.isspace() is true, written out because
# scanning every code point would cost each import about 60 ms.
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
# Deleting whitespace and ')' leaves "label(" per vertex; mapping them to a
# space instead keeps each run of label characters apart.
_DROP_SEPARATORS = str.maketrans("", "", _WHITESPACE + ")")
_SEPARATORS_TO_SPACE = str.maketrans(dict.fromkeys(_WHITESPACE + ")", " "))
# Keep only the bracket bytes of the UTF-8 text, as int8 steps: '(' +1, ')' -1.
# No multi-byte UTF-8 sequence contains those bytes, and "surrogatepass" lets
# a lone surrogate through to the printable check.
_BRACKET_STEPS = bytes.maketrans(b"()", b"\x01\xff")
_NON_BRACKET_BYTES = bytes(sorted(set(range(256)) - set(b"()")))


def parse_tree(text: str, mode: Optional[TreeMode] = None) -> Tree:
    """Parse bracket text into a tree.

    When ``mode`` is given with ``labeled=False``, labeled input is rejected.
    Raises :class:`TreeParseError` with a character position on malformed
    nesting or bad label characters.

    Deleting whitespace and ``)`` and splitting at ``(`` gives every label in
    preorder.  The running sum of the brackets (``(`` +1, ``)`` -1) gives the
    depth of every vertex, and a vertex's parent is the last earlier vertex
    one level up.  The text is well formed when the depth stays positive
    until the last ``)`` brings it to 0 (one root), every run of label
    characters ends at ``(``, the labels are printable, and no label appears
    in unlabeled mode.  Only when a check fails does the character scan of
    ``_raise_first_error`` run, to raise the first error with its position.
    """
    stripped = text.translate(_DROP_SEPARATORS)
    pieces = stripped.split("(")
    n = len(pieces) - 1
    spaced = text.translate(_SEPARATORS_TO_SPACE)
    steps = np.frombuffer(
        text.encode("utf-8", "surrogatepass").translate(_BRACKET_STEPS, _NON_BRACKET_BYTES),
        np.int8,
    )
    depth = steps.cumsum(dtype=np.int64)
    if not (
        # Depth stays positive until the last ')' closes the one root.
        len(depth) > 1 and depth[-1] == 0 and depth[:-1].min() > 0
        # Every run of label characters ends at '(': each space-separated
        # token of the spaced text ends with '('.
        and (spaced + " ").count("( ") == len(spaced.split())
        and stripped.isprintable()
        and (mode is None or mode.labeled or len(stripped) == n)
    ):
        _raise_first_error(text, mode)

    opened = depth[steps == 1].tolist()
    parents: list[Optional[int]] = [None] * n
    last_at_depth = [0] * (n + 1)
    for v in range(1, n):
        d = opened[v]
        parents[v] = last_at_depth[d - 1]
        last_at_depth[d] = v
    pieces.pop()
    if "((" in stripped or stripped.startswith("("):
        labels = tuple(label or None for label in pieces)
    else:
        labels = tuple(pieces)
    return Tree._raw(tuple(parents), labels)


def _raise_first_error(text: str, mode: Optional[TreeMode]) -> NoReturn:
    # The character scan that parse_tree's checks stand in for: it raises the
    # first error of malformed text, with its position.
    depth = 0
    has_root = False
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ")":
            if not depth:
                raise TreeParseError("unmatched ')'", i)
            depth -= 1
            i += 1
            continue
        # A label (possibly empty) followed by '('.
        start = i
        while i < n and text[i] not in _FORBIDDEN_LABEL_CHARS and not text[i].isspace():
            if not text[i].isprintable():
                raise TreeParseError("label contains unprintable character", i)
            i += 1
        if i >= n or text[i] != "(":
            raise TreeParseError("expected '('", i)
        if start < i and mode is not None and not mode.labeled:
            raise TreeParseError("label not allowed in unlabeled mode", start)
        if has_root and not depth:
            raise TreeParseError("trailing content after root tree", start)
        has_root = True
        depth += 1
        i += 1
    if depth:
        raise TreeParseError("unclosed '('", n)
    if not has_root:
        raise TreeParseError("empty input", 0)
    raise AssertionError(f"parse_tree rejected well-formed text {text!r}")


def serialize_tree(tree: Tree) -> str:
    """Bracket text for the tree, the inverse of :func:`parse_tree`, written
    in one pass over its preorder parent array."""
    out: list[str] = []
    due: list[int] = []  # open vertices whose ')' is still due, the deepest last
    for v, (parent, label) in enumerate(zip(tree._parents, tree._labels)):
        while due and due[-1] != parent:
            due.pop()
            out.append(")")
        due.append(v)
        out.append((label or "") + "(")
    out.append(")" * len(due))
    return "".join(out)


def parse_tree_file(lines: Iterable[str], mode: Optional[TreeMode] = None) -> Iterator[Tree]:
    """Parse a dataset file: one bracket tree per non-blank line.

    Lines with identical text (after ``rstrip``) yield one shared `Tree`,
    parsed once.  A :class:`TreeParseError` names the 1-based line of the
    bad tree, the first line with that text, and its position counts from
    the start of that line."""
    tree_of = _interning_parser(parse_tree, mode)
    for number, line in enumerate(lines, 1):
        line = line.rstrip()
        if line:
            yield tree_of(line, f"line {number}")


def _interning_parser(parse, mode: Optional[TreeMode]):
    """``tree_of(text, where)`` for one file: ``parse(text, mode)`` at the
    first call with ``text``, the same `Tree` at every later one.  A parse
    error names ``where``, e.g. ``"line 3"``.  The text map lives as long
    as ``tree_of``: one file's load.  ``parse`` is the loader's own
    ``parse_tree`` global, so a wrapper set on that global sees each parse."""
    seen: dict[str, Tree] = {}

    def tree_of(text: str, where: str) -> Tree:
        tree = seen.get(text)
        if tree is None:
            try:
                tree = seen[text] = parse(text, mode)
            except TreeParseError as exc:
                raise exc.located(where) from None
        return tree

    return tree_of
