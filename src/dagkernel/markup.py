"""Markup (XML/HTML subset) ingestion.

A markup document maps to a rooted ordered tree: one vertex per element,
children in document order, text content discarded.  The accepted dialect is
deliberately explicit rather than browser-grade:

* self-closing tags (``<x/>``) and the fixed HTML void elements need no
  closing tag;
* attributes, comments, doctypes, processing instructions and entity
  references are ignored;
* an end tag may implicitly close elements nested inside the matching open
  ancestor, but a stray end tag, an unclosed element at end of input, or
  multiple top-level elements are errors (reported with line and column).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Optional

from .trees import Tree

__all__ = [
    "MarkupNode",
    "MarkupParseError",
    "VOID_ELEMENTS",
    "markup_to_tree",
]

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class MarkupParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass
class MarkupNode:
    """One element: its tag and child elements in document order."""

    tag: str
    children: list["MarkupNode"] = field(default_factory=list)


class _ElementTreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack: list[MarkupNode] = []
        self.roots: list[MarkupNode] = []

    def _attach(self, node: MarkupNode) -> None:
        if self.stack:
            self.stack[-1].children.append(node)
        else:
            self.roots.append(node)

    def handle_starttag(self, tag, attrs):
        node = MarkupNode(tag)
        self._attach(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self._attach(MarkupNode(tag))

    def handle_endtag(self, tag):
        if tag in VOID_ELEMENTS:
            return
        if not any(node.tag == tag for node in self.stack):
            line, col = self.getpos()
            raise MarkupParseError(f"stray closing tag </{tag}>", line, col)
        while self.stack:
            node = self.stack.pop()
            if node.tag == tag:
                return


def markup_to_tree(document: str, labeled: bool = True) -> Tree:
    """Convert a markup document into its element tree.

    ``labeled`` keeps the tag as the vertex label; otherwise the tree is
    purely structural.
    """
    builder = _ElementTreeBuilder()
    builder.feed(document)
    builder.close()
    if builder.stack:
        line, col = builder.getpos()
        raise MarkupParseError(
            f"unclosed element <{builder.stack[0].tag}>", line, col
        )
    if not builder.roots:
        raise MarkupParseError("document contains no elements", 1, 0)
    if len(builder.roots) > 1:
        raise MarkupParseError(
            f"document has {len(builder.roots)} top-level elements", 1, 0
        )
    parents: list[Optional[int]] = []
    labels: list[Optional[str]] = []
    stack = [(builder.roots[0], None)]
    while stack:
        node, parent = stack.pop()
        vid = len(parents)
        parents.append(parent)
        labels.append(node.tag if labeled else None)
        for child in reversed(node.children):
            stack.append((child, vid))
    return Tree(parents, labels)
