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
  multiple top-level elements are errors (reported with line and column);
* a kept tag must be a valid tree label, or it is an error at the tag.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import Optional

from .trees import ParseError, Tree, _check_label

_VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class MarkupParseError(ParseError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _ElementTreeBuilder(HTMLParser):
    """Writes the tree's parent array and tags while parsing: start tags
    arrive in preorder, so an element's vertex id is its start-tag index.
    With ``labeled``, a tag that is no valid tree label is an error at the
    tag."""

    def __init__(self, labeled: bool):
        super().__init__(convert_charrefs=True)
        self.labeled = labeled
        self.parents: list[Optional[int]] = []
        self.tags: list[str] = []
        self.open: list[int] = []  # ids of the open elements, outermost first

    def handle_startendtag(self, tag, attrs):
        if self.labeled:
            try:
                _check_label(tag)
            except ValueError as err:
                raise MarkupParseError(str(err), *self.getpos()) from None
        self.parents.append(self.open[-1] if self.open else None)
        self.tags.append(tag)

    def handle_starttag(self, tag, attrs):
        self.handle_startendtag(tag, attrs)
        if tag not in _VOID_ELEMENTS:
            self.open.append(len(self.tags) - 1)

    def handle_endtag(self, tag):
        if tag in _VOID_ELEMENTS:
            return
        for depth in reversed(range(len(self.open))):
            if self.tags[self.open[depth]] == tag:
                del self.open[depth:]  # closes the elements nested inside it too
                return
        line, col = self.getpos()
        raise MarkupParseError(f"stray closing tag </{tag}>", line, col)


def markup_to_tree(document: str, labeled: bool = True) -> Tree:
    """Convert a markup document into its element tree.

    ``labeled`` keeps the tag as the vertex label; otherwise the tree is
    purely structural.
    """
    builder = _ElementTreeBuilder(labeled)
    builder.feed(document)
    builder.close()
    if builder.open:
        line, col = builder.getpos()
        raise MarkupParseError(
            f"unclosed element <{builder.tags[builder.open[0]]}>", line, col
        )
    roots = builder.parents.count(None)
    if not roots:
        raise MarkupParseError("document contains no elements", 1, 0)
    if roots > 1:
        raise MarkupParseError(f"document has {roots} top-level elements", 1, 0)
    return Tree(builder.parents, builder.tags if labeled else None)
