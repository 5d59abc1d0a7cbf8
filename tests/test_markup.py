import pytest

from dagkernel import MarkupParseError, markup_to_tree, serialize_tree


def bracket(document: str, labeled: bool = True) -> str:
    return serialize_tree(markup_to_tree(document, labeled))


class TestTree:
    def test_preorder_parents_and_tags(self):
        tree = markup_to_tree("<a><b><c></c></b><d></d></a>")
        assert [tree.parent(v) for v in tree.vertices()] == [None, 0, 1, 0]
        assert [tree.label(v) for v in tree.vertices()] == ["a", "b", "c", "d"]

    def test_void_and_self_closing_tags_are_leaves(self):
        assert bracket("<p>x<br>y<img src='i.png'><hr/><q/></p>") == "p(br()img()hr()q())"

    def test_void_end_tag_is_ignored(self):
        assert bracket("<p><br></br><i></i></p>") == "p(br()i())"

    def test_end_tag_closes_open_descendants(self):
        assert bracket("<r><ul><li>one<li>two</ul><b></b></r>") == "r(ul(li(li()))b())"

    def test_unlabeled_tree_has_no_labels(self):
        tree = markup_to_tree("<a><b/><c></c></a>", labeled=False)
        assert [tree.parent(v) for v in tree.vertices()] == [None, 0, 0]
        assert [tree.label(v) for v in tree.vertices()] == [None, None, None]
        assert serialize_tree(tree) == "(()())"

    def test_comments_doctype_text_and_attributes_are_ignored(self):
        document = (
            "<!DOCTYPE html>\n<!-- <x></x> --><?xml version='1.0'?>"
            "<a href='&amp;'>text &lt;b&gt;<b/><!-- <c> --></a>\n"
        )
        assert bracket(document) == "a(b())"

    def test_tags_are_lowercase(self):
        assert bracket("<A><B/></A>") == "a(b())"


class TestErrors:
    def test_stray_end_tag_names_its_position(self):
        with pytest.raises(MarkupParseError) as err:
            markup_to_tree("<a>\n  <b></c></b></a>")
        assert str(err.value) == "stray closing tag </c> (line 2, column 5)"
        assert (err.value.line, err.value.col) == (2, 5)

    def test_unclosed_element(self):
        with pytest.raises(MarkupParseError, match=r"^unclosed element <a> \(line 1, column 6\)$"):
            markup_to_tree("<a><b>")

    def test_several_top_level_elements(self):
        with pytest.raises(MarkupParseError, match=r"^document has 2 top-level elements \(line 1, column 0\)$"):
            markup_to_tree("<a></a><b/>")

    @pytest.mark.parametrize("document", ["", "just text", "<!-- <a></a> -->"])
    def test_no_elements(self, document):
        with pytest.raises(MarkupParseError, match=r"^document contains no elements \(line 1, column 0\)$"):
            markup_to_tree(document)

    def test_unclosed_element_wins_over_several_top_level_elements(self):
        with pytest.raises(MarkupParseError, match=r"^unclosed element <b> "):
            markup_to_tree("<a></a><b>")

    def test_end_tag_after_the_root_is_stray(self):
        with pytest.raises(MarkupParseError, match=r"^stray closing tag </a> \(line 1, column 7\)$"):
            markup_to_tree("<a></a></a>")

    def test_tag_that_is_no_label(self):
        with pytest.raises(ValueError, match="invalid label 'a\\(b'"):
            markup_to_tree("<a(b></a(b>")

    def test_error_is_a_value_error(self):
        assert issubclass(MarkupParseError, ValueError)
