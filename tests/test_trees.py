import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagkernel import Tree, TreeMode, TreeParseError, parse_tree, serialize_tree, subtree_signatures

from conftest import (
    FIG1_T0,
    FIG1_T1,
    MODES,
    ORDERED,
    UNORDERED,
    all_ordered_shapes,
    brute_isomorphic,
    canonical_signature,
    count_occurrences,
    join_forest,
    random_tree,
    reference_parse,
    reverse_children,
)
from dagkernel.trees import _WHITESPACE


# Bracket-text pieces for the parser property: brackets, label characters,
# whitespace that str.isspace() accepts (ASCII, \x1c, no-break and
# ideographic space) and unprintable characters (NUL, zero-width space).
PARSE_TOKENS = ["(", ")", "()", "a", "b", "é", " ", "\t", "\n", "\x1c", "\xa0", "\u3000",
                "\x00", "\u200b"]
# Well-formed trees with whitespace between siblings, most of them parsed.
BRACKET_TREES = st.recursive(
    st.sampled_from(["()", "a()", "é()"]),
    lambda kids: st.builds(
        lambda label, sep, subtrees: label + "(" + sep + sep.join(subtrees) + ")",
        st.sampled_from(["", "a", "bé"]),
        st.sampled_from(["", " ", "\xa0", "\n\u3000"]),
        st.lists(kids, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def bracket_texts(draw):
    """Random token strings, and well-formed trees with a token or two
    inserted or deleted: near misses of the grammar."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(PARSE_TOKENS), max_size=24)))
    text = draw(BRACKET_TREES)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(PARSE_TOKENS)) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def chain(n, label=None):
    t = Tree.leaf(label)
    for _ in range(n - 1):
        t = Tree.node([t], label=label)
    return t


class TestBasics:
    def test_single_vertex_height(self):
        assert Tree.leaf().height() == 0

    def test_fig1_t0_height(self):
        assert parse_tree(FIG1_T0).height() == 3

    def test_chain_height(self):
        assert chain(6).height() == 5

    def test_height_invalid_vertex(self):
        with pytest.raises(ValueError):
            Tree.leaf().height(3)

    def test_outdegree(self):
        assert Tree.leaf().outdegree() == 0
        assert parse_tree(FIG1_T1).outdegree() == 4
        assert chain(5).outdegree() == 1

    def test_leaves(self):
        assert Tree.leaf().leaves() == (0,)
        assert len(parse_tree(FIG1_T0).leaves()) == 6
        assert len(parse_tree(FIG1_T1).leaves()) == 6

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Tree([])

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError, match="one root"):
            Tree([None, None])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="one root"):
            Tree([1, 0])

    @pytest.mark.parametrize("parents", [[None, 2], [None, -1], [None, 0, 7]])
    def test_parent_out_of_range_rejected(self, parents):
        with pytest.raises(ValueError, match="invalid parent"):
            Tree(parents)

    def test_self_parent_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Tree([None, 0, 2])

    def test_cycle_away_from_root_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Tree([None, 0, 3, 2])

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"], []])
    def test_label_length_rejected(self, labels):
        with pytest.raises(ValueError, match="equal length"):
            Tree([None, 0], labels)

    def test_heights_are_monotone_to_root(self):
        rng = random.Random(1)
        for _ in range(50):
            t = random_tree(rng, rng.randint(1, 30))
            assert all(t.height() >= t.height(v) for v in t.vertices())
            assert (t.height() == 0) == (len(t) == 1)


class TestSubtree:
    def test_subtree_at_root_is_tree(self):
        t = parse_tree(FIG1_T0)
        assert t.subtree(0) == t

    def test_subtree_at_leaf(self):
        t = parse_tree(FIG1_T0)
        leaf = t.leaves()[0]
        assert len(t.subtree(leaf)) == 1

    def test_fig1_three_child_vertex_is_star(self):
        # The rightmost internal vertex of the first figure tree: 3 leaf kids.
        t = parse_tree(FIG1_T0)
        (v,) = [
            u
            for u in t.vertices()
            if len(t.children(u)) == 3 and all(t.is_leaf(c) for c in t.children(u))
        ]
        star = t.subtree(v)
        assert len(star) == 4 and star.height() == 1

    def test_subtree_invalid(self):
        with pytest.raises(ValueError):
            Tree.leaf().subtree(2)

    def test_descendants_contiguous(self):
        rng = random.Random(2)
        deep = Tree([None] + list(range(2999)))  # a 3000-vertex chain
        for t in [random_tree(rng, 20) for _ in range(20)] + [deep]:
            # Subtree sizes counted from the parent array, leaves upwards.
            sizes = [1] * len(t)
            for u in range(len(t) - 1, 0, -1):
                sizes[t.parent(u)] += sizes[u]
            small = len(t) <= 20
            for v in (t.vertices() if small else (0, 1, 1500, 2999)):
                block = t.descendants(v)
                assert len(block) == t.subtree_size(v) == sizes[v]
                if small:
                    for u in block:  # v is u or one of u's ancestors
                        while u is not None and u != v:
                            u = t.parent(u)
                        assert u == v

    def test_replace_subtree(self):
        t = parse_tree("((()())())")
        repl = parse_tree("(((())))")
        out = t.replace_subtree(1, repl)
        assert len(out) == len(t) - 3 + len(repl)
        assert out.replace_subtree(0, t) == t


class TestSignatures:
    def test_single_vertices_equal(self):
        assert canonical_signature(Tree.leaf(), UNORDERED) == canonical_signature(
            Tree.leaf(), UNORDERED
        )

    def test_reversal_invariant_unordered(self):
        rng = random.Random(3)
        for _ in range(30):
            t = random_tree(rng, rng.randint(1, 25))
            assert canonical_signature(t, UNORDERED) == canonical_signature(
                reverse_children(t), UNORDERED
            )

    def test_reversal_matches_oracle_ordered(self):
        # Ordered signatures must distinguish mirror images exactly when the
        # brute-force oracle does, for every shape with <= 5 vertices.
        for t in all_ordered_shapes(5):
            r = reverse_children(t)
            assert (canonical_signature(t, ORDERED) == canonical_signature(r, ORDERED)) == (
                brute_isomorphic(t, r, ORDERED)
            )

    @pytest.mark.parametrize("mode", MODES[:2], ids=str)
    def test_exhaustive_pairs_against_oracle(self, mode):
        shapes = list(all_ordered_shapes(6))
        sigs = [canonical_signature(t, mode) for t in shapes]
        for i, t1 in enumerate(shapes):
            for j, t2 in enumerate(shapes):
                assert (sigs[i] == sigs[j]) == brute_isomorphic(t1, t2, mode)

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_random_pairs_against_oracle(self, mode):
        rng = random.Random(MODES.index(mode))
        labels = "ab" if mode.labeled else None
        for _ in range(250):
            n = rng.randint(1, 30)
            t1 = random_tree(rng, n, labels)
            # Half the pairs share the shape so matches actually happen.
            if rng.random() < 0.5:
                t2 = reverse_children(t1)
            else:
                t2 = random_tree(rng, rng.randint(1, 30), labels)
            assert (
                canonical_signature(t1, mode) == canonical_signature(t2, mode)
            ) == brute_isomorphic(t1, t2, mode)

    @pytest.mark.parametrize("seed", range(3))
    def test_cached_signatures_match_a_fresh_tree(self, seed):
        # A tree keeps its signatures per mode.  Every construction path
        # starts with an empty cache, also when it derives the tree from an
        # already signed one, and signing in all four modes, in any order and
        # again, gives what a fresh equal tree gives.
        rng = random.Random(seed)
        base = random_tree(rng, 25, "ab")
        for mode in MODES:
            subtree_signatures(base, mode)
        order = rng.sample(range(25), 25)  # old id -> new id
        parents = [None] * 25
        labels = [None] * 25
        for v in base.vertices():
            p = base.parent(v)
            parents[order[v]] = None if p is None else order[p]
            labels[order[v]] = base.label(v)
        u = rng.randrange(1, 25)
        built = [
            Tree(parents, labels),
            Tree._raw(tuple(base.parent(v) for v in base.vertices()),
                      tuple(base.label(v) for v in base.vertices())),
            parse_tree(serialize_tree(base)),
            base.subtree(u),
            base.replace_subtree(u, random_tree(rng, 6, "ab")),
        ]
        for tree in built:
            for mode in rng.sample(MODES, 4) + rng.sample(MODES, 4):
                fresh = parse_tree(serialize_tree(tree))
                assert subtree_signatures(tree, mode) == subtree_signatures(fresh, mode)
                assert canonical_signature(tree, mode) == subtree_signatures(fresh, mode)[0]

    def test_label_participates(self):
        labeled = TreeMode(ordered=False, labeled=True)
        assert canonical_signature(Tree.leaf("a"), labeled) != canonical_signature(
            Tree.leaf("b"), labeled
        )
        unlabeled = UNORDERED
        assert canonical_signature(Tree.leaf("a"), unlabeled) == canonical_signature(
            Tree.leaf("b"), unlabeled
        )


class TestCountOccurrences:
    def test_leaf_count(self):
        t = parse_tree(FIG1_T0)
        assert count_occurrences(Tree.leaf(), t, UNORDERED) == 6

    def test_whole_tree_once(self):
        t = parse_tree(FIG1_T0)
        assert count_occurrences(t, t, UNORDERED) == 1

    def test_chain_in_chain(self):
        assert count_occurrences(chain(2), chain(3), UNORDERED) == 1

    def test_leaf_count_every_tree(self):
        rng = random.Random(4)
        for _ in range(30):
            t = random_tree(rng, rng.randint(1, 25))
            assert count_occurrences(Tree.leaf(), t, UNORDERED) == len(t.leaves())


class TestBracketFormat:
    def test_single_vertex(self):
        assert len(parse_tree("()")) == 1

    def test_two_leaves(self):
        t = parse_tree("(()())")
        assert len(t) == 3 and len(t.children(0)) == 2

    def test_labels(self):
        t = parse_tree("a(b()c())")
        assert t.label(0) == "a"
        assert [t.label(c) for c in t.children(0)] == ["b", "c"]

    def test_whitespace_between_siblings(self):
        assert parse_tree("( ()  () )") == parse_tree("(()())")

    def test_serialize_parse_roundtrip_fixed(self):
        for text in ["()", "(()())", "a(b()c(d()))", FIG1_T0, FIG1_T1]:
            assert serialize_tree(parse_tree(text)) == text.replace(" ", "")

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        alphabet=st.sampled_from([None, "xyz", ("ab", "élan", "x1,y", "[]")]),
    )
    def test_roundtrip_random(self, seed, n, alphabet):
        t = random_tree(random.Random(seed), n, alphabet)
        assert parse_tree(serialize_tree(t)) == t

    @pytest.mark.parametrize(
        "text,parents,labels",
        [
            ("é(ab())", (None, 0), ("é", "ab")),
            ("(\u3000()\xa0())", (None, 0, 0), (None, None, None)),
        ],
    )
    def test_valid_text(self, text, parents, labels):
        t = parse_tree(text)
        assert (t._parents, t._labels) == (parents, labels)

    def test_deep_path(self):
        n = 40_000
        t = parse_tree("(" * n + ")" * n)
        assert t._parents == (None,) + tuple(range(n - 1))
        assert t.height() == n - 1

    def test_wide_star(self):
        n = 40_000
        t = parse_tree("(" + "()" * n + ")")
        assert t._parents == (None,) + (0,) * n
        assert t._labels == (None,) * (n + 1)

    def test_whitespace_table_is_str_isspace(self):
        # parse_tree deletes exactly the characters the error scan skips.
        assert set(_WHITESPACE) == {chr(c) for c in range(0x110000) if chr(c).isspace()}

    @settings(max_examples=600, deadline=None)
    @given(
        text=bracket_texts(),
        mode=st.sampled_from([None, TreeMode(ordered=False, labeled=True), UNORDERED]),
    )
    def test_matches_reference_scanner(self, text, mode):
        try:
            want = reference_parse(text, mode)
        except TreeParseError as exc:
            with pytest.raises(TreeParseError) as err:
                parse_tree(text, mode)
            assert (str(err.value), err.value.position) == (str(exc), exc.position)
        else:
            t = parse_tree(text, mode)
            assert (t._parents, t._labels) == want

    @pytest.mark.parametrize(
        "bad,pos",
        [
            ("", 0),
            ("(", 1),
            (")", 0),
            ("(()", 3),
            ("())", 2),
            ("a", 1),
            ("()x()", 2),
            ("(\x00())", 1),
            ("a ()", 1),
            ("(()) x", 6),
            ("()()", 2),
            ("a\x00b()", 1),
            ("(\u200b)", 1),
            ("xb\n(()) ", 2),
        ],
    )
    def test_parse_errors_with_position(self, bad, pos):
        with pytest.raises(TreeParseError) as err:
            parse_tree(bad)
        assert err.value.position == pos

    def test_unlabeled_mode_rejects_labels(self):
        with pytest.raises(TreeParseError):
            parse_tree("a()", UNORDERED)
        with pytest.raises(TreeParseError) as err:
            parse_tree("(a())", UNORDERED)
        assert err.value.position == 1
        assert parse_tree("a()", TreeMode(ordered=False, labeled=True)).label(0) == "a"


class TestBuilders:
    def test_node_parent_arrays_consistent(self):
        t = Tree.node([Tree.node([Tree.leaf()]), Tree.leaf()], label="r")
        assert t.parent(0) is None
        for v in range(1, len(t)):
            assert t.parent(v) is not None
            assert v in t.children(t.parent(v))
        # The parent arrays feed subtree extraction; cross-check both paths.
        assert t == parse_tree(serialize_tree(t))
        assert len(t.subtree(1)) == 2

    def test_children_ordered_by_vertex_id(self):
        # Children of 0 are 1 then 2, and 3 hangs below 1: preorder 0, 1, 3, 2.
        t = Tree([None, 0, 0, 1], ["r", "a", "b", "c"])
        assert t.children(0) == (1, 3) and t.children(1) == (2,)
        assert serialize_tree(t) == "r(a(c())b())"
        assert Tree([2, 2, None]) == parse_tree("(()())")


def rebuilt_shuffled(t, rng):
    """``t`` rebuilt through the constructor from a shuffled vertex order that
    keeps every sibling list increasing, so the same tree must come back."""
    new = list(range(len(t)))
    rng.shuffle(new)
    for v in t.vertices():
        kids = t.children(v)
        for c, nid in zip(kids, sorted(new[c] for c in kids)):
            new[c] = nid
    parents = [None] * len(t)
    labels = [None] * len(t)
    for v in t.vertices():
        p = t.parent(v)
        parents[new[v]] = None if p is None else new[p]
        labels[new[v]] = t.label(v)
    return Tree(parents, labels)


class TestSplice:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), m=st.integers(1, 8),
           lab=st.booleans())
    def test_splices_match_text_and_constructor(self, seed, n, m, lab):
        rng = random.Random(seed)
        labels = "ab" if lab else None
        t = random_tree(rng, n, labels)
        r = random_tree(rng, m, labels)
        text = serialize_tree(t)
        # Labels hold no parentheses, so vertex v opens the v-th "(" of the text.
        opens = [i for i, ch in enumerate(text) if ch == "("]
        for v in t.vertices():
            sub = t.subtree(v)
            start = opens[v] - len(t.label(v) or "")
            end = start + len(serialize_tree(sub))
            assert text[start:end] == serialize_tree(sub)
            out = t.replace_subtree(v, r)
            assert serialize_tree(out) == text[:start] + serialize_tree(r) + text[end:]
            joined = Tree.node([sub, r, t], label=labels and "a")
            for built in (sub, out, joined):
                assert rebuilt_shuffled(built, rng) == built


# Characters that break the text format or a signature when put in a label,
# next to ordinary ones.
ADVERSARIAL_LABELS = st.text(
    alphabet=st.sampled_from(["a", "b", "é", ",", "(", ")", " ", "\t", "\n", "\x00", "\xa0"]),
    max_size=4,
)


# Labels that pass the rule, prefixes of each other included ("a", "aa").
VALID_LABELS = st.text(alphabet=st.sampled_from(["a", "b", "é", ",", "[", "]", "\\"]),
                       min_size=1, max_size=3)


def follows_label_rule(label):
    return label != "" and all(
        ch.isprintable() and not ch.isspace() and ch not in "()" for ch in label
    )


class TestLabelRule:
    def test_signature_collision_rejected(self):
        # "a(" over a leaf and "a" over a leaf labeled "(" would both have
        # the signature "a((())".
        with pytest.raises(ValueError):
            Tree.node([Tree.leaf()], label="a(")
        with pytest.raises(ValueError):
            Tree.leaf("(")

    @settings(max_examples=150, deadline=None)
    @given(label=ADVERSARIAL_LABELS)
    def test_every_construction_path(self, label):
        constructors = [
            lambda: Tree.leaf(label),
            lambda: Tree.node([Tree.leaf()], label=label),
            lambda: Tree([None, 0], [None, label]),
            lambda: Tree([1, None], [None, label]),
        ]
        for build in constructors:
            if follows_label_rule(label):
                t = build()
                assert parse_tree(serialize_tree(t)) == t
            else:
                with pytest.raises(ValueError):
                    build()

    def test_non_string_label_rejected(self):
        with pytest.raises(ValueError):
            Tree.leaf(3)

    @settings(max_examples=60, deadline=None)
    @given(
        alphabet=st.lists(VALID_LABELS, min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_signatures_injective(self, alphabet, seed):
        rng = random.Random(seed)
        trees = [random_tree(rng, rng.randint(1, 5), alphabet) for _ in range(4)]
        for mode in MODES[2:]:
            for t1 in trees:
                for t2 in trees:
                    same = canonical_signature(t1, mode) == canonical_signature(t2, mode)
                    assert same == brute_isomorphic(t1, t2, mode)


class TestForest:
    def test_join_forest(self):
        t = join_forest([Tree.leaf(), chain(2)])
        assert len(t) == 4 and len(t.children(0)) == 2

    def test_join_empty(self):
        with pytest.raises(ValueError):
            join_forest([])


def test_subtree_signature_consistency():
    # subtree_signatures must agree with signatures of extracted subtrees.
    rng = random.Random(5)
    for mode in MODES:
        t = random_tree(rng, 20, "ab" if mode.labeled else None)
        sigs = subtree_signatures(t, mode)
        for v in t.vertices():
            assert sigs[v] == canonical_signature(t.subtree(v), mode)
