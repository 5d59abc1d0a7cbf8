import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagkernel import Dag, Tree, TreeMode, format_dag, parse_tree, reduce_forest, subtree_signatures

from conftest import (
    FIG3_TREE,
    FIG5_T2,
    MODES,
    ORDERED,
    UNORDERED,
    canonical_signature,
    count_occurrences,
    expand,
    is_reduced,
    join_forest,
    random_tree,
)


def complete_binary(height):
    t = Tree.leaf()
    for _ in range(height):
        t = Tree.node([t, t])
    return t


def random_forest(rng, n_trees, max_size, labels=None):
    return [random_tree(rng, rng.randint(1, max_size), labels) for _ in range(n_trees)]


class TestReduceExpand:
    def test_fig3_unordered(self):
        t = parse_tree(FIG3_TREE)
        assert len(t) == 15
        d = reduce_forest([t], UNORDERED)
        assert d.root == 5
        mults = [m for v in range(d.root) for _, m in d.edges(v)]
        assert sorted(mults).count(2) == 1 and max(mults) == 2

    def test_fig3_ordered(self):
        d = reduce_forest([parse_tree(FIG3_TREE)], ORDERED)
        assert d.root == 6

    def test_complete_binary_is_chain(self):
        d = reduce_forest([complete_binary(3)], UNORDERED)
        assert d.root == 4
        for v in range(1, 4):
            assert d.edges(v) == ((v - 1, 2),)

    def test_single_vertex(self):
        d = reduce_forest([Tree.leaf()], UNORDERED)
        assert d.root == 1
        assert expand(d, d.member_roots[0]) == Tree.leaf()

    def test_expand_fig3(self):
        t = parse_tree(FIG3_TREE)
        d = reduce_forest([t], UNORDERED)
        back = expand(d, d.member_roots[0])
        assert len(back) == 15
        assert canonical_signature(back, UNORDERED) == canonical_signature(t, UNORDERED)

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_roundtrip_random(self, mode):
        rng = random.Random(11)
        labels = "abc" if mode.labeled else None
        for _ in range(150):
            t = random_tree(rng, rng.randint(1, 100), labels)
            d = reduce_forest([t], mode)
            assert canonical_signature(expand(d, d.member_roots[0]), mode) == (
                canonical_signature(t, mode)
            )

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_vertex_count_equals_distinct_signatures(self, mode):
        rng = random.Random(12)
        labels = "ab" if mode.labeled else None
        for _ in range(60):
            t = random_tree(rng, rng.randint(1, 20), labels)
            assert reduce_forest([t], mode).root == len(set(subtree_signatures(t, mode)))

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_reduced_form(self, mode):
        rng = random.Random(13)
        for _ in range(40):
            t = random_tree(rng, rng.randint(1, 40), "ab" if mode.labeled else None)
            assert is_reduced(reduce_forest([t], mode))

    def test_expand_vertex_of_forest(self):
        forest = reduce_forest([parse_tree("(()())"), Tree.leaf()], UNORDERED)
        leaf_vertex = 0
        assert expand(forest, leaf_vertex) == Tree.leaf()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_roundtrip_property(self, seed, n):
        t = random_tree(random.Random(seed), n)
        for mode in (UNORDERED, ORDERED):
            d = reduce_forest([t], mode)
            assert canonical_signature(expand(d, d.member_roots[0]), mode) == (
                canonical_signature(t, mode)
            )


class TestSuperdag:
    """The forest DAG: members under one artificial root, shared classes merged."""

    def test_single_member(self):
        # The 5 classes of the tree, then the artificial root above its root.
        forest = reduce_forest([parse_tree(FIG3_TREE)], UNORDERED)
        assert len(forest) == 6 and forest.n_members == 1
        assert forest.member_roots == (4,)
        assert forest.edges(forest.root) == ((4, 1),)

    def test_two_leaf_members(self):
        forest = reduce_forest([Tree.leaf()] * 2, UNORDERED)
        assert len(forest) == 2  # shared leaf + artificial root

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            reduce_forest([], UNORDERED)

    def test_fig5_walkthrough(self):
        t1 = parse_tree(FIG3_TREE)
        t2 = parse_tree(FIG5_T2)
        assert len(t2) == 11
        assert reduce_forest([t1], UNORDERED).root == reduce_forest([t2], UNORDERED).root == 5
        merged = reduce_forest([t1, t2], UNORDERED)
        assert len(merged) == 8
        # The two members share their classes of heights 0, 1 and 2 only.
        row_offsets, ids, _ = merged.member_counts
        ids1, ids2 = np.split(ids, row_offsets[1:-1])
        shared = sorted(merged.height(int(v)) for v in set(ids1) & set(ids2))
        assert shared == [0, 1, 2]

    def test_duplicate_members_share_subdag(self):
        t = parse_tree(FIG3_TREE)
        merged = reduce_forest([t, t], UNORDERED)
        assert len(merged) == len(reduce_forest([t], UNORDERED))
        assert merged.member_roots[0] == merged.member_roots[1]
        assert merged.edges(merged.root) == ((merged.member_roots[0], 2),)


def supertree_oracle(trees, mode):
    """Independent reference: reduce the explicitly built supertree."""
    return reduce_forest([join_forest(trees)], mode)


class TestRecompressEquivalence:
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_matches_supertree_reduction(self, mode):
        rng = random.Random(14)
        labels = "ab" if mode.labeled else None
        for _ in range(60):
            trees = random_forest(rng, rng.randint(1, 8), 20, labels)
            fast = reduce_forest(trees, mode)
            slow = supertree_oracle(trees, mode)
            assert len(fast) == slow.root  # the classes plus the joining root
            assert is_reduced(fast)
            assert canonical_signature(
                expand_forest(fast), mode
            ) == canonical_signature(join_forest(trees), mode)

    def test_heights_preserved(self):
        rng = random.Random(15)
        trees = random_forest(rng, 6, 25)
        merged = reduce_forest(trees, UNORDERED)
        assert merged.height() == join_forest(trees).height()
        for t, r in zip(trees, merged.member_roots):
            assert merged.height(r) == t.height()


def expand_forest(forest_dag):
    """Expand a forest DAG through its artificial root into the supertree."""
    return expand(forest_dag, forest_dag.root)


def chain(n, labels):
    return Tree([None] + list(range(n - 1)), labels)


@st.composite
def forests(draw):
    """A mode and a forest mixing random trees, single vertices, deep chains
    and repeated members."""
    mode = draw(st.sampled_from(MODES), label="mode")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = draw(st.lists(st.sampled_from(["random", "leaf", "chain", "repeat"]),
                          min_size=1, max_size=7), label="kinds")

    alphabet = "ab" if mode.labeled else None

    def label():
        return rng.choice(alphabet) if alphabet else None

    trees = []
    for kind in kinds:
        if kind == "repeat" and trees:
            trees.append(rng.choice(trees))
        elif kind == "leaf":
            trees.append(Tree.leaf(label()))
        elif kind == "chain":
            n = rng.randint(2, 60)
            trees.append(chain(n, [label() for _ in range(n)]))
        else:
            trees.append(random_tree(rng, rng.randint(1, 25), alphabet))
    return mode, trees


class TestOneTable:
    """Forest compression against string signatures, which share no code with it."""

    @settings(max_examples=60, deadline=None)
    @given(case=forests())
    def test_signature_oracle(self, case):
        mode, trees = case
        forest = reduce_forest(trees, mode)
        tree_sigs = [subtree_signatures(t, mode) for t in trees]
        assert len(forest) == len(set().union(*tree_sigs)) + 1  # + artificial root
        assert is_reduced(forest)
        assert canonical_signature(expand_forest(forest), mode) == (
            canonical_signature(join_forest(trees), mode)
        )
        for sigs, r in zip(tree_sigs, forest.member_roots):
            assert canonical_signature(expand(forest, r), mode) == sigs[0]
        # The root is the last id, so pattern v is the subtree of vertex v.
        patterns = [expand(forest, v) for v in range(forest.root)]
        row_offsets, ids, counts = forest.member_counts
        bounds = row_offsets[1:-1]
        for t, row_ids, row_counts in zip(trees, np.split(ids, bounds), np.split(counts, bounds)):
            row = dict(zip(row_ids.tolist(), row_counts.tolist()))
            for v, pattern in enumerate(patterns):
                assert row.get(v, 0) == count_occurrences(pattern, t, mode)


class TestNumbering:
    @settings(max_examples=60, deadline=None)
    @given(case=forests())
    def test_ids_follow_height_then_discovery(self, case):
        # Expected order from string signatures: distinct subtree classes by
        # (height, first discovery), discovering trees in order, each tree in
        # reverse preorder.
        mode, trees = case

        def expected(forest):
            first = {}
            for t in forest:
                sigs = subtree_signatures(t, mode)
                for v in reversed(t.vertices()):
                    first.setdefault(sigs[v], (t.height(v), len(first)))
            return sorted(first, key=first.get)

        def ids(dag, n):
            return [canonical_signature(expand(dag, v), mode) for v in range(n)]

        tree = reduce_forest(trees[:1], mode)
        assert ids(tree, tree.root) == expected(trees[:1])
        forest = reduce_forest(trees, mode)
        assert ids(forest, forest.root) == expected(trees)


def dag_parts(**fault):
    """Constructor arguments of a valid unordered forest DAG, with ``fault``
    replacing some: leaf 0, vertex 1 with the leaf twice below it, and the
    artificial root 2 above one member whose count row is {0: 2, 1: 1}."""
    parts = dict(mode=UNORDERED, heights=[0, 1, 2], offsets=[0, 0, 1, 2], kids=[0, 1],
                 mults=[2, 1], rows=([0, 2], [0, 1], [2.0, 1.0]))
    parts.update(fault)
    return (parts["mode"], parts["heights"], [None] * 3,
            (parts["offsets"], parts["kids"], parts["mults"]), parts["rows"])


class TestValidation:
    def test_valid_parts(self):
        d = Dag(*dag_parts())
        assert d.member_roots == (1,) and d.edges(1) == ((0, 2),)
        assert repr(d) == "Dag(unordered+unlabeled, 1 members, 3 vertices, height 2)"

    def test_root_and_heights_come_from_the_stored_arrays(self):
        d = Dag(*dag_parts())
        assert d.root == len(d) - 1 == 2
        heights = d.heights()
        assert heights.dtype == np.int64 and heights.tolist() == [0, 1, 2]
        assert not heights.flags.writeable

    @pytest.mark.parametrize("fault, message", [
        (dict(heights=[0, 1]), "equal length"),
        (dict(offsets=[0, 1, 0, 2]), "offsets"),
        (dict(heights=[1, 1, 2]), "childless vertex 0 must have height 0"),
        (dict(heights=[0, 1, 3]), "vertex 2 has inconsistent height"),
        (dict(kids=[0, 3]), "vertex 2 references invalid child 3"),
        (dict(kids=[0, -1]), "vertex 2 references invalid child -1"),
        (dict(heights=[0, 2, 2]), "edge 2->1 does not decrease height"),
        (dict(mults=[0, 1]), "multiplicity"),
        (dict(mode=ORDERED), "multiplicity"),  # ordered mode repeats a child instead
        (dict(rows=([0, 2, 2], [0, 1], [2.0, 1.0])), "count row"),  # empty row
        (dict(rows=([0, 2], [1, 0], [1.0, 2.0])), "count row"),  # not increasing
        (dict(rows=([0, 2], [0, 1], [2.0, 0.5])), "count row"),  # count below 1
        (dict(rows=([0, 3], [0, 1, 2], [2.0, 1.0, 1.0])), "count row"),  # holds the root
    ], ids=["lengths", "offsets", "childless", "height", "child-high", "child-low", "edge",
            "mult", "ordered-mult", "row-empty",
            "row-order", "row-count", "row-root"])
    def test_rejected(self, fault, message):
        with pytest.raises(ValueError, match=message):
            Dag(*dag_parts(**fault))


class TestDagStructure:
    def test_edges_descend_in_id_and_height(self):
        rng = random.Random(17)
        for mode in MODES:
            t = random_tree(rng, 40, "ab" if mode.labeled else None)
            d = reduce_forest([t], mode)
            for v in range(len(d)):
                for c, mult in d.edges(v):
                    assert c < v
                    assert d.height(c) < d.height(v)
                    assert mult >= 1

    def test_one_leaf_vertex_per_label(self):
        mode = TreeMode(ordered=False, labeled=True)
        t = parse_tree("a(b()b()c()d(b()))")
        d = reduce_forest([t], mode)
        leaf_labels = [d.label(v) for v in range(len(d)) if d.height(v) == 0]
        assert sorted(leaf_labels) == ["b", "c"]  # three b-leaves share a vertex

    def test_format_dag_golden(self):
        d = reduce_forest([parse_tree(FIG3_TREE)], UNORDERED)
        assert format_dag(d) == (
            "0 0 -> \n"
            "1 1 -> (0,1)\n"
            "2 2 -> (0,1)(1,1)\n"
            "3 3 -> (2,2)\n"
            "4 4 -> (0,1)(2,1)(3,1)\n"
            "5 5 -> (4,1)\n"
        )

    def test_format_dag_ordered_repeats(self):
        d = reduce_forest([parse_tree("((())(()))")], ORDERED)
        lines = format_dag(d).splitlines()
        assert lines[-2].endswith("(1,1)(1,1)") and lines[-1] == "3 3 -> (2,1)"
