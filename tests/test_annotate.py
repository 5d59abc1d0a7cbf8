import random

import numpy as np
import pytest

from dagkernel import (
    AnnotatedDag,
    Tree,
    canonical_signature,
    count_occurrences,
    expand,
    parse_tree,
    random_tree,
    reduce_forest,
    reduce_tree,
    subtree_signatures,
)

from conftest import FIG3_TREE, FIG5_T2, MODES, ORDERED, UNORDERED


def annotated_for(trees, mode):
    return AnnotatedDag(reduce_forest(trees, mode))


def holders(ann, v):
    """Members whose count row holds vertex ``v``."""
    return frozenset(i for i in range(ann.n_members) if v in ann.member_vertices(i))


def signature_holders(ann, trees, mode, v):
    """Members with a subtree isomorphic to the expansion of ``v``."""
    sig = canonical_signature(expand(ann.dag, v), mode)
    return frozenset(i for i, t in enumerate(trees) if sig in subtree_signatures(t, mode))


class TestOrigins:
    def test_member_roots_have_own_index(self):
        trees = [parse_tree(FIG3_TREE), parse_tree(FIG5_T2)]
        ann = annotated_for(trees, UNORDERED)
        for i, r in enumerate(ann.dag.member_roots):
            assert i in holders(ann, r)
            assert canonical_signature(expand(ann.dag, r), UNORDERED) == (
                canonical_signature(trees[i], UNORDERED)
            )

    def test_shared_leaf_has_all_origins(self):
        rng = random.Random(21)
        trees = [random_tree(rng, rng.randint(1, 12)) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        leaf_vertices = [v for v in range(len(ann.dag)) if ann.dag.height(v) == 0]
        assert len(leaf_vertices) == 1
        assert holders(ann, leaf_vertices[0]) == frozenset(range(6))

    def test_origin_oracle(self):
        # Member i holds v iff tree i has a subtree isomorphic to expand(v).
        rng = random.Random(22)
        for mode in MODES:
            labels = "ab" if mode.labeled else None
            trees = [random_tree(rng, rng.randint(1, 12), labels) for _ in range(5)]
            ann = annotated_for(trees, mode)
            for v in range(len(ann.dag)):
                if v == ann.dag.root:
                    assert holders(ann, v) == frozenset()
                    continue
                assert holders(ann, v) == signature_holders(ann, trees, mode, v)

    def test_disjoint_trees_have_singleton_internal_origins(self):
        t0 = parse_tree(FIG3_TREE)
        t1 = parse_tree("(()()()()())")
        ann = annotated_for([t0, t1], UNORDERED)
        for v in range(len(ann.dag)):
            if v == ann.dag.root or ann.dag.height(v) == 0:
                continue
            assert len(holders(ann, v)) == 1
            assert holders(ann, v) == signature_holders(ann, [t0, t1], UNORDERED, v)

    def test_non_forest_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedDag(reduce_tree(Tree.leaf(), UNORDERED))


class TestFrequencies:
    def test_leaf_frequency_is_leaf_count(self):
        rng = random.Random(23)
        trees = [random_tree(rng, rng.randint(1, 15)) for _ in range(5)]
        ann = annotated_for(trees, UNORDERED)
        (leaf_v,) = [v for v in range(len(ann.dag)) if ann.dag.height(v) == 0]
        for i, t in enumerate(trees):
            assert ann.frequency(leaf_v, i) == len(t.leaves())

    def test_root_children_frequency_one(self):
        trees = [parse_tree(FIG3_TREE), parse_tree(FIG5_T2)]
        ann = annotated_for(trees, UNORDERED)
        for i, r in enumerate(ann.dag.member_roots):
            assert ann.frequency(r, i) == 1

    def test_complete_binary_counts(self):
        t = Tree.node([Tree.node([Tree.leaf()] * 2)] * 2)
        t = Tree.node([t, t])  # complete binary of height 3
        ann = annotated_for([t], UNORDERED)
        by_height = {ann.dag.height(v): v for v in range(len(ann.dag) - 1)}
        assert ann.frequency(by_height[1], 0) == 4
        assert ann.frequency(by_height[2], 0) == 2

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_frequency_oracle(self, mode):
        rng = random.Random(24)
        labels = "ab" if mode.labeled else None
        for _ in range(8):
            trees = [random_tree(rng, rng.randint(1, 18), labels) for _ in range(4)]
            ann = annotated_for(trees, mode)
            for v in range(len(ann.dag)):
                if v == ann.dag.root:
                    continue
                pattern = expand(ann.dag, v)
                for i, t in enumerate(trees):
                    assert ann.frequency(v, i) == count_occurrences(pattern, t, mode)

    def test_positive_iff_in_origin(self):
        rng = random.Random(25)
        trees = [random_tree(rng, rng.randint(1, 15)) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        for v in range(len(ann.dag)):
            if v == ann.dag.root:
                continue
            held = signature_holders(ann, trees, UNORDERED, v)
            for i in range(6):
                assert (ann.frequency(v, i) > 0) == (i in held)

    def test_total_count_is_tree_size(self):
        # Every vertex of T_i roots exactly one subtree, so per-member counts
        # over its DAG vertices add up to the tree size.
        rng = random.Random(26)
        for mode in (UNORDERED, ORDERED):
            trees = [random_tree(rng, rng.randint(1, 20)) for _ in range(5)]
            ann = annotated_for(trees, mode)
            for i, t in enumerate(trees):
                vs = ann.member_vertices(i)
                assert sum(ann.frequency(v, i) for v in vs) == len(t)

    def test_ordered_repeated_edges_count_separately(self):
        # A parent with two ordered edges to the same child doubles the count.
        t = parse_tree("((())(()))")
        ann = annotated_for([t], ORDERED)
        (chain2,) = [v for v in range(len(ann.dag)) if ann.dag.height(v) == 1]
        assert ann.frequency(chain2, 0) == 2


class TestMatching:
    def test_self_matching_is_member_subdag(self):
        rng = random.Random(27)
        trees = [random_tree(rng, rng.randint(1, 15)) for _ in range(4)]
        ann = annotated_for(trees, UNORDERED)
        for i in range(4):
            np.testing.assert_array_equal(ann.matching(i, i), ann.member_vertices(i))

    def test_disjoint_trees_match_only_leaf(self):
        t0 = parse_tree(FIG3_TREE)
        t1 = parse_tree("(()()()()())")
        ann = annotated_for([t0, t1], UNORDERED)
        m = ann.matching(0, 1)
        assert len(m) == 1 and ann.dag.height(int(m[0])) == 0

    def test_duplicates_match_fully(self):
        t = parse_tree(FIG3_TREE)
        ann = annotated_for([t, t], UNORDERED)
        np.testing.assert_array_equal(ann.matching(0, 1), ann.matching(0, 0))

    def test_symmetry_and_bound(self):
        rng = random.Random(28)
        trees = [random_tree(rng, rng.randint(1, 20)) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        for i in range(6):
            for j in range(6):
                m = ann.matching(i, j)
                np.testing.assert_array_equal(m, ann.matching(j, i))
                assert len(m) <= min(ann.subdag_size(i), ann.subdag_size(j))
                inter = set(ann.member_vertices(i)) & set(ann.member_vertices(j))
                assert set(m.tolist()) == inter

    def test_out_of_range(self):
        ann = annotated_for([Tree.leaf()], UNORDERED)
        with pytest.raises(IndexError):
            ann.matching(0, 1)


class TestMemberRange:
    """Every member query rejects an index outside 0 .. n_members - 1; a
    negative index must not wrap to the last members."""

    QUERIES = {
        "subdag_size": lambda ann, i: ann.subdag_size(i),
        "frequency": lambda ann, i: ann.frequency(0, i),
        "member_vertices": lambda ann, i: ann.member_vertices(i),
        "matching": lambda ann, i: ann.matching(0, i),
        "frequencies_on": lambda ann, i: ann.frequencies_on(i, np.array([0])),
        "occurrences": lambda ann, i: ann.occurrences([0, i]),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("index", [-1, -2, 2])
    def test_out_of_range_raises(self, query, index):
        ann = annotated_for([parse_tree(FIG3_TREE), Tree.leaf()], UNORDERED)
        with pytest.raises(IndexError):
            self.QUERIES[query](ann, index)


class TestAdoption:
    def test_rows_are_the_forest_rows(self):
        # The annotation adopts the count rows of the forest DAG as they are.
        dag = reduce_forest([parse_tree(FIG3_TREE), parse_tree(FIG5_T2)], UNORDERED)
        ann = AnnotatedDag(dag)
        for i, (ids, counts) in enumerate(dag.member_counts):
            assert ann.member_vertices(i) is ids
            np.testing.assert_array_equal(ann.frequencies_on(i, ids), counts)
            assert not ids.flags.writeable and not counts.flags.writeable
