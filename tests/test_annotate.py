import random

import numpy as np
import pytest

from dagkernel import (
    AnnotatedDag,
    Tree,
    canonical_signature,
    expand,
    parse_tree,
    random_tree,
    reduce_forest,
    subtree_signatures,
)

from conftest import FIG3_TREE, FIG5_T2, MODES, ORDERED, UNORDERED, count_occurrences


def annotated_for(trees, mode):
    return AnnotatedDag(reduce_forest(trees, mode))


# Readers of one member's count row, all through ``occurrences``.


def member_vertices(ann, i):
    """Increasing vertex ids of member ``i``'s count row."""
    return ann.occurrences([i])[1]


def frequencies_on(ann, i, vertices):
    """Member ``i``'s counts on ``vertices``, 0 where its row has none."""
    _, ids, counts = ann.occurrences([i])
    row = dict(zip(ids.tolist(), counts.tolist()))
    return np.array([row.get(int(v), 0) for v in vertices])


def frequency(ann, v, i):
    """Occurrences of the subtree of vertex ``v`` inside tree ``i``."""
    return frequencies_on(ann, i, [v])[0]


def matching(ann, i, j):
    """Increasing vertex ids held by both members ``i`` and ``j``."""
    return np.intersect1d(member_vertices(ann, i), member_vertices(ann, j))


def holders(ann, v):
    """Members whose count row holds vertex ``v``."""
    return frozenset(i for i in range(ann.n_members) if v in member_vertices(ann, i))


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


class TestFrequencies:
    def test_leaf_frequency_is_leaf_count(self):
        rng = random.Random(23)
        trees = [random_tree(rng, rng.randint(1, 15)) for _ in range(5)]
        ann = annotated_for(trees, UNORDERED)
        (leaf_v,) = [v for v in range(len(ann.dag)) if ann.dag.height(v) == 0]
        for i, t in enumerate(trees):
            assert frequency(ann, leaf_v, i) == len(t.leaves())

    def test_root_children_frequency_one(self):
        trees = [parse_tree(FIG3_TREE), parse_tree(FIG5_T2)]
        ann = annotated_for(trees, UNORDERED)
        for i, r in enumerate(ann.dag.member_roots):
            assert frequency(ann, r, i) == 1

    def test_complete_binary_counts(self):
        t = Tree.node([Tree.node([Tree.leaf()] * 2)] * 2)
        t = Tree.node([t, t])  # complete binary of height 3
        ann = annotated_for([t], UNORDERED)
        by_height = {ann.dag.height(v): v for v in range(len(ann.dag) - 1)}
        assert frequency(ann, by_height[1], 0) == 4
        assert frequency(ann, by_height[2], 0) == 2

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
                    assert frequency(ann, v, i) == count_occurrences(pattern, t, mode)

    def test_positive_iff_in_origin(self):
        rng = random.Random(25)
        trees = [random_tree(rng, rng.randint(1, 15)) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        for v in range(len(ann.dag)):
            if v == ann.dag.root:
                continue
            held = signature_holders(ann, trees, UNORDERED, v)
            for i in range(6):
                assert (frequency(ann, v, i) > 0) == (i in held)

    def test_total_count_is_tree_size(self):
        # Every vertex of T_i roots exactly one subtree, so per-member counts
        # over its DAG vertices add up to the tree size.
        rng = random.Random(26)
        for mode in (UNORDERED, ORDERED):
            trees = [random_tree(rng, rng.randint(1, 20)) for _ in range(5)]
            ann = annotated_for(trees, mode)
            for i, t in enumerate(trees):
                vs = member_vertices(ann, i)
                assert sum(frequency(ann, v, i) for v in vs) == len(t)

    def test_ordered_repeated_edges_count_separately(self):
        # A parent with two ordered edges to the same child doubles the count.
        t = parse_tree("((())(()))")
        ann = annotated_for([t], ORDERED)
        (chain2,) = [v for v in range(len(ann.dag)) if ann.dag.height(v) == 1]
        assert frequency(ann, chain2, 0) == 2


class TestMatching:
    """Which subtree classes two members share, read from their count rows."""

    def test_self_matching_is_member_subdag(self):
        # A repeated member repeats its whole row.
        rng = random.Random(27)
        trees = [random_tree(rng, rng.randint(1, 15)) for _ in range(4)]
        ann = annotated_for(trees, UNORDERED)
        for i in range(4):
            rows, ids, counts = ann.occurrences([i, i])
            size = ann.subdag_size(i)
            np.testing.assert_array_equal(rows, [0] * size + [1] * size)
            np.testing.assert_array_equal(ids[:size], ids[size:])
            np.testing.assert_array_equal(counts[:size], counts[size:])
            np.testing.assert_array_equal(matching(ann, i, i), ids[:size])

    def test_disjoint_trees_match_only_leaf(self):
        t0 = parse_tree(FIG3_TREE)
        t1 = parse_tree("(()()()()())")
        ann = annotated_for([t0, t1], UNORDERED)
        m = matching(ann, 0, 1)
        assert len(m) == 1 and ann.dag.height(int(m[0])) == 0

    def test_duplicates_match_fully(self):
        t = parse_tree(FIG3_TREE)
        ann = annotated_for([t, t], UNORDERED)
        _, ids, counts = ann.occurrences([0, 1])
        size = ann.subdag_size(0)
        np.testing.assert_array_equal(ids[:size], ids[size:])
        np.testing.assert_array_equal(counts[:size], counts[size:])

    def test_symmetry_and_bound(self):
        # Members i and j share one vertex per subtree class of both trees.
        rng = random.Random(28)
        trees = [random_tree(rng, rng.randint(1, 20)) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        sigs = [set(subtree_signatures(t, UNORDERED)) for t in trees]
        for i in range(6):
            for j in range(6):
                m = matching(ann, i, j)
                assert len(m) == len(sigs[i] & sigs[j])
                assert len(m) <= min(ann.subdag_size(i), ann.subdag_size(j))

    def test_out_of_range(self):
        ann = annotated_for([Tree.leaf()], UNORDERED)
        with pytest.raises(IndexError):
            ann.occurrences([0, 1])


class TestMemberRange:
    """Both member queries, and the row readers above built on them, reject
    an index outside 0 .. n_members - 1; a negative index must not wrap to
    the last members."""

    QUERIES = {
        "subdag_size": lambda ann, i: ann.subdag_size(i),
        "frequency": lambda ann, i: frequency(ann, 0, i),
        "member_vertices": lambda ann, i: member_vertices(ann, i),
        "matching": lambda ann, i: matching(ann, 0, i),
        "frequencies_on": lambda ann, i: frequencies_on(ann, i, [0]),
        "occurrences": lambda ann, i: ann.occurrences([0, i]),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("index", [-1, -2, 2])
    def test_out_of_range_raises(self, query, index):
        ann = annotated_for([parse_tree(FIG3_TREE), Tree.leaf()], UNORDERED)
        with pytest.raises(IndexError):
            self.QUERIES[query](ann, index)

    def test_non_integer_index_raises(self):
        # Casting the indices to an integer array would truncate 1.5 to 1.
        ann = annotated_for([parse_tree(FIG3_TREE), Tree.leaf()], UNORDERED)
        with pytest.raises(TypeError):
            ann.subdag_size(1.5)
        with pytest.raises(TypeError):
            ann.occurrences([0, 1.5])


class TestAdoption:
    def test_rows_are_the_forest_rows(self):
        # The annotation adopts the count matrix of the forest DAG as it is.
        dag = reduce_forest([parse_tree(FIG3_TREE), parse_tree(FIG5_T2)], UNORDERED)
        ann = AnnotatedDag(dag)
        row_offsets, ids, counts = dag.member_counts
        assert ann._row_offsets is row_offsets and ann._ids is ids and ann._counts is counts
        assert not any(a.flags.writeable for a in dag.member_counts)
        rows, got_ids, got_counts = ann.occurrences(range(ann.n_members))
        np.testing.assert_array_equal(np.bincount(rows), np.diff(row_offsets))
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_array_equal(got_counts, counts)
