import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagkernel import (AnnotatedDag, Dag, GramComputer, Tree, TreeMode, class_profile,
                       exponential_weights, format_dag, parse_tree, reduce_forest, serialize_tree,
                       subtree_signatures)

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


class TestRepeatedMembers:
    """A member that is an earlier member's object is named once; the Dag is
    that of fresh copies, which are named one by one."""

    @settings(max_examples=60, deadline=None)
    @given(case=forests())
    def test_repeated_objects_give_the_dag_of_fresh_copies(self, case):
        mode, trees = case
        shared = reduce_forest(trees, mode)
        fresh = reduce_forest([parse_tree(serialize_tree(t), mode) for t in trees], mode)
        assert shared.heights().tolist() == fresh.heights().tolist()
        assert [shared.label(v) for v in range(len(shared))] == (
            [fresh.label(v) for v in range(len(fresh))])
        assert [shared.edges(v) for v in range(len(shared))] == (
            [fresh.edges(v) for v in range(len(fresh))])
        for a, b in zip(shared.member_counts, fresh.member_counts):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert shared.member_roots == fresh.member_roots
        assert shared.n_members == fresh.n_members == len(trees)
        members = range(len(trees))
        grams = [GramComputer(AnnotatedDag(d), exponential_weights(d, 0.5)).gram(members, members)
                 for d in (shared, fresh)]
        assert grams[0].tobytes() == grams[1].tobytes()

    @pytest.mark.parametrize("mode", [ORDERED, UNORDERED], ids=str)
    def test_first_and_last_member_repeat(self, mode):
        # Leaf 0, b's root 1 and a's root 2, then the artificial root 3.
        a, b = parse_tree("((())())"), parse_tree("(())")
        d = reduce_forest([a, b, b, a], mode)
        assert len(d) == 4 and d.member_roots == (2, 1, 1, 2)
        if mode.ordered:  # one edge per member, in member order
            assert d.edges(3) == ((2, 1), (1, 1), (1, 1), (2, 1))
        else:  # the multiplicity counts the copies
            assert d.edges(3) == ((1, 2), (2, 2))
        row_offsets, ids, counts = d.member_counts
        rows = [(ids[i:j].tolist(), counts[i:j].tolist())
                for i, j in zip(row_offsets[:-1], row_offsets[1:])]
        assert rows == [([0, 1, 2], [2.0, 1.0, 1.0]), ([0, 1], [1.0, 1.0]),
                        ([0, 1], [1.0, 1.0]), ([0, 1, 2], [2.0, 1.0, 1.0])]


def dag_signatures(dag, mode):
    """The signature of every DAG vertex but the artificial root, built from
    its label and edges in the format of `subtree_signatures`."""
    sigs = []
    for v in range(dag.root):
        parts = [sigs[c] for c, mult in dag.edges(v) for _ in range(mult)]
        if not mode.ordered:
            parts.sort()
        sigs.append((dag.label(v) or "") + "(" + "".join(parts) + ")")
    return sigs


def assert_matches_signatures(trees, mode):
    """One DAG vertex per subtree class, and every count row holds the
    signatures of its member's subtrees with their counts."""
    dag = reduce_forest(trees, mode)
    sigs = dag_signatures(dag, mode)
    tree_sigs = [subtree_signatures(t, mode) for t in trees]
    assert len(sigs) == len(set(sigs)) == len(set().union(*tree_sigs))
    row_offsets, ids, counts = dag.member_counts
    for expected, a, b in zip(tree_sigs, row_offsets[:-1].tolist(), row_offsets[1:].tolist()):
        row = {sigs[v]: c for v, c in zip(ids[a:b].tolist(), counts[a:b].tolist())}
        assert row == Counter(expected)


class TestLargeForest:
    """Forests whose index products pass 2**31: compression keeps its
    indices in int32, and each product must be formed in int64."""

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_squared_size_past_int32(self, mode):
        # 34,000 two-vertex members come first, so the random trees' nodes
        # are past 68,000 and node x n passes 2**31, and so does level
        # position x bound at height 1.  Labeled, each member has two classes
        # of its own, and member x class passes 2**31 too.
        rng = random.Random(29)
        alphabet = "ab" if mode.labeled else None
        trees = [Tree([None, 0], [f"x{i}", f"y{i}"] if mode.labeled else None)
                 for i in range(34_000)]
        trees += [random_tree(rng, rng.randint(1, 30), alphabet) for _ in range(300)]
        assert sum(map(len, trees)) > 46_341
        assert_matches_signatures(trees, mode)

    def test_label_times_degree_past_int32(self):
        # Labels are numbered in preorder: s = 0, c0 .. c65534 = 1 .. 65535,
        # z = 65536.  Height 1 holds the star (degree 65535) and two vertices
        # of degree 1 above c0, so z's key 65536 x 65536 + 1 equals s's key
        # 0 x 65536 + 1 modulo 2**32.
        star = Tree([None] + [0] * 65_535, ["s"] + [f"c{i}" for i in range(65_535)])
        trees = [star, Tree([None, 0], ["z", "c0"]), Tree([None, 0], ["s", "c0"])]
        assert_matches_signatures(trees, TreeMode(ordered=False, labeled=True))

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_wide_vertices_that_differ_in_the_last_child(self, mode):
        # Two stars of 40 children at height 2, equal but for the last child:
        # naming them must pair every column, and must not stop while two of
        # them are left.  The last children (degrees 1 and 2) leave one
        # vertex with a second column, whose key is already its own.  The
        # repeated member is the same object, so it is named once.
        label = "a" if mode.labeled else None
        leaf = Tree.leaf(label)
        a = Tree.node([leaf] * 39 + [Tree.node([leaf], label)], label)
        b = Tree.node([leaf] * 39 + [Tree.node([leaf, leaf], label)], label)
        assert_matches_signatures([a, b, a], mode)


def small_dag():
    """Leaf 0, vertex 1 with the leaf twice below it, and the artificial root
    2 above the one member, whose count row is {0: 2, 1: 1}."""
    return reduce_forest([parse_tree("(()())")], UNORDERED)


class TestValidation:
    def test_valid_parts(self):
        d = small_dag()
        assert d.member_roots == (1,) and d.edges(1) == ((0, 2),)
        assert repr(d) == "Dag(unordered+unlabeled, 1 members, 3 vertices, height 2)"

    def test_root_and_heights_come_from_the_stored_arrays(self):
        d = small_dag()
        assert d.root == len(d) - 1 == 2
        heights = d.heights()
        assert heights.dtype == np.int64 and heights.tolist() == [0, 1, 2]
        assert not heights.flags.writeable

    @pytest.mark.parametrize("leaves", [0, 2**15], ids=["int64-inside", "int32-inside"])
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_stored_dtypes(self, mode, leaves):
        # Compression works in int32 past 2**15 tree vertices; either way the
        # Dag stores int64 arrays (counts float64), all read-only.
        rng = random.Random(31)
        trees = random_forest(rng, 6, 30, "ab" if mode.labeled else None)
        trees += [Tree.leaf("a" if mode.labeled else None) for _ in range(leaves)]
        d = reduce_forest(trees + trees[:2], mode)
        row_offsets, ids, counts = d.member_counts
        arrays = {"heights": d.heights(), "offsets": d._offsets, "kids": d._kids,
                  "mults": d._mults, "row_offsets": row_offsets, "ids": ids, "counts": counts}
        assert {name: a.dtype for name, a in arrays.items()} == dict(
            dict.fromkeys(arrays, np.dtype(np.int64)), counts=np.dtype(np.float64))
        assert not any(a.flags.writeable for a in arrays.values())

    class Sized:
        """A stand-in member that has only a vertex count."""

        def __init__(self, n):
            self.n = n

        def __len__(self):
            return self.n

    @pytest.mark.parametrize("sizes", [[2**31], [2**30, 2**30], [5, 2**31 - 5]])
    def test_vertex_limit(self, sizes):
        # Refused from the tree sizes alone, before any per-vertex array.
        with pytest.raises(ValueError, match=r"at most 2\*\*31 - 1 tree vertices"):
            reduce_forest([self.Sized(n) for n in sizes], UNORDERED)

    def test_no_public_constructor(self):
        # Only reduce_forest builds a Dag; the hand-built arrays are refused.
        with pytest.raises(TypeError):
            Dag(UNORDERED, [0, 1, 2], [None] * 3, ([0, 0, 1, 2], [0, 1], [2, 1]),
                ([0, 2], [0, 1], [2.0, 1.0]))

    QUERIES = {
        "edges": lambda dag, v: dag.edges(v),
        "label": lambda dag, v: dag.label(v),
        "height": lambda dag, v: dag.height(v),
        "nearest_corner": lambda dag, v: class_profile(
            AnnotatedDag(dag), [0], [0], 1).nearest_corner(v),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("index", [-1, -2, 3])  # the DAG has 3 vertices
    def test_vertex_out_of_range_raises(self, query, index):
        # A negative id must not wrap to the last vertices.
        with pytest.raises(IndexError, match="vertex id out of range"):
            self.QUERIES[query](small_dag(), index)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("index", [True, False, 1.0, np.float64(1.0), "1"], ids=repr)
    def test_non_integer_vertex_raises(self, query, index):
        # True must not read as vertex 1, nor 1.0 reach a NumPy index.
        with pytest.raises(TypeError, match="not bool" if isinstance(index, bool) else None):
            self.QUERIES[query](small_dag(), index)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_numpy_integer_vertex_accepted(self, query):
        dag = small_dag()
        assert self.QUERIES[query](dag, np.int32(1)) == self.QUERIES[query](dag, 1)


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
