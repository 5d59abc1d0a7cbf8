import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagkernel import (
    AnnotatedDag,
    ClassProfile,
    ShapingFn,
    Tree,
    class_profile,
    discriminance_weights,
    exponential_weights,
    export_weight_table,
    parse_tree,
    reduce_forest,
    smoothstep,
    subtree_signatures,
    weight_distribution_by_height,
)

from conftest import FIG3_TREE, MODES, UNORDERED, canonical_signature, expand, random_tree


class TestExponential:
    def test_leaf_weight_is_one(self):
        d = reduce_forest([parse_tree(FIG3_TREE)], UNORDERED)
        for lam in (0.0, 0.3, 1.0):
            w = exponential_weights(d, lam)
            assert w[0] == 1.0  # height-0 vertex

    def test_lambda_zero_keeps_leaves_only(self):
        d = reduce_forest([parse_tree(FIG3_TREE)], UNORDERED)
        w = exponential_weights(d, 0.0)
        assert w[0] == 1.0
        assert all(w[v] == 0.0 for v in range(len(d)) if d.height(v) > 0)

    def test_direct_powers(self):
        d = reduce_forest([parse_tree(FIG3_TREE)], UNORDERED)
        w = exponential_weights(d, 0.5)
        for v in range(len(d)):
            assert w[v] == 0.5 ** d.height(v)

    def test_multiplicative_along_height(self):
        d = reduce_forest([parse_tree(FIG3_TREE)], UNORDERED)
        w = exponential_weights(d, 0.7)
        by_height = {d.height(v): w[v] for v in range(len(d))}
        for h in range(1, d.height() + 1):
            assert by_height[h] == pytest.approx(0.7 * by_height[h - 1])

    def test_out_of_range(self):
        d = reduce_forest([Tree.leaf()], UNORDERED)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                exponential_weights(d, bad)


def delta(rho):
    """The corner distance of one profile row, as a one-row ClassProfile
    computes it."""
    return float(ClassProfile(np.array([rho], dtype=np.float64)).dist[0])


class TestDelta:
    def test_at_corner(self):
        for k in range(3):
            rho = [0.0] * 3
            rho[k] = 1.0
            assert delta(rho) == 0.0

    def test_all_ones_two_classes(self):
        assert delta([1.0, 1.0]) == 1.0

    def test_half_half(self):
        assert delta([0.5, 0.5]) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_all_zero_two_classes(self):
        assert delta([0.0, 0.0]) == 1.0

    def test_can_exceed_one(self):
        # Hypercube center: every corner is sqrt(K)/2 away.
        assert delta([0.5] * 5) == pytest.approx(math.sqrt(5) / 2)
        assert delta([0.5] * 5) > 1.0

    def test_permutation_invariance(self):
        rng = random.Random(31)
        for _ in range(200):
            k = rng.randint(2, 5)
            rho = [rng.random() for _ in range(k)]
            perm = list(range(k))
            rng.shuffle(perm)
            assert delta([rho[p] for p in perm]) == pytest.approx(delta(rho), abs=1e-12)

    def test_matches_explicit_enumeration(self):
        rng = random.Random(32)
        for _ in range(100):
            k = rng.randint(2, 4)
            rho = np.array([rng.random() for _ in range(k)])
            cands = []
            for j in range(k):
                e = np.zeros(k)
                e[j] = 1.0
                cands.append(np.linalg.norm(rho - e))
                cands.append(np.linalg.norm(rho - (1.0 - e)))
            assert delta(rho) == pytest.approx(min(cands), abs=1e-12)

    def test_profile_is_a_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            ClassProfile(np.array([0.5, 0.5]))

    def test_equality_is_identity(self):
        profile = ClassProfile(np.eye(2))
        assert profile == profile
        assert profile != ClassProfile(np.eye(2))


class TestShaping:
    def test_smoothstep_values(self):
        assert smoothstep(1.0) == 1.0
        assert smoothstep(0.5) == 0.5
        assert smoothstep(-0.2) == 0.0

    def test_kinds(self):
        np.testing.assert_array_equal(ShapingFn("identity").apply([0.25]), [0.25])
        assert ShapingFn("smoothstep").apply([0.25]) == pytest.approx([3 * 0.0625 - 2 * 0.015625])
        assert ShapingFn("smoothstep2").apply([0.5]) == pytest.approx([smoothstep(0.5)])
        thr = ShapingFn("threshold", eps=0.3)
        np.testing.assert_array_equal(thr.apply([0.3, 0.31, 1.0]), [0.0, 1.0, 1.0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ShapingFn("smoothstep").apply([1.1])
        with pytest.raises(ValueError):
            ShapingFn("nope")

    def test_only_threshold_takes_eps(self):
        # A kind that reads no eps refuses one, so shapings that shape alike
        # are equal.
        assert ShapingFn("threshold").eps == 0.3
        assert ShapingFn("smoothstep") == ShapingFn("smoothstep", None)
        for kind in ("identity", "smoothstep", "smoothstep2"):
            with pytest.raises(ValueError, match=f"{kind} shaping takes no eps"):
                ShapingFn(kind, 0.2)

    def test_endpoint_contract(self):
        for fn in (
            ShapingFn("identity"),
            ShapingFn("smoothstep"),
            ShapingFn("smoothstep2"),
            ShapingFn("threshold", eps=0.3),
        ):
            # Up to rounding, 1 is still in the domain and maps to 1.
            np.testing.assert_array_equal(fn.apply([1.0, 1.0 + 1e-13, 0.0, -3.0]),
                                          [1.0, 1.0, 0.0, 0.0])

    def test_monotone(self):
        xs = np.linspace(-1.0, 1.0, 101)
        for kind in ("identity", "smoothstep", "smoothstep2", "threshold"):
            ys = ShapingFn(kind).apply(xs)
            assert np.all(np.diff(ys) >= -1e-15)


def two_class_dataset(rng, n_per_class=6):
    trees, classes = [], []
    for cls in (0, 1):
        base = random_tree(rng, 12, "ab")
        for _ in range(n_per_class):
            trees.append(base)
            classes.append(cls)
    return trees, classes


class TestClassProfile:
    def make(self, trees, mode=UNORDERED):
        return AnnotatedDag(reduce_forest(trees, mode))

    def test_leaf_profile_all_ones(self):
        rng = random.Random(33)
        trees = [random_tree(rng, rng.randint(2, 12)) for _ in range(6)]
        ann = self.make(trees)
        classes = [0, 0, 0, 1, 1, 1]
        profile = class_profile(ann, classes, range(6), 2)
        (leaf_v,) = [v for v in range(len(ann.dag)) if ann.dag.height(v) == 0]
        np.testing.assert_array_equal(profile.rho[leaf_v], [1.0, 1.0])
        assert profile.dist[leaf_v] == 1.0

    @pytest.mark.parametrize("mode", MODES, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_origin_set_definition(self, mode, data):
        # rho[v, k]: the share of distinct class-k weight-training members
        # whose tree has a subtree isomorphic to expand(v).  The forest has a
        # duplicate tree and two single-vertex trees; the training list may
        # repeat members.
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        labels = "ab" if mode.labeled else None
        trees = [random_tree(rng, rng.randint(1, 14), labels)
                 for _ in range(data.draw(st.integers(1, 6), label="n"))]
        leaf = Tree.leaf("a" if mode.labeled else None)
        trees += [trees[0], leaf, leaf]
        n_classes = data.draw(st.integers(2, 3), label="n_classes")
        classes = [i % n_classes for i in range(len(trees))]
        extra = data.draw(st.lists(st.integers(0, len(trees) - 1), max_size=8), label="train")
        train = list(range(n_classes)) + extra
        ann = self.make(trees, mode)
        profile = class_profile(ann, classes, train, n_classes)
        members = set(train)
        sizes = [sum(1 for i in members if classes[i] == k) for k in range(n_classes)]
        tree_sigs = [set(subtree_signatures(t, mode)) for t in trees]
        expected = np.zeros((len(ann.dag), n_classes))
        for v in range(ann.dag.root):  # the artificial root is the last id
            sig = canonical_signature(expand(ann.dag, v), mode)
            for k in range(n_classes):
                held = sum(1 for i in members if classes[i] == k and sig in tree_sigs[i])
                expected[v, k] = held / sizes[k]
        np.testing.assert_array_equal(profile.rho, expected)
        assert profile.n_classes == n_classes

    def test_unseen_vertex_zero_profile(self):
        rng = random.Random(34)
        trees = [random_tree(rng, rng.randint(2, 12)) for _ in range(6)]
        ann = self.make(trees)
        classes = [0, 0, 0, 1, 1, 1]
        profile = class_profile(ann, classes, [0, 3], 2)  # members 1,2,4,5 unseen
        sig = canonical_signature(trees[1], UNORDERED)
        if all(sig not in subtree_signatures(trees[i], UNORDERED) for i in (0, 3)):
            v = ann.dag.member_roots[1]
            np.testing.assert_array_equal(profile.rho[v], [0.0, 0.0])

    def test_pure_vertex(self):
        t0 = parse_tree(FIG3_TREE)
        t1 = parse_tree("(()()()()())")
        ann = self.make([t0, t1])
        profile = class_profile(ann, [0, 1], [0, 1], 2)
        r0 = ann.dag.member_roots[0]
        np.testing.assert_array_equal(profile.rho[r0], [1.0, 0.0])
        assert profile.dist[r0] == 0.0

    def test_empty_class_rejected(self):
        rng = random.Random(35)
        trees = [random_tree(rng, 8) for _ in range(4)]
        ann = self.make(trees)
        with pytest.raises(ValueError, match=r"without weight-training members: \[1\]"):
            class_profile(ann, [0, 0, 1, 1], [0, 1], 2)
        # A class id is checked against the class count it is given.
        with pytest.raises(ValueError, match="class id 2 out of range"):
            class_profile(ann, [0, 1, 2, 2], [0, 1, 2], 2)

    def test_negative_member_rejected(self):
        # A negative index must not wrap to the last member of the forest.
        ann = self.make([parse_tree(FIG3_TREE), Tree.leaf()])
        with pytest.raises(IndexError):
            class_profile(ann, [0, 0], [-1], 1)
        with pytest.raises(IndexError):
            class_profile(ann, [0, 1], [0, -1], 2)

    def test_bool_member_rejected(self):
        # A mask is not a list of weight-training members.
        ann = self.make([parse_tree(FIG3_TREE), Tree.leaf(), Tree.leaf()])
        with pytest.raises(TypeError, match="not bool"):
            class_profile(ann, [0, 1, 1], [True, False, True], 2)

    @pytest.mark.parametrize("train", [[0, 1, True], [0, True, 1]], ids=["after", "before"])
    def test_bool_beside_member_1_rejected(self, train):
        # True equals member 1, but is refused whether it comes after 1 or before.
        ann = self.make([parse_tree(FIG3_TREE), Tree.leaf(), Tree.leaf()])
        with pytest.raises(TypeError, match="not bool"):
            class_profile(ann, [0, 1, 1], train, 2)

    def test_missing_class_rejected(self):
        rng = random.Random(36)
        trees = [random_tree(rng, 8) for _ in range(3)]
        ann = self.make(trees)
        with pytest.raises(ValueError):
            class_profile(ann, [0, None, 1], [0, 1, 2], 2)


class TestDiscriminance:
    def make_profile(self, rng):
        trees, classes = two_class_dataset(rng)
        ann = AnnotatedDag(reduce_forest(trees, UNORDERED))
        return ann, class_profile(ann, classes, range(len(trees)), 2)

    def test_leaf_weight_zero(self):
        ann, profile = self.make_profile(random.Random(37))
        w = discriminance_weights(profile, ShapingFn("smoothstep"))
        for v in range(len(ann.dag)):
            if ann.dag.height(v) == 0:
                assert w[v] == 0.0

    def test_pure_vertex_weight_one(self):
        ann, profile = self.make_profile(random.Random(38))
        w = discriminance_weights(profile, ShapingFn("smoothstep"))
        pure = np.where(profile.dist == 0.0)[0]
        assert len(pure) > 0
        assert np.all(w[pure] == 1.0)

    def test_bounded(self):
        ann, profile = self.make_profile(random.Random(39))
        for kind in ("identity", "smoothstep", "smoothstep2", "threshold"):
            w = discriminance_weights(profile, ShapingFn(kind))
            assert np.all((0.0 <= w) & (w <= 1.0))

    def test_monotone_in_distance(self):
        ann, profile = self.make_profile(random.Random(40))
        w = discriminance_weights(profile, ShapingFn("smoothstep"))
        order = np.argsort(profile.dist)
        assert np.all(np.diff(w[order]) <= 1e-15)

    def test_nearest_corner_tie_rule(self):
        profile = ClassProfile(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 1.0]]))
        assert profile.nearest_corner(0) == (0, True)
        # With two classes e_1 coincides with the complement corner of class
        # 0; the documented rule prefers the presence reading.
        assert profile.nearest_corner(1) == (1, True)
        # (0.5, 0.5) and (1, 1) tie all corners: presence of class 0.
        assert profile.nearest_corner(2) == (0, True)
        assert profile.nearest_corner(3) == (0, True)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_nearest_corner_matches_exact_arithmetic(self, k):
        # Profiles are class fractions; exact ties such as (0.2, 0.2) can come
        # out unequal in floating point and must still follow the tie rule.
        # The distance to the nearest corner agrees with exact arithmetic.
        rng = random.Random(43 + k)
        rows = [[Fraction(rng.randint(0, d), d) for _ in range(k)]
                for d in (4, 6, 7, 10) for _ in range(100)]
        profile = ClassProfile(np.array(rows, dtype=np.float64))
        assert profile.n_classes == k
        for v, row in enumerate(rows):
            corners = [[int(j == c) for j in range(k)] for c in range(k)]
            corners += [[1 - x for x in corner] for corner in corners]
            sq = [sum((a - b) ** 2 for a, b in zip(row, corner)) for corner in corners]
            i = sq.index(min(sq))
            assert profile.nearest_corner(v) == (i % k, i < k)
            assert abs(profile.dist[v] ** 2 - float(min(sq))) <= 1e-12


class TestExports:
    def test_weight_table_csv(self):
        rng = random.Random(41)
        trees = [random_tree(rng, 10) for _ in range(4)]
        ann = AnnotatedDag(reduce_forest(trees, UNORDERED))
        profile = class_profile(ann, [0, 0, 1, 1], range(4), 2)
        w = discriminance_weights(profile, ShapingFn("smoothstep"))
        buf = io.StringIO()
        export_weight_table(ann.dag, profile, w, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "vertex_id,height,delta,weight"
        assert len(lines) == len(ann.dag)  # header + all but artificial root

    def test_histogram_rows(self):
        rng = random.Random(42)
        trees = [random_tree(rng, 10) for _ in range(4)]
        ann = AnnotatedDag(reduce_forest(trees, UNORDERED))
        profile = class_profile(ann, [0, 0, 1, 1], range(4), 2)
        w = discriminance_weights(profile, ShapingFn("smoothstep"))
        rows = weight_distribution_by_height(ann.dag, w)
        assert rows[0]["height"] == 0
        assert rows[0]["max"] == 0.0  # leaves occur in both classes
        heights = [r["height"] for r in rows]
        assert heights == sorted(set(heights))
        # The mean column must match an independent recomputation.
        for row in rows:
            vals = [
                float(w[v])
                for v in range(len(ann.dag))
                if v != ann.dag.root and ann.dag.height(v) == row["height"]
            ]
            assert row["mean"] == pytest.approx(sum(vals) / len(vals))

    def test_single_height_dag(self):
        ann = AnnotatedDag(reduce_forest([Tree.leaf(), Tree.leaf()], UNORDERED))
        rows = weight_distribution_by_height(ann.dag, np.ones(len(ann.dag)))
        assert len(rows) == 1
