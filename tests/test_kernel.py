import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagkernel import (
    AnnotatedDag,
    GramComputer,
    Tree,
    exponential_weights,
    export_gram_csv,
    gram,
    kernel_brute,
    parse_tree,
    reduce_forest,
    subtree_signatures,
)
from dagkernel import kernel
from dagkernel.kernel import min_eig_and_norm

from conftest import (
    FIG1_T0,
    FIG1_T1,
    MODES,
    ORDERED,
    UNORDERED,
    all_ordered_shapes,
    canonical_signature,
    expand,
    random_tree,
)


def unit_w(tree):
    return 1


def lam_w(lam):
    return lambda tree: lam ** tree.height()


def annotated_for(trees, mode):
    return AnnotatedDag(reduce_forest(trees, mode))


class TestBrute:
    def test_two_leaves(self):
        assert kernel_brute(Tree.leaf(), Tree.leaf(), UNORDERED, lambda t: 0.25) == 0.25

    def test_figure_pair_only_shares_leaves(self):
        t0, t1 = parse_tree(FIG1_T0), parse_tree(FIG1_T1)
        for w_leaf in (1, 2):
            def weight(t, w=w_leaf):
                return w if len(t) == 1 else 3
            assert kernel_brute(t0, t1, UNORDERED, weight) == w_leaf * 36

    def test_self_kernel_is_sum_of_squares(self):
        rng = random.Random(51)
        for _ in range(25):
            t = random_tree(rng, rng.randint(1, 12))
            sigs = subtree_signatures(t, UNORDERED)
            expected = sum(
                list(sigs).count(s) ** 2 for s in set(sigs)
            )
            assert kernel_brute(t, t, UNORDERED, unit_w) == expected

    def test_exact_fractions(self):
        # Classes of ((())()) and their counts: root 1, 2-chain 1, leaf 2.
        t = parse_tree("((())())")
        value = kernel_brute(t, t, UNORDERED, lambda u: Fraction(1, 3))
        assert value == Fraction(1, 3) * (1 + 1 + 4)


class TestDagEqualsBrute:
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_random_forests(self, mode):
        rng = random.Random(52)
        labels = "ab" if mode.labeled else None
        for _ in range(20):
            trees = [
                random_tree(rng, rng.randint(1, 25), labels)
                for _ in range(rng.randint(1, 6))
            ]
            ann = annotated_for(trees, mode)
            lam = rng.choice([0.0, 0.5, 1.0])
            n = len(trees)
            g = gram(ann, exponential_weights(ann.dag, lam), range(n), range(n))
            for i in range(n):
                for j in range(n):
                    expected = kernel_brute(trees[i], trees[j], mode, lam_w(lam))
                    assert g[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_exhaustive_small_shapes_unit_weights(self):
        trees = list(all_ordered_shapes(5))
        n = len(trees)
        for mode in (UNORDERED, ORDERED):
            ann = annotated_for(trees, mode)
            g = gram(ann, np.ones(len(ann.dag)), range(n), range(n))
            for i in range(n):
                for j in range(i, n):
                    assert g[i, j] == kernel_brute(trees[i], trees[j], mode, unit_w)

    def test_self_kernel_matches(self):
        rng = random.Random(53)
        trees = [random_tree(rng, rng.randint(1, 20)) for _ in range(5)]
        ann = annotated_for(trees, UNORDERED)
        w = np.ones(len(ann.dag))
        for i, t in enumerate(trees):
            assert gram(ann, w, [i], [i])[0, 0] == kernel_brute(t, t, UNORDERED, unit_w)

    def test_disjoint_trees_leaf_product(self):
        t0 = parse_tree(FIG1_T0)
        t1 = parse_tree(FIG1_T1)
        ann = annotated_for([t0, t1], UNORDERED)
        w = np.full(len(ann.dag), 2.0)
        assert gram(ann, w, [0], [1])[0, 0] == 2.0 * 36

    def test_duplicates(self):
        t = parse_tree(FIG1_T0)
        ann = annotated_for([t, t], UNORDERED)
        g = gram(ann, np.ones(len(ann.dag)), [0, 1], [0, 1])
        assert g[0, 1] == g[0, 0]

    def test_index_out_of_range(self):
        ann = annotated_for([Tree.leaf()], UNORDERED)
        with pytest.raises(IndexError):
            gram(ann, np.ones(len(ann.dag)), [0], [4])

    def test_bool_indices_raise(self):
        # A mask is not a list of member indices: [True, False, True] must
        # not give the Gram of members 1, 0, 1.
        ann = annotated_for([parse_tree(FIG1_T0), parse_tree(FIG1_T1), Tree.leaf()], UNORDERED)
        w = np.ones(len(ann.dag))
        mask = [True, False, True]
        for rows, cols in ((mask, mask), (mask, [0, 1]), ([0, 1], mask), ([0, True], [0])):
            with pytest.raises(TypeError, match="not bool"):
                gram(ann, w, rows, cols)
        with pytest.raises(TypeError):
            gram(ann, w, np.array(mask), [0])


class TestLeafDecomposition:
    def test_adding_leaf_weight_adds_leaf_product(self):
        rng = random.Random(54)
        for _ in range(30):
            t1 = random_tree(rng, rng.randint(1, 15))
            t2 = random_tree(rng, rng.randint(1, 15))
            w_leaf = Fraction(rng.randint(1, 5), 7)

            def base(t):
                return 0 if len(t) == 1 else 1

            def plus(t, w=w_leaf):
                return w if len(t) == 1 else 1

            k_plus = kernel_brute(t1, t2, UNORDERED, plus)
            k_base = kernel_brute(t1, t2, UNORDERED, base)
            assert k_plus == k_base + w_leaf * len(t1.leaves()) * len(t2.leaves())


class TestGram:
    def test_one_by_one(self):
        t = parse_tree(FIG1_T0)
        ann = annotated_for([t], UNORDERED)
        w = np.ones(len(ann.dag))
        g = gram(ann, w, [0], [0])
        assert g.shape == (1, 1)
        assert g[0, 0] == kernel_brute(t, t, UNORDERED, unit_w)

    def test_identical_pair_constant_matrix(self):
        t = parse_tree(FIG1_T0)
        ann = annotated_for([t, t], UNORDERED)
        g = gram(ann, np.ones(len(ann.dag)), [0, 1], [0, 1])
        assert np.all(g == g[0, 0])

    def test_matches_brute_matrix(self):
        rng = random.Random(55)
        trees = [random_tree(rng, rng.randint(1, 15)) for _ in range(10)]
        ann = annotated_for(trees, UNORDERED)
        from dagkernel import exponential_weights

        w = exponential_weights(ann.dag, 0.5)
        g = gram(ann, w, range(10), range(10))
        for i in range(10):
            for j in range(10):
                assert g[i, j] == pytest.approx(
                    kernel_brute(trees[i], trees[j], UNORDERED, lam_w(0.5)), rel=1e-12
                )

    def test_exact_symmetry(self):
        rng = random.Random(56)
        trees = [random_tree(rng, rng.randint(1, 25)) for _ in range(8)]
        ann = annotated_for(trees, UNORDERED)
        from dagkernel import exponential_weights

        w = exponential_weights(ann.dag, 0.37)
        g = gram(ann, w, range(8), range(8))
        assert np.array_equal(g, g.T)
        for i in range(8):
            for j in range(8):
                assert gram(ann, w, [i], [j])[0, 0] == gram(ann, w, [j], [i])[0, 0]

    def test_psd(self):
        rng = random.Random(57)
        for _ in range(10):
            trees = [random_tree(rng, rng.randint(1, 20)) for _ in range(12)]
            ann = annotated_for(trees, UNORDERED)
            from dagkernel import exponential_weights

            w = exponential_weights(ann.dag, rng.random())
            g = gram(ann, w, range(12), range(12))
            min_eig, norm = min_eig_and_norm(g)
            assert min_eig >= -1e-9 * max(norm, 1e-30)

    def test_rectangular(self):
        rng = random.Random(58)
        trees = [random_tree(rng, 10) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        w = np.ones(len(ann.dag))
        g = gram(ann, w, [0, 1], [2, 3, 4])
        assert g.shape == (2, 3)
        assert g[1, 2] == gram(ann, w, [1], [4])[0, 0]

    def test_export_csv(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        buf = io.StringIO()
        export_gram_csv(g, [7, 8], [1, 2], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",1,2"
        assert lines[1].startswith("7,1.0,2.0")


class TestReweight:
    """One annotation under several weight tables, one computer per table."""

    def test_identical_traversal_counts_across_weights(self):
        rng = random.Random(60)
        trees = [random_tree(rng, 12) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        from dagkernel import exponential_weights

        rows = ann.occurrences(range(6))
        counts = []
        for lam in (0.2, 0.9):
            comp = GramComputer(ann, exponential_weights(ann.dag, lam))
            comp.gram(range(6), range(6))
            counts.append(comp.visited_vertices)
        assert counts[0] == counts[1]
        for before, after in zip(rows, ann.occurrences(range(6))):
            np.testing.assert_array_equal(before, after)  # annotation untouched by kernels

    def test_work_bound(self):
        # One pair visits one vertex per subtree class the two trees share.
        rng = random.Random(61)
        trees = [random_tree(rng, rng.randint(1, 20)) for _ in range(6)]
        ann = annotated_for(trees, UNORDERED)
        sigs = [set(subtree_signatures(t, UNORDERED)) for t in trees]
        comp = GramComputer(ann, np.ones(len(ann.dag)))
        for i in range(6):
            for j in range(6):
                before = comp.visited_vertices
                comp.gram([i], [j])
                visited = comp.visited_vertices - before
                assert visited == len(sigs[i] & sigs[j])
                assert visited <= min(ann.subdag_size(i), ann.subdag_size(j))

    def test_weight_size_mismatch(self):
        ann = annotated_for([Tree.leaf()], UNORDERED)
        with pytest.raises(ValueError):
            GramComputer(ann, np.ones(len(ann.dag) + 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # A NaN on a subtree that member 0 alone holds would spoil only the
        # entry (0, 0) and leave every other entry looking valid.
        ann = annotated_for([parse_tree(FIG1_T0), parse_tree(FIG1_T1)], UNORDERED)
        own = np.setdiff1d(ann.occurrences([0])[1], ann.occurrences([1])[1])
        w = np.ones(len(ann.dag))
        w[own] = bad  # own is sorted: own[0] is the first bad vertex
        with pytest.raises(ValueError, match=f"weight of vertex {own[0]} is not finite"):
            GramComputer(ann, w)
        with pytest.raises(ValueError, match=f"weight of vertex {own[0]} is not finite"):
            gram(ann, w, [0, 1], [0, 1])


def pairwise_reference(ann, trees, mode, w, rows, cols):
    """Per-pair ``kernel_brute`` matrix under the weight table ``w``, and the
    subtree classes shared by the pairs a Gram call evaluates (a <= b only
    when rows and cols coincide)."""
    sig_to_v = {canonical_signature(expand(ann.dag, v), mode): v for v in range(ann.dag.root)}

    def weight(t):
        return w[sig_to_v[canonical_signature(t, mode)]]

    sigs = [set(subtree_signatures(t, mode)) for t in trees]
    square = list(rows) == list(cols)
    out = np.zeros((len(rows), len(cols)))
    shared = 0
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            out[a, b] = kernel_brute(trees[i], trees[j], mode, weight)
            if not square or a <= b:
                shared += len(sigs[i] & sigs[j])
    return out, shared


def forest_with_edge_members(rng, mode, n_trees):
    """Random trees, plus a duplicate of the first and two single-vertex trees."""
    labels = "ab" if mode.labeled else None
    trees = [random_tree(rng, rng.randint(1, 14), labels) for _ in range(n_trees)]
    leaf_label = "a" if mode.labeled else None
    return trees + [trees[0], Tree.leaf(leaf_label), Tree.leaf(leaf_label)]


class TestBlockGram:
    """The block-product Gram path against the per-pair brute-force oracle."""

    def check(self, trees, mode, rows, cols, lam):
        ann = annotated_for(trees, mode)
        # Arbitrary weights make (A * w) @ A.T itself asymmetric in the last bits.
        arbitrary = np.random.default_rng(len(rows) + 31 * len(cols)).random(len(ann.dag))
        weightings = [(np.ones(len(ann.dag)), True), (exponential_weights(ann.dag, lam), False),
                      (arbitrary, False)]
        for w, exact in weightings:
            comp = GramComputer(ann, w)
            got = comp.gram(rows, cols)
            want, shared = pairwise_reference(ann, trees, mode, w, rows, cols)
            assert got.shape == (len(rows), len(cols))
            assert comp.visited_vertices == shared
            if list(rows) == list(cols):
                assert np.array_equal(got, got.T)
            if exact:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", MODES, ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_calls(self, mode, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        trees = forest_with_edge_members(rng, mode, data.draw(st.integers(1, 6), label="n"))
        members = st.lists(st.integers(0, len(trees) - 1), max_size=9)
        rows = data.draw(members, label="rows")
        cols = rows if data.draw(st.booleans(), label="square") else data.draw(members, label="cols")
        self.check(trees, mode, rows, cols, data.draw(st.sampled_from([0.0, 0.37, 0.5, 0.9])))

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_edge_shapes(self, mode):
        trees = forest_with_edge_members(random.Random(62), mode, 4)
        leaf_a, leaf_b = len(trees) - 2, len(trees) - 1
        calls = [
            ([], []),
            ([], [0, 1]),
            ([0, 1], []),
            ([0, 2, 1], [0, 2, 1]),  # square
            ([0, 1, 2], [1, 2, 3]),  # overlapping rectangular
            ([0, 0, 4, 1], [0, 0, 4, 1]),  # repeated index and duplicate tree
            ([0, 0, 4], [4, 0]),
            ([leaf_a, leaf_b, 0], [leaf_a, leaf_b, 0]),  # single-vertex trees
            ([leaf_a], [leaf_b]),
            ([leaf_a], [leaf_a]),
        ]
        for rows, cols in calls:
            self.check(trees, mode, rows, cols, 0.5)

    def test_index_out_of_range(self):
        ann = annotated_for([Tree.leaf()], UNORDERED)
        comp = GramComputer(ann, np.ones(len(ann.dag)))
        for rows, cols in (([0, 1], [0, 1]), ([0], [-1])):
            with pytest.raises(IndexError):
                comp.gram(rows, cols)


class TestProductPaths:
    """Both parts of the Gram product against the per-pair oracle.  A shared
    vertex of non-zero weight goes into the dense block when its holder pairs
    (h_r * h_c) exceed ``_PAIR_BOUND``, and into the pair sums otherwise.  In
    tier-1 forests almost no vertex has more than 64 holder pairs, so the
    bound is forced: 0 leaves every vertex in the dense block, a huge one
    every vertex in the pair sums, and 4 splits them."""

    check = TestBlockGram.check

    @pytest.fixture
    def products(self, monkeypatch):
        """Per Gram call, the mask of light vertices, the dense block width and
        what the pair sums add."""
        seen, widths = [], []
        dense, add_pair_sums = kernel._dense, kernel._add_pair_sums

        def spy_dense(triplets, keep, n_rows):
            widths.append(int(np.count_nonzero(keep)))
            return dense(triplets, keep, n_rows)

        def spy_pairs(out, weights, light, *args, **kwargs):
            added = np.zeros_like(out)
            add_pair_sums(added, weights, light, *args, **kwargs)
            seen.append((light.copy(), widths[-1], added))
            return add_pair_sums(out, weights, light, *args, **kwargs)

        monkeypatch.setattr(kernel, "_dense", spy_dense)
        monkeypatch.setattr(kernel, "_add_pair_sums", spy_pairs)
        return seen

    @pytest.mark.parametrize("bound", [0, 4, 10**9])
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_forced_bound(self, mode, bound, products, monkeypatch):
        monkeypatch.setattr(kernel, "_PAIR_BOUND", bound)
        trees = forest_with_edge_members(random.Random(63), mode, 9)
        n = len(trees)
        calls = [
            (range(n), range(n)),
            (range(n // 2), range(n // 2, n)),
            ([0, 0, 4, 1, n - 1], [0, 0, 4, 1, n - 1]),
            ([3, 1, n - 2], range(n)),
        ]
        for rows, cols in calls:
            before = len(products)
            self.check(trees, mode, list(rows), list(cols), 0.5)
            if list(rows) == list(cols):
                # Only pairs a <= b are summed; the mirror fills the rest.
                assert not any(np.tril(added, -1).any() for *_, added in products[before:])
        light = [np.count_nonzero(mask) for mask, *_ in products]
        widths = [width for _, width, _ in products]
        if bound == 0:
            assert max(light) == 0 and max(widths) > 0
        elif bound == 4:
            # Some call has both light vertices and a dense block.
            assert any(k > 0 and width > 0 for k, width in zip(light, widths))
        else:
            assert max(light) > 0 and max(widths) == 0

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_split_follows_holder_pairs(self, mode, products):
        # Ten copies each of three trees beside ten distinct trees, with every
        # third weight 0.  Holders are counted from each member's subtree
        # signatures, not from the count matrix.
        rng = random.Random(64)
        labels = "ab" if mode.labeled else None
        trees = [random_tree(rng, 12, labels) for _ in range(3)] * 10
        trees += [random_tree(rng, 30, labels) for _ in range(10)]
        ann = annotated_for(trees, mode)
        sig_to_v = {canonical_signature(expand(ann.dag, v), mode): v for v in range(ann.dag.root)}
        held = [sorted({sig_to_v[s] for s in subtree_signatures(t, mode)}) for t in trees]
        w = exponential_weights(ann.dag, 0.5)
        w[::3] = 0.0
        calls = [(range(40), range(40)), (range(0, 40, 2), range(1, 40, 3)), ([0, 30, 31], [0])]
        for rows, cols in calls:
            GramComputer(ann, w).gram(rows, cols)
        assert len(products) == len(calls)
        for (rows, cols), (light, width, _) in zip(calls, products):
            h_r, h_c = (np.bincount(np.concatenate([held[i] for i in members]),
                                    minlength=len(w)) for members in (rows, cols))
            pairs = h_r * h_c
            live = (pairs > 0) & (w != 0)
            np.testing.assert_array_equal(light, live & (pairs <= kernel._PAIR_BOUND))
            assert width == np.count_nonzero(live & (pairs > kernel._PAIR_BOUND))
        assert all(light.any() for light, *_ in products)
        assert all(width > 0 for _, width, _ in products[:2])

    @pytest.mark.parametrize("bound", [0, 4, 10**9])
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_square_with_own_vertices(self, mode, bound, products, monkeypatch):
        # A vertex that one row alone holds has one holder pair and adds only
        # to that row's diagonal entry: through the block under bound 0, else
        # through the pair sums.
        monkeypatch.setattr(kernel, "_PAIR_BOUND", bound)
        rng = random.Random(65)
        labels = "ab" if mode.labeled else None
        trees = [random_tree(rng, 14, labels) for _ in range(4)] + [Tree.leaf("a" if labels else None)]
        rows = [0, 1, 2, 3, 4, 1]
        ann = annotated_for(trees, mode)
        pos, ids, _ = ann.occurrences(rows)
        own = np.bincount(ids, minlength=len(ann.dag)) == 1
        assert set(pos[own[ids]].tolist()) == {0, 2, 3}  # row 1 is repeated
        self.check(trees, mode, rows, rows, 0.5)
        for light, width, _ in products:
            if bound == 0:
                assert width >= np.count_nonzero(own) and not light.any()
            else:
                assert light[own].all()
