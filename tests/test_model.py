import math
import random
from fractions import Fraction

import pytest

from dagkernel import (
    ContrastCalculator,
    ModelConstructionError,
    Tree,
    build_model,
    canonical_signature,
    check_leaf_weight_effect,
    check_separation,
    edit_height_pmf,
    kernel_brute,
    mass_at_most,
    parse_tree,
    sample_dataset,
    sample_edited,
    sufficient_size,
    unit_weight,
    verify_model,
)
from dagkernel.model import _broom

from conftest import FIG1_T0, FIG1_T1, FIG2_T0, FIG2_T1, ORDERED, UNORDERED


def star(n):
    return Tree.node([Tree.leaf() for _ in range(n)])


def brooms_for(t0, t1):
    width = max(t0.outdegree(), t1.outdegree()) + 1
    return tuple(_broom(h, width) for h in range(t0.height() + 1))


def halving_weight(tree):
    # Exact like unit_weight, but it tells subtrees of different heights
    # apart, so a check fed the wrong weight function shows.
    return 0 if len(tree) == 1 else Fraction(1, 2 ** tree.height())


WEIGHTS = [pytest.param(unit_weight, id="unit"), pytest.param(halving_weight, id="halving")]


class TestVerification:
    def test_generated_models_verify(self):
        for height in (2, 3, 4, 5):
            for seed in (0, 1, 2):
                inst = build_model(height, seed=seed)
                verify_model(inst.t0, inst.t1, inst.fillers, inst.mode)

    def test_figure_pair_with_extra_leaf_passes(self):
        t0, t1 = parse_tree(FIG2_T0), parse_tree(FIG2_T1)
        verify_model(t0, t1, brooms_for(t0, t1), UNORDERED)

    def test_first_figure_pair_satisfies_sharing_conditions(self):
        # Non-leaf subtrees are unique within each tree and disjoint across.
        t0, t1 = parse_tree(FIG1_T0), parse_tree(FIG1_T1)
        from dagkernel.model import _nonleaf_sigs
        from dagkernel.trees import subtree_signatures
        from dagkernel.model import _is_leaf_sig

        for t in (t0, t1):
            sigs = [s for s in subtree_signatures(t, UNORDERED) if not _is_leaf_sig(s)]
            assert len(sigs) == len(set(sigs))
        assert not (_nonleaf_sigs(t0, UNORDERED) & _nonleaf_sigs(t1, UNORDERED))

    def test_tree_with_itself_fails(self):
        t = parse_tree(FIG1_T0)
        with pytest.raises(ModelConstructionError):
            verify_model(t, t, brooms_for(t, t), UNORDERED)

    def test_repeated_subtrees_fail(self):
        t0 = Tree.node([star(2), star(2)])  # two isomorphic 2-stars
        t1 = Tree.node([star(3), star(1)])
        with pytest.raises(ModelConstructionError):
            verify_model(t0, t1, brooms_for(t0, t1), UNORDERED)

    def test_filler_inside_template_fails(self):
        t0 = Tree.node([star(1), star(4)])
        t1 = Tree.node([star(2), star(3)])
        bad = (Tree.leaf(), star(2), _broom(2, 6))  # height-1 filler occurs in t1
        with pytest.raises(ModelConstructionError):
            verify_model(t0, t1, bad, UNORDERED)

    def test_unequal_heights_fail(self):
        t0 = Tree.node([star(1), star(4)])
        t1 = star(3)
        with pytest.raises(ModelConstructionError):
            verify_model(t0, t1, brooms_for(t0, t0), UNORDERED)

    def test_ordered_mode_models(self):
        inst = build_model(3, seed=5, mode=ORDERED)
        verify_model(inst.t0, inst.t1, inst.fillers, ORDERED)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            build_model(3, rho=Fraction(7, 2))
        with pytest.raises(ValueError):
            build_model(1)


class TestEditDistribution:
    def test_pmf_sums_to_one(self):
        for height in (2, 3, 5):
            for rho in (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(height)):
                if rho > height:
                    continue
                pmf = edit_height_pmf(height, rho)
                assert sum(pmf) == 1
                assert all(p >= 0 for p in pmf)

    def test_mass_complement(self):
        pmf = edit_height_pmf(4, Fraction(3))
        assert mass_at_most(pmf, 3) + pmf[4] == 1
        assert mass_at_most(pmf, 4) == 1

    def test_mean(self):
        height, rho = 5, Fraction(7, 3)
        pmf = edit_height_pmf(height, rho)
        assert sum(k * p for k, p in enumerate(pmf)) == rho

    def test_rho_zero_point_mass(self):
        pmf = edit_height_pmf(3, Fraction(0))
        assert pmf[0] == 1 and all(p == 0 for p in pmf[1:])


class TestSampling:
    def test_rho_zero_leaves_tree_unchanged(self):
        inst = build_model(3, seed=1, rho=Fraction(0))
        rng = random.Random(0)
        for _ in range(10):
            tree, u = sample_edited(inst, 0, rng)
            assert canonical_signature(tree, inst.mode) == canonical_signature(
                inst.t0, inst.mode
            )
            assert inst.t0.height(u) == 0

    def test_root_edit_returns_filler(self):
        inst = build_model(3, seed=1, rho=Fraction(3))  # forces h = H
        rng = random.Random(0)
        tree, u = sample_edited(inst, 1, rng)
        assert u == inst.t1.root
        assert canonical_signature(tree, inst.mode) == canonical_signature(
            inst.fillers[3], inst.mode
        )

    def test_height_histogram_matches_pmf(self):
        inst = build_model(3, seed=2, rho=Fraction(9, 4))
        pmf = [float(p) for p in edit_height_pmf(3, inst.rho)]
        rng = random.Random(123)
        n = 20000
        counts = [0] * 4
        for _ in range(n):
            _, u = sample_edited(inst, 0, rng)
            counts[inst.t0.height(u)] += 1
        for h in range(4):
            sigma = math.sqrt(n * pmf[h] * (1 - pmf[h]))
            assert abs(counts[h] - n * pmf[h]) <= 3 * sigma + 1

    def test_sample_dataset_balanced(self):
        inst = build_model(3, seed=3)
        trees, classes = sample_dataset(inst, 5, random.Random(0))
        assert len(trees) == 10 and classes.count(0) == classes.count(1) == 5


class TestEditedKernelDecomposition:
    # The closed form that all exact contrast computations rely on:
    # editing at u and v destroys exactly the subtree classes rooted in the
    # union of the vertex families of the non-leaf edit sites, and adds the
    # replacement kernel.  A leaf edit swaps a leaf for the height-0
    # replacement, itself a leaf, so it destroys nothing.
    @pytest.mark.parametrize(
        "height, mode",
        [pytest.param(h, UNORDERED, id=str(h)) for h in (2, 3, 4)]
        + [pytest.param(h, ORDERED, id=f"ordered-{h}") for h in (2, 3, 4)],
    )
    def test_same_class_pairs(self, height, mode):
        inst = build_model(height, seed=height, mode=mode)
        calc = ContrastCalculator(inst, unit_weight)
        for cls in (0, 1):
            tree = inst.tree(cls)
            k_self = kernel_brute(tree, tree, inst.mode, unit_weight)
            for u in tree.vertices():
                for v in tree.vertices():
                    lhs = kernel_brute(inst.edited(cls, u), inst.edited(cls, v),
                                       inst.mode, unit_weight)
                    tau = kernel_brute(
                        inst.fillers[tree.height(u)],
                        inst.fillers[tree.height(v)],
                        inst.mode,
                        unit_weight,
                    )
                    rhs = k_self - calc.tables[cls].affected_weight(u, v) + tau
                    assert lhs == rhs, (cls, u, v)

    @pytest.mark.parametrize("height", [2, 3])
    def test_cross_class_pairs_reduce_to_filler_kernel(self, height):
        inst = build_model(height, seed=height + 10)
        for u in inst.t0.vertices():
            for v in inst.t1.vertices():
                lhs = kernel_brute(inst.edited(0, u), inst.edited(1, v), inst.mode, unit_weight)
                rhs = kernel_brute(
                    inst.fillers[inst.t0.height(u)],
                    inst.fillers[inst.t1.height(v)],
                    inst.mode,
                    unit_weight,
                )
                assert lhs == rhs, (u, v)


class TestContrast:
    def test_root_contrast_zero(self):
        inst = build_model(3, seed=4)
        for cls in (0, 1):
            assert ContrastCalculator(inst, unit_weight).exact(cls, 0) == 0

    def test_nonroot_contrast_positive(self):
        inst = build_model(4, seed=4)
        calc = ContrastCalculator(inst, unit_weight)
        for cls in (0, 1):
            for x in inst.tree(cls).vertices():
                value = calc.exact(cls, x)
                assert (value == 0) == (x == 0)
                assert value >= 0

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_exact_matches_definitional_expectation(self, weight):
        # Exhaustive finite-space expectation of the defining difference.
        for height in (2, 3, 4, 5):
            for seed in (0, 1, 2):
                for mode in (UNORDERED, ORDERED):
                    inst = build_model(height, seed=seed, mode=mode)
                    calc = ContrastCalculator(inst, weight)
                    report = check_leaf_weight_effect(inst, weight, Fraction(1))
                    by_key = {(e.cls, e.x): e for e in report.entries}
                    for cls in (0, 1):
                        for x in inst.tree(cls).vertices():
                            assert calc.exact(cls, x) == by_key[(cls, x)].contrast, (
                                height, seed, mode, cls, x)

    def test_monte_carlo_agrees(self):
        inst = build_model(3, seed=7)
        calc = ContrastCalculator(inst, unit_weight)
        rng = random.Random(99)
        for cls, x in [(0, 0), (0, 2), (1, 1)]:
            exact = float(calc.exact(cls, x))
            estimate, stderr = calc.monte_carlo(cls, x, 100_000, rng)
            assert abs(estimate - exact) <= 3 * stderr + 1e-12

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_monte_carlo_needs_a_sample(self, n_samples):
        calc = ContrastCalculator(build_model(3), unit_weight)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            calc.monte_carlo(0, 1, n_samples, random.Random(0))

    def test_hand_enumeration_leaf_parent(self):
        # Smallest worthwhile case done by hand: templates
        #   T0 = root(star1, star4), T1 = root(star2, star3), rho = 3/2, H = 2.
        # For x = the 1-leaf star of T0 (weights: 1 per internal subtree):
        #   K(T0,T0) = 3 (root, star1, star4, each unique; leaves weigh 0).
        # Picking u = x removes {x}: contribution w(x) = 1... the full sums
        # are spelled out below from the B-set definition.
        t0 = Tree.node([star(1), star(4)])
        t1 = Tree.node([star(2), star(3)])
        fillers = (Tree.leaf(), star(6), Tree.node([star(6)]))
        verify_model(t0, t1, fillers, UNORDERED)
        from dagkernel.model import ModelInstance

        inst = ModelInstance(t0, t1, 2, Fraction(3, 2), UNORDERED, fillers)
        pmf = edit_height_pmf(2, Fraction(3, 2))  # (1/16, 6/16, 9/16)
        assert pmf == [Fraction(1, 16), Fraction(6, 16), Fraction(9, 16)]
        # Vertices of T0 (preorder): 0 root, 1 star1, 2 leaf, 3 star4, 4..7 leaves.
        # c_0 = 5 leaves, c_1 = 2 stars, c_2 = 1 root.
        # x = vertex 1 (star1).  B_{x,u} weights (leaves weigh zero):
        #   u = x: desc -> w = 1
        #   u = root: family(root) covers everything -> w = 3
        #   u = star4 (v=3): fam(x) u fam(u) = {root, x, star4, leaves} -> w = 3
        #   u = any leaf: the height-0 replacement is a leaf, so the edit at
        #       u is a no-op and only fam(x) = {root, x, leaves of x} is
        #       destroyed -> 2, whether u is below x or below star4
        expected = 3 - (
            Fraction(6, 16) / 2 * 1  # u = x
            + Fraction(9, 16) / 1 * 3  # u = root
            + Fraction(6, 16) / 2 * 3  # u = star4
            + Fraction(1, 16) / 5 * 2  # u = leaf under x
            + 4 * Fraction(1, 16) / 5 * 2  # u = one of 4 leaves under star4
        )
        assert expected == Fraction(7, 16)
        assert ContrastCalculator(inst, unit_weight).exact(0, 1) == expected


class TestSeparationBound:
    @pytest.mark.parametrize("height", [3, 4])
    def test_bound_holds_everywhere(self, height):
        inst = build_model(height, seed=height)
        for h in range(height):
            report = check_separation(inst, unit_weight, h)
            assert report.applicable
            assert report.all_hold
            assert 0 < report.mass_low <= 1

    def test_mass_low_is_g(self):
        inst = build_model(3, seed=8)
        pmf = edit_height_pmf(3, inst.rho)
        report = check_separation(inst, unit_weight, 1)
        assert report.mass_low == pmf[0] + pmf[1]

    def test_not_applicable_below_half(self):
        inst = build_model(4, seed=9, rho=Fraction(1))
        report = check_separation(inst, unit_weight, 2)
        assert not report.applicable
        assert all(c.root_iff_zero for c in report.per_class)

    def test_h_range_checked(self):
        inst = build_model(3, seed=10)
        with pytest.raises(ValueError):
            check_separation(inst, unit_weight, 3)


class TestSufficientSize:
    def test_doubling_log_term(self):
        inst = build_model(3, seed=11)
        small = sufficient_size(inst, unit_weight, 1, 0.5)
        # log(2/delta) doubles from delta=0.5 to delta=0.125 (log4 -> log16).
        big = sufficient_size(inst, unit_weight, 1, 0.125)
        assert big == pytest.approx(2 * small, abs=2)

    def test_plug_in_value(self):
        inst = build_model(3, seed=12, rho=Fraction(3))
        calc = ContrastCalculator(inst, unit_weight)
        from dagkernel.model import _class_bound

        max_k = max(float(calc.tables[i].self_kernel) for i in (0, 1))
        c_min = min(float(_class_bound(inst, calc, i, 1)) for i in (0, 1))
        expected = math.ceil(
            2 * max_k**2 / c_min**2 * math.exp(6) / 9 * math.log(2 / 0.1)
        )
        assert sufficient_size(inst, unit_weight, 1, 0.1) == expected

    def test_degenerate_bound_rejected(self):
        inst = build_model(3, seed=13)
        # h = H: the best height-H self kernel is the whole tree, gap is 0.
        with pytest.raises(ValueError):
            sufficient_size(inst, unit_weight, 3, 0.1)

    def test_decreasing_in_height_term(self):
        # At fixed kernel constants the 1/H^2 factor shrinks the size; check
        # the formula shape via direct evaluation.
        inst = build_model(3, seed=14)
        base = sufficient_size(inst, unit_weight, 1, 0.1)
        assert base >= 1


class TestLeafWeightEffect:
    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_identity_and_min(self, weight):
        inst = build_model(3, seed=15)
        report = check_leaf_weight_effect(inst, weight, Fraction(2, 7))
        assert report.identity_holds
        assert report.min_not_increased
        assert report.expected_leaf_gap[0] == -report.expected_leaf_gap[1]

    def test_symmetric_model_zero_gap(self):
        # Same total leaves and the same per-height average subtree leaf
        # count: the expected edited leaf counts coincide and the correction
        # vanishes.
        t0 = Tree.node([star(1), star(4)])
        t1 = Tree.node([star(2), star(3)])
        fillers = (Tree.leaf(), star(6), Tree.node([star(6)]))
        from dagkernel.model import ModelInstance

        inst = ModelInstance(t0, t1, 2, Fraction(3, 2), UNORDERED, fillers)
        report = check_leaf_weight_effect(inst, unit_weight, Fraction(1))
        assert report.expected_leaf_gap == (0, 0)
        for entry in report.entries:
            assert entry.contrast_plus == entry.contrast

    def test_generic_model_strict_for_one_class(self):
        inst = build_model(3, seed=16)
        report = check_leaf_weight_effect(inst, unit_weight, Fraction(1))
        gap0, gap1 = report.expected_leaf_gap
        assert gap0 != 0
        lowered = 0 if gap0 < 0 else 1
        strict = [
            e for e in report.entries if e.cls == lowered and e.contrast_plus < e.contrast
        ]
        assert strict

    def test_requires_zero_leaf_base(self):
        inst = build_model(3, seed=17)
        with pytest.raises(ValueError):
            check_leaf_weight_effect(inst, lambda t: 1, Fraction(1))
        with pytest.raises(ValueError):
            check_leaf_weight_effect(inst, unit_weight, 0)
